#!/usr/bin/env python3
"""The complete residue tables of F(p**2, n) mod p**2.

Every residue is 0, 1, or a multinomial p!/(c_1! ... c_s!) mod p**2 over a
partition of p.  The library computes the table by a knapsack in the unit
group mod p (see pqcat.residues); the partition scan printed first is the
direct construction, the oracle that knapsack is tested against.  The table
for p = 7 holds an eighth residue, 28 = C(7; 3,2,1,1) mod 49, that the
reference tabulation of this table missed; the witness below checks it
against the exact big integer.
"""

from math import comb

from pqcat import multinomial, partitions_of, residue_count_sequence, residue_set_p2

print("Partitions of 5 and their multinomial residues mod 25:")
for part in partitions_of(5):
    m = multinomial(5, part.parts)
    print(f"  {str(part.parts):20s} C(5; ...) = {m:4d} == {m % 25:2d} (mod 25)")

print("\nResidue tables:")
for p in (2, 3, 5, 7):
    print(f"  p = {p}: {residue_set_p2(p)}")

print("\nThe p = 7 row really does contain 28: C(7; 3,2,1,1) = 420 == 28 (mod 49),")
print("attained at the smallest n whose digit pattern realizes that partition:")
x = 3 * 7 + 2 * 7**3 + 7**5 + 7**7
n = (x - 1) // 48
m = 49 * n + 1
f = comb(m, n) // m
print(f"  n = {n}; exact F(49, {n}) mod 49 = {f % 49}")

print("\nResidue-set sizes along s = 1..10 (None where s is not prime):")
print(f"  {residue_count_sequence(10)}")
