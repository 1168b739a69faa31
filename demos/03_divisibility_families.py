#!/usr/bin/env python3
"""When does p**q divide the Fuss-Catalan number F(p**q, n)?

F(s, n) = C(s n, n) / ((s - 1) n + 1).  For s = p**q the p-adic valuation
is a digit sum, v_p(F) = (sigma_p((p**q - 1) n + 1) - 1)/(p - 1), and the n
that fail divisibility fall into closed-form families: pure powers
(p**(tq) - 1)/(p**q - 1), and sums of constrained powers of p.
"""

from pqcat import (
    PrimePower,
    catalan_exact,
    catalan_residue_mod_pq,
    catalan_valuation,
    divides,
    enumerate_exceptions,
)

print("Small exact values of F(s, n):")
for s in (2, 3, 4, 9):
    print(f"  s = {s}: {[catalan_exact(s, n) for n in range(7)]}")

print("\nF(4, n) divisibility by 4: the failures below 60 and their residues")
for e in enumerate_exceptions(PrimePower(2, 2), 60):
    n = e.value
    residue = catalan_residue_mod_pq(PrimePower(2, 2), n)
    print(f"  n = {n:2d} = {n:>6b}_2  {e.kind:13s} F(4,{n}) == {residue} (mod 4)")

print("\nEach row of binary strings above grows by inserting a 1 right of an")
print("existing 1; the odd-length seeds 1, 101, 10101, ... are the pure powers.")

print("\nBrute force agrees with the structural enumeration, e.g. (3,3) to 2000:")
pp = PrimePower(3, 3)
structural = [e.value for e in enumerate_exceptions(pp, 2000)]
brute = [n for n in range(1, 2001) if catalan_valuation(pp, n) < 3]
print(f"  structural ({len(structural)} values): {structural[:12]} ...")
print(f"  agree: {structural == brute}")

print("\nValuations remain digit work at astronomical n:")
n = (2**1518 - 1) // 3
print(f"  n = (2^1518 - 1)/3 has {n.bit_length()} bits; v_2(F(4, n)) = {catalan_valuation(PrimePower(2, 2), n)}")
print(f"  so 4 divides F(4, n)? {divides(PrimePower(2, 2), n)} -- the pure-power family never is")
