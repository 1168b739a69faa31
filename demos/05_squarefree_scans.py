#!/usr/bin/env python3
"""Squarefree binomial coefficients C(p**q n + 1, n).

A prime square r**2 divides C(m, n) exactly when adding n and m - n in
base r carries twice, which needs r <= sqrt(m) -- so squarefreeness is
decided exactly without ever factoring the (possibly enormous) binomial.

Since p**q n + 1 == 1 (mod p), C(p**q n + 1, n) has as many factors p
as the Fuss-Catalan number F(p**q, n), so it can be squarefree only when
that count is at most 1.  A scan therefore tests only the few n with
v_p(F(p**q, n)) < max(q, 2): for q >= 2 the divisibility exceptions
(p**q does not divide F), for q = 1 the n with at most one factor p.
"""

from pqcat import PrimePower, is_squarefree_binom, scan_candidates, verify_divisibility_filter

print("Spot checks:")
for m, n in [(5, 1), (13, 3), (181, 45), (64, 7)]:
    print(f"  C({m},{n}) squarefree? {is_squarefree_binom(m, n)}")

print("\nScan C(4n+1, n) for n <= 10^4, candidates only:")
report = scan_candidates(PrimePower(2, 2), 10**4)
print(f"  tested {report.candidates_tested} candidates in {report.elapsed:.3f}s")
print(f"  squarefree hits: {list(report.squarefree_hits)}")

print("\nScan C(9n+1, n) for n <= 10^4:")
report = scan_candidates(PrimePower(3, 2), 10**4)
print(f"  tested {report.candidates_tested} candidates; hits {list(report.squarefree_hits)}")

print("\nScan C(2n+1, n) for n <= 2^40 (q = 1: v_2 at most 1):")
report = scan_candidates(PrimePower(2, 1), 2**40)
print(f"  tested {report.candidates_tested} candidates; hits {list(report.squarefree_hits)}")

print("\nExhaustive mode reproduces the same hits (the filter loses nothing):")
full = scan_candidates(PrimePower(2, 2), 10**4, exhaustive=True)
print(f"  exhaustive hits: {list(full.squarefree_hits)}")
print(f"  filter verified sound to 500: {verify_divisibility_filter(PrimePower(2, 2), 500)}")

print("\nThe expectation: beyond the analytic threshold no hits remain, so the")
print("desk-scale hit sets {1, 3, 45} and {1, 4, 10} are conjecturally complete.")
