"""Fuss-Catalan numbers F(s, n) = C(s n, n) / ((s - 1) n + 1).

Exact values are guarded (the binomial grows astronomically); the modular
paths never materialize F.  With m = p**q n + 1 the identity
F(p**q, n) = C(m, n) / m holds, m is a unit mod p**q, and the p-adic
valuation collapses to a digit sum of (p**q - 1) n + 1, so n may be huge.
"""

from __future__ import annotations

from math import comb

from .config import DEFAULT_EXACT_LIMIT, SizeGuardError
from .digits import PrimePower, _require_nonneg, _shown, sigma_p
from .modular import granville_binom_mod_pq, inverse_mod_pq


def catalan_exact(s: int, n: int) -> int:
    """Exact F(s, n); refuses when s*n exceeds DEFAULT_EXACT_LIMIT = 10**6.

    F(s, 0) = 1 by the empty-product convention.
    """
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    _require_nonneg(n)
    if s * n > DEFAULT_EXACT_LIMIT:
        raise SizeGuardError(
            f"s*n = {_shown(s * n)} exceeds the exact-computation limit {DEFAULT_EXACT_LIMIT}"
        )
    value, rem = divmod(comb(s * n, n), (s - 1) * n + 1)
    if rem:
        raise ArithmeticError(f"C({s * n},{n}) not divisible by {(s - 1) * n + 1}")
    return value


def catalan_valuation(pp: PrimePower, n: int) -> int:
    """v_p(F(p**q, n)) = (sigma_p((p**q - 1) n + 1) - 1) / (p - 1).

    Pure digit arithmetic; the division is exact because
    (p**q - 1) n + 1 == 1 (mod p - 1) and sigma_p respects that congruence.
    """
    _require_nonneg(n)
    return (sigma_p((pp.modulus - 1) * n + 1, pp.p) - 1) // (pp.p - 1)


def divides(pp: PrimePower, n: int) -> bool:
    """Whether p**q divides F(p**q, n)."""
    return catalan_valuation(pp, n) >= pp.q


def catalan_residue_mod_pq(pp: PrimePower, n: int) -> int:
    """F(p**q, n) mod p**q, via F = C(p**q n + 1, n) / (p**q n + 1).

    The denominator is a unit mod p**q, so the residue is the unit part of
    the binomial times p**e0 times the inverse of the denominator; it is 0
    exactly when e0 >= q.  Only digit-level work, so n may be huge.
    """
    _require_nonneg(n)
    pq = pp.modulus
    m = pq * n + 1
    g = granville_binom_mod_pq(m, n, pp)
    if g.e0 >= pp.q:
        return 0
    inv = inverse_mod_pq(m % pq, pp)
    return g.unit_residue * pow(pp.p, g.e0, pq) % pq * inv % pq
