"""Enumeration of the exceptional n for which p**q does not divide the
Fuss-Catalan number F(p**q, n).

Write X = (p**q - 1) n + 1.  Since v_p(F(p**q, n)) = (sigma_p(X) - 1)/(p - 1),
the number n is exceptional exactly when sigma_p(X) <= (p - 1)(q - 1) + 1.
X == 1 (mod p**q - 1) and sigma_p(X) == X (mod p - 1) force the digit sum
to be l = 1 or l = m (p - 1) + 1 with 1 <= m <= q - 1, so the enumeration
walks, per admissible l:

  * residue classes first: multisets (j_1 <= ... <= j_l) over {0, ..., q-1}
    with sum_i p**j_i == 1 (mod p**q - 1) -- a finite, cheap filter, since
    p**(q t + j) == p**j (mod p**q - 1);
  * then exponent lifts alpha = q t + j per class, each alpha repeated at
    most p - 1 times so the digits of X stay below p.

The argument uses only base-p digit sums, so it holds for every prime p,
p = 2 included.  Digit expansions are unique, so each exceptional n is
produced exactly once, as a plain integer (exception_values).  Its one
structural description is read back off the base-p digits of X only when
asked for (enumerate_exceptions):

  * l = 1 is the pure-power family n = (p**(t q) - 1)/(p**q - 1);
  * for q = 2 the only other family has all exponents odd, with
    multiplicities forming a composition (c_1, ..., c_s) of p;
  * for q >= 3 the description is the sorted exponent multiset itself.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator, Union

from . import config
from .config import SizeGuardError
from .digits import PrimePower, _require_prime, to_base_p
from .residues import multinomial


@dataclass(frozen=True)
class PurePower:
    """n = (p**(t q) - 1) / (p**q - 1), i.e. X = p**(t q)."""

    t: int

    kind = "pure_power"


@dataclass(frozen=True)
class OddPowerSum:
    """n = (sum_k c_k p**(2 i_k + 1) - 1) / (p**2 - 1) with i_1 < ... < i_s,
    every c_k >= 1 and sum c_k = p (the q = 2 family)."""

    terms: tuple[tuple[int, int], ...]  # (c_k, i_k) pairs, i ascending

    kind = "odd_power_sum"

    @property
    def composition(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.terms)


@dataclass(frozen=True)
class GeneralSum:
    """X = sum of p**alpha over the recorded sorted exponent multiset."""

    exponents: tuple[int, ...]

    kind = "general_sum"


Form = Union[PurePower, OddPowerSum, GeneralSum]


@dataclass(frozen=True)
class ExceptionForm:
    """An exceptional n together with its structural description."""

    value: int
    pp: PrimePower
    form: Form

    @property
    def kind(self) -> str:
        return self.form.kind


def _residue_class_multisets(p: int, q: int, l: int) -> Iterator[tuple[int, ...]]:
    mod = p**q - 1
    for combo in combinations_with_replacement(range(q), l):
        if sum(p**j for j in combo) % mod == 1 % mod:
            yield combo


def _lift_class(p: int, q: int, j: int, slots: int, budget: int) -> list[int]:
    """Sums of `slots` powers p**(q t + j), t >= 0, each power used at most
    p - 1 times, with total <= budget."""
    step = p**q
    sums: list[int] = []

    def rec(base: int, slots: int, acc: int) -> None:
        if slots == 0:
            sums.append(acc)
            return
        # every remaining power is at least base
        while acc + base * slots <= budget:
            for k in range(1, min(slots, p - 1) + 1):
                rec(base * step, slots - k, acc + base * k)
            base *= step

    rec(p**j, slots, 0)
    return sums


def exception_values(pp: PrimePower, bound: int) -> list[int]:
    """All n <= bound with p**q not dividing F(p**q, n), ascending.

    Integers only: no structural record is built.  The class multisets
    are listed whatever the bound, so a modulus with more than
    EXCEPTION_MULTISET_LIMIT of them is refused before any work.
    """
    p, q = pp.p, pp.q
    multisets = sum(comb(m * (p - 1) + q, q - 1) for m in range(1, q))
    if multisets > config.EXCEPTION_MULTISET_LIMIT:
        raise SizeGuardError(
            f"{pp} has {multisets} residue-class multisets to list, above the guard "
            f"{config.EXCEPTION_MULTISET_LIMIT}"
        )
    if bound < 1:
        return []
    mod = pp.modulus - 1
    budget = mod * bound + 1  # X = mod * n + 1 <= budget
    xs = []
    x = pp.modulus
    while x <= budget:
        xs.append(x)
        x *= pp.modulus
    for m in range(1, q):
        for classes in _residue_class_multisets(p, q, m * (p - 1) + 1):
            partial = [0]
            for j, slots in sorted(Counter(classes).items()):
                sums = sorted(_lift_class(p, q, j, slots, budget))
                partial = [a + b for a in partial for b in sums[: bisect_right(sums, budget - a)]]
            xs.extend(partial)
    # digit expansions are unique, and pure powers have digit sum 1 while
    # every sum has digit sum at least p: no X repeats
    xs.sort()
    return [(x - 1) // mod for x in xs]


def _form_of(pp: PrimePower, n: int) -> Form:
    """The structural description read off the base-p digits of X."""
    digits = to_base_p((pp.modulus - 1) * n + 1, pp.p).digits
    if len(digits) - digits.count(0) == 1:
        return PurePower((len(digits) - 1) // pp.q)
    if pp.q == 2:
        return OddPowerSum(tuple((d, (a - 1) // 2) for a, d in enumerate(digits) if d))
    return GeneralSum(tuple(a for a, d in enumerate(digits) for _ in range(d)))


def enumerate_exceptions(pp: PrimePower, bound: int) -> list[ExceptionForm]:
    """exception_values with each n's structural description, ascending."""
    return [ExceptionForm(n, pp, _form_of(pp, n)) for n in exception_values(pp, bound)]


def residue_of_exception(form: ExceptionForm) -> int:
    """F(p**2, n) mod p**2 for a q = 2 exception: 1 on the pure-power
    family, else the multinomial p!/(c_1! ... c_s!) of the composition."""
    if form.pp.q != 2:
        raise ValueError(f"residues by structure only apply to q = 2, got {form.pp}")
    shape = form.form
    p2 = form.pp.modulus
    if isinstance(shape, PurePower):
        return 1 % p2
    if isinstance(shape, OddPowerSum):
        return multinomial(form.pp.p, shape.composition) % p2
    raise ValueError(f"unexpected form {shape!r} for q = 2")


def count_exceptions_q2(p: int, exponent_bound: int) -> int:
    """C(exponent_bound, p): the number of odd-power-sum exceptions whose p
    exponents are drawn strictly increasing from exponent_bound choices.

    This is the counting convention of the headline bounds (289180 pairs
    for p = 2 from 761 choices, 18088476 triples for p = 3 from 478); sums
    with repeated exponents and the pure-power family are not counted.
    """
    _require_prime(p)
    if exponent_bound < 1:
        raise ValueError(f"need exponent_bound >= 1, got {exponent_bound}")
    return comb(exponent_bound, p)
