"""Enumeration of the exceptional n for which p**q does not divide the
Fuss-Catalan number F(p**q, n), and of the wider sets v_p(F(p**q, n)) < v.

Write X = (p**q - 1) n + 1.  Since v_p(F(p**q, n)) = (sigma_p(X) - 1)/(p - 1),
v_p(F(p**q, n)) < v exactly when sigma_p(X) <= (p - 1)(v - 1) + 1; level
v = q gives the n with p**q not dividing F(p**q, n).
X == 1 (mod p**q - 1) and sigma_p(X) == X (mod p - 1) force the digit sum
to be l = m (p - 1) + 1 with 0 <= m < v, so the enumeration walks:

  * class vectors first: the counts (c_0, ..., c_{q-1}) of the digits of X
    in the exponent classes alpha == j (mod q), with digit sum l and
    sum_j c_j p**j == 1 (mod p**q - 1) -- a finite filter, since
    p**(q t + j) == p**j (mod p**q - 1); only admissible vectors are visited;
  * then exponent lifts alpha = q t + j per class, each alpha repeated at
    most p - 1 times so the digits of X stay below p.

The lifts are the output, so they are guarded instead of the vectors: before
any lift, the number of values up to the bound is bounded by the sum over
vectors of the product over classes of the ways to write c_j as k_j base-p
digits, k_j being the class's positions below the bound.  A bound whose
values would take more than config.EXCEPTION_OUTPUT_BYTES is refused with
SizeGuardError.

The argument uses only base-p digit sums, so it holds for every prime p,
p = 2 included.  Digit expansions are unique, so each exceptional n is
produced exactly once, as a plain integer (exception_values).  Its one
structural description is read back off the base-p digits of X only when
asked for (enumerate_exceptions):

  * l = 1 is the vector (1, 0, ..., 0), the pure-power family
    n = (p**(t q) - 1)/(p**q - 1) (t = 0 lifts to n = 0, which is dropped);
  * for q = 2 the only other family has all exponents odd, with
    multiplicities forming a composition (c_1, ..., c_s) of p;
  * for q >= 3 the description is the sorted exponent multiset itself.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import comb, log2, prod
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


def _placements(k: int, c: int, p: int) -> int:
    """Ways to write c as k base-p digits, by inclusion-exclusion on the
    digits above p - 1."""
    return sum((-1) ** i * comb(k, i) * comb(c - i * p + k - 1, k - 1)
               for i in range(min(k, c // p) + 1))


def _class_vectors(p: int, q: int, places: list[int],
                   level: int | None = None) -> Iterator[tuple[int, ...]]:
    """Every class vector (c_0, ..., c_{q-1}) with c_j <= (p - 1) places[j],
    digit sum m (p - 1) + 1 for some m < level (None: q) and
    sum_j c_j p**j == 1 (mod p**q - 1).

    These are c_j = [j = 0] - u_j + p u_{j+1} (u_q = u_0) over u >= 0 with
    u_0 + ... + u_{q-1} = m: from the single unit 1 = p**0, u_j units of
    class j are each broken into p units of class j - 1 (class 0 into class
    q - 1, since p**q == 1).  Every u_j is at most max(places) and
    level - 1.  For each u_0, best[j][u] is the least u_j + ... + u_{q-1}
    that closes the cycle from u_j = u, so the walk below only enters
    branches that yield a vector.
    """
    level = q if level is None else level
    caps = [(p - 1) * k for k in places]
    span = range(min(max(places), level - 1) + 1)
    for u0 in span:
        best = [None] * q + [[0 if u == u0 else level for u in span]]  # level: no way to close
        for j in range(q - 1, 0, -1):
            best[j] = [u + min([b for v, b in enumerate(best[j + 1])
                                if 0 <= p * v - u <= caps[j]], default=level) for u in span]
        counts = [0] * q
        stack = [(0, 0, u0, u0)]  # (class j, c_{j-1}, u_j, u_0 + ... + u_j)
        while stack:
            j, c, u, used = stack.pop()
            counts[j - 1] = c  # at j = 0 a placeholder, rewritten at j = q
            if j == q:
                yield tuple(counts)
                continue
            for v, b in enumerate(best[j + 1]):
                c = (j == 0) - u + p * v
                if 0 <= c <= caps[j] and used + b < level:
                    stack.append((j + 1, c, v, used + v))


def _lift_class(p: int, q: int, j: int, slots: int, budget: int, places: int) -> list[int]:
    """Sums of `slots` powers p**(q t + j), 0 <= t < places, each power used
    at most p - 1 times, with total <= budget."""
    step, top = p**q, p - 1
    sums: list[int] = []

    def rec(base: int, left: int, slots: int, acc: int) -> None:
        most = min(slots, top)
        # every remaining power is at least base, and the `left` positions
        # from base up hold at most p - 1 copies each
        while acc + base * slots <= budget:
            left -= 1
            fewest = slots - top * left  # the copies the positions above base cannot hold
            if fewest > top:
                break
            for k in range(fewest if fewest > 1 else 1, most + 1):
                if k == slots:
                    sums.append(acc + base * k)
                else:
                    rec(base * step, left, slots - k, acc + base * k)
            base *= step

    rec(p**j, places, slots, 0)
    return sums


def exception_values(pp: PrimePower, bound: int) -> list[int]:
    """All n <= bound with p**q not dividing F(p**q, n), ascending.

    Integers only: no structural record is built.  The bound on the
    number of values (module docstring), plus the steps of the class table,
    is checked against config.EXCEPTION_OUTPUT_BYTES before any lift; above
    it the call raises SizeGuardError.
    """
    return _values_below(pp, bound, pp.q)


def _values_below(pp: PrimePower, bound: int, level: int) -> list[int]:
    """All n <= bound with v_p(F(p**q, n)) < level, ascending, under
    exception_values' output guard."""
    if bound < 1:
        return []
    p, q = pp.p, pp.q
    mod = pp.modulus - 1
    budget = mod * bound + 1  # X = mod * n + 1 <= budget
    width = int((budget.bit_length() - 1) / log2(p))  # at most the digit count of budget
    while p**width <= budget:
        width += 1
    places = [len(range(j, width, q)) for j in range(q)]  # class positions below the budget
    # bytes per value: 150 + 0.75 * bits.  The CLI writes an int list in
    # chunks, so the peak RSS of `pqcat exceptions`, less the interpreter's
    # 16 MB, is 65-550 B a value from 43- to 1520-bit X: about 2-3x less
    room = config.EXCEPTION_OUTPUT_BYTES // (150 + 3 * budget.bit_length() // 4)
    steps = q * (min(places[0], level - 1) + 1) ** 3  # the class table's, counted as values
    sizes = (prod(_placements(places[j], c, p) for j, c in enumerate(counts) if c)
             for counts in _class_vectors(p, q, places, level))
    # lazily: a table too large to build is refused before it is built
    if any(total > room for total in accumulate(sizes, initial=steps)):
        # above level q the set is scan candidates, not the paper's exceptions
        what = "exceptions" if level == q else f"scan candidates (n with v_p(F) < {level})"
        raise SizeGuardError(f"{pp} may have more than {room} {what} up to the bound, "
                             f"above the {config.EXCEPTION_OUTPUT_BYTES}-byte output guard")
    xs = []
    for counts in _class_vectors(p, q, places, level):
        partial = [0]
        for j, c in enumerate(counts):
            if c:
                sums = sorted(_lift_class(p, q, j, c, budget, places[j]))
                partial = [a + b for a in partial for b in sums[: bisect_right(sums, budget - a)]]
        xs.extend(partial)
    # digit expansions are unique, so no X repeats; xs[0] is X = 1 (n = 0)
    xs.sort()
    del xs[0]
    # X -> n in place, so the answer is never held twice
    for i, x in enumerate(xs):
        xs[i] = (x - 1) // mod
    return xs


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
