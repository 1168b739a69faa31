"""Rigorous evaluation of the square-root gap inequality

    (1 - a) sqrt(p**q n + 1) - (1 + a) sqrt((p**q - 1) n + 1)
        >  c_main p**(23q/48) n**(23/48) (log(256 ((p**q - 1) n + 1)))**(11/4)
           + (11/8) (3 log n + 2 q log p),            a = 1/400000,

whose validity forces C(p**q n + 1, n) to be non-squarefree (hypothesis
p**q <= 99999).  Every verdict uses interval arithmetic with outward
rounding, so every reported comparison is decisive at the working
precision; an indeterminate comparison escalates the precision and, past
the cap, raises PrecisionError rather than guessing; a starting precision
outside 64..PRECISION_CAP bits is refused up front, as is an n or a
precision that is not an int.  Each precision has its own interval
context, handed to every evaluation as an argument, so no mpmath global is
read or set and concurrent callers do not interfere.

The terms that do not depend on n (alpha, the exponents, 3 c_tail, the
right side's C and D, log 10 in base-10 mode) are computed once per
instance, form and precision, on the first evaluation that needs them,
and kept on the instance; an evaluation forms only the square roots,
log n (shared by the main term and the tail), n**exp_n and the main
logarithm.  The operations and their order are those of a from-scratch
evaluation, so every endpoint is the same to the last bit.

find_tau0 locates, then certifies: a double-precision model of the
inequality guesses the crossing exponent, interval evaluations bracket
it between consecutive powers of two, and a monotonicity lemma checked
once at the crossing proves that the inequality holds at every larger n.
The guess only decides where the interval evaluations start, never a
verdict, so a wrong guess costs time and not the answer.

Logarithms are natural.  A base-10 mode exists for cross-checking the
specialized constant sets of the (2,2) and (3,2) cases, whose additive
tail constants equal (11/8) * 2q * log10(p) exactly -- an artifact of
decimal logs that also explains the headline witness exponents; see
specialized_constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath
from mpmath import mp

from . import config
from .config import PrecisionError, ThresholdSearchError
from .digits import PrimePower, _shown


@dataclass(frozen=True)
class InequalityConstants:
    """The constant set of the general inequality; all exact rationals."""

    alpha: Fraction = Fraction(1, 400000)
    c_main: Fraction = Fraction(21683, 1000)
    exp_n: Fraction = Fraction(23, 48)
    exp_log: Fraction = Fraction(11, 4)
    log_scale: int = 256
    c_tail: Fraction = Fraction(11, 8)
    natural_log: bool = True


GENERAL_CONSTANTS = InequalityConstants()

# per-case reference constant sets: main coefficient, additive tail
# constant, and the scale inside the main logarithm (log(scale * n + 1))
_SPECIALIZED: dict[tuple[int, int], tuple[Fraction, Fraction, int]] = {
    (2, 2): (Fraction(421311, 10000), Fraction(165566, 100000), 768),
    (3, 2): (Fraction(2604, 100), Fraction(262417, 100000), 2048),
}


@dataclass(frozen=True)
class InequalityInstance:
    """A prime power with its constant set and working precision."""

    pp: PrimePower
    constants: InequalityConstants = GENERAL_CONSTANTS
    precision: int | None = None  # None means config.DEFAULT_PRECISION
    # _Terms by (form, precision), filled by _terms on first use
    _terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pp.modulus > 99999:
            raise ValueError(f"the inequality requires p**q <= 99999, got {self.pp}")
        bits = config.DEFAULT_PRECISION if self.precision is None else self.precision
        _require_int(bits, "precision")
        if bits < 64:
            raise ValueError(f"precision must be >= 64 bits, got {bits}")
        if bits > config.PRECISION_CAP:
            raise PrecisionError(
                f"precision must be <= {config.PRECISION_CAP} bits, got {bits}"
            )
        object.__setattr__(self, "precision", bits)

    def __getstate__(self):
        # the stored terms live in private interval contexts, which do not
        # pickle or deep-copy; a copy computes its own
        return {**self.__dict__, "_terms": {}}


# one escalation from 64 to PRECISION_CAP bits passes through at most 7
# precisions; a context takes 28-44 KB
@lru_cache(maxsize=8)
def _context(bits: int):
    """A private mpmath interval context fixed at the given precision."""
    ctx = type(mpmath.iv)()
    ctx.prec = bits
    return ctx


def _frac(iv, x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _pow_frac(iv, base, exponent: Fraction):
    return iv.exp(_frac(iv, exponent) * iv.log(base))


def _endpoint(x, upper: bool):
    """One endpoint of an interval as a plain real, without re-rounding."""
    return mp.make_mpf(x._mpi_[1 if upper else 0])


def _require_int(x, name: str) -> None:
    if type(x) is bool or not isinstance(x, int):
        raise ValueError(f"{name} must be an int, got {type(x).__name__}")


def _require_positive(n: int) -> None:
    _require_int(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {_shown(n)}")


def _specialized(pp: PrimePower) -> tuple[Fraction, Fraction, int]:
    key = (pp.p, pp.q)
    if key not in _SPECIALIZED:
        raise ValueError(f"no specialized constant set for {pp}")
    return _SPECIALIZED[key]


def _log(iv, ln10, x):
    """log x, natural when ln10 is None, else decimal (ln10 = log 10)."""
    y = iv.log(x)
    return y if ln10 is None else y / ln10


def _shape(iv, inst: InequalityInstance, form: str, ln10):
    """(C, k, c, D) of the right side in its one shape,

        rhs = C n**exp_n L**exp_log + 3 c_tail log n + D,   L = log(k n + c),

    with C and D intervals in the context iv and k, c ints.  The
    general form has C = c_main p**(q exp_n), k = log_scale (p**q - 1),
    c = log_scale and D = 2q c_tail log p; the specialized one takes C, D
    and k from _SPECIALIZED, with c = 1.  ln10 is as for _log.
    """
    const = inst.constants
    p, q = inst.pp.p, inst.pp.q
    if form == "general":
        C = _frac(iv, const.c_main) * _pow_frac(iv, iv.mpf(p), const.exp_n * q)
        D = _frac(iv, 2 * q * const.c_tail) * _log(iv, ln10, iv.mpf(p))
        return C, const.log_scale * (inst.pp.modulus - 1), const.log_scale, D
    if form == "specialized":
        c_main, c_tail, scale = _specialized(inst.pp)
        return _frac(iv, c_main), scale, 1, _frac(iv, c_tail)
    raise ValueError(f"unknown form {form!r}")


class _Terms(NamedTuple):
    """The n-free terms of one form at one precision: intervals in the
    context iv they were computed in, and the ints k and c0."""

    iv: object
    one_minus_a: object
    one_plus_a: object
    C: object
    k: int
    c0: int
    D: object
    exp_n: object
    exp_log: object
    tail: object  # 3 c_tail
    ln10: object  # None for natural logarithms


def _terms(inst: InequalityInstance, form: str, bits: int) -> _Terms:
    """The instance's n-free terms for the form at the given precision,
    computed in _context(bits) the first time they are asked for.  Two
    threads that miss at once compute the same terms and either store
    wins, so no lock is needed."""
    terms = inst._terms.get((form, bits))
    if terms is None:
        iv = _context(bits)
        c = inst.constants
        ln10 = None if c.natural_log else iv.log(iv.mpf(10))
        a = _frac(iv, c.alpha)
        C, k, c0, D = _shape(iv, inst, form, ln10)
        terms = _Terms(iv, 1 - a, 1 + a, C, k, c0, D, _frac(iv, c.exp_n),
                       _frac(iv, c.exp_log), 3 * _frac(iv, c.c_tail), ln10)
        inst._terms[form, bits] = terms
    return terms


def _escalate(bits: int, attempt, failure: str):
    """attempt(bits) at the given precision, doubling it until the attempt
    is decisive (returns anything but None); returns what it found and the
    precision that decided it.  Past the cap, PrecisionError."""
    while bits <= config.PRECISION_CAP:
        found = attempt(bits)
        if found is not None:
            return found, bits
        bits *= 2
    raise PrecisionError(failure)


def _sides_interval(inst: InequalityInstance, n: int, form: str):
    """Both sides at n as intervals and whether the left one wins, at the
    first doubling of the instance's precision that decides it, together
    with that precision."""
    _require_positive(n)
    pq = inst.pp.modulus

    def attempt(bits: int):
        iv, one_minus_a, one_plus_a, C, k, c0, D, exp_n, exp_log, tail, ln10 = \
            _terms(inst, form, bits)
        lhs = (one_minus_a * iv.sqrt(iv.mpf(pq * n + 1))
               - one_plus_a * iv.sqrt(iv.mpf((pq - 1) * n + 1)))
        log_n = iv.log(iv.mpf(n))
        main = C * iv.exp(exp_n * log_n) * _log(iv, ln10, iv.mpf(k * n + c0)) ** exp_log
        rhs = main + (tail * (log_n if ln10 is None else log_n / ln10) + D)
        gt, lt = lhs > rhs, lhs < rhs
        return (lhs, rhs, bool(gt)) if gt or lt else None

    failure = (f"sides indistinguishable at {config.PRECISION_CAP} bits "
               f"for {inst.pp}, n with {n.bit_length()} bits")
    return _escalate(inst.precision, attempt, failure)


def _decided_sides(inst: InequalityInstance, n: int, form: str):
    """inequality_sides' pair, and the precision that decided it."""
    (lhs, rhs, lhs_wins), bits = _sides_interval(inst, n, form)
    if lhs_wins:
        return (_endpoint(lhs, upper=False), _endpoint(rhs, upper=True)), bits
    return (_endpoint(lhs, upper=True), _endpoint(rhs, upper=False)), bits


def inequality_sides(inst: InequalityInstance, n: int, *, form: str = "general"):
    """Both sides at n, as reals whose comparison is decisive.

    When the left side wins you receive (lower bound of lhs, upper bound of
    rhs), and conversely, so comparing the returned numbers reproduces the
    rigorous interval verdict.
    """
    return _decided_sides(inst, n, form)[0]


def inequality_holds(inst: InequalityInstance, n: int, *, form: str = "general") -> bool:
    """Whether the left side strictly exceeds the right side at n."""
    (_, _, lhs_wins), _ = _sides_interval(inst, n, form)
    return lhs_wins


_LN2, _LN10 = math.log(2), math.log(10)


def _log_gap(inst: InequalityInstance, e: int, shape) -> float | None:
    """log(lhs) - log(rhs) at n = 2**e in doubles, or None where a side is
    not positive; shape is _shape's (C, k, c, D) as floats.

    Everything is in terms of x = e log 2, so no power of n is formed.
    lhs = sqrt(n) B(n), and B(n) = (1-a) sqrt(u) - (1+a) sqrt(u - 1),
    u = p**q + 1/n, is taken as ((1+a)**2 - 4 a u) / ((1-a) sqrt(u) +
    (1+a) sqrt(u - 1)): the plain difference cancels most of its digits
    near p**q = 99999.
    """
    C, k, c0, D = shape
    const = inst.constants
    a = float(const.alpha)
    x = e * _LN2
    u = inst.pp.modulus + math.exp(-x)
    num = (1 + a) ** 2 - 4 * a * u
    den = (1 - a) * math.sqrt(u) + (1 + a) * math.sqrt(u - 1)
    arg = k + c0 * math.exp(-x)  # (k n + c) / n
    if num <= 0 or den <= 0 or C <= 0 or arg <= 0:
        return None
    log_base = 1.0 if const.natural_log else _LN10
    L = (x + math.log(arg)) / log_base
    if L <= 0:
        return None
    log_main = math.log(C) + float(const.exp_n) * x + float(const.exp_log) * math.log(L)
    tail = 3 * float(const.c_tail) * x / log_base + D
    # rhs = e**log_main (1 + tail e**-log_main); the exponent is clamped so
    # that a main term below e**-700 cannot overflow it, as only the sign
    # of the gap steers the guess
    rel = 1 + tail * math.exp(min(-log_main, 700.0))
    if rel <= 0:
        return None
    return x / 2 + math.log(num / den) - log_main - math.log(rel)


def _bisect(lo: int, hi: int, holds) -> int:
    """Bisect lo < hi, taken as holds(lo) false and holds(hi) true without
    evaluating either, down to adjacent exponents; returns the holding one."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _guess(inst: InequalityInstance, shape, cap: int) -> int:
    """The least e in [1, cap] where _log_gap is positive, by bisection on
    the double-precision model (cap when there is none)."""

    def positive(e: int) -> bool:
        gap = _log_gap(inst, e, shape)
        return gap is not None and gap > 0

    return _bisect(0, cap, positive)


def find_tau0(inst: InequalityInstance, *, form: str = "general") -> int:
    """The exponent e such that the inequality fails at n = 2**(e - 1) and
    holds at every n >= n0 = 2**e.

    Locate, then certify: a double-precision model of the inequality
    (_log_gap) guesses the crossing g, and interval evaluations step out
    from g by 1, 2, 4, ... until a failing and a holding exponent bracket
    it, then bisect the bracket to adjacent exponents.  Exponent 0 counts
    as failing without an evaluation.  An accurate guess costs two
    evaluations, a wrong one only more; the verdicts come from
    inequality_holds alone.  Holding above the crossing is then proved,
    not sampled.  The right side has one shape in both forms,
    rhs = C n**exp_n L**exp_log + 3 c_tail log n + D, where L is the
    logarithm (natural or decimal) of k n + c (see _shape).  When n0 >= 8,
    alpha >= 0, C, k, c > 0, c_tail, D >= 0, exp_log >= 0, exp_n < 1/2 and
    L(n0) > exp_log / (1/2 - exp_n) (132 for the general constants),
    rhs/lhs strictly decreases on [n0, oo):

      * lhs = sqrt(n) B(n), B(n) = (1-a) sqrt(p**q + 1/n)
        - (1+a) sqrt(p**q - 1 + 1/n), and B increases with n as a >= 0;
      * dL/d(log n) < 1, so the logarithmic derivative of
        n**(exp_n - 1/2) L**exp_log is below exp_n - 1/2 + exp_log / L,
        which is negative since L increases with n and exceeds the bound
        at n0; with C > 0 and B increasing, main/lhs strictly decreases;
      * the tail is A log n + D with A = 3 c_tail >= 0 and D >= 0, and
        (A log n + D) / sqrt(n) does not increase for n > e**2, so tail/lhs
        does not for n >= 8.

    So rhs/lhs < 1 at n0 gives it at every larger n.  The answer does not
    depend on the guess: an e that fails at e - 1, holds at e and passes
    the lemma is the only such e, as the lemma makes every later exponent
    hold.  The conditions are read off the shape: exactly for the
    rationals, and for C, D and L(n0) in interval arithmetic at the
    instance's precision, C and D being the instance's stored terms.
    Raises ThresholdSearchError when one fails, or when the inequality
    fails at the cap, config.DEFAULT_EXPONENT_CAP.
    """
    cap = config.DEFAULT_EXPONENT_CAP
    terms = _terms(inst, form, inst.precision)
    iv, C, k, c0, D = terms.iv, terms.C, terms.k, terms.c0, terms.D

    def ok(e: int) -> bool:
        return inequality_holds(inst, 1 << e, form=form)

    g = _guess(inst, (float(C.mid), k, c0, float(D.mid)), cap)
    if ok(g):
        hi, step = g, 1
        while (lo := max(hi - step, 0)) and ok(lo):
            hi, step = lo, 2 * step
    else:
        lo, step = g, 1
        while not ok(hi := min(lo + step, cap)):
            if hi == cap:
                raise ThresholdSearchError(
                    f"no crossover found for {inst.pp} below exponent {cap}"
                )
            lo, step = hi, 2 * step
    hi = _bisect(lo, hi, ok)  # ok(lo) is False (or lo == 0), ok(hi) is True

    c = inst.constants
    half = Fraction(1, 2)
    if (hi >= 3 and c.alpha >= 0 and c.c_tail >= 0 and c.exp_log >= 0 and c.exp_n < half
            and C > 0 and k > 0 and c0 > 0 and D >= 0
            and _log(iv, terms.ln10, iv.mpf(k * (1 << hi) + c0))
            > _frac(iv, c.exp_log / (half - c.exp_n))):
        return hi
    raise ThresholdSearchError(
        f"cannot prove that the inequality holds above 2**{hi} for {inst.pp}: "
        f"n0 < 8, or the constants or L(n0) fall outside the monotonicity lemma"
    )


# floor(e**60); e**60 is irrational, so for every d >= 1
# ceil((e**60 - 1) / d) = (floor(e**60) - 1) // d + 1
_FLOOR_EXP60 = 114200738981568428366295718


def tau1(pp: PrimePower, tau0: int) -> int:
    """max(ceil((e**60 - 1) / (p**q - 1)), 5**10 * p**(5q), tau0), exactly."""
    if tau0 < 0:
        raise ValueError(f"tau0 must be >= 0, got {tau0}")
    first = (_FLOOR_EXP60 - 1) // (pp.modulus - 1) + 1
    second = 5**10 * pp.p ** (5 * pp.q)
    return max(first, second, tau0)


def specialized_constants(pp: PrimePower) -> tuple[Fraction, Fraction]:
    """The per-case reference (main, tail) constants for (2,2) and (3,2).

    These are reported for cross-checking only; the general constant set is
    the source of truth.  Notes from exact recomputation:

      * 42.1311 for (2,2) agrees with c_main * 2**(46/48) ~ 42.125 to four
        significant figures, but 26.04 for (3,2) equals c_main * 3**(1/6),
        not c_main * 3**(46/48) ~ 62.14 -- the (3,2) main coefficient is
        irreconcilable with the general form;
      * both tail constants equal (11/8) * 2q * log10(p) exactly, i.e. were
        produced with decimal instead of natural logarithms.
    """
    return _specialized(pp)[:2]
