"""Rigorous evaluation of the square-root gap inequality

    (1 - a) sqrt(p**q n + 1) - (1 + a) sqrt((p**q - 1) n + 1)
        >  c_main p**(23q/48) n**(23/48) (log(256 ((p**q - 1) n + 1)))**(11/4)
           + (11/8) (3 log n + 2 q log p),            a = 1/400000,

whose validity forces C(p**q n + 1, n) to be non-squarefree (hypothesis
p**q <= 99999).  All evaluation uses interval arithmetic with outward
rounding, so every reported comparison is decisive at the working
precision; an indeterminate comparison escalates the precision and, past
the cap, raises PrecisionError rather than guessing; a starting precision
outside 64..PRECISION_CAP bits is refused up front.

find_tau0 brackets the crossing between consecutive powers of two and
proves, by a monotonicity lemma checked once at the crossing, that the
inequality holds at every larger n.

Logarithms are natural.  A base-10 mode exists for cross-checking the
specialized constant sets of the (2,2) and (3,2) cases, whose additive
tail constants equal (11/8) * 2q * log10(p) exactly -- an artifact of
decimal logs that also explains the headline witness exponents; see
specialized_constants.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp

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

    def __post_init__(self) -> None:
        if self.pp.modulus > 99999:
            raise ValueError(f"the inequality requires p**q <= 99999, got {self.pp}")
        bits = config.DEFAULT_PRECISION if self.precision is None else self.precision
        if bits < 64:
            raise ValueError(f"precision must be >= 64 bits, got {bits}")
        if bits > config.PRECISION_CAP:
            raise PrecisionError(
                f"precision must be <= {config.PRECISION_CAP} bits, got {bits}"
            )
        object.__setattr__(self, "precision", bits)


@contextmanager
def _workprec(bits: int):
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _frac(x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _pow_frac(base, exponent: Fraction):
    return iv.exp(_frac(exponent) * iv.log(base))


def _endpoint(x, upper: bool):
    """One endpoint of an interval as a plain real, without re-rounding."""
    return mp.make_mpf(x._mpi_[1 if upper else 0])


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {_shown(n)}")


def _specialized(pp: PrimePower) -> tuple[Fraction, Fraction, int]:
    key = (pp.p, pp.q)
    if key not in _SPECIALIZED:
        raise ValueError(f"no specialized constant set for {pp}")
    return _SPECIALIZED[key]


def _log(c: InequalityConstants, x):
    y = iv.log(x)
    return y if c.natural_log else y / iv.log(iv.mpf(10))


def _main_log_arg(inst: InequalityInstance, n: int, form: str):
    """The argument of the main term's logarithm: log_scale*((p**q - 1)n + 1)
    in the general form, scale*n + 1 in the specialized one."""
    if form == "general":
        return iv.mpf(inst.constants.log_scale) * iv.mpf((inst.pp.modulus - 1) * n + 1)
    if form == "specialized":
        return iv.mpf(_specialized(inst.pp)[2]) * iv.mpf(n) + 1
    raise ValueError(f"unknown form {form!r}")


def _sides_once(inst: InequalityInstance, n: int, form: str):
    c = inst.constants
    pq = inst.pp.modulus
    q = inst.pp.q
    a = _frac(c.alpha)
    big = iv.mpf(pq * n + 1)
    small = iv.mpf((pq - 1) * n + 1)
    lhs = (1 - a) * iv.sqrt(big) - (1 + a) * iv.sqrt(small)

    n_iv = iv.mpf(n)
    log_main = _log(c, _main_log_arg(inst, n, form)) ** _frac(c.exp_log)
    if form == "general":
        main = (
            _frac(c.c_main)
            * _pow_frac(iv.mpf(inst.pp.p), c.exp_n * q)
            * _pow_frac(n_iv, c.exp_n)
            * log_main
        )
        tail = _frac(c.c_tail) * (3 * _log(c, n_iv) + 2 * q * _log(c, iv.mpf(inst.pp.p)))
    else:
        c_main, c_tail, _ = _specialized(inst.pp)
        main = _frac(c_main) * _pow_frac(n_iv, c.exp_n) * log_main
        tail = 3 * _frac(c.c_tail) * _log(c, n_iv) + _frac(c_tail)
    return lhs, main + tail


def _sides_interval(inst: InequalityInstance, n: int, form: str):
    """Evaluate both sides, escalating precision until comparable."""
    bits = inst.precision
    while True:
        with _workprec(bits):
            lhs, rhs = _sides_once(inst, n, form)
            gt = lhs > rhs
            lt = lhs < rhs
            if gt or lt:
                return lhs, rhs, bool(gt)
        bits *= 2
        if bits > config.PRECISION_CAP:
            raise PrecisionError(
                f"sides indistinguishable at {config.PRECISION_CAP} bits "
                f"for {inst.pp}, n with {n.bit_length()} bits"
            )


def inequality_sides(inst: InequalityInstance, n: int, *, form: str = "general"):
    """Both sides at n, as reals whose comparison is decisive.

    When the left side wins you receive (lower bound of lhs, upper bound of
    rhs), and conversely, so comparing the returned numbers reproduces the
    rigorous interval verdict.
    """
    _require_positive(n)
    lhs, rhs, lhs_wins = _sides_interval(inst, n, form)
    if lhs_wins:
        return _endpoint(lhs, upper=False), _endpoint(rhs, upper=True)
    return _endpoint(lhs, upper=True), _endpoint(rhs, upper=False)


def inequality_holds(inst: InequalityInstance, n: int, *, form: str = "general") -> bool:
    """Whether the left side strictly exceeds the right side at n."""
    _require_positive(n)
    return _sides_interval(inst, n, form)[2]


def find_tau0(
    inst: InequalityInstance,
    *,
    form: str = "general",
    max_exponent: int | None = None,
) -> int:
    """The exponent e such that the inequality fails at n = 2**(e - 1) and
    holds at every n >= n0 = 2**e.

    Doubling then bisection finds the crossing; holding above it is then
    proved, not sampled.  Write rhs = C n**exp_n L**exp_log + tail, where L
    is the main term's logarithm (natural or decimal) of k n + c, k, c > 0.
    When n0 >= 8, alpha >= 0, C > 0, c_tail >= 0, exp_log >= 0,
    exp_n < 1/2 and L(n0) > exp_log / (1/2 - exp_n) (132 for the general
    constants), rhs/lhs strictly decreases on [n0, oo):

      * lhs = sqrt(n) B(n), B(n) = (1-a) sqrt(p**q + 1/n)
        - (1+a) sqrt(p**q - 1 + 1/n), and B increases with n as a >= 0;
      * dL/d(log n) < 1, so the logarithmic derivative of
        n**(exp_n - 1/2) L**exp_log is below exp_n - 1/2 + exp_log / L,
        which is negative since L increases with n and exceeds the bound
        at n0; with C > 0 and B increasing, main/lhs strictly decreases;
      * the tail is A log n + D with A, D >= 0, and (A log n + D) / sqrt(n)
        does not increase for n > e**2, so tail/lhs does not for n >= 8.

    So rhs/lhs < 1 at n0 gives it at every larger n.  The conditions on
    the constants are checked exactly, and L(n0) once in interval arithmetic
    at the instance's precision.  Raises ThresholdSearchError when one
    fails, or when no holding exponent exists below the cap (max_exponent,
    by default config.DEFAULT_EXPONENT_CAP); a cap below 1 raises
    ValueError before any evaluation.
    """
    cap = config.DEFAULT_EXPONENT_CAP if max_exponent is None else max_exponent
    if cap < 1:
        raise ValueError(f"max_exponent must be >= 1, got {cap}")

    def ok(e: int) -> bool:
        return inequality_holds(inst, 1 << e, form=form)

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > cap:
            raise ThresholdSearchError(
                f"no crossover found for {inst.pp} below exponent {cap}"
            )
    lo = hi // 2  # ok(lo) is False (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid

    c = inst.constants
    c_main = c.c_main if form == "general" else _specialized(inst.pp)[0]
    half = Fraction(1, 2)
    if (hi >= 3 and c.alpha >= 0 and c_main > 0 and c.c_tail >= 0
            and c.exp_log >= 0 and c.exp_n < half):
        bound = c.exp_log / (half - c.exp_n)
        with _workprec(inst.precision):
            if _log(c, _main_log_arg(inst, 1 << hi, form)) > _frac(bound):
                return hi
    raise ThresholdSearchError(
        f"cannot prove that the inequality holds above 2**{hi} for {inst.pp}: "
        f"n0 < 8, or the constants or L(n0) fall outside the monotonicity lemma"
    )


def tau1(pp: PrimePower, tau0: int) -> int:
    """max(ceil((e**60 - 1) / (p**q - 1)), 5**10 * p**(5q), tau0), exactly."""
    if tau0 < 0:
        raise ValueError(f"tau0 must be >= 0, got {tau0}")
    first = _ceil_exp60_quotient(pp.modulus - 1)
    second = 5**10 * pp.p ** (5 * pp.q)
    return max(first, second, tau0)


def _ceil_exp60_quotient(denominator: int) -> int:
    bits = 128
    while bits <= config.PRECISION_CAP:
        with _workprec(bits):
            x = (iv.exp(iv.mpf(60)) - 1) / iv.mpf(denominator)
            with mp.workprec(bits + 16):  # mp.ceil rounds to mp.prec
                lo = int(mp.ceil(_endpoint(x, upper=False)))
                hi = int(mp.ceil(_endpoint(x, upper=True)))
        if lo == hi:
            return lo
        bits *= 2
    raise PrecisionError("could not pin ceil((e**60 - 1)/denominator)")


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


def sqrt_gap_lower_bound(inst: InequalityInstance, n: int):
    """The closed-form lower bound for the left side, valid for n >= 2:

        ((1-a)**2/(1+a) - p**q / 100000.25) * sqrt(n) / (2 sqrt(p**q)).

    Returned as an upper endpoint so `bound <= lhs` checks are conservative.
    """
    if n < 2:
        raise ValueError(f"the bound needs n >= 2, got {n}")
    with _workprec(inst.precision):
        a = _frac(inst.constants.alpha)
        pq = iv.mpf(inst.pp.modulus)
        coeff = (1 - a) ** 2 / (1 + a) - pq / _frac(Fraction(400001, 4))
        value = coeff * iv.sqrt(iv.mpf(n)) / (2 * iv.sqrt(pq))
        return _endpoint(value, upper=True)
