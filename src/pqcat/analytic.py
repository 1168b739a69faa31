"""Rigorous evaluation of the square-root gap inequality

    (1 - a) sqrt(p**q n + 1) - (1 + a) sqrt((p**q - 1) n + 1)
        >  c_main p**(23q/48) n**(23/48) (log(256 ((p**q - 1) n + 1)))**(11/4)
           + (11/8) (3 log n + 2 q log p),            a = 1/400000,

whose validity forces C(p**q n + 1, n) to be non-squarefree (hypothesis
p**q <= 99999).  All evaluation uses interval arithmetic with outward
rounding, so every reported comparison is decisive at the working
precision; an indeterminate comparison escalates the precision and, past
the cap, raises PrecisionError rather than guessing.

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
from .digits import PrimePower


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
    precision: int | None = None  # None means the configured default

    def __post_init__(self) -> None:
        if self.pp.modulus > 99999:
            raise ValueError(f"the inequality requires p**q <= 99999, got {self.pp}")
        bits = config.default_precision() if self.precision is None else self.precision
        if bits < 64:
            raise ValueError(f"precision must be >= 64 bits, got {bits}")
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
        raise ValueError(f"n must be >= 1, got {n}")


def _sides_once(inst: InequalityInstance, n: int, form: str):
    c = inst.constants
    pq = inst.pp.modulus
    q = inst.pp.q
    a = _frac(c.alpha)
    big = iv.mpf(pq * n + 1)
    small = iv.mpf((pq - 1) * n + 1)
    lhs = (1 - a) * iv.sqrt(big) - (1 + a) * iv.sqrt(small)

    ln10 = iv.log(iv.mpf(10))

    def _log(x):
        y = iv.log(x)
        return y if c.natural_log else y / ln10

    n_iv = iv.mpf(n)
    if form == "general":
        main = (
            _frac(c.c_main)
            * _pow_frac(iv.mpf(inst.pp.p), c.exp_n * q)
            * _pow_frac(n_iv, c.exp_n)
            * _log(iv.mpf(c.log_scale) * small) ** _frac(c.exp_log)
        )
        tail = _frac(c.c_tail) * (3 * _log(n_iv) + 2 * q * _log(iv.mpf(inst.pp.p)))
    elif form == "specialized":
        key = (inst.pp.p, inst.pp.q)
        if key not in _SPECIALIZED:
            raise ValueError(f"no specialized constant set for {inst.pp}")
        c_main, c_tail, scale = _SPECIALIZED[key]
        main = (
            _frac(c_main)
            * _pow_frac(n_iv, c.exp_n)
            * _log(iv.mpf(scale) * n_iv + 1) ** _frac(c.exp_log)
        )
        tail = 3 * _frac(c.c_tail) * _log(n_iv) + _frac(c_tail)
    else:
        raise ValueError(f"unknown form {form!r}")
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


def _margin(inst: InequalityInstance, n: int, form: str):
    lhs, rhs, _ = _sides_interval(inst, n, form)
    with _workprec(inst.precision):
        return lhs - rhs


_GRID_STEP = 64  # exponent spacing of find_tau0's dominance check
_GRID_POINTS = 8


def find_tau0(
    inst: InequalityInstance,
    *,
    form: str = "general",
    max_exponent: int | None = None,
) -> int:
    """Smallest exponent e with the inequality holding at n = 2**e but not
    at 2**(e - 1); the bracket [2**(e-1), 2**e] contains the sign change.

    Found by doubling then bisection, and checked on a log-spaced grid of
    larger exponents whose margins must all hold and increase -- a witness
    of eventual dominance, not a proof of monotonicity.  Raises
    ThresholdSearchError when no holding exponent exists below the cap.
    """
    cap = max_exponent or config.DEFAULT_EXPONENT_CAP

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

    margins = [_margin(inst, 1 << (hi + _GRID_STEP * k), form) for k in range(_GRID_POINTS)]
    for k, m in enumerate(margins):
        if not m > 0:
            raise ThresholdSearchError(
                f"inequality fails again at 2**{hi + _GRID_STEP * k} after the bracket"
            )
        if k and not (m > margins[k - 1]):
            raise ThresholdSearchError(
                f"margin not increasing at 2**{hi + _GRID_STEP * k}"
            )
    return hi


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
    key = (pp.p, pp.q)
    if key not in _SPECIALIZED:
        raise ValueError(f"no specialized constant set for {pp}")
    c_main, c_tail, _ = _SPECIALIZED[key]
    return c_main, c_tail


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
