import threading
from fractions import Fraction

import mpmath
import pytest

from pqcat import analytic, config
from pqcat import (
    InequalityConstants,
    InequalityInstance,
    PrecisionError,
    PrimePower,
    ThresholdSearchError,
    find_tau0,
    inequality_holds,
    inequality_sides,
    specialized_constants,
    tau1,
)


def exp60_floor_by_series() -> int:
    # independent oracle: e**60 via the exact rational Taylor series with a
    # geometric tail bound, tight enough to pin the integer part
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while k <= 120 or term >= Fraction(1, 10**8):
        total += term
        k += 1
        term = term * 60 / k
    upper = total + 2 * term  # tail ratio 60/(k+1) < 1/2, so tail < 2*term
    assert total.numerator // total.denominator == upper.numerator // upper.denominator
    return total.numerator // total.denominator


def doubling_search(inst, form="general", cap=1 << 14):
    """The crossing exponent by doubling from 1, then bisection: the search
    find_tau0 used before its double-precision guess, kept as a reference
    (no monotonicity lemma)."""

    def ok(e):
        return inequality_holds(inst, 1 << e, form=form)

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > cap:
            raise ThresholdSearchError(f"no crossover below exponent {cap}")
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def moduli_q_at_least_2():
    primes = [p for p in range(2, 317) if all(p % d for d in range(2, p))]
    return [(p, q) for p in primes for q in range(2, 17) if p**q <= 99999]


class TestInstance:
    def test_modulus_guard(self):
        with pytest.raises(ValueError):
            InequalityInstance(PrimePower(100003, 1))

    def test_boundary_modulus_allowed(self):
        InequalityInstance(PrimePower(99991, 1))

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            InequalityInstance(PrimePower(2, 2), precision=32)

    def test_precision_cap(self):
        assert InequalityInstance(PrimePower(2, 2), precision=4096).precision == 4096
        with pytest.raises(PrecisionError):
            InequalityInstance(PrimePower(2, 2), precision=4097)


class TestSides:
    def test_witnesses_natural_log(self):
        # with natural logarithms the right side still dominates at the
        # headline exponents; the observed crossovers sit near 2**1698 and
        # 2**1763 (see find_tau0 below)
        inst22 = InequalityInstance(PrimePower(2, 2))
        lhs, rhs = inequality_sides(inst22, 2**1518)
        assert lhs < rhs
        inst32 = InequalityInstance(PrimePower(3, 2))
        lhs, rhs = inequality_sides(inst32, 3**956)
        assert lhs < rhs

    def test_small_n_fails(self):
        for pp in (PrimePower(2, 2), PrimePower(3, 2)):
            inst = InequalityInstance(pp)
            lhs, rhs = inequality_sides(inst, 2**100)
            assert lhs < rhs

    def test_decimal_log_mode_recovers_1518(self):
        # under base-10 logarithms the general form crosses exactly between
        # 2**1517 and 2**1518 for (2,2): the witness exponents were produced
        # with decimal logs
        constants = InequalityConstants(natural_log=False)
        inst = InequalityInstance(PrimePower(2, 2), constants=constants)
        assert not inequality_holds(inst, 2**1517)
        assert inequality_holds(inst, 2**1518)

    def test_decimal_log_specialized_recovers_956(self):
        constants = InequalityConstants(natural_log=False)
        inst = InequalityInstance(PrimePower(3, 2), constants=constants)
        assert inequality_holds(inst, 3**956, form="specialized")
        assert not inequality_holds(inst, 3**955, form="specialized")

    def test_precision_stability(self):
        for bits in (64, 128, 256, 512):
            inst = InequalityInstance(PrimePower(2, 2), precision=bits)
            assert not inequality_holds(inst, 2**1518)
            assert inequality_holds(inst, 2**1700)

    def test_returned_pair_preserves_verdict(self):
        inst = InequalityInstance(PrimePower(2, 2))
        for n in (2**100, 2**1700):
            lhs, rhs = inequality_sides(inst, n)
            assert (lhs > rhs) == inequality_holds(inst, n)

    def test_rejects_nonpositive_n(self):
        inst = InequalityInstance(PrimePower(2, 2))
        with pytest.raises(ValueError):
            inequality_sides(inst, 0)

    def test_specialized_needs_known_case(self):
        inst = InequalityInstance(PrimePower(5, 2))
        with pytest.raises(ValueError):
            inequality_sides(inst, 100, form="specialized")


class TestMpmathGlobals:
    def test_results_ignore_a_thread_resetting_mpmath_precision(self):
        # every evaluation runs in a context of its own precision, so a
        # thread that keeps setting mpmath's shared precisions changes no
        # endpoint and no ceiling
        inst = InequalityInstance(PrimePower(2, 2), precision=256)
        moduli = [PrimePower(p, 2) for p in (2, 3, 5, 7)]

        def results():
            sides = [inequality_sides(inst, 2**e) for e in range(100, 2091, 10)]
            return sides, [tau1(pp, 0) for pp in moduli]

        expected = results()
        saved = mpmath.iv.prec, mpmath.mp.prec
        stop = threading.Event()

        def reset_globals():
            while not stop.is_set():
                mpmath.iv.prec = 53
                mpmath.mp.prec = 53

        thread = threading.Thread(target=reset_globals, daemon=True)
        thread.start()
        try:
            got = results()
        finally:
            stop.set()
            thread.join()
            mpmath.iv.prec, mpmath.mp.prec = saved
        assert got == expected


class TestTau0:
    def test_crossover_2_2(self):
        inst = InequalityInstance(PrimePower(2, 2))
        e = find_tau0(inst)
        assert e == 1698  # natural-log general form
        assert not inequality_holds(inst, 2 ** (e - 1))
        assert inequality_holds(inst, 2**e)

    def test_crossover_3_2(self):
        inst = InequalityInstance(PrimePower(3, 2))
        e = find_tau0(inst)
        assert e == 1763
        assert not inequality_holds(inst, 2 ** (e - 1))
        assert inequality_holds(inst, 2**e)

    def test_precision_independent(self):
        lo = find_tau0(InequalityInstance(PrimePower(2, 2), precision=64))
        hi = find_tau0(InequalityInstance(PrimePower(2, 2), precision=512))
        assert lo == hi

    def test_decimal_log_mode_brackets_1518(self):
        constants = InequalityConstants(natural_log=False)
        inst = InequalityInstance(PrimePower(2, 2), constants=constants)
        assert find_tau0(inst) == 1518

    @pytest.mark.parametrize("natural_log,form,expected", [
        (True, "general", {(2, 2): 1698, (3, 2): 1763}),
        (True, "specialized", {(2, 2): 1698, (3, 2): 1696}),
        (False, "general", {(2, 2): 1518, (3, 2): 1584}),
        (False, "specialized", {(2, 2): 1518, (3, 2): 1516}),
    ])
    def test_crossings_by_form_and_log_base(self, natural_log, form, expected):
        constants = InequalityConstants(natural_log=natural_log)
        for (p, q), e in expected.items():
            inst = InequalityInstance(PrimePower(p, q), constants=constants)
            assert find_tau0(inst, form=form) == e, (p, q)
            assert not inequality_holds(inst, 2 ** (e - 1), form=form), (p, q)

    def test_exponent_cap(self, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT_EXPONENT_CAP", 64)
        with pytest.raises(ThresholdSearchError):
            find_tau0(InequalityInstance(PrimePower(2, 2)))

    def test_cap_between_crossing_and_next_power_of_two(self, monkeypatch):
        # the crossing of (2,2) is 1698: any cap at or above it is enough,
        # not only one past the next power of two
        inst = InequalityInstance(PrimePower(2, 2))
        for cap in (1698, 1700, 2047):
            monkeypatch.setattr(config, "DEFAULT_EXPONENT_CAP", cap)
            assert find_tau0(inst) == 1698, cap
        monkeypatch.setattr(config, "DEFAULT_EXPONENT_CAP", 1697)
        with pytest.raises(ThresholdSearchError, match="below exponent 1697"):
            find_tau0(inst)

    def test_matches_doubling_search(self):
        for p, q in moduli_q_at_least_2():
            inst = InequalityInstance(PrimePower(p, q))
            assert find_tau0(inst) == doubling_search(inst), (p, q)
        for natural_log in (True, False):
            constants = InequalityConstants(natural_log=natural_log)
            for pp in (PrimePower(2, 2), PrimePower(3, 2)):
                inst = InequalityInstance(pp, constants=constants)
                for form in ("general", "specialized"):
                    assert find_tau0(inst, form=form) == doubling_search(inst, form), (pp, form)

    def test_few_interval_evaluations(self, monkeypatch):
        # the double-precision guess lands on or next to the crossing, so
        # certifying it takes two evaluations (four at most)
        calls = []
        holds = analytic.inequality_holds

        def counted(*args, **kwargs):
            calls.append(args[1])
            return holds(*args, **kwargs)

        monkeypatch.setattr(analytic, "inequality_holds", counted)
        for p, q in moduli_q_at_least_2():
            calls.clear()
            find_tau0(InequalityInstance(PrimePower(p, q)))
            assert len(calls) <= 4, (p, q, len(calls))

    @pytest.mark.parametrize("guess", ["low", "cap"])
    def test_guess_does_not_decide(self, monkeypatch, guess):
        # a guess at either end of [1, cap] costs evaluations, not answers
        monkeypatch.setattr(analytic, "_guess", lambda inst, shape, cap: 1 if guess == "low" else cap)
        assert find_tau0(InequalityInstance(PrimePower(2, 2))) == 1698
        assert find_tau0(InequalityInstance(PrimePower(99991, 1))) == 3149

    def test_every_modulus_certified(self):
        moduli = moduli_q_at_least_2()
        assert len(moduli) == 108
        for p, q in moduli:
            inst = InequalityInstance(PrimePower(p, q))
            e = find_tau0(inst)
            assert not inequality_holds(inst, 2 ** (e - 1)), (p, q)

    @pytest.mark.parametrize("p,q", [(2, 2), (313, 2), (2, 16)])
    def test_holds_far_above_crossing(self, p, q):
        inst = InequalityInstance(PrimePower(p, q))
        e = find_tau0(inst)
        for k in (1, 2, 3, 7, 64, 100, 511, 1000, 2047, 3000):
            assert inequality_holds(inst, 2 ** (e + k)), k

    @pytest.mark.parametrize("constants", [
        # the crossing is at n0 = 2, below the lemma's n0 >= 8
        InequalityConstants(c_main=Fraction(1, 10**6), c_tail=Fraction(1, 10**6)),
        # the same, with the main logarithm (7.49) above exp_log / (1/2 - exp_n) = 5.5
        InequalityConstants(c_main=Fraction(1, 10**6), c_tail=Fraction(1, 10**6),
                            exp_n=Fraction(0)),
        # the crossing is at 2**15, where the main logarithm (17.0) is below
        # exp_log / (1/2 - exp_n) = 264
        InequalityConstants(c_main=Fraction(1, 10**9), exp_n=Fraction(47, 96)),
        # crossings at 2**1698, but B(n) or the tail may then grow
        InequalityConstants(alpha=Fraction(-1, 400000)),
        InequalityConstants(c_tail=Fraction(-1)),
    ])
    def test_dominance_not_provable_refused(self, constants):
        with pytest.raises(ThresholdSearchError):
            find_tau0(InequalityInstance(PrimePower(2, 2), constants=constants))


class TestTau1:
    def test_first_term_oracle(self):
        e60_floor = exp60_floor_by_series()
        # e**60 is irrational, so ceil((e**60 - 1)/d) = (floor(e**60) - 1)//d + 1
        assert tau1(PrimePower(3, 2), 0) == (e60_floor - 1) // 8 + 1
        assert tau1(PrimePower(2, 2), 0) == max((e60_floor - 1) // 3 + 1, 10**10)
        assert tau1(PrimePower(5, 2), 0) == max((e60_floor - 1) // 24 + 1, 5**10 * 5**10)
        # the first term of every modulus is (floor(e**60) - 1)//(p**q - 1) + 1,
        # so the one constant it is read from pins all of them
        assert analytic._FLOOR_EXP60 == e60_floor

    def test_second_term_identity(self):
        # 5**10 p**(5q): for (3,2) this is 15**10
        assert 5**10 * 3**10 == 15**10

    def test_max_logic(self):
        pp = PrimePower(2, 2)
        base = tau1(pp, 0)
        assert tau1(pp, base + 1) == base + 1
        assert tau1(pp, 2**1518) == 2**1518

    def test_dominant_terms(self):
        # (2,2): (e**60-1)/3 ~ 3.8e25 beats 5**10 * 2**10 = 10**10
        assert tau1(PrimePower(2, 2), 0) > 10**10
        assert 5**10 * 2**10 == 10**10


class TestSpecializedConstants:
    def test_values(self):
        c22 = specialized_constants(PrimePower(2, 2))
        assert c22 == (Fraction(421311, 10000), Fraction(165566, 100000))
        c32 = specialized_constants(PrimePower(3, 2))
        assert c32 == (Fraction(2604, 100), Fraction(262417, 100000))

    def test_main_constant_consistency(self):
        # 21.683 * 2**(46/48) = 42.125... agrees with 42.1311 to four
        # significant figures; 21.683 * 3**(46/48) = 62.136... does NOT agree
        # with 26.04 (it equals 21.683 * 3**(1/6) instead)
        from mpmath import mp, mpf

        with mp.workprec(120):
            general = mpf(21683) / 1000
            derived22 = general * mpf(2) ** (mpf(46) / 48)
            assert abs(derived22 - mpf("42.1311")) / mpf("42.1311") < 5e-4  # 4 sig figs
            derived32 = general * mpf(3) ** (mpf(46) / 48)
            assert abs(derived32 - mpf("26.04")) / mpf("26.04") > 1  # off by > 2x
            alt32 = general * mpf(3) ** (mpf(1) / 6)
            assert abs(alt32 - mpf("26.04")) / mpf("26.04") < 1e-4

    def test_tail_constants_are_decimal_logs(self):
        # both equal (11/8) * 2q * log10(p) to all printed digits
        from mpmath import log, mp, mpf

        with mp.workprec(120):
            assert abs(mpf("5.5") * log(2) / log(10) - mpf("1.65566")) < 5e-6
            assert abs(mpf("5.5") * log(3) / log(10) - mpf("2.62417")) < 5e-6

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            specialized_constants(PrimePower(5, 2))

