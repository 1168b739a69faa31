import copy
import pickle
import sys
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


# the constants of the general form and the per-case specialized sets,
# written out here so that independent_sides shares nothing with pqcat
GENERAL = {"alpha": Fraction(1, 400000), "c_main": Fraction(21683, 1000),
           "exp_n": Fraction(23, 48), "exp_log": Fraction(11, 4), "log_scale": 256,
           "c_tail": Fraction(11, 8)}
SPECIALIZED = {(2, 2): (Fraction(421311, 10000), Fraction(165566, 100000), 768),
               (3, 2): (Fraction(2604, 100), Fraction(262417, 100000), 2048)}


def independent_sides(p, q, n, bits, form="general", natural_log=True):
    """inequality_sides(inst, n, form=form) as mpf tuples, written out with
    mpmath.iv alone: each precision from bits up, doubling, gets a fresh
    interval context and rebuilds every term, until lhs and rhs separate.
    The operations and their order are the module's, so the endpoints must
    agree to the last bit."""
    g = GENERAL
    while bits <= 4096:
        iv = type(mpmath.iv)()
        iv.prec = bits

        def frac(x):
            return iv.mpf(x.numerator) / iv.mpf(x.denominator)

        def log(x):
            y = iv.log(x)
            return y if natural_log else y / iv.log(iv.mpf(10))

        pq = p**q
        a = frac(g["alpha"])
        lhs = (1 - a) * iv.sqrt(iv.mpf(pq * n + 1)) - (1 + a) * iv.sqrt(iv.mpf((pq - 1) * n + 1))
        if form == "general":
            C = frac(g["c_main"]) * iv.exp(frac(g["exp_n"] * q) * iv.log(iv.mpf(p)))
            D = frac(2 * q * g["c_tail"]) * log(iv.mpf(p))
            k, c0 = g["log_scale"] * (pq - 1), g["log_scale"]
        else:
            c_main, c_tail, k = SPECIALIZED[p, q]
            C, D, c0 = frac(c_main), frac(c_tail), 1
        n_iv = iv.mpf(n)
        main = (C * iv.exp(frac(g["exp_n"]) * iv.log(n_iv))
                * log(iv.mpf(k * n + c0)) ** frac(g["exp_log"]))
        rhs = main + (3 * frac(g["c_tail"]) * log(n_iv) + D)
        if lhs > rhs:
            return lhs._mpi_[0], rhs._mpi_[1]
        if lhs < rhs:
            return lhs._mpi_[1], rhs._mpi_[0]
        bits *= 2
    raise AssertionError("not decided at 4096 bits")


def as_tuples(sides):
    return tuple(x._mpf_ for x in sides)


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

    @pytest.mark.parametrize("bits,name", [(100.5, "float"), ("128", "str"), (True, "bool")])
    def test_precision_not_an_int_refused(self, bits, name):
        with pytest.raises(ValueError, match=f"^precision must be an int, got {name}$"):
            InequalityInstance(PrimePower(2, 2), precision=bits)

    def test_stored_terms_leave_equality_hash_and_repr(self):
        used = InequalityInstance(PrimePower(2, 2))
        inequality_sides(used, 2**100)
        fresh = InequalityInstance(PrimePower(2, 2))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and "_terms" not in repr(used)

    def test_pickles_and_copies_after_use(self):
        inst = InequalityInstance(PrimePower(2, 2), precision=128)
        sides = inequality_sides(inst, 2**1518)
        for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert twin == inst and twin._terms == {}
            assert inequality_sides(twin, 2**1518) == sides

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

    @pytest.mark.parametrize("n,name", [(2.5, "float"), (True, "bool"), (2.0**100, "float")])
    @pytest.mark.parametrize("fn", [inequality_sides, inequality_holds])
    def test_rejects_n_not_an_int(self, fn, n, name):
        inst = InequalityInstance(PrimePower(2, 2))
        with pytest.raises(ValueError, match=f"^n must be an int, got {name}$"):
            fn(inst, n)

    def test_specialized_needs_known_case(self):
        inst = InequalityInstance(PrimePower(5, 2))
        with pytest.raises(ValueError):
            inequality_sides(inst, 100, form="specialized")


class TestStoredTerms:
    """The n-free terms are computed once per instance, form and precision;
    an instance that reuses them must return, bit for bit, the endpoints of
    a fresh instance and of an evaluation that rebuilds everything."""

    EXPONENTS = (64, 1518, 1700, 4096)

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    @pytest.mark.parametrize("natural_log", [True, False])
    def test_reused_fresh_and_independent_agree(self, bits, natural_log):
        constants = InequalityConstants(natural_log=natural_log)
        for p, q in ((2, 2), (3, 2)):
            reused = InequalityInstance(PrimePower(p, q), constants=constants, precision=bits)
            for _ in range(2):
                for form in ("general", "specialized"):
                    for e in self.EXPONENTS:
                        n = 1 << e
                        fresh = InequalityInstance(PrimePower(p, q), constants=constants,
                                                   precision=bits)
                        got = inequality_sides(reused, n, form=form)
                        assert got == inequality_sides(fresh, n, form=form), (p, q, form, e)
                        assert as_tuples(got) == independent_sides(
                            p, q, n, bits, form, natural_log), (p, q, form, e)
            assert {key[0] for key in reused._terms} == {"general", "specialized"}

    def test_equal_after_context_cache_clear(self):
        inst = InequalityInstance(PrimePower(2, 2), precision=128)
        for e in self.EXPONENTS:
            before = inequality_sides(inst, 1 << e)
            analytic._context.cache_clear()
            after = inequality_sides(inst, 1 << e)
            fresh = inequality_sides(InequalityInstance(PrimePower(2, 2), precision=128), 1 << e)
            assert before == after == fresh, e
            assert as_tuples(after) == independent_sides(2, 2, 1 << e, 128), e
            analytic._context.cache_clear()

    def test_threads_sharing_one_instance(self):
        # two threads that fill the same key compute the same terms, and
        # either store wins; every endpoint must match a serial evaluation
        points = [(form, 1 << e) for form in ("general", "specialized") for e in self.EXPONENTS]
        serial = InequalityInstance(PrimePower(2, 2), precision=64)
        expected = [inequality_sides(serial, n, form=form) for form, n in points]
        shared = InequalityInstance(PrimePower(2, 2), precision=64)
        got, errors = {}, []

        def work(i):
            try:
                got[i] = [inequality_sides(shared, n, form=form) for form, n in points]
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads) and not errors
        assert all(got[i] == expected for i in range(6))

    def test_escalation_matches_a_fresh_higher_precision(self):
        # bisect on n between 2**1697 (fails) and 2**1698 (holds), with
        # 64-bit verdicts, until 64 bits no longer decide
        pp = PrimePower(2, 2)
        inst = InequalityInstance(pp, precision=64)
        lo, hi = 1 << 1697, 1 << 1698
        while hi - lo > 1:
            n = (lo + hi) // 2
            (lhs, rhs), bits = analytic._decided_sides(inst, n, "general")
            if bits > 64:
                break
            lo, hi = (lo, n) if lhs > rhs else (n, hi)
        else:
            pytest.fail("64 bits decided every point of the bisection")
        assert ("general", bits) in inst._terms
        fresh = InequalityInstance(pp, precision=bits)
        assert inequality_sides(inst, n) == inequality_sides(fresh, n)
        assert analytic._decided_sides(fresh, n, "general")[1] == bits
        assert inequality_holds(inst, n) == inequality_holds(fresh, n)
        assert as_tuples(inequality_sides(inst, n)) == independent_sides(2, 2, n, 64)


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

