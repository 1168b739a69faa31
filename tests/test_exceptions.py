import tracemalloc
from itertools import combinations_with_replacement
from math import comb

import pytest

from pqcat import config, exceptions
from pqcat import (
    OddPowerSum,
    PrimePower,
    PurePower,
    SizeGuardError,
    catalan_residue_mod_pq,
    catalan_valuation,
    count_exceptions_q2,
    enumerate_exceptions,
    exception_values,
    residue_of_exception,
)


def values(forms):
    return [e.value for e in forms]


def brute_force(pp: PrimePower, bound: int) -> list[int]:
    return [n for n in range(1, bound + 1) if catalan_valuation(pp, n) < pp.q]


class TestQ1:
    def test_base_two(self):
        assert values(enumerate_exceptions(PrimePower(2, 1), 100)) == [1, 3, 7, 15, 31, 63]

    def test_base_three(self):
        assert values(enumerate_exceptions(PrimePower(3, 1), 50)) == [1, 4, 13, 40]

    def test_empty_bound(self):
        assert enumerate_exceptions(PrimePower(5, 1), 0) == []

    def test_tags(self):
        forms = enumerate_exceptions(PrimePower(2, 1), 10)
        assert all(e.kind == "pure_power" for e in forms)
        assert [e.form.t for e in forms] == [1, 2, 3]


class TestQ2:
    def test_base_two_sixty(self):
        got = values(enumerate_exceptions(PrimePower(2, 2), 60))
        assert got == [1, 3, 5, 11, 13, 21, 43, 45, 53]

    def test_base_two_binary_strings(self):
        got = [format(n, "b") for n in values(enumerate_exceptions(PrimePower(2, 2), 60))]
        assert got == ["1", "11", "101", "1011", "1101", "10101", "101011", "101101", "110101"]

    def test_tiny_bound(self):
        assert values(enumerate_exceptions(PrimePower(2, 2), 1)) == [1]

    def test_base_three_ten(self):
        # brute force over n <= 10 gives 1, 4, 7, 10 (7 = (3 + 2*27 - 1)/8)
        found = enumerate_exceptions(PrimePower(3, 2), 10)
        assert values(found) == brute_force(PrimePower(3, 2), 10) == [1, 4, 7, 10]
        four = found[1]
        assert four.form == OddPowerSum(((2, 0), (1, 1)))  # (2*3 + 27 - 1)/8
        ten = found[3]
        assert ten.form == PurePower(2)  # (81 - 1)/8

    def test_forms_reconstruct_values(self):
        for p in (2, 3, 5):
            for e in enumerate_exceptions(PrimePower(p, 2), 3000):
                f = e.form
                if isinstance(f, PurePower):
                    assert e.value == (p ** (2 * f.t) - 1) // (p * p - 1)
                else:
                    x = sum(c * p ** (2 * i + 1) for c, i in f.terms)
                    assert e.value == (x - 1) // (p * p - 1)
                    assert sum(f.composition) == p
                    assert all(c >= 1 for c in f.composition)
                    indices = [i for _, i in f.terms]
                    assert indices == sorted(set(indices))


class TestQ3Plus:
    def test_pure_power_family_present(self):
        pp = PrimePower(3, 3)
        got = values(enumerate_exceptions(pp, 800))
        for t in (1, 2, 3):
            assert (27**t - 1) // 26 in got

    @pytest.mark.parametrize("p,q,bound", [(3, 3, 10**4), (3, 4, 3000), (5, 3, 5000), (7, 3, 4000)])
    def test_matches_brute_force(self, p, q, bound):
        pp = PrimePower(p, q)
        assert values(enumerate_exceptions(pp, bound)) == brute_force(pp, bound)

    def test_congruence_of_exponents(self):
        pp = PrimePower(3, 3)
        mod = pp.modulus - 1
        for e in enumerate_exceptions(pp, 10**4):
            f = e.form
            if isinstance(f, PurePower):
                continue
            assert sum(pow(3, a % 3, mod) for a in f.exponents) % mod == 1 % mod


class TestSetEquality:
    @pytest.mark.parametrize(
        "p,q", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (3, 3)]
    )
    def test_brute_force_equality_1e4(self, p, q):
        pp = PrimePower(p, q)
        assert values(enumerate_exceptions(pp, 10**4)) == brute_force(pp, 10**4)

    def test_prefix_monotonicity(self):
        for p, q in ((2, 2), (3, 2), (3, 3)):
            pp = PrimePower(p, q)
            big = values(enumerate_exceptions(pp, 5000))
            for bound in (1, 10, 100, 1234, 4999):
                small = values(enumerate_exceptions(pp, bound))
                assert small == [n for n in big if n <= bound]


def digit_sum_sweep(p: int, q: int, bound: int, level: int | None = None) -> list[int]:
    # v_p(F(p**q, n)) < level (None: q) iff
    # sigma_p((p**q - 1) n + 1) <= (p - 1)(level - 1) + 1;
    # digit sums by plain divmod, sharing no code with pqcat
    limit = (p - 1) * ((q if level is None else level) - 1) + 1
    found = []
    for n in range(1, bound + 1):
        x, total = (p**q - 1) * n + 1, 0
        while x:
            x, d = divmod(x, p)
            total += d
        if total <= limit:
            found.append(n)
    return found


PRIMES_TO_316 = [p for p in range(2, 317) if all(p % d for d in range(2, p))]


class TestExceptionValues:
    @pytest.mark.parametrize(
        "p,q",
        [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (3, 3), (5, 3), (3, 4), (2, 3), (2, 4), (2, 5),
         (2, 11),
         # past a million class multisets: once refused whatever the bound
         (2, 12), (2, 13), (2, 14), (2, 15), (2, 16), (3, 9), (3, 10), (5, 7)],
    )
    def test_digit_sum_sweep_2e4(self, p, q):
        got = exception_values(PrimePower(p, q), 2 * 10**4)
        assert got == digit_sum_sweep(p, q, 2 * 10**4)
        assert all(a < b for a, b in zip(got, got[1:]))

    @pytest.mark.parametrize("p,q,bound", [(2, 2, 2**200), (3, 3, 10**16)])
    def test_equals_record_values_at_large_bounds(self, p, q, bound):
        pp = PrimePower(p, q)
        got = exception_values(pp, bound)
        assert got == values(enumerate_exceptions(pp, bound))
        assert all(a < b for a, b in zip(got, got[1:]))

    @pytest.mark.parametrize("bound", [0, -1, -(10**30)])
    def test_nonpositive_bound_is_empty(self, bound):
        for p, q in ((2, 1), (2, 2), (3, 3)):
            assert exception_values(PrimePower(p, q), bound) == []

    def test_every_modulus_below_1e5_matches_sweep(self):
        moduli = [(p, q) for p in PRIMES_TO_316 for q in range(2, 17) if p**q <= 99999]
        assert len(moduli) == 108
        for p, q in moduli:
            assert exception_values(PrimePower(p, q), 2000) == digit_sum_sweep(p, q, 2000), (p, q)

    def test_output_guard_refuses_before_any_lift(self, monkeypatch):
        def no_lift(*args):
            raise AssertionError("lifted past the guard")

        pp = PrimePower(3, 3)
        answer = exception_values(pp, 10**6)
        monkeypatch.setattr(exceptions, "_lift_class", no_lift)
        # the guard prices every value at 150 bytes or more, so this is too small
        monkeypatch.setattr(config, "EXCEPTION_OUTPUT_BYTES", 100 * len(answer))
        with pytest.raises(SizeGuardError):
            exception_values(pp, 10**6)
        with pytest.raises(SizeGuardError):
            exception_values(PrimePower(2, 2), 2**100000)

    def test_answer_is_held_once(self):
        # the X values become n in place: the peak is the answer plus the
        # sort's scratch; a second list of the answer's length reads 2.26x
        pp = PrimePower(3, 3)
        exception_values(pp, 10)  # class tables and imports, outside the trace
        tracemalloc.start()
        try:
            answer = exception_values(pp, 10**20)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(answer) == 80465
        assert peak < 1.6 * held, (peak, held)


class TestScanLevel:
    """The scan's candidates: v_p(F(p**q, n)) < max(q, 2)."""

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                     (2, 2), (2, 3), (3, 3), (2, 4)])
    def test_digit_sum_sweep_2e4(self, p, q):
        level = max(q, 2)
        got = exceptions._values_below(PrimePower(p, q), 2 * 10**4, level)
        assert got == digit_sum_sweep(p, q, 2 * 10**4, level)

    @pytest.mark.parametrize("p,q,bound,count", [
        (2, 2, 2**46, 299), (3, 2, 2**44, 678), (3, 3, 10**11, 6499),
    ])
    def test_benchmark_scan_counts(self, p, q, bound, count):
        # the candidates the benchmark's scan jobs test
        assert len(exception_values(PrimePower(p, q), bound)) == count
        assert len(exceptions._values_below(PrimePower(p, q), bound, max(q, 2))) == count


def class_multisets(p: int, q: int) -> set[tuple[int, ...]]:
    # the listing exception_values once filtered: every multiset of l classes,
    # l = m (p - 1) + 1 for m < q, kept when sum p**j == 1 (mod p**q - 1)
    found = set()
    for m in range(q):
        for combo in combinations_with_replacement(range(q), m * (p - 1) + 1):
            if sum(p**j for j in combo) % (p**q - 1) == 1 % (p**q - 1):
                found.add(tuple(combo.count(j) for j in range(q)))
    return found


class TestClassVectors:
    def test_equal_the_multiset_listing(self):
        moduli = [(p, q) for p in PRIMES_TO_316 for q in range(2, 17) if p**q <= 99999
                  and sum(comb(m * (p - 1) + q, q - 1) for m in range(q)) <= 2 * 10**5]
        assert len(moduli) == 98
        for p, q in moduli:
            got = list(exceptions._class_vectors(p, q, [q] * q))
            assert len(got) == len(set(got)) and set(got) == class_multisets(p, q), (p, q)

    @pytest.mark.parametrize("p,q,places", [
        (2, 5, [2, 1, 1, 1, 1]), (2, 8, [3, 3, 2, 2, 2, 2, 2, 2]), (3, 4, [1, 1, 1, 1]),
        (3, 4, [2, 2, 1, 1]), (5, 3, [2, 1, 1]), (7, 2, [3, 2]),
    ])
    def test_caps_keep_exactly_the_vectors_that_fit(self, p, q, places):
        fit = {v for v in class_multisets(p, q)
               if all(c <= (p - 1) * k for c, k in zip(v, places))}
        got = list(exceptions._class_vectors(p, q, places))
        assert len(got) == len(set(got)) and set(got) == fit


class TestRecursiveBitConstruction:
    def test_rows_up_to_length_13(self):
        # base-2 strings of the q=2, p=2 exceptions: each odd-length row starts
        # at 1010...1 and the rest insert one extra 1 bit right of an existing
        # 1, moving left from the rightmost
        all_values = values(enumerate_exceptions(PrimePower(2, 2), 2**13))
        rows: dict[int, list[str]] = {}
        for n in all_values:
            s = format(n, "b")
            rows.setdefault(len(s), []).append(s)
        for length, row in rows.items():
            if length > 13:
                continue
            if length % 2:
                seed = "10" * (length // 2) + "1"
                assert row[0] == seed
                expected = {seed}
                for pos in range(len(seed) - 1, -1, -1):
                    if seed[pos] == "1":
                        expected.add(seed[: pos + 1] + "1" + seed[pos + 1 :])
                expected = {s for s in expected if len(s) == length + 1}
                # even-length strings derived from this row live in rows[length+1]
                if length + 1 in rows:
                    assert set(rows[length + 1]) == expected


class TestResidueOfException:
    def test_pure_power_is_one(self):
        for e in enumerate_exceptions(PrimePower(5, 2), 10**4):
            if isinstance(e.form, PurePower):
                assert residue_of_exception(e) == 1

    def test_worked_composition(self):
        # C(5; 2,2,1) = 30 == 5 (mod 25), attained at n = 141
        found = [e for e in enumerate_exceptions(PrimePower(5, 2), 200) if e.value == 141]
        assert len(found) == 1
        assert sorted(found[0].form.composition, reverse=True) == [2, 2, 1]
        assert residue_of_exception(found[0]) == 5

    def test_p2_composition(self):
        three = [e for e in enumerate_exceptions(PrimePower(2, 2), 5) if e.value == 3][0]
        assert three.form.composition == (1, 1)
        assert residue_of_exception(three) == 2

    def test_rejects_other_q(self):
        form = enumerate_exceptions(PrimePower(3, 1), 10)[0]
        with pytest.raises(ValueError):
            residue_of_exception(form)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_agrees_with_modular_residue(self, p):
        pp = PrimePower(p, 2)
        for e in enumerate_exceptions(PrimePower(p, 2), 300):
            assert residue_of_exception(e) == catalan_residue_mod_pq(pp, e.value)


class TestCounts:
    def test_headline_counts(self):
        assert count_exceptions_q2(2, 761) == comb(761, 2) == 289180
        assert count_exceptions_q2(3, 478) == comb(478, 3) == 18088476

    def test_tiny(self):
        assert count_exceptions_q2(2, 2) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            count_exceptions_q2(4, 10)
        with pytest.raises(ValueError):
            count_exceptions_q2(2, 0)
