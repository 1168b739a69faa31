import time
from math import comb, factorial

import pytest

from pqcat import (
    Partition,
    PrimePower,
    SizeGuardError,
    catalan_valuation,
    multinomial,
    partitions_of,
    residue_count_sequence,
    residue_set_p2,
)
from pqcat.config import RESIDUE_PRIME_LIMIT

PRIMES_TO_43 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def partition_scan(p):
    # the direct construction: 0, 1 and every multinomial p!/prod c_i! mod p**2
    return sorted({0, 1} | {multinomial(p, part.parts) % (p * p) for part in partitions_of(p)})


class TestPartitions:
    def test_five(self):
        got = [p.parts for p in partitions_of(5)]
        assert got == [
            (5,),
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]

    def test_one(self):
        assert [p.parts for p in partitions_of(1)] == [(1,)]

    def test_counts(self):
        # p(n) for n = 1..10
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(partitions_of(n)) for n in range(1, 11)] == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            partitions_of(0)


class TestMultinomial:
    def test_examples(self):
        assert multinomial(5, (2, 2, 1)) == 30
        assert multinomial(2, (1, 1)) == 2
        assert multinomial(7, (7,)) == 1

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            multinomial(5, (2, 2))

    def test_integrality_all_partitions(self):
        for p in range(1, 32):
            for part in partitions_of(p):
                m = multinomial(p, part.parts)
                assert m * __import__("math").prod(factorial(c) for c in part.parts) == factorial(p)


class TestResidueSet:
    def test_table_rows_small(self):
        assert residue_set_p2(2) == [0, 1, 2]
        assert residue_set_p2(3) == [0, 1, 3, 6]
        assert residue_set_p2(5) == [0, 1, 5, 10, 20]

    def test_seven_includes_28(self):
        # the full partition scan: C(7; 3,2,1,1) = 420 == 28 (mod 49), so the
        # correct row has eight entries, not the seven of the reference table
        assert residue_set_p2(7) == [0, 1, 7, 14, 21, 28, 35, 42]

    def test_28_attained_exactly(self):
        # minimal witness: X = 3*7 + 2*7^3 + 7^5 + 7^7 gives n = 17522
        x = 3 * 7 + 2 * 7**3 + 7**5 + 7**7
        n = (x - 1) // 48
        assert n == 17522
        m = 49 * n + 1
        f = comb(m, n) // m
        assert f % 49 == 28

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            residue_set_p2(6)

    @pytest.mark.parametrize("p", PRIMES_TO_43)
    def test_equals_partition_scan(self, p):
        assert residue_set_p2(p) == partition_scan(p)

    def test_guard_refuses_before_work(self):
        started = time.monotonic()
        for p in (RESIDUE_PRIME_LIMIT + 1, 10**100 + 267):
            with pytest.raises(SizeGuardError):
                residue_set_p2(p)
        assert time.monotonic() - started < 0.1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_partition_count_bound(self, p):
        assert len(residue_set_p2(p)) <= len(partitions_of(p)) + 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_attainment_sweep(self, p):
        # every member of the set shows up as an exact residue: 0 from any
        # divisible n, the rest on the (few) exceptional n <= 20000
        pp = PrimePower(p, 2)
        p2 = pp.modulus
        seen = set()
        for n in range(0, 20001):
            if catalan_valuation(pp, n) >= 2:
                seen.add(0)  # divisible; exact residue 0 without computing F
            else:
                f = comb(p2 * n, n) // ((p2 - 1) * n + 1)
                seen.add(f % p2)
        assert seen == set(residue_set_p2(p))


class TestCountSequence:
    def test_examples(self):
        counts = residue_count_sequence(7)
        assert counts[1] == 3  # s = 2
        assert counts[2] == 4  # s = 3
        assert counts[4] == 5  # s = 5
        assert counts[6] == 8  # s = 7, full partition scan
        assert counts[0] is None and counts[3] is None and counts[5] is None

    def test_length_and_validation(self):
        assert len(residue_count_sequence(12)) == 12
        with pytest.raises(ValueError):
            residue_count_sequence(0)

    def test_two_hundred_under_a_second(self):
        started = time.monotonic()
        counts = residue_count_sequence(200)
        assert time.monotonic() - started < 1.0
        assert len(counts) == 200 and counts[198] == 200  # s = 199: 0, 1 and 198 units

    def test_guard(self):
        # 2999 is the largest prime the limit admits; every unit is reached
        assert residue_set_p2(2999) == [0, 1] + list(range(2999, 2999**2, 2999))
        with pytest.raises(SizeGuardError):
            residue_count_sequence(RESIDUE_PRIME_LIMIT + 1)
