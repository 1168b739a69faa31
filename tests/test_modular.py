import random
from math import comb

import pytest

from pqcat import (
    PrimePower,
    SizeGuardError,
    catalan_residue_mod_pq,
    factorial_p_mod,
    granville_binom_mod_pq,
    inverse_mod_pq,
    kummer_carries,
    lucas_binom_mod_p,
    sigma_p,
    to_base_p,
)
from pqcat.modular import _unit_factorial_table


def exact_split(c: int, p: int, pq: int) -> tuple[int, int]:
    e = 0
    while c % p == 0:
        c //= p
        e += 1
    return e, c % pq


def p_free_factorial(n: int, p: int) -> int:
    out = 1
    for k in range(1, n + 1):
        if k % p:
            out *= k
    return out


class TestFactorialP:
    def test_wilson_block(self):
        # p!_p = (p-1)!: 4! = 24 keeps its value mod 25
        assert factorial_p_mod(5, PrimePower(5, 2)) == 24

    def test_empty_product(self):
        assert factorial_p_mod(0, PrimePower(3, 2)) == 1

    def test_direct_product_small(self):
        assert p_free_factorial(10, 3) == 22400
        assert factorial_p_mod(10, PrimePower(3, 1)) == 22400 % 3 == 2

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 1)])
    def test_block_periodicity(self, p, q):
        pp = PrimePower(p, q)
        acc = 1
        pq = pp.modulus
        for n in range(0, 2000):
            if n:
                acc = acc * (n if n % p else 1) % pq
            assert factorial_p_mod(n, pp) == acc

    def test_wilson_sign_both_branches(self):
        # product of all units in one block: -1 in general, +1 for p=2, q>=3
        for p, q, expected in ((3, 2, 8), (5, 2, 24), (2, 2, 3), (7, 1, 6), (2, 3, 1), (2, 4, 1)):
            pp = PrimePower(p, q)
            assert factorial_p_mod(pp.modulus, pp) == expected


class TestLucas:
    def test_examples(self):
        assert lucas_binom_mod_p(10, 4, 3) == 0
        assert comb(10, 4) % 3 == 0
        for m, p in ((7, 2), (100, 7)):
            assert lucas_binom_mod_p(m, 0, p) == 1
        assert comb(13, 4) == 715
        assert lucas_binom_mod_p(13, 4, 3) == 715 % 3 == 1

    def test_n_above_m_is_zero(self):
        assert lucas_binom_mod_p(4, 9, 3) == 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_matches_exact(self, p):
        for m in range(0, 601):
            row = 1
            for n in range(0, m + 1):
                assert lucas_binom_mod_p(m, n, p) == row % p
                row = row * (m - n) // (n + 1)


class TestGranville:
    def test_corrected_example(self):
        # C(10,4) = 210 = 2 * 3 * 5 * 7: valuation 1, 210/3 = 70 == 7 (mod 9)
        g = granville_binom_mod_pq(10, 4, PrimePower(3, 2))
        assert (g.e0, g.unit_residue) == (1, 7)

    def test_diagonal(self):
        for m in (0, 1, 9, 64):
            for pp in (PrimePower(2, 2), PrimePower(5, 2)):
                g = granville_binom_mod_pq(m, m, pp)
                assert (g.e0, g.unit_residue) == (0, 1)

    def test_power_of_two_column(self):
        for k in range(2, 12):
            g = granville_binom_mod_pq(2**k, 1, PrimePower(2, 2))
            assert (g.e0, g.unit_residue) == (k, 1)

    def test_rejects_n_above_m(self):
        with pytest.raises(ValueError):
            granville_binom_mod_pq(4, 5, PrimePower(2, 2))

    def test_sign_rule_both_branches(self):
        # the sign applies iff the carry count at or beyond digit q-1 is odd;
        # p = 2 with q >= 3 flips to +1.  Check against exact values on a
        # window chosen to exercise odd e_{q-1}.
        for p, q in ((3, 2), (5, 2), (2, 2), (2, 3), (2, 4)):
            pp = PrimePower(p, q)
            for m in range(pp.modulus, pp.modulus * 3):
                for n in range(0, m + 1):
                    e, unit = exact_split(comb(m, n), p, pp.modulus)
                    g = granville_binom_mod_pq(m, n, pp)
                    assert (g.e0, g.unit_residue) == (e, unit), (m, n, p, q)

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_matches_exact(self, p, q):
        pp = PrimePower(p, q)
        for m in range(0, 151):
            c = 1
            for n in range(0, m + 1):
                e, unit = exact_split(c, p, pp.modulus)
                g = granville_binom_mod_pq(m, n, pp)
                assert (g.e0, g.unit_residue) == (e, unit), (m, n, p, q)
                c = c * (m - n) // (n + 1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_q1_degenerates_to_lucas(self, p):
        pp = PrimePower(p, 1)
        for m in range(0, 200):
            for n in range(0, m + 1):
                g = granville_binom_mod_pq(m, n, pp)
                reconstructed = g.unit_residue * pow(p, g.e0, p) % p
                assert reconstructed == lucas_binom_mod_p(m, n, p)

    def test_huge_operands(self):
        # digit-level only: works far beyond exact-binomial range
        n = 2**501 + 17
        m = 4 * n + 1
        g = granville_binom_mod_pq(m, n, PrimePower(2, 2))
        assert g.unit_residue % 2 == 1
        assert g.e0 >= 0


def seeded_pairs(p: int, q: int) -> list[tuple[int, int]]:
    """20 reproducible (m, n) pairs with 1200-1600-bit m, n <= m."""
    rng = random.Random(1000 * p + q)
    pairs = []
    for _ in range(20):
        bits = rng.randrange(1200, 1601)
        m = rng.getrandbits(bits) | (1 << (bits - 1))
        pairs.append((m, rng.randrange(m + 1)))
    return pairs


# (e0, unit) for seeded_pairs(p, q), recorded from the digit-loop
# implementation that preceded the array kernel
PINNED = {
    (2, 2): [
        (812, 3), (710, 1), (701, 3), (769, 3), (618, 1), (790, 3), (689, 1), (636, 1),
        (702, 1), (732, 3), (727, 3), (657, 3), (822, 3), (649, 1), (630, 1), (670, 1),
        (792, 3), (751, 1), (638, 1), (762, 3),
    ],
    (3, 2): [
        (416, 8), (388, 8), (411, 8), (392, 7), (461, 2), (495, 7), (426, 7), (490, 1),
        (425, 7), (481, 1), (385, 2), (459, 1), (472, 7), (395, 7), (397, 4), (449, 8),
        (478, 1), (426, 5), (451, 7), (490, 8),
    ],
    (5, 3): [
        (282, 2), (342, 21), (349, 12), (305, 112), (323, 58), (289, 34), (324, 38), (275, 92),
        (299, 66), (318, 72), (273, 119), (335, 7), (312, 13), (297, 32), (256, 54), (303, 19),
        (293, 7), (310, 42), (360, 116), (240, 88),
    ],
    (7, 4): [
        (201, 1083), (264, 1837), (255, 628), (281, 1216), (264, 893), (245, 193), (231, 2061),
        (204, 277), (294, 1773), (268, 1597), (256, 657), (233, 855), (256, 1055), (214, 1689),
        (272, 1018), (202, 1529), (247, 1199), (253, 1349), (272, 2260), (219, 1023),
    ],
    (2, 20): [
        (770, 845821), (805, 40621), (664, 596653), (783, 894065), (615, 126963),
        (734, 160475), (674, 214313), (646, 1000671), (695, 804515), (749, 173647),
        (770, 711051), (727, 880791), (719, 66163), (674, 483705), (614, 531157), (759, 98411),
        (680, 491865), (569, 340081), (624, 298545), (764, 837547),
    ],
    (3, 13): [
        (504, 1544032), (441, 21704), (425, 1117825), (391, 69593), (452, 655616),
        (411, 508450), (433, 1164805), (485, 626866), (384, 48661), (424, 783707),
        (422, 295054), (413, 743320), (515, 670811), (492, 554825), (499, 865459),
        (475, 208015), (486, 864173), (412, 1480241), (451, 975977), (417, 1320988),
    ],
}


class TestGranvilleKernel:
    @pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 3), (7, 4), (11, 2)])
    def test_every_pair_to_300(self, p, q):
        pp = PrimePower(p, q)
        for m in range(0, 301):
            c = 1
            for n in range(0, m + 1):
                g = granville_binom_mod_pq(m, n, pp)
                assert (g.e0, g.unit_residue) == exact_split(c, p, pp.modulus), (m, n, p, q)
                c = c * (m - n) // (n + 1)

    @pytest.mark.parametrize("p,q", [(2, 20), (3, 13)])
    def test_large_table_spot_checks(self, p, q):
        pp = PrimePower(p, q)
        rng = random.Random(p * q)
        pairs = [(m, n) for m in (rng.randrange(1, 3000) for _ in range(25)) for n in (m // 3, m // 2)]
        # around one and several full blocks of the table, with short binomials
        for m in (pp.modulus - 1, pp.modulus, pp.modulus + 1, 3 * pp.modulus + 7):
            pairs += [(m, n) for n in (0, 1, 2, 5, 17)] + [(m, m - 3)]
        # m anywhere up to three full blocks, n up to 1500 from either end
        for m in (rng.randrange(3 * pp.modulus + 1) for _ in range(40)):
            pairs += [(m, rng.randrange(min(m, 1500) + 1)), (m, m - rng.randrange(min(m, 1500) + 1))]
        for m, n in pairs:
            g = granville_binom_mod_pq(m, n, pp)
            assert (g.e0, g.unit_residue) == exact_split(comb(m, n), p, pp.modulus), (m, n)

    @pytest.mark.parametrize("p,q", sorted(PINNED))
    def test_pinned_huge_pairs(self, p, q):
        pp = PrimePower(p, q)
        got = [granville_binom_mod_pq(m, n, pp) for m, n in seeded_pairs(p, q)]
        assert [(g.e0, g.unit_residue) for g in got] == PINNED[(p, q)]

    def test_above_table_cap_small_m(self):
        # no table for 2**40 or 3**16: each window's k!_p is a direct product
        for pp in (PrimePower(2, 40), PrimePower(3, 16)):
            for m in (0, 1, 100, 12345):
                for n in (0, m // 3, m // 2, m):
                    g = granville_binom_mod_pq(m, n, pp)
                    assert (g.e0, g.unit_residue) == exact_split(comb(m, n), pp.p, pp.modulus)

    def test_above_table_cap_refused(self):
        with pytest.raises(SizeGuardError):
            granville_binom_mod_pq(2**50, 12345, PrimePower(2, 40))
        with pytest.raises(SizeGuardError):
            catalan_residue_mod_pq(PrimePower(2, 40), 12345)


class TestUnitFactorialTable:
    # (3, 11) and up span several build chunks; at p = 7 chunk edges fall
    # inside a block of p integers, and at p = 131101 a block spans three
    @pytest.mark.parametrize("p,q", [(2, 10), (3, 7), (7, 4), (3, 11), (5, 8), (7, 7), (3, 13),
                                     (131101, 1)])
    def test_matches_prefix_loop(self, p, q):
        pp = PrimePower(p, q)
        pq = pp.modulus
        acc = 1
        for k in range(pq):
            if k % p:
                acc = acc * k % pq
            assert factorial_p_mod(k, pp) == acc, k
        # the full block is Gauss' generalized Wilson unit
        assert acc == (1 if p == 2 and q >= 3 else pq - 1)
        table = _unit_factorial_table(p, q)
        assert table.dtype == "int32"
        assert len(table) == p ** (q - 1) * (p - 1) + 1

    def test_large_tables_are_small(self):
        # one int32 entry per unit below p**q: 2.1 MB and 4.25 MB
        assert _unit_factorial_table(2, 20).nbytes + _unit_factorial_table(3, 13).nbytes <= 6.4e6

    def test_no_table_above_cap(self):
        assert _unit_factorial_table(2, 23) is None

    def test_cache_is_bounded(self):
        # 12 distinct small moduli: only the 8 most recent tables stay cached
        _unit_factorial_table.cache_clear()
        moduli = [PrimePower(p, q) for p, q in ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2),
                                                (7, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1))]
        for pp in moduli:
            for m, n in ((30, 7), (100, 41)):
                g = granville_binom_mod_pq(m, n, pp)
                assert (g.e0, g.unit_residue) == exact_split(comb(m, n), pp.p, pp.modulus)
        assert _unit_factorial_table.cache_info().currsize == 8


class TestFactorialAboveCap:
    def test_small_arguments_answered(self):
        pp = PrimePower(2, 40)
        assert factorial_p_mod(12345, pp) == p_free_factorial(12345, 2) % pp.modulus
        # whole blocks contribute +1 for p = 2, q >= 3: 2**40 + 5 -> 1 * 3 * 5
        assert factorial_p_mod(2**40 + 5, pp) == 15
        assert factorial_p_mod(2 * 3**16 + 4, PrimePower(3, 16)) == 8

    def test_long_direct_product_refused(self):
        with pytest.raises(SizeGuardError, match="direct product"):
            factorial_p_mod(2**39, PrimePower(2, 40))
        with pytest.raises(SizeGuardError):
            factorial_p_mod(5 * 2**40 + 2**22 + 1, PrimePower(2, 40))


class TestPlainIntResults:
    """Results are Python ints, never numpy scalars: repr() must not change."""

    def test_types(self):
        n = 2**1518 + 2**759 + 1
        for p, q in ((2, 2), (3, 2), (2, 20), (3, 13), (2, 40)):
            pp = PrimePower(p, q)
            m = pp.modulus * n + 1
            if pp.modulus < 2**22:
                g = granville_binom_mod_pq(m, n, pp)
                assert type(g.e0) is int and type(g.unit_residue) is int
                assert type(catalan_residue_mod_pq(pp, n)) is int
            g = granville_binom_mod_pq(1000, 321, pp)
            assert type(g.e0) is int and type(g.unit_residue) is int
            assert type(factorial_p_mod(1000, pp)) is int
        for p in (2, 3, 7):
            assert type(sigma_p(n, p)) is int
            assert type(kummer_carries(n, n // 3, p)) is int
            assert type(kummer_carries(n, n // 3, p, from_digit=5)) is int
            assert {type(d) for d in to_base_p(n, p).digits} == {int}


class TestInverse:
    def test_examples(self):
        assert inverse_mod_pq(1, PrimePower(7, 3)) == 1
        assert inverse_mod_pq(2, PrimePower(3, 2)) == 5
        assert inverse_mod_pq(7, PrimePower(2, 4)) == 7

    def test_rejects_multiples_of_p(self):
        with pytest.raises(ValueError):
            inverse_mod_pq(6, PrimePower(3, 2))

    def test_inverse_property(self):
        pp = PrimePower(5, 3)
        for a in range(1, 200):
            if a % 5:
                assert a * inverse_mod_pq(a, pp) % pp.modulus == 1
