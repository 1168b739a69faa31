from math import comb

import pytest

from pqcat import (
    PrimePower,
    SizeGuardError,
    catalan_exact,
    catalan_residue_mod_pq,
    catalan_valuation,
    divides,
    exception_values,
)


def exact_valuation(x: int, p: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


class TestExact:
    def test_classical_catalan(self):
        assert catalan_exact(2, 3) == 5
        assert [catalan_exact(2, n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_examples(self):
        assert catalan_exact(4, 3) == 22  # C(12,3)/10
        assert catalan_exact(9, 4) == 1785  # C(36,4)/33

    def test_zero_and_s_guard(self):
        assert catalan_exact(7, 0) == 1
        with pytest.raises(ValueError):
            catalan_exact(1, 5)
        with pytest.raises(SizeGuardError):
            catalan_exact(4, 10**7)
        assert catalan_exact(4, 10**3) > 0

    def test_integrality_both_identities(self):
        # ((s-1)n+1) | C(sn,n) and F = C(sn+1, n)/(sn+1)
        for s in range(2, 10):
            for n in range(0, 201):
                f = catalan_exact(s, n)
                assert f * ((s - 1) * n + 1) == comb(s * n, n)
                assert f * (s * n + 1) == comb(s * n + 1, n)


class TestValuation:
    def test_examples(self):
        assert catalan_valuation(PrimePower(2, 2), 3) == 1
        assert exact_valuation(22, 2) == 1
        assert catalan_valuation(PrimePower(3, 2), 4) == 1
        assert exact_valuation(1785, 3) == 1

    def test_pure_power_family_is_unit(self):
        for p, q in ((2, 2), (3, 2), (3, 3), (5, 1)):
            pp = PrimePower(p, q)
            for t in range(1, 6):
                n = (pp.modulus**t - 1) // (pp.modulus - 1)
                assert catalan_valuation(pp, n) == 0

    def test_zero_n(self):
        assert catalan_valuation(PrimePower(5, 2), 0) == 0

    def test_huge_n(self):
        pp = PrimePower(2, 2)
        n = (2**1518 - 1) // 3  # pure power: valuation 0 at astronomical size
        assert catalan_valuation(pp, n) == 0
        assert catalan_valuation(pp, n + 1) >= 1

    @pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
    def test_matches_exact(self, p, q):
        pp = PrimePower(p, q)
        s = pp.modulus
        for n in range(0, 501):
            f = comb(s * n, n) // ((s - 1) * n + 1)
            assert catalan_valuation(pp, n) == exact_valuation(f, p), (p, q, n)


class TestDivides:
    def test_examples(self):
        assert divides(PrimePower(2, 2), 2)  # F(4,2) = 4
        assert not divides(PrimePower(2, 2), 1)  # F(4,1) = 1
        # F(3,4) = C(12,4)/9 = 55 with no factor 3 at all
        assert comb(12, 4) // 9 == 55
        assert not divides(PrimePower(3, 1), 4)


class TestResidue:
    def test_examples(self):
        assert catalan_residue_mod_pq(PrimePower(2, 2), 3) == 2
        assert catalan_residue_mod_pq(PrimePower(2, 2), 5) == 1
        assert catalan_residue_mod_pq(PrimePower(3, 2), 4) == 3

    def test_zero_n_everywhere(self):
        for p, q in ((2, 2), (3, 3), (7, 1)):
            assert catalan_residue_mod_pq(PrimePower(p, q), 0) == 1

    def test_divisible_case_returns_zero(self):
        pp = PrimePower(2, 2)
        assert catalan_residue_mod_pq(pp, 2) == 0

    @pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)])
    def test_matches_exact(self, p, q):
        pp = PrimePower(p, q)
        s = pp.modulus
        for n in range(0, 301):
            f = comb(s * n, n) // ((s - 1) * n + 1)
            assert catalan_residue_mod_pq(pp, n) == f % pp.modulus, (p, q, n)

    def test_huge_n_pure_power(self):
        # residue 1 on the pure-power family even at astronomical n
        pp = PrimePower(3, 2)
        n = (9**400 - 1) // 8
        assert catalan_residue_mod_pq(pp, n) == 1

    def test_huge_n_odd_power_sums(self):
        # the structural residue (the multinomial of the composition) at
        # sizes where exact arithmetic is unthinkable
        n = (2**1001 + 2**501 - 1) // 3  # composition (1,1): residue 2 mod 4
        assert catalan_valuation(PrimePower(2, 2), n) == 1
        assert catalan_residue_mod_pq(PrimePower(2, 2), n) == 2
        n = (2 * 3**801 + 3**5 - 1) // 8  # composition (1,2): 3!/2! = 3 mod 9
        assert catalan_valuation(PrimePower(3, 2), n) == 1
        assert catalan_residue_mod_pq(PrimePower(3, 2), n) == 3


class TestUnitIdentity:
    @pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
    def test_residue_one_on_pure_powers(self, p, q):
        # the non-divisible n are exactly the pure-power family, where the
        # least residue of F mod p^q is 1
        pp = PrimePower(p, q)
        mod = pp.modulus - 1
        family = set()
        t = 1
        while (pp.modulus**t - 1) // mod <= 5000:
            family.add((pp.modulus**t - 1) // mod)
            t += 1
        if q == 1:
            undivided = {n for n in range(1, 5001) if not divides(pp, n)}
            assert undivided == family
        for n in family:
            assert catalan_residue_mod_pq(pp, n) == 1


class TestPrimeModulus:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_residues_are_zero_or_one(self, p):
        # q = 1: F(p, n) mod p is 1 exactly on the pure-power exceptions
        # (p**t - 1) / (p - 1), and 0 everywhere else
        pp = PrimePower(p, 1)
        ones = set(exception_values(pp, 3000)) | {0}  # F(p, 0) = 1
        for n in range(3000):
            residue = catalan_residue_mod_pq(pp, n)
            assert residue == comb(p * n, n) // ((p - 1) * n + 1) % p, n
            assert residue == (1 if n in ones else 0), n
