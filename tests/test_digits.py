import random
from math import comb, factorial

import pytest

from pqcat import (
    DigitVector,
    PrimePower,
    binom_valuation,
    is_prime,
    kummer_carries,
    legendre_valuation_factorial,
    sigma_p,
    to_base_p,
)


def exact_valuation(x: int, p: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


class TestIsPrime:
    def test_small(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_larger(self):
        assert is_prime(99991)
        assert not is_prime(99993)
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)  # 641 * 6700417
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


class TestPrimePower:
    def test_modulus_cached(self):
        pp = PrimePower(3, 4)
        assert pp.modulus == 81

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimePower(4, 2)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            PrimePower(3, 0)


class TestToBaseP:
    def test_eleven_base_two(self):
        assert to_base_p(11, 2).digits == (1, 1, 0, 1)

    def test_zero(self):
        assert to_base_p(0, 5).digits == ()

    def test_fortyfive_base_two(self):
        vec = to_base_p(45, 2)
        assert vec.digits == (1, 0, 1, 1, 0, 1)
        assert str(vec) == "101101 (base 2)"

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            to_base_p(10, 6)
        with pytest.raises(ValueError):
            to_base_p(10, 1)

    def test_round_trip(self):
        rng = random.Random(90125)
        samples = list(range(2049)) + [rng.randrange(10**6) for _ in range(2000)]
        for p in (2, 3, 5, 7, 11, 13):
            for n in samples:
                assert to_base_p(n, p).value() == n

    def test_round_trip_huge(self):
        n = 2**1520 + 3**700 + 11
        for p in (2, 3, 7):
            assert to_base_p(n, p).value() == n

    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            DigitVector((1, 0), 2)
        with pytest.raises(ValueError):
            DigitVector((2,), 2)


class TestSigma:
    def test_examples(self):
        assert sigma_p(11, 2) == 3
        assert sigma_p(0, 7) == 0

    def test_shift_identity(self):
        # sigma_p(p**q * n + 1) = sigma_p(n) + 1
        assert sigma_p(91, 3) == sigma_p(10, 3) + 1 == 3
        for p, q in ((2, 3), (3, 2), (5, 1)):
            for n in range(1, 300):
                assert sigma_p(p**q * n + 1, p) == sigma_p(n, p) + 1


class TestLegendre:
    def test_examples(self):
        assert legendre_valuation_factorial(10, 2) == 8
        assert legendre_valuation_factorial(9, 3) == 4
        for p in (2, 3, 5, 13):
            assert legendre_valuation_factorial(p - 1, p) == 0

    def test_exact_factorial(self):
        for n in (10, 25, 60):
            for p in (2, 3, 5):
                assert legendre_valuation_factorial(n, p) == exact_valuation(factorial(n), p)

    def test_digit_sum_form(self):
        # floor sums equal (n - sigma_p(n)) / (p - 1)
        rng = random.Random(5040)
        samples = list(range(3000)) + [rng.randrange(10**5) for _ in range(3000)]
        for p in (2, 3, 5, 7):
            for n in samples:
                assert legendre_valuation_factorial(n, p) == (n - sigma_p(n, p)) // (p - 1)


class TestKummer:
    def test_examples(self):
        assert kummer_carries(4, 5, 3) == 2
        assert exact_valuation(comb(9, 4), 3) == 2
        for n in (0, 1, 17, 100):
            assert kummer_carries(n, 0, 5) == 0
        assert kummer_carries(1, 1, 2, from_digit=1) == 0
        assert kummer_carries(1, 1, 2, from_digit=0) == 1

    def test_from_digit_matches_carry_loop(self):
        def carries_from(n, r, p, k):
            carry = count = i = 0
            while n or r or carry:
                carry = 1 if n % p + r % p + carry >= p else 0
                count += carry and i >= k
                n, r, i = n // p, r // p, i + 1
            return count

        rng = random.Random(271828)
        for p in (2, 3, 5, 7, 11):
            for _ in range(400):
                n = rng.getrandbits(rng.randrange(0, 200))
                r = rng.getrandbits(rng.randrange(0, 200))
                k = rng.randrange(0, 140)
                assert kummer_carries(n, r, p, from_digit=k) == carries_from(n, r, p, k), (n, r, p, k)
        huge = 2**1520 + 3**700
        for k in (0, 1, 5, 900, 10**6):
            assert kummer_carries(huge, huge // 3, 3, from_digit=k) == carries_from(huge, huge // 3, 3, k)

    def test_from_digit_monotone(self):
        for n, r in ((37, 58), (255, 1), (80, 81)):
            prev = kummer_carries(n, r, 2)
            for j in range(1, 10):
                cur = kummer_carries(n, r, 2, from_digit=j)
                assert cur <= prev
                prev = cur


class TestBinomValuation:
    def test_examples(self):
        assert binom_valuation(9, 4, 3) == 2
        for m, p in ((17, 2), (100, 5)):
            assert binom_valuation(m, 0, p) == 0
        for k in range(1, 12):
            assert binom_valuation(2**k, 1, 2) == k

    def test_rejects_n_above_m(self):
        with pytest.raises(ValueError):
            binom_valuation(4, 5, 3)

    def test_matches_legendre(self):
        for p in (2, 3, 5):
            for m in range(0, 401):
                vm = legendre_valuation_factorial(m, p)
                for n in range(0, m + 1):
                    expected = vm - legendre_valuation_factorial(n, p) - legendre_valuation_factorial(m - n, p)
                    assert binom_valuation(m, n, p) == expected

    def test_matches_exact(self):
        for m in range(0, 301):
            row = 1
            for n in range(0, m + 1):
                for p in (2, 3, 5, 7):
                    assert binom_valuation(m, n, p) == exact_valuation(row, p)
                row = row * (m - n) // (n + 1)
