"""Base-p digit primitives: expansions, digit sums, carries, valuations.

Everything here is exact integer arithmetic.  The numbers being expanded
may be arbitrarily large (structural exception witnesses reach sizes like
2**1520); the returned digit sums, carry counts and valuations always fit
comfortably in machine words.  Every expansion, and every digit sum for
p > 2, goes through one vectorised primitive, `_digit_array` (p = 2 digit
sums are int.bit_count), and carries are counted from digit sums, so none
of them walks the digits in a Python loop.  (Legendre's floor sum keeps
its own loop: it is the independent formula the digit-sum form is checked
against.)

numpy is imported on the first call of that primitive, not with this
module, so primality, PrimePower and p = 2 digit sums run without it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    The fixed witness set is proven complete below ~3.3e24, far beyond any
    prime this library is asked about; larger inputs are rejected rather
    than answered probabilistically.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_PROVEN_BELOW:
        raise ValueError(f"primality only decided deterministically below 3.3e24: {n}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _require_nonneg(n: int, name: str = "n") -> None:
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")


@dataclass(frozen=True)
class PrimePower:
    """A validated prime power: prime p, exponent q >= 1, cached p**q."""

    p: int
    q: int
    modulus: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"exponent must be >= 1, got {self.q}")
        _require_prime(self.p)
        object.__setattr__(self, "modulus", self.p**self.q)

    def __str__(self) -> str:
        return f"{self.p}^{self.q}"


@dataclass(frozen=True)
class DigitVector:
    """Little-endian base-p digits: digits[i] is the coefficient of p**i.

    Canonical form: the last digit is nonzero, so zero is the empty vector.
    """

    digits: tuple[int, ...]
    base: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("non-canonical digit vector: trailing zero limb")
        if self.digits and (min(self.digits) < 0 or max(self.digits) >= self.base):
            raise ValueError(f"digit out of range for base {self.base}")

    def value(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.base + d
        return v

    def digit(self, i: int) -> int:
        """Digit at power i, zero beyond the stored length."""
        return self.digits[i] if 0 <= i < len(self.digits) else 0

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __str__(self) -> str:
        # humans read most-significant-first
        if not self.digits:
            return f"0 (base {self.base})"
        sep = "" if self.base <= 10 else ","
        return sep.join(str(d) for d in reversed(self.digits)) + f" (base {self.base})"


@lru_cache(maxsize=None)
def _chunk_powers(p: int) -> np.ndarray:
    """[1, p, ..., p**(k-1)] for the largest k >= 1 with p**k < 2**62; a
    prime above 2**62 (k = 1) gets an object array, so its digits stay
    Python ints."""
    import numpy as np

    powers = [1]
    while powers[-1] * p * p < 1 << 62:
        powers.append(powers[-1] * p)
    powers = np.array(powers, dtype=np.int64 if p < 1 << 62 else object)
    powers.flags.writeable = False  # cached: shared by every caller
    return powers


def _digit_array(values: Sequence[int], p: int, width: int | None = None) -> np.ndarray:
    """Little-endian base-p digits of each x >= 0 in values, one row each,
    as a 2-D int64 array (Python ints for primes above 2**62).

    Rows are zero-padded to `width` digits (every x must fit) or, without
    it, to the longest expansion, so zeros alone give zero columns.  For
    p = 2 the bits come straight from the byte images; otherwise one
    big-integer divmod per base-p**k limb (p**k < 2**62) is followed by one
    vectorised split of all limbs into digits.
    """
    import numpy as np

    if p == 2:
        nbits = max(x.bit_length() for x in values) if width is None else width
        nbytes = (nbits + 7) // 8
        raw = b"".join(x.to_bytes(nbytes, "little") for x in values)
        image = np.frombuffer(raw, dtype=np.uint8).reshape(len(values), nbytes)
        return np.unpackbits(image, axis=1, count=nbits, bitorder="little").astype(np.int64)
    powers = _chunk_powers(p)
    k = powers.size
    chunk = int(powers[-1]) * p
    limb_rows = []
    for x in values:
        limbs = []
        while x:
            x, limb = divmod(x, chunk)
            limbs.append(limb)
        limb_rows.append(limbs)
    if width is None:
        # the top limb of the largest value has as many digits as powers <= it
        top = max(limb_rows, key=lambda limbs: (len(limbs), limbs[-1:]))
        width = (len(top) - 1) * k + bisect_right(powers.tolist(), top[-1]) if top else 0
    count = -(-width // k)
    limbs = np.array([row + [0] * (count - len(row)) for row in limb_rows], dtype=powers.dtype)
    return (limbs[:, :, None] // powers % p).reshape(len(values), count * k)[:, :width]


def _digit_sums(values: Sequence[int], p: int) -> list[int]:
    """Base-p digit sums of each x >= 0 in values."""
    if p == 2:
        return [x.bit_count() for x in values]
    return _digit_array(values, p).sum(axis=1).tolist()


def to_base_p(n: int, p: int) -> DigitVector:
    """Expand n >= 0 in base p, least-significant digit first."""
    _require_prime(p)
    _require_nonneg(n)
    return DigitVector(tuple(_digit_array([n], p)[0].tolist()), p)


def sigma_p(n: int, p: int) -> int:
    """Sum of the base-p digits of n."""
    _require_prime(p)
    _require_nonneg(n)
    return _digit_sums([n], p)[0]


def legendre_valuation_factorial(n: int, p: int) -> int:
    """v_p(n!) as the sum of floor(n / p**i) over i >= 1.

    Equals (n - sigma_p(n)) / (p - 1).
    """
    _require_prime(p)
    _require_nonneg(n)
    total = 0
    while n:
        n //= p
        total += n
    return total


def kummer_carries(n: int, r: int, p: int, from_digit: int = 0) -> int:
    """Number of carries at digit positions >= from_digit when adding n and
    r in base p.

    With from_digit = 0 this equals v_p(C(n + r, n)); larger from_digit
    counts only the carries on or beyond that digit, the quantity the
    prime-power congruence needs for its sign.  Kummer's digit-sum identity
    gives the total, (s(n) + s(r) - s(n + r)) / (p - 1); the carries below
    from_digit are the same expression for n and r reduced mod p**from_digit.
    """
    _require_prime(p)
    _require_nonneg(n)
    _require_nonneg(r, "r")
    _require_nonneg(from_digit, "from_digit")

    def carries(a: int, b: int) -> int:
        sa, sb, ssum = _digit_sums([a, b, a + b], p)
        return (sa + sb - ssum) // (p - 1)

    count = carries(n, r)
    if from_digit and count:
        # beyond the top digit of n + r there is nothing left to reduce
        low = p ** min(from_digit, (n + r).bit_length())
        count -= carries(n % low, r % low)
    return count


def binom_valuation(m: int, n: int, p: int) -> int:
    """v_p(C(m, n)) via Kummer's carry count for n + (m - n)."""
    _require_nonneg(n)
    if n > m:
        raise ValueError(f"need n <= m, got m={m} n={n}")
    return kummer_carries(n, m - n, p)
