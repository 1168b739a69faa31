"""Integer partitions and the least-residue set of F(p**2, n) mod p**2.

Every residue of F(p**2, n) is either 0 (the divisible case), 1 (the
pure-power family) or a multinomial p!/(c_1! ... c_s!) mod p**2 for a
partition (c_1, ..., c_s) of p.

The set is computed without visiting the partitions.  A partition with at
least two parts has every c_i < p, so prod c_i! is a unit mod p, and by
Wilson's theorem (p - 1)! = -1 (mod p):

    p! / prod c_i!  =  p * (p - 1)! / prod c_i!  =  p * (-u**-1 mod p)  (mod p**2),

with u = prod c_i! mod p.  The partition (p) gives 1.  So the set is
{0, 1} together with p * (-u**-1 mod p) for every u in U, the products
prod c_i! mod p over the partitions of p into parts <= p - 1.  U is found by
an unbounded knapsack over the part sizes in the cyclic group (Z/p)^*,
written additively through discrete logarithms so that each subset of the
group is one bitmask and multiplying it by a unit is a rotation.  The
knapsack stops as soon as U holds every unit.

`partitions_of` and `multinomial` stay as the direct construction, the
oracle the tests check the knapsack against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

from .config import RESIDUE_PRIME_LIMIT, SizeGuardError
from .digits import _require_prime, is_prime


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def total(self) -> int:
        return sum(self.parts)


def partitions_of(p: int) -> list[Partition]:
    """All partitions of p >= 1, largest-first within each partition, in
    reverse lexicographic order ((p,) first, (1,...,1) last)."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for k in range(min(remaining, cap), 0, -1):
            rec(remaining - k, k, prefix + (k,))

    rec(p, p, ())
    return out


def multinomial(total: int, parts: Sequence[int]) -> int:
    """total! / (c_1! ... c_s!) for parts summing to total; exact integer."""
    if sum(parts) != total:
        raise ValueError(f"parts {tuple(parts)} do not sum to {total}")
    value = factorial(total)
    for c in parts:
        value //= factorial(c)
    return value


def _primitive_root_powers(p: int) -> list[int]:
    """[g**0, g**1, ..., g**(p - 2)] mod p for the least primitive root g."""
    g = 1
    while True:
        powers = [1]
        x = g % p
        while x != 1:
            powers.append(x)
            x = x * g % p
        if len(powers) == p - 1:
            return powers
        g += 1


def _unit_product_logs(p: int, log: list[int]) -> str:
    """Which units are products prod c_i! mod p over the partitions of p into
    parts <= p - 1: character e is "1" iff g**e is one, for the primitive root
    g that `log` is taken to.

    An unbounded knapsack over the part sizes: reach[k] holds the products
    over the partitions of k into the sizes tried so far, as a bitmask over
    the logarithms, so multiplying by j! rotates it by log[j!].
    """
    order = p - 1
    full = (1 << order) - 1
    reach = [1] + [0] * p
    fact = 1
    for j in range(1, p):
        fact = fact * j % p
        shift = log[fact]
        for k in range(j, p + 1):
            mask = reach[k - j]
            if mask:
                reach[k] |= ((mask << shift) | (mask >> (order - shift))) & full
        if reach[p] == full:
            break  # every unit is reached; more part sizes add nothing
    return format(reach[p], f"0{order}b")[::-1]


def residue_set_p2(p: int) -> list[int]:
    """Sorted distinct least residues of F(p**2, n) mod p**2 over all n >= 0.

    Always contains 0 and 1; the rest are p * (-u**-1 mod p) for the unit
    products u (see the module docstring).  p above RESIDUE_PRIME_LIMIT is
    refused with SizeGuardError before any work.
    """
    _require_residue_size(p, "p")
    _require_prime(p)
    order = p - 1
    log = [0] * p
    for e, x in enumerate(_primitive_root_powers(p)):
        log[x] = e
    products = _unit_product_logs(p, log)
    minus_one = order // 2  # log of -1 mod p
    # p * v is a residue iff -v**-1 = g**(minus_one - log[v]) is a product
    return [0, 1] + [
        p * v for v in range(1, p) if products[(minus_one - log[v]) % order] == "1"
    ]


def residue_count_sequence(s_max: int) -> list[int | None]:
    """Sizes of the residue sets of F(s**2, .) mod s**2 for s = 1..s_max.

    Only prime s are supported by the construction; other s are reported as
    None.  s_max above RESIDUE_PRIME_LIMIT is refused with SizeGuardError.
    """
    if s_max < 1:
        raise ValueError(f"need s_max >= 1, got {s_max}")
    _require_residue_size(s_max, "s_max")
    return [len(residue_set_p2(s)) if is_prime(s) else None for s in range(1, s_max + 1)]


def _require_residue_size(value: int, name: str) -> None:
    if value > RESIDUE_PRIME_LIMIT:
        raise SizeGuardError(
            f"{name} = {value} exceeds the residue-set limit {RESIDUE_PRIME_LIMIT}"
        )
