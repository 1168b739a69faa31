"""Binomial coefficients modulo p and modulo p**q.

Lucas' digitwise product handles the prime modulus.  The prime-power case
(Granville's congruence) splits C(m, n) into p**e0 times a unit and takes
the unit from the p-free factorials k!_p (the product of all i <= k coprime
to p) of q-digit windows of m, n and m - n.  The whole computation is array
work: the base-p digits come from `digits._digit_array`, e0 and the sign
from digit sums, every window from one sliding dot product with
[1, p, ..., p**(q-1)], and the window factorials from a prefix table
gathered in one step and multiplied by pairwise halving.  Tables are int64
arrays, built for p**q <= 2**22, where every window and every product of
two residues fits a machine word.  Above that cap the same code runs on
Python-int arrays and each window's k!_p is a direct product, refused with
SizeGuardError once it would take more than 2**22 steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, isqrt, log2

import numpy as np

from .config import SizeGuardError
from .digits import PrimePower, _digit_array, _require_nonneg, _require_prime, _shown

# prefix tables of k!_p mod p**q are only built for moduli up to this size;
# without a table a direct product of more steps than this is refused
_FACT_TABLE_MAX = 1 << 22


# a table near 2**20 entries holds 8 MB, so only the most recent few stay;
# eight covers a query mix that interleaves six moduli without rebuilding
@lru_cache(maxsize=8)
def _unit_factorial_table(p: int, q: int) -> np.ndarray | None:
    """table[k] = product of i <= k with p !| i, reduced mod p**q.

    Built in blocks about sqrt(p**q) wide: prefix products along each row,
    vectorised over all rows, then each row scaled by the product of every
    row before it.  Entries are below 2**22, so each product fits int64.
    """
    pq = p**q
    if pq > _FACT_TABLE_MAX:
        return None
    cols = isqrt(pq - 1) + 1
    rows = -(-pq // cols)
    table = np.arange(rows * cols, dtype=np.int64)
    table[::p] = 1  # multiples of p (and 0) contribute nothing
    block = table.reshape(rows, cols)
    for j in range(1, cols):
        block[:, j] *= block[:, j - 1]
        block[:, j] %= pq
    carry = [1]
    for total in block[:-1, -1].tolist():
        carry.append(carry[-1] * total % pq)
    block *= np.array(carry, dtype=np.int64)[:, None]
    block %= pq
    table.flags.writeable = False  # cached: shared by every caller
    return table[:pq]


def _block_unit(p: int, q: int) -> int:
    """The product of the units in one block of p**q consecutive integers,
    mod p**q (Gauss' generalization of Wilson's theorem): -1, except +1 for
    p = 2 with q >= 3."""
    return 1 if p == 2 and q >= 3 else p**q - 1


def factorial_p_mod(n: int, pp: PrimePower) -> int:
    """n!_p mod p**q: the product of all integers <= n not divisible by p.

    Every full block of p**q integers contributes the unit `_block_unit`, so
    n!_p reduces to that unit to the power n div p**q times the prefix
    product of the remainder: a table lookup up to the table cap, a direct
    product of at most 2**22 steps above it.
    """
    _require_nonneg(n)
    p, q, pq = pp.p, pp.q, pp.modulus
    blocks, rem = divmod(n, pq)
    table = _unit_factorial_table(p, q)
    if table is not None:
        part = int(table[rem])
    elif rem > _FACT_TABLE_MAX:
        raise SizeGuardError(
            f"{_shown(n)}!_p mod {pp} needs a direct product of {_shown(rem)} steps, "
            f"over the cap of 2**22 (tables exist only for moduli up to 2**22)"
        )
    else:
        part = 1
        for k in range(1, rem + 1):
            if k % p:
                part = part * k % pq
    return pow(_block_unit(p, q), blocks, pq) * part % pq


def lucas_binom_mod_p(m: int, n: int, p: int) -> int:
    """C(m, n) mod p as the product of the digitwise binomials C(m_i, n_i).

    n > m is allowed and gives 0, matching the vanishing binomial.
    """
    _require_prime(p)
    _require_nonneg(m, "m")
    _require_nonneg(n)
    out = 1
    while m or n:
        mi = m % p
        ni = n % p
        if ni > mi:
            return 0
        out = out * comb(mi, ni) % p
        m //= p
        n //= p
    return out


@dataclass(frozen=True)
class GranvilleResult:
    """The split C(m, n) = p**e0 * unit with the unit reduced mod p**q."""

    e0: int
    unit_residue: int


def granville_binom_mod_pq(m: int, n: int, pp: PrimePower) -> GranvilleResult:
    """Valuation e0 = v_p(C(m, n)) and the residue of C(m, n)/p**e0 mod p**q.

    Write r = m - n and read q-digit windows off the base-p expansions:
    M_j = m_j + m_{j+1} p + ... + m_{j+q-1} p**(q-1), likewise N_j and R_j.
    Then, with e_j the number of carries at positions >= j when adding n
    and r,

        C(m, n) / p**e0  ==  s**e_{q-1} * prod_j M_j!_p / (N_j!_p R_j!_p)
                                                           (mod p**q),

    where the sign s is -1 except for p = 2 with q >= 3, where it is +1.
    Windows are taken verbatim from the digits, padding with zeros beyond
    the top of each expansion (an all-zero window contributes 0!_p = 1);
    j runs over the digit positions of m, the widest of the three.
    """
    _require_nonneg(n)
    if n > m:
        raise ValueError(f"need 0 <= n <= m, got m={_shown(m)} n={_shown(n)}")
    p, q, pq = pp.p, pp.q, pp.modulus
    # One row each for m, n and r = m - n: a power-of-two count of windows,
    # at least the digit count of m, plus the q - 1 digits the top windows
    # read.  The padding is zeros, and an all-zero window contributes 1.
    windows_per_row = 1 << int(m.bit_length() / log2(p) + 1).bit_length()
    size = windows_per_row + q - 1
    rows = _digit_array([m, n, m - n], p, size)
    table = _unit_factorial_table(p, q)
    if table is None:
        # windows may pass 2**63: the same steps on Python ints
        rows = rows.astype(object)
        fact = np.frompyfunc(lambda k: factorial_p_mod(k, pp), 1, 1)
    else:
        fact = table.__getitem__
    # the "full" correlation's entry q - 1 + i is the window starting at i
    powers = np.array([p**t for t in range(q)], dtype=rows.dtype)
    windows = np.correlate(rows.reshape(-1), powers, "full")[q - 1 :]
    windows = windows.reshape(3, size)[:, :windows_per_row]

    # Kummer: e0 = (s(n) + s(r) - s(m)) / (p - 1).  The carries below digit
    # k = q - 1 follow from the same identity for n, r mod p**k: their sum
    # has the low digits of m plus the carry out of digit k - 1.
    total = rows.sum(axis=1)
    low = rows[:, : q - 1].sum(axis=1)
    e0 = int(total[1] + total[2] - total[0]) // (p - 1)
    pk = p ** (q - 1)
    carry_out = int(windows[1, 0]) % pk + int(windows[2, 0]) % pk >= pk
    e_top = e0 - int(low[1] + low[2] - low[0] - carry_out) // (p - 1)

    # num = prod M_j!_p and den = prod N_j!_p R_j!_p: halve pairwise down
    # to eight factors a row, then finish on Python ints
    values = fact(windows)
    values[1] = values[1] * values[2] % pq
    halves = values[:2]
    while halves.shape[1] > 8:
        halves = halves[:, 0::2] * halves[:, 1::2] % pq
    num, den = (reduce(lambda a, b: a * b % pq, row) for row in halves.tolist())
    unit = num * pow(den, -1, pq) * pow(_block_unit(p, q), e_top, pq) % pq
    return GranvilleResult(e0, unit)


def inverse_mod_pq(a: int, pp: PrimePower) -> int:
    """The inverse of a modulo p**q; a must be coprime to p."""
    if a % pp.p == 0:
        raise ValueError(f"{a} is divisible by {pp.p}, not invertible mod {pp.modulus}")
    return pow(a, -1, pp.modulus)
