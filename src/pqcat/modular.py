"""Binomial coefficients modulo p and modulo p**q.

Lucas' digitwise product handles the prime modulus.  The prime-power case
(Granville's congruence) splits C(m, n) into p**e0 times a unit and takes
the unit from the p-free factorials k!_p (the product of all i <= k coprime
to p) of q-digit windows of m, n and m - n.  The whole computation is array
work: the base-p digits come from `digits._digit_array`, e0 and the sign
from digit sums, every window from one sliding dot product with
[1, p, ..., p**(w-1)], w = min(q, bits(m) + 1), and the window factorials
from a prefix table gathered in one step and multiplied by pairwise
halving.  Tables hold the prefix products over the units only, as int32,
and are built for p**q <= 2**22, where every window fits a machine word
and every product of two residues fits int64.  Above that cap the same
code runs on Python-int arrays, and the windows' k!_p are read off one
running product over their distinct values, up to the largest; a window
that would take more than 2**22 steps is refused with SizeGuardError.
When p**(q-1) also passes 2**22, every m above 2**22 has such a window
and is refused before its digits are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, log2

import numpy as np

from .config import SizeGuardError
from .digits import PrimePower, _digit_array, _require_nonneg, _require_prime, _shown

# prefix tables of k!_p mod p**q are only built for moduli up to this size;
# without a table a direct product of more steps than this is refused
_FACT_TABLE_MAX = 1 << 22

# the table is built this many units at a time, laid out _BUILD_COLS to a row
_BUILD_CHUNK = 1 << 16
_BUILD_COLS = 64


# a table holds 4 bytes per unit below p**q: 2 MB at 2**20, 8 MB at 2**22,
# so only the most recent few stay; eight covers a query mix that
# interleaves six moduli without rebuilding
@lru_cache(maxsize=8)
def _unit_factorial_table(p: int, q: int) -> np.ndarray | None:
    """table[t] = product of the first t integers coprime to p, mod p**q,
    for t = 0 ... p**(q-1) (p-1), as int32; k!_p = table[k - k // p] for
    k < p**q.

    Built in chunks of 2**16 units, so each int64 working array holds half
    a MB whatever p and q are: unit number t (from 0) is
    t + t // (p - 1) + 1.  A chunk fills a (rows, 64) block, stored
    transposed so that each of the 64 column steps of the prefix products
    runs over one contiguous row of all block rows.  Each block row is then
    scaled by the product of every unit before it, from earlier rows and
    chunks.  Entries are below 2**22, so each product of two fits int64.
    """
    pq = p**q
    if pq > _FACT_TABLE_MAX:
        return None
    count = pq // p * (p - 1)
    table = np.empty(count + 1, dtype=np.int32)
    table[0] = 1
    carry = 1
    for start in range(0, count, _BUILD_CHUNK):
        size = min(_BUILD_CHUNK, count - start)
        rows = -(-size // _BUILD_COLS)
        # only the last chunk runs past the last unit, and its tail is never read
        t = np.arange(start, start + rows * _BUILD_COLS, dtype=np.int64)
        t += t // (p - 1) + 1
        block = np.ascontiguousarray(t.reshape(rows, _BUILD_COLS).T)
        # x -= x // pq * pq is x %= pq: numpy divides by a scalar much faster
        for j in range(1, _BUILD_COLS):
            col = block[j]
            col *= block[j - 1]
            col -= col // pq * pq
        row_carry = []
        for total in block[-1].tolist():
            row_carry.append(carry)
            carry = carry * total % pq
        block *= np.array(row_carry, dtype=np.int64)
        block -= block // pq * pq
        table[start + 1 : start + 1 + size] = block.T.reshape(-1)[:size]
    table.flags.writeable = False  # cached: shared by every caller
    return table


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
        part = int(table[rem - rem // p])
    else:
        _guard_direct_product(n, rem, pp)
        part = _running_unit_factorials([rem], p, pq)[rem]
    return pow(_block_unit(p, q), blocks, pq) * part % pq


def _guard_direct_product(n: int, rem: int, pp: PrimePower) -> None:
    if rem > _FACT_TABLE_MAX:
        raise SizeGuardError(
            f"{_shown(n)}!_p mod {pp} needs a direct product of {_shown(rem)} steps, "
            f"over the cap of 2**22 (tables exist only for moduli up to 2**22)"
        )


def _running_unit_factorials(ks: list[int], p: int, pq: int) -> dict[int, int]:
    """k!_p mod pq for each k in ks, from one running product over the
    distinct k in increasing order: max(ks) steps in all."""
    out, acc, done = {}, 1, 0
    for k in sorted(set(ks)):
        for i in range(done + 1, k + 1):
            if i % p:
                acc = acc * i % pq
        out[k] = acc
        done = k
    return out


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
    table = _unit_factorial_table(p, q)
    # without a table, p**(q-1) > 2**22 puts some window of any m > 2**22
    # over the cap: m itself, or the window holding m's top digit
    if table is None and m > _FACT_TABLE_MAX and p ** min(q - 1, 23) > _FACT_TABLE_MAX:
        raise SizeGuardError(
            f"C({_shown(m)}, n) mod {pp} needs k!_p of a window above 2**22, a direct "
            f"product over the cap of 2**22 (tables exist only for moduli up to 2**22)"
        )
    # One row each for m, n and r = m - n: a power-of-two count of windows,
    # at least the digit count of m, plus the width - 1 digits the top
    # windows read.  A window is at most bits(m) + 1 digits wide: the digits
    # above m's top are zero, so every window keeps its value.  The padding
    # is zeros, and an all-zero window contributes 1.
    width = min(q, m.bit_length() + 1)
    windows_per_row = 1 << int(m.bit_length() / log2(p) + 1).bit_length()
    size = windows_per_row + width - 1
    rows = _digit_array([m, n, m - n], p, size)
    if table is None:
        # windows may pass 2**63: the same steps on Python ints
        rows = rows.astype(object)
    # the "full" correlation's entry width - 1 + i is the window starting at i
    powers = np.array([p**t for t in range(width)], dtype=rows.dtype)
    windows = np.correlate(rows.reshape(-1), powers, "full")[width - 1 :]
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

    if table is None:
        # every window is below p**q; each is refused past 2**22 as a direct
        # product, else read off one running product up to the largest
        ks = windows.reshape(-1).tolist()
        for k in ks:
            _guard_direct_product(k, k, pp)
        values = np.frompyfunc(_running_unit_factorials(ks, p, pq).__getitem__, 1, 1)(windows)
    else:
        # table entries are int32: widen before any product of two
        values = table[windows - windows // p].astype(np.int64)

    # num = prod M_j!_p and den = prod N_j!_p R_j!_p: halve pairwise down
    # to eight factors a row, then finish on Python ints
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
