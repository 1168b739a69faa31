"""Exact squarefreeness of C(m, n) without factoring the value, and scans
of C(p**q n + 1, n) over the structural exception families.

A prime square r**2 divides C(m, n) iff adding n and m - n in base r
carries at least twice (Kummer).  Prime 2 is tried first, from three
popcounts: base 2 carries s(n) + s(m - n) - s(m) times, with s the number
of set bits.  That decides almost every scan candidate and needs neither
primes nor a digit loop.  Only when 2 does not decide are the odd primes
walked from 3 upwards, counting carries digit by digit.  Two carries need
at least three base-r digits in m, so only primes r <= isqrt(m) can
contribute; the walk is exact and costs O(pi(sqrt(m)) * log m) divisions
of n and m - n by r.  Only the walk needs the sieve, so only it reaches
the sieve guard: C(m, n) above the guard is answered when 2**2 divides it
and refused otherwise.

The primes come from one shared sieve held as an immutable snapshot
(covered limit, every prime <= it).  The primes sit in one array("I"), 4
bytes a prime instead of a boxed int and a list slot, so a sieve to 2**24
keeps about 4 MB rather than about 43 MB.  Growth runs an odd-only sieve of
Eratosthenes in blocks of 128 KB of flags, so its peak is the new array
plus one block.  It publishes the array with a single assignment, so
threads share the cache without a lock and no reader sees a half-grown
array.  Threads that grow it at the same time may each sieve; the last
assignment wins, and every snapshot is complete.  The
squarefree test walks the snapshot's array in place and stops at the first
prime above isqrt(m); only primes_upto hands out a copy, as a plain list.

Since m = p**q n + 1 == 1 (mod p), adding n and m - n in base p carries
v_p(F(p**q, n)) times, so C(m, n) can be squarefree only when that
valuation is at most 1.  A scan tests the n with v_p(F(p**q, n)) <
max(q, 2): for q >= 2 the paper's exceptions (p**q does not divide
F(p**q, n)), for q = 1 the n with sigma_p((p - 1) n + 1) in {1, p}.  Every
other n gives a binomial that p**2 divides, so the rule loses nothing for
any q.  Each scan counts, per prime, how many candidates that prime ruled
out.

A scan tests its candidates in slices of 2**14 and can keep a checkpoint
file (covered n, hits so far).  The file is rewritten at a slice boundary
once at least a second has passed since the last write, and always when
the scan ends, so a long scan costs about one write a second and a killed
one loses at most the work since its last write.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, islice
from math import isqrt

from . import config
from .config import SizeGuardError
from .digits import PrimePower, _shown
from .exceptions import _values_below

# (covered limit, every prime <= it); array("I") holds every prime below the
# sieve guard, and extend raises OverflowError rather than truncate one above
_sieved: tuple[int, array] = (1, array("I"))


# odd numbers per sieve block, so one block's flags take 128 KB
_BLOCK = 1 << 17


def _simple_sieve(limit: int) -> array:
    """Odd-only sieve of Eratosthenes, as a 4-byte array of primes.

    Flag i stands for the odd number 2i + 1.  The flags are made _BLOCK at
    a time, each block marked by the odd primes <= isqrt(limit), which come
    from this function on that small limit; so the peak is the array plus
    one block.
    """
    if limit < 2:
        return array("I")
    base = _simple_sieve(isqrt(limit))
    half = (limit + 1) // 2  # flags for 1, 3, 5, ..., the odds <= limit
    primes = array("I", (2,))
    for lo in range(0, half, _BLOCK):
        size = min(_BLOCK, half - lo)
        flags = bytearray(b"\x01") * size
        if lo == 0:
            flags[0] = 0  # 1 is not prime
        for p in islice(base, 1, None):
            start = p * p // 2 - lo  # flag of p*p: a smaller multiple has a smaller factor
            if start >= size:
                break
            if start < 0:
                start %= p  # the block's first odd multiple of p
            flags[start::p] = bytes(len(range(start, size, p)))
        primes.extend(compress(range(2 * lo + 1, 2 * (lo + size), 2), flags))
    return primes


def _primes_covering(limit: int) -> array:
    """The snapshot's ascending primes, grown by doubling until they cover
    every prime <= limit; the array may run past limit and is shared, so
    callers only read it."""
    global _sieved
    if limit > config.DEFAULT_SIEVE_LIMIT:
        raise SizeGuardError(
            f"sieve target {_shown(limit)} exceeds the guard {config.DEFAULT_SIEVE_LIMIT}"
        )
    covered, primes = _sieved
    if limit > covered:
        covered = min(max(limit, 2 * covered), config.DEFAULT_SIEVE_LIMIT)
        primes = _simple_sieve(covered)
        _sieved = (covered, primes)
    return primes


def primes_upto(limit: int) -> list[int]:
    """Ascending primes <= limit, copied from the shared snapshot."""
    primes = _primes_covering(limit)
    return list(primes[: bisect_right(primes, limit)])


def _carries_at_least_two(n: int, r: int, p: int) -> bool:
    carry = 0
    seen = 0
    while n or r:
        if n % p + r % p + carry >= p:
            carry = 1
            seen += 1
            if seen == 2:
                return True
        else:
            carry = 0
        n //= p
        r //= p
    return False


def _witness(m: int, n: int) -> int | None:
    """The least prime r with r**2 | C(m, n), or None when C(m, n) is
    squarefree; needs 0 <= n <= m."""
    r_part = m - n
    if n.bit_count() + r_part.bit_count() - m.bit_count() >= 2:
        return 2
    root = isqrt(m)
    for p in islice(_primes_covering(root), 1, None):
        if p > root:
            break
        if _carries_at_least_two(n, r_part, p):
            return p
    return None


def is_squarefree_binom(m: int, n: int) -> bool:
    """Exact squarefreeness of C(m, n) by per-prime carry counting.

    Equivalent to checking kummer_carries(n, m - n, r) <= 1 for every prime
    r <= m; primes above isqrt(m) cannot carry twice, so only the small
    ones are visited, and those only when 2**2 does not divide C(m, n).
    """
    if n < 0 or n > m:
        raise ValueError(f"need 0 <= n <= m, got m={_shown(m)} n={_shown(n)}")
    return _witness(m, n) is None


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one squarefree scan of C(p**q n + 1, n) for n <= bound."""

    pp: PrimePower
    bound: int
    candidates_tested: int
    squarefree_hits: tuple[int, ...]
    elapsed: float = field(compare=False)
    checkpoint: int  # last n processed; 0 when nothing was scanned
    # (prime, candidates it ruled out) in ascending prime order, over the
    # candidates this run tested; the counts plus this run's hits make
    # candidates_tested (hits resumed from a checkpoint are not counted)
    witnesses: tuple[tuple[int, int], ...]


def _write_checkpoint(path: str, pp: PrimePower, bound: int, last_n: int, hits: list[int]) -> None:
    record = {
        "p": pp.p,
        "q": pp.q,
        "bound": bound,
        "last_n": str(last_n),
        "hits": [str(h) for h in sorted(hits)],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    os.replace(tmp, path)


# candidates tested between two looks at the checkpoint clock
_SLICE = 1 << 14
# least seconds between two checkpoint writes while a scan runs
_CHECKPOINT_INTERVAL = 1.0


# Python's default cap on parsing an int from text; cli.run lifts the
# interpreter's cap while a command runs, so checkpoint numbers keep it here
_MAX_DIGITS = 4300


def _decimal(text: object) -> int:
    """The value of a string of at most _MAX_DIGITS ASCII digits; anything
    else is refused."""
    if isinstance(text, str) and text.isascii() and text.isdigit() and len(text) <= _MAX_DIGITS:
        return int(text)
    raise ValueError(f"expected at most {_MAX_DIGITS} decimal digits, got {text!r:.80}")


def _read_checkpoint(path: str, pp: PrimePower) -> tuple[int, list[int]]:
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    try:
        record = json.loads(text, parse_int=_decimal)
        p, q = record["p"], record["q"]
        if type(p) is not int or type(q) is not int:  # bools are ints too
            raise TypeError(f"p and q must be integers, got {p!r:.80} and {q!r:.80}")
        if not isinstance(record["hits"], list):
            raise TypeError(f"hits must be a list, got {record['hits']!r:.80}")
        last_n, hits = _decimal(record["last_n"]), [_decimal(h) for h in record["hits"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path} is not a scan checkpoint: {exc!r}") from exc
    if p != pp.p or q != pp.q:
        raise ValueError(f"checkpoint {path} is for {p}^{q}, not {pp}")
    return last_n, hits


def scan_candidates(
    pp: PrimePower,
    bound: int,
    *,
    exhaustive: bool = False,
    checkpoint_path: str | None = None,
) -> ScanReport:
    """Squarefree hits of C(p**q n + 1, n) for n <= bound.

    By default only the n with v_p(F(p**q, n)) < max(q, 2) are tested,
    which is sound for every q (module docstring); exhaustive mode sweeps
    every n <= bound and serves as the oracle for the filter.  A checkpoint
    file, when given, is resumed from, rewritten at a slice boundary at
    most once every _CHECKPOINT_INTERVAL seconds, and written once more at
    the end.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {_shown(bound)}")

    started = time.monotonic()
    if exhaustive:
        candidates = range(1, bound + 1)
    else:
        candidates = _values_below(pp, bound, max(pp.q, 2))

    resume_from = 0
    hits: list[int] = []
    if checkpoint_path and os.path.exists(checkpoint_path):
        resume_from, prior = _read_checkpoint(checkpoint_path, pp)
        hits.extend(h for h in prior if h <= bound)
    # one sieve for the largest m, so no candidate grows the cache; its guard
    # also refuses a range too long for len(), which the slice needs
    if candidates:
        _primes_covering(isqrt(pp.modulus * candidates[-1] + 1))
    todo = candidates[bisect_right(candidates, resume_from):]
    resume_from = min(resume_from, bound)  # reported checkpoint stays <= bound

    last = resume_from
    tally: Counter[int | None] = Counter()
    mod = pp.modulus
    written = time.monotonic()
    for lo in range(0, len(todo), _SLICE):
        part = todo[lo : lo + _SLICE]
        found = [_witness(mod * n + 1, n) for n in part]
        tally.update(found)
        if None in found:
            hits.extend(n for n, r in zip(part, found) if r is None)
        last = part[-1]
        if checkpoint_path and time.monotonic() - written >= _CHECKPOINT_INTERVAL:
            _write_checkpoint(checkpoint_path, pp, bound, last, hits)
            written = time.monotonic()
    if checkpoint_path and todo:
        _write_checkpoint(checkpoint_path, pp, bound, last, hits)
    del tally[None]

    return ScanReport(
        pp=pp,
        bound=bound,
        candidates_tested=len(todo),
        squarefree_hits=tuple(sorted(set(hits))),
        elapsed=time.monotonic() - started,
        checkpoint=last,
        witnesses=tuple(sorted(tally.items())),
    )


def verify_divisibility_filter(pp: PrimePower, bound: int) -> bool:
    """Check the filter on [1, bound]: every n outside the scan's candidates,
    those with v_p(F(p**q, n)) < max(q, 2), must give a non-squarefree
    C(p**q n + 1, n).  True when that holds; a negative bound is refused as
    scan_candidates refuses it."""
    candidates = set(_values_below(pp, bound, max(pp.q, 2)))
    return candidates.issuperset(scan_candidates(pp, bound, exhaustive=True).squarefree_hits)
