"""Exact squarefreeness of C(m, n) without factoring the value, and scans
of C(p**q n + 1, n) over the structural exception families.

A prime square r**2 divides C(m, n) iff adding n and m - n in base r
carries at least twice.  Two carries need at least three base-r digits in
m, so only primes r <= isqrt(m) can contribute; the test is exact and
costs O(pi(sqrt(m)) * log m) with no big-integer arithmetic at all.

The primes come from one shared sieve held as an immutable snapshot
(covered limit, every prime <= it).  Growth runs an odd-only sieve of
Eratosthenes on a bytearray, builds a new list and publishes it with a
single assignment, so threads share the cache without a lock and no reader
sees a half-grown list.  Threads that grow it at the same time may each
sieve; the last assignment wins, and every snapshot is complete.  The
squarefree test walks the snapshot's list in place and stops at the first
prime above isqrt(m); only primes_upto hands out a copy.

For q >= 2 every non-exceptional n has p**q | C(p**q n + 1, n), hence the
binomial is divisible by p**2 and cannot be squarefree: scanning only the
enumerated exceptions loses nothing.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from math import isqrt

from . import config
from .config import SizeGuardError
from .digits import PrimePower, _shown
from .exceptions import exception_values

_sieved: tuple[int, list[int]] = (1, [])  # (covered limit, every prime <= it)


def _simple_sieve(limit: int) -> list[int]:
    """Plain odd-only sieve of Eratosthenes."""
    if limit < 2:
        return []
    if limit == 2:
        return [2]
    half = (limit + 1) // 2  # flags for 1, 3, 5, ..., the odds <= limit
    flags = bytearray(b"\x01") * half
    flags[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, half, p)))
    return [2, *compress(range(1, limit + 1, 2), flags)]


def _primes_covering(limit: int) -> list[int]:
    """The snapshot's ascending primes, grown by doubling until they cover
    every prime <= limit; the list may run past limit and is shared, so
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
    return primes[: bisect_right(primes, limit)]


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


def is_squarefree_binom(m: int, n: int) -> bool:
    """Exact squarefreeness of C(m, n) by per-prime carry counting.

    Equivalent to checking kummer_carries(n, m - n, r) <= 1 for every prime
    r <= m; primes above isqrt(m) cannot carry twice, so only the small
    ones are visited.
    """
    if n < 0 or n > m:
        raise ValueError(f"need 0 <= n <= m, got m={_shown(m)} n={_shown(n)}")
    root = isqrt(m)
    r_part = m - n
    for p in _primes_covering(root):
        if p > root:
            break
        if _carries_at_least_two(n, r_part, p):
            return False
    return True


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one squarefree scan of C(p**q n + 1, n) for n <= bound."""

    pp: PrimePower
    bound: int
    candidates_tested: int
    squarefree_hits: tuple[int, ...]
    elapsed: float = field(compare=False)
    checkpoint: int  # last n processed; 0 when nothing was scanned


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

    By default only the structural exception candidates are tested (sound
    for q >= 2); exhaustive mode sweeps every n <= bound and serves as the
    oracle for the filter.  A checkpoint file, when given, is resumed from
    and rewritten as the scan advances.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {_shown(bound)}")
    if not exhaustive and pp.q < 2:
        raise ValueError("the candidate filter needs q >= 2; use exhaustive mode")

    started = time.monotonic()
    if exhaustive:
        candidates = range(1, bound + 1)
    else:
        candidates = exception_values(pp, bound)

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
    for i, n in enumerate(todo):
        if is_squarefree_binom(pp.modulus * n + 1, n):
            hits.append(n)
        last = n
        if checkpoint_path and (i + 1) % 512 == 0:
            _write_checkpoint(checkpoint_path, pp, bound, last, hits)
    if checkpoint_path and todo:
        _write_checkpoint(checkpoint_path, pp, bound, last, hits)

    return ScanReport(
        pp=pp,
        bound=bound,
        candidates_tested=len(todo),
        squarefree_hits=tuple(sorted(set(hits))),
        elapsed=time.monotonic() - started,
        checkpoint=last,
    )


def verify_divisibility_filter(pp: PrimePower, bound: int) -> bool:
    """Check the filter on [1, bound]: every n outside the exception list
    must give a non-squarefree C(p**q n + 1, n).  True when that holds."""
    if pp.q < 2:
        raise ValueError(f"the filter argument needs q >= 2, got {pp}")
    if bound < 1:
        return True
    exceptional = set(exception_values(pp, bound))
    return exceptional.issuperset(scan_candidates(pp, bound, exhaustive=True).squarefree_hits)
