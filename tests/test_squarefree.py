import json
import sys
import threading
import tracemalloc
from array import array
from bisect import bisect_right
from collections import Counter
from functools import cache
from math import ceil, comb, isqrt

import pytest

from pqcat import config
from pqcat import squarefree as sq
from pqcat import (
    PrimePower,
    SizeGuardError,
    enumerate_exceptions,
    is_squarefree_binom,
    primes_upto,
    scan_candidates,
    verify_divisibility_filter,
)
from pqcat.squarefree import _carries_at_least_two, _witness


def trial_division_primes(limit: int) -> list[int]:
    """Primes <= limit by trial division, sharing no code with the sieve."""
    return [k for k in range(2, limit + 1) if all(k % d for d in range(2, isqrt(k) + 1))]


def squarefree_by_factorization(m: int, n: int, primes: list[int]) -> bool:
    """Trial-divide the exact binomial; every factor is <= m, and `primes`
    must hold every prime <= m."""
    c = comb(m, n)
    for p in primes:
        if p > m or p > c:
            break
        if c % p == 0:
            c //= p
            if c % p == 0:
                return False
    return True


class TestPrimes:
    def test_small(self):
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_upto(1) == []
        assert primes_upto(2) == [2]

    def test_counts(self):
        assert len(primes_upto(10**4)) == 1229
        assert len(primes_upto(10**6)) == 78498
        assert len(primes_upto(10**7)) == 664579

    def test_growth_order(self):
        # must agree across arbitrary cache growth order
        import pqcat.squarefree as sq

        sq._sieved = (1, [])
        step = primes_upto(10)
        assert step == [2, 3, 5, 7]
        grown = primes_upto(10**5)
        sq._sieved = (1, [])
        direct = primes_upto(10**5)
        assert grown == direct

    def test_cold_cache_small_limits(self):
        # every small limit from a cold cache, so each growth step is exercised
        import pqcat.squarefree as sq

        expected = trial_division_primes(40)
        sq._sieved = (1, [])
        for k in range(0, 41):
            assert primes_upto(k) == [p for p in expected if p <= k], k

    def test_threads_share_cold_cache(self):
        import pqcat.squarefree as sq

        limits = (10**3, 10**4, 10**5, 10**6)
        pairs = [(8 * n + 1, n) for n in range(1, 200)] + [(2**40 + 1, 2**38)]
        want_primes = {limit: primes_upto(limit) for limit in limits}
        want_sf = [is_squarefree_binom(m, n) for m, n in pairs]

        sq._sieved = (1, [])
        start = threading.Barrier(len(limits))
        got: dict[int, tuple] = {}

        def work(limit: int) -> None:
            start.wait()
            got[limit] = (primes_upto(limit), [is_squarefree_binom(m, n) for m, n in pairs])

        threads = [threading.Thread(target=work, args=(limit,)) for limit in limits]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads' growth steps
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for limit in limits:
            assert got[limit] == (want_primes[limit], want_sf), limit

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            primes_upto(10**9)

    def test_public_copy_is_a_list(self):
        expected = trial_division_primes(5000)
        for k in (0, 1, 2, 3, 4, 97, 1000, 4999, 5000):
            got = primes_upto(k)
            assert type(got) is list, k
            assert got == [p for p in expected if p <= k], k

    @pytest.mark.parametrize("block", [1, 2, 3, 8, 64])
    def test_blocks_of_any_size(self, monkeypatch, block):
        # tiny blocks put block edges, and the edge at isqrt(limit), everywhere
        import pqcat.squarefree as sq

        monkeypatch.setattr(sq, "_BLOCK", block)
        expected = trial_division_primes(3000)
        for limit in range(0, 3001):
            got = sq._simple_sieve(limit)
            assert got == array("I", expected[: bisect_right(expected, limit)]), limit

    def test_snapshot_is_compact(self):
        import pqcat.squarefree as sq

        tracemalloc.start()
        try:
            primes = sq._simple_sieve(2**24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(primes) == 1077871
        assert isinstance(primes, array) and primes.itemsize == 4
        # about 4.3 MB of primes plus one 128 KB block of flags; a flag for
        # every odd number up to 2**24 (8 MB) or a list of boxed ints (about
        # 50 MB) fails the bound
        assert peak < primes.itemsize * len(primes) + 2**20, peak

    def test_every_prime_under_the_guard_fits(self):
        # a prime too wide for the snapshot raises, it is never stored truncated
        assert config.DEFAULT_SIEVE_LIMIT < 2 ** (8 * array("I").itemsize)
        with pytest.raises(OverflowError):
            array("I").extend([2 ** (8 * array("I").itemsize)])


class TestIsSquarefree:
    def test_examples(self):
        assert is_squarefree_binom(5, 1)  # C(5,1) = 5
        assert is_squarefree_binom(13, 3)  # 286 = 2 * 11 * 13
        assert is_squarefree_binom(181, 45)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            is_squarefree_binom(4, 5)
        with pytest.raises(ValueError):
            is_squarefree_binom(4, -1)

    def test_oracle_agreement_small(self):
        primes = trial_division_primes(300)
        for m in range(0, 301):
            for n in range(0, m // 2 + 1):
                assert is_squarefree_binom(m, n) == squarefree_by_factorization(m, n, primes), (m, n)

    def test_oracle_agreement_spot_large(self):
        import random

        rng = random.Random(1618)
        primes = trial_division_primes(2000)
        for _ in range(300):
            m = rng.randrange(2, 2001)
            n = rng.randrange(0, m + 1)
            assert is_squarefree_binom(m, n) == squarefree_by_factorization(m, n, primes), (m, n)


def least_square_prime(m: int, n: int, primes: list[int]) -> int | None:
    """The least prime r with r**2 | C(m, n), by trial division of the exact
    binomial; `primes` must hold every prime <= m."""
    c = comb(m, n)
    return next((r for r in primes if r <= m and c % (r * r) == 0), None)


class TestWitness:
    def test_least_square_prime_divisor(self):
        primes = trial_division_primes(300)
        for m in range(0, 301):
            for n in range(0, m + 1):
                assert _witness(m, n) == least_square_prime(m, n, primes), (m, n)

    def test_popcount_branch_matches_carry_walk(self):
        # every m < 2**12; a stride of 13 over n keeps the walk to ~650,000 pairs
        for m in range(1 << 12):
            for n in range(m % 13, m + 1, 13):
                assert (_witness(m, n) == 2) == _carries_at_least_two(n, m - n, 2), (m, n)

    def test_prime_two_needs_no_sieve(self):
        # 2**200 + (3 * 2**200 + 1) carries twice in base 2, so no prime up
        # to isqrt(m) ~ 2**101 is needed; the parent refused it at the guard
        assert is_squarefree_binom(2**202 + 1, 2**200) is False
        with pytest.raises(SizeGuardError):
            is_squarefree_binom(2**200 + 1, 1)  # 2 carries once: the walk needs primes

    def test_scan_tally_matches_oracle(self):
        pp = PrimePower(2, 2)
        primes = trial_division_primes(4 * 300 + 1)
        expected: dict[int, int] = {}
        for n in range(1, 301):
            r = least_square_prime(4 * n + 1, n, primes)
            if r is not None:
                expected[r] = expected.get(r, 0) + 1
        assert scan_candidates(pp, 300, exhaustive=True).witnesses == tuple(sorted(expected.items()))

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2)])
    def test_tally_invariant_across_a_resume(self, p, q, tmp_path):
        pp = PrimePower(p, q)
        full = scan_candidates(pp, 10**4, exhaustive=True)
        primes = [r for r, _ in full.witnesses]
        assert primes == sorted(set(primes))
        assert sum(c for _, c in full.witnesses) + len(full.squarefree_hits) == full.candidates_tested

        path = str(tmp_path / "scan.json")
        first = scan_candidates(pp, 5000, exhaustive=True, checkpoint_path=path)
        resumed = scan_candidates(pp, 10**4, exhaustive=True, checkpoint_path=path)
        new_hits = [h for h in resumed.squarefree_hits if h > first.checkpoint]
        assert sum(c for _, c in resumed.witnesses) + len(new_hits) == resumed.candidates_tested
        merged = dict(first.witnesses)
        for r, c in resumed.witnesses:
            merged[r] = merged.get(r, 0) + c
        assert tuple(sorted(merged.items())) == full.witnesses


# q = 1 moduli and bounds for the filter against exhaustive scans
Q1_BOUNDS = [(2, 3000), (3, 3000), (5, 3000), (7, 3000), (11, 2000), (13, 2000)]


class TestScan:
    def test_seeded_2_2(self):
        report = scan_candidates(PrimePower(2, 2), 100)
        assert report.squarefree_hits == (1, 3, 45)
        assert report.candidates_tested == 10  # 1,3,5,11,13,21,43,45,53,85

    def test_seeded_3_2(self):
        report = scan_candidates(PrimePower(3, 2), 100)
        assert report.squarefree_hits == (1, 4, 10)

    def test_empty_bound(self):
        report = scan_candidates(PrimePower(2, 2), 0)
        assert report.squarefree_hits == ()
        assert report.candidates_tested == 0
        assert report.checkpoint == 0

    @pytest.mark.parametrize("p,bound", Q1_BOUNDS)
    def test_q1_filter_matches_exhaustive(self, p, bound):
        pp = PrimePower(p, 1)
        seeded = scan_candidates(pp, bound)
        full = scan_candidates(pp, bound, exhaustive=True)
        assert seeded.squarefree_hits == full.squarefree_hits
        assert seeded.candidates_tested < full.candidates_tested

    def test_granville_ramare(self):
        # C(2n, n) = 2 C(2n - 1, n - 1), so C(2n, n) is squarefree iff
        # C(2k + 1, k) is squarefree and odd, k = n - 1; k = 0 is n = 1.
        # Granville and Ramare (1996): only n = 1, 2, 4
        hits = scan_candidates(PrimePower(2, 1), 2**40).squarefree_hits
        from_scan = {1} | {k + 1 for k in hits if comb(2 * k + 1, k) % 2}
        primes = trial_division_primes(600)
        by_factorization = {n for n in range(1, 301)
                            if squarefree_by_factorization(2 * n, n, primes)}
        assert from_scan == by_factorization == {1, 2, 4}

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (2, 3), (2, 4)])
    def test_filter_matches_exhaustive(self, p, q):
        pp = PrimePower(p, q)
        seeded = scan_candidates(pp, 10**4)
        full = scan_candidates(pp, 10**4, exhaustive=True)
        assert seeded.squarefree_hits == full.squarefree_hits

    def test_deterministic(self):
        a = scan_candidates(PrimePower(2, 2), 500)
        b = scan_candidates(PrimePower(2, 2), 500)
        assert a == b  # elapsed takes no part in equality

    def test_hits_2_3_by_factorization(self):
        # every n <= 2000, not only the candidates, against the exact binomial
        primes = trial_division_primes(8 * 2000 + 1)
        expected = tuple(
            n for n in range(1, 2001) if squarefree_by_factorization(8 * n + 1, n, primes)
        )
        assert scan_candidates(PrimePower(2, 3), 2000).squarefree_hits == expected == (5, 9)

    def test_checkpoint_roundtrip(self, tmp_path):
        path = str(tmp_path / "scan.json")
        first = scan_candidates(PrimePower(2, 2), 300, checkpoint_path=path)
        with open(path) as fh:
            record = json.loads(fh.read())
        assert record["p"] == 2 and record["q"] == 2
        assert record["last_n"] == str(first.checkpoint)
        assert [int(h) for h in record["hits"]] == list(first.squarefree_hits)
        # resuming skips everything already done but keeps the hits
        second = scan_candidates(PrimePower(2, 2), 300, checkpoint_path=path)
        assert second.candidates_tested == 0
        assert second.squarefree_hits == first.squarefree_hits

    def test_checkpoint_resumed_to_twice_the_bound(self, tmp_path):
        # the shape of the benchmark's checkpointed sweep, at a small bound
        path = str(tmp_path / "scan.json")
        pp = PrimePower(3, 2)
        first = scan_candidates(pp, 300, exhaustive=True, checkpoint_path=path)
        assert first.candidates_tested == 300 and first.checkpoint == 300
        resumed = scan_candidates(pp, 600, exhaustive=True, checkpoint_path=path)
        assert resumed.candidates_tested == 300
        assert resumed.checkpoint == 600
        with open(path) as fh:
            assert json.loads(fh.read())["last_n"] == "600"
        plain = scan_candidates(pp, 600, exhaustive=True)
        assert resumed.squarefree_hits == plain.squarefree_hits

    def test_checkpoint_beyond_a_smaller_bound(self, tmp_path):
        path = str(tmp_path / "scan.json")
        pp = PrimePower(3, 2)
        scan_candidates(pp, 300, exhaustive=True, checkpoint_path=path)
        resumed = scan_candidates(pp, 100, exhaustive=True, checkpoint_path=path)
        assert resumed.candidates_tested == 0
        assert resumed.checkpoint == 100
        assert resumed.squarefree_hits == scan_candidates(pp, 100, exhaustive=True).squarefree_hits

    def test_checkpoint_wrong_modulus_rejected(self, tmp_path):
        path = str(tmp_path / "scan.json")
        scan_candidates(PrimePower(2, 2), 100, checkpoint_path=path)
        with pytest.raises(ValueError):
            scan_candidates(PrimePower(3, 2), 100, checkpoint_path=path)


def digit_sum(x: int, r: int) -> int:
    s = 0
    while x:
        x, d = divmod(x, r)
        s += d
    return s


def least_carry_prime(m: int, n: int) -> int | None:
    """The least prime r with r**2 | C(m, n), from digit sums: adding n and
    m - n in base r carries (s_r(n) + s_r(m - n) - s_r(m)) / (r - 1) times,
    and two carries need r * r <= m.  Primes by trial division; shares no
    carry or sieve code with pqcat."""
    r = 2
    while r * r <= m:
        if all(r % d for d in range(2, isqrt(r) + 1)):
            if digit_sum(n, r) + digit_sum(m - n, r) - digit_sum(m, r) >= 2 * (r - 1):
                return r
        r += 1
    return None


@cache
def oracle_witnesses(p: int, q: int, top: int) -> tuple[int | None, ...]:
    """least_carry_prime of C(p**q n + 1, n) for n = 0, 1, ..., top."""
    return tuple(least_carry_prime(p**q * n + 1, n) for n in range(top + 1))


def oracle_scan(p: int, q: int, ns) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(hits, witnesses) that a scan testing exactly the n in `ns` reports."""
    found = oracle_witnesses(p, q, 3 * (1 << 14))
    tally = Counter(found[n] for n in ns)
    hits = tuple(n for n in ns if found[n] is None)
    del tally[None]
    return hits, tuple(sorted(tally.items()))


class StopScan(Exception):
    pass


# bounds on and around the slice edges of an exhaustive scan from n = 1
SLICE_BOUNDS = [(1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14)]


class TestScanSlices:
    @pytest.mark.parametrize("bound", SLICE_BOUNDS)
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2)])
    def test_exhaustive_matches_oracle(self, p, q, bound, monkeypatch, tmp_path):
        monkeypatch.setattr(sq, "_CHECKPOINT_INTERVAL", 0)  # a write at every slice edge
        path = str(tmp_path / "scan.json")
        report = scan_candidates(PrimePower(p, q), bound, exhaustive=True, checkpoint_path=path)
        hits, witnesses = oracle_scan(p, q, range(1, bound + 1))
        assert report.squarefree_hits == hits
        assert report.witnesses == witnesses
        assert report.candidates_tested == bound
        assert report.checkpoint == bound
        with open(path) as fh:
            assert json.loads(fh.read())["last_n"] == str(bound)

    # resumed from `start`, the slices end at start + k * 2**14, not at
    # multiples of 2**14; from 44 and 9 the last hit opens the first slice
    @pytest.mark.parametrize("p,q,start", [(2, 2, 44), (2, 2, 10000), (3, 2, 9), (3, 2, 10000)])
    def test_resume_mid_slice_matches_oracle(self, p, q, start, monkeypatch, tmp_path):
        monkeypatch.setattr(sq, "_CHECKPOINT_INTERVAL", 0)
        path = str(tmp_path / "scan.json")
        pp, top = PrimePower(p, q), 3 * (1 << 14)
        scan_candidates(pp, start, exhaustive=True, checkpoint_path=path)
        resumed = scan_candidates(pp, top, exhaustive=True, checkpoint_path=path)
        _, witnesses = oracle_scan(p, q, range(start + 1, top + 1))
        hits, _ = oracle_scan(p, q, range(1, top + 1))
        assert resumed.squarefree_hits == hits
        assert resumed.witnesses == witnesses
        assert resumed.candidates_tested == top - start
        assert resumed.checkpoint == top

    def test_structural_2_1_matches_oracle(self):
        # v_2(C(2n + 1, n)) = s_2(n + 1) - 1, so the candidates below 2**40
        # are the n whose n + 1 has at most two set bits
        bound = 2**40
        cands = sorted({2**a + 2**b - 1 for a in range(41) for b in range(a + 1)})
        cands = [n for n in cands if n <= bound]
        found = [least_carry_prime(2 * n + 1, n) for n in cands]
        tally = Counter(r for r in found if r is not None)
        report = scan_candidates(PrimePower(2, 1), bound)
        assert report.candidates_tested == len(cands) == 821
        assert report.squarefree_hits == tuple(n for n, r in zip(cands, found) if r is None)
        assert report.witnesses == tuple(sorted(tally.items()))

    def test_stopped_scan_resumes(self, monkeypatch, tmp_path):
        # a scan that dies after about 50,000 tests resumes from its last
        # checkpoint, which sits on a slice edge, and loses nothing
        pp, bound = PrimePower(3, 2), 2 * 10**5
        full = scan_candidates(pp, bound, exhaustive=True)
        monkeypatch.setattr(sq, "_CHECKPOINT_INTERVAL", 0)
        witness = sq._witness
        seen: list[tuple[int, int | None]] = []

        def dying(m: int, n: int) -> int | None:
            if len(seen) == 50_000:
                raise StopScan
            r = witness(m, n)
            seen.append((n, r))
            return r

        path = str(tmp_path / "scan.json")
        monkeypatch.setattr(sq, "_witness", dying)
        with pytest.raises(StopScan):
            scan_candidates(pp, bound, exhaustive=True, checkpoint_path=path)
        with open(path) as fh:
            last_n = int(json.loads(fh.read())["last_n"])
        assert 0 < last_n < 50_000 and last_n % sq._SLICE == 0

        monkeypatch.setattr(sq, "_witness", witness)
        resumed = scan_candidates(pp, bound, exhaustive=True, checkpoint_path=path)
        assert resumed.squarefree_hits == (1, 4, 10)
        assert resumed.checkpoint == bound
        assert last_n + resumed.candidates_tested == bound
        tally = Counter(r for n, r in seen if n <= last_n and r is not None)
        tally.update(dict(resumed.witnesses))
        assert tuple(sorted(tally.items())) == full.witnesses

    def test_checkpoint_writes_follow_the_clock(self, monkeypatch, tmp_path):
        # at most one write a second, plus the last
        calls = []
        write = sq._write_checkpoint
        monkeypatch.setattr(sq, "_write_checkpoint", lambda *args: calls.append(write(*args)))
        report = scan_candidates(PrimePower(3, 2), 2 * 10**5, exhaustive=True,
                                 checkpoint_path=str(tmp_path / "scan.json"))
        assert report.checkpoint == 2 * 10**5
        assert 1 <= len(calls) <= 2 + ceil(report.elapsed / sq._CHECKPOINT_INTERVAL)


class TestFilterSoundness:
    def test_2_2(self):
        assert verify_divisibility_filter(PrimePower(2, 2), 500)

    def test_3_2(self):
        assert verify_divisibility_filter(PrimePower(3, 2), 300)

    def test_2_3(self):
        assert verify_divisibility_filter(PrimePower(2, 3), 3000)

    def test_2_4(self):
        assert verify_divisibility_filter(PrimePower(2, 4), 3000)

    def test_trivial(self):
        assert verify_divisibility_filter(PrimePower(2, 2), 1)

    @pytest.mark.parametrize("p,bound", Q1_BOUNDS)
    def test_q1(self, p, bound):
        assert verify_divisibility_filter(PrimePower(p, 1), bound)

    def test_divisible_implies_not_squarefree(self):
        # the contrapositive the filter rests on, checked directly
        for p, q in ((2, 2), (3, 2), (2, 3), (2, 4)):
            pp = PrimePower(p, q)
            exceptional = {e.value for e in enumerate_exceptions(pp, 400)}
            for n in range(1, 401):
                if n not in exceptional:
                    assert not is_squarefree_binom(pp.modulus * n + 1, n)
