"""Acceptance suite: the release gate, one printed PASS/FAIL line per
criterion.

Criterion 7 pins upstream reference values that exact recomputation
contradicts: the threshold witnesses 2**1518 and 3**956 only satisfy the
inequality when its logarithms are read as base 10, and the derivation
requires natural logarithms, under which the observed crossovers are near
2**1698 and 2**1763.  It is the one criterion asserted as stated and
failing, documenting the discrepancy; every other criterion must pass.

Criterion 1 checks the exactly verified residue rows.  The upstream p = 7
row omits 28 = C(7; 3,2,1,1) mod 49, which the exact big-integer value
F(49, 17522) attains; the criterion asserts that witness with math.comb and
reports the omission in its printed line.
"""

import time
from math import comb, isqrt

from pqcat import (
    InequalityInstance,
    PrimePower,
    catalan_valuation,
    count_exceptions_q2,
    enumerate_exceptions,
    exception_values,
    granville_binom_mod_pq,
    inequality_sides,
    is_squarefree_binom,
    partitions_of,
    residue_of_exception,
    residue_set_p2,
    verify_divisibility_filter,
)
from pqcat.cli import parse_record, run


def report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        tail = f"  [{detail}]" if detail else ""
        print(f"\nACCEPTANCE {num:02d} {name}: {tag}{tail}")


def cli_records(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code} for {argv}"
    return [parse_record(line) for line in out.splitlines() if line]


# The p = 7 row adds 28 to the upstream row, which F(49, 17522) attains.
REFERENCE_ROWS = {
    2: [0, 1, 2],
    3: [0, 1, 3, 6],
    5: [0, 1, 5, 10, 20],
    7: [0, 1, 7, 14, 21, 28, 35, 42],
}
UPSTREAM_ROW_P7 = [0, 1, 7, 14, 21, 35, 42]
WITNESS_P7_N = 17522


def test_criterion_01_residue_table(capsys):
    started = time.monotonic()
    got = {p: cli_records(capsys, ["residues", "--p", str(p)])[0]["result"] for p in (2, 3, 5, 7)}
    elapsed = time.monotonic() - started
    s, n = 49, WITNESS_P7_N
    witness = comb(s * n, n) // ((s - 1) * n + 1) % s
    mismatches = {p: got[p] for p in REFERENCE_ROWS if got[p] != REFERENCE_ROWS[p]}
    ok = not mismatches and elapsed < 1.0 and witness == 28
    report(
        capsys, 1, "residue table rows for p in {2,3,5,7}", ok,
        f"{elapsed:.2f}s; upstream p=7 row {UPSTREAM_ROW_P7} omits 28, "
        f"attained exactly: F(49, {n}) mod 49 = {witness}",
    )
    assert elapsed < 1.0
    assert witness == 28, f"F(49, {n}) mod 49 = {witness}, expected 28"
    assert not mismatches, f"reference rows not reproduced: {mismatches}"


def test_criterion_02_exception_list(capsys):
    started = time.monotonic()
    recs = cli_records(capsys, ["exceptions", "--p", "2", "--q", "2", "--bound", "60"])
    elapsed = time.monotonic() - started
    expected = [1, 3, 5, 11, 13, 21, 43, 45, 53]
    ok = recs[0]["result"] == expected and elapsed < 1.0
    report(capsys, 2, "exception list (2,2) to 60", ok, f"{elapsed:.2f}s")
    assert recs[0]["result"] == expected
    assert elapsed < 1.0


def test_criterion_03_enumerators_match_valuation(capsys):
    pairs = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (3, 3)]
    started = time.monotonic()
    for p, q in pairs:
        pp = PrimePower(p, q)
        structural = [e.value for e in enumerate_exceptions(pp, 5000)]
        brute = [n for n in range(1, 5001) if catalan_valuation(pp, n) < q]
        assert structural == brute, f"enumerators disagree with the digit formula for {pp}"
    for p, q in pairs:
        pp = PrimePower(p, q)
        s = pp.modulus
        for n in range(0, 501):
            f = comb(s * n, n) // ((s - 1) * n + 1)
            e = 0
            while f % p == 0:
                f //= p
                e += 1
            assert catalan_valuation(pp, n) == e, f"digit formula wrong at {pp}, n={n}"
    elapsed = time.monotonic() - started
    report(capsys, 3, "exceptions = valuation sweep (5000) = exact (500)", elapsed < 120, f"{elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_04_exception_residues(capsys):
    started = time.monotonic()
    spot = {}
    for p in (2, 3, 5, 7, 11, 13):
        pp = PrimePower(p, 2)
        s = pp.modulus
        for e in enumerate_exceptions(pp, 300):
            n = e.value
            f = comb(s * n, n) // ((s - 1) * n + 1)
            assert residue_of_exception(e) == f % s, f"residue mismatch at {pp}, n={n}"
            spot[(p, n)] = f % s
    ok = spot[(2, 3)] == 2 and spot[(3, 4)] == 3
    elapsed = time.monotonic() - started
    report(capsys, 4, "structural residues = exact F mod p^2 (n <= 300)", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_05_granville_oracle(capsys):
    started = time.monotonic()
    pps = [PrimePower(*t) for t in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]]
    for m in range(0, 401):
        c = 1
        for n in range(0, m + 1):
            for pp in pps:
                g = granville_binom_mod_pq(m, n, pp)
                e = 0
                x = c
                while x % pp.p == 0:
                    x //= pp.p
                    e += 1
                assert g.e0 == e, (m, n, str(pp))
                assert g.unit_residue == x % pp.modulus, (m, n, str(pp))
            c = c * (m - n) // (n + 1)
    elapsed = time.monotonic() - started
    report(capsys, 5, "prime-power congruence engine vs exact, m <= 400", elapsed < 300, f"{elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_06_squarefree_oracle_and_scans(capsys):
    started = time.monotonic()
    # trial division, so the oracle shares no code with pqcat's sieve
    primes = [k for k in range(2, 2001) if all(k % d for d in range(2, isqrt(k) + 1))]

    def by_factorization(m, n):
        c = comb(m, n)
        for p in primes:
            if p > m or p > c:
                break
            if c % p == 0:
                c //= p
                if c % p == 0:
                    return False
        return True

    for m in range(0, 2001):
        for n in range(0, m // 2 + 1):  # C(m,n) = C(m,m-n); both tests symmetric
            assert is_squarefree_binom(m, n) == by_factorization(m, n), (m, n)
    hits22 = cli_records(capsys, ["scan", "--p", "2", "--q", "2", "--bound", "10000"])[0]["result"]["squarefree_hits"]
    hits32 = cli_records(capsys, ["scan", "--p", "3", "--q", "2", "--bound", "10000"])[0]["result"]["squarefree_hits"]
    elapsed = time.monotonic() - started
    ok = hits22 == [1, 3, 45] and hits32 == [1, 4, 10] and elapsed < 600
    report(capsys, 6, "squarefree test vs factorization (m <= 2000) + scans", ok, f"{elapsed:.0f}s")
    assert hits22 == [1, 3, 45]
    assert hits32 == [1, 4, 10]
    assert elapsed < 600


def test_criterion_07_analytic_witnesses(capsys):
    started = time.monotonic()
    verdicts = {}
    for (p, q, n, label) in [
        (2, 2, 2**1518, "2^1518"),
        (3, 2, 3**956, "3^956"),
        (2, 2, 2**100, "small22"),
        (3, 2, 2**100, "small32"),
    ]:
        for bits in (256, 512):
            inst = InequalityInstance(PrimePower(p, q), precision=bits)
            t0 = time.monotonic()
            lhs, rhs = inequality_sides(inst, n)
            assert time.monotonic() - t0 < 1.0, f"evaluation at {label} took too long"
            verdicts.setdefault(label, set()).add(bool(lhs > rhs))
    stable = all(len(v) == 1 for v in verdicts.values())
    holds = {label: v.pop() for label, v in verdicts.items()}
    ok = stable and holds == {"2^1518": True, "3^956": True, "small22": False, "small32": False}
    elapsed = time.monotonic() - started
    report(
        capsys, 7, "inequality witnesses at 2^1518 / 3^956", ok,
        f"natural-log verdicts {holds}; crossovers sit near 2^1698 and 2^1763",
    )
    assert stable, "verdicts changed under precision doubling"
    assert not holds["small22"] and not holds["small32"]
    assert holds["2^1518"] and holds["3^956"], (
        "the stated witnesses fail under natural logarithms (ratios ~0.10 and "
        "~0.04); they hold only under base-10 logs, which the derivation does "
        f"not support -- verdicts: {holds}"
    )
    assert elapsed < 30


def test_criterion_08_count_bounds(capsys):
    # the exact count at 2**1518: sums of two distinct odd powers of 2,
    # C(760, 2) of them, plus the 759 pure powers
    exact = len(exception_values(PrimePower(2, 2), 2**1518))
    ok = (
        count_exceptions_q2(2, 761) == 289180 == comb(761, 2)
        and count_exceptions_q2(3, 478) == 18088476 == comb(478, 3)
        and exact == 289179 == comb(760, 2) + 759
    )
    report(
        capsys, 8, "exception count bounds C(761,2), C(478,3)", ok,
        f"C(761,2) = 289180; the reference's 289,179 is the exact count {exact} "
        "of (2,2) exceptions to 2^1518 = C(760,2) + 759",
    )
    assert ok


def test_criterion_09_divisibility_filter(capsys):
    started = time.monotonic()
    ok = verify_divisibility_filter(PrimePower(2, 2), 500) and verify_divisibility_filter(
        PrimePower(3, 2), 500
    )
    elapsed = time.monotonic() - started
    report(capsys, 9, "filter soundness (2,2) and (3,2) to 500", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_10_partition_bound(capsys):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    ok = all(len(residue_set_p2(p)) <= len(partitions_of(p)) + 1 for p in primes)
    report(capsys, 10, "residue count <= partitions(p) + 1 for p <= 31", ok)
    assert ok


def test_hough_simion_4_catalan():
    # the question of Hough and Simion: 4 divides F(4, n) except where
    # 3n + 1 is a power of 4, with F(4, n) == 1 (mod 4), or a sum of two
    # distinct odd powers of 2, with F(4, n) == 2 (mod 4); the families are
    # read off 3n + 1 here, and F from math.comb
    bound = 2000
    residue = {n: comb(4 * n, n) // (3 * n + 1) % 4 for n in range(1, bound + 1)}
    pure, odd_sums = set(), set()
    for a in range(1, 14):
        pure.add((4**a - 1) // 3)
        for b in range(1, a, 2):
            if a % 2:
                odd_sums.add((2**a + 2**b - 1) // 3)
    assert sorted(n for n, r in residue.items() if r) == exception_values(PrimePower(2, 2), bound)
    assert {n for n, r in residue.items() if r == 1} == {n for n in pure if n <= bound}
    assert {n for n, r in residue.items() if r == 2} == {n for n in odd_sums if n <= bound}
