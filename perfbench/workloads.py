"""The four workloads: their jobs, the inputs drawn from the seed, and the
checks every answer must pass.

The checks use recorded answers (golden.json, written by make_golden.py at
the commit that introduced the benchmark) plus oracles that share no code
with pqcat: a brute-force digit-multiset count of the scan candidates, a
digit-sum loop over sampled exception records, and math.comb for small
binomials.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

WORKLOADS = ("scan", "sweep", "enumerate", "point")

# scan: structural candidates only; time goes to the per-prime test on huge m
SCAN_CASES = ((2, 2, "2**46"), (3, 2, "2**44"), (3, 3, "10**11"))
# sweep: every n up to the bound, so the first prime almost always decides
SWEEP_BOUND = 200_000
# the squarefree n of C(p**q n + 1, n) below every bound used here
KNOWN_HITS = {(2, 2): [1, 3, 45], (3, 2): [1, 4, 10], (3, 3): [10]}
# enumerate: full JSON emission of every exception record
ENUM_CASES = ((3, 3, "10**24"), (2, 2, "2**800"))
ENUM_SPOT_CHECKS = 200


def big(text: str) -> int:
    base, _, exp = text.partition("**")
    return int(base) ** int(exp) if exp else int(base)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------- CLI jobs

def cli_jobs(workload: str, ckpt_path: str) -> list[dict]:
    """The jobs of one pass, in the order they run.

    Each job is one CLI invocation in a fresh interpreter, as a user runs
    it; `ckpt_path` is the checkpoint file shared by the checkpointed sweep
    and its resumption, deleted before each pass.
    """
    if workload == "scan":
        return [{"name": f"scan-{p}-{q}-{b}", "kind": "scan", "p": p, "q": q, "bound": b,
                 "argv": ["scan", "--p", str(p), "--q", str(q), "--bound", b]}
                for p, q, b in SCAN_CASES]
    if workload == "sweep":
        b, b2 = str(SWEEP_BOUND), str(2 * SWEEP_BOUND)
        ex = ["--exhaustive"]
        return [
            {"name": "exhaustive-2-2", "kind": "sweep", "p": 2, "q": 2, "bound": b,
             "tested": SWEEP_BOUND, "argv": ["scan", "--p", "2", "--q", "2", "--bound", b, *ex]},
            {"name": "checkpoint-3-2", "kind": "sweep", "p": 3, "q": 2, "bound": b,
             "tested": SWEEP_BOUND,
             "argv": ["scan", "--p", "3", "--q", "2", "--bound", b, *ex, "--checkpoint", ckpt_path]},
            {"name": "resume-3-2", "kind": "sweep", "p": 3, "q": 2, "bound": b2,
             "tested": SWEEP_BOUND,
             "argv": ["scan", "--p", "3", "--q", "2", "--bound", b2, *ex, "--checkpoint", ckpt_path]},
            {"name": "verify-2-2", "kind": "verify", "bound": b,
             "argv": ["verify", "--p", "2", "--q", "2", "--bound", b]},
        ]
    if workload == "enumerate":
        return [{"name": f"exceptions-{p}-{q}-{b}", "kind": "exceptions", "p": p, "q": q,
                 "bound": b, "argv": ["exceptions", "--p", str(p), "--q", str(q), "--bound", b]}
                for p, q, b in ENUM_CASES]
    raise ValueError(f"{workload} has no CLI jobs")


def digit_sum(x: int, p: int) -> int:
    s = 0
    while x:
        x, d = divmod(x, p)
        s += d
    return s


def is_candidate(n: int, p: int, q: int) -> bool:
    """p**q does not divide F(p**q, n): sigma_p((p**q-1)n+1) <= (p-1)(q-1)+1."""
    return digit_sum((p**q - 1) * n + 1, p) <= (p - 1) * (q - 1) + 1


def count_candidates(p: int, q: int, bound: int) -> int:
    """Number of n in [1, bound] passing is_candidate, by brute force over
    every base-p digit multiset of X = (p**q-1)n+1 with a small digit sum."""
    mod = p**q - 1
    top = mod * bound + 1
    width = 1
    while p**width <= top:
        width += 1
    count = 0
    for total in range(1, (p - 1) * (q - 1) + 2):
        for positions in combinations_with_replacement(range(width), total):
            if any(positions.count(i) >= p for i in set(positions)):
                continue
            x = sum(p**i for i in positions)
            if mod < x <= top and x % mod == 1 % mod:
                count += 1
    return count


def _values(record: dict) -> list[int]:
    return [int(v) for v in record["result"]]


def values_digest(values: list[int]) -> str:
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()


def check_cli(job: dict, rc: int, out: str, golden: dict, rng: random.Random) -> tuple[bool, int, dict]:
    """Verify one CLI answer; returns (ok, work items, facts)."""
    if rc != 0:
        return False, 0, {"error": f"exit code {rc}"}
    lines = out.splitlines()
    if len(lines) != 1:
        return False, 0, {"error": f"{len(lines)} output lines"}
    record = json.loads(lines[0])
    result = record["result"]
    kind = job["kind"]
    if kind in ("scan", "sweep"):
        hits = [int(h) for h in result["squarefree_hits"]]
        tested = int(result["candidates_tested"])
        want = golden["scan"][job["name"]]["candidates"] if kind == "scan" else job["tested"]
        ok = hits == KNOWN_HITS[(job["p"], job["q"])] and tested == want
        if kind == "sweep":
            ok = ok and int(result["checkpoint"]) == big(job["bound"])
        return ok, tested, {"hits": hits, "tested": tested}
    if kind == "verify":
        return result == {"sound": True}, big(job["bound"]), {}
    if kind == "exceptions":
        values = _values(record)
        want = golden["enumerate"][job["name"]]
        p, q, bound = job["p"], job["q"], big(job["bound"])
        ok = (len(values) == want["records"] and values_digest(values) == want["digest"]
              and all(a < b for a, b in zip(values, values[1:]))
              and (not values or 1 <= values[0] and values[-1] <= bound))
        sample = rng.sample(values, min(ENUM_SPOT_CHECKS, len(values)))
        ok = ok and all(is_candidate(v, p, q) for v in sample)
        return ok, len(values), {"records": len(values)}
    raise ValueError(f"unknown job kind {kind}")


# ------------------------------------------------------------ point queries

MODULI = ((2, 2), (3, 2), (5, 3), (7, 4), (2, 20), (3, 13))
INEQUALITY = ((2, 2), (3, 2), (5, 3), (7, 4))      # the inequality needs p**q <= 99999
SPECIALIZED = ((2, 2), (3, 2))
SMALL_PRIMES = (2, 3, 5, 7)
RESIDUE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# (kind, key, pool size, queries per pass); exact counts per pass keep the
# mix, and hence the latency tail, the same for every seed
STRATA = (
    [("granville", pq, 100, 56) for pq in MODULI]
    + [("granville_small", pq, 20, 4) for pq in MODULI]
    + [("catalan_residue", pq, 50, 25) for pq in MODULI]
    + [("catalan_valuation", pq, 40, 17) for pq in MODULI]
    + [("binom_valuation", p, 50, 25) for p in SMALL_PRIMES]
    + [("to_base_p", p, 50, 25) for p in SMALL_PRIMES]
    + [("sides_general", pq, 60, 30) for pq in INEQUALITY]
    + [("sides_specialized", pq, 30, 12) for pq in SPECIALIZED]
    + [("tau0_general", pq, 1, 3) for pq in INEQUALITY]
    + [("tau0_specialized", pq, 1, 3) for pq in SPECIALIZED]
    + [("residue_set", p, 1, 2) for p in RESIDUE_PRIMES]
)


def _huge(rng: random.Random) -> int:
    bits = rng.randint(1200, 1600)
    return rng.getrandbits(bits) | (1 << (bits - 1))


def _make_input(kind: str, key, rng: random.Random) -> tuple:
    if kind in ("granville", "binom_valuation"):
        m = _huge(rng)
        return (m, rng.randrange(1, m))
    if kind == "granville_small":
        m = rng.randint(1, 3000)
        return (m, rng.randint(0, m))
    if kind in ("catalan_residue", "catalan_valuation", "to_base_p"):
        return (_huge(rng),)
    if kind.startswith("sides"):
        return (rng.randint(64, 4096),)
    return ()


def stratum_id(kind: str, key) -> str:
    return f"{kind}/{key}"


STRATUM = {stratum_id(kind, key): (kind, key) for kind, key, _, _ in STRATA}


def pool() -> dict[str, list[tuple]]:
    """The fixed query pool: inputs per stratum, from a constant seed."""
    out = {}
    for kind, key, size, _ in STRATA:
        sid = stratum_id(kind, key)
        rng = random.Random(f"pqcat-point-pool/{sid}")
        out[sid] = [_make_input(kind, key, rng) for _ in range(size)]
    return out


def pass_queries(seed: int, pass_index: int) -> list[tuple[str, int]]:
    """The (stratum, pool index) queries of one pass, in closed-loop order."""
    rng = random.Random(f"point/{seed}/{pass_index}")
    queries = []
    for kind, key, size, per_pass in STRATA:
        sid = stratum_id(kind, key)
        picks = (rng.sample(range(size), per_pass) if per_pass <= size
                 else [rng.randrange(size) for _ in range(per_pass)])
        queries.extend((sid, i) for i in picks)
    rng.shuffle(queries)
    return queries


def warmup_queries() -> list[tuple[str, int]]:
    """One query per modulus and form, answered before timing starts."""
    return [(stratum_id(kind, key), 0) for kind, key, _, _ in STRATA
            if kind in ("granville", "catalan_residue", "sides_general", "sides_specialized")]


class PointApi:
    """The library calls of the point workload, bound once per process."""

    def __init__(self, pqcat) -> None:
        self.lib = pqcat
        self.pp = {pq: pqcat.PrimePower(*pq) for pq in MODULI}
        self.inst = {pq: pqcat.InequalityInstance(self.pp[pq], precision=256) for pq in INEQUALITY}

    def bind(self, sid: str, args: tuple):
        """One query as a call without arguments, so that only the library
        call itself sits inside the timed region."""
        lib = self.lib
        kind, key = STRATUM[sid]
        if kind in ("granville", "granville_small"):
            return lambda: lib.granville_binom_mod_pq(args[0], args[1], self.pp[key])
        if kind == "catalan_residue":
            return lambda: lib.catalan_residue_mod_pq(self.pp[key], args[0])
        if kind == "catalan_valuation":
            return lambda: lib.catalan_valuation(self.pp[key], args[0])
        if kind == "binom_valuation":
            return lambda: lib.binom_valuation(args[0], args[1], key)
        if kind == "to_base_p":
            return lambda: lib.to_base_p(args[0], key)
        if kind in ("sides_general", "sides_specialized"):
            form = kind.partition("_")[2]
            return lambda: lib.inequality_sides(self.inst[key], 1 << args[0], form=form)
        if kind in ("tau0_general", "tau0_specialized"):
            form = kind.partition("_")[2]

            def tau0_and_tau1():
                e = lib.find_tau0(self.inst[key], form=form)
                return e, lib.tau1(self.pp[key], 1 << e)
            return tau0_and_tau1
        if kind == "residue_set":
            return lambda: lib.residue_set_p2(key)
        raise ValueError(f"unknown query kind {kind}")


def answer_digest(sid: str, answer) -> str:
    """A short stable digest of one answer, for comparison with golden.json."""
    kind = STRATUM[sid][0]
    if kind.startswith("granville"):
        norm = (answer.e0, answer.unit_residue)
    elif kind == "to_base_p":
        norm = tuple(answer.digits)
    elif kind.startswith("sides"):
        from mpmath import nstr
        lhs, rhs = answer
        norm = (bool(lhs > rhs), nstr(lhs, 20), nstr(rhs, 20))
    else:
        norm = answer
    return hashlib.sha256(repr(norm).encode()).hexdigest()[:16]


def check_small_granville(sid: str, args: tuple, answer) -> bool:
    """Oracle: C(m, n) = p**e0 * unit with unit == C(m,n)/p**e0 mod p**q."""
    p, q = STRATUM[sid][1]
    c = comb(*args)
    e0 = 0
    while c % p == 0:
        c //= p
        e0 += 1
    return (answer.e0, answer.unit_residue) == (e0, c % p**q)
