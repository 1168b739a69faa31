"""One fresh interpreter of a benchmark run: runs one CLI job, one pass of
point queries, the staged re-drive of a workload, or the ROADMAP rows, and
prints a JSON summary as its last stdout line.

Started by run.py as `python3 perfbench/child.py '<json spec>'` with
PYTHONPATH pointing at the checkout's src/, so pqcat's lazy caches start
cold in every child, as they do in every CLI invocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from math import isqrt
from statistics import median

import spans
import workloads as wl


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median_time(fn, reps: int) -> float:
    """Median seconds of `reps` calls."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return median(times)


def reference_s() -> float:
    """Seconds of a fixed pure-Python workload, a small-int loop and a
    big-int divmod chain: the yardstick for the core's current speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    x = 3**4000
    while x:
        x, d = divmod(x, 7)
        acc += d
    return time.perf_counter() - t


def timed_with_reference(work):
    """Run `work`, with the reference workload timed just before and just
    after it; returns (work's result, reference seconds)."""
    before = min(reference_s() for _ in range(2))
    result = work()
    after = min(reference_s() for _ in range(2))
    return result, (before + after) / 2


def run_job(spec: dict, tracer: spans.Tracer | None) -> dict:
    import pqcat.cli as cli

    job = spec["job"]
    golden = wl.load_golden()
    rng = random.Random(f"{spec['workload']}/{spec['seed']}/{spec['tag']}/{job['name']}")
    if tracer:
        tracer.install()
        tracer.job = f"{spec['tag']}/{job['name']}"
    ready = time.monotonic()
    buf = io.StringIO()

    def work():
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer:
                with tracer.span("cli", "run"):
                    rc = cli.run(job["argv"])
            else:
                rc = cli.run(job["argv"])
        return rc, time.perf_counter() - t

    (rc, elapsed), ref = timed_with_reference(work)
    out = buf.getvalue()
    ok, items, facts = wl.check_cli(job, rc, out, golden, rng)
    facts["output_bytes"] = len(out.encode())
    return {"ready": ready, "ref": ref, "results": [
        {"name": job["name"], "elapsed": elapsed, "ok": ok, "items": items, "facts": facts}]}


def run_point(spec: dict, tracer: spans.Tracer | None) -> dict:
    import pqcat

    golden = wl.load_golden()["point"]
    pool = wl.pool()
    api = wl.PointApi(pqcat)
    if tracer:
        tracer.install()
        tracer.job = "warmup"
    # first use of each modulus builds its unit-factorial table
    for pp in api.pp.values():
        pqcat.factorial_p_mod(pp.modulus - 1, pp)
    for sid, i in wl.warmup_queries():
        api.bind(sid, pool[sid][i])()
    queries = wl.pass_queries(spec["seed"], spec["index"])
    ready = time.monotonic()

    def work():
        answers = []
        for k, (sid, i) in enumerate(queries):
            call = api.bind(sid, pool[sid][i])
            if tracer:
                tracer.job = f"{spec['tag']}/{k}"
            t = time.perf_counter()
            try:
                answer = call()
            except Exception as exc:  # a raising query is a failed operation
                answer = exc
            answers.append((time.perf_counter() - t, answer))
        return answers

    answers, ref = timed_with_reference(work)
    results = []
    for (sid, i), (elapsed, answer) in zip(queries, answers):
        if isinstance(answer, Exception):
            ok = False
        else:
            ok = wl.answer_digest(sid, answer) == golden[sid][i]
            if ok and wl.STRATUM[sid][0] == "granville_small":
                ok = wl.check_small_granville(sid, pool[sid][i], answer)
        results.append({"name": sid, "elapsed": elapsed, "ok": ok, "items": 1})
    return {"ready": ready, "ref": ref, "results": results}


def run_staged(spec: dict, tracer: spans.Tracer) -> dict:
    """Re-drive the squarefree pipeline stage by stage through the public
    functions; stages whose function no longer exists are reported absent."""
    import pqcat

    tracer.install()
    enumerate_exceptions = getattr(pqcat, "enumerate_exceptions", None)
    primes_upto = getattr(pqcat, "primes_upto", None)
    test = getattr(pqcat, "is_squarefree_binom", None)
    absent = [name for name, fn in (("enumerate_exceptions", enumerate_exceptions),
                                    ("primes_upto", primes_upto),
                                    ("is_squarefree_binom", test)) if fn is None]
    facts: dict = {"absent": absent, "cases": {}}
    if test is None:
        return {"ready": time.monotonic(), "results": [], "facts": facts}
    if spec["workload"] == "scan":
        cases = [(f"scan-{p}-{q}-{b}", p, q, wl.big(b), True) for p, q, b in wl.SCAN_CASES]
    else:
        cases = [("exhaustive-2-2", 2, 2, wl.SWEEP_BOUND, False)]
    for name, p, q, bound, structural in cases:
        pp = pqcat.PrimePower(p, q)
        tracer.job = f"staged/{name}"
        if structural:
            if enumerate_exceptions is None:
                continue
            cands = [getattr(e, "value", e) for e in enumerate_exceptions(pp, bound)]
        else:
            cands = range(1, bound + 1)
        if primes_upto is not None and len(cands):
            primes_upto(isqrt(pp.modulus * max(cands) + 1))
        hits = [n for n in cands if test(pp.modulus * n + 1, n)]
        facts["cases"][name] = {"tested": len(cands), "hits": hits}
    if spec["workload"] == "sweep":
        facts["checkpoint_s"] = _checkpoint_cost(pqcat, spec, tracer)
    return {"ready": time.monotonic(), "results": [], "facts": facts}


def _checkpoint_cost(pqcat, spec: dict, tracer: spans.Tracer) -> float:
    """Seconds a checkpointed exhaustive (3,2) scan spends beyond a plain one."""
    pp = pqcat.PrimePower(3, 2)
    path = spec["ckpt_path"]
    plain, ckpt = [], []
    for k in range(2):
        tracer.job = f"checkpoint/plain/{k}"
        plain.append(_median_time(lambda: pqcat.scan_candidates(pp, wl.SWEEP_BOUND, exhaustive=True), 1))
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        tracer.job = f"checkpoint/written/{k}"
        ckpt.append(_median_time(lambda: pqcat.scan_candidates(
            pp, wl.SWEEP_BOUND, exhaustive=True, checkpoint_path=path), 1))
        os.remove(path)
    return median(ckpt) - median(plain)


def run_roadmap(spec: dict) -> dict:
    """The hand-measured rows of ROADMAP Open item 1 that belong to this
    workload, timed without tracing."""
    import pqcat

    rows: dict[str, float] = {}
    ok = True
    pp22, pp32, pp33 = (pqcat.PrimePower(*pq) for pq in ((2, 2), (3, 2), (3, 3)))
    workload = spec["workload"]
    if workload == "scan":
        for name, pp in (("roadmap.scan_2_2_2e48_s", pp22), ("roadmap.scan_3_2_2e48_s", pp32)):
            t = time.perf_counter()
            report = pqcat.scan_candidates(pp, 2**48)
            rows[name] = time.perf_counter() - t
            ok = ok and list(report.squarefree_hits) == wl.KNOWN_HITS[(pp.p, pp.q)]
    elif workload == "sweep":
        report = None

        def exhaustive():
            nonlocal report
            report = pqcat.scan_candidates(pp22, 20_000, exhaustive=True)
        rows["roadmap.exhaustive_2_2_2e4_ms"] = _ms(_median_time(exhaustive, 5))
        ok = list(report.squarefree_hits) == wl.KNOWN_HITS[(2, 2)]
    elif workload == "enumerate":
        rows["roadmap.exceptions_2_2_2e200_ms"] = _ms(_median_time(
            lambda: list(pqcat.enumerate_exceptions(pp22, 2**200)), 3))
        t = time.perf_counter()
        count = len(list(pqcat.enumerate_exceptions(pp33, 10**30)))
        rows["roadmap.exceptions_3_3_1e30_s"] = time.perf_counter() - t
        ok = count == 508_508
    else:
        small = [pqcat.PrimePower(*pq) for pq in wl.INEQUALITY]
        rows["roadmap.granville_m1e6_us"] = 1e6 * median(
            _median_time(lambda: pqcat.granville_binom_mod_pq(10**6, n, pp), 5)
            for pp in small for n in (123_457, 500_000, 777_777))
        m = 2**1520 + 12_345
        rows["roadmap.granville_m2e1520_ms"] = _ms(median(
            _median_time(lambda: pqcat.granville_binom_mod_pq(m, m // 3, pp), 3) for pp in small))
        rows["roadmap.catalan_residue_n2e1518_ms"] = _ms(_median_time(
            lambda: pqcat.catalan_residue_mod_pq(pp22, 2**1518 + 2**759 + 1), 5))
        inst = pqcat.InequalityInstance(pp22, precision=256)
        rows["roadmap.sides_2e1518_ms"] = _ms(_median_time(
            lambda: pqcat.inequality_sides(inst, 2**1518), 5))
        rows["roadmap.find_tau0_ms"] = _ms(_median_time(lambda: pqcat.find_tau0(inst), 3))
        # last: the 2**22 table is the largest the library builds and stays cached
        t = time.perf_counter()
        pqcat.factorial_p_mod(1, pqcat.PrimePower(2, 22))
        rows["roadmap.fact_table_2e22_s"] = time.perf_counter() - t
    return {"ready": time.monotonic(), "results": [], "facts": {"roadmap": rows, "roadmap_ok": ok}}


def main() -> None:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    tracer = spans.Tracer() if spec.get("trace") or mode == "staged" else None
    if mode == "job":
        summary = run_job(spec, tracer)
    elif mode == "point":
        summary = run_point(spec, tracer)
    elif mode == "staged":
        summary = run_staged(spec, tracer)
    else:
        summary = run_roadmap(spec)
    summary["setup_s"] = summary.pop("ready") - spec["spawned"]
    summary["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer and spec.get("trace_file"):
        with open(spec["trace_file"], "a", encoding="ascii") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([spec["tag"], *s]) + "\n")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
