"""pqcat benchmark: one closed-loop user, one process, one thread.

One run of one workload:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Every job runs in a fresh child interpreter (child.py) so pqcat's lazy
caches start cold, as in a CLI invocation; passes over the workload's jobs
repeat until --seconds of timed work is done.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes, then
re-drives the squarefree pipeline stage by stage and times the ROADMAP
rows, and reports the per-layer metrics.  The last stdout line is the
JSON result; the full record, stamped with the environment, goes to
perfbench/out/.

Suite (every workload, several seeds, one traced run each):

    python3 perfbench/run.py --all --runs 3 --out perfbench/out/set.jsonl

Compare two sets with perfbench/compare.py.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from statistics import median, median_low, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402

RUN_DEADLINE_S = 120        # start no new pass after this many seconds
KILL_DEADLINE_S = 170       # kill any child still running then; a run must end by 180 s
CHILD_TIMEOUT_S = 150
# typical seconds of child.reference_s() inside a benchmark child on a 2-vCPU
# 2.1 GHz Xeon VM; every timing is rescaled to a core running at that speed
REF_S = 0.013
# the name each workload's items_per_s goes by in reports
ITEMS_NAME = {"scan": "candidates_per_s", "sweep": "candidates_per_s",
              "enumerate": "records_per_s", "point": "queries_per_s"}
# per-layer metrics taken from the staged re-drive, not from traced passes
STAGED = ("squarefree.tests", "squarefree.test_self_s", "squarefree.test_us_p50",
          "squarefree.test_us_p99", "squarefree.sieve_s", "squarefree.sieve_primes")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    import mpmath.libmp

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child; a crash or timeout comes back as {"crashed": reason}."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PQCAT_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    spec = {**spec, "spawned": time.monotonic()}
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload, self.seed, self.trace = workload, seed, trace
        self.started = time.monotonic()
        self.deadline = self.started + KILL_DEADLINE_S
        self.ckpt = OUT / f"ckpt-{os.getpid()}.json"
        self.trace_file = OUT / f"trace-{workload}-seed{seed}.jsonl"
        self.passes: list[dict] = []
        self.extra: dict[str, dict] = {}
        self.failures: list[str] = []

    def _child(self, mode: str, tag: str, traced: bool, **spec) -> dict:
        return spawn({"mode": mode, "workload": self.workload, "seed": self.seed, "tag": tag,
                      "trace": traced, "trace_file": str(self.trace_file) if traced else None,
                      "ckpt_path": str(self.ckpt), **spec}, self.deadline)

    def one_pass(self, traced: bool) -> dict:
        index = len(self.passes)
        tag = f"{'t' if traced else 'u'}{index}"
        children = []
        if self.workload == "point":
            children.append(self._child("point", tag, traced, index=index))
        else:
            with contextlib.suppress(FileNotFoundError):
                self.ckpt.unlink()
            for job in wl.cli_jobs(self.workload, str(self.ckpt)):
                child = self._child("job", tag, traced, job=job)
                if "crashed" in child:
                    child["results"] = [{"name": job["name"], "elapsed": 0.0, "ok": False,
                                         "items": 0, "facts": {}}]
                children.append(child)
        for c in children:
            if "crashed" in c:
                self.failures.append(c["crashed"])
            scale = REF_S / c["ref"] if "ref" in c else 1.0
            c["raw_setup_s"] = c.get("setup_s")
            if "setup_s" in c:
                c["setup_s"] *= scale
            for r in c.get("results", []):
                r["raw_elapsed"] = r["elapsed"]
                r["elapsed"] *= scale
        results = [r for c in children for r in c.get("results", [])]
        if not results:   # a crashed point pass: count its queries as failed
            results = [{"name": "point", "elapsed": 0.0, "ok": False, "items": 0}]
        record = {
            "tag": tag, "traced": traced,
            "wall": sum(r["elapsed"] for r in results),
            "raw_wall": sum(r["raw_elapsed"] for r in results),
            "setups": [c["setup_s"] for c in children if "setup_s" in c],
            "raw_setups": [c["raw_setup_s"] for c in children if "setup_s" in c],
            "rss_mb": max((c["rss_mb"] for c in children if "rss_mb" in c), default=0.0),
            "results": results,
        }
        self.passes.append(record)
        return record

    def measure(self, seconds: float) -> None:
        OUT.mkdir(exist_ok=True)
        if self.trace:
            self.trace_file.write_text("")
        timed = 0.0
        while True:
            traced = self.trace and len(self.passes) % 2 == 1
            timed += self.one_pass(traced)["wall"]
            done = timed >= seconds and (not self.trace or len(self.passes) >= 4)
            if done or self.failures or time.monotonic() - self.started > RUN_DEADLINE_S:
                break
        if self.trace:
            if self.workload in ("scan", "sweep"):
                self.extra["staged"] = self._child("staged", "staged", True)
            self.extra["roadmap"] = self._child("roadmap", "roadmap", False)
        with contextlib.suppress(FileNotFoundError):
            self.ckpt.unlink()

    # ------------------------------------------------------------ verdicts

    def operations(self) -> tuple[int, int]:
        results = [r for p in self.passes for r in p["results"]]
        attempted, failed = len(results), sum(not r["ok"] for r in results)
        for name, child in self.extra.items():
            attempted += 1
            if "crashed" in child:
                self.failures.append(f"{name}: {child['crashed']}")
                failed += 1
            elif not self._extra_ok(name, child["facts"]):
                self.failures.append(f"{name}: answers differ from the end-to-end run")
                failed += 1
        for r in results:
            if not r["ok"]:
                self.failures.append(f"{r['name']}: wrong answer or error {r.get('facts', {})}")
        return attempted, failed

    def _extra_ok(self, name: str, facts: dict) -> bool:
        if name == "roadmap":
            return facts["roadmap_ok"]
        # the staged pipeline must reproduce the end-to-end hit sets exactly
        e2e = {r["name"]: r["facts"] for p in self.passes for r in p["results"]}
        return all(case["hits"] == e2e[job]["hits"] and case["tested"] == e2e[job]["tested"]
                   for job, case in facts["cases"].items() if job in e2e)

    # ------------------------------------------------------------- metrics

    def job_ms(self, traced: bool, key: str = "elapsed") -> list[float]:
        """Each job's median time over the passes, in ms: a CLI job is one
        child, and a point pass is one child answering every query."""
        walls = [[r[key] for r in p["results"]] if self.workload != "point"
                 else [sum(r[key] for r in p["results"])]
                 for p in self.passes if p["traced"] == traced]
        return [1e3 * median(times) for times in zip(*walls)]

    def end_to_end(self) -> tuple[dict, dict]:
        passes = [p for p in self.passes if not p["traced"]]
        items = sum(r["items"] for r in passes[0]["results"])
        jobs = self.job_ms(traced=False)
        wall = sum(jobs) / 1e3
        # point pools every query of the run; a CLI request is one job
        latencies = ([1e3 * r["elapsed"] for p in passes for r in p["results"]]
                     if self.workload == "point" else jobs)
        p50, p99 = sp.percentile(latencies, 50), sp.percentile(latencies, 99)
        metrics = {
            "setup_s": median(s for p in passes for s in p["setups"]),
            "wall_s": wall,
            "items_per_s": items / wall if wall else 0.0,
            "query_ms_p50": p50,
            "query_ms_p99": p99,
            "peak_rss_mb": median(p["rss_mb"] for p in passes),
        }
        report = {"passes": len(passes), "query_samples": len(latencies),
                  "samples_above_p99": sum(x > p99 for x in latencies),
                  ITEMS_NAME[self.workload]: metrics["items_per_s"],
                  "raw_wall_s": sum(self.job_ms(traced=False, key="raw_elapsed")) / 1e3,
                  "raw_setup_s": median(s for p in passes for s in p["raw_setups"])}
        return metrics, report

    def per_layer(self) -> tuple[dict, list[str]]:
        rows_by_pass: dict[str, list] = defaultdict(list)
        if self.trace_file.exists():
            with open(self.trace_file, encoding="ascii") as fh:
                for line in fh:
                    row = json.loads(line)
                    rows_by_pass[row[0]].append(row[1:])
        traced = [p for p in self.passes if p["traced"]]
        per_pass = []
        for p in traced:
            m = layer_metrics(rows_by_pass[p["tag"]])
            m["cli.output_bytes"] = sum(r.get("facts", {}).get("output_bytes", 0) for r in p["results"])
            per_pass.append(m)
        metrics = {k: median_low(m[k] for m in per_pass) for k in per_pass[0]} if per_pass else {}
        if traced and len(traced) < len(self.passes):
            metrics["trace.overhead_frac"] = (sum(self.job_ms(traced=True))
                                              / sum(self.job_ms(traced=False)) - 1)
        staged = self.extra.get("staged")
        if staged and "facts" in staged:
            metrics.update({k: v for k, v in layer_metrics(rows_by_pass["staged"]).items()
                            if k in STAGED})
            cases = staged["facts"]["cases"].values()
            tests = sum(c["tested"] for c in cases)
            metrics["squarefree.hit_ratio"] = sum(len(c["hits"]) for c in cases) / tests if tests else 0.0
            if "checkpoint_s" in staged["facts"]:
                metrics["squarefree.checkpoint_s"] = staged["facts"]["checkpoint_s"]
        roadmap = self.extra.get("roadmap", {}).get("facts", {}).get("roadmap", {})
        metrics.update(roadmap)
        absent = sorted(staged["facts"]["absent"]) if staged and "facts" in staged else []
        return metrics, absent


def layer_metrics(rows: list[list]) -> dict:
    """Per-layer metrics of one pass from its span rows (see spans.py)."""
    by_layer: dict[str, list] = defaultdict(list)
    by_fn: dict[tuple[str, str], list] = defaultdict(list)
    table_build = 0.0
    for r in rows:
        if r[sp.JOB] == "warmup":
            if r[sp.NAME] == "factorial_p_mod":
                table_build += r[sp.BUSY]
            continue
        by_layer[r[sp.LAYER]].append(r)
        by_fn[(r[sp.LAYER], r[sp.NAME])].append(r)

    def calls(layer):
        return len(by_layer[layer])

    def self_s(rows_):
        return sum(sp.self_time(r) for r in rows_)

    def pct(layer, name, q, scale):
        return scale * sp.percentile([r[sp.BUSY] for r in by_fn[(layer, name)]], q)

    records = sum(r[sp.ITEMS] or 0 for r in by_layer["exceptions"])
    exc_self = self_s(by_layer["exceptions"])
    granville = by_fn[("modular", "granville_binom_mod_pq")]
    tests = by_fn[("squarefree", "is_squarefree_binom")]
    sieve = by_fn[("squarefree", "primes_upto")]
    return {
        "squarefree.tests": len(tests),
        "squarefree.test_self_s": self_s(tests),
        "squarefree.test_us_p50": pct("squarefree", "is_squarefree_binom", 50, 1e6),
        "squarefree.test_us_p99": pct("squarefree", "is_squarefree_binom", 99, 1e6),
        "squarefree.sieve_s": sum(r[sp.BUSY] for r in sieve),
        "squarefree.sieve_primes": max((r[sp.ITEMS] or 0 for r in sieve), default=0),
        "exceptions.calls": calls("exceptions"),
        "exceptions.self_s": exc_self,
        "exceptions.records": records,
        "exceptions.records_per_s": records / exc_self if exc_self else 0.0,
        "cli.self_s": self_s(by_layer["cli"]),
        "modular.granville_calls": len(granville),
        "modular.granville_self_s": self_s(granville),
        "modular.granville_us_p50": pct("modular", "granville_binom_mod_pq", 50, 1e6),
        "modular.granville_us_p99": pct("modular", "granville_binom_mod_pq", 99, 1e6),
        "modular.table_build_s": table_build,
        "digits.calls": calls("digits"),
        "digits.self_s": self_s(by_layer["digits"]),
        "digits.to_base_p_us_p50": pct("digits", "to_base_p", 50, 1e6),
        "catalan.calls": calls("catalan"),
        "catalan.self_s": self_s(by_layer["catalan"]),
        "catalan.residue_us_p50": pct("catalan", "catalan_residue_mod_pq", 50, 1e6),
        "analytic.sides_calls": len(by_fn[("analytic", "inequality_sides")]),
        "analytic.sides_us_p50": pct("analytic", "inequality_sides", 50, 1e6),
        "analytic.tau0_calls": len(by_fn[("analytic", "find_tau0")]),
        "analytic.tau0_ms_p50": pct("analytic", "find_tau0", 50, 1e3),
        "analytic.self_s": self_s(by_layer["analytic"]),
        "residues.calls": calls("residues"),
        "residues.self_s": self_s(by_layer["residues"]),
        "residues.set_ms_p50": pct("residues", "residue_set_p2", 50, 1e3),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its full record."""
    env = environment(seed)
    run = Run(workload, seed, trace)
    run.measure(seconds)
    attempted, failed = run.operations()
    spec = benchmark_spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values, absent = run.per_layer()
        report = {"absent_functions": absent}
    else:
        values, report = run.end_to_end()
    report["failed_frac"] = failed / attempted
    report["not_measured"] = [m["name"] for m in listed if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "report": report, "failures": run.failures[:20],
        "passes": [{**{k: p[k] for k in ("tag", "traced", "wall", "raw_wall", "setups",
                                          "raw_setups", "rss_mb")},
                    "jobs": {r["name"]: [r["elapsed"], r["raw_elapsed"]] for r in p["results"]}
                    if workload != "point" else {}}
                   for p in run.passes],
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def suite(runs: int, seconds: float, seed_base: int, out: Path) -> bool:
    """Every workload: `runs` untraced runs and one traced run, appended to
    `out`, with a table of medians and quartiles."""
    ok = True
    with open(out, "a", encoding="ascii") as fh:
        for workload in wl.WORKLOADS:
            records = []
            for k in range(runs + 1):
                record = run_one(workload, seed_base + k, seconds, trace=k == runs)
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                records.append(record)
                ok = ok and record["correct"]
            print_table(workload, records)
    return ok


def print_table(workload: str, records: list[dict]) -> None:
    plain = [r for r in records if not r["trace"]]
    print(f"\n== {workload}: {len(plain)} untraced run(s), "
          f"{len(records) - len(plain)} traced; env {records[0]['env']}")
    rows = []
    for trace_flag in (0, 1):
        group = [r for r in records if r["trace"] == trace_flag]
        for name in group[0]["metrics"] if group else []:
            vals = [r["metrics"][name]["value"] for r in group]
            rows.append((name, group[0]["metrics"][name]["unit"], vals))
        for name, unit in (("failed_frac", "ratio"), (ITEMS_NAME[workload], "1/s"),
                           ("query_samples", "count"), ("raw_wall_s", "s"),
                           ("raw_setup_s", "s")):
            vals = [r["report"][name] for r in group if name in r["report"]]
            if vals:
                rows.append((name, unit, vals))
    for name, unit, vals in rows:
        q = quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        print(f"  {name:38s} {unit:6s} median {median(vals):14.6g}  q1 {q[0]:12.6g}  q3 {q[2]:12.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run the suite over every workload")
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload in --all")
    parser.add_argument("--out", type=Path, default=OUT / "set.jsonl",
                        help="result set that --all appends to")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pqcat" / "__init__.py").is_file():
        print(f"run.py: no pqcat sources under {ROOT / 'src'}; run from a pqcat checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    if args.all:
        return 0 if suite(args.runs, seconds, args.seed, args.out) else 1
    if args.workload is None:
        parser.error("--workload is required without --all")
    record = run_one(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps({"env": record["env"], "report": record["report"],
                      "failures": record["failures"]}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
