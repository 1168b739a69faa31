"""Record the answers the benchmark checks against, into golden.json.

Run once, at the commit that introduced the benchmark, from the repository
root:

    PYTHONPATH=src python3 perfbench/make_golden.py

Later commits must reproduce these answers; regenerating the file to make
a changed answer pass defeats the check.  Scan candidate counts come from
the benchmark's own brute-force counter and are cross-checked against
pqcat here.
"""

from __future__ import annotations

import json

import pqcat
import workloads as wl


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"make_golden: pqcat disagrees with the benchmark's oracle: {what}")


def main() -> None:
    golden: dict = {"scan": {}, "enumerate": {}, "point": {}}
    for job in wl.cli_jobs("scan", ""):
        pp = pqcat.PrimePower(job["p"], job["q"])
        count = wl.count_candidates(job["p"], job["q"], wl.big(job["bound"]))
        report = pqcat.scan_candidates(pp, wl.big(job["bound"]))
        require(report.candidates_tested == count, (job["name"], report.candidates_tested, count))
        require(list(report.squarefree_hits) == wl.KNOWN_HITS[(pp.p, pp.q)], job["name"])
        golden["scan"][job["name"]] = {"candidates": count}
    for pq in ((2, 2), (3, 2)):
        report = pqcat.scan_candidates(pqcat.PrimePower(*pq), 2 * wl.SWEEP_BOUND, exhaustive=True)
        require(list(report.squarefree_hits) == wl.KNOWN_HITS[pq], pq)
    for job in wl.cli_jobs("enumerate", ""):
        found = pqcat.enumerate_exceptions(pqcat.PrimePower(job["p"], job["q"]), wl.big(job["bound"]))
        values = [e.value for e in found]
        golden["enumerate"][job["name"]] = {"records": len(values),
                                            "digest": wl.values_digest(values)}
    api = wl.PointApi(pqcat)
    for sid, inputs in wl.pool().items():
        golden["point"][sid] = [wl.answer_digest(sid, api.bind(sid, args)()) for args in inputs]
        if wl.STRATUM[sid][0] == "granville_small":
            require(all(wl.check_small_granville(sid, args, api.bind(sid, args)())
                        for args in inputs), sid)
    with open(wl.GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
