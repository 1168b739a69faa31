"""Compare two result sets of the benchmark, one row per metric and workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each set is a JSON-lines file of run records as written by
`run.py --all --out FILE` (or by collecting the per-run files under
perfbench/out/).  Runs are paired by their order in the two files, so
alternate the sides while measuring: parent run 1, change run 1, parent
run 2, ...  The verdict of each row is one of

  improved    the change wins at least 9 of every 10 pairs and its median
              beats the parent's by more than the parent's interquartile
              spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (per-layer metrics, which have no bound:
              the mirror image of the improved rule);
  unchanged   neither of those, with the parent's spread within the bound;
  unresolved  the parent's spread is wider than the bound, so a change
              within it cannot be told from noise, unless every run of
              one side beats every run of the other.

Exit code 1 when any end-to-end row is worse.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    """The verdict for one metric on one workload; see the module docstring."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    gap = sign * (median(change) - median(parent))     # > 0 means the change is better
    spread = iqr(parent)
    scale = abs(median(parent))
    gained = bool(pairs) and wins >= GAIN_SHARE * len(pairs) and gap > spread
    lost = bool(pairs) and losses >= GAIN_SHARE * len(pairs) and -gap > spread
    if bound is None:
        return "improved" if gained else "worse" if lost else "unchanged"
    if spread > bound * scale:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
        if all_better:
            return "improved" if gained else "unchanged"
        if all_worse and -gap > bound * scale:
            return "worse"
        return "unresolved"
    if gained:
        return "improved"
    return "worse" if -gap > bound * scale else "unchanged"


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="ascii") as fh:
        for line in fh:
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def compare(parent_path: Path, change_path: Path) -> tuple[list[tuple], bool]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    rows, any_worse = [], False
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        m = metrics.get(name)
        if m is None:
            continue
        v = verdict(parent[key], change[key], m["better"], m.get("bound"))
        any_worse |= v == "worse" and "bound" in m
        rows.append((workload, name, m["unit"], parent[key], change[key], v))
    return rows, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    rows, any_worse = compare(Path(argv[0]), Path(argv[1]))
    print(f"{'workload':10s} {'metric':36s} {'unit':6s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  pairs  verdict")
    for workload, name, unit, p, c, v in rows:
        def cell(xs):
            q = quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
            return f"{median(xs):.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{workload:10s} {name:36s} {unit:6s} {cell(p):>34s} {cell(c):>34s}  "
              f"{min(len(p), len(c)):5d}  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
