"""Compare benchmark runs of two commits.

    python3 bench/compare.py PARENT.jsonl CHILD.jsonl

Each file holds the records that ``bench/run.py --out FILE`` appended.
Runs of the two files pair up by workload and seed, in the order they
were recorded. For each workload and each end-to-end metric it prints the
median and quartiles of each side and a verdict by the benchmark's rule:

* GAIN: at least 10 pairs, the child wins at least 9 of 10 of them (ties
  count for neither side), and the medians differ by more than the
  parent's interquartile range.
* REGRESSION: the child's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json (a share of the parent's median).
* unresolved: the quartile spread of either side, as a share of its
  median, exceeds the bound, unless every child run beats every parent run.
* same: none of the above.

It also says how many pairs ran parent first, so that alternation can be
checked, and prints the medians of the per-layer metrics of traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Records by (workload, trace), each list in recorded order."""
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def pair_up(parent: list[dict], child: list[dict]) -> list[tuple[dict, dict]]:
    """Match runs with the same seed, the n-th parent run with the n-th child run."""
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for rec in child:
        by_seed[rec["seed"]].append(rec)
    pairs = []
    for rec in parent:
        if by_seed[rec["seed"]]:
            pairs.append((rec, by_seed[rec["seed"]].pop(0)))
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(metric: dict, pairs: list[tuple[float, float]]) -> tuple[str, float]:
    """Verdict and win rate for (parent, child) value pairs of one metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_vals = [p for p, _ in pairs]
    c_vals = [c for _, c in pairs]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    win_rate = wins / len(pairs)
    worse_by = (c_med - p_med) if lower else (p_med - c_med)
    every_run_better = max(c_vals) < min(p_vals) if lower else min(c_vals) > max(p_vals)
    if spread(p_vals) > bound or spread(c_vals) > bound:
        return ("better in every run" if every_run_better else "unresolved (spread > bound)"), win_rate
    if worse_by > bound * abs(p_med):
        return "REGRESSION", win_rate
    if len(pairs) >= 10 and win_rate >= 0.9 and -worse_by > p_q3 - p_q1:
        return "GAIN", win_rate
    suffix = "" if len(pairs) >= 10 else f" (only {len(pairs)} pairs; a gain needs 10)"
    return "same within bound" + suffix, win_rate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare benchmark runs of two commits")
    ap.add_argument("parent")
    ap.add_argument("child")
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent, child = load(args.parent), load(args.child)

    for wl in spec["workloads"]:
        name = wl["name"]
        pairs = pair_up(parent.get((name, 0), []), child.get((name, 0), []))
        if not pairs:
            print(f"{name}: no paired untraced runs")
            continue
        parent_first = sum(p["started_unix"] < c["started_unix"] for p, c in pairs)
        print(f"{name}: {len(pairs)} pairs, {parent_first} ran parent first")
        print(f"  {'metric':<16} {'parent q1/median/q3':>34}   {'child q1/median/q3':>34}  wins  verdict")
        for metric in spec["end_to_end"]:
            m = metric["name"]
            vals = [(p["result"]["metrics"][m]["value"], c["result"]["metrics"][m]["value"]) for p, c in pairs]
            pq, cq = quartiles([p for p, _ in vals]), quartiles([c for _, c in vals])
            text, win_rate = verdict(metric, vals)
            print(f"  {m:<16} {'%.5g / %.5g / %.5g' % pq:>34}   {'%.5g / %.5g / %.5g' % cq:>34}"
                  f"  {win_rate:4.0%}  {text}")
        traced = pair_up(parent.get((name, 1), []), child.get((name, 1), []))
        if traced:
            print(f"  per-layer medians over {len(traced)} traced pairs (child / parent):")
            for metric in spec["per_layer"]:
                m = metric["name"]
                p_med = statistics.median(p["result"]["metrics"][m]["value"] for p, _ in traced)
                c_med = statistics.median(c["result"]["metrics"][m]["value"] for _, c in traced)
                if p_med or c_med:
                    ratio = f"{c_med / p_med:.3f}" if p_med else "new"
                    print(f"    {m:<52} {p_med:>12.5g} {c_med:>12.5g}  {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
