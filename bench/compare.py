"""Summarise one set of benchmark runs, or compare two.

    python3 bench/compare.py RUNS.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

A set is the JSON lines that ``bench/run.py --record FILE`` appends, one per
run.  For each workload and metric it prints each side's median and
quartiles.  With one set it also prints the spread (inter-quartile distance
over the median) against the metric's bound from BENCHMARK.json.  With two
sets it gives a verdict per metric:

- better: every change run beats every parent run; or the change wins at
  least nine tenths of the runs paired by seed and its median beats the
  parent's by more than the parent's spread;
- worse: every change run loses to every parent run, or the median is worse
  by more than the bound;
- for a per-layer metric, which has no bound, worse also when the change
  loses by the rule for better;
- unresolved: the spread of either side is wider than the bound, or a
  per-layer median moved without a verdict;
- within bound (end-to-end) or same (per-layer, equal medians): otherwise.

Runs of one seed must have the same document digest in both sets.  The exit
code is 1 when a verdict is "worse" or a digest differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict:
    """(workload, trace) -> list of recorded runs."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                runs[run["workload"], run["trace"]].append(run)
    return runs


def metric_specs() -> dict:
    """metric -> (better, bound or None), from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    specs.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return specs


def verdict(parent: list, change: list, better: str, bound, pairs: list) -> str:
    def beats(x, y):
        return x < y if better == "lower" else x > y

    if all(beats(c, p) for c in change for p in parent):
        return "better"
    if all(beats(p, c) for c in change for p in parent):
        return "worse"
    _, p_med, _ = quartiles(parent)
    _, c_med, _ = quartiles(change)
    p_spread = spread(parent)
    if bound is None:
        if c_med == p_med:
            return "same"
    elif max(p_spread, spread(change)) > bound:
        return "unresolved"
    gain = (p_med - c_med if better == "lower" else c_med - p_med) / (abs(p_med) or 1.0)
    if bound is not None and -gain > bound:
        return "worse"
    if gain > p_spread and sum(beats(c, p) for p, c in pairs) >= 0.9 * len(pairs):
        return "better"
    if bound is None and -gain > p_spread and sum(beats(p, c) for p, c in pairs) >= 0.9 * len(pairs):
        return "worse"
    return "unresolved" if bound is None else "within bound"


def fmt(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def summarise(runs: dict, specs: dict) -> int:
    for (workload, trace), group in sorted(runs.items()):
        print(f"\n{workload} (trace {trace}, {len(group)} runs, "
              f"{sum(r['failed'] for r in group)} of {sum(r['attempted'] for r in group)} trials failed)")
        for name in group[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in group]
            better, bound = specs.get(name, ("lower", None))
            line = f"  {name:42s} {fmt(values):40s} spread {spread(values):.3f}"
            if bound is not None:
                line += f" bound {bound} ({'steady' if spread(values) < bound / 3 else 'WIDE'})"
            print(line)
    return 0


def compare(parent_runs: dict, change_runs: dict, specs: dict) -> int:
    status = 0
    for key in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[key], change_runs[key]
        by_seed = {r["seed"]: r for r in parent}
        pairs = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
        if not pairs:
            pairs = list(zip(parent, change))
        digests_differ = [c["seed"] for p, c in pairs if p["seed"] == c["seed"] and p["digest"] != c["digest"]]
        print(f"\n{key[0]} (trace {key[1]}): parent {len(parent)} runs, change {len(change)} runs")
        if digests_differ:
            print(f"  document digests differ for seeds {digests_differ}")
            status = 1
        for name in parent[0]["metrics"]:
            better, bound = specs.get(name, ("lower", None))
            p_vals = [r["metrics"][name]["value"] for r in parent]
            c_vals = [r["metrics"][name]["value"] for r in change]
            paired = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
            result = verdict(p_vals, c_vals, better, bound, paired)
            status |= result == "worse"
            print(f"  {name:42s} {fmt(p_vals):36s} -> {fmt(c_vals):36s} {result}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="runs recorded with bench/run.py --record")
    parser.add_argument("change", type=Path, nargs="?", help="a second set to compare against the first")
    args = parser.parse_args(argv)
    specs = metric_specs()
    if args.change is None:
        return summarise(load_runs(args.parent), specs)
    return compare(load_runs(args.parent), load_runs(args.change), specs)


if __name__ == "__main__":
    sys.exit(main())
