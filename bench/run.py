"""Benchmark of fermidope: closed-loop experiment requests, end to end and per layer.

    python3 bench/run.py --workload compress-n12 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` a shorter untraced loop, then the first requests again with every
layer wrapped, and the per-layer metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
command exits non-zero when any request fails its check.

Times are reported at a fixed reference machine speed: each latency is scaled
by a reference kernel timed just before and after it (see reference.py),
because the speed of a shared machine drifts within and between runs.  The
wall-clock values are printed next to them.

Set-up is measured in separate processes, since it includes importing the
package: ``SETUP_PROBES - 1`` probe processes plus the measured process itself,
and the median is reported.  ``--record FILE`` appends the run, with the
machine facts, as one JSON line for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import LAYERS, PER_LAYER
from stats import TAIL_BEYOND, quartiles, tail
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30
# the measured process adds set-up, a traced loop and its checks to --seconds
MEASURE_TIMEOUT_S = 150


def child(args: list, timeout: float) -> dict:
    """Run one worker process to completion and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def throughput(latencies: list) -> float:
    return len(latencies) / sum(latencies)


def end_to_end(raw: dict, setups: list) -> tuple:
    """(metrics, report lines) of an untraced run; ``setups`` holds worker outputs."""
    scaled, wall = raw["scaled"], raw["latencies"]
    tail_s, tail_pct, samples = tail(scaled)
    setup_scaled = [s["setup_scaled"] for s in setups]
    metrics = {
        "trials_per_s": (throughput(scaled), "1/s"),
        "trial_s.p50": (quartiles(scaled)[1], "s"),
        "trial_s.tail": (tail_s, "s"),
        "setup_s": (quartiles(setup_scaled)[1], "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines[0] += f"  (wall clock {throughput(wall):.6g})"
    lines[1] += f"  (quartiles {quartiles(scaled)[0]:.6g} .. {quartiles(scaled)[2]:.6g}; " \
                f"wall clock {quartiles(wall)[1]:.6g})"
    lines[2] += f"  (p{tail_pct:.1f} of {samples} trials, {TAIL_BEYOND} beyond it; " \
                f"wall clock {tail(wall)[0]:.6g})"
    lines[3] += f"  (median of {len(setups)} processes: " + \
        ", ".join(f"{s:.4g}" for s in setup_scaled) + \
        f"; wall clock {quartiles([s['setup_s'] for s in setups])[1]:.6g})"
    return metrics, lines


def per_layer(raw: dict) -> tuple:
    """(metrics, report lines) of a traced run, with its overhead and self-time check."""
    layers = dict(raw["layers"])
    untraced, traced = throughput(raw["scaled"]), throughput(raw["traced_scaled"])
    layers["trace.untraced_trials_per_s"] = untraced
    layers["trace.traced_trials_per_s"] = traced
    layers["trace.overhead_trials_per_s"] = untraced - traced
    metrics = {name: (layers[name], unit) for name, unit, _ in PER_LAYER}
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    layer_sum = sum(layers[f"layer.{layer}.self_s"] for layer in LAYERS)
    lines.append(f"layer self times sum to {layer_sum:.6g} s of the traced trial time "
                 f"{layers['trace.trial_s']:.6g} s; the benchmark's own root span holds the rest "
                 f"(all spans together: {layers['trace.self_sum_s']:.6g} s)")
    lines.append(f"tracing overhead: {untraced:.4g} - {traced:.4g} = {untraced - traced:.4g} trials/s "
                 f"({(untraced - traced) / untraced:.1%}) at the reference speed")
    lines.append(f"spans written to {raw['spans_file']}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the run as a JSON line to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fermidope" / "__init__.py").is_file():
        print(f"no fermidope sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        setups = [child(["setup", *common], PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES - 1)]
    raw = child(["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                MEASURE_TIMEOUT_S)
    setups.append(raw)

    if args.trace:
        metrics, lines = per_layer(raw)
        same = raw["traced_digest"] == raw["digest"]
        lines.append(f"traced documents {'match' if same else 'DIFFER FROM'} the untraced ones")
    else:
        metrics, lines = end_to_end(raw, setups)
        same = True
    failed_frac = raw["failed"] / raw["attempted"]
    correct = raw["failed"] == 0 and same
    print(f"workload {args.workload}: {WORKLOADS[args.workload][1]}")
    print(f"machine: {json.dumps(raw['machine'], sort_keys=True)}")
    print(f"closed loop, 1 client, seed {args.seed}, {raw['attempted']} trials attempted")
    print("\n".join(lines))
    print(f"failed_frac = {failed_frac:.6g}  ({raw['failed']} of {raw['attempted']})")
    print(f"document sha256 (first trials) = {raw['digest']}")

    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "digest": raw["digest"], "machine": raw["machine"],
                                 **result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
