"""One benchmark process: a set-up probe, or a measured run of one workload.

    python3 bench/worker.py setup   --workload W --seed S
    python3 bench/worker.py measure --workload W --seed S --seconds T --trace 0|1

BLAS and OpenMP are pinned to one thread before numpy is imported, so that
runs compare across machines with different core counts; the dense matrices
in these workloads are at most 24 x 24.  The package is imported from the
checkout's ``src`` directory.
The last line of standard output is one JSON object with the raw samples;
``bench/run.py`` turns them into metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

import spans  # noqa: E402 - bench/spans.py; the script's directory is first on sys.path
from reference import REFERENCE_S, Scaler, kernel_seconds  # noqa: E402
from workloads import (  # noqa: E402
    DIGEST_TRIALS, MIN_TRIALS, WORKLOADS, check_payload, config_fields, trial_seed,
)

MAX_REPORTED_ERRORS = 5


def load_package():
    """Import fermidope from this checkout, never from an installed copy."""
    import fermidope
    import fermidope.harness

    if SRC.resolve() not in Path(fermidope.__file__).resolve().parents:
        raise SystemExit(f"fermidope was imported from {fermidope.__file__}, not from {SRC}")
    return fermidope.harness


def request(harness, workload: str, seed: int) -> bytes:
    """One closed-loop request: run one trial and serialise its document."""
    config = harness.ExperimentConfig(**config_fields(workload, seed))
    return harness.run(config).to_json().encode()


def check(harness, workload: str, body: bytes) -> tuple:
    """(problems, parsed payload) of one document."""
    payload = json.loads(body)
    try:
        harness.validate_document(payload)
    except ValueError as exc:
        return [f"invalid document: {exc}"], payload
    return check_payload(workload, payload), payload


class Trials:
    """Outcome of a sequence of requests: latencies, failures, digest, records.

    ``latencies`` are wall-clock seconds; ``scaled`` are the same latencies
    at the reference machine speed (see reference.py).
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.latencies: list = []
        self.scaled: list = []
        self._scaler = Scaler()
        self.attempted = 0
        self.failed = 0
        self.records: list = []
        self._digest = hashlib.sha256()

    def fail(self, seed: int, message: str) -> None:
        if self.failed < MAX_REPORTED_ERRORS:
            print(f"{self.workload} seed {seed}: {message}", file=sys.stderr)
        self.failed += 1

    def run_one(self, harness, send, seed: int, hashed: bool) -> None:
        self.attempted += 1
        start = time.perf_counter()
        try:
            body = send(harness, self.workload, seed)
        except Exception as exc:  # noqa: BLE001 - a raising trial is counted as failed
            self.fail(seed, f"raised {type(exc).__name__}: {exc}")
            return
        self.latencies.append(time.perf_counter() - start)
        self.scaled.append(self._scaler.scale(self.latencies[-1]))
        if hashed:
            self._digest.update(body)
        problems, payload = check(harness, self.workload, body)
        if problems:
            self.fail(seed, "; ".join(problems))
        else:
            self.records.extend(payload["records"])

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def setup(workload: str, seed: int):
    """Import, lazy one-time set-up and one untimed warm-up request.

    Returns the package's harness module and the set-up time in wall-clock
    seconds and at the reference machine speed.
    """
    harness = load_package()
    config = harness.ExperimentConfig(**config_fields(workload, trial_seed(workload, seed, "warmup")))
    body = harness.run(config).to_json().encode()
    setup_s = time.perf_counter() - STARTED
    problems, _ = check(harness, workload, body)
    if problems:
        raise SystemExit(f"{workload}: the warm-up request failed: {'; '.join(problems)}")
    kernel_s = sorted(kernel_seconds() for _ in range(3))[1]
    return harness, setup_s, setup_s * REFERENCE_S / kernel_s


def timed_loop(harness, workload: str, seed: int, seconds: float) -> Trials:
    """Requests back to back until ``seconds`` have passed and MIN_TRIALS are done."""
    trials = Trials(workload)
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_TRIALS or time.perf_counter() < deadline:
        trials.run_one(harness, request, trial_seed(workload, seed, index), index < DIGEST_TRIALS)
        index += 1
    return trials


def traced_loop(harness, workload: str, seed: int, recorder, count: int = DIGEST_TRIALS) -> Trials:
    """The first ``count`` requests again, with every layer wrapped."""
    trials = Trials(workload)
    with spans.installed(recorder):
        send = recorder.wrap(spans.ROOT_SPAN, request)
        for index in range(count):
            recorder.trial_id = index
            trials.run_one(harness, send, trial_seed(workload, seed, index), hashed=True)
    return trials


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    harness, setup_s, setup_scaled = setup(workload, seed)
    untraced = timed_loop(harness, workload, seed, seconds / 2 if trace else seconds)
    out = {
        "setup_s": setup_s,
        "setup_scaled": setup_scaled,
        "latencies": untraced.latencies,
        "scaled": untraced.scaled,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "digest": untraced.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if trace:
        recorder = spans.SpanRecorder()
        traced = traced_loop(harness, workload, seed, recorder)
        out["attempted"] += traced.attempted
        out["failed"] += traced.failed
        out["traced_digest"] = traced.digest
        out["traced_scaled"] = traced.scaled
        scale = sum(traced.scaled) / sum(traced.latencies)
        out["layers"] = spans.layer_metrics(recorder, DIGEST_TRIALS, traced.records, scale)
        path = BENCH_DIR / "out" / f"spans-{workload}-seed{seed}.npz"
        path.parent.mkdir(exist_ok=True)
        recorder.write(path)
        out["spans_file"] = str(path.relative_to(BENCH_DIR.parent))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _, setup_s, setup_scaled = setup(args.workload, args.seed)
        out = {"setup_s": setup_s, "setup_scaled": setup_scaled}
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
