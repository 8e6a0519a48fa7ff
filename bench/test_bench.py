"""Tests of the benchmark itself: repeatable layer counts, the tracer, the statistics.

    python3 -m pytest -q bench
"""

import json
from pathlib import Path

import pytest

import compare
import run
import spans
import worker
from stats import quartiles, tail
from workloads import WORKLOADS, check_payload

ROOT = Path(__file__).resolve().parent.parent
TRACED = 2
COUNTS = [name for name, unit, _ in spans.PER_LAYER if unit in ("count", "B", "ratio")]


def traced_run(workload: str, seed: int):
    harness = worker.load_package()
    worker.request(harness, workload, 0)  # lazy one-time set-up stays outside the counts
    recorder = spans.SpanRecorder()
    trials = worker.traced_loop(harness, workload, seed, recorder, count=TRACED)
    return trials, recorder, spans.layer_metrics(recorder, TRACED, trials.records)


# per-trial counts that follow from the code path of each workload
EXPECTED = {
    # prepare twice (3 layers each), compress_state's adjoint, the trial's
    # adjoint and reassemble: 9 applies of 6 distinct unitaries
    "compress-n12": {"doped.prepare.calls": 2, "gaussian.apply.calls": 9,
                     "gaussian.compile.calls": 6, "metrology.correlation_exact.calls": 1},
    # 2n - 1 = 23 group basis changes, plus fixture, learn, and verify's two
    "learn-n12": {"gaussian.apply.calls": 27, "gaussian.compile.calls": 27,
                  "metrology.correlation_sampled.calls": 1, "pauli.to_matrix.calls": 63},
    "tomography-n8": {"gaussian.apply.calls": 19, "pauli.to_matrix.calls": 4**5 - 1,
                      "learner.tomography_t_qubits.calls": 1, "doped.prepare.calls": 0},
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, _, a = traced_run(workload, seed=5)
    second, _, b = traced_run(workload, seed=5)
    assert first.failed == second.failed == 0
    assert first.digest == second.digest
    assert {k: a[k] for k in COUNTS if k in a} == {k: b[k] for k in COUNTS if k in b}
    for name, value in EXPECTED[workload].items():
        assert a[name] == value, name


def test_tracing_leaves_documents_and_namespaces_unchanged():
    harness = worker.load_package()
    import fermidope.doped as doped
    import fermidope.gaussian as gaussian
    import fermidope.states as states

    before = (harness.prepare, doped.prepare, gaussian.apply_pauli_rotation,
              gaussian.GaussianUnitary.__dict__["program"], states.StateVector.__post_init__)
    untraced = worker.Trials("compress-n12")
    for index in range(TRACED):
        untraced.run_one(harness, worker.request, worker.trial_seed("compress-n12", 5, index), True)
    traced, _, _ = traced_run("compress-n12", seed=5)
    assert traced.digest == untraced.digest
    after = (harness.prepare, doped.prepare, gaussian.apply_pauli_rotation,
             gaussian.GaussianUnitary.__dict__["program"], states.StateVector.__post_init__)
    assert all(x is y for x, y in zip(before, after))


def test_self_times_add_up_to_trial_time():
    _, recorder, metrics = traced_run("tomography-n8", seed=2)
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in spans.LAYERS)
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.trial_s"], rel=1e-9)
    # only the benchmark's root span lies outside the package layers
    assert 0 <= metrics["trace.trial_s"] - layers < 0.01 * metrics["trace.trial_s"]
    name, _, self_s = recorder.self_times()
    assert (self_s >= -1e-9).all()
    assert len(name) == len(recorder.trial) and set(recorder.trial) == set(range(TRACED))


def test_check_payload_catches_broken_records():
    harness = worker.load_package()
    body = worker.request(harness, "compress-n12", 3)
    payload = json.loads(body)
    assert check_payload("compress-n12", payload) == []
    payload["records"][0]["tail_weight"] = 1e-3
    payload["config"]["n"] = 10
    problems = check_payload("compress-n12", payload)
    assert any("tail weight" in p for p in problems)
    assert any("config n" in p for p in problems)


def test_tail_has_ten_samples_beyond():
    value, percentile, samples = tail(range(1, 41))
    assert (value, percentile, samples) == (30, 75.0, 40)
    with pytest.raises(ValueError):
        tail(range(10))
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    faster = [0.5, 0.51, 0.49, 0.5, 0.52]
    assert compare.verdict(parent, faster, "lower", 0.1, pairs(faster)) == "better"
    assert compare.verdict(faster, parent, "lower", 0.1, pairs(faster)) == "worse"
    same = [1.005, 0.995, 1.0, 1.015, 0.985]
    assert compare.verdict(parent, same, "lower", 0.1, pairs(same)) == "within bound"
    noisy = [0.5, 1.5, 1.05, 0.7, 1.3]
    assert compare.verdict(parent, noisy, "lower", 0.1, pairs(noisy)) == "unresolved"
    assert compare.verdict([9.0, 9.0], [9.0, 9.0], "lower", None, [(9.0, 9.0)] * 2) == "same"
    assert compare.verdict(parent, [1.5] * 5, "lower", None, pairs([1.5] * 5)) == "worse"


def test_benchmark_json_matches_the_benchmark():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [why for _, why in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert bench["command"] == ["python3", "bench/run.py"]
    latencies = [0.1 + 0.001 * i for i in range(20)]
    raw = {"latencies": latencies, "scaled": latencies, "peak_rss_mb": 40.0,
           "setup_s": 0.5, "setup_scaled": 0.4}
    metrics, _ = run.end_to_end(raw, [raw, raw])
    assert [(name, unit) for name, (_, unit) in metrics.items()] == [
        (m["name"], m["unit"]) for m in bench["end_to_end"]
    ]
