"""Harness: config validation, determinism, sweeps, result documents."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermidope import harness, metrology
from fermidope.doped import prepare
from fermidope.harness import (
    ConfigError,
    ExperimentConfig,
    _median,
    run,
    sweep,
    trials_csv,
)
from fermidope.learner import verify


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="mystery").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="compress", n=4, t=2, kappa=4).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="learn", eps=0.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="test", t=4, n=4).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="test", fixture="tplus", t=1, n=4).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="prepare", fixture="gaussian").validate()
    ExperimentConfig(kind="compress", n=6, t=1, kappa=4).validate()


def test_the_test_kind_defaults_to_the_gaussian_fixture():
    # the one per-kind default; an explicit fixture, and replace(), keep what they are given
    assert ExperimentConfig(kind="test").validate().fixture == "gaussian"
    for kind in ("prepare", "compress", "learn"):
        assert ExperimentConfig(kind=kind).validate().fixture == "doped"
    assert ExperimentConfig(kind="test", fixture="tplus", t=0).fixture == "tplus"
    assert replace(ExperimentConfig(kind="test"), n=6).fixture == "gaussian"


def test_config_rejects_shots_override_below_one():
    for kind in ("test", "learn"):
        for bad in (0, -3):
            cfg = ExperimentConfig(kind=kind, t=0, mode="sampled", shots_override=bad)
            with pytest.raises(ConfigError, match="^shots_override must be >= 1$"):
                cfg.validate()
    ExperimentConfig(kind="test", t=0, mode="sampled", shots_override=1, fixture="gaussian").validate()


def test_config_rejects_a_sampled_learn_past_the_tomography_limit():
    # a doped core of kappa * t qubits, or a compressible one of t; exact mode tomographs nothing
    limited = "^sampled learning's tomography is limited to 6 qubits, got a core of {}; "
    for fixture, t, kappa, core in (("doped", 2, 4, 8), ("doped", 7, 1, 7), ("compressible", 7, 4, 7)):
        cfg = ExperimentConfig(kind="learn", fixture=fixture, n=12, t=t, kappa=kappa, mode="sampled")
        with pytest.raises(ConfigError, match=limited.format(core)):
            cfg.validate()
        replace(cfg, mode="exact").validate()
    ExperimentConfig(kind="learn", n=12, t=3, kappa=2, mode="sampled").validate()


def test_config_rejects_the_test_kind_on_the_doped_fixture():
    # a doped state with kappa*t > t is generally outside the tester's promise, and the
    # trial would score it as "close" without checking
    with pytest.raises(ConfigError, match="^kind .test. needs the gaussian, tplus or compressible fixture$"):
        ExperimentConfig(kind="test", fixture="doped", n=6, t=1).validate()
    for fixture in ("gaussian", "compressible"):
        ExperimentConfig(kind="test", fixture=fixture, n=6, t=1).validate()


def test_run_prepare_document():
    doc = run(ExperimentConfig(kind="prepare", n=4, t=1, kappa=3, seed=2, trials=3))
    assert doc.version and doc.seed == 2
    assert len(doc.records) == 3
    for record in doc.records:
        assert record["gaussian_dimension"] >= 4 - 3
        assert record["ok"]
    assert doc.summary["acceptance_ok"]
    # config echo round-trips through JSON
    echoed = json.loads(doc.to_json())["config"]
    assert echoed["kind"] == "prepare" and echoed["n"] == 4


def test_run_compress_document():
    doc = run(ExperimentConfig(kind="compress", n=6, t=1, kappa=4, seed=5, trials=4))
    assert all(r["tail_weight"] <= 1e-8 for r in doc.records)
    assert all(r["core_qubits"] == 4 for r in doc.records)
    assert doc.summary["acceptance_ok"]


def test_compress_trial_decomposes_four_gaussians(givens_calls):
    # 3 layers, plus G^dag of the compression: compress_state's adjoint, the trial's
    # adjoint and reassemble's G share that one decomposition
    doc = run(ExperimentConfig(kind="compress", n=12, t=2, kappa=4, seed=11))
    assert doc.summary["acceptance_ok"]
    assert len(givens_calls) == 4


def test_run_learn_exact_document():
    doc = run(ExperimentConfig(kind="learn", n=6, t=1, kappa=4, seed=7, mode="exact", trials=2))
    assert all(r["trace_distance"] <= 1e-6 for r in doc.records)
    assert doc.summary["acceptance_ok"]


def test_run_learn_sampled_compressible():
    cfg = ExperimentConfig(kind="learn", n=4, t=1, kappa=4, seed=9, mode="sampled",
                           fixture="compressible", trials=3)
    doc = run(cfg)
    assert doc.summary["ok_rate"] >= 2 / 3
    assert "trace_distance" in doc.summary


def test_run_test_kinds():
    close = run(ExperimentConfig(kind="test", n=4, t=0, fixture="gaussian", mode="exact",
                                 trials=5, seed=1))
    assert close.summary["error_rate"] == 0.0
    far = run(ExperimentConfig(kind="test", n=4, t=0, fixture="tplus", mode="sampled",
                               trials=5, seed=1, shots_override=50_000))
    assert far.summary["error_rate"] <= far.config["delta"]
    assert all(r["expected"] == "far" for r in far.records)


_PLAIN = (int, float, str, bool, type(None), list, dict)


@pytest.mark.parametrize("config", [
    dict(kind="prepare", n=4, t=1, kappa=3),
    dict(kind="compress", n=6, t=1, kappa=4),
    dict(kind="learn", n=4, t=1, kappa=3, mode="exact"),
    dict(kind="learn", n=4, t=1, mode="sampled", fixture="compressible"),
    dict(kind="learn", n=3, t=3, mode="sampled", fixture="compressible"),
    dict(kind="learn", n=4, t=1, mode="sampled", fixture="compressible", shots_override=500),
    dict(kind="test", n=4, t=1, fixture="gaussian", mode="exact"),
    dict(kind="test", n=4, t=0, fixture="tplus", mode="sampled", shots_override=1000),
], ids=["prepare", "compress", "learn-exact", "learn-sampled", "learn-tomography", "learn-override",
        "test-exact", "test-sampled"])
def test_payload_holds_only_plain_python_values(config):
    # a numpy scalar would slip through json.dumps as a float or raise on a bool
    stack = [run(ExperimentConfig(seed=3, trials=2, **config)).payload()]
    while stack:
        value = stack.pop()
        assert type(value) in _PLAIN, (type(value), value)
        stack.extend([*value, *value.values()] if isinstance(value, dict) else value if isinstance(value, list) else ())


def test_determinism_byte_identical(tmp_path):
    cfg = ExperimentConfig(kind="learn", n=4, t=1, kappa=3, seed=11, mode="sampled",
                           fixture="compressible", trials=2)
    a, b = run(cfg), run(cfg)
    assert a.to_json() == b.to_json()
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.write(pa)
    b.write(pb)
    assert pa.read_bytes() == pb.read_bytes()
    # wall clock is reported in memory but never serialized
    assert "wall_clock" not in a.to_json()
    assert a.wall_clock_s > 0


def test_artifacts_are_trial_zeros_and_stay_out_of_the_document():
    cfg = ExperimentConfig(kind="learn", n=4, t=1, kappa=3, seed=5, mode="exact", trials=2)
    doc = run(cfg)
    assert set(doc.artifacts) == {"circuit", "learned"}
    assert set(json.loads(doc.to_json())) == {"config", "seed", "version", "records", "summary"}
    assert "artifacts" not in doc.to_json()
    assert doc.to_json() == run(cfg).to_json()
    report = verify(doc.artifacts["learned"], prepare(doc.artifacts["circuit"]))
    assert report.trace_distance == doc.records[0]["trace_distance"]


def test_different_seeds_differ():
    base = dict(kind="learn", n=4, t=1, kappa=3, mode="sampled", fixture="compressible")
    a = run(ExperimentConfig(seed=1, **base))
    b = run(ExperimentConfig(seed=2, **base))
    assert a.to_json() != b.to_json()


def test_trials_csv_shape():
    doc = run(ExperimentConfig(kind="compress", n=4, t=1, kappa=4, seed=3, trials=3))
    text = trials_csv(doc)
    lines = text.strip().splitlines()
    assert len(lines) == 4  # header + 3 trials
    assert "tail_weight" in lines[0]


def test_sweep_rows_and_summaries():
    base = ExperimentConfig(kind="compress", n=4, t=1, kappa=3, trials=2, seed=0)
    docs, csv_text, failures = sweep(base, {"n": [4, 6], "t": [0, 1]})
    assert len(docs) == 4 and failures == []
    lines = csv_text.strip().splitlines()
    # header + 4 cells x (2 trials + 1 summary)
    assert len(lines) == 1 + 4 * 3
    assert sum(1 for ln in lines if ",summary," in ln) == 4


def test_sweep_single_cell_matches_run():
    base = ExperimentConfig(kind="compress", n=4, t=1, kappa=3, trials=2, seed=0)
    docs, _, _ = sweep(base, {"n": [6]})
    direct = run(ExperimentConfig(kind="compress", n=6, t=1, kappa=3, trials=2, seed=0))
    assert docs[0].to_json() == direct.to_json()


def test_sweep_empty_grid_is_header_only():
    base = ExperimentConfig(kind="compress", n=4, t=1, kappa=3, trials=1, seed=0)
    docs, csv_text, failures = sweep(base, {"n": []})
    assert docs == [] and failures == []
    assert len(csv_text.strip().splitlines()) == 1


def test_sweep_partial_failure_recorded():
    base = ExperimentConfig(kind="compress", n=4, t=1, kappa=4, trials=1, seed=0)
    docs, csv_text, failures = sweep(base, {"n": [4, 3]})  # n = 3 violates kappa*t <= n
    assert len(docs) == 1
    assert [(cell, type(exc)) for cell, exc in failures] == [({"n": 3}, ConfigError)]
    assert any(",error," in ln or ln.endswith("ConfigError: compression needs kappa*t <= n, got 4 > 3")
               for ln in csv_text.splitlines())


def test_sweep_rejects_unknown_key():
    base = ExperimentConfig(kind="compress", n=4, t=1, kappa=3)
    with pytest.raises(ConfigError):
        sweep(base, {"flavour": [1]})


def test_document_schema_validation():
    from fermidope.harness import validate_document

    doc = run(ExperimentConfig(kind="prepare", n=4, t=1, kappa=3, seed=0))
    payload = json.loads(doc.to_json())
    validate_document(payload)  # parsed JSON round-trips through the schema
    with pytest.raises(ValueError):
        validate_document({k: v for k, v in payload.items() if k != "summary"})
    for not_an_object in ([payload], 5, None):
        with pytest.raises(ValueError, match="^result document is not a JSON object$"):
            validate_document(not_an_object)
    broken = dict(payload, records=[{"trial": 0}])
    with pytest.raises(ValueError):
        validate_document(broken)


def test_learn_records_the_correlation_copies_drawn():
    # 100 copies over 2n - 1 = 7 groups: 15 shots each, 105 drawn; exact mode and t = n draw 0
    base = dict(kind="learn", n=4, kappa=3, fixture="compressible", seed=3)
    cases = [(dict(t=1, mode="sampled", shots_override=100), 105),
             (dict(t=1, mode="exact"), 0),
             (dict(t=4, mode="sampled", shots_override=100), 0)]
    for fields, drawn in cases:
        record = run(ExperimentConfig(**base, **fields)).records[0]
        assert record["copies_correlation_drawn"] == drawn, fields
    assert record["copies_correlation"] == 100  # at t = n the budget is reported, not drawn


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_a_learn_run_builds_its_budget_once(mode):
    # one build serves the trial, run's ledger and validate_document's ledger
    cfg = ExperimentConfig(kind="learn", n=4, t=1, fixture="compressible", seed=11, mode=mode)
    harness._learn_budget.cache_clear()
    with mock.patch.object(harness, "hoeffding_budget", wraps=harness.hoeffding_budget) as build:
        doc = run(cfg)
    assert build.call_count == 1 and doc.records[0]["ok"]


def test_test_records_state_the_budget_and_an_override_under_it():
    # n = 4, t = 1, eps_b = 0.4: the formula asks for ~1.9M copies; 100 undercut it
    required = metrology.dimension_test_budget(4, 1, 0.0, 0.4, 1.0 / 3.0)
    assert required == math.ceil(16 * 4**3 / (0.16 / 3) ** 2 * math.log(4 * 4**2 * 3))
    drawn = metrology.copies_drawn(required, 4)
    cases = [(dict(mode="exact"), 0, False, 0),
             (dict(mode="exact", shots_override=5), 0, False, 0),
             (dict(mode="sampled", shots_override=100), required, True, 105),
             (dict(mode="sampled", shots_override=required), required, False, drawn),
             (dict(mode="sampled"), required, False, drawn)]
    for fields, budget, under, copies in cases:
        record = run(ExperimentConfig(kind="test", n=4, t=1, fixture="gaussian", seed=2, **fields)).records[0]
        assert (record["budget_required"], record["under_budget"], record["copies"]) == (budget, under, copies)


def test_document_validation_checks_the_test_budget():
    from fermidope.harness import validate_document

    cfg = ExperimentConfig(kind="test", n=4, t=1, fixture="gaussian", seed=2, mode="sampled",
                           shots_override=100)
    payload = json.loads(run(cfg).to_json())
    validate_document(payload)
    record = payload["records"][0]
    for key, value in (("under_budget", False), ("under_budget", 1), ("budget_required", 0),
                       ("budget_required", float(record["budget_required"])), ("copies", 100)):
        broken = dict(payload, records=[dict(record, **{key: value})])
        with pytest.raises(ValueError, match="test record"):
            validate_document(broken)
    missing = {k: v for k, v in record.items() if k != "under_budget"}
    with pytest.raises(ValueError, match="test record"):
        validate_document(dict(payload, records=[missing]))


def test_document_validation_checks_the_correlation_spend():
    from fermidope.harness import validate_document

    cfg = ExperimentConfig(kind="learn", n=4, t=1, kappa=3, fixture="compressible", seed=3,
                           mode="sampled", shots_override=100)
    payload = json.loads(run(cfg).to_json())
    validate_document(payload)
    record = payload["records"][0]
    for drawn in (100, 0, 105.0, None):
        broken = dict(payload, records=[dict(record, copies_correlation_drawn=drawn)])
        with pytest.raises(ValueError, match="learn record"):
            validate_document(broken)
    missing = {k: v for k, v in record.items() if k != "copies_correlation_drawn"}
    with pytest.raises(ValueError, match="learn record"):
        validate_document(dict(payload, records=[missing]))


def test_document_validation_checks_every_learn_copy_field():
    from fermidope.harness import validate_document

    cfg = ExperimentConfig(kind="learn", n=4, t=1, fixture="compressible", seed=3, mode="sampled",
                           shots_override=100)
    payload = json.loads(run(cfg).to_json())
    record = payload["records"][0]
    copy_fields = ("copies_correlation", "copies_correlation_drawn", "copies_loop")
    for broken in (dict(record, copies_loop=-3), dict(record, copies_correlation=93),
                   {k: v for k, v in record.items() if k not in copy_fields}):
        with pytest.raises(ValueError, match="^learn record"):
            validate_document(dict(payload, records=[broken]))


@pytest.mark.parametrize("config, message", [
    ({"kind": "test", "n": "4"}, "n must be an integer, got '4'"),
    ({"kind": "test", "n": 4.5}, "n must be an integer, got 4.5"),
    ({"kind": "test", "n": True}, "n must be an integer, got True"),
    ({"kind": "test", "eps_b": "0.4"}, "eps_b must be a number, got '0.4'"),
    ({"kind": "test", "shots_override": 1.5}, "shots_override must be an integer or None, got 1.5"),
    ({"kind": 3}, "kind must be a string, got 3"),
    ({"kind": "test", "bogus": 1}, "config has an unknown field 'bogus'"),
    ({"n": 4}, "config is missing 'kind'"),
])
def test_document_validation_rejects_a_mistyped_config_with_value_error(config, message):
    from fermidope.harness import validate_document

    payload = {"config": config, "seed": 0, "version": "0", "records": [],
               "summary": {"trials": 0, "ok_rate": 0.0, "acceptance_ok": True}}
    with pytest.raises(ValueError) as caught:
        validate_document(payload)
    assert str(caught.value) == message


@given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([math.nan, 0.0, -0.0, 1.0]),
                min_size=1, max_size=9))
def test_median_is_numpys_median(values):
    # odd and even counts, repeated values, NaN anywhere
    want = float(np.median(np.asarray(values, dtype=float)))
    got = _median(values)
    assert (math.isnan(got) and math.isnan(want)) or got == want


def test_median_cases():
    assert _median([3.0]) == 3.0
    assert _median([4.0, 1.0, 3.0]) == 3.0
    assert _median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert math.isnan(_median([1.0, math.nan, 2.0]))


def test_a_run_imports_no_masked_arrays():
    # np.median's NaN check imports numpy.ma; a fresh process running a document must not
    code = ("import sys; from fermidope.harness import ExperimentConfig, run; "
            "run(ExperimentConfig(kind='compress', n=4, t=1, trials=3)).to_json(); "
            "print('numpy.ma' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
