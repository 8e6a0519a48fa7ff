"""Harness: config validation, determinism, sweeps, result documents."""

import json

import pytest

from fermidope.doped import prepare
from fermidope.harness import (
    ConfigError,
    ExperimentConfig,
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


def test_config_rejects_shots_override_below_one():
    for kind in ("test", "learn"):
        for bad in (0, -3):
            cfg = ExperimentConfig(kind=kind, t=0, mode="sampled", shots_override=bad)
            with pytest.raises(ConfigError, match="^shots_override must be >= 1$"):
                cfg.validate()
    ExperimentConfig(kind="test", t=0, mode="sampled", shots_override=1).validate()


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
    docs, csv_text = sweep(base, {"n": [4, 6], "t": [0, 1]})
    assert len(docs) == 4
    lines = csv_text.strip().splitlines()
    # header + 4 cells x (2 trials + 1 summary)
    assert len(lines) == 1 + 4 * 3
    assert sum(1 for ln in lines if ",summary," in ln) == 4


def test_sweep_single_cell_matches_run():
    base = ExperimentConfig(kind="compress", n=4, t=1, kappa=3, trials=2, seed=0)
    docs, _ = sweep(base, {"n": [6]})
    direct = run(ExperimentConfig(kind="compress", n=6, t=1, kappa=3, trials=2, seed=0))
    assert docs[0].to_json() == direct.to_json()


def test_sweep_empty_grid_is_header_only():
    base = ExperimentConfig(kind="compress", n=4, t=1, kappa=3, trials=1, seed=0)
    docs, csv_text = sweep(base, {"n": []})
    assert docs == []
    assert len(csv_text.strip().splitlines()) == 1


def test_sweep_partial_failure_recorded():
    base = ExperimentConfig(kind="compress", n=4, t=1, kappa=4, trials=1, seed=0)
    docs, csv_text = sweep(base, {"n": [4, 3]})  # n = 3 violates kappa*t <= n
    assert len(docs) == 1
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
