"""The benchmark's workloads: fixed experiment configs, seeds and output checks.

Each workload is a closed loop with one client: a request is one
``harness.run(ExperimentConfig(..., trials=1, seed=s))`` and the next request
is sent when the previous one has returned.  The per-request seeds ``s`` are
derived from the benchmark's ``--seed`` argument only, so one seed always
gives the same inputs.  This module imports nothing from the package, so the
orchestrator can use it before any child process has loaded numpy.
"""

from __future__ import annotations

import hashlib
import math

LEARN_SAMPLED = {
    "kind": "learn",
    "mode": "sampled",
    "fixture": "compressible",
    "eps": 0.25,
    "delta": 1.0 / 3.0,
    "budget": "hoeffding",
}

# name -> (ExperimentConfig fields, why the workload is in the benchmark)
WORKLOADS = {
    "compress-n12": (
        {"kind": "compress", "n": 12, "t": 2, "kappa": 4, "fixture": "doped"},
        "dense rotation kernel: 2 prepare calls per trial, each Gaussian layer compiled once "
        "and applied twice, no sampling or tomography; 1 client, 1 BLAS thread",
    ),
    "learn-n12": (
        {**LEARN_SAMPLED, "n": 12, "t": 3},
        "sampled learning: grouped correlation sampling compiles and applies 23 basis-change "
        "Gaussians once each, then normal form, post-selection, verify; 1 client, 1 BLAS thread",
    ),
    "tomography-n8": (
        {**LEARN_SAMPLED, "n": 8, "t": 5},
        "5-qubit tomography, 1023 Pauli to_matrix krons on a 256-amplitude register: bypasses "
        "statevector-kernel work, targets tomography work; 1 client, 1 BLAS thread",
    ),
}

# Documents hashed into the determinism digest, and trials in a traced run.
DIGEST_TRIALS = 10
# Fewest requests in a timed loop, so the tail percentile always exists.
MIN_TRIALS = 20


def config_fields(workload: str, seed: int) -> dict:
    fields, _ = WORKLOADS[workload]
    return {**fields, "trials": 1, "seed": seed}


def trial_seed(workload: str, seed: int, index) -> int:
    """Seed of request ``index`` (or of the warm-up request, index "warmup")."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def check_payload(workload: str, payload: dict) -> list:
    """Problems with one parsed result document, beyond the schema check.

    The record's own ``ok`` flag is the program's verdict; the checks here
    restate the contract of each kind from the record's fields, so a trial
    that reports ``ok`` while breaking it is still caught.
    """
    fields, _ = WORKLOADS[workload]
    problems = []
    config = payload["config"]
    for key, value in fields.items():
        if config.get(key) != value:
            problems.append(f"config {key} = {config.get(key)!r}, requested {value!r}")
    if not payload["summary"]["acceptance_ok"]:
        problems.append("summary acceptance_ok is false")
    if len(payload["records"]) != 1:
        problems.append(f"{len(payload['records'])} records for one trial")
    for record in payload["records"]:
        if record["ok"] is not True:
            problems.append(f"trial {record['trial']} ok is {record['ok']!r}")
        if fields["kind"] == "compress":
            core = fields["kappa"] * fields["t"]
            if record["core_qubits"] != core:
                problems.append(f"core_qubits {record['core_qubits']} != kappa*t = {core}")
            if not record["tail_weight"] <= 1e-8:
                problems.append(f"tail weight {record['tail_weight']:.3e} > 1e-8")
            if not record["reassembly_fidelity"] >= 1.0 - 1e-9:
                problems.append(f"reassembly fidelity {record['reassembly_fidelity']!r}")
            if record["gaussian_dimension"] < fields["n"] - core:
                problems.append(f"Gaussian dimension {record['gaussian_dimension']} < n - kappa*t")
        else:
            td, fid = record.get("trace_distance"), record.get("fidelity")
            if record.get("t_learn") != fields["t"]:
                problems.append(f"t_learn {record.get('t_learn')!r} != t = {fields['t']}")
            if td is None or not td <= fields["eps"]:
                problems.append(f"trace distance {td!r} exceeds eps = {fields['eps']}")
            elif not math.isclose(td * td + fid, 1.0, abs_tol=1e-9):
                problems.append(f"trace distance {td!r} and fidelity {fid!r} disagree")
            if not 0.0 < record.get("postselect_rate", 0.0) <= 1.0 + 1e-12:
                problems.append(f"post-select rate {record.get('postselect_rate')!r}")
    return problems
