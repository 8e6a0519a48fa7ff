"""Experiment orchestration: seeded runs, result documents, sweeps.

Every run derives one RNG stream per trial from the config seed via
SeedSequence.spawn, so serial and parallel execution agree and a repeated
run writes a byte-identical document.  Wall-clock time and trial 0's
artifacts (its doped circuit and learned state) are kept on the in-memory
document, never in the serialized payload; re-running with the same
config + seed reproduces the file exactly.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from . import __version__, metrology, ortho
from .doped import compress_state, prepare, random_doped_circuit, report_gate_counts
from .gaussian import GaussianUnitary
from .learner import (
    TOMOGRAPHY_LIMIT,
    BoostingFailureError,
    hoeffding_budget,
    learn,
    plan_budget,
    verify,
)
from .states import StateVector, embed_with_zero_tail, fidelity, postselect_zero_tail, product, random_state, zero_state

KINDS = ("prepare", "compress", "learn", "test")
FIXTURES = ("doped", "compressible", "gaussian", "tplus")


class ConfigError(ValueError):
    """An experiment configuration violates a precondition."""


# (accepted types, name) of each config field's JSON type, by its annotation; never a bool
_JSON_TYPES = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "int | None": ((int, type(None)), "an integer or None"),
}
# (field, predicate, message) for every numeric field; each field is named as its CLI flag
# spells it, with "_" for "-".  eps_a and eps_b are trace distances, so at most 1.
_RANGES = (
    ("n", lambda n: 1 <= n <= 12, "n must be in [1, 12] for the dense engine, got {}"),
    ("t", lambda t: t >= 0, "t must be >= 0, got {}"),
    ("kappa", lambda kappa: kappa >= 1, "kappa must be >= 1, got {}"),
    ("trials", lambda trials: trials >= 1, "trials must be >= 1, got {}"),
    ("shots_override", lambda shots: shots is None or shots >= 1, "shots_override must be >= 1"),
    ("eps", lambda eps: 0 < eps <= 1, "eps must be in (0, 1], got {}"),
    ("delta", lambda delta: 0 < delta <= 1, "delta must be in (0, 1], got {}"),
    ("eps_a", lambda eps_a: 0 <= eps_a <= 1, "eps_a must be in [0, 1], got {}"),
    ("eps_b", lambda eps_b: 0 < eps_b <= 1, "eps_b must be in (0, 1], got {}"),
    ("c_tom", lambda c_tom: c_tom > 0, "c_tom must be > 0, got {}"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int = 4
    t: int = 1
    kappa: int = 4
    eps: float = 0.25
    delta: float = 1.0 / 3.0
    eps_a: float = 0.0
    eps_b: float = 0.4
    seed: int = 0
    mode: str = "exact"
    trials: int = 1
    fixture: str = ""  # "" takes the kind's default: gaussian for test, doped for the rest
    budget: str = "hoeffding"
    c_tom: float = 1.0
    shots_override: int | None = None

    def __post_init__(self):
        if self.fixture == "":
            object.__setattr__(self, "fixture", "gaussian" if self.kind == "test" else "doped")

    def validate(self) -> "ExperimentConfig":
        for spec in fields(self):  # types first, so the checks below compare like with like
            value, (types, name) = getattr(self, spec.name), _JSON_TYPES[spec.type]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{spec.name} must be {name}, got {value!r}")
            if spec.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be a finite number, got {value}")
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.mode not in ("exact", "sampled"):
            raise ConfigError(f"mode must be exact or sampled, got {self.mode!r}")
        if self.fixture not in FIXTURES:
            raise ConfigError(f"fixture must be one of {FIXTURES}, got {self.fixture!r}")
        for name, holds, message in _RANGES:
            if not holds(getattr(self, name)):
                raise ConfigError(message.format(getattr(self, name)))
        if self.budget not in ("default", "hoeffding"):
            raise ConfigError(f"budget must be default or hoeffding, got {self.budget!r}")
        if self.kind in ("prepare", "compress") and self.fixture != "doped":
            raise ConfigError(f"kind {self.kind!r} requires the doped fixture")
        if self.kind == "compress" and self.kappa * self.t > self.n:
            raise ConfigError(f"compression needs kappa*t <= n, got {self.kappa * self.t} > {self.n}")
        if self.kind == "learn":
            if self.fixture not in ("doped", "compressible"):
                raise ConfigError("learn supports the doped and compressible fixtures")
            if self._learn_t() > self.n:
                raise ConfigError("learned core exceeds the register; reduce t or kappa")
            # checked before any trial samples; exact mode builds no Pauli strings, so has no limit
            if self.mode == "sampled" and self._learn_t() > TOMOGRAPHY_LIMIT:
                raise ConfigError(f"sampled learning's tomography is limited to {TOMOGRAPHY_LIMIT} qubits, "
                                  f"got a core of {self._learn_t()}; reduce t or kappa, or use exact mode")
        if self.kind == "test":
            if self.fixture == "doped":  # kappa*t > t: generally outside the tester's promise
                raise ConfigError("kind 'test' needs the gaussian, tplus or compressible fixture")
            if self.t >= self.n:
                raise ConfigError("test needs t < n")
            if self.eps_b <= np.sqrt((self.n - self.t) * self.eps_a):
                raise ConfigError("test needs eps_b > sqrt((n - t) * eps_a)")
            if self.fixture == "tplus" and self.t != 0:
                raise ConfigError("the tplus fixture is a far instance only for t = 0")
        return self

    def _learn_t(self) -> int:
        return self.t if self.fixture == "compressible" else min(self.kappa * self.t, self.n)

    def _gaussian_floor(self) -> int:
        """Least Gaussian dimension a doped state with these parameters has."""
        return max(self.n - self.kappa * self.t, 0)


@dataclass
class ResultDocument:
    config: dict
    seed: int
    version: str
    records: list
    summary: dict
    wall_clock_s: float = field(default=0.0, compare=False)
    # trial 0's objects: "circuit" (doped fixture), "learned" (learn kind, unless it failed)
    artifacts: dict = field(default_factory=dict, compare=False, repr=False)

    def payload(self) -> dict:
        # wall clock and artifacts stay out so identical config + seed => identical bytes
        return {
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "records": self.records,
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


_CONFIG_FIELDS = {spec.name for spec in fields(ExperimentConfig)}
_DOCUMENT_SHAPE = (("config", dict), ("seed", int), ("version", str),
                   ("records", list), ("summary", dict))


def validate_document(payload: dict) -> None:
    """Schema check of a (parsed) result document payload.

    Beyond the shape, every record but a boosting failure must hold exactly
    the copy fields ``_ledger`` computes from the config echo, as JSON
    integers and booleans.
    """
    if not isinstance(payload, dict):
        raise ValueError("result document is not a JSON object")
    for key, kind in _DOCUMENT_SHAPE:
        if key not in payload:
            raise ValueError(f"result document is missing {key!r}")
        if not isinstance(payload[key], kind):
            raise ValueError(f"result document field {key!r} is not a {kind.__name__}")
    for key in payload["config"]:
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config has an unknown field {key!r}")
    if "kind" not in payload["config"]:
        raise ValueError("config is missing 'kind'")
    config = ExperimentConfig(**payload["config"]).validate()  # config echo round-trips
    ledger = _ledger(config)
    for record in payload["records"]:
        if not isinstance(record, dict) or "trial" not in record or "ok" not in record:
            raise ValueError("malformed trial record")
        if "boosting_failure" in record:  # a failed learn trial spends no reported copies
            continue
        found = {key: record.get(key) for key in ledger}
        if found != ledger or list(map(type, found.values())) != list(map(type, ledger.values())):
            raise ValueError(f"{config.kind} record has {found}, expected {ledger}")
    for key in ("trials", "ok_rate", "acceptance_ok"):
        if key not in payload["summary"]:
            raise ValueError(f"summary is missing {key!r}")


def _tplus_state(n: int) -> StateVector:
    one = StateVector(1, np.array([1.0, np.exp(1j * np.pi / 4.0)]) / np.sqrt(2.0))
    out = one
    for _ in range(n - 1):
        out = product(out, one)
    return out


def _fixture(config: ExperimentConfig, rng):
    """Build the trial's input state plus fixture metadata."""
    if config.fixture == "doped":
        circuit = random_doped_circuit(config.n, config.t, config.kappa, rng)
        return prepare(circuit), {"circuit": circuit}
    if config.fixture == "compressible":
        g = GaussianUnitary(ortho.random_orthogonal(2 * config.n, rng), check=False)
        phi = random_state(config.t, rng)
        return g.apply(embed_with_zero_tail(phi, config.n)), {}
    if config.fixture == "gaussian":
        g = GaussianUnitary(ortho.random_orthogonal(2 * config.n, rng), check=False)
        return g.apply(zero_state(config.n)), {}
    return _tplus_state(config.n), {}


def _trial_prepare(config, rng):
    psi, meta = _fixture(config, rng)
    c = metrology.correlation_exact(psi)
    gdim = metrology.gaussian_dimension(c)
    counts = report_gate_counts(meta["circuit"])
    return {
        "gaussian_dimension": gdim,
        "lambdas": [float(x) for x in ortho.normal_eigenvalues(c)],
        "rotations": counts.rotations,
        "reflections": counts.reflections,
        "non_gaussian_terms": counts.non_gaussian_terms,
        "ok": gdim >= config._gaussian_floor(),
    }, meta


def _trial_compress(config, rng):
    psi, meta = _fixture(config, rng)
    form = compress_state(meta["circuit"])
    prob, _ = postselect_zero_tail(form.G.adjoint().apply(psi), form.core_qubits)
    tail_weight = 1.0 - prob
    gdim = metrology.gaussian_dimension(metrology.correlation_exact(psi))
    return {
        "core_qubits": form.core_qubits,
        "tail_weight": tail_weight,
        "reassembly_fidelity": fidelity(form.reassemble(), psi),
        "gaussian_dimension": gdim,
        "ok": tail_weight <= 1e-8 and gdim >= config._gaussian_floor(),
    }, meta


@lru_cache(maxsize=16)
def _learn_budget(config: ExperimentConfig, t_learn: int):
    """The run's one LearnBudget: its trials, its ledger and the document check share it."""
    make = plan_budget if config.budget == "default" else hoeffding_budget
    budget = make(config.n, t_learn, config.eps, config.delta, config.c_tom)
    return budget if config.shots_override is None else replace(budget, N_corr=config.shots_override)


def _ledger(config: ExperimentConfig) -> dict:
    """The copy fields of each record of a run, from its config alone.

    learn: the correlation and boosting budgets, and the copies the sampled
    correlation stage draws for its budget, up to 2n - 2 more; 0 when no
    such stage runs (exact mode, or t_learn = n, pure tomography).
    test: the copies the sampled tester draws (0 in exact mode), its
    formula count before the split into groups (``budget_required``) and
    whether ``shots_override`` undercuts that (``under_budget``).
    Other kinds spend no copies.
    """
    sampled = config.mode == "sampled"
    if config.kind == "learn":
        t_learn = config._learn_t()
        budget = _learn_budget(config, t_learn)
        drawn = metrology.copies_drawn(budget.N_corr, config.n) if sampled and t_learn < config.n else 0
        return {"copies_correlation": budget.N_corr, "copies_correlation_drawn": drawn,
                "copies_loop": budget.N_loop}
    if config.kind == "test":
        if not sampled:
            return {"copies": 0, "budget_required": 0, "under_budget": False}
        required = metrology.dimension_test_budget(config.n, config.t, config.eps_a, config.eps_b, config.delta)
        shots = required if config.shots_override is None else config.shots_override
        return {"copies": metrology.copies_drawn(shots, config.n), "budget_required": required,
                "under_budget": shots < required}
    return {}


def _trial_learn(config, rng):
    psi, meta = _fixture(config, rng)
    t_learn = config._learn_t()
    budget = _learn_budget(config, t_learn)
    threshold = 1e-6 if config.mode == "exact" else config.eps
    try:
        learned = learn(psi, config.n, t_learn, budget, mode=config.mode, rng=rng)
    except BoostingFailureError as exc:
        return {"t_learn": t_learn, "boosting_failure": str(exc), "ok": False}, meta
    report = verify(learned, psi)
    return {
        "t_learn": t_learn,
        "trace_distance": report.trace_distance,
        "fidelity": report.fidelity,
        "postselect_rate": report.postselect_rate,
        "term_tomography": report.term_tomography,
        "term_projection": report.term_projection,
        "ok": report.trace_distance <= threshold,
    }, {**meta, "learned": learned}


def _trial_test(config, rng):
    psi, meta = _fixture(config, rng)
    expected = "far" if config.fixture == "tplus" else "close"
    result = metrology.test_gaussian_dimension(
        psi,
        config.t,
        config.eps_a,
        config.eps_b,
        config.delta,
        rng=rng,
        shot_override=config.shots_override,
        mode=config.mode,
    )
    return {
        "verdict": result.verdict,
        "expected": expected,
        "lambda_t1": result.lambda_t1,
        "ok": result.verdict == expected,
    }, meta


# each trial returns (record, artifacts): the fixture's metadata plus what it built
_TRIALS = {
    "prepare": _trial_prepare,
    "compress": _trial_compress,
    "learn": _trial_learn,
    "test": _trial_test,
}


def _median(values: list) -> float:
    """np.median's float, without the import of numpy.ma that its NaN check makes a fresh process pay."""
    ordered, mid = sorted(map(float, values)), len(values) // 2
    if any(map(math.isnan, ordered)):
        return math.nan
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def _summarize(config: ExperimentConfig, records: list) -> dict:
    ok_rate = float(np.mean([r.get("ok", False) for r in records]))
    summary = {"trials": len(records), "ok_rate": ok_rate}
    metric = PRIMARY_METRIC[config.kind]
    values = [r[metric] for r in records if metric in r and not isinstance(r[metric], str)]
    if values:
        arr = np.asarray(values, dtype=float)
        summary[metric] = {
            "mean": float(arr.mean()),
            "median": _median(values),
            "min": float(arr.min()),
            "max": float(arr.max()),
        }
    if config.kind == "test":
        summary["error_rate"] = 1.0 - ok_rate
        summary["acceptance_ok"] = (1.0 - ok_rate) <= config.delta
    elif config.kind == "learn" and config.mode == "sampled":
        summary["acceptance_ok"] = ok_rate >= 1.0 - config.delta
    else:
        summary["acceptance_ok"] = ok_rate == 1.0
    return summary


PRIMARY_METRIC = {
    "prepare": "gaussian_dimension",
    "compress": "tail_weight",
    "learn": "trace_distance",
    "test": "lambda_t1",
}


def run(config: ExperimentConfig) -> ResultDocument:
    config = config.validate()
    start = time.perf_counter()
    streams = np.random.SeedSequence(config.seed).spawn(config.trials)
    ledger = _ledger(config)
    records = []
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        record, built = _TRIALS[config.kind](config, rng)
        if i == 0:
            artifacts = built
        if "boosting_failure" not in record:  # a failed learn trial spends no reported copies
            record.update(ledger)
        record["trial"] = i
        records.append(record)
    summary = _summarize(config, records)
    doc = ResultDocument(
        config=asdict(config),
        seed=config.seed,
        version=__version__,
        records=records,
        summary=summary,
        wall_clock_s=time.perf_counter() - start,
        artifacts=artifacts,
    )
    validate_document(doc.payload())
    return doc


def trials_csv(doc: ResultDocument) -> str:
    """Flat per-trial rows for one result document."""
    records = doc.records
    keys = sorted({k for r in records for k in r if k != "lambdas"})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for r in records:
        writer.writerow([r.get(k, "") for k in keys])
    return buf.getvalue()


SWEEPABLE = ("n", "t", "kappa", "eps", "seed", "mode", "fixture")


def sweep(base: ExperimentConfig, grid: dict) -> tuple:
    """Run the cartesian product of configs; never abort on a failing cell.

    Returns (documents, csv_text, failures) where the CSV holds one row per
    (cell, trial) plus one summary row per cell; cells that raise are
    recorded with their error message and the sweep continues.  ``failures``
    lists (cell, exception) for those cells, in grid order.
    """
    for key in grid:
        if key not in SWEEPABLE:
            raise ConfigError(f"cannot sweep over {key!r}; choose from {SWEEPABLE}")
    names = list(grid)
    metric_keys = ["trace_distance", "tail_weight", "gaussian_dimension", "lambda_t1",
                   "verdict", "ok"]
    header = names + ["row", "trial", *metric_keys, "mean", "median", "min", "max",
                      "ok_rate", "error"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)

    documents, failures = [], []
    for values in itertools.product(*(grid[k] for k in names)):
        cell = dict(zip(names, values))
        prefix = [cell[k] for k in names]
        try:
            doc = run(replace(base, **cell))
        except Exception as exc:  # noqa: BLE001 - partial failure is recorded, sweep continues
            failures.append((cell, exc))
            writer.writerow(prefix + ["error", "", *[""] * len(metric_keys),
                                      "", "", "", "", "", f"{type(exc).__name__}: {exc}"])
            continue
        documents.append(doc)
        for r in doc.records:
            writer.writerow(prefix + ["trial", r["trial"],
                                      *[r.get(k, "") for k in metric_keys],
                                      "", "", "", "", "", ""])
        stats = doc.summary.get(PRIMARY_METRIC[base.kind], {})
        writer.writerow(prefix + ["summary", "", *[""] * len(metric_keys),
                                  stats.get("mean", ""), stats.get("median", ""),
                                  stats.get("min", ""), stats.get("max", ""),
                                  doc.summary["ok_rate"], ""])
    return documents, buf.getvalue(), failures
