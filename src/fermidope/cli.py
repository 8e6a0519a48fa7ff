"""Command-line entry point.

Subcommands mirror the experiment kinds (prepare, compress, learn, test,
sweep) plus `verify` for checking a saved learned state against a saved
circuit.  Relative output paths resolve against $FERMIDOPE_OUT when it is
set.  Exit codes: 0 success, 2 precondition/configuration error,
3 statistical acceptance failure, 4 numerical failure or violated promise
(a compression that leaves weight outside its core, a failed linear-algebra
check, a post-selection outcome of zero probability).  A sweep with failing
cells exits as a single run of its first failing cell would.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .doped import CompressedForm, CompressionError, circuit_dumps, circuit_loads, prepare
from .harness import KINDS, ConfigError, ExperimentConfig, run, sweep, trials_csv
from .learner import verify
from .states import ZeroProbabilityError

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_STATISTICAL = 3
EXIT_NUMERICAL = 4

OUT_DIR_ENV = "FERMIDOPE_OUT"

# LinAlgError and ZeroProbabilityError subclass ValueError, so numerical errors are matched first
_NUMERICAL_ERRORS = (CompressionError, np.linalg.LinAlgError, ZeroProbabilityError)
_PRECONDITION_ERRORS = (ConfigError, ValueError, OSError)


def _resolve(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _write(path: str, text: str) -> None:
    path = _resolve(path)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}", file=sys.stderr)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, help="qubit count")
    p.add_argument("--t", type=int, help="non-Gaussian gate count / compression level")
    p.add_argument("--kappa", type=int, help="Majorana locality of each gate")
    p.add_argument("--seed", type=int, help="master seed; trials derive split streams")
    p.add_argument("--trials", type=int)
    p.add_argument("--mode", choices=("exact", "sampled"))
    p.add_argument("--out", help="write the result document (JSON) here")
    p.add_argument("--csv", help="write per-trial rows (CSV) here")


def _add_learn_flags(p: argparse.ArgumentParser):
    p.add_argument("--eps", type=float, help="target trace distance")
    p.add_argument("--delta", type=float, help="failure probability")
    p.add_argument("--fixture", choices=("doped", "compressible"))
    p.add_argument("--budget", choices=("default", "hoeffding"))
    p.add_argument("--c-tom", type=float, help="tomography budget constant")
    p.add_argument("--shots-override", type=int, help="replace the correlation copy count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fermidope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="prepare random doped states and report diagnostics")
    _add_common(p)
    p.add_argument("--save-circuit", help="write the first trial's circuit here")

    p = sub.add_parser("compress", help="compress doped states onto kappa*t qubits")
    _add_common(p)

    p = sub.add_parser("learn", help="learn a compressible state and verify it")
    _add_common(p)
    _add_learn_flags(p)
    p.add_argument("--save-state", help="write the first trial's learned state here")

    p = sub.add_parser("test", help="close/far test of the Gaussian dimension")
    _add_common(p)
    p.add_argument("--fixture", choices=("gaussian", "tplus", "compressible"))
    p.add_argument("--eps-a", type=float)
    p.add_argument("--eps-b", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--shots-override", type=int)

    p = sub.add_parser("sweep", help="cartesian sweep over n/t/kappa/eps with a CSV summary")
    _add_common(p)
    p.add_argument("--kind", choices=KINDS, default="compress")
    _add_learn_flags(p)
    p.add_argument("--eps-a", type=float)
    p.add_argument("--eps-b", type=float)
    p.add_argument("--grid-n", help="comma list, e.g. 4,6,8")
    p.add_argument("--grid-t", help="comma list")
    p.add_argument("--grid-kappa", help="comma list")
    p.add_argument("--grid-eps", help="comma list")
    p.add_argument("--grid-seed", help="comma list")

    p = sub.add_parser("verify", help="check a saved learned state against a saved circuit")
    p.add_argument("--learned", required=True, help="learned-state file")
    p.add_argument("--circuit", required=True, help="doped-circuit file")
    p.add_argument("--eps", type=float, default=ExperimentConfig.eps, help="acceptance threshold")
    return parser


def _config_from_args(args, kind: str) -> ExperimentConfig:
    """The config of the flags given; every other field keeps its ExperimentConfig default."""
    given = {spec.name: value for spec in fields(ExperimentConfig)
             if (value := getattr(args, spec.name, None)) is not None}
    return ExperimentConfig(**{**given, "kind": kind})


def _emit(doc, args) -> None:
    out = _resolve(args.out)
    if out:
        doc.write(out)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(doc.to_json())
    if args.csv:
        _write(args.csv, trials_csv(doc))
    print(f"wall clock: {doc.wall_clock_s:.3f}s", file=sys.stderr)


def _cmd_run(args, kind: str) -> int:
    doc = run(_config_from_args(args, kind))
    _emit(doc, args)
    if kind == "prepare" and args.save_circuit:
        _write(args.save_circuit, circuit_dumps(doc.artifacts["circuit"]))
    if kind == "learn" and args.save_state:
        if "learned" not in doc.artifacts:
            print(f"error: trial 0 learned no state ({doc.records[0]['boosting_failure']}); "
                  "nothing written to --save-state", file=sys.stderr)
            return EXIT_STATISTICAL
        _write(args.save_state, doc.artifacts["learned"].dumps())
    return EXIT_OK if doc.summary["acceptance_ok"] else EXIT_STATISTICAL


def _cmd_sweep(args) -> int:
    base = _config_from_args(args, args.kind)
    grid = {}
    for key, attr, cast in (("n", "grid_n", int), ("t", "grid_t", int),
                            ("kappa", "grid_kappa", int), ("eps", "grid_eps", float),
                            ("seed", "grid_seed", int)):
        raw = getattr(args, attr)
        if raw:
            grid[key] = [cast(x) for x in raw.split(",")]
    if not grid:
        raise ConfigError("sweep needs at least one --grid-* list")
    docs, csv_text, failures = sweep(base, grid)
    path = _resolve(args.csv) or _resolve(f"sweep-{args.kind}.csv")
    with open(path, "w") as fh:
        fh.write(csv_text)
    print(f"wrote {path} ({len(docs)} cells)", file=sys.stderr)
    if failures:
        # main exits as a single run of the first failing cell would
        cell, exc = failures[0]
        where = ", ".join(f"{key}={value}" for key, value in cell.items())
        print(f"error: {len(failures)} of {len(docs) + len(failures)} cells failed; "
              f"first ({where}): {type(exc).__name__}: {exc}", file=sys.stderr)
        raise exc
    bad = [d for d in docs if not d.summary["acceptance_ok"]]
    return EXIT_STATISTICAL if bad else EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.learned) as fh:
        learned = CompressedForm.loads(fh.read())
    with open(args.circuit) as fh:
        circuit = circuit_loads(fh.read())
    report = verify(learned, prepare(circuit))
    print(f"trace_distance {report.trace_distance!r}")
    print(f"fidelity {report.fidelity!r}")
    print(f"postselect_rate {report.postselect_rate!r}")
    return EXIT_OK if report.trace_distance <= args.eps else EXIT_STATISTICAL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_run(args, args.command)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
