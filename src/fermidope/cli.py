"""Command-line entry point.

Subcommands mirror the experiment kinds (prepare, compress, learn, test,
sweep) plus `verify` for checking a saved learned state against a saved
circuit.  When $FERMIDOPE_OUT is set, relative paths resolve against it,
both the files written (--out, --csv, --save-circuit, --save-state) and
the files `verify` reads (--learned, --circuit), so `verify` finds what the
other subcommands saved.  Exit codes: 0 success, 2 precondition/configuration
error, 3 statistical acceptance failure, 4 numerical failure or violated promise
(a compression that leaves weight outside its core, a failed linear-algebra
check, a post-selection outcome of zero probability).  A sweep with failing
cells exits as a single run of its first failing cell would.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .doped import CompressedForm, CompressionError, DopedCircuit, prepare
from .harness import KIND_TABLE, KINDS, SWEEPABLE, ConfigError, ExperimentConfig, check_range, run, sweep, trials_csv
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


def _resolve(path: str) -> str:
    """``path``, under $FERMIDOPE_OUT when that is set and ``path`` is relative."""
    return os.path.join(os.environ.get(OUT_DIR_ENV, ""), path)


def _write(path: str, text: str, note: str = "") -> None:
    """Write ``text`` to ``path`` resolved; the only place $FERMIDOPE_OUT is created."""
    resolved = _resolve(path)
    if resolved != path:  # a relative path, with $FERMIDOPE_OUT set
        os.makedirs(os.environ[OUT_DIR_ENV], exist_ok=True)
    with open(resolved, "w") as fh:
        fh.write(text)
    print(f"wrote {resolved}{note}", file=sys.stderr)


def _add_common(p: argparse.ArgumentParser, fixtures: tuple):
    p.add_argument("--n", type=int, help="qubit count")
    p.add_argument("--t", type=int, help="non-Gaussian gate count / compression level")
    p.add_argument("--kappa", type=int, help="Majorana locality of each gate")
    p.add_argument("--seed", type=int, help="master seed; trials derive split streams")
    p.add_argument("--trials", type=int)
    if len(fixtures) > 1:  # a kind with one fixture runs on it, so offers no choice
        p.add_argument("--fixture", choices=fixtures)
    p.add_argument("--csv", help="write per-trial rows (CSV) here")


def _add_run(sub, kind: str, help: str) -> argparse.ArgumentParser:
    """The subcommand that runs one ``kind`` and writes its result document."""
    p = sub.add_parser(kind, help=help)
    _add_common(p, KIND_TABLE[kind][2])
    p.add_argument("--out", help="write the result document (JSON) here")
    return p


def _add_sampling_flags(p: argparse.ArgumentParser):
    p.add_argument("--mode", choices=("exact", "sampled"))
    p.add_argument("--delta", type=float, help="failure probability")
    p.add_argument("--shots-override", type=int, help="replace the budgeted copy count")


def _add_learn_flags(p: argparse.ArgumentParser):
    p.add_argument("--eps", type=float, help="target trace distance")
    p.add_argument("--budget", choices=("default", "hoeffding"))
    p.add_argument("--c-tom", type=float, help="tomography budget constant")


def _add_test_flags(p: argparse.ArgumentParser):
    p.add_argument("--eps-a", type=float)
    p.add_argument("--eps-b", type=float)


def _comma_list(cast):
    """An argparse type: a comma list, each value read by ``cast``."""
    def parse(text: str) -> list:
        return [cast(value) for value in text.split(",")]
    parse.__name__ = f"{cast.__name__} list"  # argparse names it in "invalid int list value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fermidope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_run(sub, "prepare", "prepare random doped states and report diagnostics")
    p.add_argument("--save-circuit", help="write the first trial's circuit here")

    _add_run(sub, "compress", "compress doped states onto kappa*t qubits")

    p = _add_run(sub, "learn", "learn a compressible state and verify it")
    _add_sampling_flags(p)
    _add_learn_flags(p)
    p.add_argument("--save-state", help="write the first trial's learned state here")

    p = _add_run(sub, "test", "close/far test of the Gaussian dimension")
    _add_sampling_flags(p)
    _add_test_flags(p)

    p = sub.add_parser("sweep", help="cartesian sweep over n/t/kappa/eps/seed with a CSV summary")
    _add_common(p, tuple(dict.fromkeys(name for _, _, fixtures in KIND_TABLE.values() for name in fixtures)))
    p.add_argument("--kind", choices=KINDS, default="compress")
    _add_sampling_flags(p)
    _add_learn_flags(p)
    _add_test_flags(p)
    for name in SWEEPABLE:  # each value read as its config field's annotated type
        cast = {"int": int, "float": float}[ExperimentConfig.__annotations__[name]]
        p.add_argument(f"--grid-{name}", type=_comma_list(cast), help="comma list")

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
    if args.out:
        _write(args.out, doc.to_json())
    else:
        sys.stdout.write(doc.to_json())
    if args.csv:
        _write(args.csv, trials_csv(doc))
    print(f"wall clock: {doc.wall_clock_s:.3f}s", file=sys.stderr)


def _cmd_run(args, kind: str) -> int:
    doc = run(_config_from_args(args, kind))
    _emit(doc, args)
    if kind == "prepare" and args.save_circuit:
        _write(args.save_circuit, doc.artifacts["circuit"].dumps())
    if kind == "learn" and args.save_state:
        if "learned" not in doc.artifacts:
            print(f"error: trial 0 learned no state ({doc.records[0]['boosting_failure']}); "
                  "nothing written to --save-state", file=sys.stderr)
            return EXIT_STATISTICAL
        _write(args.save_state, doc.artifacts["learned"].dumps())
    return EXIT_OK if doc.summary["acceptance_ok"] else EXIT_STATISTICAL


def _cmd_sweep(args) -> int:
    base = _config_from_args(args, args.kind)
    grid = {name: values for name in SWEEPABLE if (values := getattr(args, f"grid_{name}")) is not None}
    if not grid:
        raise ConfigError("sweep needs at least one --grid-* list")
    docs, csv_text, failures = sweep(base, grid)
    _write(args.csv or f"sweep-{args.kind}.csv", csv_text, f" ({len(docs)} cells)")
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
    check_range("eps", args.eps)  # the threshold is a learn run's eps, so it has eps's range
    learned = CompressedForm.loads(Path(_resolve(args.learned)).read_text())
    circuit = DopedCircuit.loads(Path(_resolve(args.circuit)).read_text())
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
