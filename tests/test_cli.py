"""CLI subcommands, exit codes, and artifact round trips."""

import contextlib
import functools
import io
import json
import re
import shlex
import warnings
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidope import harness
from fermidope.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_STATISTICAL,
    _config_from_args,
    build_parser,
    main,
)
from fermidope.doped import CompressedForm, CompressionError, DopedCircuit
from fermidope.harness import KIND_TABLE, KINDS, ExperimentConfig, run
from fermidope.states import ZeroProbabilityError

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("out_dir", [None, "out"], ids=["unset", "set"])
def test_readme_command_lines_and_quick_start_run(out_dir, tmp_path, monkeypatch):
    # the command lines run in order in an empty directory (verify reads the files the two
    # lines before it write) and each exits 0; with $FERMIDOPE_OUT set to a subdirectory,
    # every file lands there, verify reads them there, and the working directory holds
    # nothing else; then the quick-start block runs as written
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) == 8 and all(argv[0] == "fermidope" for argv in commands)
    if out_dir is None:
        monkeypatch.delenv("FERMIDOPE_OUT", raising=False)
    else:
        monkeypatch.setenv("FERMIDOPE_OUT", str(tmp_path / out_dir))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv
    written = {"prep.json", "rows.csv", "learn.json", "sweep.csv", "c.txt", "p.json", "s.txt", "l.json"}
    if out_dir is None:
        assert {path.name for path in tmp_path.iterdir()} == written
    else:
        assert [path.name for path in tmp_path.iterdir()] == [out_dir]
        assert {path.name for path in (tmp_path / out_dir).iterdir()} == written
    exec(text.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0], {})


@pytest.mark.parametrize("kind", ["prepare", "compress", "learn", "test"])
def test_flags_left_out_keep_the_config_defaults(kind, capsys):
    main([kind])
    default = ExperimentConfig(kind=kind, **({"fixture": "gaussian"} if kind == "test" else {}))
    assert json.loads(capsys.readouterr().out)["config"] == asdict(default)


def test_sweep_flags_left_out_keep_the_config_defaults():
    args = build_parser().parse_args(["sweep"])
    assert _config_from_args(args, args.kind) == ExperimentConfig(kind="compress")


def test_parser_defaults_and_choices_come_from_the_harness():
    # verify --eps defaults to ExperimentConfig.eps, sweep --kind offers harness.KINDS and each
    # --fixture offers the fixtures KIND_TABLE lists; none is written again in the parser
    with mock.patch.object(ExperimentConfig, "eps", 0.125):
        args = build_parser().parse_args(["verify", "--learned", "s.txt", "--circuit", "c.txt"])
    assert args.eps == 0.125
    subcommands = next(action for action in build_parser()._actions if action.dest == "command")

    def choices(command, dest):
        found = [action.choices for action in subcommands.choices[command]._actions if action.dest == dest]
        return tuple(found[0]) if found else None

    assert choices("sweep", "kind") == KINDS
    assert choices("prepare", "fixture") is None and choices("compress", "fixture") is None
    assert choices("learn", "fixture") == KIND_TABLE["learn"][2] == ("doped", "compressible")
    assert choices("test", "fixture") == KIND_TABLE["test"][2] == ("gaussian", "tplus", "compressible")
    assert choices("sweep", "fixture") == ("doped", "compressible", "gaussian", "tplus")


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--kind", "compress", "--t", "0", "--grid-n", "3", "--out", "x.json"],
     "unrecognized arguments: --out x.json"),  # sweep writes only its CSV
    (["prepare", "--mode", "sampled"], "unrecognized arguments: --mode sampled"),  # no trial reads it
    (["compress", "--mode", "exact"], "unrecognized arguments: --mode exact"),
    (["sweep", "--grid-n", "4,x"], "argument --grid-n: invalid int list value: '4,x'"),
])
def test_flags_a_subcommand_would_ignore_or_misread_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    err = capsys.readouterr().err
    assert caught.value.code == EXIT_PRECONDITION
    assert err.count("error:") == 1 and err.endswith(f"error: {message}\n") and "Traceback" not in err


def test_oversized_sampled_learn_is_rejected_before_any_trial(capsys, monkeypatch):
    # kappa * t = 8 core qubits: past the tomography limit, so the config check refuses the
    # run before trial 0 samples correlations
    _, metric, fixtures = harness.KIND_TABLE["learn"]
    monkeypatch.setitem(harness.KIND_TABLE, "learn", (lambda *args: pytest.fail("a trial ran"), metric, fixtures))
    assert main(["learn", "--n", "12", "--t", "2", "--kappa", "4", "--mode", "sampled"]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        "error: sampled learning's tomography is limited to 6 qubits, got a core of 8; "
        "reduce t or kappa, or use exact mode\n")


def test_the_test_kind_takes_its_fixture_default_from_the_config(capsys):
    # no --fixture: test and sweep --kind test run on the gaussian fixture, as ExperimentConfig says
    main(["test"])
    assert json.loads(capsys.readouterr().out)["config"]["fixture"] == "gaussian"
    args = build_parser().parse_args(["sweep", "--kind", "test"])
    assert _config_from_args(args, args.kind) == ExperimentConfig(kind="test")


def test_prepare_writes_document_and_circuit(tmp_path, capsys):
    out = tmp_path / "doc.json"
    circuit = tmp_path / "circuit.txt"
    code = main(["prepare", "--n", "4", "--t", "1", "--kappa", "3", "--seed", "3",
                 "--trials", "2", "--out", str(out), "--save-circuit", str(circuit)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["kind"] == "prepare"
    assert circuit.read_text().startswith("doped-circuit v1")


def test_save_circuit_is_trial_zeros_circuit(tmp_path):
    circuit = tmp_path / "circuit.txt"
    assert main(["prepare", "--n", "6", "--t", "2", "--kappa", "3", "--seed", "8", "--trials", "3",
                 "--out", str(tmp_path / "p.json"), "--save-circuit", str(circuit)]) == EXIT_OK
    cfg = ExperimentConfig(kind="prepare", n=6, t=2, kappa=3, seed=8, trials=3)
    assert circuit.read_text() == run(cfg).artifacts["circuit"].dumps()


def test_save_state_after_boosting_failure_exits_statistical(tmp_path, capsys):
    out, state = tmp_path / "l.json", tmp_path / "s.txt"
    code = main(["learn", "--n", "6", "--t", "1", "--kappa", "4", "--mode", "sampled",
                 "--fixture", "compressible", "--shots-override", "11", "--seed", "1",
                 "--save-state", str(state), "--out", str(out)])
    assert code == EXIT_STATISTICAL
    assert "boosting_failure" in json.loads(out.read_text())["records"][0]
    assert not state.exists()
    assert "error:" in capsys.readouterr().err


def test_a_sampled_learn_with_an_empty_zero_tail_records_a_boosting_failure(tmp_path, capsys):
    # one correlation copy gives a G_hat that flips parity, so trial 1 post-selects nothing:
    # that trial records a boosting failure and the run goes on
    out = tmp_path / "l.json"
    code = main(["learn", "--n", "4", "--t", "0", "--trials", "2", "--eps", "1e-3", "--delta", "0.5",
                 "--shots-override", "1", "--mode", "sampled", "--fixture", "compressible",
                 "--seed", "0", "--out", str(out)])
    assert code == EXIT_STATISTICAL
    records = json.loads(out.read_text())["records"]
    assert len(records) == 2 and not records[1]["ok"]
    assert records[1]["boosting_failure"].startswith("0 post-selection successes < N_tom = ")


def test_compress_stdout(capsys):
    code = main(["compress", "--n", "4", "--t", "1", "--kappa", "4", "--seed", "2"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["acceptance_ok"] is True


def test_learn_then_verify_round_trip(tmp_path):
    circuit = tmp_path / "circuit.txt"
    state = tmp_path / "learned.txt"
    assert main(["prepare", "--n", "4", "--t", "1", "--kappa", "3", "--seed", "5",
                 "--out", str(tmp_path / "p.json"), "--save-circuit", str(circuit)]) == EXIT_OK
    assert main(["learn", "--n", "4", "--t", "1", "--kappa", "3", "--seed", "5",
                 "--mode", "exact", "--out", str(tmp_path / "l.json"),
                 "--save-state", str(state)]) == EXIT_OK
    # same seed regenerates the same fixture, so the saved state matches
    assert main(["verify", "--learned", str(state), "--circuit", str(circuit),
                 "--eps", "1e-6"]) == EXIT_OK
    # an absurdly tight threshold flips the exit code to the statistical failure
    assert main(["verify", "--learned", str(state), "--circuit", str(circuit),
                 "--eps", "1e-300"]) == EXIT_STATISTICAL


@pytest.mark.parametrize("eps", ["nan", "-1", "0", "5", "inf"])
def test_verify_eps_outside_the_unit_interval_is_precondition_error(tmp_path, capsys, eps):
    # a threshold outside (0, 1] once decided the exit code: nan and -1 failed, 5 and inf passed
    circuit, state = _saved_circuit_and_state(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--learned", str(state), "--circuit", str(circuit), "--eps", eps]) == EXIT_PRECONDITION
    assert capsys.readouterr() == ("", f"error: eps must be in (0, 1], got {float(eps)}\n")


def _saved_circuit_and_state(tmp_path):
    """The n = 4, t = 1 circuit of seed 5 and the state learned from it, saved as files."""
    circuit, state = tmp_path / "circuit.txt", tmp_path / "learned.txt"
    assert main(["prepare", "--n", "4", "--t", "1", "--kappa", "3", "--seed", "5",
                 "--out", str(tmp_path / "p.json"), "--save-circuit", str(circuit)]) == EXIT_OK
    assert main(["learn", "--n", "4", "--t", "1", "--kappa", "3", "--seed", "5", "--mode", "exact",
                 "--out", str(tmp_path / "l.json"), "--save-state", str(state)]) == EXIT_OK
    return circuit, state


def _corrupt(path, after, token, value):
    """A copy of ``path``: field ``token`` of the line after ``after...`` is ``value``.

    Returns the copy's path and the 1-based number of the changed line.
    """
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith(after)) + 1
    fields = lines[k].split()
    fields[token] = value
    lines[k] = " ".join(fields)
    bad = path.parent / f"bad-{len(list(path.parent.iterdir()))}.txt"
    bad.write_text("\n".join(lines) + "\n")
    return str(bad), k + 1


def test_verify_truncated_state_is_precondition_error(tmp_path, capsys):
    circuit, state = _saved_circuit_and_state(tmp_path)
    state.write_bytes(state.read_bytes()[:200])
    assert main(["verify", "--learned", str(state), "--circuit", str(circuit)]) == EXIT_PRECONDITION
    assert "error: line " in capsys.readouterr().err


def test_verify_missing_state_file_is_precondition_error(tmp_path, capsys):
    circuit = tmp_path / "circuit.txt"
    assert main(["prepare", "--n", "4", "--t", "1", "--kappa", "3", "--seed", "5",
                 "--out", str(tmp_path / "p.json"), "--save-circuit", str(circuit)]) == EXIT_OK
    capsys.readouterr()
    missing = tmp_path / "missing.txt"
    assert main(["verify", "--learned", str(missing), "--circuit", str(circuit)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.txt" in err and "Traceback" not in err


def test_verify_of_another_register_size_names_both_sizes(tmp_path, capsys):
    circuit, _ = _saved_circuit_and_state(tmp_path)
    state = tmp_path / "learned-n5.txt"
    assert main(["learn", "--n", "5", "--t", "1", "--kappa", "3", "--seed", "5", "--mode", "exact",
                 "--out", str(tmp_path / "l5.json"), "--save-state", str(state)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--learned", str(state), "--circuit", str(circuit)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == "error: learned state has 5 qubits, true state has 4\n"


@pytest.mark.parametrize("n", [13, 40])
def test_verify_of_a_register_above_the_cap_is_precondition_error(tmp_path, capsys, n):
    # identity blocks and t = 0, so only n is out of range; each loader refuses it first,
    # before the verify below could build a 2^n state (16 TiB at n = 40)
    eye = "\n".join(" ".join(["1.0" if i == k else "0.0" for k in range(2 * n)]) for i in range(2 * n))
    state, circuit = tmp_path / "s.txt", tmp_path / "c.txt"
    state.write_text(f"learned-state v1\nn {n}\nt 0\nO\n{eye}\nphi\n1.0 0.0\n")
    circuit.write_text(f"doped-circuit v1\nn {n}\nkappa 1\nt 0\ngaussian 0\n{eye}\n")
    expected = "line 2: expected 'n <count>' at most 12, the dense engine's limit"
    for loads, path in ((CompressedForm.loads, state), (DopedCircuit.loads, circuit)):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            loads(path.read_text())
    assert main(["verify", "--learned", str(state), "--circuit", str(circuit)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_verify_non_finite_input_is_precondition_error(tmp_path, capfd):
    circuit, state = _saved_circuit_and_state(tmp_path)
    capfd.readouterr()
    rows_of = "a matrix row of {} numbers".format
    phi, phi_line = _corrupt(state, "phi", 0, "nan")
    o_hat, o_line = _corrupt(state, "O", 0, "nan")
    theta, theta_line = _corrupt(circuit, "gate 1 terms", -1, "nan")
    gaussian, gaussian_line = _corrupt(circuit, "gaussian 0", 0, "inf")
    # finite, but no entry of a unit vector or an orthogonal matrix; numpy would overflow on it
    huge_phi, huge_phi_line = _corrupt(state, "phi", 1, "1e308")
    huge_gaussian, huge_gaussian_line = _corrupt(circuit, "gaussian 0", 1, "-1e308")
    cases = (  # (--learned, --circuit, line of the error, what it expected)
        (phi, str(circuit), phi_line, rows_of(2)),
        (o_hat, str(circuit), o_line, rows_of(8)),
        (str(state), theta, theta_line, "'term <indices> theta <angle>'"),
        (str(state), gaussian, gaussian_line, rows_of(8)),
        (huge_phi, str(circuit), huge_phi_line, rows_of(2)),
        (str(state), huge_gaussian, huge_gaussian_line, rows_of(8)),
    )
    for learned, circuit_path, line, expected in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify", "--learned", learned, "--circuit", circuit_path])
        assert code == EXIT_PRECONDITION and caught == [], (learned, circuit_path)
        # capfd reads the stderr descriptor, so LAPACK messages written past sys.stderr show too
        assert capfd.readouterr() == ("", f"error: line {line}: expected {expected}\n")


def test_verify_of_a_state_with_a_row_past_its_end_is_precondition_error(tmp_path, capsys):
    circuit, state = _saved_circuit_and_state(tmp_path)
    assert main(["verify", "--learned", str(state), "--circuit", str(circuit), "--eps", "1e-6"]) == EXIT_OK
    state.write_text(state.read_text() + "0.0 0.0\n")
    capsys.readouterr()
    assert main(["verify", "--learned", str(state), "--circuit", str(circuit), "--eps", "1e-6"]) == EXIT_PRECONDITION
    assert capsys.readouterr() == ("", "error: line 22: expected end of document\n")


def test_non_orthogonal_rotations_are_rejected_at_their_line(tmp_path, capfd):
    circuit, state = _saved_circuit_and_state(tmp_path)
    capfd.readouterr()
    # 0.5 passes every row check, but the 8 rows no longer form an orthogonal matrix
    o_hat, o_line = _corrupt(state, "O", 0, "0.5")
    gaussian, gaussian_line = _corrupt(circuit, "gaussian 1", 0, "0.5")
    orthogonal = "expected 8 rows ending here that form an orthogonal matrix"
    last_row = 7  # the error names the block's last row
    for path, loader, line in ((o_hat, CompressedForm.loads, o_line + last_row),
                               (gaussian, DopedCircuit.loads, gaussian_line + last_row)):
        with open(path) as f, pytest.raises(ValueError, match=f"^line {line}: {orthogonal}$"):
            loader(f.read())
    for learned, circuit_path, line in ((o_hat, str(circuit), o_line + last_row),
                                        (str(state), gaussian, gaussian_line + last_row)):
        assert main(["verify", "--learned", learned, "--circuit", circuit_path]) == EXIT_PRECONDITION
        assert capfd.readouterr() == ("", f"error: line {line}: {orthogonal}\n")


@functools.cache
def _dumped_files() -> dict:
    """Trial 0's circuit and learned state at n = 3, as their loaders' inputs."""
    doc = run(ExperimentConfig(kind="learn", n=3, t=1, kappa=2, seed=5, mode="exact"))
    return {DopedCircuit.loads: doc.artifacts["circuit"].dumps(),
            CompressedForm.loads: doc.artifacts["learned"].dumps()}


# numbers past each bound the loaders check, edge numbers within them, a non-number, a keyword
FUZZ_TOKENS = ("1e308", "-1e200", "1.5", "nan", "-0.0", "5e-324", "9" * 30, "x", "t", "\n")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), loader=st.sampled_from([DopedCircuit.loads, CompressedForm.loads]),
       edits=st.lists(st.sampled_from(["mutate", "delete", "duplicate", "reorder", "truncate"]),
                      min_size=1, max_size=3))
def test_loaders_return_or_raise_value_error_on_mangled_files(data, loader, edits):
    # newlines are tokens too, so edits move, merge and split lines
    tokens = re.findall(r"\S+|\n", _dumped_files()[loader])
    for edit in edits:
        if not tokens:
            break
        i, j = (data.draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
        if edit == "truncate":
            del tokens[i:]
        elif edit == "reorder":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif edit == "duplicate":
            tokens.insert(j, tokens[i])
        elif edit == "delete":
            del tokens[i]
        else:
            tokens[i] = data.draw(st.sampled_from(FUZZ_TOKENS))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loader(" ".join(tokens))
        except ValueError as exc:  # every fault in a document is named by its line
            assert re.match(r"^line \d+: ", str(exc)), exc
    assert caught == []


def test_precondition_exit_code(capsys):
    assert main(["compress", "--n", "3", "--t", "1", "--kappa", "4"]) == EXIT_PRECONDITION
    assert "error:" in capsys.readouterr().err


def test_compression_error_is_numerical_exit_code(monkeypatch, capsys):
    message = "trailing qubits carry weight 1.000e-03 after compression (tol 1e-08)"

    def leaky(circuit):
        raise CompressionError(message)

    monkeypatch.setattr(harness, "compress_state", leaky)
    assert main(["compress", "--n", "4", "--t", "1", "--kappa", "3"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"error: {message}\n"


def test_linalg_error_is_numerical_exit_code(monkeypatch, capsys):
    message = "compression rotation left residual outside the span"

    def unstable(circuit):
        raise np.linalg.LinAlgError(message)

    monkeypatch.setattr(harness, "compress_state", unstable)
    assert main(["compress", "--n", "4", "--t", "1", "--kappa", "3"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"error: {message}\n"


def test_zero_probability_error_is_numerical_exit_code(monkeypatch, capsys):
    message = "all-zero tail outcome has probability 0.0"

    def violated(*args, **kwargs):
        raise ZeroProbabilityError(message)

    monkeypatch.setattr(harness, "learn", violated)
    assert main(["learn", "--n", "4", "--t", "1", "--kappa", "3"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"error: {message}\n"


def test_shots_override_below_one_is_precondition_error(capsys):
    for args in (["test", "--n", "4", "--t", "1", "--mode", "sampled", "--shots-override", "-3"],
                 ["test", "--n", "4", "--t", "1", "--mode", "sampled", "--shots-override", "0"],
                 ["learn", "--n", "4", "--t", "1", "--mode", "sampled", "--shots-override", "-5"]):
        assert main(args) == EXIT_PRECONDITION
        assert "error: shots_override must be >= 1" in capsys.readouterr().err


HUGE = "100000000000000000000"  # 10^20 copies, past every draw a sampled stage can make
READOUT_LIMIT = "shots per group exceed the exact-readout limit 2^53"


def _assert_one_line_precondition_error(args, prefix, limit, capsys):
    assert main(args) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}: ") and err.count("\n") == 1
    assert limit in err


def test_huge_test_override_is_precondition_error(capsys):
    _assert_one_line_precondition_error(
        ["test", "--n", "2", "--t", "0", "--mode", "sampled", "--shots-override", HUGE],
        "correlation sampling", READOUT_LIMIT, capsys)


def test_huge_learn_override_is_precondition_error(capsys):
    _assert_one_line_precondition_error(
        ["learn", "--n", "3", "--t", "1", "--mode", "sampled", "--fixture", "compressible",
         "--shots-override", HUGE], "correlation sampling", READOUT_LIMIT, capsys)


def test_tiny_learn_eps_is_precondition_error(capsys):
    # every stage's count is past its limit; N_loop is checked before any stage runs
    _assert_one_line_precondition_error(
        ["learn", "--n", "3", "--t", "1", "--mode", "sampled", "--fixture", "compressible",
         "--eps", "1e-6"], "boosting, N_loop", "copies reach the binomial draw limit 2^63", capsys)


def test_tiny_test_eps_b_is_precondition_error(capsys):
    _assert_one_line_precondition_error(
        ["test", "--n", "3", "--t", "0", "--mode", "sampled", "--eps-b", "1e-7"],
        "correlation sampling", READOUT_LIMIT, capsys)


@pytest.mark.parametrize("args, message", [
    (["learn", "--n", "4", "--t", "1", "--c-tom", "inf"], "c_tom must be a finite number, got inf"),
    (["test", "--n", "4", "--t", "0", "--mode", "sampled", "--delta", "1e-320"],
     "dimension test: inf is not a finite number of copies"),
    (["learn", "--n", "4", "--t", "1", "--eps", "1e-100"], "N_corr: inf is not a finite number of copies"),
    (["test", "--n", "4", "--t", "0", "--eps-a", "nan"], "eps_a must be a finite number, got nan"),
    (["test", "--n", "4", "--t", "0", "--eps-b", "inf"], "eps_b must be a finite number, got inf"),
])
def test_non_finite_or_degenerate_float_is_precondition_error(args, message, capsys):
    # an infinite copy count or a non-finite input would end in a traceback or in invalid JSON
    assert main(args) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["learn", "--n", "4", "--t", "1", "--c-tom", "-1", "--mode", "exact"], "c_tom must be > 0, got -1.0"),
    (["test", "--n", "4", "--t", "0", "--eps-a", "-1"], "eps_a must be in [0, 1], got -1.0"),
])
def test_out_of_range_float_is_precondition_error(args, message, capsys):
    # a finite value out of its range once wrote negative copy counts or failed in math.sqrt
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == EXIT_PRECONDITION
    assert caught == [] and capsys.readouterr() == ("", f"error: {message}\n")


def _reject_constant(name):
    raise ValueError(f"document holds the non-JSON constant {name}")


FLOAT_EDGES = ("0", "-0.0", "-1", "-2.5", "5e-324", "2.2e-308", "1e-300", "1e300", "1e400", "-1e400",
               "nan", "inf", "-inf", "one", "", "0.1", "0.5", "1", "3")
INT_EDGES = ("0", "-1", "1", "7", "1000", "100000000000000000000", "1e3", "nan", "one", "")
FUZZED_FLAGS = {"learn": ("c-tom", "eps", "delta"), "test": ("eps-a", "eps-b", "delta")}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["learn", "test"]), n=st.integers(2, 4),
       mode=st.sampled_from(["exact", "sampled"]), seed=st.integers(0, 3))
def test_cli_edge_values_never_crash(data, kind, n, mode, seed):
    # every flag value, in range or not, ends in a document or one "error:" line with a
    # precondition, statistical or numerical exit code; never a traceback or a warning
    argv = [kind, f"--n={n}", f"--t={min(1, n - 1)}", "--kappa=3", f"--mode={mode}", f"--seed={seed}"]
    flags = [(flag, FLOAT_EDGES) for flag in FUZZED_FLAGS[kind]] + [("shots-override", INT_EDGES)]
    for flag, edges in flags:
        value = data.draw(st.none() | st.sampled_from(edges), label=flag)
        if value is not None:
            argv.append(f"--{flag}={value}")  # "=" keeps a value like -1e400 from reading as a flag
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects text that is not a number
            code = exc.code
    assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_STATISTICAL, EXIT_NUMERICAL), argv
    assert caught == [], argv
    assert err.getvalue().count("error:") <= 1 and "Traceback" not in err.getvalue(), argv
    if out.getvalue():
        harness.validate_document(json.loads(out.getvalue(), parse_constant=_reject_constant))


def test_test_subcommand(tmp_path):
    out = tmp_path / "t.json"
    code = main(["test", "--n", "4", "--t", "0", "--fixture", "tplus", "--mode", "sampled",
                 "--trials", "3", "--seed", "4", "--shots-override", "50000",
                 "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert all(r["expected"] == "far" for r in doc["records"])


def test_sampled_test_reports_the_copies_drawn(capsys):
    # one copy requested, but each of the 2n - 1 = 7 groups draws a shot
    assert main(["test", "--n", "4", "--t", "1", "--mode", "sampled",
                 "--shots-override", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["records"][0]["copies"] == 7


def test_known_exit3_test_run_reports_it_is_under_budget(capsys):
    # 100,000 copies against the formula's 136,064,814: the far verdict on a Gaussian is explained
    assert main(["test", "--n", "8", "--t", "0", "--fixture", "gaussian", "--mode", "sampled",
                 "--shots-override", "100000"]) == EXIT_STATISTICAL
    record = json.loads(capsys.readouterr().out)["records"][0]
    assert record["under_budget"] is True
    assert (record["budget_required"], record["copies"]) == (136064814, 100005)


def test_sweep_writes_csv(tmp_path):
    csv_path = tmp_path / "grid.csv"
    code = main(["sweep", "--kind", "compress", "--kappa", "3", "--trials", "2",
                 "--grid-n", "4,6", "--grid-t", "0,1", "--csv", str(csv_path)])
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 3


def test_test_kind_sweeps_the_gaussian_fixture_and_rejects_the_doped_one(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    assert main(["sweep", "--kind", "test", "--t", "0", "--grid-n", "3", "--csv", str(csv_path)]) == EXIT_OK
    code = main(["sweep", "--kind", "test", "--fixture", "doped", "--grid-n", "6", "--csv", str(csv_path)])
    assert code == EXIT_PRECONDITION
    assert "ConfigError: kind 'test' needs the gaussian, tplus or compressible fixture" in capsys.readouterr().err


def test_test_kind_sweeps_the_tplus_fixture(tmp_path):
    # --fixture on sweep offers every fixture; tplus at t = 0 is the tester's far instance
    csv_path = tmp_path / "grid.csv"
    assert main(["sweep", "--kind", "test", "--fixture", "tplus", "--t", "0", "--grid-n", "3,4",
                 "--csv", str(csv_path)]) == EXIT_OK
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [(row[0], row[7]) for row in rows if row[1] == "trial"] == [("3", "far"), ("4", "far")]


def test_sweep_with_a_failing_cell_exits_like_its_single_run(tmp_path, capsys):
    # t = 5 >= n = 4 is a configuration error: exit 2, as `test --n 4 --t 5` gives
    csv_path = tmp_path / "grid.csv"
    code = main(["sweep", "--kind", "test", "--grid-n", "4", "--grid-t", "1,5", "--csv", str(csv_path)])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION == main(["test", "--n", "4", "--t", "5"])
    assert "error: 1 of 2 cells failed; first (n=4, t=5): ConfigError: test needs t < n" in err
    lines = csv_path.read_text().strip().splitlines()
    assert lines[-1].startswith("4,5,error,") and sum(",summary," in ln for ln in lines) == 1
    # the same with no cell left to run
    code = main(["sweep", "--kind", "test", "--grid-n", "4", "--grid-t", "5", "--csv", str(csv_path)])
    assert code == EXIT_PRECONDITION
    assert "error: 1 of 1 cells failed" in capsys.readouterr().err


def test_sweep_with_a_numerical_failure_exits_4(tmp_path, monkeypatch, capsys):
    compress_state = harness.compress_state

    def leaky_at_n6(circuit):
        if circuit.n == 6:
            raise CompressionError("trailing qubits carry weight")
        return compress_state(circuit)

    monkeypatch.setattr(harness, "compress_state", leaky_at_n6)
    code = main(["sweep", "--kind", "compress", "--kappa", "3", "--grid-n", "4,6,8", "--grid-t", "1",
                 "--csv", str(tmp_path / "grid.csv")])
    assert code == EXIT_NUMERICAL
    assert "error: 1 of 3 cells failed; first (n=6, t=1): CompressionError" in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMIDOPE_OUT", str(tmp_path / "results"))
    code = main(["compress", "--n", "4", "--t", "1", "--kappa", "4", "--seed", "1",
                 "--out", "doc.json"])
    assert code == EXIT_OK
    assert (tmp_path / "results" / "doc.json").exists()


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["learn", "--n", "4", "--t", "1", "--kappa", "3", "--seed", "9",
            "--mode", "sampled", "--fixture", "compressible", "--trials", "2"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
