"""Doped circuits: preparation oracle, compression, serialization."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fermidope import doped, ortho
from fermidope.doped import (
    CompressedForm,
    DopedCircuit,
    NonGaussianGate,
    compress_state,
    compress_unitary,
    prepare,
    random_doped_circuit,
    report_gate_counts,
)
from fermidope.gaussian import GaussianUnitary, identity_gaussian
from fermidope.learner import verify
from fermidope.metrology import correlation_exact, gaussian_dimension
from fermidope.pauli import hermitize, majorana_monomial
from fermidope.states import (
    apply_pauli_rotation,
    fidelity,
    postselect_zero_tail,
    random_state,
    zero_state,
)

from conftest import doped_sweep_cells, planted_complement, text_prefixes
from oracles import apply_dense_unitary, born_probability, dense_matrix, expectation, single

# one file of each text format, as written before the format code moved into doped
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CIRCUIT, GOLDEN_STATE = "doped-circuit-n4.txt", "learned-state-n4.txt"


def test_gate_support_and_validation():
    w = NonGaussianGate((((1, 5, 6, 8), 0.3), ((5, 6), 0.1)))
    assert w.support == (1, 5, 6, 8)
    with pytest.raises(ValueError):
        NonGaussianGate((((3, 1), 0.2),))
    with pytest.raises(ValueError):
        DopedCircuit(n=4, kappa=2, gaussians=(identity_gaussian(4), identity_gaussian(4)),
                     gates=(NonGaussianGate.monomial((1, 2, 3), 0.5),))


def test_gate_builds_its_term_strings_once_per_register(monkeypatch):
    calls, original = [], doped.majorana_monomial
    monkeypatch.setattr(doped, "majorana_monomial", lambda s, n: calls.append((s, n)) or original(s, n))
    w = NonGaussianGate((((1, 5, 6, 8), 0.3), ((2, 3), -0.7), ((5, 6), 0.1)))
    rng = np.random.default_rng(4)
    for n in (4, 4, 5, 4, 5):
        psi = random_state(n, rng)
        oracle = psi
        for s, theta in w.terms:
            oracle = apply_pauli_rotation(oracle, hermitize(original(s, n)), theta)
        assert np.abs(w.apply(psi).amps - oracle.amps).max() <= 1e-13
    assert calls == [(s, n) for n in (4, 5) for s, _ in w.terms]
    assert w == NonGaussianGate(w.terms) and hash(w) == hash(NonGaussianGate(w.terms))


def test_prepare_t0_is_gaussian():
    rng = np.random.default_rng(0)
    c = random_doped_circuit(4, 0, 4, rng)
    psi = prepare(c)
    assert gaussian_dimension(correlation_exact(psi), 1e-8) == 4


def test_prepare_zero_angles_match_gaussian_only():
    rng = np.random.default_rng(1)
    base = random_doped_circuit(4, 2, 4, rng)
    silent = DopedCircuit(
        n=4, kappa=4, gaussians=base.gaussians,
        gates=tuple(NonGaussianGate.monomial(w.support, 0.0) for w in base.gates),
    )
    gaussian_only = DopedCircuit(n=4, kappa=4, gaussians=base.gaussians,
                                 gates=(NonGaussianGate.monomial((1, 2, 3, 4), 0.0),) * 2)
    assert fidelity(prepare(silent), prepare(gaussian_only)) == pytest.approx(1.0, abs=1e-12)


def test_prepare_matches_dense_matrix_oracle():
    # one SWAP-equivalent gate (three commuting rotation terms) between
    # random Gaussian layers at n = 6, against a gate-by-gate dense product
    rng = np.random.default_rng(2)
    n = 6
    g0 = GaussianUnitary(ortho.random_orthogonal(2 * n, rng))
    g1 = GaussianUnitary(ortho.random_orthogonal(2 * n, rng))
    # SWAP on qubits (1, 2) via Majorana monomials: XX, YY, ZZ on that pair
    # have supports {2,3}, {1,4}, {1,2,3,4}
    terms = (((2, 3), np.pi / 4), ((1, 4), np.pi / 4), ((1, 2, 3, 4), np.pi / 4))
    w = NonGaussianGate(terms)
    circuit = DopedCircuit(n=n, kappa=4, gaussians=(g0, g1), gates=(w,))
    psi = prepare(circuit)

    dense = dense_matrix(g0)
    for s, theta in terms:
        p = hermitize(majorana_monomial(s, n)).to_matrix()
        dense = (np.cos(theta) * np.eye(2**n) + 1j * np.sin(theta) * p) @ dense
    dense = dense_matrix(g1) @ dense
    assert_allclose(psi.amps, dense @ zero_state(n).amps, atol=1e-10)


def test_compress_t0_returns_vacuum_core():
    rng = np.random.default_rng(3)
    c = random_doped_circuit(5, 0, 4, rng)
    form = compress_state(c)
    assert form.core_qubits == 0
    rotated = form.G.adjoint().apply(prepare(c))
    assert born_probability(rotated, range(1, 6), [0] * 5) == pytest.approx(1.0, abs=1e-10)


def test_compress_single_gate_zeroes_trailing_z():
    # n = 6, kappa = 4, t = 1: core is 4 qubits and <Z_k> = 1 on the tail
    rng = np.random.default_rng(4)
    c = random_doped_circuit(6, 1, 4, rng)
    form = compress_state(c)
    assert form.core_qubits == 4
    rotated = form.G.adjoint().apply(prepare(c))
    for k in (5, 6):
        assert expectation(rotated, single(6, k, "Z")) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kappa,t", [(4, 1), (3, 2)])
def test_compress_born_probability_on_tail(kappa, t):
    # after compression the last n - kappa*t qubits read all-zero w.p. 1
    rng = np.random.default_rng(5)
    n = 8
    c = random_doped_circuit(n, t, kappa, rng)
    psi = prepare(c)
    form = compress_state(c)
    rotated = form.G.adjoint().apply(psi)
    tail = n - kappa * t
    p = born_probability(rotated, range(n - tail + 1, n + 1), [0] * tail)
    assert p >= 1.0 - 1e-8


def test_compress_requires_kappa_t_within_register():
    rng = np.random.default_rng(6)
    c = random_doped_circuit(4, 2, 4, rng)
    with pytest.raises(ValueError):
        compress_state(c)


def test_compression_sweep_reassembly():
    for n, kappa, t in doped_sweep_cells():
        c = random_doped_circuit(n, t, kappa, np.random.default_rng(n * 10 + kappa + t))
        psi = prepare(c)
        form = compress_state(c)
        assert form.core_qubits == min(kappa * t, n)
        assert fidelity(form.reassemble(), psi) >= 1.0 - 1e-9


def test_compress_state_planted_complement_of_uniform():
    # n = 12, kappa = 11, t = 1: G_0's rows 1..11 realify a basis of the complement of
    # the uniform vector in C^12, so no canonical vector completes it by much
    rows = np.array(planted_complement(12, True))
    q, _ = np.linalg.qr(rows.T, mode="complete")
    g0 = GaussianUnitary(np.vstack([rows, q[:, 11:].T]))
    g1 = GaussianUnitary(ortho.random_orthogonal(24, np.random.default_rng(15)))
    c = DopedCircuit(n=12, kappa=11, gaussians=(g0, g1),
                     gates=(NonGaussianGate.monomial(range(1, 12), 0.7),))
    psi = prepare(c)
    form = compress_state(c)
    assert form.core_qubits == 11
    prob, _ = postselect_zero_tail(form.G.adjoint().apply(psi), 11)
    assert 1.0 - prob <= 1e-8
    assert fidelity(form.reassemble(), psi) >= 1.0 - 1e-9


def test_doped_states_keep_gaussian_dimension_floor():
    # Gaussian dimension >= n - kappa*t across seeds
    n, kappa, t = 8, 4, 1
    for seed in range(50):
        c = random_doped_circuit(n, t, kappa, np.random.default_rng(seed))
        lams = ortho.normal_eigenvalues(correlation_exact(prepare(c)))
        assert np.sum(lams >= 1.0 - 1e-8) >= n - kappa * t
        # top n - kappa*t normal eigenvalues pinned at one
        assert np.all(lams[kappa * t :] >= 1.0 - 1e-8)


def test_sufficient_condition_round_trip():
    # a state of Gaussian dimension n - t is emptied by its own normal form
    rng = np.random.default_rng(7)
    c = random_doped_circuit(6, 1, 3, rng)
    psi = prepare(c)
    nf = ortho.normal_form(correlation_exact(psi))
    t_eff = 6 - gaussian_dimension(correlation_exact(psi), 1e-8)
    rotated = GaussianUnitary(nf.O).adjoint().apply(psi)
    p = born_probability(rotated, range(t_eff + 1, 7), [0] * (6 - t_eff))
    assert p >= 1.0 - 1e-8


def test_compress_unitary_t0():
    rng = np.random.default_rng(8)
    c = random_doped_circuit(3, 0, 4, rng)
    g_a, u_core, g_b = compress_unitary(c)
    assert u_core.shape == (1, 1)
    psi = random_state(3, rng)
    lhs = c.apply(psi)
    rhs = g_a.apply(g_b.apply(psi))
    assert fidelity(lhs, rhs) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n,kappa,t,core", [(4, 4, 1, 2), (6, 3, 2, 3)])
def test_compress_unitary_action_match(n, kappa, t, core):
    rng = np.random.default_rng(9)
    c = random_doped_circuit(n, t, kappa, rng)
    g_a, u_core, g_b = compress_unitary(c)
    assert u_core.shape == (2**core, 2**core)
    assert np.linalg.norm(u_core.conj().T @ u_core - np.eye(2**core)) <= 1e-8
    for _ in range(5):
        psi = random_state(n, rng)
        lhs = c.apply(psi)
        rhs = g_a.apply(apply_dense_unitary(g_b.apply(psi), range(1, core + 1), u_core))
        assert fidelity(lhs, rhs) >= 1.0 - 1e-8


def test_random_circuit_reproducible():
    a = random_doped_circuit(4, 2, 3, np.random.default_rng(11))
    b = random_doped_circuit(4, 2, 3, np.random.default_rng(11))
    assert a.dumps() == b.dumps()


def test_random_circuit_kappa_bound():
    with pytest.raises(ValueError):
        random_doped_circuit(2, 1, 5, np.random.default_rng(0))


def test_gate_counts():
    rng = np.random.default_rng(13)
    empty = DopedCircuit(n=3, kappa=4, gaussians=(identity_gaussian(3),), gates=())
    counts = report_gate_counts(empty)
    assert counts.rotations == 0 and counts.reflections == 0 and counts.non_gaussian_terms == 0
    c = random_doped_circuit(4, 0, 4, rng)
    assert report_gate_counts(c).rotations <= 4 * 7
    c2 = random_doped_circuit(4, 2, 3, rng)
    manual = sum(len(g.program.planes) for g in c2.gaussians)
    got = report_gate_counts(c2)
    assert got.rotations == manual
    assert got.non_gaussian_terms == 2


def test_serialization_round_trip():
    rng = np.random.default_rng(14)
    c = random_doped_circuit(3, 2, 3, rng)
    text = c.dumps()
    back = DopedCircuit.loads(text)
    assert back.dumps() == text
    assert fidelity(prepare(back), prepare(c)) == pytest.approx(1.0, abs=1e-12)


@st.composite
def doped_circuits(draw):
    """n <= 5, t <= 3; Haar or signed-permutation layers of det +-1; any finite angle."""
    n, t = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaussians = []
    for _ in range(t + 1):
        if draw(st.booleans()):
            o = ortho.random_orthogonal(2 * n, rng, haar=False)
        else:  # entries 0.0 and -0.0 as well as +-1
            o = np.eye(2 * n)[rng.permutation(2 * n)] * rng.choice([-1.0, 1.0], size=2 * n)
        o[:, 0] *= draw(st.sampled_from([1.0, -1.0])) * np.sign(np.linalg.det(o))  # det = +-1
        gaussians.append(GaussianUnitary(o))
    term = st.tuples(
        st.sets(st.integers(1, 2 * n), min_size=1).map(sorted).map(tuple),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    gates = [NonGaussianGate(tuple(draw(st.lists(term, min_size=1, max_size=3)))) for _ in range(t)]
    kappa = draw(st.integers(max((len(w.support) for w in gates), default=0), 2 * n))
    return DopedCircuit(n=n, kappa=kappa, gaussians=tuple(gaussians), gates=tuple(gates))


@settings(max_examples=100, deadline=None)
@given(doped_circuits())
def test_serialization_round_trip_is_bit_exact(circuit):
    back = DopedCircuit.loads(circuit.dumps())
    assert (back.n, back.kappa, back.t) == (circuit.n, circuit.kappa, circuit.t)
    for a, b in zip(back.gaussians, circuit.gaussians):
        assert a.O.tobytes() == b.O.tobytes()
    for a, b in zip(back.gates, circuit.gates):
        bits = [[(s, theta.hex()) for s, theta in w.terms] for w in (a, b)]
        assert bits[0] == bits[1]


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError, match="^line 1: expected 'doped-circuit v1'$"):
        DopedCircuit.loads("not a circuit\n")


def test_serialization_rejects_every_truncation():
    text = random_doped_circuit(3, 2, 3, np.random.default_rng(16)).dumps()
    for prefix, at_line_boundary in text_prefixes(text):
        try:
            DopedCircuit.loads(prefix)
        except ValueError as exc:
            assert not at_line_boundary or str(exc).endswith("got end of document")
        else:
            assert not at_line_boundary  # a whole-line prefix always misses a line


def test_serialization_rejects_incomplete_gate_lines():
    lines = random_doped_circuit(3, 1, 3, np.random.default_rng(17)).dumps().splitlines()
    assert lines[11].startswith("gate 1 terms ") and lines[12].startswith("term ")
    for k, bad, expected in ((11, "gate 1 terms", "'gate 1 terms <count>'"),
                             (12, "term 1 2 3 theta", "'term <indices> theta <angle>'")):
        with pytest.raises(ValueError) as info:
            DopedCircuit.loads("\n".join(lines[:k] + [bad] + lines[k + 1 :]) + "\n")
        assert str(info.value) == f"line {k + 1}: expected {expected}"


def test_matrix_text_round_trip(rng):
    o = ortho.random_orthogonal(6, rng)
    text = doped.matrix_to_text(o)
    back = doped.LineReader(text).matrix(6, 6)
    assert np.array_equal(back, o)  # bit-exact at the precision written
    assert doped.matrix_to_text(back) == text
    with pytest.raises(ValueError, match="^line 2: expected a matrix row of 2 numbers$"):
        doped.LineReader("1.0 0.5\n0.5\n").matrix(2, 2)
    end = "^line 1: expected a matrix row of 2 numbers, got end of document$"
    with pytest.raises(ValueError, match=end):
        doped.LineReader("").matrix(1, 2)
    with pytest.raises(ValueError, match="^line 3: expected a matrix row of 2 numbers$"):
        doped.LineReader("1.0 0.5\n\n0.5 x\n").matrix(2, 2)
    # entries of orthogonal matrices and unit vectors are at most 1 in magnitude
    for bad in ("nan", "inf", "-inf", "NaN", "Infinity", "1.000002", "-2.0", "1e308"):
        with pytest.raises(ValueError, match="^line 2: expected a matrix row of 2 numbers$"):
            doped.LineReader(f"1.0 0.5\n0.5 {bad}\n").matrix(2, 2)
    assert doped.LineReader("1.0000001 -1.0\n").matrix(1, 2).tolist() == [[1.0000001, -1.0]]


def _golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode()


def test_golden_circuit_file_round_trips_byte_for_byte():
    text = _golden(GOLDEN_CIRCUIT)
    circuit = DopedCircuit.loads(text)
    assert circuit.dumps().encode() == (GOLDEN / GOLDEN_CIRCUIT).read_bytes()
    assert (circuit.n, circuit.kappa, circuit.t) == (4, 3, 1)
    assert compress_state(circuit).core_qubits == 3


def test_golden_learned_state_file_round_trips_byte_for_byte():
    text = _golden(GOLDEN_STATE)
    form = CompressedForm.loads(text)
    assert form.dumps().encode() == (GOLDEN / GOLDEN_STATE).read_bytes()
    assert (form.n, form.core_qubits) == (4, 3)
    # the state learned from the circuit file, which it reproduces
    assert verify(form, prepare(DopedCircuit.loads(_golden(GOLDEN_CIRCUIT)))).trace_distance <= 1e-12


def _with_line(name: str, k: int, line: str) -> str:
    """The golden file ``name`` with its line ``k`` (1-based) replaced by ``line``."""
    lines = _golden(name).splitlines()
    lines[k - 1] = line
    return "\n".join(lines) + "\n"


# line 15 of the circuit file is its one term line, 'term 1 4 6 theta ...' (n = 4, kappa = 3);
# lines 14 to 21 of the learned state are the rows of its core phi
@pytest.mark.parametrize("name,k,line,message", [
    (GOLDEN_CIRCUIT, 15, "term 3 2 1 theta 0.5",
     "line 15: term indices must be strictly increasing, got (3, 2, 1)"),
    (GOLDEN_CIRCUIT, 15, "term 0 1 theta 0.5", "line 15: term indices must be positive and non-empty, got (0, 1)"),
    (GOLDEN_CIRCUIT, 15, "term 1 2 3 4 theta 0.5", "line 15: gate support (1, 2, 3, 4) exceeds Majorana locality 3"),
    (GOLDEN_CIRCUIT, 15, "term 1 99 theta 0.5", "line 15: gate support (1, 99) exceeds 2n = 8"),
    # the support of a gate is the union of its terms, so the fault shows at the term that widens it
    (GOLDEN_CIRCUIT, 14, "gate 1 terms 2\nterm 1 4 theta 0.5\nterm 5 6 theta 0.5",
     "line 16: gate support (1, 4, 5, 6) exceeds Majorana locality 3"),
    (GOLDEN_STATE, 14, "0.0 0.0", "line 21: state not normalized: |amps| = 0.4256"),
], ids=["indices-out-of-order", "zero-index", "support-past-kappa", "support-past-2n",
        "union-past-kappa", "phi-not-normalized"])
def test_loader_faults_name_their_line(name, k, line, message):
    loads = DopedCircuit.loads if name == GOLDEN_CIRCUIT else CompressedForm.loads
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        loads(_with_line(name, k, line))


@pytest.mark.parametrize("name,loads,last", [(GOLDEN_CIRCUIT, DopedCircuit.loads, 24),
                                             (GOLDEN_STATE, CompressedForm.loads, 21)],
                         ids=["circuit", "learned-state"])
def test_loaders_reject_content_after_the_document(name, loads, last):
    text = _golden(name)
    assert len(text.splitlines()) == last
    assert loads(text + "\n  \n").dumps() == text  # blank lines stay ignored
    for extra, k in (("0.0 0.0\n", last + 1), ("\n\n0.0 0.0\n", last + 3), ("t 1\n", last + 1)):
        with pytest.raises(ValueError, match=f"^line {k}: expected end of document$"):
            loads(text + extra)
