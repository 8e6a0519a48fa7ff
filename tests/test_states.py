"""Statevector engine against dense embedding and eigenvalue oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fermidope.pauli import PauliString, majorana
from fermidope.states import (
    StateVector,
    ZeroProbabilityError,
    apply_dense_unitary,
    apply_pauli,
    apply_pauli_rotation,
    basis_state,
    expectation,
    fidelity,
    marginal_probabilities,
    postselect_zero_tail,
    product,
    random_state,
    trace_distance,
    zero_state,
)

from conftest import kron_chain


def test_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
    # a NaN or infinite amplitude has no norm near 1 either
    for bad in ([np.nan, 0.0], [1.0, np.nan * 1j], [np.inf, 0.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="^state not normalized"):
            StateVector(1, np.array(bad))


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        psi = random_state(n, rng)
        for _ in range(10):
            p = PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)), int(rng.integers(4)))
            assert_allclose(apply_pauli(psi, p).amps, p.to_matrix() @ psi.amps, atol=1e-12)


def test_rotation_theta_zero_is_identity():
    psi = random_state(3, np.random.default_rng(1))
    out = apply_pauli_rotation(psi, majorana(2, 3), 0.0)
    assert_allclose(out.amps, psi.amps)


def test_rotation_global_phase_on_vacuum():
    # exp(i pi/2 Z_1)|0^n> = i |0^n>, fidelity 1 with |0^n>
    n = 2
    out = apply_pauli_rotation(zero_state(n), PauliString.single(n, 1, "Z"), np.pi / 2)
    assert_allclose(out.amps[0], 1j)
    assert fidelity(out, zero_state(n)) == pytest.approx(1.0)


def test_rotation_rejects_non_hermitian():
    p = PauliString(2, 0b01, 0b00, 1)  # i*X on qubit 1
    with pytest.raises(ValueError):
        apply_pauli_rotation(zero_state(2), p, 0.3)


def test_swap_gate_identity():
    # SWAP = e^{-i pi/4} exp(i pi/4 (XX + YY + ZZ)) maps |01> to |10>
    psi = basis_state(2, 0b01)
    # XX, YY = i^2 (XZ)(XZ), ZZ as (x mask, z mask, power of i)
    for x, z, phase in ((0b11, 0, 0), (0b11, 0b11, 2), (0, 0b11, 0)):
        psi = apply_pauli_rotation(psi, PauliString(2, x, z, phase), np.pi / 4)
    psi = StateVector(2, np.exp(-1j * np.pi / 4) * psi.amps)
    assert_allclose(psi.amps, basis_state(2, 0b10).amps, atol=1e-12)


def test_dense_unitary_identity_and_single_qubit():
    psi = random_state(3, np.random.default_rng(2))
    assert_allclose(apply_dense_unitary(psi, [2], np.eye(2)).amps, psi.amps)
    flipped = apply_dense_unitary(zero_state(2), [2], kron_chain("X"))
    assert_allclose(flipped.amps, basis_state(2, 0b01).amps)


def test_dense_unitary_matches_kron_embedding():
    # random 2-qubit unitary on adjacent qubits vs the full 2^4 embedding
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(z)
    psi = random_state(4, rng)
    out = apply_dense_unitary(psi, [2, 3], u)
    full = np.kron(np.kron(np.eye(2), u), np.eye(2))
    assert_allclose(out.amps, full @ psi.amps, atol=1e-12)


def test_dense_unitary_nonadjacent_qubits_via_einsum_oracle():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(z)
    psi = random_state(3, rng)
    out = apply_dense_unitary(psi, [3, 1], u)
    # oracle: u indexed by (q3', q1', q3, q1); amplitudes by (q1, q2, q3)
    u4 = u.reshape(2, 2, 2, 2)
    amps = psi.amps.reshape(2, 2, 2)
    expected = np.einsum("ckab,bda->kdc", u4, amps).reshape(-1)
    assert_allclose(out.amps, expected, atol=1e-12)


def test_dense_unitary_rejects_bad_input():
    with pytest.raises(ValueError):
        apply_dense_unitary(zero_state(2), [1, 1], np.eye(4))
    with pytest.raises(ValueError):
        apply_dense_unitary(zero_state(2), [1], np.array([[1, 1], [0, 1]]))


def test_expectation_fixtures():
    n = 3
    for k in (1, 2, 3):
        assert expectation(zero_state(n), PauliString.single(n, k, "Z")) == pytest.approx(1.0)
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    assert expectation(plus, PauliString.single(1, 1, "X")) == pytest.approx(1.0)


def test_expectation_matches_dense_contraction():
    # <psi| -i gamma_1 gamma_2 |psi> on a doped fixture vs dense contraction
    from fermidope.doped import prepare, random_doped_circuit
    from fermidope.gaussian import rotation_generator

    rng = np.random.default_rng(5)
    psi = prepare(random_doped_circuit(3, 1, 3, rng))
    p = rotation_generator(1, 2, 3)
    dense = np.vdot(psi.amps, p.to_matrix() @ psi.amps).real
    assert expectation(psi, p) == pytest.approx(dense, abs=1e-12)
    q = PauliString(3, 0b011, 0b110, 1)
    assert q.is_hermitian
    dense_q = np.vdot(psi.amps, q.to_matrix() @ psi.amps).real
    assert expectation(psi, q) == pytest.approx(dense_q, abs=1e-12)


def test_born_consistency_small_registers():
    # empirical frequencies track exact probabilities within 4 sigma (n <= 4)
    rng = np.random.default_rng(8)
    for n in (2, 4):
        psi = random_state(n, rng)
        probs = np.abs(psi.amps) ** 2
        shots = 100_000
        counts = np.bincount(rng.choice(2**n, size=shots, p=probs / probs.sum()), minlength=2**n)
        for b in range(2**n):
            sigma = np.sqrt(shots * probs[b] * (1 - probs[b])) + 1e-9
            assert abs(counts[b] - shots * probs[b]) <= 4 * sigma + 3


def test_marginal_sums_to_one():
    psi = random_state(4, np.random.default_rng(10))
    assert marginal_probabilities(psi, [1, 3]).sum() == pytest.approx(1.0)


def test_marginal_rejects_empty_and_duplicate_qubits():
    with pytest.raises(ValueError, match="^qubit list is empty$"):
        marginal_probabilities(zero_state(2), [])
    with pytest.raises(ValueError, match="^duplicate qubit indices"):
        marginal_probabilities(zero_state(2), [1, 1])


def test_postselect_zero_tail_zero_probability_raises():
    with pytest.raises(ZeroProbabilityError):
        postselect_zero_tail(basis_state(2, 0b01), 1)


def test_postselect_zero_tail_round_trip():
    rng = np.random.default_rng(11)
    core = random_state(2, rng)
    psi = product(core, zero_state(2))
    prob, back = postselect_zero_tail(psi, 2)
    assert prob == pytest.approx(1.0)
    assert fidelity(back, core) == pytest.approx(1.0)


def test_trace_distance_fixtures():
    psi = random_state(2, np.random.default_rng(12))
    assert trace_distance(psi, psi) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(zero_state(1), basis_state(1, 1)) == pytest.approx(1.0)
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    assert trace_distance(zero_state(1), plus) == pytest.approx(1 / np.sqrt(2))


def test_trace_distance_accurate_near_zero():
    # sqrt(1 - F) loses everything below sqrt(eps) ~ 1.5e-8
    for eps in (1e-9, 1e-7, 1e-5):
        tilted = StateVector(1, np.array([np.cos(eps), np.sin(eps)]))
        assert trace_distance(zero_state(1), tilted) == pytest.approx(np.sin(eps), rel=1e-6)


def test_trace_distance_matches_eigenvalue_oracle():
    # closed form equals (1/2)||rho - sigma||_1 from a dense eigensolver
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4):
        a, b = random_state(n, rng), random_state(n, rng)
        rho = np.outer(a.amps, a.amps.conj())
        sigma = np.outer(b.amps, b.amps.conj())
        oracle = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - sigma)))
        assert trace_distance(a, b) == pytest.approx(oracle, abs=1e-10)


def test_norm_preserved_by_gates():
    rng = np.random.default_rng(14)
    psi = random_state(4, rng)
    psi = apply_pauli_rotation(psi, majorana(5, 4), 0.83)
    psi = apply_dense_unitary(psi, [2], kron_chain("Y"))
    assert abs(psi.norm - 1.0) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_state_keeps_the_amplitudes_it_is_given(n, seed):
    made = random_state(n, np.random.default_rng(seed))
    assert StateVector(n, made.amps).amps is made.amps  # wrapping a state again is a no-op
    # stored byte for byte, within the tolerance too: never rescaled
    for a in (made.amps.copy(), made.amps * (1.0 + 1e-12)):
        written = a.tobytes()
        psi = StateVector(n, a)
        assert psi.amps is a and a.tobytes() == written
        assert not psi.amps.flags.writeable
    # past the 1e-10 tolerance a vector is rejected, never rescaled
    bad = [made.amps * (1.0 + 1e-9), made.amps * (1.0 - 1e-9)]
    for value in (np.nan, np.inf, -np.inf):
        bad.append(made.amps.copy())
        bad[-1][seed % 2**n] = value
    for amps in bad:
        with pytest.raises(ValueError, match="^state not normalized"):
            StateVector(n, amps)
