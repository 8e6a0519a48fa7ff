"""Compiled Gaussian unitaries: Heisenberg action, transport, vacuum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fermidope import ortho
from fermidope.gaussian import (
    GaussianUnitary,
    apply_pauli_rotation,
    heisenberg_matrix,
    identity_gaussian,
    preserves_vacuum,
    rotate_plane,
    rotation_generator,
)
from fermidope.metrology import correlation_exact
from fermidope.pauli import majorana
from fermidope.states import fidelity, overlap, random_state, zero_state


def test_identity_program_is_empty():
    g = identity_gaussian(3)
    assert g.program.rotations == () and not g.program.reflect_first
    psi = random_state(3, np.random.default_rng(0))
    assert_allclose(g.apply(psi).amps, psi.amps)


def test_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        GaussianUnitary(np.eye(4) * 2.0)


def test_reflection_gate_conjugation_dense():
    # G = gamma_1 flips every other Majorana: dense conjugation oracle, n <= 3
    for n in (2, 3):
        g = GaussianUnitary(ortho.reflection_matrix(2 * n))
        u = g.matrix()
        for mu in range(1, 2 * n + 1):
            m = majorana(mu, n).to_matrix()
            sign = 1.0 if mu == 1 else -1.0
            assert_allclose(u.conj().T @ m @ u, sign * m, atol=1e-10)


def test_heisenberg_sign_convention_two_planes():
    # compiled rotation angles and signs against the dense conjugation action
    o = ortho.plane_rotation(4, 1, 3, 0.537) @ ortho.plane_rotation(4, 2, 4, -1.13)
    assert ortho.opnorm(heisenberg_matrix(GaussianUnitary(o)) - o) <= 1e-9


def test_heisenberg_identity_random(rng):
    for n in (2, 3, 4):
        for _ in range(7 if n < 4 else 6):
            o = ortho.random_orthogonal(2 * n, rng)
            assert ortho.opnorm(heisenberg_matrix(GaussianUnitary(o)) - o) <= 1e-8


def test_correlation_transport(rng):
    for n in (2, 3, 4):
        o = ortho.random_orthogonal(2 * n, rng)
        psi = GaussianUnitary(o).apply(zero_state(n))
        assert ortho.opnorm(correlation_exact(psi) - o @ ortho.omega(n) @ o.T) <= 1e-9


def test_gaussian_states_have_unit_lambdas(rng):
    for n in (2, 4, 5):
        o = ortho.random_orthogonal(2 * n, rng)
        psi = GaussianUnitary(o).apply(zero_state(n))
        lams = ortho.normal_eigenvalues(correlation_exact(psi))
        assert np.all(np.abs(lams - 1.0) <= 1e-9)


def test_adjoint_inverts(rng):
    n = 4
    g = GaussianUnitary(ortho.random_orthogonal(2 * n, rng))
    psi = random_state(n, rng)
    assert fidelity(g.adjoint().apply(g.apply(psi)), psi) == pytest.approx(1.0, abs=1e-9)


def test_group_homomorphism_on_correlations(rng):
    for n in (3, 5):
        o1, o2 = ortho.random_orthogonal(2 * n, rng), ortho.random_orthogonal(2 * n, rng)
        psi = random_state(n, rng)
        via_product = GaussianUnitary(o1).apply(GaussianUnitary(o2).apply(psi))
        direct = GaussianUnitary(o1 @ o2).apply(psi)
        assert ortho.opnorm(correlation_exact(via_product) - correlation_exact(direct)) <= 1e-8
        # also equal as states up to global phase
        assert fidelity(via_product, direct) == pytest.approx(1.0, abs=1e-9)


def test_vacuum_preservation_iff_symplectic(rng):
    assert preserves_vacuum(identity_gaussian(3))
    o_symp = ortho.symplectic_from_unitary(ortho.random_unitary(3, rng))
    g = GaussianUnitary(o_symp)
    assert preserves_vacuum(g)
    assert ortho.is_symplectic(g.O) and ortho.is_symplectic(g.O.T)
    # a rotation mixing the (gamma_1, gamma_4) plane breaks particle number
    o_bad = ortho.plane_rotation(6, 1, 4, 0.9)
    g_bad = GaussianUnitary(o_bad)
    assert not preserves_vacuum(g_bad)
    assert not ortho.is_symplectic(g_bad.O) and not ortho.is_symplectic(g_bad.O.T)


def test_vacuum_agreement_random(rng):
    # the overlap test and the symplectic predicate agree both ways
    for _ in range(10):
        o = ortho.random_orthogonal(6, rng)
        g = GaussianUnitary(o)
        assert preserves_vacuum(g) == ortho.is_symplectic(o) == ortho.is_symplectic(o.T)


def test_gate_count_bound(rng):
    for n in (2, 3, 4):
        g = GaussianUnitary(ortho.random_orthogonal(2 * n, rng))
        assert len(g.program.rotations) <= n * (2 * n - 1)


def test_rotation_generator_is_hermitian_pauli():
    p = rotation_generator(2, 5, 3)
    assert p.is_hermitian
    m = p.to_matrix()
    assert_allclose(m, m.conj().T)
    with pytest.raises(ValueError):
        rotation_generator(3, 3, 3)


def test_program_text_dump(rng):
    g = GaussianUnitary(ortho.random_orthogonal(4, rng))
    text = g.program_text()
    assert text.startswith("gaussian n=2")
    assert "rotate plane=" in text


def test_plane_kernel_matches_pauli_rotation_oracle():
    # every plane: k = l (Z_k), adjacent qubits, and the widest Z-string
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        psi = random_state(n, rng)
        for mu in range(1, 2 * n + 1):
            for nu in range(mu + 1, 2 * n + 1):
                phi = rng.uniform(-np.pi, np.pi)
                amps = psi.amps.copy()
                rotate_plane(amps, n, mu, nu, phi)
                oracle = apply_pauli_rotation(psi, rotation_generator(mu, nu, n), phi)
                assert np.abs(amps - oracle.amps).max() <= 1e-13, (n, mu, nu)


def _with_det(o: np.ndarray, negative: bool) -> np.ndarray:
    return o @ ortho.reflection_matrix(o.shape[0]) if negative else o


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), negative=st.tuples(st.booleans(), st.booleans()))
def test_composition_matches_matrix_product(n, seed, negative):
    # G_{O1} G_{O2} = G_{O1 O2} up to a global phase, det = +-1 for each factor
    rng = np.random.default_rng(seed)
    o1, o2 = (_with_det(ortho.random_orthogonal(2 * n, rng, haar=False), f) for f in negative)
    psi = random_state(n, rng)
    via_product = GaussianUnitary(o1).apply(GaussianUnitary(o2).apply(psi))
    direct = GaussianUnitary(o1 @ o2).apply(psi)
    phase = overlap(via_product, direct)
    assert abs(phase) == pytest.approx(1.0, abs=1e-10)
    assert_allclose(phase * via_product.amps, direct.amps, atol=1e-10)


def test_apply_leaves_input_unchanged_and_read_only(rng):
    n = 4
    psi = random_state(n, rng)
    before = psi.amps.copy()
    for negative in (False, True):
        g = GaussianUnitary(_with_det(ortho.random_orthogonal(2 * n, rng, haar=False), negative))
        assert g.program.reflect_first == negative
        out = g.apply(psi)
        assert out is not psi and not np.shares_memory(out.amps, psi.amps)
        assert np.array_equal(psi.amps, before)
        assert not psi.amps.flags.writeable and not out.amps.flags.writeable
