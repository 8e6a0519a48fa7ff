"""Compiled Gaussian unitaries: Heisenberg action, transport, vacuum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fermidope import ortho
from fermidope.gaussian import (
    FUSE_QUBITS,
    Block,
    GaussianUnitary,
    apply_pauli_rotation,
    heisenberg_matrix,
    identity_gaussian,
    rotate_plane,
    rotation_generator,
)
from fermidope.metrology import _group_permutation, commuting_groups, correlation_exact
from fermidope.pauli import majorana
from fermidope.states import apply_pauli, fidelity, overlap, random_state, zero_state

from conftest import compile_input


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


def keeps_vacuum(g: GaussianUnitary) -> bool:
    """|<0^n| G |0^n>| = 1 within 1e-9."""
    return bool(abs(abs(g.apply(zero_state(g.n)).amps[0]) - 1.0) <= 1e-9)


def test_vacuum_preservation_iff_symplectic(rng):
    assert keeps_vacuum(identity_gaussian(3))
    o_symp = ortho.symplectic_from_unitary(ortho.random_unitary(3, rng))
    g = GaussianUnitary(o_symp)
    assert keeps_vacuum(g)
    assert ortho.is_symplectic(g.O) and ortho.is_symplectic(g.O.T)
    # a rotation mixing the (gamma_1, gamma_4) plane breaks particle number
    o_bad = ortho.plane_rotation(6, 1, 4, 0.9)
    g_bad = GaussianUnitary(o_bad)
    assert not keeps_vacuum(g_bad)
    assert not ortho.is_symplectic(g_bad.O) and not ortho.is_symplectic(g_bad.O.T)


def test_vacuum_agreement_random(rng):
    # the overlap test and the symplectic predicate agree both ways
    for _ in range(10):
        o = ortho.random_orthogonal(6, rng)
        g = GaussianUnitary(o)
        assert keeps_vacuum(g) == ortho.is_symplectic(o) == ortho.is_symplectic(o.T)


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


def _givens_oracle(g: GaussianUnitary, psi):
    """The compiled rotations, each as a dense Pauli rotation, X_1 first when reflected."""
    n = g.n
    if g.program.reflect_first:
        psi = apply_pauli(psi, majorana(1, n))
    for mu, nu, theta in g.program.rotations:
        psi = apply_pauli_rotation(psi, rotation_generator(mu, nu, n), theta / 2.0)
    return psi


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    kind=st.sampled_from(["haar", "signed_permutation", "mix"]),
    negative=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_apply_matches_the_rotation_oracle(n, kind, negative, seed):
    rng = np.random.default_rng(seed)
    o = _with_det(compile_input(kind, n, rng), negative)
    assert ortho.is_orthogonal(o, 1e-12)
    g = GaussianUnitary(o)
    psi = random_state(n, rng)
    assert np.abs(g.apply(psi).amps - _givens_oracle(g, psi).amps).max() <= 1e-12
    assert ortho.opnorm(heisenberg_matrix(g) - o) <= 1e-9


def _fused_unitaries():
    rng = np.random.default_rng(12)
    yield GaussianUnitary(ortho.random_orthogonal(24, rng))
    for pairs in commuting_groups(12):
        yield GaussianUnitary(_group_permutation(pairs, 12))
    for kind in ("signed_permutation", "mix"):
        for n in (5, 8, 12):
            yield GaussianUnitary(compile_input(kind, n, rng))


def test_fused_blocks_span_at_most_four_qubits_and_are_unitary():
    # wider only when padded to the register end: then u (x) I with u on at most 4 qubits
    for g in _fused_unitaries():
        for op in g.program.ops:
            if isinstance(op, Block):
                dim = len(op.u)
                width = dim.bit_length() - 1
                assert dim <= 2 ** (FUSE_QUBITS + 1) == 32
                assert 1 <= op.lo and op.lo - 1 + width <= g.n
                assert ortho.opnorm(op.u.conj().T @ op.u - np.eye(dim)) <= 1e-12
                if dim > 2**FUSE_QUBITS:
                    assert op.lo - 1 + width == g.n
                    reps = 2 ** (width - FUSE_QUBITS)
                    assert np.array_equal(op.u, np.kron(op.u[::reps, ::reps], np.eye(reps)))
            else:  # a plane left unfused spans more qubits than a block may
                mu, nu, _ = op
                assert (nu + 1) // 2 - (mu + 1) // 2 + 1 > FUSE_QUBITS


def test_haar_program_at_n12_pads_its_near_end_blocks():
    # a block ending 1-2 qubits before qubit 12 is batched unless it is padded to the end;
    # only padding within FUSE_QUBITS + 1 = 5 qubits is done, so the 4-qubit blocks on
    # qubits 7-10 stay as they are and the ones on qubits 8-11 become 32 x 32
    n = 12
    g = GaussianUnitary(ortho.random_orthogonal(2 * n, np.random.default_rng(3)))
    blocks = [op for op in g.program.ops if isinstance(op, Block)]
    for op in blocks:
        hi = op.lo - 2 + len(op.u).bit_length()
        if op.lo > 1 and n - hi in (1, 2):
            assert n - op.lo + 1 > FUSE_QUBITS + 1, (op.lo, hi)
    assert [op.lo for op in blocks if len(op.u) == 32] == [8] * 5


def test_haar_layer_at_n12_compiles_to_276_adjacent_planes():
    o = ortho.random_orthogonal(24, np.random.default_rng(3))
    rotations = GaussianUnitary(o).program.rotations
    assert len(rotations) == 12 * 23
    assert all(nu == mu + 1 for mu, nu, _ in rotations)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    kind=st.sampled_from(["haar", "signed_permutation", "mix"]),
    negative=st.booleans(),
    source_first=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_derived_adjoint_applies_like_a_fresh_compile(n, kind, negative, source_first, seed):
    # the second of G, G^dag to compile derives its program from the first's
    rng = np.random.default_rng(seed)
    o = _with_det(compile_input(kind, n, rng), negative)
    g = GaussianUnitary(o)
    g_dag = g.adjoint()
    compiled, derived = (g, g_dag) if source_first else (g_dag, g)
    compiled.program  # noqa: B018 - compile the first of the pair
    fresh = GaussianUnitary(derived.O)
    prog = derived.program
    assert prog.reflect_first == (np.linalg.det(o) < 0)
    assert len(prog.rotations) == len(compiled.program.rotations)
    givens = ortho.GivensProgram(2 * n, prog.rotations, prog.reflect_first)
    assert ortho.opnorm(givens.matrix() - derived.O) <= 1e-12
    psi = random_state(n, rng)
    assert 1.0 - fidelity(derived.apply(psi), fresh.apply(psi)) <= 1e-12
    assert 1.0 - fidelity(g_dag.apply(g.apply(psi)), psi) <= 1e-12
    # an adjoint of the adjoint shares the same cell and compiles nothing
    assert g_dag.adjoint().program is g.program


def _sequential_blocks(rotations: tuple, n: int) -> list:
    """Oracle for the fused ops: each window's product, one rotate_plane at a time on its identity.

    Windows follow the same rule as compilation: a rotation joins the last
    window sharing a qubit with it if the joint window spans <= FUSE_QUBITS
    qubits, else opens a new one.  So does padding: a block that starts
    after qubit 1 and within the last FUSE_QUBITS + 1 qubits is extended to
    qubit n as u (x) I.
    """
    windows = []  # [lo, hi, rotations]
    for rot in rotations:
        lo, hi = (rot[0] + 1) // 2, (rot[1] + 1) // 2
        sharing = [w for w in windows if w[0] <= hi and lo <= w[1]]
        w = sharing[-1] if sharing else None
        if w is not None and max(hi, w[1]) - min(lo, w[0]) < FUSE_QUBITS:
            w[0], w[1] = min(lo, w[0]), max(hi, w[1])
            w[2].append(rot)
        else:
            windows.append([lo, hi, [rot]])
    ops = []
    for lo, hi, rots in windows:
        m = hi - lo + 1
        if m > FUSE_QUBITS:
            ops.append(rots[0])
            continue
        # the flattened identity is a 2m-qubit register whose leading m qubits index the rows
        u = np.eye(2**m, dtype=complex).reshape(-1)
        for mu, nu, theta in rots:
            rotate_plane(u, 2 * m, mu - 2 * (lo - 1), nu - 2 * (lo - 1), theta / 2.0)
        u = u.reshape(2**m, 2**m)
        if lo > 1 and n - lo + 1 <= FUSE_QUBITS + 1:
            u = np.kron(u, np.eye(2 ** (n - hi)))
        ops.append(Block(lo, u))
    return ops


def test_batched_blocks_equal_the_sequential_oracle():
    for g in _fused_unitaries():
        ops = g.program.ops
        oracle = _sequential_blocks(g.program.rotations, g.n)
        assert len(ops) == len(oracle)
        for op, expected in zip(ops, oracle):
            if isinstance(expected, Block):
                assert isinstance(op, Block) and op.lo == expected.lo
                assert np.abs(op.u - expected.u).max() <= 1e-14
            else:
                assert op == expected
