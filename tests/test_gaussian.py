"""Compiled Gaussian unitaries: Heisenberg action, transport, vacuum."""

from unittest import mock

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
    _fusion_plan,
    _window_generators,
    apply_pauli_rotation,
    heisenberg_matrix,
    identity_gaussian,
    rotation_generator,
)
from fermidope.metrology import _group_permutation, _grouped_sampling, commuting_groups, correlation_exact
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
    # every plane through the in-place kernel: k = l (Z_k), adjacent qubits, the widest Z-string
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        psi = random_state(n, rng)
        for mu in range(1, 2 * n + 1):
            for nu in range(mu + 1, 2 * n + 1):
                phi = rng.uniform(-np.pi, np.pi)
                amps = psi.amps.copy()
                rotation_generator(mu, nu, n).rotate(amps, phi)
                oracle = apply_pauli_rotation(psi, rotation_generator(mu, nu, n), phi)
                assert np.abs(amps - oracle.amps).max() <= 1e-13, (n, mu, nu)


def test_window_generators_are_the_rotation_generators():
    # composed from Majorana actions; the Pauli algebra of rotation_generator is the oracle
    for m in range(1, FUSE_QUBITS + 2):
        ids, src, coef = _window_generators(m)
        assert list(ids) == [(mu, nu) for mu in range(1, 2 * m + 1) for nu in range(mu + 1, 2 * m + 1)]
        for (mu, nu), row in ids.items():
            expected_src, expected_coef = rotation_generator(mu, nu, m).action()
            assert np.array_equal(src[row], expected_src) and np.array_equal(coef[row], expected_coef)
        assert not src.flags.writeable and not coef.flags.writeable


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
    # every block is a full 4-qubit window: these inputs all have n >= FUSE_QUBITS
    for g in _fused_unitaries():
        for op in g.program.ops:
            if isinstance(op, Block):
                assert len(op.u) == 2**FUSE_QUBITS == 16
                assert 1 <= op.lo <= g.n - FUSE_QUBITS + 1
                assert ortho.opnorm(op.u.conj().T @ op.u - np.eye(16)) <= 1e-12
            else:  # a plane left unfused spans more qubits than a block may
                mu, nu, _ = op
                assert (nu + 1) // 2 - (mu + 1) // 2 + 1 > FUSE_QUBITS


def test_haar_program_at_n12_is_15_blocks_on_odd_windows():
    # packed by blocked Majoranas, a Haar layer is 15 blocks on the windows lo = 1, 3, 5, 7, 9:
    # the one at qubits 9-12 runs as a single GEMM, the others as 2^(lo-1) batched ones
    n = 12
    g = GaussianUnitary(ortho.random_orthogonal(2 * n, np.random.default_rng(3)))
    blocks = [op for op in g.program.ops if isinstance(op, Block)]
    assert [(op.lo, len(op.u)) for op in blocks] == [
        (9, 16), (7, 16), (9, 16), (5, 16), (3, 16), (1, 16), (7, 16), (9, 16), (5, 16), (3, 16),
        (7, 16), (9, 16), (5, 16), (7, 16), (9, 16),
    ]


@pytest.mark.parametrize("n, ops, rows", [(8, 6, 9), (12, 15, 20)])
def test_haar_program_op_count(n, ops, rows):
    # the greedy packer fills 4-qubit windows, letting rotations on disjoint Majoranas pass
    # each other: every block of a Haar layer is a full 16 x 16 window
    g = GaussianUnitary(ortho.random_orthogonal(2 * n, np.random.default_rng(3)))
    assert len(g.program.rotations) == n * (2 * n - 1)
    assert len(g.program.ops) == ops
    assert all(isinstance(op, Block) for op in g.program.ops)
    # blocks of 16 to 28 rotations are built in rows of at most 16, the median block length,
    # so the stack takes 16 steps, not 28
    plan = _fusion_plan(tuple((mu, nu) for mu, nu, _ in g.program.rotations), n)
    assert plan.rotations.shape == (rows, 16) and len(plan.active) == 16


@pytest.mark.parametrize("n, start, step", [(8, (10, 4, 0), (14, 3, 0)), (12, (18, 12, 5), (22, 4, 0))],
                         ids=["8", "12"])
def test_group_programs_op_count(n, start, step):
    # the grouped-sampling walk: G(O'_0) once, then the step G(V) for each of the 2n - 2 later
    # groups; (rotations, ops, unfused planes wider than a block) of each
    groups, _ = _grouped_sampling(n)
    assert all(o is groups[1][0] for o, *_ in groups[1:])
    for o, expected in ((groups[0][0], start), (groups[1][0], step)):
        prog = GaussianUnitary(o).program
        wide = sum(not isinstance(op, Block) for op in prog.ops)
        assert (len(prog.rotations), len(prog.ops), wide) == expected


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
    adjoint_first=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_runs_the_pair_program_backwards(n, kind, negative, adjoint_first, seed):
    # G^dag applies G's program backwards; a signed permutation reflects wide planes with mu = 1
    rng = np.random.default_rng(seed)
    o = _with_det(compile_input(kind, n, rng), negative)
    psi = random_state(n, rng)
    fresh = GaussianUnitary(o.T).apply(psi)
    with mock.patch.object(ortho, "givens_decompose", wraps=ortho.givens_decompose) as decompose:
        g = GaussianUnitary(o)
        g_dag = g.adjoint()
        (g_dag if adjoint_first else g).apply(psi)
        rotated, back = g_dag.apply(psi), g_dag.apply(g.apply(psi))
        assert g.program is g_dag.program is g_dag.adjoint().program
    assert decompose.call_count == 1
    assert 1.0 - fidelity(rotated, fresh) <= 1e-12
    assert np.abs(back.amps - psi.amps).max() <= 1e-12
    # the pair's program realises the O of G on either member
    prog = g_dag.program
    assert prog.reflect_first == (np.linalg.det(o) < 0)
    assert ortho.opnorm(ortho.GivensProgram(2 * n, prog.rotations, prog.reflect_first).matrix() - o) <= 1e-12


def _plan_ops(rotations: tuple, n: int) -> list:
    """(lo, rotation indices) per op of the fusion plan; lo = 0 for an unfused plane."""
    plan = _fusion_plan(tuple((mu, nu) for mu, nu, _ in rotations), n)
    out = []
    for lo, rows in plan.order:
        if not lo:
            out.append((0, list(rows)))
            continue
        lengths = [sum(count > row for count in plan.active) for row in rows]
        out.append((lo, [i for row, length in zip(rows, lengths) for i in plan.rotations[row, :length]]))
    return out


def _sequential_blocks(rotations: tuple, n: int) -> list:
    """Oracle for the fused ops: each planned window's product, one kernel rotation at a time.

    The windows and their rotations come from the fusion plan; each block is
    built on the identity of its min(FUSE_QUBITS, n) qubits.
    """
    m = min(FUSE_QUBITS, n)
    ops = []
    for lo, indices in _plan_ops(rotations, n):
        if not lo:
            ops.append(rotations[indices[0]])
            continue
        # the flattened identity is a 2m-qubit register whose leading m qubits index the rows
        u = np.eye(2**m, dtype=complex).reshape(-1)
        for mu, nu, theta in (rotations[i] for i in indices):
            rotation_generator(mu - 2 * (lo - 1), nu - 2 * (lo - 1), 2 * m).rotate(u, theta / 2.0)
        ops.append(Block(lo, u.reshape(2**m, 2**m)))
    return ops


def _assert_ops_equal_the_oracle(g: GaussianUnitary) -> None:
    ops = g.program.ops
    oracle = _sequential_blocks(g.program.rotations, g.n)
    assert len(ops) == len(oracle)
    for op, expected in zip(ops, oracle):
        if isinstance(expected, Block):
            assert isinstance(op, Block) and op.lo == expected.lo
            assert np.abs(op.u - expected.u).max() <= 1e-14
        else:
            assert op == expected


def test_batched_blocks_equal_the_sequential_oracle():
    for g in _fused_unitaries():
        _assert_ops_equal_the_oracle(g)


def _packing_input(kind: str, n: int, negative: bool, rng) -> np.ndarray:
    """A compile input of ``compile_input``'s kinds or "group", a grouped-sampling basis change."""
    if kind == "group":
        groups = commuting_groups(n)
        o = _group_permutation(groups[int(rng.integers(len(groups)))], n)
    else:
        o = compile_input(kind, n, rng)
    return _with_det(o, negative)


_PACKED_INPUTS = dict(
    n=st.integers(1, 12),
    kind=st.sampled_from(["haar", "group", "signed_permutation", "mix"]),
    negative=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**_PACKED_INPUTS)
def test_fusion_plan_packs_every_rotation_once_in_order(n, kind, negative, seed):
    rng = np.random.default_rng(seed)
    g = GaussianUnitary(_packing_input(kind, n, negative, rng))
    rotations, m = g.program.rotations, min(FUSE_QUBITS, n)
    planned = _plan_ops(rotations, n)
    # each rotation sits in exactly one op
    order = [i for _, indices in planned for i in indices]
    assert sorted(order) == list(range(len(rotations)))
    # every Majorana sees its rotations in the original order: only disjoint planes pass each other
    for mu in range(1, 2 * n + 1):
        on_mu = [i for i in order if mu in rotations[i][:2]]
        assert on_mu == sorted(on_mu), mu
    for (lo, indices), op in zip(planned, g.program.ops):
        if not lo:  # a plane left alone is wider than any window
            mu, nu, _ = op
            assert (nu + 1) // 2 - (mu + 1) // 2 + 1 > m and op == rotations[indices[0]]
            continue
        # every block is one 2^m x 2^m unitary on m qubits, and holds only planes inside it
        assert 1 <= lo <= n - m + 1 and op.lo == lo and len(op.u) == 2**m
        assert all(lo <= (rotations[i][0] + 1) // 2 and (rotations[i][1] + 1) // 2 < lo + m for i in indices)
    _assert_ops_equal_the_oracle(g)


def _kernel_oracle(g: GaussianUnitary, psi, inverse: bool) -> np.ndarray:
    """G psi (or G^dag psi) from the program's rotations in Givens order, one kernel pass each.

    G = rotations gamma_1^r applies gamma_1 first; G^dag runs the rotations
    backwards at negated angles and applies gamma_1 last.
    """
    n, prog = g.n, g.program
    reflect = majorana(1, n).times if prog.reflect_first else np.copy
    amps = psi.amps.copy() if inverse else reflect(psi.amps)
    for mu, nu, theta in reversed(prog.rotations) if inverse else prog.rotations:
        rotation_generator(mu, nu, n).rotate(amps, -theta / 2.0 if inverse else theta / 2.0)
    return reflect(amps) if inverse else amps


@settings(max_examples=60, deadline=None)
@given(**_PACKED_INPUTS)
def test_packed_apply_equals_the_rotations_in_givens_order(n, kind, negative, seed):
    # the packer reorders rotations across blocks; the block oracle above follows the plan and
    # so cannot see a reordering of two planes sharing a Majorana, but the Givens order can
    rng = np.random.default_rng(seed)
    g = GaussianUnitary(_packing_input(kind, n, negative, rng))
    psi = random_state(n, rng)
    for inverse, unitary in ((False, g), (True, g.adjoint())):
        assert np.abs(unitary.apply(psi).amps - _kernel_oracle(g, psi, inverse)).max() <= 1e-12, inverse


@pytest.mark.parametrize("n", range(2, 13))
def test_the_walk_programs_equal_the_rotations_in_givens_order(n):
    # the hypothesis "group" inputs are sorted commuting_groups pairs; the walk applies
    # G(O'_0) of its own pair order and the step G(V), through metrology's program cells
    rng = np.random.default_rng(n)
    groups, _ = _grouped_sampling(n)
    psi = random_state(n, rng)
    for o, cell, *_ in groups[:2]:
        g = GaussianUnitary.sharing(o, cell)
        for inverse, unitary in ((False, g), (True, g.adjoint())):
            assert np.abs(unitary.apply(psi).amps - _kernel_oracle(g, psi, inverse)).max() <= 1e-12, inverse
