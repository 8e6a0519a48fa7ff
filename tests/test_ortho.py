"""Normal form, symplectic isomorphism, compression rotation, Givens."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fermidope import ortho
from fermidope.doped import prepare, random_doped_circuit
from fermidope.gaussian import GaussianUnitary
from fermidope.metrology import _group_permutation, commuting_groups, correlation_exact
from fermidope.states import NumericalError, zero_state

from conftest import (
    compile_input,
    givens,
    planted_complement,
    rotation_product,
    signed_permutation,
    tplus_state,
)
from oracles import expectation, is_symplectic, omega, random_antisymmetric, random_unitary, single


def test_omega_layout():
    w = omega(2)
    assert_allclose(w[:2, :2], [[0, 1], [-1, 0]])
    assert_allclose(w, -w.T)


def test_normal_form_of_omega_is_trivial():
    nf = ortho.normal_form(omega(2))
    assert_allclose(nf.lambdas, [1.0, 1.0])
    assert ortho.opnorm(nf.reconstruct() - omega(2)) <= 1e-12


def test_normal_form_of_zero_matrix():
    nf = ortho.normal_form(np.zeros((6, 6)))
    assert_allclose(nf.lambdas, np.zeros(3))
    assert ortho.is_orthogonal(nf.O)


def test_normal_form_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        ortho.normal_form(np.eye(4))


def test_normal_form_random(rng):
    for _ in range(50):
        dim = int(rng.choice([4, 8, 12, 16]))
        c = random_antisymmetric(dim, rng)
        nf = ortho.normal_form(c)
        assert ortho.opnorm(nf.O.T @ nf.O - np.eye(dim)) <= 1e-10
        assert ortho.opnorm(nf.reconstruct() - c) <= 1e-9
        assert np.all(np.diff(nf.lambdas) >= -1e-12)
        oracle = np.linalg.eigvalsh(1j * c)[dim // 2 :]
        assert_allclose(nf.lambdas, np.maximum(oracle, 0.0), atol=1e-9)


def test_normal_form_degenerate_spectrum(rng):
    # repeated lambdas and exact zeros: only invariants are asserted
    lams = np.array([0.0, 0.0, 0.7, 0.7, 1.0])
    planted = np.kron(np.diag(lams), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    q = ortho.random_orthogonal(10, rng)
    c = q @ planted @ q.T
    nf = ortho.normal_form(c)
    assert_allclose(nf.lambdas, lams, atol=1e-10)
    assert ortho.opnorm(nf.reconstruct() - c) <= 1e-9


ZERO_TOL = ortho.NORMAL_ZERO_TOL


@settings(max_examples=200, deadline=None)
@given(
    lams=st.lists(st.sampled_from([0.0, ZERO_TOL / 10, 10 * ZERO_TOL, 1e-7, 0.5, 1.0]),
                  min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(lams=[1e-7, 0.5, 1.0], seed=0)  # its raw basis is orthogonal only to ~1e-9
def test_normal_form_planted_spectra_at_zero_tol(lams, seed):
    # exact zeros, values either side of zero_tol, a small lambda whose plane's basis eigh skews
    # by ~eps/lambda, and repeated values under a random O(2n); O must pass the orthogonality
    # check of givens_eliminate (1e-10), which compiles the G of every learned state
    dim = 2 * len(lams)
    q = ortho.random_orthogonal(dim, np.random.default_rng(seed))
    c = q @ np.kron(np.diag(lams), np.array([[0.0, 1.0], [-1.0, 0.0]])) @ q.T
    nf = ortho.normal_form(c)
    assert ortho.is_orthogonal(nf.O)
    assert ortho.opnorm(nf.reconstruct() - c) <= 1e-9
    oracle = np.linalg.eigvalsh(1j * c)[dim // 2 :]
    assert_allclose(nf.lambdas, np.maximum(oracle, 0.0), atol=1e-12)
    assert_allclose(nf.lambdas, np.sort(lams), atol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), doped=st.booleans(), scale=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_normal_form_of_a_noisy_correlation_matrix(n, doped, scale, seed):
    # a sampled C is an exact one plus antisymmetric noise, whose normal eigenvalues may pass 1:
    # normal_form either returns a decomposition that passes its checks or raises NumericalError
    rng = np.random.default_rng(seed)
    if doped:
        psi = prepare(random_doped_circuit(n, 1, min(3, 2 * n), rng))
    else:
        psi = GaussianUnitary(ortho.random_orthogonal(2 * n, rng)).apply(zero_state(n))
    c = correlation_exact(psi) + random_antisymmetric(2 * n, rng, scale=scale)
    try:
        nf = ortho.normal_form(c)
    except NumericalError:
        return
    assert ortho.is_orthogonal(nf.O)
    assert ortho.opnorm(nf.reconstruct() - c) <= 1e-8 * max(1.0, ortho.opnorm(c))
    # eigvalsh and eigh run different LAPACK drivers, so the two spectra agree only to rounding
    assert_allclose(ortho.normal_eigenvalues(c), nf.lambdas, rtol=0, atol=1e-12 * max(1.0, ortho.opnorm(c)))


def test_normal_form_idempotent_on_lambdas(rng):
    for _ in range(10):
        c = random_antisymmetric(8, rng)
        nf = ortho.normal_form(c)
        again = ortho.normal_form(nf.reconstruct())
        assert_allclose(again.lambdas, nf.lambdas, atol=1e-9)


def test_tplus_correlation_has_zero_lambda():
    # <Z> of T|+> vanishes, so the single normal eigenvalue is 0
    state = tplus_state(1)
    assert expectation(state, single(1, 1, "Z")) == pytest.approx(0.0, abs=1e-12)
    nf = ortho.normal_form(correlation_exact(state))
    assert_allclose(nf.lambdas, [0.0], atol=1e-12)


def test_is_symplectic_fixtures(rng):
    assert is_symplectic(np.eye(4))
    refl = ortho.reflection_matrix(4)
    # direct product oracle: the reflection flips Omega's sign pattern
    w = omega(2)
    assert ortho.opnorm(refl @ w @ refl.T - w) > 0.5
    assert not is_symplectic(refl)
    o = ortho.symplectic_from_unitary(random_unitary(3, rng))
    assert is_symplectic(o)


@pytest.mark.parametrize("predicate", [ortho.is_orthogonal, is_symplectic,
                                       ortho.is_antisymmetric])
@pytest.mark.parametrize("shape", [(), (3,), (4,), (2, 3), (4, 2), (2, 2, 2)])
def test_predicates_reject_non_square_input(predicate, shape):
    assert predicate(np.zeros(shape)) is False


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    kind=st.sampled_from(["dense", "rank1", "nan"]),
    target=st.sampled_from(["spectral", "frobenius"]),
    scale=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(1 - 1e-3, 1 + 1e-3)),
    tol=st.sampled_from([1e-12, 1e-8, 1.0, 3.5]),
    relative=st.sampled_from([None, 0.5, 40.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_opnorm_within_agrees_with_opnorm(shape, kind, target, scale, tol, relative, seed):
    # x sits at scale times the bound, measured in either norm; rank 1 makes the two norms equal
    rng = np.random.default_rng(seed)
    if kind == "rank1":
        x = np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1]))
    else:
        x = rng.normal(size=shape)
    ref = None if relative is None else relative * ortho.random_orthogonal(4, rng)
    bound = tol if ref is None else tol * max(1.0, ortho.opnorm(ref))
    x *= scale * bound / (ortho.opnorm(x) if target == "spectral" else np.linalg.norm(x))
    if kind == "nan":
        x[0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            ortho.opnorm_within(x, tol, relative_to=ref)
        return
    assert ortho.opnorm_within(x, tol, relative_to=ref) == (ortho.opnorm(x) <= bound)


def test_exact_checks_run_no_svd_on_haar_and_group_inputs(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(ortho, "opnorm", lambda a: calls.append(a) or np.linalg.norm(a, 2))
    inputs = list(group_matrices(12)) + [ortho.random_orthogonal(d, rng) for d in (2, 8, 16, 24)]
    for o in inputs:
        ortho.givens_eliminate([o])
    ortho.normal_form(random_antisymmetric(24, rng))
    assert calls == []


def test_symplectic_from_unitary_fixtures(rng):
    assert_allclose(ortho.symplectic_from_unitary(np.eye(3)), np.eye(6))
    assert_allclose(ortho.symplectic_from_unitary(np.array([[1j]])), [[0, 1], [-1, 0]])
    u = random_unitary(4, rng)
    o = ortho.symplectic_from_unitary(u)
    assert ortho.is_orthogonal(o, 1e-9) and is_symplectic(o, 1e-9)
    assert_allclose(o[0::2, 0::2] + 1j * o[0::2, 1::2], u, atol=1e-10)  # the inverse map


def test_real_complex_pairing_equivariance(rng):
    u = random_unitary(5, rng)
    o = ortho.symplectic_from_unitary(u)
    for _ in range(5):
        w = rng.normal(size=10)
        assert_allclose(ortho.real_to_complex(o @ w), u @ ortho.real_to_complex(w), atol=1e-12)


def test_compression_rotation_identity_case():
    vs = [np.eye(8)[0], np.eye(8)[1]]
    o = ortho.compression_rotation(vs, symplectic=True)
    for v in vs:
        assert np.max(np.abs((o @ v)[4:])) <= 1e-9
    assert is_symplectic(o)


def test_compression_rotation_moves_back_plane():
    # a vector living on the last plane lands on the first plane
    v = np.eye(8)[6]
    o = ortho.compression_rotation([v], symplectic=True)
    assert np.max(np.abs((o @ v)[2:])) <= 1e-9
    assert is_symplectic(o) and ortho.is_orthogonal(o)


def test_compression_rotation_random_vectors(rng):
    for _ in range(10):
        vs = [rng.normal(size=8) for _ in range(2)]
        vs = [v / np.linalg.norm(v) for v in vs]
        o = ortho.compression_rotation(vs, symplectic=True)
        assert ortho.is_orthogonal(o) and is_symplectic(o)
        for v in vs:
            assert np.max(np.abs((o @ v)[4:])) <= 1e-9
        o2 = ortho.compression_rotation(vs, symplectic=False)
        assert ortho.is_orthogonal(o2)
        for v in vs:
            assert np.max(np.abs((o2 @ v)[2:])) <= 1e-9


def test_compression_rotation_dependent_vectors_shrink_span(rng):
    v = rng.normal(size=8)
    v /= np.linalg.norm(v)
    o = ortho.compression_rotation([v, v, -v], n=4, symplectic=False)
    # span is one-dimensional, so everything lands on e_1
    assert np.max(np.abs((o @ v)[1:])) <= 1e-9


def test_compression_rotation_input_validation(rng):
    with pytest.raises(ValueError):
        ortho.compression_rotation([np.ones(8)], symplectic=True)  # not unit norm
    too_many = [np.eye(4)[i % 4] for i in range(3)]
    with pytest.raises(ValueError):
        ortho.compression_rotation(too_many, symplectic=True)  # M > n


@st.composite
def compression_inputs(draw):
    """Unit vectors up to the limit, mixing fresh ones with exact and sign-flipped copies."""
    n = draw(st.integers(1, 8))
    symplectic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = []
    for _ in range(draw(st.integers(0, n if symplectic else 2 * n))):
        kind = draw(st.sampled_from(["fresh", "copy", "flip"] if vectors else ["fresh"]))
        if kind == "fresh":
            v = rng.normal(size=2 * n)
            vectors.append(v / np.linalg.norm(v))
        else:
            v = vectors[draw(st.integers(0, len(vectors) - 1))]
            vectors.append(v.copy() if kind == "copy" else -v)
    return vectors, n, symplectic


@settings(max_examples=200, deadline=None)
@given(compression_inputs())
@example((planted_complement(12, True), 12, True))
@example((planted_complement(12, False), 12, False))
def test_compression_rotation_any_unit_vectors(case):
    vectors, n, symplectic = case
    o = ortho.compression_rotation(vectors, n=n, symplectic=symplectic)
    assert ortho.is_orthogonal(o)
    assert not symplectic or is_symplectic(o)
    span = 2 * len(vectors) if symplectic else len(vectors)
    for v in vectors:
        assert np.max(np.abs((o @ v)[span:]), initial=0.0) <= 1e-9


def test_compression_rotation_n_minus_one_random_vectors(rng):
    # a basis missing one direction leaves canonical vectors with residuals near 1/sqrt(n)
    for _ in range(20):
        vs = [v / np.linalg.norm(v) for v in rng.normal(size=(63, 128))]
        o = ortho.compression_rotation(vs, n=64, symplectic=True)
        assert ortho.is_orthogonal(o) and is_symplectic(o)


def test_givens_identity_is_empty():
    rotations, reflect_first = givens(np.eye(6))
    assert rotations == () and not reflect_first


def test_givens_single_plane():
    o = np.kron(np.diag([1.0, 0, 0]), np.array([[0.0, 1.0], [-1.0, 0.0]])) + np.diag([0, 0, 1, 1, 1, 1.0])
    assert ortho.opnorm(rotation_product(6, *givens(o)) - o) <= 1e-12


def test_givens_reflection_fixture(rng):
    o = ortho.random_orthogonal(6, rng)
    if np.linalg.det(o) > 0:
        o = o @ ortho.reflection_matrix(6)
    rotations, reflect_first = givens(o)
    assert reflect_first
    assert ortho.opnorm(rotation_product(6, rotations, reflect_first) - o) <= 1e-10


def test_givens_random_reconstruction(rng):
    for _ in range(20):
        dim = int(rng.choice([4, 6, 8]))
        o = ortho.random_orthogonal(dim, rng)
        rotations, reflect_first = givens(o)
        assert len(rotations) <= dim * (dim - 1) // 2
        assert ortho.opnorm(rotation_product(dim, rotations, reflect_first) - o) <= 1e-10


def nearest_neighbour_rotations(o: np.ndarray):
    """Plain nearest-neighbour elimination: every column bottom up in planes (i - 1, i).

    Returns (rotations, reflect_first) in program order.  Test oracle only.
    """
    d = o.shape[0]
    reflect = np.linalg.det(o) < 0
    a = (o @ ortho.reflection_matrix(d)) if reflect else o.copy()
    eliminations = []
    for j in range(d - 1):
        for i in range(d - 1, j, -1):
            theta = np.arctan2(a[i, j], a[i - 1, j])
            c, s = np.cos(theta), np.sin(theta)
            rp, ri = a[i - 1].copy(), a[i].copy()
            a[i - 1] = c * rp + s * ri
            a[i] = -s * rp + c * ri
            eliminations.append((i, i + 1, theta))
    return tuple((mu, nu, -theta) for mu, nu, theta in reversed(eliminations)), bool(reflect)


def givens_loop(o: np.ndarray):
    """The chain of ``ortho.givens_eliminate``, one 2 x 2 rotation of a row pair at a time.

    Returns (rotations, reflect_first) in program order.  Test oracle only.
    """
    d = o.shape[0]
    reflect = np.linalg.det(o) < 0
    a = (o @ ortho.reflection_matrix(d)) if reflect else o.copy()
    eliminations = []
    for j in range(d - 1):
        below = [i for i, x in enumerate(a[j + 1:, j].tolist(), j + 1) if abs(x) >= 1e-15]
        if below:
            chain = zip([j, *below[:-1]][::-1], below[::-1])  # planes (p, i), bottom up
        elif a[j, j] < 0:
            chain = [(j, j + 1)]  # the column is -e_j
        else:
            continue
        for p, i in chain:
            theta = math.atan2(a[i, j], a[p, j]) if below else math.pi
            c, s = math.cos(theta), math.sin(theta)
            pair = a[p:i + 1:i - p, j:]
            pair[...] = np.array(((c, s), (-s, c))) @ pair
            eliminations.append((p + 1, i + 1, theta))
    return tuple((mu, nu, -theta) for mu, nu, theta in reversed(eliminations)), bool(reflect)


def test_givens_chain_matches_the_per_rotation_loop(rng):
    # the same planes, and angles from the running norms within 1e-13 of the sequential ones
    for n in range(1, 13):
        inputs = [compile_input(kind, n, rng) for kind in ("haar", "signed_permutation", "mix")
                  for _ in range(4)]
        for o in inputs + [o @ ortho.reflection_matrix(2 * n) for o in inputs]:
            expected, reflect = givens_loop(o)
            rotations, reflect_first = givens(o)
            assert [r[:2] for r in rotations] == [r[:2] for r in expected]
            assert_allclose([r[2] for r in rotations], [r[2] for r in expected],
                            rtol=0, atol=1e-13)
            assert reflect_first == reflect


def group_matrices(n_max: int):
    for n in range(1, n_max + 1):
        for pairs in commuting_groups(n):
            yield _group_permutation(pairs, n)


def test_givens_chain_is_the_nearest_neighbour_loop_on_dense_inputs(rng):
    # no exact zeros: every entry is in the chain, so every plane is (i - 1, i)
    for _ in range(40):
        dim = int(rng.choice([2, 4, 8, 12, 16]))
        o = ortho.random_orthogonal(dim, rng)
        expected, reflect = nearest_neighbour_rotations(o)
        rotations, reflect_first = givens(o)
        assert [r[:2] for r in rotations] == [r[:2] for r in expected]
        # the program rotates row pairs with a 2 x 2 product, the oracle elementwise
        angles = [r[2] for r in rotations]
        assert_allclose(angles, [r[2] for r in expected], rtol=0, atol=1e-12)
        assert reflect_first == reflect


def test_givens_chain_adds_at_most_one_rotation_per_signed_permutation_column(rng):
    inputs = list(group_matrices(12))
    inputs += [signed_permutation(int(rng.choice([2, 4, 8, 12, 16])), rng) for _ in range(60)]
    for o in inputs:
        rotations, reflect_first = givens(o)
        columns = [mu for mu, _, _ in rotations]  # column j is eliminated in planes (j, .)
        assert len(columns) == len(set(columns))
        assert ortho.opnorm(rotation_product(len(o), rotations, reflect_first) - o) <= 1e-12


def test_givens_group_programs_at_n12_hold_471_rotations():
    # the 23 basis changes of grouped sampling; 1652 when no-op rotations were recorded,
    # 478 under the fan elimination (pivot row j against every row below it)
    total = sum(len(givens(_group_permutation(pairs, 12))[0]) for pairs in commuting_groups(12))
    assert total == 471


@settings(max_examples=200, deadline=None)
@given(
    half=st.integers(1, 8),
    kind=st.sampled_from(["haar", "permutation", "signed", "signed_negative_zero"]),
    flip=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_givens_round_trip(half, kind, flip, seed):
    rng = np.random.default_rng(seed)
    d = 2 * half
    if kind == "haar":
        o = ortho.random_orthogonal(d, rng)
    else:
        o = np.eye(d)[rng.permutation(d)]
        signs = rng.choice([-1.0, 1.0], size=d)
        if kind == "signed":
            o = np.where(o != 0.0, o * signs[:, None], 0.0)
        elif kind == "signed_negative_zero":
            o = o * signs[:, None]  # zeros in the negated rows become -0.0
    if flip:
        o = o @ ortho.reflection_matrix(d)
    rotations, reflect_first = givens(o)
    assert ortho.opnorm(rotation_product(d, rotations, reflect_first) - o) <= 1e-12
    assert len(rotations) <= d * (d - 1) // 2
    assert reflect_first == (np.linalg.det(o) < 0)
    assert all(theta != 0.0 for _, _, theta in rotations)


@settings(max_examples=200, deadline=None)
@given(
    half=st.integers(1, 8),
    haar=st.integers(0, 8),
    tiny=st.lists(st.floats(1e-16, 1e-14), max_size=3),
    flip=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_givens_reconstructs_inputs_at_the_nonzero_cut(half, haar, tiny, flip, seed):
    # exact zeros and -e_j columns (a signed diagonal, partly Haar, scrambled), tilted in
    # random planes by angles whose sines sit around the 1e-15 cut, at det = +-1
    rng = np.random.default_rng(seed)
    d = 2 * half
    o = np.diag(rng.choice([-1.0, 1.0], size=d))
    k = min(2 * haar, d)
    o[:k, :k] = ortho.random_orthogonal(k, rng) if k else o[:k, :k]
    o = o[rng.permutation(d)][:, rng.permutation(d)]
    for angle in tiny:
        mu, nu = sorted(rng.choice(d, size=2, replace=False) + 1)
        o = rotation_product(d, [(int(mu), int(nu), angle)]) @ o
    if flip:
        o = o @ ortho.reflection_matrix(d)
    rotations, reflect_first = givens(o)
    assert ortho.opnorm(rotation_product(d, rotations, reflect_first) - o) <= 1e-12
    assert len(rotations) <= d * (d - 1) // 2
    assert reflect_first == (np.linalg.det(o) < 0)
    assert all(theta != 0.0 for _, _, theta in rotations)


def test_givens_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        ortho.givens_eliminate([np.eye(4) * 1.1])


def test_givens_rejects_no_matrices_and_mixed_sizes():
    with pytest.raises(ValueError, match="^no matrices to eliminate$"):
        ortho.givens_eliminate([])
    with pytest.raises(ValueError, match=r"^matrices of different sizes: \(4, 4\) and \(6, 6\)$"):
        ortho.givens_eliminate([np.eye(4), np.eye(6)])


_ROTATE_CHAINS = ortho._rotate_chains

# each residual check of ortho, forced to fire by breaking the step before it: (patched owner,
# name, replacement, call on an rng, the check's message)
FORCED_CHECKS = [
    (ortho, "is_orthogonal", lambda o, tol=ortho.ORTHOGONAL_TOL: False,
     lambda rng: ortho.normal_form(random_antisymmetric(6, rng)),
     "normal form produced a non-orthogonal basis"),
    (ortho.NormalForm, "reconstruct", lambda self: self.O,
     lambda rng: ortho.normal_form(random_antisymmetric(6, rng)),
     "normal form reconstruction residual too large"),
    (ortho, "symplectic_from_unitary", lambda u: np.eye(2 * len(u)),
     lambda rng: ortho.compression_rotation([ortho.random_orthogonal(6, rng)[0]], n=3),
     "compression rotation left residual outside the span"),
    (ortho, "_rotate_chains", lambda block: _ROTATE_CHAINS(block.copy()),  # rotates nothing in place
     lambda rng: ortho.givens_eliminate([ortho.random_orthogonal(6, rng)]),
     "Givens elimination did not reach the identity"),
]


@pytest.mark.parametrize("owner, name, replacement, call, message", FORCED_CHECKS,
                         ids=["non_orthogonal", "reconstruction", "compression", "givens"])
def test_a_failed_residual_check_raises_numerical_error(owner, name, replacement, call, message, rng,
                                                        monkeypatch):
    monkeypatch.setattr(owner, name, replacement)
    with pytest.raises(NumericalError, match=f"^{message}$"):
        call(rng)


def test_random_orthogonal_properties(rng):
    with pytest.raises(ValueError):
        ortho.random_orthogonal(5, rng)
    o2 = ortho.random_orthogonal(2, rng)  # a 2x2 rotation or reflection
    assert ortho.opnorm(o2.T @ o2 - np.eye(2)) <= 1e-12
    for _ in range(100):
        o = ortho.random_orthogonal(8, rng)
        assert ortho.opnorm(o.T @ o - np.eye(8)) <= 1e-12
    so = ortho.random_orthogonal(6, rng, haar=False)
    assert np.linalg.det(so) == pytest.approx(1.0, abs=1e-9)


def test_random_orthogonal_entry_scale(rng):
    # mean |entry| for Haar is ~ sqrt(2/pi)/sqrt(dim); sanity band +-50%
    dim = 16
    means = [np.mean(np.abs(ortho.random_orthogonal(dim, rng))) for _ in range(50)]
    expected = np.sqrt(2 / np.pi) / np.sqrt(dim)
    assert 0.5 * expected <= np.mean(means) <= 1.5 * expected


def test_weyl_perturbation_bound(rng):
    # |lambda_k(A+E) - lambda_k(A)| <= ||E||_inf, over random pairs
    for _ in range(100):
        dim = int(rng.choice([4, 8, 12, 16]))
        a = random_antisymmetric(dim, rng)
        e = random_antisymmetric(dim, rng, scale=float(rng.uniform(0.01, 2.0)))
        gap = np.abs(ortho.normal_eigenvalues(a + e) - ortho.normal_eigenvalues(a))
        assert np.max(gap) <= ortho.opnorm(e) + 1e-12
