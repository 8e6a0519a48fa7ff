"""Pauli-string algebra against dense Kronecker-product oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fermidope.pauli import MAX_QUBITS, PauliString, _parity_signs, hermitize, majorana, majorana_monomial, pauli_mul
from fermidope.states import StateVector, apply_pauli_rotation, random_state

from conftest import I2, X2, Z2, kron_chain


def test_majorana_jordan_wigner_fixtures():
    assert_allclose(majorana(1, 2).to_matrix(), kron_chain("XI"))
    assert_allclose(majorana(4, 2).to_matrix(), kron_chain("ZY"))
    assert_allclose(majorana(3, 3).to_matrix(), kron_chain("ZXI"))


def test_majorana_squares_to_identity():
    for n in (1, 2, 3):
        for mu in range(1, 2 * n + 1):
            sq = pauli_mul(majorana(mu, n), majorana(mu, n))
            assert sq == PauliString.identity(n)


def test_majorana_index_out_of_range():
    with pytest.raises(ValueError):
        majorana(0, 2)
    with pytest.raises(ValueError):
        majorana(5, 2)


def test_majorana_is_one_shared_string_per_index_and_register():
    assert majorana(3, 4) is majorana(3, 4)
    assert majorana(3, 4) is not majorana(3, 5)
    for _ in range(2):  # a failed call caches nothing
        with pytest.raises(ValueError, match="out of range"):
            majorana(9, 4)


@pytest.mark.parametrize("args, message", [
    ((0, 0, 0), "qubit count"),
    ((MAX_QUBITS + 1, 0, 0), "qubit count"),
    ((3, -1, 0), "non-negative"),
    ((3, 0, -2), "non-negative"),
    ((3, 0b1000, 0), "outside"),
    ((3, 0, 0b10000), "outside"),
])
def test_string_validation_names_each_fault(args, message):
    with pytest.raises(ValueError, match=message):
        PauliString(*args)


def test_distinct_majoranas_anticommute():
    n = 3
    for mu in range(1, 2 * n + 1):
        for nu in range(1, 2 * n + 1):
            if mu == nu:
                continue
            ab = pauli_mul(majorana(mu, n), majorana(nu, n))
            ba = pauli_mul(majorana(nu, n), majorana(mu, n))
            assert ab.x_mask == ba.x_mask and ab.z_mask == ba.z_mask
            assert (ab.phase_exp - ba.phase_exp) % 4 == 2


def test_pauli_z_from_majorana_pair():
    # Z_j = -i gamma_{2j-1} gamma_{2j}; so gamma_1 gamma_2 itself is +i Z
    prod = pauli_mul(majorana(1, 1), majorana(2, 1))
    assert_allclose(prod.to_matrix(), 1j * kron_chain("Z"))
    z = PauliString(1, prod.x_mask, prod.z_mask, prod.phase_exp + 3)
    assert_allclose(z.to_matrix(), kron_chain("Z"))


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        pauli_mul(PauliString.identity(2), PauliString.identity(3))


def test_product_matches_dense_multiplication():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for _ in range(30):
            a = PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)), int(rng.integers(4)))
            b = PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)), int(rng.integers(4)))
            assert_allclose(pauli_mul(a, b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-14)


def test_product_associative():
    rng = np.random.default_rng(4)
    n = 4
    draws = [
        PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)), int(rng.integers(4)))
        for _ in range(30)
    ]
    for a, b, c in zip(draws, draws[1:], draws[2:]):
        assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))


def test_hermitian_product_squares_to_identity():
    rng = np.random.default_rng(5)
    n = 3
    for _ in range(40):
        p = hermitize(PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)), int(rng.integers(4))))
        assert pauli_mul(p, p) == PauliString.identity(n)


def test_hermitian_predicate_matches_dense():
    for n in (1, 2):
        for x in range(2**n):
            for z in range(2**n):
                for p in range(4):
                    ps = PauliString(n, x, z, p)
                    m = ps.to_matrix()
                    assert ps.is_hermitian == np.allclose(m, m.conj().T)


def test_unitarity_dense():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ps = PauliString(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
        m = ps.to_matrix()
        assert_allclose(m @ m.conj().T, np.eye(8), atol=1e-14)


def test_monomial_empty_is_identity():
    assert majorana_monomial((), 2) == PauliString.identity(2)


def test_monomial_pair_is_iz():
    assert_allclose(majorana_monomial((1, 2), 1).to_matrix(), 1j * kron_chain("Z"))


def test_monomial_matches_dense_product_oracle():
    n = 2
    dense = np.eye(4, dtype=complex)
    for mu in (1, 2, 3, 4):
        dense = dense @ majorana(mu, n).to_matrix()
    assert_allclose(majorana_monomial((1, 2, 3, 4), n).to_matrix(), dense, atol=1e-14)


def test_monomial_rejects_unsorted_or_duplicates():
    with pytest.raises(ValueError):
        majorana_monomial((2, 1), 2)
    with pytest.raises(ValueError):
        majorana_monomial((1, 1), 2)


def test_monomials_orthogonal_under_hilbert_schmidt():
    # all 4^n ordered monomials for n <= 2, pairwise HS-orthogonal
    for n in (1, 2):
        mats = []
        for r in range(2 * n + 1):
            for s in itertools.combinations(range(1, 2 * n + 1), r):
                mats.append(majorana_monomial(s, n).to_matrix())
        assert len(mats) == 4**n
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                assert abs(np.trace(a.conj().T @ b)) < 1e-12


def test_monomials_orthogonal_n3_sampled():
    # n = 3 has 4096 pairs; spot-check a random 300 of them densely
    rng = np.random.default_rng(7)
    subsets = []
    for r in range(7):
        subsets.extend(itertools.combinations(range(1, 7), r))
    for _ in range(300):
        i, j = rng.integers(len(subsets), size=2)
        if i == j:
            continue
        a = majorana_monomial(subsets[i], 3).to_matrix()
        b = majorana_monomial(subsets[j], 3).to_matrix()
        assert abs(np.trace(a.conj().T @ b)) < 1e-12


def test_dense_matches_letter_kron_everywhere():
    # the dense matrix of any string equals the Kronecker product built
    # independently from its rendered letter sequence
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            ps = PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)), int(rng.integers(4)))
            sign, letters = str(ps).split()
            scalar = {"+": 1, "+i": 1j, "-": -1, "-i": -1j}[sign]
            assert_allclose(ps.to_matrix(), scalar * kron_chain(letters), atol=1e-14)


def kron_of_factors(ps: PauliString) -> np.ndarray:
    """i^phase times the Kronecker product of X^x Z^z over qubits 1..n, qubit 1 leftmost."""
    out = np.array([[1.0 + 0j]])
    for k in range(ps.n):
        x, z = (ps.x_mask >> k) & 1, (ps.z_mask >> k) & 1
        out = np.kron(out, (X2 if x else I2) @ (Z2 if z else I2))
    return (1, 1j, -1, -1j)[ps.phase_exp] * out


def test_to_matrix_equals_kron_of_factors_exactly():
    # the signed-permutation matrix of every string up to n = 4, every phase
    for n in (1, 2, 3, 4):
        for x, z, phase in itertools.product(range(2**n), range(2**n), range(4)):
            ps = PauliString(n, x, z, phase)
            assert np.array_equal(ps.to_matrix(), kron_of_factors(ps)), (n, x, z, phase)


def uncached_action(ps: PauliString) -> tuple:
    """(src, coef) straight from the masks on every call: the reference for ``action()``."""
    x, z = (int(f"{mask:0{ps.n}b}"[::-1], 2) for mask in (ps.x_mask, ps.z_mask))
    src = np.arange(2**ps.n) ^ x
    coef = ps.phase * (1.0 - 2.0 * (np.bitwise_count(src & z) & 1))
    return src, coef


@st.composite
def pauli_strings_up_to_8(draw):
    n = draw(st.integers(1, 8))
    masks = st.integers(0, 2**n - 1)
    return PauliString(n, draw(masks), draw(masks), draw(st.integers(0, 3)))


@given(pauli_strings_up_to_8())
def test_cached_action_equals_the_uncached_formula(ps):
    for got, want in zip(ps.action(), uncached_action(ps)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_action_is_computed_once_and_read_only():
    ps = PauliString(3, 0b101, 0b110, 1)
    src, coef = ps.action()
    assert ps.action()[0] is src and ps.action()[1] is coef
    for arr in (src, coef):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_to_matrix_is_a_fresh_writable_matrix_on_every_call():
    ps = PauliString(2, 0b01, 0b11, 0)
    first, second = ps.to_matrix(), ps.to_matrix()
    assert first is not second and first.flags.writeable
    first *= 3.0  # the caller owns it: the next matrix and the action are untouched
    assert np.array_equal(second, kron_of_factors(ps))
    assert np.array_equal(ps.to_matrix(), kron_of_factors(ps))


@settings(max_examples=80, deadline=None)
@given(
    letters=st.text(alphabet="IXYZ", min_size=1, max_size=7),
    negative=st.booleans(),
    phi=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_rotation_matches_the_dense_oracle(letters, negative, phi, seed):
    # runs of every letter, a Y run reading its source bits, either sign of the string
    n = len(letters)
    x = sum(1 << k for k, c in enumerate(letters) if c in "XY")
    z = sum(1 << k for k, c in enumerate(letters) if c in "ZY")
    p = PauliString(n, x, z, letters.count("Y") + 2 * negative)
    assert p.is_hermitian
    psi = random_state(n, np.random.default_rng(seed))
    amps = psi.amps.copy()
    p.rotate(amps, phi)
    assert np.abs(amps - apply_pauli_rotation(psi, p, phi).amps).max() <= 1e-13


@settings(max_examples=80, deadline=None)
@given(ps=pauli_strings_up_to_8(), phi=st.floats(-4.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_times_is_the_dense_product_as_a_new_array(ps, phi, seed):
    # any string and phase, not only Hermitian ones; the two scales rotate uses and the default
    psi = random_state(ps.n, np.random.default_rng(seed))
    amps = psi.amps.copy()
    for scale in (1.0, 1j * np.sin(phi)):
        out = ps.times(amps, scale)
        assert out.shape == amps.shape and not np.shares_memory(out, amps)
        assert np.abs(out - scale * (ps.to_matrix() @ amps)).max() <= 1e-15
    assert np.array_equal(ps.times(amps), ps.times(amps, 1.0))
    assert np.array_equal(amps, psi.amps)


def test_in_place_rotation_rejects_a_non_hermitian_string():
    amps = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        PauliString(1, 1, 0, 1).rotate(amps, 0.3)
    assert amps.tolist() == [1.0, 0.0]


def test_rotation_layout_keeps_only_views_of_the_shared_parity_tables():
    # no 2^n table per string: every sign table is a view of one cached table per run length
    p = hermitize(majorana_monomial((1, 6, 7, 24), 12))
    shape, flip, signs = p._runs
    assert np.prod(shape) == 2**12 and len(flip) == len(shape)
    assert signs and all(any(t.base is _parity_signs(b) for b in range(1, 13)) for t in signs)
    assert p._runs is p._runs

