"""Shared fixtures: dense single-qubit matrices and common state builders."""

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from fermidope import GaussianUnitary, ortho
from fermidope.states import StateVector, embed_with_zero_tail, product, random_state

# same examples on every run, and no example database written to disk
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
# hypothesis also caches the constants it mines from local source files; keep that cache
# in a directory removed at exit instead of .hypothesis/ in the working directory
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def kron_chain(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli word, qubit 1 leftmost."""
    out = np.array([[1.0 + 0j]])
    for letter in letters:
        out = np.kron(out, LETTER[letter])
    return out


def tplus_state(n: int = 1) -> StateVector:
    """n-fold product of the single-qubit magic state T|+>."""
    one = StateVector(1, np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
    out = one
    for _ in range(n - 1):
        out = product(out, one)
    return out


def compressible_fixture(n: int, t: int, seed: int):
    """Exactly t-compressible state G(phi (x) 0^(n-t)) with known parts."""
    rng = np.random.default_rng(seed)
    g = GaussianUnitary(ortho.random_orthogonal(2 * n, rng))
    phi = random_state(t, rng)
    return g.apply(embed_with_zero_tail(phi, n)), g, phi


def planted_complement(n: int, symplectic: bool) -> list:
    """Unit vectors in R^2n spanning all but the uniform direction.

    For symplectic=True their complex pairings are the n - 1 non-constant
    Fourier vectors of C^n; otherwise they are 2n - 1 orthonormal vectors of
    R^2n orthogonal to the all-ones vector.  Every canonical basis vector then
    has a residual of only 1/sqrt(n) (resp. 1/sqrt(2n)) against their span.
    """
    if symplectic:
        k = np.arange(n)
        fourier = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
        out = []
        for b in fourier.T[1:]:
            w = np.empty(2 * n)
            w[0::2], w[1::2] = b.real, -b.imag  # real_to_complex(w) == b
            out.append(w)
        return out
    q, _ = np.linalg.qr(np.column_stack([np.ones(2 * n), np.eye(2 * n)[:, :-1]]))
    return list(q.T[1:])


def signed_permutation(dim: int, rng) -> np.ndarray:
    """A random permutation matrix with random row signs (exact zeros elsewhere)."""
    return np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], size=dim)[:, None]


def compile_input(kind: str, n: int, rng) -> np.ndarray:
    """A 2n x 2n orthogonal input of one of the kinds "haar", "signed_permutation", "mix"."""
    d = 2 * n
    if kind == "haar":
        return ortho.random_orthogonal(d, rng)
    if kind == "signed_permutation":
        return signed_permutation(d, rng)  # exact zeros: long planes as well as adjacent ones
    # Haar on some coordinates, a signed permutation on the rest, both scrambled
    half = 2 * int(rng.integers(1, n)) if n > 1 else d
    mix = np.zeros((d, d))
    mix[:half, :half] = ortho.random_orthogonal(half, rng)
    mix[half:, half:] = signed_permutation(d - half, rng)
    return mix[rng.permutation(d)][:, rng.permutation(d)]


def rotations_of(planes: np.ndarray, angles: np.ndarray) -> tuple:
    """A Givens program's planes and angles as (mu, nu, theta) tuples, in program order."""
    return tuple(zip(*planes.T.tolist(), angles.tolist()))


def givens(o: np.ndarray) -> tuple:
    """(rotations, reflect_first) of ``ortho.givens_eliminate`` on ``o`` alone, rotations as tuples."""
    planes, angles, reflect_first = ortho.givens_eliminate([o])[0]
    return rotations_of(planes, angles), reflect_first


def rotation_product(dim: int, rotations, reflect_first: bool = False) -> np.ndarray:
    """R_m ... R_1 D: the orthogonal matrix a Givens program realises.  Test oracle only.

    D = diag(1, -1, ..., -1) when ``reflect_first``, else I, and R_k is the
    rotation by theta_k in the 1-based coordinate plane (mu_k, nu_k) of the
    k-th (mu, nu, theta) in ``rotations``.  One rotation is a plane rotation.
    """
    out = ortho.reflection_matrix(dim) if reflect_first else np.eye(dim)
    for mu, nu, theta in rotations:
        r = np.eye(dim)
        c, s = np.cos(theta), np.sin(theta)
        i, j = mu - 1, nu - 1
        r[i, i], r[i, j], r[j, i], r[j, j] = c, s, -s, c
        out = r @ out
    return out


def text_prefixes(text: str):
    """(prefix, at_line_boundary): every line boundary and each line's midpoint."""
    pos = 0
    for line in text.splitlines(keepends=True):
        yield text[:pos], True
        yield text[: pos + len(line) // 2], False
        pos += len(line)


def doped_sweep_cells():
    """(n, kappa, t) grid with kappa * t <= n; the compression sweep."""
    cells = []
    for n in (4, 6, 8):
        for kappa in (3, 4):
            for t in (0, 1, 2):
                if kappa * t <= n:
                    cells.append((n, kappa, t))
    return cells


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


@pytest.fixture
def givens_calls(monkeypatch) -> list:
    """Every matrix that ortho.givens_eliminate, the one Givens elimination, decomposes during the test.

    A stacked compile decomposes several matrices in one call; each is recorded.
    """
    calls, original = [], ortho.givens_eliminate

    def eliminate(matrices, *args):
        calls.extend(matrices)
        return original(matrices, *args)

    monkeypatch.setattr(ortho, "givens_eliminate", eliminate)
    return calls
