"""Real-matrix toolkit for the Majorana picture.

Covers the antisymmetric normal form C = O (sum_j lambda_j iY) O^T, the
orthogonal and antisymmetric predicates, the embedding of U(n) as symplectic
orthogonal matrices, plane-rotation (Givens) decompositions of O(2n), and the
rotation that maps a given set of vectors into the span of the leading
canonical basis vectors.

The symplectic form is fixed as Omega = blkdiag([[0, 1], [-1, 0]], ...),
i.e. Majorana indices 2k-1, 2k sit in adjacent rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import NumericalError

_IY2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
# the orthogonality an O must have for its Givens elimination, and so for any O compiled
ORTHOGONAL_TOL = 1e-10
# normal eigenvalues at or below this are zero: their planes cannot be paired reliably
NORMAL_ZERO_TOL = 1e-10


def opnorm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def opnorm_within(x: np.ndarray, tol: float, relative_to: np.ndarray | None = None) -> bool:
    """opnorm(x) <= tol, or <= tol * max(1, opnorm(relative_to)) when that is given.

    The Frobenius norm bounds the spectral norm from above, and the relative
    bound is at least tol, so when the Frobenius norm is within tol the SVD is
    skipped.  The margin covers the rounding of both norms.  A non-finite norm
    fails the cheap test, so otherwise the result, or the error, is opnorm's.
    """
    if np.linalg.norm(x) <= tol * (1.0 - 1e-12):
        return True
    return opnorm(x) <= (tol if relative_to is None else tol * max(1.0, opnorm(relative_to)))


def _is_square(a: np.ndarray) -> bool:
    return a.ndim == 2 and a.shape[0] == a.shape[1]


def is_antisymmetric(c: np.ndarray, tol: float = 1e-12) -> bool:
    c = np.asarray(c, dtype=float)
    return _is_square(c) and opnorm_within(c + c.T, tol, relative_to=c)


def is_orthogonal(o: np.ndarray, tol: float = ORTHOGONAL_TOL) -> bool:
    o = np.asarray(o, dtype=float)
    return _is_square(o) and opnorm_within(o.T @ o - np.eye(o.shape[0]), tol)


def normal_eigenvalues(c: np.ndarray) -> np.ndarray:
    """Nonnegative normal eigenvalues of an antisymmetric matrix, ascending."""
    c = _checked_antisymmetric(c)
    n = c.shape[0] // 2
    s = np.linalg.eigvalsh(1j * c)
    return np.maximum(s[n:], 0.0)


def _checked_antisymmetric(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2 != 0:
        raise ValueError(f"expected a square even-dimensional matrix, got {c.shape}")
    if not is_antisymmetric(c):
        raise ValueError("matrix is not antisymmetric within tolerance")
    return (c - c.T) / 2.0


@dataclass(frozen=True)
class NormalForm:
    """C = O Lambda O^T with Lambda = blkdiag(lambda_j * [[0,1],[-1,0]])."""

    O: np.ndarray
    lambdas: np.ndarray

    def lambda_matrix(self) -> np.ndarray:
        return np.kron(np.diag(self.lambdas), _IY2)

    def reconstruct(self) -> np.ndarray:
        return self.O @ self.lambda_matrix() @ self.O.T


def normal_form(c: np.ndarray) -> NormalForm:
    """Decompose an antisymmetric matrix via the Hermitian eigenproblem of iC.

    Eigenvectors of iC for eigenvalue +lambda come in conjugate pairs with
    -lambda; the real and imaginary parts of each +lambda eigenvector span
    one 2-plane of O.  Planes whose lambda is below NORMAL_ZERO_TOL cannot
    be paired reliably (the +/-lambda eigenspaces merge numerically), so they
    are filled with an orthonormal completion; any completion is valid
    there because Lambda vanishes on those planes.
    """
    c = _checked_antisymmetric(c)
    d = c.shape[0]
    n = d // 2
    s, w = np.linalg.eigh(1j * c)
    lambdas = np.maximum(s[n:], 0.0)

    o = np.empty((d, d))
    planes = lambdas > NORMAL_ZERO_TOL
    for j in np.flatnonzero(planes):
        vec = w[:, n + j]
        o[:, 2 * j] = np.sqrt(2.0) * vec.imag  # o_{2j-1}
        o[:, 2 * j + 1] = np.sqrt(2.0) * vec.real  # o_{2j}
    if not planes.all():
        kept = np.repeat(planes, 2)
        q, _ = np.linalg.qr(o[:, kept], mode="complete")
        o[:, ~kept] = q[:, np.count_nonzero(kept):]  # orthonormal complement of the kept planes
    if not is_orthogonal(o):
        # a small lambda (1e-7 gives ~1e-9) splits its +/-lambda pair only to ~eps/lambda, which
        # skews its plane's basis; the plane itself is accurate, so re-orthonormalize to the
        # tolerance givens_eliminate demands of every O it compiles
        q, r = np.linalg.qr(o)
        o = q * np.sign(np.diag(r))
        if not is_orthogonal(o):
            raise NumericalError("normal form produced a non-orthogonal basis")

    nf = NormalForm(O=o, lambdas=lambdas)
    if not opnorm_within(nf.reconstruct() - c, 1e-8, relative_to=c):
        raise NumericalError("normal form reconstruction residual too large")
    return nf


def symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    """Embed u in U(n) as the orthogonal symplectic Re(u) (x) I + Im(u) (x) iY."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.shape != (n, n) or not opnorm_within(u.conj().T @ u - np.eye(n), 1e-10):
        raise ValueError("input is not unitary within tolerance")
    return np.kron(u.real, np.eye(2)) + np.kron(u.imag, _IY2)


def real_to_complex(w: np.ndarray) -> np.ndarray:
    """Pair the coordinates of w in R^2n as (w1 - i*w2, w3 - i*w4, ...).

    Under this pairing, symplectic_from_unitary(u) acts on R^2n exactly as
    u acts on C^n.
    """
    w = np.asarray(w, dtype=float)
    return w[0::2] - 1j * w[1::2]


def compression_rotation(vectors, n: int | None = None, symplectic: bool = True) -> np.ndarray:
    """Orthogonal O mapping the given unit vectors into a leading-coordinate span.

    With M input vectors in R^(2n), the output satisfies e_i^T O v_j = 0 for
    every j and every i > 2M (symplectic=True, requires M <= n) or i > M
    (symplectic=False, requires M <= 2n).  The symplectic variant preserves
    the form Omega; it is built through the unitary side of the embedding.

    The basis is one complete QR of the matrix whose columns are the inputs
    (their complex pairings in C^n for the symplectic variant): its leading M
    columns span every input, so dependent inputs, duplicates included, are
    allowed and only shrink the span.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if n is None:
        if not vectors:
            raise ValueError("dimension is required when no vectors are given")
        n = len(vectors[0]) // 2
    d = 2 * n
    m = len(vectors)
    limit = n if symplectic else d
    if m > limit:
        raise ValueError(f"too many vectors: {m} > {limit}")
    for v in vectors:
        if v.shape != (d,):
            raise ValueError(f"expected vectors of length {d}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValueError("vectors must have unit norm")

    if symplectic:
        dim, columns = n, [real_to_complex(v) for v in vectors]
    else:
        dim, columns = d, vectors
    a = np.column_stack(columns) if columns else np.zeros((dim, 0))
    q, _ = np.linalg.qr(a, mode="complete")  # A = QR: q[:, :M] spans every input
    o = symplectic_from_unitary(q.conj().T) if symplectic else q.T
    span = 2 * m if symplectic else m
    for v in vectors:
        mapped = o @ v
        if np.max(np.abs(mapped[span:]), initial=0.0) > 1e-9:
            raise NumericalError("compression rotation left residual outside the span")
    return o


def reflection_matrix(dim: int) -> np.ndarray:
    """diag(1, -1, ..., -1): the Heisenberg action of the gamma_1 gate."""
    out = -np.eye(dim)
    out[0, 0] = 1.0
    return out


def _rotate_chains(block: np.ndarray) -> tuple:
    """Rotate the chain of a (rows, cols) block, or of each block of a stack, in place; returns (x, r)."""
    x = block[..., 0].copy()
    r = np.hypot.accumulate(x[..., ::-1], axis=-1)[..., ::-1]  # running norms; r[..., -1] = x[..., -1]
    sums = np.add.accumulate((x[..., None] * block)[..., ::-1, :], axis=-2)[..., ::-1, :]
    r0, r1 = r[..., :-1], r[..., 1:]
    below = (r1 / r0)[..., None] * block[..., :-1, :]
    above = (x[..., :-1] / (r1 * r0))[..., None] * sums[..., 1:, :]
    np.divide(sums[..., 0, :], r[..., :1], out=block[..., 0, :])
    np.subtract(above, below, out=block[..., 1:, :])
    return x, r


_NO_PLANES, _NO_ANGLES = np.empty(0, dtype=np.intp), np.empty(0)  # heads of possibly empty concatenations


def givens_eliminate(matrices) -> list:
    """Factor k >= 1 same-size orthogonal matrices into plane rotations, in one elimination.

    Column by column, the below-diagonal entries are eliminated along a
    chain, bottom up: each nonzero entry a[i, j] (|a[i, j]| >= 1e-15) is
    rotated into the next nonzero row p above it, in the plane (p, i), and
    the topmost into row j.  A dense column (a Haar matrix, a compression
    rotation) therefore gives only adjacent planes (mu, mu + 1), which act
    on one or two neighbouring qubits under Jordan-Wigner, while a sparse
    one (a permutation) gives one rotation per nonzero entry.  A column
    whose only nonzero entry is -1 on the diagonal is fixed by a rotation
    through pi in the plane (j, j + 1); no recorded rotation has theta == 0.

    A column's chain is computed at once.  With x_0 = a[j, j], x_1, ...,
    x_m the chain's entries top down and r_t the norm of x_t .. x_m (r_m =
    x_m keeps its sign), the plane (p_{t-1}, p_t) rotates through
    theta_t = arctan2(r_t, x_{t-1}), and the rotated rows follow from the
    suffix sums T_t = sum_{u >= t} x_u a[p_u]: row p_0 becomes T_0 / r_0
    and row p_t becomes (x_{t-1} T_t / r_t - r_t a[p_{t-1}]) / r_{t-1}.

    The matrices are eliminated as one stack.  A column dense in every
    matrix is one chain computation over the stack; any other column runs
    matrix by matrix, a sparse chain by its nonzero rows.  Each matrix has
    its own orthogonality check, reflection and final identity check, and
    its own arctan2 per column, so its program does not depend on the
    others in the stack.

    Returns per matrix (planes, angles, reflect_first), the arrays
    read-only: a (rotations, 2) integer array of 1-based planes (mu, nu)
    and the angles theta.  They realize O = R_m ... R_1 D, with D =
    diag(1, -1, ..., -1) when ``reflect_first`` (else I) and R_k the
    rotation by theta_k in the plane (mu_k, nu_k): cos(theta_k) on its two
    diagonal entries, sin(theta_k) at (mu_k, nu_k), -sin(theta_k) at
    (nu_k, mu_k).
    """
    matrices = [np.asarray(o, dtype=float) for o in matrices]
    if not matrices:
        raise ValueError("no matrices to eliminate")
    for o in matrices[1:]:
        if o.shape != matrices[0].shape:
            raise ValueError(f"matrices of different sizes: {matrices[0].shape} and {o.shape}")
    for o in matrices:
        if not is_orthogonal(o, ORTHOGONAL_TOL):
            raise ValueError("input is not orthogonal within tolerance")
    d = matrices[0].shape[0]
    reflect = [bool(np.linalg.det(o) < 0) for o in matrices]
    a = np.array([o @ reflection_matrix(d) if r else o for o, r in zip(matrices, reflect)])

    stack = a if len(a) > 1 else a[0]  # one matrix runs on 2-D arrays, which numpy handles faster
    # per matrix and column, the inverse of its eliminations E (E_k ... E_1 A = I): planes and arctan2s
    chains, mus = [[] for _ in matrices], np.arange(1, d + 1)
    for j in range(d - 1):
        chained = np.abs(stack[..., j:, j]) >= 1e-15
        chained[..., 0] = True  # the diagonal entry heads every chain
        if np.count_nonzero(chained) == chained.size:  # dense in every matrix: every row from j down
            x, r = _rotate_chains(stack[..., j:, j:])
            for chain, x_i, r_i in zip(chains, x.reshape(len(a), -1), r.reshape(len(a), -1)):
                chain.append((mus[j:-1], mus[j + 1:], np.arctan2(r_i[1:], x_i[:-1])))  # planes (mu, mu + 1)
            continue
        for a_i, chained_i, chain in zip(a, chained.reshape(len(a), -1), chains):
            rows = chained_i.nonzero()[0] + j
            if len(rows) > 1:
                block = a_i[rows, j:]
                x, r = _rotate_chains(block)
                a_i[rows, j:] = block
                chain.append((mus[rows[:-1]], mus[rows[1:]], np.arctan2(r[1:], x[:-1])))
            elif a_i[j, j] < 0:  # the column is -e_j
                a_i[j:j + 2, j:] *= -1.0
                chain.append((mus[j:j + 1], mus[j + 1:j + 2], np.array([math.pi])))
    out = []
    for a_i, chain, r in zip(a, chains, reflect):
        if not opnorm_within(a_i - np.eye(d), 1e-8):
            raise NumericalError("Givens elimination did not reach the identity")
        chain.reverse()
        planes = np.stack([np.concatenate([_NO_PLANES, *(mu for mu, _, _ in chain)]),
                           np.concatenate([_NO_PLANES, *(nu for _, nu, _ in chain)])], axis=1)
        angles = -np.concatenate([_NO_ANGLES, *(theta for _, _, theta in chain)])
        planes.setflags(write=False)
        angles.setflags(write=False)
        out.append((planes, angles, r))
    return out


def random_orthogonal(dim: int, rng, haar: bool = True) -> np.ndarray:
    """Haar-random element of O(dim), or of SO(dim) when haar=False."""
    if dim % 2 != 0:
        raise ValueError(f"dimension must be even, got {dim}")
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if not haar and np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q
