"""Real-matrix toolkit for the Majorana picture.

Covers the antisymmetric normal form C = O (sum_j lambda_j iY) O^T, the
orthogonal/symplectic predicates, the embedding of U(n) as symplectic
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

_IY2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


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


def omega(n: int) -> np.ndarray:
    """The 2n x 2n symplectic form, blocks [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n), _IY2)


def _is_square(a: np.ndarray) -> bool:
    return a.ndim == 2 and a.shape[0] == a.shape[1]


def is_antisymmetric(c: np.ndarray, tol: float = 1e-12) -> bool:
    c = np.asarray(c, dtype=float)
    return _is_square(c) and opnorm_within(c + c.T, tol, relative_to=c)


def is_orthogonal(o: np.ndarray, tol: float = 1e-10) -> bool:
    o = np.asarray(o, dtype=float)
    return _is_square(o) and opnorm_within(o.T @ o - np.eye(o.shape[0]), tol)


def is_symplectic(o: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff O preserves the symplectic form: O Omega O^T = Omega."""
    o = np.asarray(o, dtype=float)
    if not _is_square(o) or o.shape[0] % 2 != 0:
        return False
    w = omega(o.shape[0] // 2)
    return opnorm_within(o @ w @ o.T - w, tol)


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

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def lambda_matrix(self) -> np.ndarray:
        return np.kron(np.diag(self.lambdas), _IY2)

    def reconstruct(self) -> np.ndarray:
        return self.O @ self.lambda_matrix() @ self.O.T


def normal_form(c: np.ndarray, zero_tol: float = 1e-10) -> NormalForm:
    """Decompose an antisymmetric matrix via the Hermitian eigenproblem of iC.

    Eigenvectors of iC for eigenvalue +lambda come in conjugate pairs with
    -lambda; the real and imaginary parts of each +lambda eigenvector span
    one 2-plane of O.  Planes whose lambda is below ``zero_tol`` cannot be
    paired reliably (the +/-lambda eigenspaces merge numerically), so they
    are filled with an orthonormal completion; any completion is valid
    there because Lambda vanishes on those planes.
    """
    c = _checked_antisymmetric(c)
    d = c.shape[0]
    n = d // 2
    s, w = np.linalg.eigh(1j * c)
    lambdas = np.maximum(s[n:], 0.0)

    o = np.empty((d, d))
    planes = lambdas > zero_tol
    for j in np.flatnonzero(planes):
        vec = w[:, n + j]
        o[:, 2 * j] = np.sqrt(2.0) * vec.imag  # o_{2j-1}
        o[:, 2 * j + 1] = np.sqrt(2.0) * vec.real  # o_{2j}
    if not planes.all():
        kept = np.repeat(planes, 2)
        q, _ = np.linalg.qr(o[:, kept], mode="complete")
        o[:, ~kept] = q[:, np.count_nonzero(kept):]  # orthonormal complement of the kept planes
    if not opnorm_within(o.T @ o - np.eye(d), 1e-9):
        # a lambda just above zero_tol splits its +/-lambda pair only to ~eps/lambda, which
        # skews its plane's basis; the plane itself is accurate, so re-orthonormalize
        q, r = np.linalg.qr(o)
        o = q * np.sign(np.diag(r))

    nf = NormalForm(O=o, lambdas=lambdas)
    if not opnorm_within(o.T @ o - np.eye(d), 1e-9):
        raise np.linalg.LinAlgError("normal form produced a non-orthogonal basis")
    if not opnorm_within(nf.reconstruct() - c, 1e-8, relative_to=c):
        raise np.linalg.LinAlgError("normal form reconstruction residual too large")
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
            raise np.linalg.LinAlgError("compression rotation left residual outside the span")
    return o


@dataclass(frozen=True)
class GivensProgram:
    """Plane rotations realizing an orthogonal matrix.

    The reconstruction applies the reflection first (when ``reflect_first``),
    then the rotations in list order:  O = R_m ... R_1 D, with D = I or
    diag(1, -1, ..., -1).  Planes are 1-based (Majorana indices).
    """

    dim: int
    rotations: tuple
    reflect_first: bool = False

    def matrix(self) -> np.ndarray:
        out = reflection_matrix(self.dim) if self.reflect_first else np.eye(self.dim)
        for mu, nu, theta in self.rotations:
            out = plane_rotation(self.dim, mu, nu, theta) @ out
        return out


def plane_rotation(dim: int, mu: int, nu: int, theta: float) -> np.ndarray:
    """Rotation by theta in the (mu, nu) coordinate plane, 1-based indices."""
    out = np.eye(dim)
    c, s = np.cos(theta), np.sin(theta)
    i, j = mu - 1, nu - 1
    out[i, i] = c
    out[i, j] = s
    out[j, i] = -s
    out[j, j] = c
    return out


def reflection_matrix(dim: int) -> np.ndarray:
    """diag(1, -1, ..., -1): the Heisenberg action of the gamma_1 gate."""
    out = -np.eye(dim)
    out[0, 0] = 1.0
    return out


def givens_decompose(o: np.ndarray, tol: float = 1e-10) -> GivensProgram:
    """Factor an orthogonal matrix into at most d(d-1)/2 plane rotations.

    Column by column, the below-diagonal entries are eliminated along a
    chain, bottom up: each nonzero entry a[i, j] (|a[i, j]| >= 1e-15) is
    rotated into the next nonzero row p above it, in the plane (p, i), and
    the topmost into row j.  A dense column (a Haar matrix, a compression
    rotation) therefore gives only adjacent planes (mu, mu + 1), which act
    on one or two neighbouring qubits under Jordan-Wigner, while a sparse
    one (a permutation) gives one rotation per nonzero entry.  A column
    whose only nonzero entry is -1 on the diagonal is fixed by a rotation
    through pi in the plane (j, j + 1); no recorded rotation has theta == 0.

    A column's chain is computed at once (a chain of one plane, each
    column of a permutation, on Python floats).  With x_0 = a[j, j], x_1, ...,
    x_m the chain's entries top down and r_t the norm of x_t .. x_m (r_m =
    x_m keeps its sign), the plane (p_{t-1}, p_t) rotates through
    theta_t = arctan2(r_t, x_{t-1}), and the rotated rows follow from the
    suffix sums T_t = sum_{u >= t} x_u a[p_u]: row p_0 becomes T_0 / r_0
    and row p_t becomes (x_{t-1} T_t / r_t - r_t a[p_{t-1}]) / r_{t-1}.
    """
    o = np.asarray(o, dtype=float)
    d = o.shape[0]
    if not is_orthogonal(o, tol):
        raise ValueError("input is not orthogonal within tolerance")
    reflect = np.linalg.det(o) < 0
    a = (o @ reflection_matrix(d)) if reflect else o.copy()

    programs = []  # per column, the inverse of its eliminations E (E_k ... E_1 A = I) in order
    for j in range(d - 1):
        below = [i for i, x in enumerate(a[j + 1:, j].tolist(), j + 1) if abs(x) >= 1e-15]
        if len(below) == 1:  # one plane (j, i): the same rotation on the row pair, in scalars
            i = below[0]
            x0, x1 = float(a[j, j]), float(a[i, j])
            pair = a[j:i + 1:i - j, j:]
            pair[...] = np.array(((x0, x1), (-x1, x0))) / math.hypot(x0, x1) @ pair
            programs.append([(j + 1, i + 1, -math.atan2(x1, x0))])
            continue
        if len(below) == d - 1 - j:  # a dense column: the chain is every row from j down
            rows, index = np.arange(j, d), slice(j, d)
        elif below:
            rows = index = np.array([j, *below])
        elif a[j, j] < 0:  # the column is -e_j
            a[j:j + 2, j:] *= -1.0
            programs.append([(j + 1, j + 2, -math.pi)])
            continue
        else:
            continue
        block = a[index, j:]
        x = block[:, 0].copy()
        r = np.hypot.accumulate(x[::-1])[::-1]  # running norms; r[-1] = x[-1] keeps its sign
        sums = np.cumsum((x[:, None] * block)[::-1], axis=0)[::-1]
        rotated = np.empty_like(block)
        rotated[0] = sums[0] / r[0]
        rotated[1:] = ((x[:-1] / (r[1:] * r[:-1]))[:, None] * sums[1:]
                       - (r[1:] / r[:-1])[:, None] * block[:-1])
        a[index, j:] = rotated
        mus = (rows + 1).tolist()
        programs.append(list(zip(mus[:-1], mus[1:], (-np.arctan2(r[1:], x[:-1])).tolist())))
    if not opnorm_within(a - np.eye(d), 1e-8):
        raise np.linalg.LinAlgError("Givens elimination did not reach the identity")
    rotations = [rot for program in reversed(programs) for rot in program]
    return GivensProgram(dim=d, rotations=tuple(rotations), reflect_first=bool(reflect))


def random_orthogonal(dim: int, rng, haar: bool = True) -> np.ndarray:
    """Haar-random element of O(dim), or of SO(dim) when haar=False."""
    if dim % 2 != 0:
        raise ValueError(f"dimension must be even, got {dim}")
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if not haar and np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random element of U(dim)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_antisymmetric(dim: int, rng, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    a = (a - a.T) / 2.0
    return scale * a


def matrix_to_text(a: np.ndarray) -> str:
    """Row-major decimal text; repr floats reload bit-exactly."""
    return "\n".join(" ".join(repr(float(x)) for x in row) for row in np.asarray(a)) + "\n"


# largest entry a matrix row may hold: 1, with ample room for rounding
ROW_ENTRY_BOUND = 1.0 + 1e-6


class LineReader:
    """The non-blank lines of a text document, read in order.

    Every read checks that the line is there and has the expected shape;
    otherwise it raises ValueError("line k: expected ...") with k the 1-based
    line number in the text.
    """

    def __init__(self, text: str):
        raw = text.splitlines()
        self._lines = [(k, ln.split()) for k, ln in enumerate(raw, 1) if ln.strip()]
        self._end = len(raw) + 1
        self._pos = 0

    def error(self, expected: str) -> ValueError:
        """The error for the line read last."""
        return ValueError(f"line {self._lines[self._pos - 1][0]}: expected {expected}")

    def fields(self, expected: str) -> list:
        """Whitespace-separated fields of the next line."""
        if self._pos == len(self._lines):
            raise ValueError(f"line {self._end}: expected {expected}, got end of document")
        self._pos += 1
        return self._lines[self._pos - 1][1]

    def convert(self, tokens, cast, expected: str) -> list:
        """``cast`` of each token; NaN and infinities are rejected like any other non-number."""
        try:
            values = [cast(x) for x in tokens]
        except ValueError:
            raise self.error(expected) from None
        if not all(map(math.isfinite, values)):
            raise self.error(expected)
        return values

    def keyword(self, line: str) -> None:
        if self.fields(repr(line)) != line.split():
            raise self.error(repr(line))

    def count(self, *words: str) -> int:
        """The nonnegative integer ending a line that starts with ``words``."""
        expected = repr(" ".join(words) + " <count>")
        f = self.fields(expected)
        if f[:-1] != list(words) or not f[-1].isdecimal():
            raise self.error(expected)
        return int(f[-1])

    def row(self, width: int) -> list:
        """A line of exactly ``width`` floats, each at most ROW_ENTRY_BOUND in magnitude.

        Rows are of orthogonal matrices and unit vectors, whose entries are at
        most 1; a larger one is rejected before arithmetic on it can overflow.
        """
        expected = f"a matrix row of {width} numbers"
        f = self.fields(expected)
        if len(f) != width:
            raise self.error(expected)
        values = self.convert(f, float, expected)
        if any(abs(x) > ROW_ENTRY_BOUND for x in values):
            raise self.error(expected)
        return values

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return np.array([self.row(cols) for _ in range(rows)]).reshape(rows, cols)

    def orthogonal(self, dim: int) -> np.ndarray:
        """A dim x dim matrix that `is_orthogonal` accepts; a failure names its last row's line."""
        o = self.matrix(dim, dim)
        if not is_orthogonal(o):
            raise self.error(f"{dim} rows ending here that form an orthogonal matrix")
        return o
