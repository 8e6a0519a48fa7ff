"""Fermionic Gaussian unitaries as executable gate programs.

A Gaussian unitary G_O is pinned down (up to a global phase) by its
Heisenberg action on Majorana operators,

    G^dag gamma_mu G = sum_nu O[mu, nu] gamma_nu,      O in O(2n),

and composes as G_{O1} G_{O2} = G_{O1 @ O2}.  Compilation factors O into
plane rotations; the rotation in plane (mu, nu) by angle theta is realized
as exp(i * theta/2 * P) with P the Hermitian form of -i gamma_mu gamma_nu,
and a det = -1 factor is realized by applying gamma_1 = X_1 as a gate.  The
test suite checks the angle/sign convention against the Heisenberg identity
on dense matrices (see ``heisenberg_matrix``).

Under Jordan-Wigner, P is a two-qubit gate dressed by a Z-string (Jozsa &
Miyake 2008), so ``rotate_plane`` applies it in place on a reshaped view
of the amplitudes; ``rotation_generator`` and ``apply_pauli_rotation`` give
the same rotation on the dense Pauli path, the oracle the tests hold it to.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from . import ortho
from .pauli import PauliString, majorana, pauli_mul
from .states import StateVector, apply_pauli_rotation, operator_matrix, zero_state  # noqa: F401


def rotation_generator(mu: int, nu: int, n: int) -> PauliString:
    """Hermitian Pauli string -i gamma_mu gamma_nu."""
    if mu == nu:
        raise ValueError("rotation plane needs two distinct Majorana indices")
    g = pauli_mul(majorana(mu, n), majorana(nu, n))
    p = PauliString(g.n, g.x_mask, g.z_mask, g.phase_exp + 3)  # multiply by -i
    if not p.is_hermitian:
        raise AssertionError("rotation generator failed to be Hermitian")
    return p


@cache
def _parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(m) for m < 2^(n-2): the sign of a Z-string on the middle bits m."""
    signs = np.ones(1)
    for _ in range(n - 2):
        signs = np.concatenate([signs, -signs])
    signs.setflags(write=False)
    return signs


def rotate_plane(amps: np.ndarray, n: int, mu: int, nu: int, phi: float) -> None:
    """amps <- exp(i * phi * P) amps in place, P = -i gamma_mu gamma_nu, mu < nu.

    With k = ceil(mu/2) and l = ceil(nu/2), P = Z_k when k = l; otherwise
    P = (-Y_k if mu is odd else X_k) Z_{k+1..l-1} (X_l if nu is odd else Y_l),
    which flips bits k and l and multiplies by edge factors of the output
    bits and the Z-string parity of the bits between them.
    """
    k, l = (mu + 1) // 2, (nu + 1) // 2
    if k == l:
        v = amps.reshape(2 ** (k - 1), 2, 2 ** (n - k))
        v[:, 0] *= np.exp(1j * phi)
        v[:, 1] *= np.exp(-1j * phi)
        return
    middle = 2 ** (l - k - 1)
    v = amps.reshape(2 ** (k - 1), 2, middle, 2, 2 ** (n - l))
    y_edge = np.array([-1j, 1j])  # <b| Y |1-b> = -i (-1)^b
    left = -y_edge if mu % 2 else np.ones(2)
    right = np.ones(2) if nu % 2 else y_edge
    coef = (1j * np.sin(phi)) * left[:, None, None] * _parity_signs(n)[:middle, None] * right
    flipped = coef[..., None] * v[:, ::-1, :, ::-1, :]
    v *= np.cos(phi)
    v += flipped


class GaussianUnitary:
    """A Gaussian unitary, built from its orthogonal matrix.

    The gate program is compiled lazily and cached; instances are immutable.
    """

    def __init__(self, o: np.ndarray, check: bool = True):
        o = np.array(o, dtype=float)
        if o.ndim != 2 or o.shape[0] != o.shape[1] or o.shape[0] % 2 != 0:
            raise ValueError(f"expected a square even-dimensional matrix, got {o.shape}")
        if check and not ortho.is_orthogonal(o):
            raise ValueError("matrix is not orthogonal within tolerance")
        o.setflags(write=False)
        self.O = o

    @property
    def n(self) -> int:
        return self.O.shape[0] // 2

    @cached_property
    def program(self) -> ortho.GivensProgram:
        return ortho.givens_decompose(self.O)

    def adjoint(self) -> "GaussianUnitary":
        return GaussianUnitary(self.O.T, check=False)

    def __matmul__(self, other: "GaussianUnitary") -> "GaussianUnitary":
        """Composition: (self @ other) applies ``other`` first."""
        return GaussianUnitary(self.O @ other.O, check=False)

    def apply(self, psi: StateVector) -> StateVector:
        if psi.n != self.n:
            raise ValueError(f"state has {psi.n} qubits, unitary expects {self.n}")
        prog = self.program
        # the one copy; the reflection gamma_1 = X_1 swaps the halves on qubit 1
        source = psi.amps.reshape(2, -1)[::-1] if prog.reflect_first else psi.amps
        amps = source.copy().reshape(-1)
        for mu, nu, theta in prog.rotations:
            rotate_plane(amps, self.n, mu, nu, theta / 2.0)
        return StateVector(self.n, amps)

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n unitary; for oracle checks at small n."""
        return operator_matrix(self.apply, self.n)

    def program_text(self) -> str:
        """Readable dump of the compiled gate sequence."""
        lines = [f"gaussian n={self.n} rotations={len(self.program.rotations)}"]
        if self.program.reflect_first:
            lines.append("reflect gamma_1")
        lines.extend(
            f"rotate plane=({mu},{nu}) angle={theta!r}" for mu, nu, theta in self.program.rotations
        )
        return "\n".join(lines)


def identity_gaussian(n: int) -> GaussianUnitary:
    return GaussianUnitary(np.eye(2 * n), check=False)


def preserves_vacuum(g: GaussianUnitary, tol: float = 1e-9) -> bool:
    """True iff |<0^n| G |0^n>| = 1 within tolerance."""
    amp = g.apply(zero_state(g.n)).amps[0]
    return bool(abs(abs(amp) - 1.0) <= tol)


def heisenberg_matrix(g: GaussianUnitary) -> np.ndarray:
    """Recover O from the dense conjugation action G^dag gamma_mu G."""
    n = g.n
    u = g.matrix()
    out = np.zeros((2 * n, 2 * n))
    gammas = [majorana(mu, n).to_matrix() for mu in range(1, 2 * n + 1)]
    dim = 2**n
    for mu in range(2 * n):
        conj = u.conj().T @ gammas[mu] @ u
        for nu in range(2 * n):
            out[mu, nu] = (np.trace(gammas[nu] @ conj) / dim).real
    return out
