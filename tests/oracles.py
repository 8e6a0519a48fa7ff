"""Reference implementations and input generators that the tests compare the package against.

The dense ones build a full 2^n statevector or 2^n x 2^n matrix, so they are
for checks at small n.  No package code calls any of them; test_states.py,
test_gaussian.py and test_ortho.py check the references themselves.
"""

from __future__ import annotations

import numpy as np

from fermidope.gaussian import GaussianUnitary
from fermidope.ortho import _IY2, _is_square, opnorm_within
from fermidope.pauli import LETTERS, PauliString, majorana
from fermidope.states import StateVector, apply_pauli, basis_state


def operator_matrix(apply_fn, n: int) -> np.ndarray:
    """Dense matrix of a linear map given by its action on statevectors."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        out[:, b] = apply_fn(basis_state(n, b)).amps
    return out


def apply_dense_unitary(psi: StateVector, qubits, u: np.ndarray) -> StateVector:
    """Apply a 2^k x 2^k unitary on the listed qubits, identity elsewhere."""
    qubits = list(qubits)
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError(f"duplicate qubit indices: {qubits}")
    if any(not 1 <= q <= psi.n for q in qubits):
        raise ValueError(f"qubit indices out of range: {qubits}")
    u = np.asarray(u, dtype=complex)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"expected a {2**k} x {2**k} matrix, got {u.shape}")
    if np.linalg.norm(u.conj().T @ u - np.eye(2**k), 2) > 1e-10:
        raise ValueError("matrix is not unitary")
    if k == 0:
        return psi
    t = psi.amps.reshape([2] * psi.n)
    axes = [q - 1 for q in qubits]
    t = np.moveaxis(t, axes, range(k))
    t = u @ t.reshape(2**k, -1)
    t = np.moveaxis(t.reshape([2] * psi.n), range(k), axes)
    return StateVector(psi.n, t.reshape(-1))


def expectation(psi: StateVector, p: PauliString) -> float:
    """<psi| P |psi> for Hermitian P."""
    if not p.is_hermitian:
        raise ValueError("expectation requires a Hermitian Pauli string")
    value = np.vdot(psi.amps, apply_pauli(psi, p).amps)
    return float(value.real)


def marginal_probabilities(psi: StateVector, qubits) -> np.ndarray:
    """Joint outcome distribution of the listed qubits, in listed order."""
    qubits = list(qubits)
    if not qubits:
        raise ValueError("qubit list is empty")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit indices: {qubits}")
    probs = np.abs(psi.amps.reshape([2] * psi.n)) ** 2
    probs = np.moveaxis(probs, [q - 1 for q in qubits], range(len(qubits)))
    return probs.reshape(2 ** len(qubits), -1).sum(axis=1)


def born_probability(psi: StateVector, qubits, outcomes) -> float:
    """Probability of observing the given outcome bits on the listed qubits."""
    qubits, outcomes = list(qubits), list(outcomes)
    probs = marginal_probabilities(psi, qubits)
    pos = 0
    for bit in outcomes:
        pos = (pos << 1) | int(bit)
    return float(probs[pos])


def dense_matrix(g: GaussianUnitary) -> np.ndarray:
    """Dense 2^n x 2^n unitary of ``g``."""
    return operator_matrix(g.apply, g.n)


def heisenberg_matrix(g: GaussianUnitary) -> np.ndarray:
    """Recover O from the dense conjugation action G^dag gamma_mu G."""
    n = g.n
    u = dense_matrix(g)
    out = np.zeros((2 * n, 2 * n))
    gammas = [majorana(mu, n).to_matrix() for mu in range(1, 2 * n + 1)]
    dim = 2**n
    for mu in range(2 * n):
        conj = u.conj().T @ gammas[mu] @ u
        for nu in range(2 * n):
            out[mu, nu] = (np.trace(gammas[nu] @ conj) / dim).real
    return out


def omega(n: int) -> np.ndarray:
    """The 2n x 2n symplectic form, blocks [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n), _IY2)


def is_symplectic(o: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff O preserves the symplectic form: O Omega O^T = Omega."""
    o = np.asarray(o, dtype=float)
    if not _is_square(o) or o.shape[0] % 2 != 0:
        return False
    w = omega(o.shape[0] // 2)
    return opnorm_within(o @ w @ o.T - w, tol)


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


def single(n: int, qubit: int, letter: str) -> PauliString:
    """The one-letter string ``letter`` in {I,X,Y,Z} acting on ``qubit``."""
    x, z, p = LETTERS[letter]
    return PauliString(n, x << (qubit - 1), z << (qubit - 1), p)
