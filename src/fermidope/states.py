"""Dense statevector engine: gates, expectations, Born probabilities, post-selection, distances.

Index convention: a basis index b encodes qubit values as
b = sum_k x_k 2^(n-k), i.e. qubit 1 is the most significant bit.  All
modules share this convention.  States are pure, and every public
operation writes them normalized to within 1e-10, which is all a
`StateVector` checks: it stores its amplitudes as given, never rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString

MAX_SIM_QUBITS = 24
# the dense engine's cap: the largest n a run, a circuit file or a learned-state file may have
MAX_QUBITS = 12
_NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state on n qubits (n = 0 is the trivial register).

    The amplitude array becomes the state's, as given, and is made read-only;
    only an array that is not contiguous complex is copied first.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if not 0 <= self.n <= MAX_SIM_QUBITS:
            raise ValueError(f"qubit count must be in [0, {MAX_SIM_QUBITS}], got {self.n}")
        amps = np.asarray(self.amps, dtype=complex, order="C")
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes, got shape {amps.shape}")
        norm = math.sqrt(np.vdot(amps, amps).real)
        # written as "not <=" so that the NaN or infinite norm of a non-finite amplitude fails too
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state not normalized: |amps| = {norm}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def zero_state(n: int) -> StateVector:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def basis_state(n: int, index: int) -> StateVector:
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def random_state(n: int, rng) -> StateVector:
    """Haar-random pure state."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def product(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the qubits of ``a`` become the leading qubits."""
    return StateVector(a.n + b.n, np.kron(a.amps, b.amps))


def apply_pauli(psi: StateVector, p: PauliString) -> StateVector:
    """P|psi> for an arbitrary Pauli string (not necessarily Hermitian)."""
    if p.n != psi.n:
        raise ValueError(f"qubit counts differ: {p.n} != {psi.n}")
    src, coef = p.action()
    return StateVector(psi.n, coef * psi.amps[src])


def apply_pauli_rotation(psi: StateVector, p: PauliString, theta: float) -> StateVector:
    """exp(i * theta * P) |psi> for Hermitian P."""
    if not p.is_hermitian:
        raise ValueError("rotation generator must be Hermitian")
    rotated = apply_pauli(psi, p)
    amps = np.cos(theta) * psi.amps + 1j * np.sin(theta) * rotated.amps
    return StateVector(psi.n, amps)


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


def overlap(a: StateVector, b: StateVector) -> complex:
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    return float(abs(overlap(a, b)) ** 2)


def trace_distance(a: StateVector, b: StateVector) -> float:
    """Pure-state trace distance sqrt(1 - |<a|b>|^2).

    Computed as |b - <a|b> a|, which equals it for unit vectors and, unlike
    the square root of 1 - F, stays accurate below sqrt(eps).
    """
    return float(np.linalg.norm(b.amps - overlap(a, b) * a.amps))


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


class FermidopeError(Exception):
    """A failure the package names; the CLI exits with its type's ``exit_code``."""
    exit_code: int


class PreconditionError(FermidopeError, ValueError):
    """An input, a configuration or a copy count that the algorithms do not accept."""
    exit_code = 2


class NumericalError(FermidopeError):
    """A failed numerical check or a violated promise."""
    exit_code = 4


class ZeroProbabilityError(NumericalError, ValueError):
    """A requested post-selection outcome has (numerically) zero probability."""


def postselect_zero_tail(psi: StateVector, core_qubits: int):
    """Project the last n - core_qubits qubits onto |0...0>.

    Returns (probability, core state on the first core_qubits qubits).
    """
    m = core_qubits
    tail = psi.n - m
    if tail == 0:
        return 1.0, psi
    block = psi.amps.reshape(2**m, 2**tail)
    core = block[:, 0]
    prob = float(np.linalg.norm(core) ** 2)
    if prob < 1e-28:
        raise ZeroProbabilityError(f"all-zero tail outcome has probability {prob}")
    return prob, StateVector(m, core / np.sqrt(prob))


def embed_with_zero_tail(core: StateVector, n: int) -> StateVector:
    """core (x) |0^(n-m)> as an n-qubit state."""
    if core.n > n:
        raise ValueError(f"core has {core.n} qubits, register has {n}")
    return product(core, zero_state(n - core.n))


def operator_matrix(apply_fn, n: int) -> np.ndarray:
    """Dense matrix of a linear map given by its action on statevectors."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        out[:, b] = apply_fn(basis_state(n, b)).amps
    return out
