"""Dense statevector engine: Pauli gates, post-selection, distances, and the package's error types.

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
