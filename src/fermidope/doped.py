"""Doped circuits: Gaussian layers interleaved with few-Majorana gates.

A circuit G_t W_t ... G_1 W_1 G_0 |0^n> with t non-Gaussian gates, each
generated by at most kappa Majorana operators, prepares a state whose
non-Gaussianity can be moved onto the first kappa*t qubits by a single
Gaussian rotation.  `compress_state` builds that rotation constructively;
`compress_unitary` does the same for the circuit unitary, shrinking the
non-Gaussian core to ceil(kappa*t / 2) qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ortho
from .gaussian import GaussianUnitary
from .pauli import hermitize, majorana_monomial
from .states import (
    StateVector,
    apply_pauli_rotation,
    basis_state,
    embed_with_zero_tail,
    postselect_zero_tail,
    zero_state,
)


class CompressionError(RuntimeError):
    """The constructed rotation failed to empty the trailing qubits."""


@dataclass(frozen=True)
class NonGaussianGate:
    """Product of rotations exp(i * theta * herm(gamma_S)) over Majorana monomials.

    ``terms`` is an ordered tuple of (indices, theta) pairs; the gate's
    support is the union of all index sets and bounds its Majorana locality.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((tuple(int(i) for i in s), float(theta)) for s, theta in self.terms)
        for s, _ in terms:
            if any(b <= a for a, b in zip(s, s[1:])):
                raise ValueError(f"term indices must be strictly increasing, got {s}")
            if not s or s[0] < 1:
                raise ValueError(f"term indices must be positive and non-empty, got {s}")
        object.__setattr__(self, "terms", terms)

    @property
    def support(self) -> tuple:
        idx = set()
        for s, _ in self.terms:
            idx.update(s)
        return tuple(sorted(idx))

    @classmethod
    def monomial(cls, indices, theta: float) -> "NonGaussianGate":
        return cls(((tuple(indices), theta),))

    def apply(self, psi: StateVector) -> StateVector:
        for s, theta in self.terms:
            psi = apply_pauli_rotation(psi, hermitize(majorana_monomial(s, psi.n)), theta)
        return psi


@dataclass(frozen=True)
class DopedCircuit:
    """G_t W_t ... G_1 W_1 G_0 acting on n qubits."""

    n: int
    kappa: int
    gaussians: tuple
    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gaussians", tuple(self.gaussians))
        object.__setattr__(self, "gates", tuple(self.gates))
        if len(self.gaussians) != len(self.gates) + 1:
            raise ValueError("need exactly one more Gaussian layer than non-Gaussian gates")
        for g in self.gaussians:
            if g.n != self.n:
                raise ValueError("Gaussian layer size does not match the register")
        for w in self.gates:
            supp = w.support
            if len(supp) > self.kappa:
                raise ValueError(f"gate support {supp} exceeds Majorana locality {self.kappa}")
            if supp and supp[-1] > 2 * self.n:
                raise ValueError(f"gate support {supp} exceeds 2n = {2 * self.n}")

    @property
    def t(self) -> int:
        return len(self.gates)

    def apply(self, psi: StateVector) -> StateVector:
        psi = self.gaussians[0].apply(psi)
        for w, g in zip(self.gates, self.gaussians[1:]):
            psi = g.apply(w.apply(psi))
        return psi


def prepare(circuit: DopedCircuit) -> StateVector:
    """Statevector of the circuit applied to |0^n>."""
    return circuit.apply(zero_state(circuit.n))


@dataclass(frozen=True)
class CompressedForm:
    """psi = G (phi (x) |0^(n-m)>) with phi on m = core_qubits qubits."""

    G: GaussianUnitary
    core_qubits: int
    phi: StateVector

    def reassemble(self) -> StateVector:
        return self.G.apply(embed_with_zero_tail(self.phi, self.G.n))


def _support_vectors(circuit: DopedCircuit):
    """Heisenberg images of each gate's generating Majoranas, plus the total rotation.

    Returns (vectors, O_total) where O_total is the orthogonal matrix of the
    product of all Gaussian layers and each vector is a row of the cumulative
    rotation preceding the corresponding gate.
    """
    vectors = []
    o_cum = circuit.gaussians[0].O
    for w, g in zip(circuit.gates, circuit.gaussians[1:]):
        for mu in w.support:
            vectors.append(o_cum[mu - 1, :].copy())
        o_cum = g.O @ o_cum
    return vectors, o_cum


def compress_state(circuit: DopedCircuit, tol: float = 1e-8) -> CompressedForm:
    """Constructive compression of all non-Gaussianity onto kappa*t qubits.

    The auxiliary rotation is symplectic, so it fixes the vacuum; the
    returned Gaussian G satisfies G^dag |psi> = phi (x) |0^(n - kappa t)>.
    Raises CompressionError when the trailing qubits carry more weight than
    ``tol``, which signals a convention bug rather than a statistical event.
    """
    n, t = circuit.n, circuit.t
    m = min(circuit.kappa * t, n)
    if circuit.kappa * t > n:
        raise ValueError(f"state compression needs kappa*t <= n, got {circuit.kappa * t} > {n}")
    vectors, o_total = _support_vectors(circuit)
    o_cr = ortho.compression_rotation(vectors, n=n, symplectic=True)
    g = GaussianUnitary(o_total @ o_cr.T, check=False)
    psi = prepare(circuit)
    psi_rot = g.adjoint().apply(psi)
    prob, phi = postselect_zero_tail(psi_rot, m)
    if 1.0 - prob > tol:
        raise CompressionError(
            f"trailing qubits carry weight {1.0 - prob:.3e} after compression (tol {tol})"
        )
    return CompressedForm(G=g, core_qubits=m, phi=phi)


def compress_unitary(circuit: DopedCircuit, tol: float = 1e-8):
    """Factor the circuit unitary as G_A (u_core (x) I) G_B.

    The auxiliary rotation here is plain orthogonal, which halves the core:
    u_core acts on ceil(kappa*t / 2) qubits.  Returns (G_A, u_core, G_B)
    with u_core a dense matrix on the core qubits.
    """
    n, t = circuit.n, circuit.t
    if circuit.kappa * t > 2 * n:
        raise ValueError(f"unitary compression needs kappa*t <= 2n, got {circuit.kappa * t}")
    m_q = min(math.ceil(circuit.kappa * t / 2), n)
    vectors, o_total = _support_vectors(circuit)
    o_cr = ortho.compression_rotation(vectors, n=n, symplectic=False)
    g_a = GaussianUnitary(o_total @ o_cr.T, check=False)
    g_b = GaussianUnitary(o_cr, check=False)

    g_a_dag, g_b_dag = g_a.adjoint(), g_b.adjoint()
    dim = 2**m_q
    u_core = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        col = embed_with_zero_tail(basis_state(m_q, b), n)
        out = g_a_dag.apply(circuit.apply(g_b_dag.apply(col)))
        block = out.amps.reshape(dim, -1)
        leak = np.linalg.norm(block[:, 1:])
        if leak > tol:
            raise CompressionError(f"core unitary leaks weight {leak:.3e} outside the core")
        u_core[:, b] = block[:, 0]
    return g_a, u_core, g_b


def random_doped_circuit(n, t, kappa, rng, haar_gaussians: bool = True) -> DopedCircuit:
    """Random circuit: Haar Gaussian layers, uniform kappa-subsets and angles.

    With haar_gaussians=False the layers are Haar symplectic-orthogonal,
    i.e. particle-number preserving.
    """
    if kappa > 2 * n:
        raise ValueError(f"kappa = {kappa} exceeds 2n = {2 * n}")

    def layer():
        if haar_gaussians:
            return GaussianUnitary(ortho.random_orthogonal(2 * n, rng), check=False)
        return GaussianUnitary(
            ortho.symplectic_from_unitary(ortho.random_unitary(n, rng)), check=False
        )

    gaussians = [layer() for _ in range(t + 1)]
    gates = []
    for _ in range(t):
        support = np.sort(rng.choice(2 * n, size=kappa, replace=False)) + 1
        theta = rng.uniform(0.0, 2 * np.pi)
        gates.append(NonGaussianGate.monomial(tuple(int(i) for i in support), theta))
    return DopedCircuit(n=n, kappa=kappa, gaussians=tuple(gaussians), gates=tuple(gates))


@dataclass(frozen=True)
class GateCounts:
    rotations: int
    reflections: int
    non_gaussian_terms: int

    @property
    def total(self) -> int:
        return self.rotations + self.reflections + self.non_gaussian_terms


def report_gate_counts(circuit: DopedCircuit) -> GateCounts:
    """Tally of compiled two-Majorana rotations, reflections, and gate terms."""
    rotations = sum(len(g.program.rotations) for g in circuit.gaussians)
    reflections = sum(1 for g in circuit.gaussians if g.program.reflect_first)
    terms = sum(len(w.terms) for w in circuit.gates)
    return GateCounts(rotations=rotations, reflections=reflections, non_gaussian_terms=terms)


def circuit_dumps(circuit: DopedCircuit) -> str:
    """Serialize to structured text; floats round-trip exactly via repr."""
    lines = [
        "doped-circuit v1",
        f"n {circuit.n}",
        f"kappa {circuit.kappa}",
        f"t {circuit.t}",
    ]
    for i, g in enumerate(circuit.gaussians):
        lines.append(f"gaussian {i}")
        lines.append(ortho.matrix_to_text(g.O).rstrip("\n"))
        if i < circuit.t:
            w = circuit.gates[i]
            lines.append(f"gate {i + 1} terms {len(w.terms)}")
            for s, theta in w.terms:
                lines.append("term " + " ".join(str(mu) for mu in s) + f" theta {theta!r}")
    return "\n".join(lines) + "\n"


def circuit_loads(text: str) -> DopedCircuit:
    lines = ortho.LineReader(text)
    lines.keyword("doped-circuit v1")
    n, kappa, t = (lines.count(key) for key in ("n", "kappa", "t"))

    gaussians, gates = [], []
    for i in range(t + 1):
        lines.keyword(f"gaussian {i}")
        gaussians.append(GaussianUnitary(lines.orthogonal(2 * n), check=False))  # the reader checked it
        if i < t:
            terms = []
            for _ in range(lines.count("gate", str(i + 1), "terms")):
                expected = "'term <indices> theta <angle>'"
                parts = lines.fields(expected)
                if parts[0] != "term" or parts[-2:-1] != ["theta"]:
                    raise lines.error(expected)
                indices = lines.convert(parts[1:-2], int, expected)
                (theta,) = lines.convert(parts[-1:], float, expected)
                terms.append((tuple(indices), theta))
            gates.append(NonGaussianGate(tuple(terms)))
    return DopedCircuit(n=n, kappa=kappa, gaussians=tuple(gaussians), gates=tuple(gates))
