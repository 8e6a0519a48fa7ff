"""Doped circuits: Gaussian layers interleaved with few-Majorana gates.

A circuit G_t W_t ... G_1 W_1 G_0 |0^n> with t non-Gaussian gates, each
generated by at most kappa Majorana operators, prepares a state whose
non-Gaussianity can be moved onto the first kappa*t qubits by a single
Gaussian rotation.  `compress_state` builds that rotation constructively
and returns the state as a `CompressedForm`, the type `learner.learn`
returns too; `compress_unitary` does the same for the circuit unitary,
shrinking the non-Gaussian core to ceil(kappa*t / 2) qubits.  A gate
rotates one copy of the amplitudes in place, term by term, through
``PauliString.rotate``, the kernel the unfused planes of a Gaussian layer
use too.

The text formats of circuits (``DopedCircuit.dumps``/``.loads``) and of
compressed forms (``CompressedForm.dumps``/``.loads``) live here, with the
line reader that both loaders read through: every malformed line, block or
value in a document raises PreconditionError("line k: ...") naming the line where
the fault shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ortho
from .gaussian import GaussianUnitary, compile_programs
from .pauli import hermitize, majorana_monomial
from .states import (
    MAX_QUBITS,
    NumericalError,
    PreconditionError,
    StateVector,
    basis_state,
    embed_with_zero_tail,
    postselect_zero_tail,
    zero_state,
)


class CompressionError(NumericalError, RuntimeError):
    """The constructed rotation failed to empty the trailing qubits."""


# weight a compression may leave outside its core; more signals a convention bug
COMPRESSION_TOL = 1e-8


@dataclass(frozen=True)
class NonGaussianGate:
    """Product of rotations exp(i * theta * herm(gamma_S)) over Majorana monomials.

    ``terms`` is an ordered tuple of (indices, theta) pairs; the gate's
    support is the union of all index sets and bounds its Majorana locality.
    Each term's Pauli string is built once per register size and kept on
    the gate, so it lives as long as the gate does.
    """

    terms: tuple
    _strings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = tuple((_term_indices(s), float(theta)) for s, theta in self.terms)
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
        n = psi.n
        if n not in self._strings:
            self._strings[n] = tuple(hermitize(majorana_monomial(s, n)) for s, _ in self.terms)
        amps = psi.amps.copy()
        for string, (_, theta) in zip(self._strings[n], self.terms):
            string.rotate(amps, theta)
        return StateVector(n, amps)


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
            _check_support(w.support, self.kappa, self.n)

    @property
    def t(self) -> int:
        return len(self.gates)

    def dumps(self) -> str:
        """Structured text; floats round-trip exactly via repr."""
        lines = ["doped-circuit v1", f"n {self.n}", f"kappa {self.kappa}", f"t {self.t}"]
        for i, g in enumerate(self.gaussians):
            lines.append(f"gaussian {i}")
            lines.append(matrix_to_text(g.O).rstrip("\n"))
            if i < self.t:
                w = self.gates[i]
                lines.append(f"gate {i + 1} terms {len(w.terms)}")
                for s, theta in w.terms:
                    lines.append("term " + " ".join(str(mu) for mu in s) + f" theta {theta!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "DopedCircuit":
        """The DopedCircuit that ``dumps`` wrote; any fault raises PreconditionError naming its line."""
        return _load(text, "doped-circuit v1", cls._read)

    @classmethod
    def _read(cls, lines: LineReader, n: int) -> "DopedCircuit":
        kappa, t = lines.count("kappa"), lines.count("t")
        gaussians, gates = [], []
        for i in range(t + 1):
            lines.keyword(f"gaussian {i}")
            gaussians.append(lines.gaussian(n))
            if i < t:
                terms, support = [], set()
                for _ in range(lines.count("gate", str(i + 1), "terms")):
                    expected = "'term <indices> theta <angle>'"
                    parts = lines.fields(expected)
                    if parts[0] != "term" or parts[-2:-1] != ["theta"]:
                        raise lines.error(expected)
                    indices = lines.checked(_term_indices, lines.convert(parts[1:-2], int, expected))
                    (theta,) = lines.convert(parts[-1:], float, expected)
                    support.update(indices)
                    lines.checked(_check_support, tuple(sorted(support)), kappa, n)
                    terms.append((indices, theta))
                gates.append(NonGaussianGate(tuple(terms)))
        return cls(n=n, kappa=kappa, gaussians=tuple(gaussians), gates=tuple(gates))

    def apply(self, psi: StateVector) -> StateVector:
        compile_programs(self.gaussians)  # the layers not yet compiled, in one stacked elimination
        psi = self.gaussians[0].apply(psi)
        for w, g in zip(self.gates, self.gaussians[1:]):
            psi = g.apply(w.apply(psi))
        return psi


def _term_indices(s) -> tuple:
    """The Majorana indices of a gate term, checked positive and strictly increasing."""
    s = tuple(int(i) for i in s)
    if any(b <= a for a, b in zip(s, s[1:])):
        raise ValueError(f"term indices must be strictly increasing, got {s}")
    if not s or s[0] < 1:
        raise ValueError(f"term indices must be positive and non-empty, got {s}")
    return s


def _check_support(supp: tuple, kappa: int, n: int) -> None:
    """Refuse a gate support (sorted indices) with more than kappa Majoranas or one past 2n."""
    if len(supp) > kappa:
        raise ValueError(f"gate support {supp} exceeds Majorana locality {kappa}")
    if supp and supp[-1] > 2 * n:
        raise ValueError(f"gate support {supp} exceeds 2n = {2 * n}")


def prepare(circuit: DopedCircuit) -> StateVector:
    """Statevector of the circuit applied to |0^n>."""
    return circuit.apply(zero_state(circuit.n))


@dataclass(frozen=True)
class CompressedForm:
    """psi = G (phi (x) |0^(n-m)>) with phi on m = core_qubits qubits."""

    G: GaussianUnitary
    phi: StateVector

    @property
    def n(self) -> int:
        return self.G.n

    @property
    def core_qubits(self) -> int:
        return self.phi.n

    def reassemble(self) -> StateVector:
        return self.G.apply(embed_with_zero_tail(self.phi, self.n))

    def dumps(self) -> str:
        """Structured text; floats round-trip exactly via repr."""
        lines = ["learned-state v1", f"n {self.n}", f"t {self.core_qubits}", "O"]
        lines.append(matrix_to_text(self.G.O).rstrip("\n"))
        lines.append("phi")
        lines.extend(f"{float(a.real)!r} {float(a.imag)!r}" for a in self.phi.amps)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "CompressedForm":
        """The CompressedForm that ``dumps`` wrote; any fault raises PreconditionError naming its line."""
        return _load(text, "learned-state v1", cls._read)

    @classmethod
    def _read(cls, lines: LineReader, n: int) -> "CompressedForm":
        t = lines.count("t")
        if t > n:  # also keeps 2**t below from growing with the digits of t
            raise lines.error(f"'t <count>' at most n = {n}")
        lines.keyword("O")
        g = lines.gaussian(n)
        lines.keyword("phi")
        amps = lines.matrix(2**t, 2).view(complex).ravel()  # (re, im) rows, bit-exact
        return cls(G=g, phi=lines.checked(StateVector, t, amps))


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


def compress_state(circuit: DopedCircuit) -> CompressedForm:
    """Constructive compression of all non-Gaussianity onto kappa*t qubits.

    The auxiliary rotation is symplectic, so it fixes the vacuum; the
    returned Gaussian G satisfies G^dag |psi> = phi (x) |0^(n - kappa t)>.
    Raises CompressionError when the trailing qubits carry more weight than
    COMPRESSION_TOL, which signals a convention bug rather than a statistical event.
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
    if 1.0 - prob > COMPRESSION_TOL:
        raise CompressionError(
            f"trailing qubits carry weight {1.0 - prob:.3e} after compression (tol {COMPRESSION_TOL})"
        )
    return CompressedForm(G=g, phi=phi)


def compress_unitary(circuit: DopedCircuit):
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
        if leak > COMPRESSION_TOL:
            raise CompressionError(f"core unitary leaks weight {leak:.3e} outside the core")
        u_core[:, b] = block[:, 0]
    return g_a, u_core, g_b


def random_doped_circuit(n, t, kappa, rng) -> DopedCircuit:
    """Random circuit: Haar Gaussian layers, uniform kappa-subsets and angles."""
    if kappa > 2 * n:
        raise ValueError(f"kappa = {kappa} exceeds 2n = {2 * n}")
    gaussians = [GaussianUnitary(ortho.random_orthogonal(2 * n, rng), check=False) for _ in range(t + 1)]
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


def report_gate_counts(circuit: DopedCircuit) -> GateCounts:
    """Tally of compiled two-Majorana rotations, reflections, and gate terms."""
    rotations = sum(len(g.program.angles) for g in circuit.gaussians)
    reflections = sum(1 for g in circuit.gaussians if g.program.reflect_first)
    terms = sum(len(w.terms) for w in circuit.gates)
    return GateCounts(rotations=rotations, reflections=reflections, non_gaussian_terms=terms)


def matrix_to_text(a: np.ndarray) -> str:
    """Row-major decimal text; repr floats reload bit-exactly."""
    return "\n".join(" ".join(repr(float(x)) for x in row) for row in np.asarray(a)) + "\n"


# largest entry a matrix row may hold: 1, with ample room for rounding
ROW_ENTRY_BOUND = 1.0 + 1e-6


class LineReader:
    """The non-blank lines of a text document, read in order.

    Every read checks that the line is there and has the expected shape;
    otherwise it raises PreconditionError("line k: expected ...") with k the 1-based
    line number in the text.
    """

    def __init__(self, text: str):
        raw = text.splitlines()
        self._lines = [(k, ln.split()) for k, ln in enumerate(raw, 1) if ln.strip()]
        self._end = len(raw) + 1
        self._pos = 0

    def error(self, expected: str) -> PreconditionError:
        """The error for the line read last."""
        return PreconditionError(f"line {self._lines[self._pos - 1][0]}: expected {expected}")

    def checked(self, check, *args):
        """``check(*args)``; its ValueError comes back as a PreconditionError naming the line read last."""
        try:
            return check(*args)
        except ValueError as exc:
            raise PreconditionError(f"line {self._lines[self._pos - 1][0]}: {exc}") from None

    def fields(self, expected: str) -> list:
        """Whitespace-separated fields of the next line."""
        if self._pos == len(self._lines):
            raise PreconditionError(f"line {self._end}: expected {expected}, got end of document")
        self._pos += 1
        return self._lines[self._pos - 1][1]

    def end(self) -> None:
        """Refuse a non-blank line after the last one read."""
        if self._pos < len(self._lines):
            self._pos += 1
            raise self.error("end of document")

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

    def gaussian(self, n: int) -> GaussianUnitary:
        """The Gaussian unitary of a 2n x 2n block; a non-orthogonal one names its last row's line."""
        dim = 2 * n
        o = self.matrix(dim, dim)
        try:
            return GaussianUnitary(o)
        except ValueError:
            raise self.error(f"{dim} rows ending here that form an orthogonal matrix") from None


def _load(text: str, header: str, read):
    """``read(lines, n)`` of a document that opens with ``header`` and its 'n <count>' line.

    The one way into both text formats: n is refused above MAX_QUBITS
    before ``read`` can build any 2^n array, and a non-blank line after
    the last one ``read`` takes is refused as well.
    """
    lines = LineReader(text)
    lines.keyword(header)
    n = lines.count("n")
    if n > MAX_QUBITS:
        raise lines.error(f"'n <count>' at most {MAX_QUBITS}, the dense engine's limit")
    out = read(lines, n)
    lines.end()
    return out
