"""End-to-end learning of compressible states from single-copy measurements.

Pipeline: estimate the correlation matrix, rotate by the Gaussian unitary
of its normal form, post-select the trailing qubits on zero, run plain
Pauli tomography on the surviving core, and reassemble.  The returned
representation is the orthogonal matrix plus the core state, which is
enough to rebuild the full statevector.

Copy budgets follow the explicit formulas (`plan_budget`); the Hoeffding
variant (`hoeffding_budget`) sizes the correlation stage by the union bound
over matrix entries instead and is the practical choice at desk scale.
Sample draws use exact-distribution counts, so even astronomically large
budgets execute quickly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import ortho
from .gaussian import GaussianUnitary, identity_gaussian
from .metrology import copy_count, correlation_exact, correlation_sampled
from .pauli import LETTERS, PauliString
from .states import (
    StateVector,
    embed_with_zero_tail,
    fidelity,
    fresh_copy,
    postselect_zero_tail,
    trace_distance,
)

TOMOGRAPHY_LIMIT = 6
DRAW_LIMIT = 2**63  # numpy's binomial draws take their counts as int64
# how far from 1 the norm of a normalized amplitude vector can round
_UNIT_TOL = 1e-14


class BoostingFailureError(RuntimeError):
    """Fewer post-selection successes than the tomography stage needs."""


@dataclass(frozen=True)
class LearnBudget:
    """Copy counts for the three stages of the learning algorithm."""

    n: int
    t: int
    eps: float
    delta: float
    c_tom: float
    N_corr: int
    N_tom: int
    N_loop: int
    eps_c: float
    source: str = "default"

    @property
    def pure_tomography(self) -> bool:
        """t = n leaves no qubits to post-select; learning is tomography alone."""
        return self.t == self.n

    @property
    def total(self) -> int:
        return self.N_corr + self.N_loop

    def with_overrides(self, n_corr=None, n_tom=None, n_loop=None) -> "LearnBudget":
        new_tom = self.N_tom if n_tom is None else int(n_tom)
        if n_loop is not None:
            new_loop = int(n_loop)
        elif n_tom is not None:  # keep the boosting relation when N_tom moves
            new_loop = boosting_iterations(new_tom, self.delta / 3.0)
        else:
            new_loop = self.N_loop
        return replace(
            self,
            N_corr=self.N_corr if n_corr is None else int(n_corr),
            N_tom=new_tom,
            N_loop=new_loop,
            source="custom",
        )


def boosting_iterations(n_needed: int, delta: float) -> int:
    """Repetitions so that >= n_needed successes occur w.p. 1 - delta, given p >= 3/4."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return copy_count("N_loop", lambda: 2 * n_needed + 24.0 * math.log(1.0 / delta))


def _check_draw(stage: str, count: int) -> None:
    if count >= DRAW_LIMIT:
        raise ValueError(f"{stage}: {count} copies reach the binomial draw limit 2^63 = {DRAW_LIMIT}")


def _tomography_copies(t: int, eps: float, delta: float, c_tom: float) -> int:
    # copies for t-qubit tomography at accuracy eps/2, failure delta/3
    return copy_count(
        "N_tom", lambda: c_tom * 2**t * max(t, 1) * math.log(3.0 / delta) * (eps / 2.0) ** -4)


def plan_budget(n: int, t: int, eps: float, delta: float, c_tom: float = 1.0) -> LearnBudget:
    """Default copy counts: N_corr = ceil(256 n^5 / eps^4 * log(12 n^2 / delta))."""
    if not (0 < eps <= 1 and 0 < delta <= 1):
        raise ValueError("need eps, delta in (0, 1]")
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, {n}], got {t}")
    n_corr = copy_count("N_corr", lambda: 256.0 * n**5 / eps**4 * math.log(12.0 * n**2 / delta))
    n_tom = _tomography_copies(t, eps, delta, c_tom)
    n_loop = boosting_iterations(n_tom, delta / 3.0)
    eps_c = math.inf if t == n else eps**2 / (4.0 * (n - t))
    return LearnBudget(
        n=n, t=t, eps=eps, delta=delta, c_tom=c_tom,
        N_corr=n_corr, N_tom=n_tom, N_loop=n_loop, eps_c=eps_c, source="default",
    )


def hoeffding_budget(n: int, t: int, eps: float, delta: float, c_tom: float = 1.0) -> LearnBudget:
    """Correlation stage sized by Hoeffding + union bound at target eps_c.

    N_corr = ceil(8 n^2 (2n-1) / eps_c^2 * log(2 n (2n-1) * 3 / delta)) total
    copies across the 2n-1 commuting groups.
    """
    base = plan_budget(n, t, eps, delta, c_tom)
    if base.pure_tomography:
        return replace(base, N_corr=0, source="hoeffding")
    m = n * (2 * n - 1)
    n_corr = copy_count(
        "N_corr", lambda: 8.0 * n**2 * (2 * n - 1) / base.eps_c**2 * math.log(2.0 * m * 3.0 / delta))
    return replace(base, N_corr=n_corr, source="hoeffding")


@cache
def pauli_strings(t: int) -> tuple:
    """All 4^t Pauli strings on t qubits as (letters, string) pairs, identity first.

    Built once per t and shared by every call, so each string computes its
    action once; t is limited to TOMOGRAPHY_LIMIT, which bounds the cache.
    """
    if not 0 <= t <= TOMOGRAPHY_LIMIT:
        raise ValueError(f"tomography limited to {TOMOGRAPHY_LIMIT} qubits, got {t}")
    if t == 0:
        return ()
    strings = []
    for letters in itertools.product("IXYZ", repeat=t):
        x = z = phase = 0
        for k, letter in enumerate(letters):
            bx, bz, bp = LETTERS[letter]
            x |= bx << k
            z |= bz << k
            phase += bp
        strings.append((letters, PauliString(t, x, z, phase)))
    return tuple(strings)


def tomography_t_qubits(
    core: StateVector, mode: str = "sampled", shots: int | None = None, rng=None
) -> StateVector:
    """Estimate a t-qubit pure state from ``shots`` copies of ``core``.

    Sampled mode estimates all 4^t Pauli expectations, splitting the copies
    evenly, assembles rho_hat = 2^-t * sum <P> P, and returns its top
    eigenvector.  Each string's draw takes shots // (4^t - 1) copies, which
    must stay below DRAW_LIMIT = 2^63.
    """
    t = core.n
    if mode == "exact" or t == 0:
        return core
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    strings = pauli_strings(t)
    if shots is None or shots < 4**t - 1:
        raise ValueError(f"need at least {4**t - 1} copies for {t}-qubit tomography, got {shots}")

    shots_per_pauli = shots // (4**t - 1)
    _check_draw("tomography, per Pauli string", shots_per_pauli)
    dim = 2**t
    rho = np.eye(dim, dtype=complex) / dim
    # the identity comes first; its term is the eye(dim) / dim above
    for _, p in strings[1:]:
        m = p.to_matrix()
        prob = min(max((1.0 + np.vdot(core.amps, m @ core.amps).real) / 2.0, 0.0), 1.0)
        wins = rng.binomial(shots_per_pauli, prob)
        est = 2.0 * wins / shots_per_pauli - 1.0
        # exact: m holds only 0, +-1 and +-i, and dim is a power of two
        m *= est / dim
        rho += m
    _, vecs = np.linalg.eigh(rho)
    return StateVector(t, vecs[:, -1])


@dataclass(frozen=True)
class LearnedState:
    """Output representation: rotation O_hat plus the t-qubit core phi_hat.

    ``gaussian`` is G_hat, the Gaussian unitary of O_hat, built from O_hat
    when not given; a given one must have O_hat as its O.  ``learn`` passes
    its own, whose adjoint it has already compiled, so G_hat and every
    adjoint of it derive their programs from that one compile.
    """

    O_hat: np.ndarray
    phi_hat: StateVector
    t: int
    gaussian: GaussianUnitary | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.gaussian is None:
            object.__setattr__(self, "gaussian", GaussianUnitary(self.O_hat, check=False))
        elif not np.array_equal(self.gaussian.O, self.O_hat):
            raise ValueError("gaussian is not the Gaussian unitary of O_hat")

    @property
    def n(self) -> int:
        return self.O_hat.shape[0] // 2

    def reassemble(self) -> StateVector:
        return self.gaussian.apply(embed_with_zero_tail(self.phi_hat, self.n))

    def dumps(self) -> str:
        lines = ["learned-state v1", f"n {self.n}", f"t {self.t}", "O"]
        lines.append(ortho.matrix_to_text(self.O_hat).rstrip("\n"))
        lines.append("phi")
        lines.extend(f"{float(a.real)!r} {float(a.imag)!r}" for a in self.phi_hat.amps)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "LearnedState":
        lines = ortho.LineReader(text)
        lines.keyword("learned-state v1")
        n, t = lines.count("n"), lines.count("t")
        if t > n:  # also keeps 2**t below from growing with the digits of t
            raise lines.error(f"'t <count>' at most n = {n}")
        lines.keyword("O")
        o_hat = lines.matrix(2 * n, 2 * n)
        lines.keyword("phi")
        amps = lines.matrix(2**t, 2).view(complex).ravel()  # (re, im) rows, bit-exact
        phi_hat = StateVector(t, amps)  # checks the shape and the norm
        if abs(np.linalg.norm(amps) - 1.0) <= _UNIT_TOL:
            # a written unit vector loads as written: normalizing it again can move its last bit
            amps.setflags(write=False)
            object.__setattr__(phi_hat, "amps", amps)
        return cls(O_hat=o_hat, phi_hat=phi_hat, t=t)


def learn(state_source, n: int, t: int, budget: LearnBudget, mode: str = "sampled", rng=None) -> LearnedState:
    """Learn a t-compressible state from a copy oracle.

    Exact mode replaces every statistical estimate with the exact quantity
    (for debugging and promise checks); sampled mode consumes the budget.
    Raises BoostingFailureError when fewer than N_tom post-selections
    succeed, ZeroProbabilityError when the promise is violated outright,
    and ValueError when the budget was planned for another (n, t) or a
    sampled stage's copy count is past what its draw takes (2^53 shots per
    correlation group, 2^63 for N_loop).
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and rng is None:
        raise ValueError("sampled mode needs an rng")
    psi = fresh_copy(state_source)
    if psi.n != n:
        raise ValueError(f"copy has {psi.n} qubits, expected {n}")
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, {n}], got {t}")
    if (budget.n, budget.t) != (n, t):
        raise ValueError(f"budget planned for (n, t) = ({budget.n}, {budget.t}), learning ({n}, {t})")
    if t == n:  # pure tomography: no qubits to post-select, every loop copy reaches the core
        g_hat = identity_gaussian(n)
        phi_hat = tomography_t_qubits(psi, mode=mode, shots=budget.N_loop, rng=rng)
        return LearnedState(O_hat=g_hat.O, phi_hat=phi_hat, t=t, gaussian=g_hat)

    if mode == "exact":
        c_hat = correlation_exact(psi)
    else:
        _check_draw("boosting, N_loop", budget.N_loop)  # before any stage runs
        c_hat = correlation_sampled(fresh_copy(state_source), budget.N_corr, rng)
    g_hat = GaussianUnitary(ortho.normal_form(c_hat).O, check=False)
    rotated = g_hat.adjoint().apply(fresh_copy(state_source))

    if mode == "sampled":
        # every iteration is i.i.d., so the success count is one binomial draw
        block = rotated.amps.reshape(2**t, -1)
        p_zero = float(np.linalg.norm(block[:, 0]) ** 2)
        successes = int(rng.binomial(budget.N_loop, p_zero)) if p_zero < 1.0 else budget.N_loop
        if successes < budget.N_tom:
            raise BoostingFailureError(
                f"{successes} post-selection successes < N_tom = {budget.N_tom} "
                f"(success probability {p_zero:.4f})"
            )
    else:
        successes = budget.N_tom
    _, core = postselect_zero_tail(rotated, t)

    phi_hat = tomography_t_qubits(core, mode=mode, shots=successes, rng=rng)
    return LearnedState(O_hat=g_hat.O, phi_hat=phi_hat, t=t, gaussian=g_hat)


@dataclass(frozen=True)
class LearnReport:
    trace_distance: float
    fidelity: float
    postselect_rate: float
    term_tomography: float
    term_projection: float


def verify(learned, psi_true: StateVector) -> LearnReport:
    """Exact diagnostics of a learned state against the true state.

    Reports the total trace distance plus the two triangle-inequality
    terms: the tomography error on the core and the projection error of
    the rotated state onto its zero tail.  Accepts a LearnedState or its
    serialized text.
    """
    if isinstance(learned, str):
        learned = LearnedState.loads(learned)
    psi_hat = learned.reassemble()
    d_total = trace_distance(psi_hat, psi_true)
    g_hat = learned.gaussian
    rotated = g_hat.adjoint().apply(psi_true)
    rate, core = postselect_zero_tail(rotated, learned.t)
    term_tom = trace_distance(learned.phi_hat, core)
    term_proj = trace_distance(embed_with_zero_tail(core, psi_true.n), rotated)
    return LearnReport(
        trace_distance=d_total,
        fidelity=fidelity(psi_hat, psi_true),
        postselect_rate=rate,
        term_tomography=term_tom,
        term_projection=term_proj,
    )
