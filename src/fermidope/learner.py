"""End-to-end learning of compressible states from single-copy measurements.

Pipeline: estimate the correlation matrix, rotate by the Gaussian unitary
of its normal form, post-select the trailing qubits on zero, run plain
Pauli tomography on the surviving core, and reassemble.  The returned
representation is a `doped.CompressedForm`: the Gaussian unitary plus the
core state, which is enough to rebuild the full statevector.  From exact
statistics that is the witness `metrology.nearest_compressible` builds.

Copy budgets follow the explicit formulas (`plan_budget`); the Hoeffding
variant (`hoeffding_budget`) sizes the correlation stage by the union bound
over matrix entries instead and is the practical choice at desk scale.
Sample draws use exact-distribution counts, so even astronomically large
budgets execute quickly.  Tomography reads every Pauli expectation of the
core off one Walsh-Hadamard transform and estimates them all in one
vectorised binomial draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import ortho
from .doped import CompressedForm
from .gaussian import GaussianUnitary, identity_gaussian
from .metrology import copy_count, correlation_sampled, nearest_compressible
from .pauli import LETTERS, PauliString
from .states import (
    FermidopeError,
    PreconditionError,
    StateVector,
    ZeroProbabilityError,
    embed_with_zero_tail,
    fidelity,
    postselect_zero_tail,
    trace_distance,
)

TOMOGRAPHY_LIMIT = 6
DRAW_LIMIT = 2**63  # numpy's binomial draws take their counts as int64


class BoostingFailureError(FermidopeError, RuntimeError):
    """Fewer post-selection successes than the tomography stage needs."""
    exit_code = 3


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


def boosting_iterations(n_needed: int, delta: float) -> int:
    """Repetitions so that >= n_needed successes occur w.p. 1 - delta, given p >= 3/4."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return copy_count("N_loop", lambda: 2 * n_needed + 24.0 * math.log(1.0 / delta))


def _check_draw(stage: str, count: int) -> None:
    if count >= DRAW_LIMIT:
        raise PreconditionError(f"{stage}: {count} copies reach the binomial draw limit 2^63 = {DRAW_LIMIT}")


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
        N_corr=n_corr, N_tom=n_tom, N_loop=n_loop, eps_c=eps_c,
    )


def hoeffding_budget(n: int, t: int, eps: float, delta: float, c_tom: float = 1.0) -> LearnBudget:
    """Correlation stage sized by Hoeffding + union bound at target eps_c.

    N_corr = ceil(8 n^2 (2n-1) / eps_c^2 * log(2 n (2n-1) * 3 / delta)) total
    copies across the 2n-1 commuting groups; 0 at t = n, where eps_c is infinite.
    """
    base = plan_budget(n, t, eps, delta, c_tom)
    m = n * (2 * n - 1)
    n_corr = copy_count(
        "N_corr", lambda: 8.0 * n**2 * (2 * n - 1) / base.eps_c**2 * math.log(2.0 * m * 3.0 / delta))
    return replace(base, N_corr=n_corr)


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


@cache
def _walsh_table(t: int) -> tuple:
    """The index arrays of `pauli_expectations` on t qubits, built once per t.

    ``gather[c, x] = c ^ x``, and ``flat`` holds, in pauli_strings order, each
    non-identity string's index k 4^t + z 2^t + x into the four stacked
    Re(i^k E), where x, z are its basis-order masks and i^k its phase.
    pauli_strings(t) rejects t past TOMOGRAPHY_LIMIT, which bounds the cache.
    """
    b = np.arange(2**t)
    gather = b[:, None] ^ b
    flat = np.array([(p.phase_exp * 2**t + z) * 2**t + x
                     for _, p in pauli_strings(t)[1:] for x, z in [p.basis_masks]], dtype=np.intp)
    gather.setflags(write=False)
    flat.setflags(write=False)
    return gather, flat


def pauli_expectations(core: StateVector) -> np.ndarray:
    """<P> for every non-identity string of pauli_strings(core.n), in that order.

    A string with basis-order masks x, z and phase i^k has <P> = Re(i^k E[x, z]),
    where E[x, z] = sum_c (-1)^|c & z| F[x, c] is the Walsh-Hadamard transform
    along c of F[x, c] = conj(psi[c ^ x]) psi[c].  The fast transform sums in
    pairs, so each value is within 6e-16 of the dense <psi|P|psi> for t <= 6.
    """
    t, dim = core.n, 2**core.n
    gather, flat = _walsh_table(t)
    psi = core.amps
    f = psi.conj()[gather] * psi[:, None]  # f[c, x] = F[x, c]
    for k in range(t):  # one butterfly stage per bit of c, in place
        a, b = f.reshape(-1, 2, dim << k).transpose(1, 0, 2)
        a[...], b[...] = a + b, a - b
    # now f[z, x] = E[x, z]; Re(i^k E) for k = 0..3 is Re E, -Im E, -Re E, Im E
    return np.stack((f.real, -f.imag, -f.real, f.imag)).ravel()[flat]


def tomography_t_qubits(core: StateVector, shots: int | None = None, rng=None) -> StateVector:
    """Estimate a t-qubit pure state from ``shots`` copies of ``core``.

    Estimates all 4^t Pauli expectations, splitting the copies evenly,
    assembles rho_hat = 2^-t * sum <P> P, and returns its top eigenvector;
    t = 0 returns ``core`` itself.  One Walsh-Hadamard transform
    (`pauli_expectations`) gives every exact expectation, one vectorised
    binomial draw estimates them all, and rho_hat is assembled from each
    string's dense matrix in turn.  Each string's draw takes
    shots // (4^t - 1) copies, which must stay below DRAW_LIMIT = 2^63.
    """
    t = core.n
    if t == 0:
        return core
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    strings = pauli_strings(t)
    if shots is None or shots < 4**t - 1:
        raise PreconditionError(f"need at least {4**t - 1} copies for {t}-qubit tomography, got {shots}")

    shots_per_pauli = shots // (4**t - 1)
    _check_draw("tomography, per Pauli string", shots_per_pauli)
    probs = np.clip((1.0 + pauli_expectations(core)) / 2.0, 0.0, 1.0)
    # one draw per string in table order: the same stream as one scalar draw each
    ests = 2.0 * rng.binomial(shots_per_pauli, probs) / shots_per_pauli - 1.0
    dim = 2**t
    rho = np.eye(dim, dtype=complex) / dim
    # the identity comes first; its term is the eye(dim) / dim above
    for (_, p), est in zip(strings[1:], ests):
        m = p.to_matrix()
        # exact: m holds only 0, +-1 and +-i, and dim is a power of two
        m *= est / dim
        rho += m
    _, vecs = np.linalg.eigh(rho)
    return StateVector(t, vecs[:, -1])


def learn(psi: StateVector, budget: LearnBudget, mode: str = "sampled", rng=None) -> CompressedForm:
    """Learn a t-compressible state from single-copy measurements of ``psi``.

    The register size n and the compression level t are those the budget
    was planned for, ``budget.n`` and ``budget.t``.

    Sampled mode consumes the budget.  Exact mode replaces every statistical
    estimate with the exact quantity, so it returns the witness of
    `metrology.nearest_compressible` (for debugging and promise checks).
    Raises BoostingFailureError when fewer than max(N_tom, 4^t - 1)
    post-selections succeed (none do when G_hat leaves no zero tail),
    ZeroProbabilityError when exact mode finds the promise violated outright,
    ValueError when ``psi`` is not on the budget's n qubits or t is outside
    [0, n], and PreconditionError when a sampled stage's copy count is past
    what its draw takes (2^53 shots per correlation group, 2^63 for N_loop).
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and rng is None:
        raise ValueError("sampled mode needs an rng")
    n, t = budget.n, budget.t
    if psi.n != n:
        raise ValueError(f"copy has {psi.n} qubits, budget planned for n = {n}")
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, {n}], got {t}")
    if mode == "exact":
        return nearest_compressible(psi, t)[0]
    if t == n:  # pure tomography: no qubits to post-select, every loop copy reaches the core
        phi_hat = tomography_t_qubits(psi, shots=budget.N_loop, rng=rng)
        return CompressedForm(identity_gaussian(n), phi_hat)

    _check_draw("boosting, N_loop", budget.N_loop)  # before any stage runs
    c_hat = correlation_sampled(psi, budget.N_corr, rng)
    g_hat = GaussianUnitary(ortho.normal_form(c_hat).O, check=False)
    rotated = g_hat.adjoint().apply(psi)
    try:
        p_zero, core = postselect_zero_tail(rotated, t)
    except ZeroProbabilityError:  # an under-budget G_hat can flip parity: no copy post-selects
        p_zero = 0.0
    # every iteration is i.i.d., so the success count is one binomial draw
    successes = int(rng.binomial(budget.N_loop, p_zero)) if p_zero < 1.0 else budget.N_loop
    needed = max(budget.N_tom, 4**t - 1)  # tomography takes 4^t - 1 copies even when N_tom is fewer
    if successes < needed:
        floor = "" if needed == budget.N_tom else f"4^{t} - 1 = {needed}, tomography's minimum above "
        raise BoostingFailureError(f"{successes} post-selection successes < {floor}N_tom = {budget.N_tom} "
                                   f"(success probability {p_zero:.4f})")
    # g_hat's adjoint has compiled the pair's program, so verify's G and G^dag decompose nothing
    return CompressedForm(g_hat, tomography_t_qubits(core, shots=successes, rng=rng))


@dataclass(frozen=True)
class LearnReport:
    trace_distance: float
    fidelity: float
    postselect_rate: float
    term_tomography: float
    term_projection: float


def verify(learned: CompressedForm, psi_true: StateVector) -> LearnReport:
    """Exact diagnostics of a learned state against the true state.

    Reports the total trace distance plus the two triangle-inequality
    terms: the tomography error on the core and the projection error of
    the rotated state onto its zero tail.  Raises PreconditionError when the
    learned register size is not the true state's.
    """
    if learned.n != psi_true.n:
        raise PreconditionError(f"learned state has {learned.n} qubits, true state has {psi_true.n}")
    psi_hat = learned.reassemble()
    d_total = trace_distance(psi_hat, psi_true)
    rotated = learned.G.adjoint().apply(psi_true)
    rate, core = postselect_zero_tail(rotated, learned.core_qubits)
    term_tom = trace_distance(learned.phi, core)
    term_proj = trace_distance(embed_with_zero_tail(core, psi_true.n), rotated)
    return LearnReport(
        trace_distance=d_total,
        fidelity=fidelity(psi_hat, psi_true),
        postselect_rate=rate,
        term_tomography=term_tom,
        term_projection=term_proj,
    )
