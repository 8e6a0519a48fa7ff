"""Correlation-matrix estimation, Gaussian dimension, and dimension testing.

The correlation matrix of a state has entries C[j, k] = <-i gamma_j gamma_k>
for j < k; its nonnegative normal eigenvalues measure how Gaussian the
state is.  This module provides exact and shot-based estimators, the
trace-distance sandwich derived from the normal eigenvalues, the nearest
exactly-compressible witness state, and the close/far property tester for
the Gaussian dimension.

The shot-based estimator draws each commuting group's joint bitstrings
from the exact outcome distribution (one multinomial), which is
statistically identical to simulating the shots one at a time.  The
groups' basis changes run as one cyclic walk, a fermionic swap network
(Kivlichan et al. 2018): G(O'_0) for group 0, then one fixed step G(V)
per later group.  Both programs depend only on n, so they are compiled
once per n and shared with every later call through one program cell
each (``GaussianUnitary.sharing``, which ``adjoint()`` uses to share its
pair's one program).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ortho
from .doped import CompressedForm
from .gaussian import GaussianUnitary, identity_gaussian
from .pauli import majorana
from .states import (
    MAX_QUBITS,
    StateVector,
    embed_with_zero_tail,
    postselect_zero_tail,
    trace_distance,
)

READOUT_LIMIT = 2**53  # shots per group up to which the float64 readout is exact


def _majorana_rows(psi: StateVector) -> np.ndarray:
    """The 2n states gamma_mu psi as (re, im): re[mu - 1] + i im[mu - 1] = gamma_mu psi.

    Each row is ``majorana(mu, n).times(psi.amps)``, split into one
    (2, 2n, 2^n) float buffer.
    """
    n = psi.n
    rows = np.empty((2, 2 * n, 2**n))
    for mu in range(1, 2 * n + 1):
        row = majorana(mu, n).times(psi.amps)
        rows[0, mu - 1], rows[1, mu - 1] = row.real, row.imag
    return rows


def correlation_exact(psi: StateVector) -> np.ndarray:
    """Exact antisymmetric correlation matrix of a pure state.

    With gamma_mu psi = a_mu + i b_mu (rows of a and b, ``_majorana_rows``:
    the parts of ``majorana(mu, n).times(psi.amps)``),
    the entry C[j, k] = -i <gamma_j psi, gamma_k psi> is (a b^T - b a^T)[j, k];
    its imaginary part, -(a a^T + b b^T)[j, k], must vanish for j != k.
    """
    re, im = _majorana_rows(psi)
    cross = re @ im.T
    imag = -np.triu(re @ re.T + im @ im.T, 1)  # imaginary parts of the entries j < k
    if np.abs(imag).max(initial=0.0) > 1e-10:
        j, k = np.unravel_index(np.argmax(np.abs(imag)), imag.shape)
        value = complex(cross[j, k] - cross[k, j], imag[j, k])
        raise AssertionError(f"correlation entry not real: {value}")
    return cross - cross.T


def _walk_pairs(n: int) -> list:
    """The 2n-1 commuting groups as a round-robin walk: per group, its pairs in walk order.

    Index 1 stays put while 2, ..., 2n sit on a circle; group k pairs 1
    with the k-th index of the circle and folds the rest of it in half.
    Group 0 is (1, 2), (j + 2, 2n + 1 - j) for j = 1 .. n - 1, and group k
    is tau^k of group 0 pair by pair, tau the (2n-1)-cycle 2 -> 3 -> ... ->
    2n -> 2 on the indices; a pair can come out as (b, a) with b > a.
    """
    m = 2 * n
    others = list(range(2, m + 1))
    groups = []
    for _ in range(m - 1):
        groups.append([(1, others[0])] + [(others[k], others[m - 1 - k]) for k in range(1, n)])
        others = others[1:] + others[:1]
    return groups


def commuting_groups(n: int):
    """Partition the n(2n-1) pair observables into 2n-1 groups of n disjoint pairs.

    Round-robin schedule on 2n Majorana indices (``_walk_pairs``, each
    pair and group sorted): every group covers each index exactly once, so
    its observables -i gamma_a gamma_b pairwise commute, and every pair
    appears in exactly one group.
    """
    return [sorted(tuple(sorted(pair)) for pair in pairs) for pairs in _walk_pairs(n)]


def _group_permutation(pairs, n: int) -> np.ndarray:
    """The basis change of one commuting group, as its orthogonal matrix.

    It sends plane (2i-1, 2i) onto pair (a_i, b_i), so measuring Z_i after
    the rotation samples -i gamma_{a_i} gamma_{b_i}.
    """
    p = np.zeros((2 * n, 2 * n))
    for i, (a, b) in enumerate(pairs):
        p[2 * i, a - 1] = 1.0
        p[2 * i + 1, b - 1] = 1.0
    return p


@lru_cache(maxsize=MAX_QUBITS)  # one entry per n under the dense engine's cap
def _grouped_sampling(n: int) -> tuple:
    """The n-only part of grouped sampling: one cyclic walk through the groups.

    With O'_k the basis change of group k's pairs in walk order
    (``_walk_pairs``) and Pi the permutation matrix of tau, O'_k = O'_0 Pi^k
    = V^k O'_0 for the one step V = O'_0 Pi O'_0^T, a permutation with det
    +1 and V^(2n-1) = I.  Since G_{O1} G_{O2} = G_{O1 O2}, group k's rotated
    state is G(V) applied to group k - 1's, and group 0's is G(O'_0) psi.

    Returns (groups, bits).  Per commuting group, in ``commuting_groups(n)``
    order, groups holds (o, cell, index, rows, cols): the step to apply to
    the previous group's state, O'_0 for group 0 and V for every later one,
    its program cell [program] (two cells in all, compiled by the first
    call that applies them and read by every later one), the gather that
    puts the walk register's outcome probabilities in the group's
    canonical outcome order, and the entries of the group's sorted pairs.
    Canonical qubit i reads the sorted pair i, the walk qubit j the walk
    pair j, so the gather is a bit permutation of the outcome index with a
    bit flipped wherever a walk pair is (b, a), b > a: -i gamma_b gamma_a
    = i gamma_a gamma_b.  bits[x, i] is qubit i + 1 of outcome x, a 2^n x n
    float table.
    """
    walk = _walk_pairs(n)
    start = _group_permutation(walk[0], n)
    tau = np.eye(2 * n)
    tau[1:, 1:] = np.roll(tau[1:, 1:], 1, axis=1)  # tau[a, tau(a)] = 1
    first, step = (start, [None]), (start @ tau @ start.T, [None])
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(float)  # canonical bits
    groups = []
    for k, pairs in enumerate(walk):
        order = np.argsort([min(pair) for pair in pairs])  # walk qubit of each sorted pair
        flips = np.array([a > b for a, b in pairs])[order]
        weights = 2.0 ** (n - 1 - order)  # the walk bit of each canonical qubit: one exact product
        index = (bits @ weights).astype(np.intp) ^ int(weights @ flips)
        rows, cols = (np.sort(pairs, axis=1)[order] - 1).T
        for array in (index, rows, cols):
            array.setflags(write=False)
        groups.append((*(step if k else first), index, rows, cols))
    for o, _ in (first, step):
        o.setflags(write=False)
    bits.setflags(write=False)
    return tuple(groups), bits


def group_shots(copies: int, n: int) -> int:
    """Shots per group when ``correlation_sampled`` splits ``copies`` at n qubits.

    ceil(copies / (2n-1)), in integers; the 2n-1 groups draw this many each.
    """
    return -(-copies // (2 * n - 1))


def copies_drawn(copies: int, n: int) -> int:
    """Copies ``correlation_sampled`` draws for ``copies`` at n qubits: up to 2n - 2 more."""
    return group_shots(copies, n) * (2 * n - 1)


def correlation_sampled(psi: StateVector, copies: int, rng) -> np.ndarray:
    """Estimate the correlation matrix from about ``copies`` single-copy shots.

    Each of the 2n-1 commuting groups gets ``group_shots(copies, n)`` =
    ceil(copies / (2n-1)) shots: one joint computational-basis sample per
    shot after the group's Gaussian basis change.  Rounding up can spend up
    to 2n-2 copies more than ``copies``.  The basis changes are the steps
    of one walk (``_grouped_sampling``), each group's probabilities gathered
    into its canonical outcome order for the draw.  A group's n pair means
    are read in one float64 matrix product: the multinomial counts times
    the 2^n x n outcome-bit table give each pair's number of -1 outcomes k,
    and the mean is (shots - 2k) / shots.  The readout is exact up to
    READOUT_LIMIT = 2^53 shots per group, where every count and every sum
    of counts is an integer float64 holds; more raise ValueError.  The two
    walk programs depend only on n: each is compiled by the first call at
    its n and shared with every later one.
    """
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    n = psi.n
    shots = group_shots(copies, n)
    if shots > READOUT_LIMIT:
        raise ValueError(
            f"correlation sampling: {shots} shots per group exceed the exact-readout "
            f"limit 2^53 = {READOUT_LIMIT}"
        )
    c_hat = np.zeros((2 * n, 2 * n))
    groups, bits = _grouped_sampling(n)
    for o, cell, index, rows, cols in groups:
        psi = GaussianUnitary.sharing(o, cell).apply(psi)  # a step of the walk
        probs = np.abs(psi.amps[index]) ** 2
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        # counts @ bits counts the -1 outcomes per pair; in float64 it is one BLAS call
        c_hat[rows, cols] = (shots - 2 * (counts.astype(float) @ bits)) / shots
    return c_hat - c_hat.T


def gaussian_dimension(c: np.ndarray, tol: float = 1e-6) -> int:
    """Number of normal eigenvalues within tol of one."""
    lambdas = ortho.normal_eigenvalues(c)
    return int(np.sum(lambdas >= 1.0 - tol))


@dataclass(frozen=True)
class DistanceBounds:
    """Sandwich on the trace distance to the set of t-compressible states."""

    lower: float
    upper: float
    lambdas: np.ndarray
    t: int


def distance_bounds(lambdas, t: int) -> DistanceBounds:
    """lower = (1 - lambda_{t+1})/2,  upper = sqrt(sum_{k>t} (1 - lambda_k)/2)."""
    lambdas = np.asarray(lambdas, dtype=float)
    n = len(lambdas)
    if not 0 <= t < n:
        raise ValueError(f"t must be in [0, {n - 1}], got {t}")
    if np.any(np.diff(lambdas) < -1e-9):
        raise ValueError("lambdas must be ascending")
    lower = (1.0 - lambdas[t]) / 2.0
    upper = float(np.sqrt(np.sum(np.maximum(1.0 - lambdas[t:], 0.0) / 2.0)))
    return DistanceBounds(lower=float(lower), upper=upper, lambdas=lambdas, t=t)


def nearest_compressible(psi: StateVector, t: int) -> tuple[CompressedForm, float]:
    """Witness t-compressible state G(phi (x) |0>) built from the state's own normal form.

    Returns (witness, exact trace distance to psi); G is the Gaussian
    unitary of the normal form of psi's exact correlation matrix, and phi
    the normalised zero-tail core of G^dag psi.  This is what the learner
    returns from exact statistics.  The distance always sits inside the
    bounds of `distance_bounds` evaluated on the exact normal eigenvalues.
    Raises ZeroProbabilityError when projecting the rotated state onto the
    zero tail annihilates it.
    """
    n = psi.n
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, {n}], got {t}")
    if t == n:
        return CompressedForm(identity_gaussian(n), psi), 0.0
    g = GaussianUnitary(ortho.normal_form(correlation_exact(psi)).O, check=False)
    rotated = g.adjoint().apply(psi)
    _, core = postselect_zero_tail(rotated, t)
    return CompressedForm(g, core), trace_distance(embed_with_zero_tail(core, n), rotated)


@dataclass(frozen=True)
class DimensionTestResult:
    verdict: str  # "close" or "far"
    lambda_t1: float
    eps_corr: float
    eps_test: float
    copies: int  # drawn in sampled mode, rounding included; 0 in exact mode


def dimension_verdict(lambda_t1: float, eps_test: float) -> str:
    """close iff the estimated lambda_{t+1} reaches 1 - eps_test (inclusive)."""
    return "close" if lambda_t1 >= 1.0 - eps_test else "far"


def copy_count(name: str, formula) -> int:
    """ceil(formula()), a copy count; ValueError naming it when it is not a finite number.

    A float past its range reads as infinite, whether the arithmetic
    overflows or a power underflows to 0 and is divided by.
    """
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name}: {value} is not a finite number of copies")
    return math.ceil(value)


def dimension_test_budget(n: int, t: int, eps_a: float, eps_b: float, delta: float) -> int:
    """The sampled tester's copy count before its split into groups.

    ceil(16 n^3 / eps_corr^2 * log(4 n^2 / delta)) with eps_corr =
    eps_b^2 / (n - t) - eps_a; the inputs are those ``test_gaussian_dimension``
    accepts.
    """
    def formula():
        eps_corr = eps_b**2 / (n - t) - eps_a
        return 16.0 * n**3 / eps_corr**2 * math.log(4.0 * n**2 / delta)

    return copy_count("dimension test", formula)


def test_gaussian_dimension(
    psi: StateVector,
    t: int,
    eps_a: float,
    eps_b: float,
    delta: float,
    rng=None,
    shot_override: int | None = None,
    mode: str = "sampled",
) -> DimensionTestResult:
    """Decide whether a state is eps_a-close or eps_b-far from t-compressible.

    Promise tester: assuming the state is within eps_a of the set of
    t-compressible states or at least eps_b away, the verdict is correct
    with probability at least 1 - delta.  Requires
    eps_b > sqrt((n - t) * eps_a).  The default copy count is
    ``dimension_test_budget``; shot_override replaces it for desk-scale runs.  The result's ``copies`` is what the sampled
    estimator draws for that count: ``group_shots`` per group.
    """
    n = psi.n
    if not 0 <= t < n:
        raise ValueError(f"t must be in [0, {n - 1}], got {t}")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if eps_b <= math.sqrt((n - t) * eps_a):
        raise ValueError(
            f"need eps_b > sqrt((n - t) * eps_a) = {math.sqrt((n - t) * eps_a):.4g}, got {eps_b}"
        )
    if shot_override is not None and shot_override < 1:
        raise ValueError(f"shot_override must be >= 1, got {shot_override}")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}, expected 'exact' or 'sampled'")
    eps_corr = eps_b**2 / (n - t) - eps_a
    eps_test = eps_b**2 / (n - t) + eps_a

    if mode == "exact":
        copies = 0
        c_hat = correlation_exact(psi)
    else:
        budget = shot_override if shot_override is not None else dimension_test_budget(n, t, eps_a, eps_b, delta)
        c_hat = correlation_sampled(psi, budget, rng)
        copies = copies_drawn(budget, n)

    lambdas = ortho.normal_eigenvalues(c_hat)
    lam = float(lambdas[t])
    verdict = dimension_verdict(lam, eps_test)
    return DimensionTestResult(
        verdict=verdict, lambda_t1=lam, eps_corr=eps_corr, eps_test=eps_test, copies=copies
    )
