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
groups' basis changes depend only on n, so they are compiled once per n
and their programs shared with every later call through one program cell
per group (``GaussianUnitary.sharing``, the mechanism ``adjoint()`` uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ortho
from .gaussian import GaussianUnitary, _parity_signs
from .states import (
    StateVector,
    embed_with_zero_tail,
    fresh_copy,
    postselect_zero_tail,
    trace_distance,
)

READOUT_LIMIT = 2**53  # shots per group up to which the float64 readout is exact


# gamma_2k psi from gamma_{2k-1} psi = x: -i x on bit k = 0 and +i x on bit k = 1, so
# re <- (x_im, -x_im) and im <- (-x_re, x_re); indexed [re/im part, bit k]
_Y_EDGE = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :, None]


def _majorana_rows(psi: StateVector) -> np.ndarray:
    """The 2n states gamma_mu psi as (re, im): re[mu - 1] + i im[mu - 1] = gamma_mu psi.

    Under Jordan-Wigner, gamma_{2k-1} = Z_1 .. Z_{k-1} X_k and gamma_{2k} =
    Z_1 .. Z_{k-1} Y_k, so both rows of qubit k are psi with bit k flipped
    times the parity sign of bits 1 .. k-1; Y_k adds the edge factor -i
    (+i) on output bit 0 (1).  The rows are written straight into one
    (2, 2n, 2^n) float buffer.
    """
    n = psi.n
    rows = np.empty((2, 2 * n, 2**n))
    parts = np.stack((psi.amps.real, psi.amps.imag))
    signs = _parity_signs(n + 1)  # (-1)^popcount(a) for a < 2^(n-1)
    for k in range(1, n + 1):
        shape = (2, 2 ** (k - 1), 2, -1)
        x = rows[:, 2 * k - 2].reshape(shape)
        np.multiply(parts.reshape(shape)[:, :, ::-1], signs[:2 ** (k - 1), None, None], out=x)
        np.multiply(x[::-1], _Y_EDGE, out=rows[:, 2 * k - 1].reshape(shape))
    return rows


def correlation_exact(psi: StateVector) -> np.ndarray:
    """Exact antisymmetric correlation matrix of a pure state.

    With gamma_mu psi = a_mu + i b_mu (rows of a and b, ``_majorana_rows``),
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


def commuting_groups(n: int):
    """Partition the n(2n-1) pair observables into 2n-1 groups of n disjoint pairs.

    Round-robin schedule on 2n Majorana indices: every group covers each
    index exactly once, so its observables -i gamma_a gamma_b pairwise
    commute, and every pair appears in exactly one group.
    """
    m = 2 * n
    others = list(range(2, m + 1))
    groups = []
    for _ in range(m - 1):
        pairs = [tuple(sorted((1, others[0])))]
        for k in range(1, n):
            pairs.append(tuple(sorted((others[k], others[m - 1 - k]))))
        groups.append(sorted(pairs))
        others = others[1:] + others[:1]
    return groups


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


@lru_cache(maxsize=12)  # one entry per n under the dense engine's n <= 12 cap
def _grouped_sampling(n: int) -> tuple:
    """The n-only part of grouped sampling: the groups and the readout bit table.

    Returns (groups, bits).  Per commuting group, in ``commuting_groups(n)``
    order, groups holds (o, cell, rows, cols): the basis change's O, its
    program cell [program, program of the adjoint], compiled by the first
    call that applies it and read by every later one, and the entries of
    the group's pairs.  bits[x, i] is qubit i + 1 of outcome x, a 2^n x n
    float table.
    """
    groups = []
    for pairs in commuting_groups(n):
        o = _group_permutation(pairs, n)
        rows, cols = (np.array(pairs) - 1).T
        for array in (o, rows, cols):
            array.setflags(write=False)
        groups.append((o, [None, None], rows, cols))
    bits = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)
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
    shot after the group's compiled Gaussian basis change.  Rounding up can
    spend up to 2n-2 copies more than ``copies``.  A group's n pair means
    are read in one float64 matrix product: the multinomial counts times
    the 2^n x n outcome-bit table give each pair's number of -1 outcomes k,
    and the mean is (shots - 2k) / shots.  The readout is exact up to
    READOUT_LIMIT = 2^53 shots per group, where every count and every sum
    of counts is an integer float64 holds; more raise ValueError.  The
    groups' basis changes depend only on n: each is compiled by the first
    call at its n and shared with every later one.
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
    for o, cell, rows, cols in groups:
        rotated = GaussianUnitary.sharing(o, cell).apply(psi)
        probs = np.abs(rotated.amps) ** 2
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


def nearest_compressible(psi: StateVector, t: int):
    """Witness t-compressible state built from the state's own normal form.

    Returns (state, exact trace distance).  The distance always sits inside
    the bounds of `distance_bounds` evaluated on the exact normal
    eigenvalues.  Raises ZeroProbabilityError when projecting the rotated
    state onto the zero tail annihilates it.
    """
    n = psi.n
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, {n}], got {t}")
    if t == n:
        return psi, 0.0
    nf = ortho.normal_form(correlation_exact(psi))
    g = GaussianUnitary(nf.O, check=False)
    rotated = g.adjoint().apply(psi)
    _, core = postselect_zero_tail(rotated, t)
    witness_rotated = embed_with_zero_tail(core, n)
    distance = trace_distance(witness_rotated, rotated)
    return g.apply(witness_rotated), distance


@dataclass(frozen=True)
class DimensionTestResult:
    verdict: str  # "close" or "far"
    lambda_t1: float
    eps_corr: float
    eps_test: float
    copies: int  # drawn by the sampled scheme, rounding included; 0 for the exact one


def dimension_verdict(lambda_t1: float, eps_test: float) -> str:
    """close iff the estimated lambda_{t+1} reaches 1 - eps_test (inclusive)."""
    return "close" if lambda_t1 >= 1.0 - eps_test else "far"


def test_gaussian_dimension(
    state_source,
    t: int,
    eps_a: float,
    eps_b: float,
    delta: float,
    rng=None,
    shot_override: int | None = None,
    scheme: str = "grouped",
) -> DimensionTestResult:
    """Decide whether a state is eps_a-close or eps_b-far from t-compressible.

    Promise tester: assuming the state is within eps_a of the set of
    t-compressible states or at least eps_b away, the verdict is correct
    with probability at least 1 - delta.  Requires
    eps_b > sqrt((n - t) * eps_a).  The default copy count is
    ceil(16 n^3 / eps_corr^2 * log(4 n^2 / delta)); shot_override replaces
    it for desk-scale runs.  The result's ``copies`` is what the sampled
    estimator draws for that count: ``group_shots`` per group.
    """
    psi = fresh_copy(state_source)
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
    if scheme not in ("exact", "grouped"):
        raise ValueError(f"unknown scheme {scheme!r}, expected 'exact' or 'grouped'")
    eps_corr = eps_b**2 / (n - t) - eps_a
    eps_test = eps_b**2 / (n - t) + eps_a

    if scheme == "exact":
        copies = 0
        c_hat = correlation_exact(psi)
    else:
        budget = shot_override if shot_override is not None else math.ceil(
            16.0 * n**3 / eps_corr**2 * math.log(4.0 * n**2 / delta)
        )
        c_hat = correlation_sampled(psi, budget, rng)
        copies = copies_drawn(budget, n)

    lambdas = ortho.normal_eigenvalues(c_hat)
    lam = float(lambdas[t])
    verdict = dimension_verdict(lam, eps_test)
    return DimensionTestResult(
        verdict=verdict, lambda_t1=lam, eps_corr=eps_corr, eps_test=eps_test, copies=copies
    )
