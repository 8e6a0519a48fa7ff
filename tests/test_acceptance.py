"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line with its measured extremes; run
with ``pytest tests/test_acceptance.py -v -s`` to see them.  Runtime
budgets are asserted alongside the numerical tolerances.
"""

import math
import time
from functools import lru_cache

import numpy as np

from fermidope import metrology, ortho
from fermidope.doped import compress_unitary, compress_state, prepare, random_doped_circuit
from fermidope.gaussian import GaussianUnitary
from fermidope.learner import (
    boosting_iterations,
    hoeffding_budget,
    learn,
    plan_budget,
    verify,
)
from fermidope.harness import ExperimentConfig, run
from fermidope.metrology import correlation_exact, distance_bounds, nearest_compressible
from fermidope.states import (
    embed_with_zero_tail,
    fidelity,
    postselect_zero_tail,
    random_state,
    trace_distance,
    zero_state,
)

from conftest import compressible_fixture, doped_sweep_cells, tplus_state
from oracles import apply_dense_unitary, born_probability, omega, random_antisymmetric


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


@lru_cache(maxsize=1)
def _sweep_fixtures():
    """(n, kappa, t, circuit, state) for every cell x 20 seeds."""
    out = []
    for n, kappa, t in doped_sweep_cells():
        for seed in range(20):
            rng = np.random.default_rng(1_000_000 * n + 1_000 * kappa + 100 * t + seed)
            circuit = random_doped_circuit(n, t, kappa, rng)
            out.append((n, kappa, t, circuit, prepare(circuit)))
    return out


def test_criterion_01_normal_form():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_recon = worst_ortho = worst_lambda = 0.0
    for _ in range(200):
        dim = int(rng.choice([4, 8, 12, 16]))
        c = random_antisymmetric(dim, rng)
        nf = ortho.normal_form(c)
        worst_recon = max(worst_recon, ortho.opnorm(nf.reconstruct() - c))
        worst_ortho = max(worst_ortho, ortho.opnorm(nf.O.T @ nf.O - np.eye(dim)))
        oracle = np.maximum(np.linalg.eigvalsh(1j * c)[dim // 2 :], 0.0)
        worst_lambda = max(worst_lambda, float(np.max(np.abs(nf.lambdas - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst_recon <= 1e-9 and worst_ortho <= 1e-10 and worst_lambda <= 1e-9 and elapsed < 10
    _report(1, "normal form", ok,
            f"recon {worst_recon:.2e}, ortho {worst_ortho:.2e}, "
            f"lambda {worst_lambda:.2e}, {elapsed:.1f}s")


def test_criterion_02_gaussian_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_transport = worst_unit = 0.0
    for i in range(50):
        n = 2 + i % 5
        o = ortho.random_orthogonal(2 * n, rng)
        psi = GaussianUnitary(o).apply(zero_state(n))
        c = correlation_exact(psi)
        worst_transport = max(worst_transport, ortho.opnorm(c - o @ omega(n) @ o.T))
        worst_unit = max(worst_unit, float(np.max(np.abs(ortho.normal_eigenvalues(c) - 1.0))))
    elapsed = time.perf_counter() - start
    ok = worst_transport <= 1e-9 and worst_unit <= 1e-9 and elapsed < 30
    _report(2, "Gaussian transport", ok,
            f"transport {worst_transport:.2e}, unit-lambda {worst_unit:.2e}, {elapsed:.1f}s")


def test_criterion_03_compression_theorem():
    start = time.perf_counter()
    worst_tail = 0.0
    dims_ok = True
    for n, kappa, t, circuit, psi in _sweep_fixtures():
        form = compress_state(circuit)
        rotated = form.G.adjoint().apply(psi)
        tail = n - form.core_qubits
        p = born_probability(rotated, range(n - tail + 1, n + 1), [0] * tail) if tail else 1.0
        worst_tail = max(worst_tail, 1.0 - p)
        lams = ortho.normal_eigenvalues(correlation_exact(psi))
        dims_ok = dims_ok and int(np.sum(lams >= 1.0 - 1e-6)) >= n - kappa * t
    elapsed = time.perf_counter() - start
    ok = worst_tail <= 1e-8 and dims_ok and elapsed < 120
    _report(3, "state compression", ok,
            f"{len(_sweep_fixtures())} fixtures, worst tail weight {worst_tail:.2e}, "
            f"dims ok {dims_ok}, {elapsed:.1f}s")


def test_criterion_04_unitary_compression():
    rng = np.random.default_rng(104)
    worst = 1.0
    fixtures = [(4, 4, 1), (4, 3, 1), (5, 4, 1), (5, 3, 1), (6, 4, 1),
                (6, 3, 2), (6, 4, 2), (7, 3, 2), (8, 4, 2), (8, 3, 2)]
    for n, kappa, t in fixtures:
        circuit = random_doped_circuit(n, t, kappa, rng)
        g_a, u_core, g_b = compress_unitary(circuit)
        m_q = int(np.log2(u_core.shape[0]))
        for _ in range(20):
            psi = random_state(n, rng)
            lhs = circuit.apply(psi)
            rhs = g_a.apply(apply_dense_unitary(g_b.apply(psi), range(1, m_q + 1), u_core))
            worst = min(worst, fidelity(lhs, rhs))
    ok = worst >= 1.0 - 1e-8
    _report(4, "unitary compression", ok, f"10 fixtures x 20 states, worst fidelity 1-{1 - worst:.2e}")


def test_criterion_05_exact_learning():
    start = time.perf_counter()
    worst = 0.0
    for n, kappa, t, _, psi in _sweep_fixtures():
        t_learn = min(kappa * t, n)
        learned = learn(psi, plan_budget(n, t_learn, 0.25, 1 / 3), mode="exact")
        worst = max(worst, verify(learned, psi).trace_distance)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 120
    _report(5, "exact learning", ok, f"worst d_tr {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_sampled_learning():
    start = time.perf_counter()
    eps, delta, trials = 0.25, 1.0 / 3.0, 60
    wins = 0
    for i in range(trials):
        rng = np.random.default_rng(60_000 + i)
        psi, _, _ = compressible_fixture(4, 1, seed=70_000 + i)
        budget = hoeffding_budget(4, 1, eps, delta, c_tom=1.0)
        learned = learn(psi, budget, mode="sampled", rng=rng)
        wins += verify(learned, psi).trace_distance <= eps
    elapsed = time.perf_counter() - start
    rate = wins / trials
    sigma = math.sqrt((1 - delta) * delta / trials)
    ok = rate >= (1 - delta) - 3 * sigma and elapsed < 600
    _report(6, "sampled learning", ok,
            f"success rate {rate:.3f} (needs >= {1 - delta - 3 * sigma:.3f}), {elapsed:.1f}s")


def test_criterion_07_union_bound():
    rng = np.random.default_rng(107)
    passes = cases = 0
    for magnitude in (1e-4, 1e-3, 1e-2):
        for i in range(34 if magnitude == 1e-2 else 33):
            n, t = (4, 1) if i % 3 else (6, 2)
            psi, _, _ = compressible_fixture(n, t, seed=7_000 + cases)
            c = correlation_exact(psi)
            e = random_antisymmetric(2 * n, rng)
            e *= magnitude / ortho.opnorm(e)
            g_hat = GaussianUnitary(ortho.normal_form(c + e).O)
            rotated = g_hat.adjoint().apply(psi)
            prob, core = postselect_zero_tail(rotated, t)
            d = trace_distance(embed_with_zero_tail(core, n), rotated)
            cases += 1
            passes += (d <= math.sqrt((n - t) * magnitude) + 1e-12
                       and prob >= 1.0 - (n - t) * magnitude)
    ok = passes == cases == 100
    _report(7, "union bound", ok, f"{passes}/{cases} perturbation cases")


def test_criterion_08_distance_sandwich():
    worst_slack = 0.0
    count = 0
    for seed in range(50):
        rng = np.random.default_rng(8_000 + seed)
        n = int(rng.choice([4, 5, 6]))
        psi = prepare(random_doped_circuit(n, 1, int(rng.choice([3, 4])), rng))
        lams = ortho.normal_eigenvalues(correlation_exact(psi))
        for t in range(n):
            bounds = distance_bounds(lams, t)
            _, d = nearest_compressible(psi, t)
            worst_slack = max(worst_slack, bounds.lower - d, d - bounds.upper)
            count += 1
    ok = worst_slack <= 1e-9
    _report(8, "distance sandwich", ok, f"{count} (state, t) pairs, worst violation {worst_slack:.2e}")


def test_criterion_09_dimension_tester():
    rng = np.random.default_rng(109)
    # exact scheme: both promise sides, every trial correct
    exact_ok = True
    for i in range(20):
        gaussian = GaussianUnitary(ortho.random_orthogonal(8, rng)).apply(zero_state(4))
        r1 = metrology.test_gaussian_dimension(gaussian, 0, 0.0, 0.4, 1 / 3, mode="exact")
        r2 = metrology.test_gaussian_dimension(tplus_state(4), 0, 0.0, 0.4, 1 / 3, mode="exact")
        exact_ok = exact_ok and r1.verdict == "close" and r2.verdict == "far"
    # sampled scheme at desk-scale override: error rate <= delta + 3 sigma
    delta, trials, errors = 1.0 / 3.0, 100, 0
    for i in range(trials):
        if i % 2:
            psi, expected = tplus_state(4), "far"
        else:
            psi = GaussianUnitary(ortho.random_orthogonal(8, rng)).apply(zero_state(4))
            expected = "close"
        res = metrology.test_gaussian_dimension(psi, 0, 0.0, 0.4, delta, rng=rng,
                                                shot_override=100_000)
        errors += res.verdict != expected
    sigma = math.sqrt(delta * (1 - delta) / trials)
    rate = errors / trials
    ok = exact_ok and rate <= delta + 3 * sigma
    _report(9, "dimension tester", ok, f"exact all-correct {exact_ok}, sampled error rate {rate:.3f}")


def test_criterion_10_perturbation_lemma():
    rng = np.random.default_rng(110)
    passes = 0
    for _ in range(100):
        dim = int(rng.choice([4, 8, 12, 16]))
        a = random_antisymmetric(dim, rng)
        e = random_antisymmetric(dim, rng, scale=float(rng.uniform(0.01, 3.0)))
        gap = np.max(np.abs(ortho.normal_eigenvalues(a + e) - ortho.normal_eigenvalues(a)))
        passes += gap <= ortho.opnorm(e) + 1e-12
    ok = passes == 100
    _report(10, "eigenvalue perturbation", ok, f"{passes}/100 pairs inside the bound")


def test_criterion_11_boosting():
    rng = np.random.default_rng(111)
    n_needed, delta, trials = 50, 0.05, 1000
    m = boosting_iterations(n_needed, delta)
    failures = int(np.sum(rng.binomial(m, 0.75, size=trials) < n_needed))
    sigma = math.sqrt(delta * (1 - delta) / trials)
    rate = failures / trials
    ok = rate <= delta + 3 * sigma
    _report(11, "boosting", ok, f"m = {m}, failure rate {rate:.4f} (bound {delta + 3 * sigma:.4f})")


def test_criterion_12_determinism(tmp_path):
    cfg = ExperimentConfig(kind="learn", n=4, t=1, kappa=4, seed=42, mode="sampled",
                           fixture="compressible", trials=3)
    first, second = run(cfg), run(cfg)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(first.to_json())
    pb.write_text(second.to_json())
    ok = pa.read_bytes() == pb.read_bytes()
    cfg2 = ExperimentConfig(kind="test", n=4, t=0, fixture="tplus", mode="sampled",
                            trials=3, seed=42, shots_override=10_000)
    ok = ok and run(cfg2).to_json() == run(cfg2).to_json()
    _report(12, "determinism", ok, "repeated runs byte-identical")
