"""Learning pipeline: budgets, exact/sampled runs, tomography, boosting."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidope import learner, metrology, ortho
from fermidope.doped import CompressedForm, compress_state, prepare, random_doped_circuit
from fermidope.gaussian import GaussianUnitary
from fermidope.learner import (
    TOMOGRAPHY_LIMIT,
    BoostingFailureError,
    boosting_iterations,
    hoeffding_budget,
    learn,
    pauli_expectations,
    pauli_strings,
    plan_budget,
    tomography_t_qubits,
    verify,
)
from fermidope.metrology import correlation_exact, nearest_compressible
from fermidope.pauli import PauliString
from fermidope.states import (
    StateVector,
    ZeroProbabilityError,
    basis_state,
    born_probability,
    embed_with_zero_tail,
    expectation,
    postselect_zero_tail,
    random_state,
    trace_distance,
    zero_state,
)

from conftest import compressible_fixture, doped_sweep_cells, kron_chain, text_prefixes, tplus_state


def test_budget_formula_fixture():
    budget = plan_budget(2, 0, 1.0, 1.0, c_tom=1.0)
    assert budget.N_corr == math.ceil(256 * 2**5 * math.log(12 * 4))
    assert budget.N_tom == math.ceil(1.0 * 1 * 1 * math.log(3.0) * 2**4)
    assert budget.N_loop == math.ceil(2 * budget.N_tom + 24 * math.log(3.0))


def test_budget_eps_scaling():
    # halving eps multiplies the correlation budget by 2^4 exactly (up to ceil)
    raw = 256 * 4**5 / 0.5**4 * math.log(12 * 16 / 0.1)
    a = plan_budget(4, 1, 0.5, 0.1)
    b = plan_budget(4, 1, 0.25, 0.1)
    assert a.N_corr == math.ceil(raw)
    assert b.N_corr == math.ceil(16 * raw)


def test_budget_tomography_doubles_with_t():
    a = plan_budget(6, 2, 0.25, 0.1)
    b = plan_budget(6, 3, 0.25, 0.1)
    # N_tom carries 2^t * max(t, 1): going 2 -> 3 scales by 2 * 3/2 = 3
    assert abs(b.N_tom / a.N_tom - 3.0) < 0.01


def test_budget_records_eps_c():
    budget = plan_budget(5, 1, 0.2, 0.1)
    assert budget.eps_c == pytest.approx(0.2**2 / (4 * 4))
    assert not budget.pure_tomography
    assert plan_budget(3, 3, 0.2, 0.1).pure_tomography


def test_budget_validation():
    with pytest.raises(ValueError):
        plan_budget(4, 1, 0.0, 0.1)
    with pytest.raises(ValueError):
        plan_budget(4, 5, 0.2, 0.1)


def test_budget_count_past_the_float_range_names_the_count():
    # eps^4 underflows to 0, (eps / 2)^-4 overflows, and an infinite c_tom is no count
    with pytest.raises(ValueError, match="^N_corr: inf is not a finite number of copies$"):
        plan_budget(4, 1, 1e-100, 0.1)
    with pytest.raises(ValueError, match="^N_tom: inf is not a finite number of copies$"):
        plan_budget(4, 1, 0.2, 0.1, c_tom=math.inf)
    with pytest.raises(ValueError, match="^N_tom: nan is not a finite number of copies$"):
        hoeffding_budget(4, 1, 0.2, 0.1, c_tom=math.nan)
    with pytest.raises(ValueError, match="^N_loop: inf is not a finite number of copies$"):
        boosting_iterations(10**400, 0.1)


def test_learn_rejects_a_budget_planned_for_another_n(rng):
    psi = random_state(4, rng)
    for budget in (plan_budget(5, 1, 0.25, 1 / 3), plan_budget(3, 3, 0.25, 1 / 3)):
        with pytest.raises(ValueError, match=f"^copy has 4 qubits, budget planned for n = {budget.n}$"):
            learn(psi, budget, mode="exact")
    # a budget edited by hand can still hold a t past its n
    with pytest.raises(ValueError, match=r"^t must be in \[0, 4\], got 5$"):
        learn(psi, replace(plan_budget(4, 1, 0.25, 1 / 3), t=5), mode="sampled", rng=rng)


def test_hoeffding_budget_formula():
    budget = hoeffding_budget(4, 1, 0.25, 1 / 3)
    m = 4 * 7
    expected = math.ceil(8 * 16 * 7 / budget.eps_c**2 * math.log(2 * m * 9))
    assert budget.N_corr == expected


def test_boosting_iterations_formula():
    assert boosting_iterations(50, 0.05) == math.ceil(100 + 24 * math.log(20))


def test_boosting_lemma_monte_carlo(rng):
    # p = 3/4, N' = 50, delta = 0.05: failures over 1000 trials stay within
    # delta + 3 sigma of the binomial band
    n_needed, delta, trials = 50, 0.05, 1000
    m = boosting_iterations(n_needed, delta)
    failures = int(np.sum(rng.binomial(m, 0.75, size=trials) < n_needed))
    sigma = math.sqrt(delta * (1 - delta) / trials)
    assert failures / trials <= delta + 3 * sigma


def test_exact_learning_on_gaussian_state(rng):
    # 1e-7 sits above the sqrt(machine eps) floor of the trace-distance form
    psi = GaussianUnitary(ortho.random_orthogonal(8, rng)).apply(zero_state(4))
    learned = learn(psi, plan_budget(4, 0, 0.25, 1 / 3), mode="exact")
    assert verify(learned, psi).trace_distance <= 1e-7


def test_verify_decomposes_the_learned_gaussian_once(rng, givens_calls):
    # a state from learn carries learn's G_hat, whose adjoint learn has compiled, so verify
    # decomposes nothing; a loaded state decomposes its O once for G_hat and its adjoint
    psi = prepare(random_doped_circuit(6, 1, 3, rng))
    learned = learn(psi, plan_budget(6, 3, 0.25, 1 / 3), mode="exact")
    givens_calls.clear()
    report = verify(learned, psi)
    assert report.trace_distance <= 1e-6
    assert givens_calls == []
    loaded = verify(CompressedForm.loads(learned.dumps()), psi)
    assert len(givens_calls) == 1 and np.array_equal(givens_calls[0], learned.G.O)
    # a derived program runs the same rotations in another block form
    assert loaded.trace_distance == pytest.approx(report.trace_distance, abs=1e-12)
    assert loaded.fidelity == pytest.approx(report.fidelity, abs=1e-12)


def test_exact_learning_is_the_nearest_compressible_witness(rng):
    # the doped fixture learned below and at t = n, and the compressible fixture
    doped = prepare(random_doped_circuit(6, 1, 3, rng))
    compressible, _, _ = compressible_fixture(5, 2, seed=11)
    for psi, t in ((doped, 3), (doped, 6), (compressible, 2)):
        learned = learn(psi, plan_budget(psi.n, t, 0.25, 1 / 3), mode="exact")
        witness, _ = nearest_compressible(psi, t)
        assert np.array_equal(learned.G.O, witness.G.O)
        assert np.array_equal(learned.phi.amps, witness.phi.amps)


def test_exact_learning_sweep():
    for n, kappa, t in doped_sweep_cells():
        psi = prepare(random_doped_circuit(n, t, kappa, np.random.default_rng(7 * n + t)))
        t_learn = min(kappa * t, n)
        learned = learn(psi, plan_budget(n, t_learn, 0.25, 1 / 3), mode="exact")
        report = verify(learned, psi)
        assert report.trace_distance <= 1e-6, (n, kappa, t, report.trace_distance)


def test_exact_learning_looser_t_stays_exact(rng):
    # learning with t' > t never hurts in exact mode
    psi = prepare(random_doped_circuit(6, 1, 4, rng))
    for t_learn in (4, 5, 6):
        learned = learn(psi, plan_budget(6, t_learn, 0.25, 1 / 3), mode="exact")
        assert verify(learned, psi).trace_distance <= 1e-6


def test_learned_state_serialization(rng):
    psi, _, _ = compressible_fixture(4, 1, seed=3)
    learned = learn(psi, plan_budget(4, 1, 0.25, 1 / 3), mode="exact")
    text = learned.dumps()
    back = CompressedForm.loads(text)
    assert back.dumps() == text
    assert trace_distance(back.reassemble(), psi) <= 1e-7
    assert verify(back, psi).trace_distance <= 1e-7
    # a core larger than the register is rejected before any amplitude is read
    with pytest.raises(ValueError, match="^line 3: expected 't <count>' at most n = 4$"):
        CompressedForm.loads(text.replace("\nt 1\n", "\nt " + "9" * 30 + "\n"))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 6),
    data=st.data(),
    det=st.sampled_from([1, -1]),
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["random", "compress_state"]),
)
def test_learned_state_round_trip_is_bit_exact(n, data, det, seed, source):
    rng = np.random.default_rng(seed)
    t = data.draw(st.integers(0, n))
    if source == "compress_state":  # t single-Majorana gates compress onto t qubits
        form = compress_state(random_doped_circuit(n, t, 1, rng))
    else:
        o_hat = ortho.random_orthogonal(2 * n, rng, haar=False)
        o_hat[:, 0] *= det
        form = CompressedForm(GaussianUnitary(o_hat, check=False), random_state(t, rng))
    text = form.dumps()
    back = CompressedForm.loads(text)
    assert back.core_qubits == t
    assert back.G.O.tobytes() == form.G.O.tobytes()
    assert back.phi.amps.tobytes() == form.phi.amps.tobytes()
    assert back.dumps() == text


def test_learned_state_loads_rejects_every_truncation():
    psi, _, _ = compressible_fixture(3, 2, seed=4)
    text = learn(psi, plan_budget(3, 2, 0.25, 1 / 3), mode="exact").dumps()
    for prefix, at_line_boundary in text_prefixes(text):
        try:
            CompressedForm.loads(prefix)
        except ValueError as exc:
            assert not at_line_boundary or str(exc).endswith("got end of document")
        else:
            assert not at_line_boundary  # a whole-line prefix always misses a line


def test_pauli_strings_are_letter_products_identity_first():
    assert list(pauli_strings(0)) == []
    for t in (1, 2, 3, 4):
        strings = list(pauli_strings(t))
        assert len(strings) == 4**t
        assert [letters for letters, _ in strings] == list(itertools.product("IXYZ", repeat=t))
        assert strings[0][1] == PauliString.identity(t)
        for letters, p in strings:
            product = PauliString.identity(t)
            for k, letter in enumerate(letters, start=1):
                product = product * PauliString.single(t, k, letter)
            assert p == product  # same n, masks and phase


def kron_loop_tomography(core: StateVector, shots: int, rng) -> StateVector:
    """Sampled tomography as one expectation and one Kronecker-product matrix per string."""
    t, dim = core.n, 2**core.n
    shots_per_pauli = shots // (4**t - 1)
    rho = np.eye(dim, dtype=complex) / dim
    for letters in itertools.product("IXYZ", repeat=t):
        if set(letters) == {"I"}:
            continue
        p = PauliString.identity(t)
        for k, letter in enumerate(letters, start=1):
            p = p * PauliString.single(t, k, letter)
        prob = np.clip((1.0 + expectation(core, p)) / 2.0, 0.0, 1.0)
        wins = rng.binomial(shots_per_pauli, prob)
        rho += (2.0 * wins / shots_per_pauli - 1.0) * kron_chain("".join(letters)) / dim
    _, vecs = np.linalg.eigh(rho)
    return StateVector(t, vecs[:, -1])


def test_tomography_matches_the_kron_loop_bit_for_bit():
    # one vectorised draw over the strings in the loop's order reads the loop's RNG stream
    for t in (1, 3, 5, 6):  # 5 is the benchmark's t, 6 is TOMOGRAPHY_LIMIT
        core = random_state(t, np.random.default_rng(30 + t))
        shots = (4**t - 1) * 500
        got_rng, want_rng = np.random.default_rng(31), np.random.default_rng(31)
        got = tomography_t_qubits(core, shots=shots, rng=got_rng)
        want = kron_loop_tomography(core, shots, want_rng)
        assert got.amps.tobytes() == want.amps.tobytes(), t
        # the generator ends where the loop's does, so a trial's later draws match too
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, t


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 6), kind=st.sampled_from(["random", "basis", "plus", "tplus"]),
       seed=st.integers(0, 2**32 - 1))
def test_pauli_expectations_match_states_expectation(t, kind, seed):
    rng = np.random.default_rng(seed)
    core = {
        "random": lambda: random_state(t, rng),
        "basis": lambda: basis_state(t, int(rng.integers(2**t))),
        "plus": lambda: StateVector(t, np.full(2**t, 2 ** (-t / 2))),
        "tplus": lambda: tplus_state(t),
    }[kind]()
    got = pauli_expectations(core)
    want = np.array([expectation(core, p) for _, p in pauli_strings(t)[1:]])
    if kind == "basis" or (kind == "plus" and t % 2 == 0):
        # amplitudes 0, 1 or an exact power of two: every product and sum is exact
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 6e-16


def test_pauli_strings_are_built_once_per_t():
    table = pauli_strings(3)
    assert isinstance(table, tuple) and pauli_strings(3) is table
    core = random_state(3, np.random.default_rng(5))
    tomography_t_qubits(core, shots=63 * 10, rng=np.random.default_rng(6))
    # tomography reads the same strings, so each one's action is computed once for all calls
    actions = [p.action() for _, p in table]
    tomography_t_qubits(core, shots=63 * 10, rng=np.random.default_rng(7))
    assert pauli_strings(3) is table
    assert all(p.action() is a for (_, p), a in zip(table, actions))
    too_many = TOMOGRAPHY_LIMIT + 1  # rejected before any table is built, so the cache is bounded
    limited = f"^tomography limited to {TOMOGRAPHY_LIMIT} qubits, got {too_many}$"
    with pytest.raises(ValueError, match=limited):
        pauli_strings(too_many)


def test_sampled_tomography_needs_an_rng(rng):
    with pytest.raises(ValueError, match="^sampled mode needs an rng$"):
        tomography_t_qubits(random_state(2, rng), shots=100)


def test_sampled_learning_needs_an_rng():
    psi, _, _ = compressible_fixture(4, 1, seed=3)
    with pytest.raises(ValueError, match="^sampled mode needs an rng$"):
        learn(psi, hoeffding_budget(4, 1, 0.25, 1 / 3))


def test_tomography_limit():
    with pytest.raises(ValueError):
        tomography_t_qubits(zero_state(7), shots=10**9, rng=np.random.default_rng(0))


def test_tomography_needs_copies(rng):
    with pytest.raises(ValueError):
        tomography_t_qubits(random_state(2, rng), shots=3, rng=rng)


def test_tomography_counts_past_the_draw_limit_are_rejected(rng):
    # t = 1 splits the copies over 3 strings; 2^63 - 1 per string is the largest binomial count
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    assert trace_distance(tomography_t_qubits(plus, shots=3 * (2**63 - 1), rng=rng), plus) <= 1e-6
    with pytest.raises(ValueError, match=r"^tomography, per Pauli string: 9223372036854775808 "
                                         r"copies reach the binomial draw limit 2\^63"):
        tomography_t_qubits(plus, shots=3 * 2**63, rng=rng)


def test_boosting_counts_past_the_draw_limit_are_rejected():
    psi, _, _ = compressible_fixture(3, 1, seed=6)
    budget = hoeffding_budget(3, 1, 0.25, 1 / 3)
    with pytest.raises(ValueError, match=r"^boosting, N_loop: 9223372036854775808 copies reach"):
        learn(psi, replace(budget, N_loop=2**63), rng=np.random.default_rng(1))
    learned = learn(psi, replace(budget, N_loop=2**63 - 1), rng=np.random.default_rng(1))
    assert verify(learned, psi).trace_distance <= 0.25


def test_tomography_single_qubit_monte_carlo(rng):
    # |+> with 1e4 shots per Pauli: d <= 0.05 in at least 95% of 100 runs
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    hits = 0
    for _ in range(100):
        est = tomography_t_qubits(plus, shots=3 * 10_000, rng=rng)
        hits += trace_distance(est, plus) <= 0.05
    assert hits >= 95


def test_tomography_two_qubit_monte_carlo(rng):
    core = random_state(2, rng)
    hits = 0
    for _ in range(50):
        est = tomography_t_qubits(core, shots=15 * 100_000, rng=rng)
        hits += trace_distance(est, core) <= 0.05
    assert hits >= 47


def test_sampled_learning_contract(rng):
    # n = 4, t = 1 compressed fixtures at eps = 1/4, delta = 1/3 with the
    # Hoeffding-sized budget: per-trial failures should be rare
    wins = 0
    trials = 30
    for i in range(trials):
        r = np.random.default_rng(1000 + i)
        psi, _, _ = compressible_fixture(4, 1, seed=2000 + i)
        budget = hoeffding_budget(4, 1, 0.25, 1 / 3)
        learned = learn(psi, budget, mode="sampled", rng=r)
        wins += verify(learned, psi).trace_distance <= 0.25
    assert wins / trials >= 2 / 3


def test_pure_tomography_flagged_path(rng):
    # t = n: no post-selection register; exact mode returns the state itself
    psi = random_state(3, rng)
    budget = plan_budget(3, 3, 0.5, 1 / 3)
    learned = learn(psi, budget, mode="exact")
    assert verify(learned, psi).trace_distance <= 1e-7


def test_boosting_failure_reported():
    # heavily doped fixture learned at too small a t: the post-selection
    # probability is bounded away from 1, so demanding every iteration to
    # succeed must fail
    psi = prepare(random_doped_circuit(4, 2, 4, np.random.default_rng(8)))
    budget = replace(plan_budget(4, 1, 0.9, 1 / 3), N_corr=2000, N_tom=300, N_loop=300)
    with pytest.raises(BoostingFailureError):
        learn(psi, budget, mode="sampled", rng=np.random.default_rng(5))


@pytest.mark.parametrize("mode, error, message", [
    ("exact", ZeroProbabilityError, r"^all-zero tail outcome has probability"),
    # sampled, the empty tail is an under-budget estimate: 0 successes, a boosting failure
    ("sampled", BoostingFailureError, r"^0 post-selection successes < N_tom = \d+ \(success probability 0\.0+\)$"),
], ids=["exact", "sampled"])
def test_an_empty_zero_tail_raises_zero_probability(mode, error, message, monkeypatch):
    # the correlation stage reads the vacuum's matrix, so G_hat maps the vacuum to itself and
    # keeps parity; the learned state is odd, so its zero tail is empty
    n = 3
    vacuum = correlation_exact(zero_state(n))
    if mode == "exact":
        monkeypatch.setattr(metrology, "correlation_exact", lambda psi: vacuum)
    else:
        monkeypatch.setattr(learner, "correlation_sampled", lambda psi, shots, rng: vacuum)
    budget = hoeffding_budget(n, 0, 0.25, 1 / 3)
    with pytest.raises(error, match=message):
        learn(basis_state(n, 1), budget, mode=mode, rng=np.random.default_rng(1))


def test_union_bound_inequality_with_injected_perturbations(rng):
    # d_tr(phi (x) 0, G_hat^dag psi) <= sqrt((n - t) ||E||_inf) and the
    # post-selection probability is at least 1 - (n - t) ||E||_inf
    cases = 0
    for magnitude in (1e-4, 1e-3, 1e-2):
        for i in range(12):
            n, t = (4, 1) if i % 2 == 0 else (5, 2)
            psi, _, _ = compressible_fixture(n, t, seed=300 + cases)
            c = correlation_exact(psi)
            e = ortho.random_antisymmetric(2 * n, rng)
            e *= magnitude / ortho.opnorm(e)
            g_hat = GaussianUnitary(ortho.normal_form(c + e).O)
            rotated = g_hat.adjoint().apply(psi)
            prob, core = postselect_zero_tail(rotated, t)
            d = trace_distance(embed_with_zero_tail(core, n), rotated)
            assert d <= math.sqrt((n - t) * magnitude) + 1e-12
            assert prob >= 1.0 - (n - t) * magnitude
            cases += 1
    assert cases == 36


def test_postselect_probability_bound_statistical(rng):
    # empirical post-selection frequency also respects the union bound
    n, t, magnitude = 4, 1, 1e-2
    psi, _, _ = compressible_fixture(n, t, seed=77)
    c = correlation_exact(psi)
    e = ortho.random_antisymmetric(2 * n, rng)
    e *= magnitude / ortho.opnorm(e)
    g_hat = GaussianUnitary(ortho.normal_form(c + e).O)
    rotated = g_hat.adjoint().apply(psi)
    p_exact = born_probability(rotated, range(t + 1, n + 1), [0] * (n - t))
    shots = 20_000
    hits = rng.binomial(shots, p_exact)
    sigma = math.sqrt(shots * p_exact * (1 - p_exact)) + 1e-9
    floor = 1.0 - (n - t) * magnitude
    assert hits >= shots * floor - 4 * sigma


def test_verify_triangle_terms(rng):
    psi, _, _ = compressible_fixture(5, 2, seed=9)
    budget = hoeffding_budget(5, 2, 0.3, 1 / 3)
    learned = learn(psi, budget, mode="sampled", rng=rng)
    report = verify(learned, psi)
    assert report.trace_distance <= report.term_tomography + report.term_projection + 1e-10
    assert 0.0 <= report.postselect_rate <= 1.0
    assert report.fidelity == pytest.approx(1.0 - report.trace_distance**2, abs=1e-9)
