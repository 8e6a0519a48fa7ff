"""Correlation estimators, distance sandwich, and the dimension tester."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fermidope import metrology, ortho
from fermidope.doped import prepare, random_doped_circuit
from fermidope.gaussian import Block, GaussianUnitary
from fermidope.learner import hoeffding_budget, verify
from fermidope.metrology import (
    commuting_groups,
    correlation_exact,
    correlation_sampled,
    distance_bounds,
    gaussian_dimension,
    nearest_compressible,
)
from fermidope.pauli import majorana
from fermidope.states import (
    StateVector,
    apply_pauli,
    basis_state,
    product,
    random_state,
    trace_distance,
    zero_state,
)

from conftest import compressible_fixture, tplus_state


def test_correlation_of_vacuum_is_omega():
    for n in (1, 2, 3):
        assert_allclose(correlation_exact(zero_state(n)), ortho.omega(n), atol=1e-12)


def _correlation_loop(psi):
    """Oracle: C[j, k] = -i <gamma_j psi, gamma_k psi>, one vdot per pair j < k."""
    n = psi.n
    rotated = [apply_pauli(psi, majorana(mu, n)).amps for mu in range(1, 2 * n + 1)]
    c = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        for k in range(j + 1, 2 * n):
            value = -1j * np.vdot(rotated[j], rotated[k])
            assert abs(value.imag) <= 1e-10
            c[j, k], c[k, j] = value.real, -value.real
    return c


def test_correlation_gram_product_matches_the_pair_loop(rng):
    for n in (1, 2, 5, 8, 10):
        for psi in (random_state(n, rng), prepare(random_doped_circuit(n, 1, min(4, 2 * n), rng))):
            c = correlation_exact(psi)
            assert np.abs(c - _correlation_loop(psi)).max() <= 1e-15
            assert np.array_equal(c, -c.T)
    assert correlation_exact(StateVector(0, np.ones(1))).shape == (0, 0)


def test_correlation_with_a_corrupted_majorana_is_not_real(monkeypatch):
    # gamma_3 psi times i makes every entry in its row and column imaginary
    rows = metrology._majorana_rows

    def corrupted(psi):
        re, im = out = rows(psi)
        re[2], im[2] = -im[2], re[2].copy()
        return out

    monkeypatch.setattr(metrology, "_majorana_rows", corrupted)
    psi = random_state(3, np.random.default_rng(4))
    with pytest.raises(AssertionError, match="correlation entry not real"):
        correlation_exact(psi)


def test_majorana_rows_are_the_pauli_action():
    rng = np.random.default_rng(8)
    for n in range(7):
        psi = random_state(n, rng) if n else StateVector(0, np.ones(1))
        re, im = metrology._majorana_rows(psi)
        assert re.shape == im.shape == (2 * n, 2**n)
        for mu in range(1, 2 * n + 1):
            expected = apply_pauli(psi, majorana(mu, n)).amps
            assert np.abs(re[mu - 1] + 1j * im[mu - 1] - expected).max() <= 1e-15, (n, mu)


def test_correlation_of_basis_state_flips_blocks():
    # |x> with x_1 = 1 flips the first block sign, second unchanged
    c = correlation_exact(basis_state(2, 0b10))
    expected = np.kron(np.diag([-1.0, 1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert_allclose(c, expected, atol=1e-12)


def test_correlation_transport_of_gaussian(rng):
    o = ortho.random_orthogonal(8, rng)
    psi = GaussianUnitary(o).apply(zero_state(4))
    assert ortho.opnorm(correlation_exact(psi) - o @ ortho.omega(4) @ o.T) <= 1e-9


def test_exact_scheme_identical_to_exact(rng):
    # the tester's exact mode reads lambda_{t+1} off the exact correlation matrix
    psi = prepare(random_doped_circuit(3, 1, 3, rng))
    res = metrology.test_gaussian_dimension(psi, 1, 0.0, 0.5, 1 / 3, mode="exact")
    assert res.lambda_t1 == ortho.normal_eigenvalues(correlation_exact(psi))[1]
    assert res.copies == 0


def test_unknown_scheme_rejected(rng):
    with pytest.raises(ValueError, match="^unknown mode 'shadow'"):
        metrology.test_gaussian_dimension(zero_state(2), 0, 0.0, 0.4, 1 / 3, rng=rng,
                                          mode="shadow")


def test_sampled_schemes_need_an_rng():
    with pytest.raises(ValueError, match="^sampled mode needs an rng$"):
        correlation_sampled(zero_state(2), 10, None)


def test_correlation_sampled_rejects_copies_below_one(rng):
    for bad in (0, -4):
        with pytest.raises(ValueError, match="^copies must be >= 1"):
            correlation_sampled(zero_state(2), bad, rng)


def per_pair_grouped_readout(psi, shots, rng):
    """Grouped correlation sampling with the per-pair readout loop it had before.

    Test oracle only: one float shift/mask/multiply/sum pass per pair, and
    each group's basis change a fresh compile that shares no program cell.
    """
    n = psi.n
    c_hat = np.zeros((2 * n, 2 * n))
    for pairs in commuting_groups(n):
        rotated = GaussianUnitary(metrology._group_permutation(pairs, n)).apply(psi)
        probs = np.abs(rotated.amps) ** 2
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        outcomes = np.arange(2**n)
        for i, (a, b) in enumerate(pairs):
            bit = (outcomes >> (n - 1 - i)) & 1
            c_hat[a - 1, b - 1] = np.sum(counts * (1.0 - 2.0 * bit)) / shots
    return c_hat - c_hat.T


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_grouped_readout_matches_per_pair_loop(n):
    psi = prepare(random_doped_circuit(n, 1, min(n, 3), np.random.default_rng(n)))
    for shots in (1, 7, 1000, 123_457):
        new_rng, old_rng = np.random.default_rng(900 + n), np.random.default_rng(900 + n)
        est = correlation_sampled(psi, shots * (2 * n - 1), new_rng)
        expected = per_pair_grouped_readout(psi, shots, old_rng)
        assert est.tobytes() == expected.tobytes()
        assert new_rng.random() == old_rng.random()  # same draws consumed


@pytest.mark.parametrize("n", [2, 3, 5])
def test_copy_split_rounds_up_per_group(n):
    # correlation_sampled alone splits a copy count: max(1, ceil(copies / (2n - 1))) per group
    psi = prepare(random_doped_circuit(n, 1, min(n, 3), np.random.default_rng(40 + n)))
    for copies in (1, 2 * n - 2, 2 * n - 1, 2 * n + 1):
        new_rng, old_rng = np.random.default_rng(950 + n), np.random.default_rng(950 + n)
        est = correlation_sampled(psi, copies, new_rng)
        shots = max(1, math.ceil(copies / (2 * n - 1)))
        assert est.tobytes() == per_pair_grouped_readout(psi, shots, old_rng).tobytes(), copies
        assert new_rng.random() == old_rng.random()
        assert metrology.group_shots(copies, n) == shots


def test_group_programs_compile_once_per_n(givens_calls):
    # the first call at an n decomposes the walk's two programs, G(O'_0) and the step G(V);
    # later calls at that n, interleaved with other n, decompose nothing
    metrology._grouped_sampling.cache_clear()
    rng = np.random.default_rng(3)
    for n, expected in ((3, 2), (3, 0), (4, 2), (3, 0), (4, 0)):
        givens_calls.clear()
        correlation_sampled(random_state(n, rng), 100, rng)
        assert len(givens_calls) == expected, n


def _assert_same_ops(shared, fresh):
    assert shared.planes.tobytes() == fresh.planes.tobytes() and shared.angles.tobytes() == fresh.angles.tobytes()
    assert shared.reflect_first == fresh.reflect_first
    assert len(shared.ops) == len(fresh.ops)
    for op, expected in zip(shared.ops, fresh.ops):
        if isinstance(expected, Block):
            assert isinstance(op, Block) and op.lo == expected.lo
            assert op.u.tobytes() == expected.u.tobytes()
        else:
            assert op == expected  # an unfused wide plane (mu, nu, theta)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_shared_group_programs_equal_a_fresh_compile(n):
    correlation_sampled(random_state(n, np.random.default_rng(n)), 10, np.random.default_rng(0))
    groups, bits = metrology._grouped_sampling(n)
    assert len(groups) == 2 * n - 1
    # two cells: group 0's first step O'_0, and the step V every later group shares
    steps = {id(cell): (o, cell) for o, cell, *_ in groups}
    assert len(steps) == min(2, 2 * n - 1)
    assert all(groups[k][1] is groups[1][1] for k in range(1, 2 * n - 1))
    for o, cell in steps.values():
        assert cell[0] is not None  # filled by the call above
        shared = GaussianUnitary.sharing(o, cell)
        fresh = GaussianUnitary(o.copy())
        assert shared.program is cell[0] is shared.adjoint().program
        _assert_same_ops(shared.program, fresh.program)
        assert not shared.program.reflect_first  # both steps have det +1
        for op in shared.program.ops:
            if isinstance(op, Block):
                assert not op.u.flags.writeable
    for o, cell, index, rows, cols in groups:
        for array in (o, index, rows, cols):
            assert not array.flags.writeable
    assert not bits.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_group_gather_is_the_bit_permutation_of_its_walk_pairs(n):
    # outcome by outcome: canonical qubit i (sorted pair i) is the walk qubit j holding that
    # pair, its bit flipped when the walk holds the pair as (b, a) with b > a
    groups, bits = metrology._grouped_sampling(n)
    for (_, _, index, _, _), pairs in zip(groups, metrology._walk_pairs(n)):
        walk_qubit = {tuple(sorted(pair)): j for j, pair in enumerate(pairs)}
        for x in range(2**n):
            expected = 0
            for i, pair in enumerate(sorted(tuple(sorted(pair)) for pair in pairs)):
                j = walk_qubit[pair]
                bit = (x >> (n - 1 - i)) & 1
                expected |= (bit ^ (pairs[j][0] > pairs[j][1])) << (n - 1 - j)
            assert index[x] == expected, (n, pairs, x)
            assert bits[x].tolist() == [(x >> (n - 1 - i)) & 1 for i in range(n)]


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_walk_probabilities_equal_a_fresh_basis_change_per_group(n, seed):
    # V is a det +1 permutation of order 2n - 1, and the walk's gathered outcome probabilities
    # are those of each group's own basis change
    groups, _ = metrology._grouped_sampling(n)
    step = groups[-1][0]  # V, or for n = 1 the identity O'_0 of the only group
    assert np.array_equal(step @ step.T, np.eye(2 * n)) and round(np.linalg.det(step)) == 1
    assert np.array_equal(np.linalg.matrix_power(step, 2 * n - 1), np.eye(2 * n))
    state = psi = random_state(n, np.random.default_rng(seed))
    for (o, cell, index, rows, cols), pairs in zip(groups, commuting_groups(n)):
        state = GaussianUnitary(o).apply(state)
        fresh = GaussianUnitary(metrology._group_permutation(pairs, n)).apply(psi)
        assert np.abs(np.abs(state.amps[index]) ** 2 - np.abs(fresh.amps) ** 2).max() <= 1e-14
        assert np.array_equal(np.stack((rows, cols), axis=1) + 1, pairs)


@settings(max_examples=25, deadline=None)
@given(draws=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 10**6), st.integers(0, 2**32 - 1)),
                      min_size=2, max_size=6))
def test_cached_groups_sample_like_fresh_compiles_across_n(draws):
    # n drawn in interleaved order from an empty cache: a group cell keyed or filled under
    # the wrong n would change the bytes or the draws against the fresh-compile oracle
    metrology._grouped_sampling.cache_clear()
    for n, copies, seed in draws:
        psi = random_state(n, np.random.default_rng(seed))
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        est = correlation_sampled(psi, copies, new_rng)
        assert np.array_equal(est, -est.T)
        assert np.abs(est).max() <= 1.0
        expected = per_pair_grouped_readout(psi, metrology.group_shots(copies, n), old_rng)
        assert est.tobytes() == expected.tobytes()
        assert new_rng.random() == old_rng.random()


def test_shots_per_group_past_the_readout_limit_are_rejected():
    # n = 1 has one group, so copies are its shots; 2^53 still reads exactly
    rng = np.random.default_rng(0)
    assert correlation_sampled(zero_state(1), 2**53, rng)[0, 1] == 1.0
    with pytest.raises(ValueError, match=r"^correlation sampling: 9007199254740993 shots per "
                                         r"group exceed the exact-readout limit 2\^53"):
        correlation_sampled(zero_state(1), 2**53 + 1, rng)
    with pytest.raises(ValueError, match="exact-readout limit"):
        correlation_sampled(zero_state(3), 10**20, rng)


class FixedCounts:
    """An rng whose multinomial returns the same counts for every group."""

    def __init__(self, counts):
        self.counts = counts

    def multinomial(self, shots, probs):
        assert shots == self.counts.sum() and len(probs) == len(self.counts)
        return self.counts.copy()


def test_float_readout_matches_the_int64_product(rng):
    # counts near 2^32 (shots near 2^35), far past small integers, are read exactly in float64
    n = 3
    psi = prepare(random_doped_circuit(n, 1, 3, rng))
    counts = rng.integers(2**32 - 1000, 2**32 + 1000, size=2**n)
    shots = int(counts.sum())
    est = correlation_sampled(psi, shots * (2 * n - 1), FixedCounts(counts))
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    means = (shots - 2 * (counts @ bits)) / shots  # int64 product
    expected = np.zeros((2 * n, 2 * n))
    for pairs in commuting_groups(n):
        rows, cols = (np.array(pairs) - 1).T
        expected[rows, cols] = means
    assert est.tobytes() == (expected - expected.T).tobytes()


def test_commuting_groups_partition():
    for n in (2, 3, 4, 5):
        groups = commuting_groups(n)
        assert len(groups) == 2 * n - 1
        all_pairs = set()
        for pairs in groups:
            assert len(pairs) == n
            flat = [i for pair in pairs for i in pair]
            assert sorted(flat) == list(range(1, 2 * n + 1))  # disjoint cover
            all_pairs.update(pairs)
        assert len(all_pairs) == n * (2 * n - 1)  # every observable exactly once


def test_grouped_observables_commute():
    from fermidope.gaussian import rotation_generator

    n = 3
    for pairs in commuting_groups(n):
        gens = [rotation_generator(a, b, n) for a, b in pairs]
        for i, p in enumerate(gens):
            for q in gens[i + 1 :]:
                assert p * q == q * p


def test_sampled_estimates_concentrate(rng):
    # 1e5 shots per group on |0^2>: operator-norm error well inside 0.05, every trial
    for _ in range(25):
        est = correlation_sampled(zero_state(2), 3 * 100_000, rng)
        err = ortho.opnorm(est - ortho.omega(2))
        assert err <= 0.05, err


def test_estimator_unbiased(rng):
    # means over repeated estimates match exact entries within 4 sigma
    psi = prepare(random_doped_circuit(2, 1, 3, rng))
    exact = correlation_exact(psi)
    shots, reps = 400, 300
    acc = np.zeros_like(exact)
    for _ in range(reps):
        acc += correlation_sampled(psi, 3 * shots, rng)
    mean = acc / reps
    sigma = 1.0 / np.sqrt(shots * reps)  # bound on the sd of each averaged entry
    assert np.max(np.abs(mean - exact)) <= 4 * sigma + 1e-9


def test_hoeffding_budget_reaches_entry_accuracy(rng):
    # N_corr copies put every entry within eps_c / (2n) except w.p. delta/3 (Hoeffding
    # and a union bound over the n(2n-1) entries), so the operator-norm error, at most
    # 2n times the largest entry error, stays below eps_c
    eps, delta = 0.5, 1 / 3
    for n in (2, 3):
        budget = hoeffding_budget(n, 1, eps, delta)
        psi = prepare(random_doped_circuit(n, 1, 3, rng))
        exact = correlation_exact(psi)
        trials, hits = 150, 0
        for _ in range(trials):
            est = correlation_sampled(psi, budget.N_corr, rng)
            hits += np.max(np.abs(est - exact)) < budget.eps_c / (2 * n)
        assert hits >= (1 - delta / 3) * trials, n


def test_entries_stay_in_range(rng):
    est = correlation_sampled(zero_state(3), 5 * 3, rng)
    assert np.max(np.abs(est)) <= 1.0 + 1e-12
    assert_allclose(est, -est.T)


def test_gaussian_dimension_fixtures(rng):
    o = ortho.random_orthogonal(8, rng)
    psi = GaussianUnitary(o).apply(zero_state(4))
    assert gaussian_dimension(correlation_exact(psi), 1e-8) == 4
    assert gaussian_dimension(correlation_exact(tplus_state(1))) == 0
    c = random_doped_circuit(6, 1, 4, rng)
    assert gaussian_dimension(correlation_exact(prepare(c)), 1e-8) >= 6 - 4


def test_distance_bounds_fixtures():
    bounds = distance_bounds(np.ones(4), 0)
    assert bounds.lower == pytest.approx(0.0) and bounds.upper == pytest.approx(0.0)
    # T|+>: lambda = 0, so lower = 1/2 and upper = sqrt(1/2) at t = 0
    lam = ortho.normal_eigenvalues(correlation_exact(tplus_state(1)))
    bounds = distance_bounds(lam, 0)
    assert bounds.lower == pytest.approx(0.5, abs=1e-12)
    assert bounds.upper == pytest.approx(np.sqrt(0.5), abs=1e-12)
    with pytest.raises(ValueError):
        distance_bounds(np.ones(4), 4)


def test_distance_bounds_vanish_at_doping_level(rng):
    # evaluating a doped state at t' = kappa*t gives lower = 0
    c = random_doped_circuit(6, 1, 3, rng)
    lam = ortho.normal_eigenvalues(correlation_exact(prepare(c)))
    bounds = distance_bounds(lam, 3)
    assert bounds.lower == pytest.approx(0.0, abs=1e-8)


def test_nearest_compressible_gaussian_is_exact(rng):
    psi = GaussianUnitary(ortho.random_orthogonal(8, rng)).apply(zero_state(4))
    witness, d = nearest_compressible(psi, 0)
    assert d <= 1e-7
    assert trace_distance(witness.reassemble(), psi) <= 1e-7


def test_nearest_compressible_on_compressed_fixture():
    psi, _, _ = compressible_fixture(5, 2, seed=21)
    _, d = nearest_compressible(psi, 2)
    assert d <= 1e-7


def test_nearest_compressible_tplus_within_upper_bound():
    # T|+> (x) |0>: the t = 1 witness distance obeys sqrt((1 - lambda_2)/2)
    psi = product(tplus_state(1), zero_state(1))
    lam = ortho.normal_eigenvalues(correlation_exact(psi))
    witness, d = nearest_compressible(psi, 1)
    assert d <= np.sqrt(max(0.0, 1.0 - lam[1]) / 2.0) + 1e-9
    assert witness.core_qubits == 1
    assert trace_distance(witness.reassemble(), psi) == pytest.approx(d, abs=1e-12)


def test_nearest_compressible_sandwich(rng):
    for _ in range(12):
        n = int(rng.choice([4, 5]))
        c = random_doped_circuit(n, 1, 4, rng)
        psi = prepare(c)
        lam = ortho.normal_eigenvalues(correlation_exact(psi))
        for t in range(n):
            bounds = distance_bounds(lam, t)
            _, d = nearest_compressible(psi, t)
            assert bounds.lower - 1e-9 <= d <= bounds.upper + 1e-9


def test_nearest_compressible_distance_is_the_verified_projection_term(rng):
    # verify rotates by the witness's G and projects as nearest_compressible does, bit for bit
    psi = prepare(random_doped_circuit(5, 1, 4, rng))
    for t in range(5):
        witness, d = nearest_compressible(psi, t)
        assert d == verify(witness, psi).term_projection


def test_nearest_compressible_t_equals_n_is_trivial(rng):
    psi = prepare(random_doped_circuit(3, 1, 3, rng))
    witness, d = nearest_compressible(psi, 3)
    assert d == 0.0 and witness.phi is psi
    assert np.array_equal(witness.G.O, np.eye(6))
    with pytest.raises(ValueError):
        nearest_compressible(psi, 4)


def test_tester_close_on_gaussian_exact(rng):
    psi = GaussianUnitary(ortho.random_orthogonal(8, rng)).apply(zero_state(4))
    res = metrology.test_gaussian_dimension(psi, 0, 0.0, 0.4, 1 / 3, mode="exact")
    assert res.verdict == "close"


def test_tester_far_on_magic_product_exact():
    psi = tplus_state(4)
    lam = ortho.normal_eigenvalues(correlation_exact(psi))
    assert lam[0] == pytest.approx(0.0, abs=1e-10)  # lower bound 1/2 > eps_b
    res = metrology.test_gaussian_dimension(psi, 0, 0.0, 0.4, 1 / 3, mode="exact")
    assert res.verdict == "far"


def test_tester_boundary_is_close():
    # an estimate sitting exactly at 1 - eps_test counts as close
    assert metrology.dimension_verdict(1.0 - 0.04, 0.04) == "close"
    assert metrology.dimension_verdict(np.nextafter(1.0 - 0.04, 0.0), 0.04) == "far"
    # and a state estimated epsilon above the threshold is also close
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    res = metrology.test_gaussian_dimension(plus, 0, 0.0, 1.0, 0.5, mode="exact")
    assert res.eps_test == 1.0 and res.verdict == "close"


def test_tester_close_on_gaussian_with_shot_override(rng):
    psi = GaussianUnitary(ortho.random_orthogonal(6, rng)).apply(zero_state(3))
    res = metrology.test_gaussian_dimension(psi, 0, 0.0, 0.5, 0.5, rng=rng,
                                            shot_override=20_000)
    assert res.verdict == "close"
    assert res.copies == 20_000


def test_tester_rejects_shot_override_below_one(rng):
    for bad in (0, -3):
        with pytest.raises(ValueError, match="^shot_override must be >= 1"):
            metrology.test_gaussian_dimension(zero_state(4), 0, 0.0, 0.4, 1 / 3, rng=rng,
                                              shot_override=bad)


def test_tester_precondition(rng):
    with pytest.raises(ValueError):
        metrology.test_gaussian_dimension(zero_state(3), 0, 0.1, 0.2, 0.5, rng=rng)


def test_tester_default_copy_formula(rng):
    import math

    psi = GaussianUnitary(ortho.random_orthogonal(8, rng)).apply(zero_state(4))
    res = metrology.test_gaussian_dimension(psi, 0, 0.0, 0.4, 1 / 3, rng=rng)
    eps_corr = 0.4**2 / 4
    budget = math.ceil(16 * 4**3 / eps_corr**2 * math.log(4 * 16 / (1 / 3)))
    assert res.copies == math.ceil(budget / 7) * 7  # what the 7 groups draw
    assert res.verdict == "close"


def test_tester_error_rate_sampled(rng):
    # promise-respecting fixtures at n = 4: empirical error rate <= delta
    delta = 1 / 3
    errs = 0
    trials = 40
    for i in range(trials):
        if i % 2 == 0:
            psi = GaussianUnitary(ortho.random_orthogonal(8, rng)).apply(zero_state(4))
            expected = "close"
        else:
            psi = tplus_state(4)
            expected = "far"
        res = metrology.test_gaussian_dimension(psi, 0, 0.0, 0.4, delta, rng=rng,
                                                shot_override=100_000)
        errs += res.verdict != expected
    assert errs / trials <= delta
