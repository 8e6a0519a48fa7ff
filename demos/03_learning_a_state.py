"""Learning a compressible state from single-copy measurement budgets.

The learner estimates the correlation matrix, rotates by the normal-form
Gaussian, post-selects the trailing qubits on zero, and runs plain Pauli
tomography on the surviving core.  Exact mode replaces every estimate with
the exact quantity (a correctness oracle); sampled mode spends real copy
budgets drawn from the exact outcome distributions.
"""

import numpy as np

from fermidope import (
    GaussianUnitary,
    hoeffding_budget,
    learn,
    plan_budget,
    prepare,
    random_doped_circuit,
    random_orthogonal,
    verify,
)
from fermidope.states import embed_with_zero_tail, random_state

rng = np.random.default_rng(3)

print("--- copy budgets for eps = 0.25, delta = 1/3 ---")
for n, t in [(4, 1), (6, 2), (8, 2)]:
    default = plan_budget(n, t, 0.25, 1 / 3)
    desk = hoeffding_budget(n, t, 0.25, 1 / 3)
    print(f"n={n} t={t}: correlation {default.N_corr:.3e} (default) / {desk.N_corr:.3e} "
          f"(Hoeffding), loop {default.N_loop}, tomography {default.N_tom}")

print("\n--- exact mode on a doped circuit (n=6, kappa=3, t=2 -> core 6) ---")
circuit = random_doped_circuit(6, 2, 3, rng)
psi = prepare(circuit)
learned = learn(psi, plan_budget(6, 6, 0.25, 1 / 3), mode="exact")
print(f"trace distance: {verify(learned, psi).trace_distance:.2e}")

print("\n--- sampled mode on 1-compressible fixtures (n=4) ---")
wins = 0
trials = 20
for i in range(trials):
    r = np.random.default_rng(100 + i)
    g = GaussianUnitary(random_orthogonal(8, r))
    target = g.apply(embed_with_zero_tail(random_state(1, r), 4))
    budget = hoeffding_budget(4, 1, 0.25, 1 / 3)
    got = learn(target, budget, mode="sampled", rng=r)
    report = verify(got, target)
    wins += report.trace_distance <= 0.25
    if i < 3:
        print(f"trial {i}: d_tr = {report.trace_distance:.4f}  "
              f"(tomography {report.term_tomography:.4f} + "
              f"projection {report.term_projection:.4f}), "
              f"post-selection rate {report.postselect_rate:.4f}")
print(f"... success rate {wins}/{trials} at eps = 0.25 (guarantee: >= 2/3)")
