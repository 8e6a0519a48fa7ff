"""Close-or-far testing of the Gaussian dimension without full learning.

The (t+1)-th smallest normal eigenvalue sandwiches the trace distance to
the set of t-compressible states:

    (1 - lambda_{t+1}) / 2  <=  min distance  <=  sqrt(sum_{k>t} (1 - lambda_k) / 2),

so estimating that one eigenvalue decides the promise problem.  The copy
count is independent of t.
"""

import numpy as np

from fermidope import (
    GaussianUnitary,
    correlation_exact,
    distance_bounds,
    nearest_compressible,
    normal_eigenvalues,
    prepare,
    random_doped_circuit,
    random_orthogonal,
)
from fermidope.metrology import test_gaussian_dimension
from fermidope.states import product, zero_state, StateVector

rng = np.random.default_rng(5)

print("--- the sandwich on a doped state (n=5, kappa=4, t=1) ---")
psi = prepare(random_doped_circuit(5, 1, 4, rng))
lams = normal_eigenvalues(correlation_exact(psi))
print(f"normal eigenvalues: {np.round(lams, 4)}")
for t in range(3):
    bounds = distance_bounds(lams, t)
    _, distance = nearest_compressible(psi, t)
    print(f"t = {t}: {bounds.lower:.4f} <= d_tr(witness) = {distance:.4f} <= {bounds.upper:.4f}")

print("\n--- promise tester at n = 4, eps_B = 0.4 ---")
tplus = StateVector(1, np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
magic = tplus
for _ in range(3):
    magic = product(magic, tplus)
gaussian = GaussianUnitary(random_orthogonal(8, rng)).apply(zero_state(4))

for label, state in [("Gaussian state", gaussian), ("(T|+>)^4 magic product", magic)]:
    res = test_gaussian_dimension(state, 0, 0.0, 0.4, 1 / 3, rng=rng, shot_override=200_000)
    print(f"{label:24s}: verdict {res.verdict:5s}  "
          f"(lambda_1 estimate {res.lambda_t1:+.4f}, {res.copies} copies)")

print("\nDefault copy counts follow 16 n^3 / eps_corr^2 * log(4 n^2 / delta);")
res = test_gaussian_dimension(gaussian, 0, 0.0, 0.4, 1 / 3, rng=rng)
print(f"here that is {res.copies:.3e} copies, still exact-distribution sampling.")
