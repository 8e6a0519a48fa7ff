"""Constructively squeezing all non-Gaussianity onto the leading qubits.

For a state prepared with t gates of Majorana locality kappa, one explicit
Gaussian rotation G empties the last n - kappa*t qubits:

    G^dag |psi> = |phi> (x) |0 ... 0>.

The same machinery factors the circuit unitary as G_A (u (x) I) G_B with u
on only ceil(kappa*t / 2) qubits.  Both constructions are exact, not
statistical: the tail weights below are floating-point zeros.
"""

import numpy as np

from fermidope import (
    compress_state,
    compress_unitary,
    fidelity,
    prepare,
    random_doped_circuit,
)
from fermidope.states import apply_dense_unitary, postselect_zero_tail, random_state

rng = np.random.default_rng(7)

print("--- state compression ---")
for n, kappa, t in [(6, 3, 1), (6, 3, 2), (8, 4, 2)]:
    circuit = random_doped_circuit(n, t, kappa, rng)
    psi = prepare(circuit)
    form = compress_state(circuit)
    prob, _ = postselect_zero_tail(form.G.adjoint().apply(psi), form.core_qubits)
    tail_weight = 1.0 - prob
    print(f"n={n} kappa={kappa} t={t}: core = {form.core_qubits} qubits, "
          f"tail weight {tail_weight:.2e}, "
          f"reassembly fidelity {fidelity(form.reassemble(), psi):.12f}")

print("\n--- unitary compression ---")
n, kappa, t = 6, 4, 1
circuit = random_doped_circuit(n, t, kappa, rng)
g_a, u_core, g_b = compress_unitary(circuit)
m_q = int(np.log2(u_core.shape[0]))
print(f"n={n} kappa={kappa} t={t}: non-Gaussian core acts on {m_q} qubits "
      f"(state version would use {kappa * t})")
worst = 1.0
for _ in range(10):
    psi = random_state(n, rng)
    lhs = circuit.apply(psi)
    rhs = g_a.apply(apply_dense_unitary(g_b.apply(psi), range(1, m_q + 1), u_core))
    worst = min(worst, fidelity(lhs, rhs))
print(f"action match over 10 random states: worst fidelity deficit {1 - worst:.2e}")

print("\nThe compressing rotation is symplectic in the state version (it must")
print("fix the vacuum), which is exactly why the core doubles: kappa*t planes")
print("instead of kappa*t real directions.")
