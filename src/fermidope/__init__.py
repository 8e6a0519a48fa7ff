"""Toolkit for fermionic Gaussian states doped with a few non-Gaussian gates.

Prepare doped circuits on a dense statevector, compress their
non-Gaussianity onto a few qubits with an explicit Gaussian rotation,
learn compressible states from single-copy measurement budgets, and test
the Gaussian dimension of a state.
"""

__version__ = "0.1.0"

from .doped import (
    CompressedForm,
    CompressionError,
    DopedCircuit,
    NonGaussianGate,
    compress_state,
    compress_unitary,
    prepare,
    random_doped_circuit,
    report_gate_counts,
)
from .gaussian import GaussianUnitary, identity_gaussian
from .harness import ExperimentConfig, ResultDocument, run, sweep
from .learner import (
    BoostingFailureError,
    LearnBudget,
    boosting_iterations,
    hoeffding_budget,
    learn,
    plan_budget,
    tomography_t_qubits,
    verify,
)
from .metrology import (
    DimensionTestResult,
    DistanceBounds,
    commuting_groups,
    correlation_exact,
    correlation_sampled,
    distance_bounds,
    gaussian_dimension,
    nearest_compressible,
    test_gaussian_dimension,
)
from .ortho import (
    NormalForm,
    compression_rotation,
    is_symplectic,
    normal_eigenvalues,
    normal_form,
    omega,
    random_orthogonal,
    random_unitary,
    symplectic_from_unitary,
)
from .pauli import PauliString, hermitize, majorana, majorana_monomial, pauli_mul
from .states import (
    StateVector,
    ZeroProbabilityError,
    apply_dense_unitary,
    apply_pauli,
    apply_pauli_rotation,
    basis_state,
    born_probability,
    expectation,
    fidelity,
    random_state,
    trace_distance,
    zero_state,
)
