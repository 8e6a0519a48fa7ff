"""The package holds no test oracle: moved and deleted names stay out, and nothing loads from tests/."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import fermidope

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# the dense references in oracles.py; no package module may define or re-export one
ORACLES = ("operator_matrix", "apply_dense_unitary", "expectation", "marginal_probabilities",
           "born_probability", "dense_matrix", "heisenberg_matrix", "omega", "is_symplectic",
           "random_unitary", "random_antisymmetric")
# members that no package code used: deleted, or moved to oracles.py as a function
MEMBERS = (("gaussian", "GaussianUnitary", "matrix"), ("pauli", "PauliString", "single"),
           ("states", "StateVector", "norm"), ("ortho", "NormalForm", "n"),
           ("doped", "GateCounts", "total"), ("learner", "LearnBudget", "pure_tomography"))


def test_no_oracle_or_deleted_member_is_in_the_package():
    modules = [fermidope] + [importlib.import_module(f"fermidope.{info.name}")
                             for info in pkgutil.iter_modules(fermidope.__path__)]
    found = [f"{module.__name__}.{name}" for module in modules for name in ORACLES if hasattr(module, name)]
    for module, owner, member in MEMBERS:
        if hasattr(getattr(importlib.import_module(f"fermidope.{module}"), owner), member):
            found.append(f"{owner}.{member}")
    assert found == []


def test_importing_the_package_loads_nothing_from_tests():
    # tests/ is on the path, as it is under pytest, so a package import of a test module would succeed
    code = ("import sys, fermidope, fermidope.cli\n"
            "print(*(getattr(m, '__file__', None) for m in list(sys.modules.values())), sep='\\n')")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = [line for line in done.stdout.splitlines() if line != "None"]
    assert any(Path(line).resolve().is_relative_to(SRC) for line in loaded)
    assert [line for line in loaded if Path(line).resolve().is_relative_to(TESTS)] == []
