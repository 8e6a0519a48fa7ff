"""The repository's pytest settings, applied to a scratch test run."""

import pytest

pytest_plugins = ["pytester"]

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers(0, 100))
def test_below_ten(x):
    assert x < 10
"""


def test_a_failing_property_reports_its_falsifying_example(pytester, pytestconfig):
    # with warnings as errors, a warning raised while hypothesis reports a failure used to
    # end the run in an INTERNALERROR (exit 3) before the falsifying example was printed
    path = pytester.makepyfile(test_below_ten=FAILING_PROPERTY)
    result = pytester.runpytest_subprocess(
        "-c", str(pytestconfig.inipath), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        str(path))
    result.stdout.fnmatch_lines(["*Falsifying example: test_below_ten(", "*x=10,"])
    assert result.ret == pytest.ExitCode.TESTS_FAILED
