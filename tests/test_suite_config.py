"""The test suite's own configuration."""

pytest_plugins = ["pytester"]

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_negative(x):
    assert x < 0
"""


def test_failing_property_is_reported(pytester, request):
    # a failing @given test prints its falsifying example under the suite's
    # warning filters: the report hypothesis builds imports libcst, whose
    # DeprecationWarning the "error" filter would turn into an INTERNALERROR
    filters = "\n    ".join(request.config.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n    {filters}\n")
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    out = result.stdout.str()
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out + result.stderr.str()
