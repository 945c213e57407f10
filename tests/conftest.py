"""Test-session settings shared by every test module.

When a hypothesis test fails, hypothesis's patch writer imports libcst,
which subclasses mypy_extensions.TypedDict, and mypy_extensions warns
that this class is deprecated. Under -W error that warning turns into an
INTERNALERROR that ends the session after the first failing hypothesis
test, so the failures after it go unreported. A filterwarnings mark is
the one filter that takes precedence over the command line's -W, so every
test gets one that ignores this single message; every other warning
stays an error.
"""

import pytest

TYPEDDICT_DEPRECATION = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(TYPEDDICT_DEPRECATION))
