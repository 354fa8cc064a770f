import gc
from functools import lru_cache

import pytest

from satsemi.oracle import brute_force_sat
from satsemi.semigroup import NumericalSemigroup


@pytest.fixture(scope="session")
def corpus():
    """Memoized brute-force family per Frobenius number."""

    @lru_cache(maxsize=None)
    def get(frobenius):
        return tuple(brute_force_sat(frobenius))

    return get


@pytest.fixture(scope="session")
def du():
    """Shorthand: the semigroup with the given Frobenius number and small elements."""

    def build(frobenius, *small):
        return NumericalSemigroup.from_small_elements(frobenius, small)

    return build


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic collector disabled."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic collector disabled")
