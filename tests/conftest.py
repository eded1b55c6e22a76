from functools import cache

import pytest

from hexaudit.hexagon import build


@cache
def build_cached(q: int):
    """H(q), built once per test session."""
    return build(q)


@pytest.fixture(scope="session")
def h2():
    return build_cached(2)


@pytest.fixture(scope="session")
def h3():
    return build_cached(3)
