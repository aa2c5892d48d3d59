import functools
from types import SimpleNamespace

import pytest

from heckemod.hecke import charpoly


@pytest.fixture(scope="session")
def shared_cache():
    """Integer charpolys memoized for the whole session, passed to the library as `cache=`.

    Characteristic polynomials are deterministic, so reuse across test
    files only saves time and cannot couple outcomes.
    """
    return SimpleNamespace(charpoly=functools.lru_cache(maxsize=None)(charpoly))
