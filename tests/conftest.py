import pytest

from fakedegrees import fakedeg


@pytest.fixture(autouse=True)
def fresh_domino_route_memo():
    """The type-D domino route memoises its sums per pair for the whole
    process, so a test that replaces a bijection step must not read a sum
    an earlier test cached."""
    fakedeg._restricted_sdt_gf.cache_clear()
