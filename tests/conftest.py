import pytest

from adreward.encoding import DetRng
from adreward.group import default_group


@pytest.fixture(scope="session")
def group():
    return default_group()


@pytest.fixture
def rng():
    return DetRng("test-fixture")


@pytest.fixture(autouse=True)
def no_fixed_base_table_outlives_its_scope():
    """Fail a test after which the default group still has a scoped fixed-base table registered."""
    yield
    tables = default_group()._tables
    if tables:
        leaked = len(tables)
        tables.clear()  # so that later tests are not blamed for this one
        pytest.fail(f"{leaked} fixed-base table(s) still registered after the test")
