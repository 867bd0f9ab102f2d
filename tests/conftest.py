import pytest
from carriers import clutching_diagram, cover_diagram, suite_algebras, trivial_diagram
from hypothesis import settings

from kcert.identities import Sampler

# One Hypothesis profile for every run, loaded unconditionally: examples are
# derived from each test itself and no example database is read or written,
# so tier-1 draws the same examples on every machine and Python version.
settings.register_profile("kcert", derandomize=True, database=None)
settings.load_profile("kcert")


@pytest.fixture
def trivial():
    return suite_algebras()["trivial"]


@pytest.fixture
def quotient():
    return suite_algebras()["quotient"]


@pytest.fixture
def propagation():
    return suite_algebras()["propagation"]


@pytest.fixture
def all_algebras():
    return suite_algebras()


@pytest.fixture
def clutching():
    return clutching_diagram()


@pytest.fixture
def cover():
    return cover_diagram()


@pytest.fixture
def trivial_mv():
    return trivial_diagram()


@pytest.fixture
def sampler():
    return Sampler(20260810)
