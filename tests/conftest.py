import pytest
from hypothesis import settings

from kcert.identities import Sampler
from kcert.instances import (
    clutching_diagram,
    cover_diagram,
    propagation_algebra,
    quotient_algebra,
    suite_algebras,
    trivial_algebra,
    trivial_diagram,
)

# One Hypothesis profile for every run, loaded unconditionally: examples are
# derived from each test itself and no example database is read or written,
# so tier-1 draws the same examples on every machine and Python version.
settings.register_profile("kcert", derandomize=True, database=None)
settings.load_profile("kcert")


@pytest.fixture
def trivial():
    return trivial_algebra()


@pytest.fixture
def quotient():
    return quotient_algebra()


@pytest.fixture
def propagation():
    return propagation_algebra()


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
