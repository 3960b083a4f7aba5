import pytest
from hypothesis import HealthCheck, settings

from dgalgebra import corpus
from dgalgebra.parser import parse_presentation

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")


# d(b) = a is not decomposable, so the correction of b is the single
# indecomposable term bar(a)
LINEAR_D = """algebra linear_d
generator b : 2
generator a : 3
generator e : 4
d b = a
d e = b*a
"""


def load(name):
    result = parse_presentation(corpus.read(name))
    assert result.presentation is not None, result.diagnostics
    return result.presentation


@pytest.fixture(scope="session")
def ex51():
    return load("ex51.dga")


@pytest.fixture(scope="session")
def ex52():
    return load("ex52.dga")


@pytest.fixture(scope="session")
def ex53():
    return load("ex53.dga")


@pytest.fixture(scope="session")
def two_stage():
    return load("two_stage.dga")


@pytest.fixture(scope="session")
def free_even():
    return load("free_even.dga")


@pytest.fixture(scope="session")
def free_even_weighted():
    return load("free_even_weighted.dga")
