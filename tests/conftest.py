from fractions import Fraction

import pytest
from hypothesis import settings

from curvlab.models import berger_product, random_chart

# Property tests draw fresh examples on every run by default.  CI runs with
# --hypothesis-profile=ci, which derives every example from the test itself,
# so a failure there repeats on any machine with the same command.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def berger4():
    """Exact Berger product at t = 4."""
    return berger_product(Fraction(4))


@pytest.fixture(scope="session")
def berger4_stack(berger4):
    return berger4.stack


@pytest.fixture(scope="session")
def chart4():
    """One float random 4-chart shared across tests."""
    return random_chart(4, seed=42, jet_order=3)


@pytest.fixture(scope="session")
def chart4_stack(chart4):
    return chart4.stack
