from fractions import Fraction

import pytest
from hypothesis import settings

from curvlab.models import (berger_product, fs_cp2_chart, random_chart,
                            round_sphere_chart)

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


@pytest.fixture(scope="session")
def cp2_exact():
    """The exact-jet Fubini-Study CP^2 chart at jet order 3."""
    return fs_cp2_chart(jet_order=3, exact=True)


@pytest.fixture(scope="session")
def s4_exact():
    """The exact-jet round S^4 chart at jet order 3."""
    return round_sphere_chart(4, jet_order=3, exact=True)


@pytest.fixture(scope="session")
def chart6():
    return random_chart(6, seed=46, jet_order=3)


@pytest.fixture(scope="session")
def chart8():
    """The one float random 8-chart tier-1 builds."""
    return random_chart(8, seed=81, jet_order=3)
