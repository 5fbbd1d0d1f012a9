from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from curvlab.errors import ExactnessError
from curvlab.scalars import exact_sqrt, rational_sqrt

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


class TestSqrt:
    @given(rationals)
    def test_rational_sqrt_of_square(self, q):
        assert rational_sqrt(q * q) == abs(q)

    def test_rational_sqrt_irrational(self):
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(1, 3)) is None

    def test_exact_sqrt_rejects_irrational(self):
        assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert exact_sqrt(4) == Fraction(2)
        for q in (Fraction(8), Fraction(1, 2)):
            with pytest.raises(ExactnessError, match="float"):
                exact_sqrt(q)
