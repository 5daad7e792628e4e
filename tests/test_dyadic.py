"""Exact dyadic values: the [num, exp] codec and halving on the lattice.

Complex and metric-space JSON store power-of-two rationals as normalized
[num, exp] pairs; gasket coordinates are integers over 2^L, halved by the
similitudes.
"""

import random
from fractions import Fraction

import pytest

from prefractal.gasket import CORNERS, dyadic_from_pair, dyadic_to_pair, similitude_apply


class TestNormalization:
    def test_strips_common_twos(self):
        assert dyadic_to_pair(Fraction(4, 2**3)) == [1, 1]
        assert dyadic_to_pair(dyadic_from_pair([4, 3])) == [1, 1]

    def test_zero_normalizes_to_exp_zero(self):
        assert dyadic_to_pair(Fraction(0, 2**9)) == [0, 0]
        assert dyadic_to_pair(dyadic_from_pair([0, 9])) == [0, 0]

    def test_odd_numerator_untouched(self):
        assert dyadic_to_pair(Fraction(5, 2**4)) == [5, 4]

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            dyadic_from_pair([1, -1])


class TestArithmetic:
    def test_int_coercion(self):
        assert dyadic_to_pair(3) == [3, 0]
        assert dyadic_to_pair(2 * dyadic_from_pair([1, 1])) == [1, 0]

    def test_halve(self):
        # T_0 halves: 3/4 on the lattice of scale 8 becomes 3/8
        assert similitude_apply(0, [6, 0], 8).tolist() == [3, 0]

    def test_halve_respects_cap(self):
        # 3/8 has no half on the lattice of scale 8
        with pytest.raises(ValueError, match="leaves the lattice"):
            similitude_apply(0, [3, 0], 8)
        assert similitude_apply(0, [6, 0], 16).tolist() == [3, 0]
        with pytest.raises(ValueError, match="leaves the lattice"):
            similitude_apply(1, CORNERS[0], 1)

    def test_matches_fraction_semantics(self):
        rng = random.Random(1009)
        for _ in range(500):
            num, exp = rng.randint(-10**6, 10**6), rng.randint(0, 16)
            value = dyadic_from_pair([num, exp])
            assert value == Fraction(num, 2**exp)
            n, e = dyadic_to_pair(value)
            assert Fraction(n, 2**e) == value
            assert n % 2 == 1 or e == 0
        assert dyadic_to_pair(Fraction(1, 3)) is None


class TestOrderingAndInterop:
    def test_comparisons_exact(self):
        # 2^-60 apart, below float resolution at this magnitude
        a = dyadic_from_pair([2**60 + 1, 60])
        b = dyadic_from_pair([1, 0])
        assert float(a) == float(b)
        assert b < a
        assert a != b

    def test_float_conversion(self):
        assert float(dyadic_from_pair([3, 2])) == 0.75

    def test_pair_roundtrip(self):
        assert dyadic_to_pair(dyadic_from_pair([-11, 7])) == [-11, 7]
