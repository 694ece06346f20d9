import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnls_nflab.coeffs import ExactCoeff
from helpers import mul_imag_int

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
coeffs = st.builds(
    ExactCoeff, rationals, rationals, st.integers(min_value=0, max_value=3)
)


def test_zero_is_canonical():
    z = ExactCoeff(Fraction(0), Fraction(0), 2)
    assert z.pi_power == 0
    assert z.is_zero
    assert z == ExactCoeff.zero()


def test_negative_pi_power_rejected():
    with pytest.raises(ValueError):
        ExactCoeff(Fraction(1), Fraction(0), -1)


def test_constructor_checks_its_parts_and_pi_power():
    for bad in (0.5, "1/3", 1j):
        with pytest.raises(TypeError):
            ExactCoeff(bad, Fraction(0))
        with pytest.raises(TypeError):
            ExactCoeff(Fraction(1), bad)
    with pytest.raises(ValueError):
        ExactCoeff(Fraction(0), Fraction(0), -1)
    # int parts become Fractions; zero resets the pi power whatever the parts' type
    c = ExactCoeff(3, 0, 1)
    assert type(c.re) is Fraction and type(c.im) is Fraction
    assert c == ExactCoeff(Fraction(3), Fraction(0), 1)
    assert ExactCoeff(0, Fraction(0), 5).pi_power == 0
    assert ExactCoeff.real(0, pi_power=3).pi_power == 0
    assert ExactCoeff.imag(Fraction(0, 7), pi_power=2) == ExactCoeff.zero()


def test_coefficient_is_a_frozen_hashable_value():
    c = ExactCoeff(Fraction(1, 3), Fraction(-2, 5), 2)
    for name in ("re", "im", "pi_power", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, Fraction(1))
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert c == ExactCoeff(Fraction(2, 6), Fraction(-4, 10), 2)
    assert hash(c) == hash(ExactCoeff(Fraction(2, 6), Fraction(-4, 10), 2))
    assert c != ExactCoeff(Fraction(1, 3), Fraction(-2, 5), 1)
    assert c != (c.re, c.im, c.pi_power)
    assert pickle.loads(pickle.dumps(c)) == c
    assert repr(c) == "ExactCoeff(re=Fraction(1, 3), im=Fraction(-2, 5), pi_power=2)"


def test_mixed_pi_power_addition_rejected():
    a = ExactCoeff.real(1, pi_power=1)
    b = ExactCoeff.real(1, pi_power=2)
    with pytest.raises(ValueError):
        a + b
    # zero is compatible with anything
    assert a + ExactCoeff.zero() == a


def test_to_complex():
    c = ExactCoeff(Fraction(1, 4), Fraction(-1, 2), 1)
    val = c.to_complex()
    assert val == pytest.approx(complex(0.25 / math.pi, -0.5 / math.pi))


def test_mul_imag_int():
    c = ExactCoeff(Fraction(2), Fraction(3), 1)
    assert mul_imag_int(c, 5) == ExactCoeff(Fraction(-15), Fraction(10), 1)


@given(coeffs, coeffs)
def test_addition_commutes(a, b):
    if a.pi_power == b.pi_power or a.is_zero or b.is_zero:
        assert a + b == b + a


@given(coeffs, coeffs)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(coeffs)
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a


@given(coeffs, coeffs)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(coeffs)
def test_additive_inverse(a):
    assert (a + (-a)).is_zero


@given(coeffs)
def test_abs_squared_matches_float(a):
    assert math.sqrt(float(a.abs_squared_rational())) * math.pi ** (
        -a.pi_power
    ) == pytest.approx(a.abs_float())


@given(coeffs, st.fractions(max_denominator=12, min_value=Fraction(-9), max_value=Fraction(9)))
def test_scaling_distributes(a, f):
    assert a.scaled(f) + a.scaled(-f) == ExactCoeff.zero()
    assert a.scaled(f).pi_power in (a.pi_power, 0)
