"""Constants, derived gravitational scales, config parsing."""

import math
import re

import pytest

from ucngas import DomainError, PhysicalConstants, constants_from_config
from ucngas.constants import ELEMENTARY_CHARGE


def test_default_values():
    c = PhysicalConstants()
    assert c.m == 1.67492749804e-27
    assert c.g == 9.80665
    assert c.hbar == 1.054571817e-34
    assert c.kB == 1.380649e-23


def test_h_is_two_pi_hbar():
    c = PhysicalConstants()
    assert c.h == 2.0 * math.pi * c.hbar


def test_rejects_nonpositive_fields():
    with pytest.raises(DomainError):
        PhysicalConstants(m=-1.0)
    with pytest.raises(DomainError):
        PhysicalConstants(g=0.0)
    with pytest.raises(DomainError):
        PhysicalConstants(hbar=float("nan"))
    with pytest.raises(DomainError):
        PhysicalConstants(kB=float("inf"))
    with pytest.raises(DomainError, match="positive and finite"):
        PhysicalConstants(g=True)  # a bool is an int, but no constant
    for huge in (10**400, 10**5000):  # ints past the double range, the second too long to repr
        with pytest.raises(DomainError, match="positive and finite"):
            PhysicalConstants(hbar=huge)
    with pytest.raises(DomainError, match="alpha"):
        PhysicalConstants(hbar=10**300)  # in range, but its square as an int is not
    with pytest.raises(TypeError):
        PhysicalConstants(alpha=1.0)  # the scales are derived, never set
    # each field finite and positive, but a derived scale leaves the double range;
    # the same five cases as test_config_rejects_bad_input
    for fields, quantity in (
        ({"m": 1e200}, "alpha"),
        ({"m": 1e-200}, "alpha"),
        ({"hbar": 1e200}, "alpha"),
        ({"g": 1e-300}, "alpha"),
        ({"hbar": 1e110}, "hbar^3"),
    ):
        with pytest.raises(DomainError, match=re.escape(quantity)):
            PhysicalConstants(**fields)


def test_scale_values():
    c = PhysicalConstants()
    assert c.alpha == pytest.approx(4.947552084908705e15, rel=1e-12)
    assert c.l_g == pytest.approx(5.868627463929085e-06, rel=1e-12)
    assert c.e_g == pytest.approx(9.639471639253355e-32, rel=1e-12)
    assert c.e_g / (1.0e-12 * ELEMENTARY_CHARGE) == pytest.approx(0.602, abs=5e-4)  # peV


def test_scale_invariants():
    c = PhysicalConstants()
    assert c.alpha * c.l_g**3 == pytest.approx(1.0, rel=1e-12)
    assert c.e_g == pytest.approx(c.m * c.g * c.l_g, rel=1e-12)
    assert c.l_g == pytest.approx((c.hbar**2 / (2.0 * c.m**2 * c.g)) ** (1.0 / 3.0), rel=1e-12)


def test_alpha_linear_in_g():
    base = PhysicalConstants()
    doubled = PhysicalConstants(g=2.0 * 9.80665)
    assert doubled.alpha == pytest.approx(2.0 * base.alpha, rel=1e-14)


def test_scales_homogeneous_in_hbar():
    base = PhysicalConstants()
    s = 2.0
    scaled = PhysicalConstants(hbar=s * 1.054571817e-34)
    assert scaled.alpha == pytest.approx(base.alpha / s**2, rel=1e-13)
    assert scaled.e_g == pytest.approx(base.e_g * s ** (2.0 / 3.0), rel=1e-13)
    assert scaled.l_g == pytest.approx(base.l_g * s ** (2.0 / 3.0), rel=1e-13)


def test_config_parsing():
    text = "m_kg = 2.0e-27  # heavier particle\n\n# full-line comment\ng_mps2=19.6133\n"
    c = constants_from_config(text)
    assert c.m == 2.0e-27
    assert c.g == 19.6133
    assert c.hbar == 1.054571817e-34  # untouched defaults
    assert c.kB == 1.380649e-23


def test_config_rejects_bad_input():
    with pytest.raises(DomainError):
        constants_from_config("mass = 1e-27\n")  # unknown key
    with pytest.raises(DomainError):
        constants_from_config("m_kg = 1e-27\nm_kg = 2e-27\n")  # repeated
    with pytest.raises(DomainError):
        constants_from_config("m_kg: 1e-27\n")  # missing '='
    with pytest.raises(DomainError):
        constants_from_config("g_mps2 = fast\n")  # not a number
    with pytest.raises(DomainError):
        constants_from_config("g_mps2 = -9.8\n")  # violates positivity
    # each constant finite and positive, but a derived scale leaves the double range
    for text, quantity in (
        ("m_kg = 1e200\n", "alpha"),
        ("m_kg = 1e-200\n", "alpha"),
        ("hbar_Js = 1e200\n", "alpha"),
        ("g_mps2 = 1e-300\n", "alpha"),
        ("hbar_Js = 1e110\n", "hbar^3"),
    ):
        with pytest.raises(DomainError, match=re.escape(quantity)):
            constants_from_config(text)
