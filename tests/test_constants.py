"""Constants, derived gravitational scales, unit conversion, config parsing."""

import math

import pytest

from ucngas import (
    DimensionMismatchError,
    DomainError,
    PhysicalConstants,
    constants_from_config,
    convert,
    default_constants,
    derive_scales,
)


def test_default_values():
    c = default_constants()
    assert c.m == 1.67492749804e-27
    assert c.g == 9.80665
    assert c.hbar == 1.054571817e-34
    assert c.kB == 1.380649e-23


def test_h_is_two_pi_hbar():
    c = default_constants()
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


def test_scale_values():
    s = derive_scales(default_constants())
    assert s.alpha == pytest.approx(4.947552084908705e15, rel=1e-12)
    assert s.l_g == pytest.approx(5.868627463929085e-06, rel=1e-12)
    assert s.e_g == pytest.approx(9.639471639253355e-32, rel=1e-12)
    assert convert(s.e_g, "J", "peV") == pytest.approx(0.602, abs=5e-4)


def test_scale_invariants():
    s = derive_scales(default_constants())
    c = default_constants()
    assert s.alpha * s.l_g**3 == pytest.approx(1.0, rel=1e-12)
    assert s.e_g == pytest.approx(c.m * c.g * s.l_g, rel=1e-12)
    assert s.l_g == pytest.approx((c.hbar**2 / (2.0 * c.m**2 * c.g)) ** (1.0 / 3.0), rel=1e-12)


def test_alpha_linear_in_g():
    base = derive_scales(default_constants())
    doubled = derive_scales(PhysicalConstants(g=2.0 * 9.80665))
    assert doubled.alpha == pytest.approx(2.0 * base.alpha, rel=1e-14)


def test_scales_homogeneous_in_hbar():
    base = derive_scales(default_constants())
    s = 2.0
    scaled = derive_scales(PhysicalConstants(hbar=s * 1.054571817e-34))
    assert scaled.alpha == pytest.approx(base.alpha / s**2, rel=1e-13)
    assert scaled.e_g == pytest.approx(base.e_g * s ** (2.0 / 3.0), rel=1e-13)
    assert scaled.l_g == pytest.approx(base.l_g * s ** (2.0 / 3.0), rel=1e-13)


def test_convert_energy():
    assert convert(2.254e-31, "J", "peV") == pytest.approx(1.407, abs=5e-4)
    assert convert(1.0, "peV", "J") == pytest.approx(1.602176634e-31, rel=1e-14)


def test_convert_length_and_density():
    assert convert(1.0e22, "m^-3", "cm^-3") == pytest.approx(1.0e16, rel=1e-14)
    assert convert(1.0, "m", "cm") == 100.0
    assert convert(1.0, "um", "cm") == pytest.approx(1.0e-4, rel=1e-14)


def test_convert_round_trips():
    groups = [("J", "peV"), ("m", "cm", "um"), ("m^-3", "cm^-3")]
    for group in groups:
        for a in group:
            for b in group:
                x = 0.731
                assert convert(convert(x, a, b), b, a) == pytest.approx(x, rel=1e-14)


def test_convert_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        convert(1.0, "J", "m")
    with pytest.raises(DimensionMismatchError):
        convert(1.0, "cm^-3", "peV")
    with pytest.raises(DomainError):
        convert(1.0, "furlong", "m")
    with pytest.raises(DomainError):  # kelvin is a temperature; k_B comes from the constants
        convert(1.0, "K", "J")


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
