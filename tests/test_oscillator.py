import math

import pytest

from matrixmech.oscillator import Kind, OscillatorSpec


def test_defaults_are_natural_units():
    spec = OscillatorSpec()
    assert spec.m == 1.0 and spec.omega0 == 1.0 and spec.lam == 0.0
    assert math.isclose(spec.planck_h, 2 * math.pi)
    assert math.isclose(spec.hbar, 1.0)
    assert spec.kind is Kind.HARMONIC


def test_positivity_enforced():
    for bad in (dict(m=0.0), dict(omega0=-1.0), dict(planck_h=0.0)):
        with pytest.raises(ValueError):
            OscillatorSpec(**bad)


def test_harmonic_forces_zero_coupling():
    with pytest.raises(ValueError):
        OscillatorSpec(lam=0.1, kind=Kind.HARMONIC)


def test_kind_lookup():
    assert Kind.from_name("x2") is Kind.QUADRATIC_FORCE
    assert Kind.from_name("x3") is Kind.CUBIC_FORCE
    assert Kind.from_name("harmonic") is Kind.HARMONIC
    with pytest.raises(ValueError):
        Kind.from_name("x4")
    assert Kind.QUADRATIC_FORCE.force_power == 2
    assert Kind.HARMONIC.force_power == 0


def test_ladder_amplitude():
    spec = OscillatorSpec(planck_h=math.pi)  # sqrt(h/(pi m w0)) = 1
    assert math.isclose(spec.ladder_amplitude, 1.0)


def test_smallness_ratio_by_kind():
    x2 = OscillatorSpec(lam=0.01, omega0=2.0, kind=Kind.QUADRATIC_FORCE)
    assert math.isclose(x2.smallness_ratio(0.5), 0.01 * 0.5 / 4.0)
    x3 = OscillatorSpec(lam=0.01, omega0=2.0, kind=Kind.CUBIC_FORCE)
    assert math.isclose(x3.smallness_ratio(0.5), 0.01 * 0.25 / 4.0)
    assert OscillatorSpec().smallness_ratio() == 0.0


def test_non_finite_parameters_rejected():
    for bad in (dict(m=math.inf), dict(omega0=math.nan), dict(planck_h=math.inf),
                dict(lam=math.nan, kind=Kind.CUBIC_FORCE),
                dict(lam=-math.inf, kind=Kind.QUADRATIC_FORCE)):
        with pytest.raises(ValueError, match="finite"):
            OscillatorSpec(**bad)
