import math

import numpy as np
import pytest

from matrixmech.oscillator import ROUNDOFF_SHARE, Kind, OscillatorSpec


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


def test_order_unit_is_the_coupling_unit_to_the_k():
    x3 = OscillatorSpec(m=2.0, omega0=0.5, lam=1e-3, kind=Kind.CUBIC_FORCE)
    u = x3.ladder_amplitude**2 / x3.omega0**2
    assert x3.order_unit(0) == 1.0
    assert math.isclose(x3.order_unit(2), u * u, rel_tol=1e-15)
    assert math.isclose(x3.order_unit(1, 3.0), 9.0 / 0.25, rel_tol=1e-15)
    # the harmonic kind has no coupling: every order shares the one unit
    assert OscillatorSpec().order_unit(3) == 1.0


def test_scaled_divides_row_k_by_base_times_u_to_the_k():
    spec = OscillatorSpec(omega0=0.5, lam=1e-3, kind=Kind.QUADRATIC_FORCE)
    u = spec.order_unit(1)
    value = np.array([[3.0, -3.0], [3.0, 0.0]])
    assert np.allclose(spec.scaled(value, 2.0), [[1.5, 1.5], [1.5 / u, 0.0]], rtol=1e-15)
    # the size of the cancelling terms sets a floor under the unit
    size = np.array([[0.0, 4.0 / ROUNDOFF_SHARE], [0.0, 0.0]])
    assert np.allclose(spec.scaled(value, 2.0, size), [[1.5, 0.75], [1.5 / u, 0.0]], rtol=1e-15)
