import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrixmech import classical
from matrixmech.classical import (
    SeriesOrderError,
    classical_energy,
    classical_residual,
    cos_table,
    solve_classical,
)
from matrixmech.oscillator import Kind, OscillatorSpec, SmallnessWarning
from matrixmech.series import LambdaSeries, series_product

X2 = OscillatorSpec(m=1, omega0=1, lam=1e-3, kind=Kind.QUADRATIC_FORCE)
X3 = OscillatorSpec(m=1, omega0=1, lam=1e-3, kind=Kind.CUBIC_FORCE)


def max_solved_residual(spec, series):
    resid = cos_table(classical_residual(series))
    worst = 0.0
    for (tau, k) in series.solved_set():
        a1 = abs(series.a1)
        scale = spec.omega0**2 * a1 * spec.order_unit(k, a1)
        worst = max(worst, abs(resid.get((tau, k), 0)) / scale)
    return worst


def test_x2_leading_coefficients_exact():
    s = solve_classical(X2, Fraction(1), 1)
    assert s.coeff(0, 1) == Fraction(-1, 2)
    assert s.coeff(2, 1) == Fraction(1, 6)
    assert s.coeff(3, 2) == Fraction(1, 48)
    assert s.omega_sq.coeffs == (1,)  # no first-order frequency shift


# Exact solution at a1 = 1 through lam^4 (plus the lam^5 extension
# coefficient), captured from the dict-based product-to-sum solver that the
# coefficient-stack solver replaced.  A solve to order N holds the entries
# on its solved set; omega^2 is the series through lam^N.
F = Fraction
X2_COEFFS = {
    (1, 0): F(1), (0, 1): F(-1, 2), (2, 1): F(1, 6), (3, 2): F(1, 48),
    (0, 3): F(-19, 72), (2, 3): F(59, 432), (4, 3): F(1, 432), (3, 4): F(79, 2304),
    (5, 4): F(5, 20736), (6, 5): F(1, 41472),
}
X2_OMEGA_SQ = (1, 0, F(-5, 6), 0, F(-335, 864))
X3_COEFFS = {
    (1, 0): F(1), (3, 1): F(1, 32), (3, 2): F(-21, 1024), (5, 2): F(1, 1024),
    (3, 3): F(417, 32768), (5, 3): F(-43, 32768), (7, 3): F(1, 32768),
    (3, 4): F(-7797, 1048576), (5, 4): F(335, 262144), (7, 4): F(-65, 1048576),
    (9, 4): F(1, 1048576), (11, 5): F(1, 33554432),
}
X3_OMEGA_SQ = (1, F(3, 4), F(3, 128), F(-57, 4096), F(1005, 131072))


def assert_exact_golden(spec, s, coeffs, omega_sq):
    assert s.coeffs == {key: c for key, c in coeffs.items() if key in s.solved_set()}
    assert s.omega_sq == LambdaSeries.from_coeffs(omega_sq[: s.max_order + 1])
    resid = cos_table(classical_residual(s))
    assert all(resid.get(key, 0) == 0 for key in s.solved_set())
    e = classical_energy(s)
    assert e.max_periodic() == 0
    # every value is an exact Fraction: a float would mean a leak such as
    # -m/2 with an integer m (omega_sq[0] is the spec's own omega0^2)
    values = [*s.coeffs.values(), *s.omega_sq.coeffs[1:], *resid.values(),
              *cos_table(e.periodic).values()]
    for series in (e.constant, e.kinetic_constant, e.harmonic_constant,
                   e.anharmonic_constant):
        values += series.coeffs
    assert all(isinstance(v, Fraction) for v in values if v)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_x2_second_order_exact(order):
    s = solve_classical(X2, Fraction(1), order)
    assert s.omega_sq[2] == Fraction(-5, 6)
    assert s.coeff(4, 3) == Fraction(1, 432)
    assert max_solved_residual(X2, s) == 0
    assert_exact_golden(X2, s, X2_COEFFS, X2_OMEGA_SQ)


@pytest.mark.parametrize("order", [1, 3, 4])
def test_x3_leading_coefficients_exact(order):
    s = solve_classical(X3, Fraction(1), order)
    assert s.coeff(3, 1) == Fraction(1, 32)
    assert s.omega_sq.coeffs[:2] == (1, Fraction(3, 4))
    assert s.coeff(5, 2) == Fraction(1, 1024)
    assert_exact_golden(X3, s, X3_COEFFS, X3_OMEGA_SQ)


def test_scaled_fixtures_with_units():
    # a0 = -a1^2/(2 w0^2), a2 = a1^2/(6 w0^2), a3 = a1^3/(48 w0^4)
    spec = OscillatorSpec(m=2.0, omega0=1.5, lam=1e-4, kind=Kind.QUADRATIC_FORCE)
    a1 = 0.7
    s = solve_classical(spec, a1, 1)
    w2 = spec.omega0**2
    assert math.isclose(s.coeff(0, 1), -a1 * a1 / (2 * w2), rel_tol=1e-14)
    assert math.isclose(s.coeff(2, 1), a1 * a1 / (6 * w2), rel_tol=1e-14)
    assert math.isclose(s.coeff(3, 2), a1**3 / (48 * w2 * w2), rel_tol=1e-14)

    spec3 = OscillatorSpec(m=2.0, omega0=1.5, lam=1e-4, kind=Kind.CUBIC_FORCE)
    s3 = solve_classical(spec3, a1, 1)
    assert math.isclose(s3.coeff(3, 1), a1**3 / (32 * w2), rel_tol=1e-14)
    assert math.isclose(s3.omega_sq[1], 0.75 * a1 * a1, rel_tol=1e-14)


def test_harmonic_limit_is_pure_cosine():
    s = solve_classical(OscillatorSpec(), 1.0, 2)
    assert s.coeffs == {(1, 0): 1.0}
    assert s.omega_sq.coeffs == (1.0,)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("a1", [Fraction(1, 3), 0.7, 0.0])
def test_fundamental_reads_back_a1(kind, a1):
    # (1, 0) is a1 itself, with its type, also at zero amplitude
    s = solve_classical(OscillatorSpec(kind=kind), a1, 2)
    assert s.coeff(1, 0) == a1 and type(s.coeff(1, 0)) is type(a1)


def test_coefficients_do_not_depend_on_lambda():
    weak = OscillatorSpec(lam=1e-6, kind=Kind.QUADRATIC_FORCE)
    strong = OscillatorSpec(lam=5e-2, kind=Kind.QUADRATIC_FORCE)
    assert solve_classical(weak, 1.0, 2).coeffs == solve_classical(strong, 1.0, 2).coeffs


def test_structure_zeros():
    s = solve_classical(X2, 1.0, 2)
    for (tau, k) in s.coeffs:
        if tau >= 1:
            assert k >= tau - 1  # each harmonic enters at its leading order
    s3 = solve_classical(X3, 1.0, 2)
    assert all(tau % 2 == 1 for (tau, _) in s3.coeffs)


def test_residual_sensitivity_to_a2():
    s = solve_classical(X2, 1.0, 1)
    eps = 1e-4
    tampered = s.x.copy()
    width = tampered.shape[1] // 2
    tampered[1, [width - 2, width + 2]] += eps / 2  # the cos(2wt) coefficient at lam^1
    r = cos_table(classical_residual(dataclasses.replace(s, x=tampered)))
    assert math.isclose(r[(2, 1)], -3.0 * eps, rel_tol=1e-10)


def test_residual_zero_for_harmonic_series():
    for order in range(3):
        s = solve_classical(OscillatorSpec(), 1.0, order)
        assert cos_table(classical_residual(s)) == {}


@settings(max_examples=40, deadline=None)
@given(
    m=st.floats(0.5, 3.0),
    omega0=st.floats(0.5, 2.5),
    a1=st.floats(0.1, 2.0),
    kind=st.sampled_from([Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE]),
)
def test_backsubstitution_property(m, omega0, a1, kind):
    spec = OscillatorSpec(m=m, omega0=omega0, lam=1e-5, kind=kind)
    s = solve_classical(spec, a1, 2)
    assert max_solved_residual(spec, s) < 1e-12


def test_energy_x2_constant_term():
    s = solve_classical(X2, 1.0, 1)
    e = classical_energy(s)
    assert math.isclose(e.constant[0], 0.5, rel_tol=1e-14)
    assert abs(e.constant[1]) < 1e-15  # no first-order constant term
    assert e.max_periodic() < 1e-15


def test_energy_x3_constant_and_periodic():
    s = solve_classical(X3, Fraction(1), 1)
    e = classical_energy(s)
    # full constant term carries the kinetic frequency renormalization
    assert e.constant[0] == Fraction(1, 2)
    assert e.constant[1] == Fraction(9, 32)
    # the anharmonic-potential share alone (= fixed-action shift)
    assert e.anharmonic_constant[1] == Fraction(3, 32)
    assert e.max_periodic() == 0


def test_energy_harmonic():
    spec = OscillatorSpec(m=2.0, omega0=1.5)
    s = solve_classical(spec, 0.7, 1)
    e = classical_energy(s)
    assert math.isclose(e.constant[0], 0.5 * 2.0 * 1.5**2 * 0.7**2, rel_tol=1e-14)
    assert e.max_periodic() == 0


def test_energy_scales_with_units():
    spec = OscillatorSpec(m=2.0, omega0=1.3, lam=1e-4, kind=Kind.CUBIC_FORCE)
    a1 = 0.6
    s = solve_classical(spec, a1, 1)
    e = classical_energy(s)
    assert math.isclose(e.constant[0], 0.5 * spec.m * spec.omega0**2 * a1 * a1,
                        rel_tol=1e-14)
    assert math.isclose(e.constant[1], 9.0 / 32.0 * spec.m * a1**4, rel_tol=1e-12)
    scale = spec.m * spec.omega0**2 * a1 * a1
    assert e.max_periodic() / scale < 1e-14


def test_action_integral():
    # the harmonic orbit's action J = pi*m*a1^2*omega0 fixes its energy,
    # E = J*omega0/(2*pi)
    for spec, a1 in ((OscillatorSpec(), 1.0), (OscillatorSpec(), 0.0),
                     (OscillatorSpec(m=2, omega0=3), 1.0), (OscillatorSpec(m=2, omega0=3), 0.7)):
        action = math.pi * spec.m * a1 * a1 * spec.omega0
        energy = classical_energy(solve_classical(spec, a1, 1)).constant[0]
        assert math.isclose(energy, action * spec.omega0 / (2 * math.pi), rel_tol=1e-14)


def test_order_cap_and_validation():
    with pytest.raises(SeriesOrderError):
        solve_classical(X2, 1.0, 5)
    with pytest.raises(SeriesOrderError):
        solve_classical(X2, 1.0, -1)


def test_degenerate_divisor_detected():
    # an omega0 small enough to underflow omega0^2 would make every divisor
    # vanish: the spec rejects it before any solve
    with pytest.raises(ValueError, match="omega0"):
        OscillatorSpec(m=1.0, omega0=1e-200, lam=0.0, kind=Kind.QUADRATIC_FORCE)


def test_smallness_violation_is_reported():
    strong = OscillatorSpec(lam=0.5, kind=Kind.QUADRATIC_FORCE)
    with pytest.warns(SmallnessWarning):
        solve_classical(strong, 1.0, 1)


# ------------------------------------------------- one product per power of x


def _power(x, p, max_order):
    """x^p through lam^max_order, every layer formed afresh by repeated
    series products (the classical side's power before series.Powers)."""
    out = x
    for _ in range(p - 1):
        out = series_product(out, x, max_order, classical._convolve)
    return out


class _AfreshPowers:
    """series.Powers' interface with each power formed afresh by _power."""

    def __init__(self, x, op):
        self.x = x

    def __getitem__(self, key):
        j, k = key
        return _power(self.x, j, k)[k]

    def stack(self, j, layers):
        return _power(self.x, j, layers - 1)


def _solved_stacks(spec, a1, order):
    s = solve_classical(spec, a1, order)
    e = classical_energy(s)
    series = (e.constant, e.kinetic_constant, e.harmonic_constant, e.anharmonic_constant)
    # repr tells -0.0 from 0.0 and a Fraction from an int
    return [repr(a.tolist()) for a in (s.x, s.w, classical_residual(s), e.periodic)] + [
        repr(c.coeffs) for c in series]


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("order", range(5))
def test_stacks_match_powers_formed_afresh_to_the_bit(monkeypatch, kind, order):
    lam = 0.0 if kind is Kind.HARMONIC else 1e-3
    for spec, a1 in [(OscillatorSpec(lam=lam, kind=kind), Fraction(1)),
                     (OscillatorSpec(lam=lam, kind=kind), 1.0),
                     (OscillatorSpec(m=1.7, omega0=0.6, lam=lam / 10, kind=kind), 0.7)]:
        got = _solved_stacks(spec, a1, order)
        with monkeypatch.context() as patch:
            patch.setattr(classical, "Powers", _AfreshPowers)
            assert got == _solved_stacks(spec, a1, order), (spec, a1)


@pytest.mark.parametrize("powers, products", [(None, 30), (_AfreshPowers, 70)])
def test_solve_forms_each_layer_of_the_force_once(monkeypatch, powers, products):
    # x3 to lam^4 and the lam^5 extension: layers 0 .. 4 of x^2 and x^3,
    # 15 convolutions each, where forming x^3 afresh at every step took 70
    calls = []
    convolve = np.convolve

    def counted(*args, **kwargs):
        calls.append(None)
        return convolve(*args, **kwargs)

    if powers:
        monkeypatch.setattr(classical, "Powers", powers)
    monkeypatch.setattr(np, "convolve", counted)
    solve_classical(X3, Fraction(1), 4)
    monkeypatch.undo()
    assert len(calls) == products
