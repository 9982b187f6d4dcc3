import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrixmech import ladder
from matrixmech.ladder import (
    LadderError,
    OperatorMatrix,
    _base_ladder,
    energy_matrix,
    frequency_consistency,
    ladder_checks,
    level_omega,
    line_spectrum,
    offdiagonal_energy_check,
    quantum_residuals,
    solve_quantum,
    sum_rule_residuals,
    trusted_residual_order,
)
from matrixmech.classical import solve_classical
from matrixmech.oscillator import Kind, OscillatorSpec
from matrixmech.series import LambdaSeries, series_product
from matrixmech.verify import MUTATIONS, apply_mutation

H_PI = math.pi
X2 = OscillatorSpec(m=1, omega0=1, lam=1e-3, planck_h=H_PI, kind=Kind.QUADRATIC_FORCE)
X3 = OscillatorSpec(m=1, omega0=1, lam=1e-3, kind=Kind.CUBIC_FORCE)  # h = 2*pi


def has_dc(t):
    # DC offsets sit on the diagonal of the X stack, X(n, n) = lam * a0(n)
    return bool(np.diagonal(t.x.c, axis1=1, axis2=2).any())


# ---------------------------------------------------------------- base ladder


def test_base_amplitude_values():
    t = solve_quantum(OscillatorSpec(planck_h=H_PI), 5, 0)
    assert math.isclose(t.amp(1, 0)[0], 1.0)
    assert t.amp(1, 0) == t.amp(0, 1)  # stored once per unordered pair
    t2 = solve_quantum(OscillatorSpec(), 5, 0)  # h = 2*pi
    assert math.isclose(t2.amp(2, 1)[0], 2.0)
    # below the floor everything vanishes
    assert not t.amp(0, -1)
    assert not t.amp(-2, -3)
    # distant pairs are zero at this order
    assert not t.amp(3, 1)


def test_quantization_residual_zero_on_ladder():
    spec = OscillatorSpec(m=1.7, omega0=0.8, planck_h=5.0)
    t = solve_quantum(spec, 8, 0)
    assert np.all(np.abs(sum_rule_residuals(t)[0][0, :7]) < 1e-12 * spec.planck_h)


def test_quantization_residual_detects_scaling():
    spec = OscillatorSpec()
    t = solve_quantum(spec, 6, 0)
    orig = t.amp(3, 2)[0]
    t.x.c[:, [3, 2], [2, 3]] *= 2.0
    r = sum_rule_residuals(t)[0][0, 2]
    assert math.isclose(r, 3.0 * math.pi * spec.m * spec.omega0 * orig**2, rel_tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(m=st.floats(0.5, 3.0), omega0=st.floats(0.5, 2.5), h=st.floats(1.0, 10.0))
def test_sum_rule_property(m, omega0, h):
    spec = OscillatorSpec(m=m, omega0=omega0, planck_h=h)
    t = solve_quantum(spec, 6, 0)
    assert np.all(np.abs(sum_rule_residuals(t)[0][0, :6]) < 1e-12 * h)


# ----------------------------------------------------------------- x2 solve


def test_x2_overtone_amplitude():
    t = solve_quantum(X2, n_max=8, order=1)
    # a(2,0) = a(2,1)a(1,0)/(6 w0^2); with h = pi the base rung is sqrt(n)
    assert math.isclose(t.amp(2, 0)[1], math.sqrt(2) / 6, rel_tol=1e-13)
    assert t.amp(2, 0)[0] == 0


def test_x2_dc_offsets():
    t = solve_quantum(X2, n_max=8, order=1)
    for n in range(6):
        up = t.amp(n + 1, n)[0]
        down = t.amp(n, n - 1)[0] if n else 0.0
        assert math.isclose(t.dc_series(n)[0], -(up * up + down * down) / 4, rel_tol=1e-13)


def test_x2_three_step_amplitude():
    t = solve_quantum(X2, n_max=8, order=1)
    aaa = t.amp(3, 2)[0] * t.amp(2, 1)[0] * t.amp(1, 0)[0]
    assert math.isclose(t.amp(3, 0)[2], aaa / 48, rel_tol=1e-13)


def test_x2_fundamental_uncorrected_and_levels_unshifted():
    t = solve_quantum(X2, n_max=8, order=1)
    for n in range(1, 8):
        assert t.amp(n, n - 1).order == 0  # no first-order amplitude correction
    for n in range(8):
        w = t.level(n)
        assert math.isclose(w[0], (n + 0.5) * X2.hbar * X2.omega0, rel_tol=1e-13)
        assert abs(w[1]) < 1e-13  # no first-order level shift


def test_x2_residuals_and_energy_offdiagonal():
    t = solve_quantum(X2, n_max=8, order=1)
    assert max(ladder_checks(t)[0].values()) < 1e-12
    assert offdiagonal_energy_check(t) < 1e-12
    assert frequency_consistency(t) < 1e-12


def test_residual_sensitivity_to_overtone_amplitude():
    t = solve_quantum(X2, n_max=8, order=1)
    before = quantum_residuals(t)[(4, 2)]
    eps = 1e-5
    t.x.c[1, [4, 2], [2, 4]] += eps / 2  # X = a/2
    after = quantum_residuals(t)[(4, 2)]
    # reported in the amplitude convention: d(residual)/d(a) = -3 w0^2
    assert math.isclose(after[1] - before[1], -3.0 * eps, rel_tol=1e-9)


def test_dc_sign_flip_breaks_energy_offdiagonal():
    t = solve_quantum(X2, n_max=8, order=1)
    assert offdiagonal_energy_check(t) < 1e-12
    diag = np.arange(t.x.dim)
    t.x.c[:, diag, diag] *= -1.0
    assert offdiagonal_energy_check(t) > 1e-3


def test_x2_entry_equations_in_printed_form():
    # the residual convention doubles off-diagonal entries, so each entry
    # reproduces the cosine-coefficient equations verbatim:
    #   DC:        w0^2 a0(n) + (1/4)[a^2(n+1,n) + a^2(n,n-1)] = 0
    #   two-step: [-w^2(n,n-2) + w0^2] a(n,n-2) + (1/2) a(n,n-1)a(n-1,n-2) = 0
    t = solve_quantum(X2, n_max=8, order=1)
    for n in range(2, 6):
        up, down = t.amp(n + 1, n)[0], t.amp(n, n - 1)[0]
        dc_eq = t.dc_series(n)[0] + 0.25 * (up * up + down * down)
        assert abs(dc_eq) < 1e-13
        lhs = (-(t.freq(n, n - 2) * t.freq(n, n - 2))[0] + 1.0) * t.amp(n, n - 2)[1]
        rhs = -0.5 * t.amp(n, n - 1)[0] * t.amp(n - 1, n - 2)[0]
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_energy_levels_standalone_on_base_ladder():
    from matrixmech.ladder import energy_levels

    spec = OscillatorSpec(m=1.3, omega0=0.9, planck_h=4.0)
    table = _base_ladder(spec, 6, 0, pad=2)
    energy_levels(table)
    for n in range(7):
        assert math.isclose(table.level(n).eval(0.0),
                            (n + 0.5) * spec.hbar * spec.omega0, rel_tol=1e-12)


def test_negative_coupling_consistency():
    spec = OscillatorSpec(m=1, omega0=1, lam=-1e-3, kind=Kind.CUBIC_FORCE)
    t = solve_quantum(spec, n_max=6, order=1)
    assert max(ladder_checks(t)[0].values()) < 1e-12
    # first-order shift changes sign with the coupling
    assert t.level(0).eval(-1e-3) < 0.5
    assert t.freq(1, 0).eval(-1e-3) < 1.0


def test_order_zero_solve():
    t = solve_quantum(X3, n_max=6, order=0)
    assert t.order == 0
    assert not has_dc(t) and not t.amp(3, 0)
    for n in range(6):
        assert math.isclose(t.level(n).eval(0.0), n + 0.5, rel_tol=1e-12)
        assert t.level(n).order == 0  # no coupling terms at order 0


# ----------------------------------------------------------------- x3 solve


def test_x3_fundamental_closed_forms():
    t = solve_quantum(X3, n_max=8, order=1)
    g = X3.ladder_amplitude  # sqrt(2) for h = 2*pi
    for n in range(1, 8):
        a = t.amp(n, n - 1)
        assert math.isclose(a[0], g * math.sqrt(n), rel_tol=1e-13)
        assert math.isclose(a[1], -g * math.sqrt(n) * 0.375 * n, rel_tol=1e-13)
        w = t.freq(n, n - 1)
        assert math.isclose(w[0], 1.0, rel_tol=1e-12)
        assert math.isclose(w[1], 0.75 * n, rel_tol=1e-12)


def test_x3_levels_match_first_order_shift():
    t = solve_quantum(X3, n_max=8, order=1)
    for n in range(8):
        w = t.level(n)
        assert math.isclose(w[0], n + 0.5, rel_tol=1e-12)
        assert math.isclose(w[1], 0.375 * (n * n + n + 0.5), rel_tol=1e-12)


def test_x3_example_level_value():
    t = solve_quantum(X3, n_max=5, order=1)
    assert math.isclose(t.level(0).eval(1e-3), 0.5001875, abs_tol=1e-12)


def test_x3_three_step_amplitude():
    t = solve_quantum(X3, n_max=8, order=1)
    aaa = t.amp(3, 2)[0] * t.amp(2, 1)[0] * t.amp(1, 0)[0]
    assert math.isclose(t.amp(3, 0)[1], aaa / 32, rel_tol=1e-13)


def test_x3_five_step_amplitude_mirrors_classical():
    # leading five-step coefficient: chained rungs over 1024, the exact
    # analogue of the classical fifth-harmonic coefficient a1^5/1024
    t = solve_quantum(X3, n_max=9, order=1)
    chain = 1.0
    for k in range(5, 0, -1):
        chain *= t.amp(k, k - 1)[0]
    assert math.isclose(t.amp(5, 0)[2], chain / 1024, rel_tol=1e-12)


def test_x3_residuals_and_energy_offdiagonal():
    t = solve_quantum(X3, n_max=8, order=1)
    assert max(ladder_checks(t)[0].values()) < 1e-12
    assert offdiagonal_energy_check(t) < 1e-12
    assert frequency_consistency(t) < 1e-12


def test_x3_parity_zeros():
    t = solve_quantum(X3, n_max=8, order=1)
    assert not has_dc(t)  # no DC offsets for an odd force
    assert not t.amp(4, 2)  # even steps never appear


# ----------------------------------------------------------------- harmonic


def test_harmonic_closed_form_levels():
    spec = OscillatorSpec(m=1.0, omega0=1.0)
    t = solve_quantum(spec, n_max=21, order=1)
    for n in range(21):
        assert abs(t.level(n).eval(0.0) - (n + 0.5)) < 1e-12


def test_harmonic_residuals_vanish():
    spec = OscillatorSpec(m=2.0, omega0=0.7, planck_h=3.0)
    t = solve_quantum(spec, n_max=6, order=1)
    assert max(ladder_checks(t)[0].values()) < 1e-13
    # the fundamental transition frequency equals the oscillator frequency
    for n in range(1, 6):
        assert math.isclose(t.freq(n, n - 1)[0], spec.omega0, rel_tol=1e-13)
        assert abs(spec.omega0**2 - (t.freq(n, n - 1) * t.freq(n, n - 1))[0]) < 1e-13


# ----------------------------------------------------------- derived outputs


def test_line_spectrum_harmonic():
    spec = OscillatorSpec()
    lines = line_spectrum(solve_quantum(spec, n_max=6, order=1))
    assert all(l.lower == l.upper - 1 for l in lines)
    assert all(math.isclose(l.omega, 1.0, rel_tol=1e-12) for l in lines)
    # intensity ~ a^2 ~ n, normalized to the top line
    by_n = {l.upper: l.rel_intensity for l in lines}
    assert math.isclose(by_n[3], 3.0 / 6.0, rel_tol=1e-12)


def test_line_spectrum_x3_fundamental_shift():
    lines = line_spectrum(solve_quantum(X3, n_max=6, order=1))
    l10 = next(l for l in lines if (l.upper, l.lower) == (1, 0))
    assert math.isclose(l10.omega, 1.00075, rel_tol=1e-12)
    overtones = [l for l in lines if l.upper - l.lower == 3]
    assert overtones and all(l.leading_order == 1 for l in overtones)


def test_line_spectrum_x2_overtone_intensity():
    # overtone intensity: a^2(n,n-2) = lam^2 n(n-1) (h/(m pi w0))^2 / 36
    spec = OscillatorSpec(m=1, omega0=1, lam=2e-3, kind=Kind.QUADRATIC_FORCE)
    lines = line_spectrum(solve_quantum(spec, n_max=6, order=1))
    by_pair = {(l.upper, l.lower): l for l in lines}
    g2 = spec.planck_h / (math.pi * spec.m * spec.omega0)
    peak = max(l.rel_intensity for l in lines)
    assert peak == 1.0
    raw_fund_peak = 6 * g2  # strongest line is (6, 5)
    for n in (3, 5):
        expect = spec.lam**2 * n * (n - 1) * g2 * g2 / 36
        got = by_pair[(n, n - 2)].rel_intensity * raw_fund_peak
        assert math.isclose(got, expect, rel_tol=1e-10)


def test_solved_series_independent_of_coupling():
    # the coupling enters only at evaluation time; the tables agree exactly
    weak = OscillatorSpec(m=1, omega0=1, lam=1e-6, kind=Kind.CUBIC_FORCE)
    strong = OscillatorSpec(m=1, omega0=1, lam=5e-3, kind=Kind.CUBIC_FORCE)
    a = solve_quantum(weak, n_max=5, order=1)
    b = solve_quantum(strong, n_max=5, order=1)
    assert np.array_equal(a.x.c, b.x.c)
    assert all(a.level(n) == b.level(n) for n in range(6))


def test_sum_rule_ground_state_example():
    # n=0, h=2*pi: pi*m*w0*a^2(1,0) = h with a^2(1,0) = 2
    spec = OscillatorSpec()
    t = solve_quantum(spec, 4, 0)
    assert math.isclose(t.amp(1, 0)[0] ** 2, 2.0, rel_tol=1e-12)
    assert abs(sum_rule_residuals(t)[0][0, 0]) < 1e-12 * spec.planck_h


def test_ritz_additivity_exact():
    t = solve_quantum(X3, n_max=8, order=1)
    lam = X3.lam
    for (n, k, m) in [(5, 3, 1), (4, 2, 0), (6, 5, 2)]:
        lhs = t.freq(n, k).eval(lam) + t.freq(k, m).eval(lam)
        assert math.isclose(lhs, t.freq(n, m).eval(lam), rel_tol=0, abs_tol=5e-15)
        assert math.isclose(t.freq(m, n).eval(lam), -t.freq(n, m).eval(lam), abs_tol=5e-16)


def action_amplitude(spec, n):
    """Classical fundamental amplitude whose orbit action is n*h."""
    return math.sqrt(n * spec.planck_h / (math.pi * spec.m * spec.omega0))


def test_correspondence_ratios():
    # the two-step amplitude relates to its neighbour product as the
    # classical second harmonic to a1^2, a2/a1^2 = 1/(6 omega0^2), and the
    # fundamental amplitude is the classical one with action n*h
    t = solve_quantum(X2, n_max=8, order=1)
    classical = solve_classical(X2, 1.0, 1).coeff(2, 1)
    assert math.isclose(classical, 1.0 / (6.0 * X2.omega0**2), rel_tol=1e-14)
    for n in (2, 4, 6):
        overtone = t.amp(n, n - 2)[1] / (t.amp(n, n - 1)[0] * t.amp(n - 1, n - 2)[0])
        assert math.isclose(overtone, classical, rel_tol=1e-12)
        assert math.isclose(t.amp(n, n - 1)[0] / action_amplitude(X2, n), 1.0, rel_tol=1e-12)
    # below n = 2 there is no two-step amplitude to form the ratio from
    assert not t.amp(1, -1) and not t.amp(0, -2)


def test_correspondence_flagged_for_harmonic():
    # no overtone at all, so no overtone ratio; the fundamental still
    # carries the action n*h
    spec = OscillatorSpec()
    t = solve_quantum(spec, n_max=6, order=1)
    assert not any(t.amp(n, n - 2) for n in range(2, 7))
    assert math.isclose(t.amp(3, 2)[0], action_amplitude(spec, 3), rel_tol=1e-12)


# -------------------------------------------------------------- validation


def test_trusted_orders():
    assert trusted_residual_order(Kind.QUADRATIC_FORCE, 1, 3) == 2
    assert trusted_residual_order(Kind.QUADRATIC_FORCE, 1, 4) == 2
    assert trusted_residual_order(Kind.CUBIC_FORCE, 1, 5) == 2
    assert trusted_residual_order(Kind.CUBIC_FORCE, 1, 2) == 2  # parity zero
    # the full table, kind x order x delta = 0..8
    expected = {
        (Kind.HARMONIC, 0): [1, 1, 1, 1, 1, 1, 1, 1, 1],
        (Kind.HARMONIC, 1): [2, 2, 2, 2, 2, 2, 2, 2, 2],
        (Kind.QUADRATIC_FORCE, 0): [0, 0, 0, 1, 1, 1, 1, 1, 1],
        (Kind.QUADRATIC_FORCE, 1): [1, 1, 1, 2, 2, 2, 2, 2, 2],
        (Kind.CUBIC_FORCE, 0): [1, 0, 1, 0, 1, 1, 1, 1, 1],
        (Kind.CUBIC_FORCE, 1): [2, 1, 2, 1, 2, 2, 2, 2, 2],
    }
    for (kind, order), tops in expected.items():
        assert [trusted_residual_order(kind, order, d) for d in range(9)] == tops


@pytest.mark.parametrize(
    "spec, order, top_power, has_dc_expected",
    [
        (X2, 1, {1: 0, 2: 1, 3: 2}, True),
        (X3, 1, {1: 1, 3: 1, 5: 2}, False),
        (X2, 0, {1: 0}, False),
        (X3, 0, {1: 0}, False),
    ],
)
def test_solved_table_structure(spec, order, top_power, has_dc_expected):
    # top stored lam power per delta = n - m, and plain float coefficients
    t = solve_quantum(spec, n_max=8, order=order)
    dim = t.x.dim
    tops = {}
    for hi in range(dim):
        for lo in range(hi):
            s = t.amp(hi, lo)
            if s:
                tops[hi - lo] = max(tops.get(hi - lo, -1), s.order)
    assert tops == top_power
    assert has_dc(t) == has_dc_expected
    coeffs = [c for n in range(dim) for s in (t.dc_series(n), t.level(n)) for c in s.coeffs]
    coeffs += [c for n in range(dim) for m in range(n) for c in t.amp(n, m).coeffs]
    coeffs += [c for n in range(1, dim) for c in t.freq(n, n - 1).coeffs]
    assert coeffs and all(type(c) is float for c in coeffs)


def test_solver_preconditions():
    with pytest.raises(LadderError):
        solve_quantum(X2, n_max=0, order=1)
    with pytest.raises(LadderError):
        solve_quantum(X2, n_max=10, order=2)
    with pytest.raises(ValueError, match="omega0"):  # omega0^2 would underflow
        OscillatorSpec(omega0=1e-200, kind=Kind.QUADRATIC_FORCE)


@settings(max_examples=15, deadline=None)
@given(
    m=st.floats(0.5, 2.0),
    omega0=st.floats(0.7, 1.5),
    h=st.floats(2.0, 8.0),
    kind=st.sampled_from([Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE]),
)
def test_solution_invariants_property(m, omega0, h, kind):
    spec = OscillatorSpec(m=m, omega0=omega0, lam=1e-4, planck_h=h, kind=kind)
    t = solve_quantum(spec, n_max=5, order=1)
    assert max(ladder_checks(t)[0].values()) < 1e-12
    assert offdiagonal_energy_check(t) < 1e-12
    assert frequency_consistency(t) < 1e-12
    assert np.all(np.abs(sum_rule_residuals(t)[0][0, :4]) < 1e-12 * h)


# ------------------------------------------------------- operator products


def test_operator_product_matches_series_product():
    # the coefficient-stack product against the per-entry series product
    rng = np.random.default_rng(7)
    dim = 6
    for orders in [(0, 0), (0, 2), (1, 1), (2, 1), (2, 2)]:
        a, b = (OperatorMatrix(rng.uniform(-1, 1, (k + 1, dim, dim))) for k in orders)
        for max_order in range(4):
            got = a.mul(b, max_order)
            for n in range(dim):
                for m in range(dim):
                    ref = LambdaSeries.zero()
                    for k in range(dim):
                        ref = ref + a.entry(n, k) * b.entry(k, m)
                    ref = ref.truncated(max_order)
                    e = got.entry(n, m)
                    for j in range(max_order + 1):
                        assert abs(e[j] - ref[j]) <= 1e-14


def test_x3_levels_on_a_long_ladder():
    # guards the solver's scaling: the whole ladder up to n_max = 160
    t = solve_quantum(X3, n_max=160, order=1)
    for n in range(161):
        w = t.level(n)
        assert math.isclose(w[0], n + 0.5, rel_tol=1e-12)
        assert math.isclose(w[1], 0.375 * (n * n + n + 0.5), rel_tol=1e-12)


# ------------------------------------------------------------- one store


def _apply(t, mutate):
    from matrixmech.verify import apply_mutation

    if mutate:
        apply_mutation(t, mutate)
    return t


def _accessor_series(t):
    dim = t.x.dim
    out = [t.amp(n, m) for n in range(-1, dim + 1) for m in range(-1, dim + 1)]
    out += [t.dc_series(n) for n in range(-1, dim + 1)]
    out += [t.level(n) for n in range(dim)]
    out += [t.freq(n, m) for n in range(dim) for m in range(dim)]
    return out


@pytest.mark.parametrize("spec, mutate", [
    (X2, None), (X3, None), (OscillatorSpec(), None),
    (X2, "a2"), (X2, "a0"), (X3, "w"),
])
def test_store_invariants(spec, mutate):
    t = _apply(solve_quantum(spec, n_max=6, order=1), mutate)
    x = t.x.c
    assert x.shape == (3, t.n_max + t.pad + 3, t.n_max + t.pad + 3)
    assert np.array_equal(x, x.transpose(0, 2, 1))  # X is symmetric
    for n in range(-1, t.x.dim + 1):
        for m in range(-1, t.x.dim + 1):
            assert t.amp(n, m) == t.amp(m, n)
    assert all(type(c) is float for s in _accessor_series(t) for c in s.coeffs)


def test_level_unset_until_energy_levels():
    from matrixmech.ladder import energy_levels

    t = _base_ladder(OscillatorSpec(), 4, 0, pad=2)
    with pytest.raises(LadderError):
        t.level(0)
    energy_levels(t)
    assert t.level(0) and not t.amp(2, 2)
    with pytest.raises(LadderError):
        t.level(-1)
    with pytest.raises(LadderError):
        t.level(t.x.dim)


@pytest.mark.parametrize("spec, order, mutate", [
    (X2, 0, None), (X3, 0, None), (OscillatorSpec(), 0, None),
    (X2, 1, None), (X3, 1, None), (OscillatorSpec(), 1, None),
    (X2, 1, "a2"), (X2, 1, "a0"), (X3, 1, "w"),
])
def test_public_states_do_not_depend_on_n_max(spec, order, mutate):
    # the entries of the padded ladder are local, so the public states of an
    # n_max = 1 table equal those of a larger one exactly
    small = _apply(solve_quantum(spec, n_max=1, order=order), mutate)
    large = _apply(solve_quantum(spec, n_max=8, order=order), mutate)
    for n in range(2):
        assert small.level(n).coeffs == large.level(n).coeffs
        assert small.dc_series(n).coeffs == large.dc_series(n).coeffs
        for m in range(2):
            assert small.amp(n, m).coeffs == large.amp(n, m).coeffs


# ------------------------------------------------- one product per power of X


def _reference_solve(spec, n_max, order):
    """solve_quantum by whole-stack series products, each power of X formed
    afresh where it is used, and omega scattered diagonal by diagonal."""
    table = _base_ladder(spec, n_max, order, pad=3 * order + 2)
    x, w0sq, p = table.x.c, spec.omega0**2, spec.kind.force_power

    def power(q, max_order):
        out = x
        for _ in range(q - 1):
            out = series_product(out, x, max_order, np.matmul)
        return out

    for k in range(1, (order + 1 if order >= 1 and p else 0) + 1):
        f = np.tril(power(p, k - 1)[k - 1])
        if k > order:
            f[x.any(axis=0)] = 0.0
        n, m = np.nonzero(f)
        fk, tau = f[n, m], n - m
        rung = tau == 1
        n0, m0, t0 = n[~rung], m[~rung], tau[~rung]
        x[k, n0, m0] = x[k, m0, n0] = fk[~rung] / ((t0 * t0 - 1.0) * w0sq)
        n1, m1 = n[rung], m[rung]
        x0 = x[0, n1, m1]
        w1 = fk[rung] / x0 / (2.0 * spec.omega0)
        table.fund[1, n1] = w1
        x[1, n1, m1] = x[1, m1, n1] = -x0 * w1 / (2.0 * spec.omega0)

    fund = table.fund
    dim = fund.shape[1]
    hi, lo = np.nonzero(x.any(axis=0))
    omega = np.zeros((len(fund), dim, dim))
    window = np.zeros_like(fund)
    for d in range(1, min(int((hi - lo).max(initial=0)), dim - 1) + 1):
        window[:, d:] = window[:, d - 1 : -1] + fund[:, d:]
        n = np.arange(d, dim)
        omega[:, n, n - d] = window[:, d:]
        omega[:, n - d, n] = -window[:, d:]
    y = series_product(omega, x, order, np.multiply)
    e = (0.5 * spec.m) * (w0sq * series_product(x, x, order, np.matmul)
                          - series_product(y, y, order, np.matmul))
    if p and order >= 1:
        e[1:] += (spec.m / (p + 1.0)) * power(p + 1, order - 1)
    table.w = np.diagonal(e, axis1=1, axis2=2).copy()
    return table


@pytest.mark.filterwarnings("ignore::matrixmech.oscillator.SmallnessWarning")
@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("order", [0, 1])
def test_solve_matches_the_whole_stack_products_to_the_bit(kind, order):
    couplings = [0.0] if kind is Kind.HARMONIC else [0.0, 1e-4, -1e-4, 2e-3, -2e-3, 0.05]
    for units in [{}, {"m": 1.7, "omega0": 0.6, "planck_h": 3.1}]:
        for lam in couplings:
            spec = OscillatorSpec(lam=lam, kind=kind, **units)
            for n_max in [1, 2, 5, 10, 24, 48, 100, 257]:
                got, ref = solve_quantum(spec, n_max, order), _reference_solve(spec, n_max, order)
                for a, b in [(got.x.c, ref.x.c), (got.fund, ref.fund), (got.w, ref.w)]:
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (spec, n_max)


@pytest.mark.parametrize("kind, layers", [(Kind.QUADRATIC_FORCE, 12.5), (Kind.CUBIC_FORCE, 13.5)])
def test_solve_frees_its_pass_arrays_before_the_levels(kind, layers):
    # traced allocation peak of an order-1 solve, in dim x dim float layers
    # (11.0 for x2, 12.0 for x3): the passes' n - m and divisor grids, and
    # for x3 the top layer of X^3, are freed before the levels are built,
    # each about one layer, and Y is freed once Y^2 is formed; the table's
    # bits are pinned by test_solve_matches_the_whole_stack_products_to_the_bit
    spec = OscillatorSpec(lam=1e-3, kind=kind)
    solve_quantum(spec, 8, 1)
    tracemalloc.start()
    try:
        table = solve_quantum(spec, 256, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= layers * table.x.c[0].nbytes


@pytest.mark.parametrize("kind, order, products", [
    (Kind.QUADRATIC_FORCE, 1, 7), (Kind.CUBIC_FORCE, 1, 10), (Kind.HARMONIC, 1, 6),
    (Kind.QUADRATIC_FORCE, 0, 2), (Kind.CUBIC_FORCE, 0, 2),
])
def test_solve_forms_each_power_of_x_once(monkeypatch, kind, order, products):
    # x2 at order 1: X0^2, X0^3, the two lam^1 terms of X^2 and the three
    # of Y^2; x3 adds X0^4 and the two lam^1 terms of X^3
    calls = []
    matmul = np.matmul

    def counted(a, b):
        calls.append(None)
        return matmul(a, b)

    spec = OscillatorSpec(lam=0.0 if kind is Kind.HARMONIC else 1e-3, kind=kind)
    monkeypatch.setattr(np, "matmul", counted)
    solve_quantum(spec, 10, order)
    monkeypatch.undo()
    assert len(calls) == products


# ------------------------------------------- the ladder checks in one pass


def _reference_checks(table):
    """The residual, the energy matrix and the sizes of their terms, each
    by its own sums: omega, Omega, |X| and every power formed afresh per
    stack, the sizes with every term added by magnitude."""
    spec, x, order = table.spec, table.x.c, table.order
    top, p, ax = order + 1, spec.kind.force_power, np.abs(x)
    f = 2.0 * math.pi / spec.planck_h
    w = table.w
    omega = (w[:, :, None] - w[:, None, :]) * f
    big = (np.abs(w)[:, :, None] + np.abs(w)[:, None, :]) * f
    convention = np.where(np.eye(x.shape[1], dtype=bool), 1.0, 2.0)

    def power(x, q, max_order):
        out = x
        for _ in range(q - 1):
            out = series_product(out, x, max_order, np.matmul)
        return out

    def residual(x, wsq, sign):
        r = spec.omega0**2 * x + sign * series_product(wsq, x, top, np.multiply)
        if p:
            r[1:] += power(x, p, top - 1)
        return r * convention

    def energy(x, y, dy):
        e = (0.5 * spec.m) * (spec.omega0**2 * power(x, 2, order)
                              - series_product(y, dy, order, np.matmul))
        if p and order >= 1:
            e[1:] += (spec.m / (p + 1.0)) * power(x, p + 1, order - 1)
        return e

    y = series_product(omega, x, order, np.multiply)
    return (residual(x, series_product(omega, omega, top, np.multiply), -1.0),
            residual(ax, series_product(np.abs(omega), big, top, np.multiply), 1.0),
            energy(x, y, y),
            energy(ax, series_product(-np.abs(omega), ax, order, np.multiply),
                   series_product(big, ax, order, np.multiply)))


def _check_tables():
    """Solved tables of every kind and order, plain and under each --mutate
    that applies, in two unit sets."""
    for units in [{}, {"m": 1.7, "omega0": 0.6, "planck_h": 3.1}]:
        for kind, lam in [(Kind.HARMONIC, 0.0), (Kind.QUADRATIC_FORCE, 1e-3),
                          (Kind.QUADRATIC_FORCE, -1e-2), (Kind.CUBIC_FORCE, 1e-3),
                          (Kind.CUBIC_FORCE, -1e-2)]:
            for n_max, order, mutate in itertools.product([1, 3, 10, 48], [0, 1],
                                                          (None,) + MUTATIONS):
                table = solve_quantum(OscillatorSpec(lam=lam, kind=kind, **units), n_max, order)
                if mutate:
                    try:
                        apply_mutation(table, mutate)
                    except ValueError:  # not this kind's mutation
                        continue
                yield table


@pytest.mark.filterwarnings("ignore::matrixmech.oscillator.SmallnessWarning")
def test_checks_match_the_separate_sums_to_the_bit():
    for table in _check_tables():
        spec, pub = table.spec, table.n_max + 1
        r, r_size, e, e_size = _reference_checks(table)
        a = spec.ladder_amplitude
        scaled = spec.scaled(r, spec.omega0**2 * a, r_size)
        off = ~np.eye(pub, dtype=bool)
        worst_energy = spec.scaled(e[:, :pub, :pub][:, off], spec.m * spec.omega0**2 * a * a,
                                   e_size[:, :pub, :pub][:, off]).max(initial=0.0)
        worst = {d: float(scaled[:trusted_residual_order(spec.kind, table.order, d) + 1,
                                 np.arange(d, pub), np.arange(pub - d)].max())
                 for d in range(pub)}
        assert ladder_checks(table) == (worst, worst_energy)
        residuals = quantum_residuals(table)
        assert all(residuals[n, m] == LambdaSeries.from_coeffs(r[:, n, m].tolist())
                   for n in range(pub) for m in range(n + 1))
        assert energy_matrix(table, level_omega(table)).c.tobytes() == e.tobytes()


@pytest.mark.parametrize("order", [0, 1])
def test_worst_residual_per_delta_takes_nan_from_trusted_layers_only(monkeypatch, order):
    # x2 at order 1 trusts layers 0 .. 1 at delta 1 and 0 .. 2 at delta 3; at
    # order 0, layer 0 at delta 1 and 0 .. 1 at delta 3; layer 0 at every
    # delta.  A NaN in the residual at a trusted layer makes its delta's worst
    # NaN; one above is not read.
    table = solve_quantum(OscillatorSpec(lam=1e-3, kind=Kind.QUADRATIC_FORCE), 10, order)
    one_pass = ladder._residual_and_energy

    def doctored(table, x, wa, wb):
        r, e = one_pass(table, x, wa, wb)
        if x is table.x.c:
            r[order + 1, 5, 4] = np.nan  # delta 1, untrusted
            r[order + 1, 7, 4] = np.nan  # delta 3, trusted
            r[0, 9, 2] = np.nan  # delta 7
        return r, e

    monkeypatch.setattr(ladder, "_residual_and_energy", doctored)
    worst, _ = ladder_checks(table)
    spec, pub = table.spec, table.n_max + 1
    monkeypatch.undo()
    r, r_size, _, _ = _reference_checks(table)
    r[order + 1, 5, 4] = r[order + 1, 7, 4] = r[0, 9, 2] = np.nan
    a = spec.ladder_amplitude
    scaled = spec.scaled(r, spec.omega0**2 * a, r_size)
    reference = [scaled[:trusted_residual_order(spec.kind, order, d) + 1,
                        np.arange(d, pub), np.arange(pub - d)].max() for d in range(pub)]
    assert list(worst) == list(range(pub))
    assert np.isnan(worst[3]) and np.isnan(worst[7]) and not np.isnan(worst[1])
    np.testing.assert_array_equal(list(worst.values()), reference)


@pytest.mark.filterwarnings("ignore::matrixmech.oscillator.SmallnessWarning")
@pytest.mark.parametrize("kind, mutate", [
    (Kind.QUADRATIC_FORCE, None), (Kind.QUADRATIC_FORCE, "a2"), (Kind.QUADRATIC_FORCE, "a0"),
    (Kind.QUADRATIC_FORCE, "w"), (Kind.CUBIC_FORCE, None), (Kind.CUBIC_FORCE, "w"),
])
@pytest.mark.parametrize("lam", [1e-3, -1e-2])
@pytest.mark.parametrize("n_max", [3, 10, 48])
def test_the_size_of_the_terms_bounds_their_sum(monkeypatch, kind, mutate, lam, n_max):
    # ladder_checks forms the residual and the energy at (X, omega, omega)
    # and their sizes at (|X|, -|omega|, Omega); a size below its value
    # would let a fault pass as round-off
    table = solve_quantum(OscillatorSpec(lam=lam, kind=kind), n_max, 1)
    if mutate:
        apply_mutation(table, mutate)
    passes = {}
    one_pass = ladder._residual_and_energy

    def recorded(table, x, wa, wb):
        out = passes["values" if x is table.x.c else "sizes"] = one_pass(table, x, wa, wb)
        return out

    monkeypatch.setattr(ladder, "_residual_and_energy", recorded)
    ladder_checks(table)
    for value, size in zip(passes["values"], passes["sizes"]):
        assert np.all(np.abs(value) <= size * (1.0 + 1e-12))


@pytest.mark.parametrize("kind, order, products", [
    (Kind.QUADRATIC_FORCE, 1, 14), (Kind.CUBIC_FORCE, 1, 20), (Kind.HARMONIC, 1, 12),
    (Kind.QUADRATIC_FORCE, 0, 4), (Kind.CUBIC_FORCE, 0, 6),
])
def test_ladder_checks_form_each_power_once_per_pass(monkeypatch, kind, order, products):
    # per pass at order 1: x2 forms X^2 (three products, shared by the force
    # and the energy), X^3's first layer and the three terms of Y^2; x3
    # forms X^2 and X^3 (six) for the force, X^4's first layer and Y^2
    table = solve_quantum(OscillatorSpec(lam=0.0 if kind is Kind.HARMONIC else 1e-3,
                                         kind=kind), 10, order)
    calls = []
    matmul = np.matmul

    def counted(a, b):
        calls.append(None)
        return matmul(a, b)

    monkeypatch.setattr(np, "matmul", counted)
    ladder_checks(table)
    monkeypatch.undo()
    assert len(calls) == products


@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_ladder_checks_peak_memory(kind):
    # traced allocation peak above the solved table, in dim x dim float
    # layers: 19.7 for x2 and 20.0 for x3, where forming the residual and
    # the energy check apart peaked at 24.0; each pass frees its inputs
    # once read, and the sizes' pass runs first
    table = solve_quantum(OscillatorSpec(lam=1e-3, kind=kind), 256, 1)
    ladder_checks(solve_quantum(OscillatorSpec(lam=1e-3, kind=kind), 8, 1))
    tracemalloc.start()
    try:
        ladder_checks(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20.5 * table.x.c[0].nbytes
