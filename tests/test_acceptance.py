"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured value against its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Two sub-checks assert quoted closed-form values that the exact
computation provably cannot meet (details in their xfail reasons and in
the adjacent attainable tests); they are marked strict-xfail so the suite
stays green while the discrepancy stays visible.
"""

import json
import math
from fractions import Fraction

import pytest

from matrixmech.classical import (
    classical_energy,
    classical_residual,
    cos_table,
    solve_classical,
)
from matrixmech.cli import main as cli_main
from matrixmech.ladder import (
    offdiagonal_energy_check,
    quantization_residual,
    solve_quantum,
    worst_scaled_residuals,
)
from matrixmech.oracle import compare
from matrixmech.oscillator import Kind, OscillatorSpec
from matrixmech.translate import AmpRef, translate_product

TOL = 1e-12
LAM = 1e-3
X2 = OscillatorSpec(m=1, omega0=1, lam=LAM, kind=Kind.QUADRATIC_FORCE)
X3 = OscillatorSpec(m=1, omega0=1, lam=LAM, kind=Kind.CUBIC_FORCE)


def compare_spec(spec, n_max, n_basis=None):
    """compare on spec's order-1 table solved to n_max."""
    return compare(solve_quantum(spec, n_max=n_max, order=1), n_basis)


def report(num: str, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_01_harmonic_closed_form():
    table = solve_quantum(OscillatorSpec(), n_max=21, order=1)
    worst = max(abs(table.level(n).eval(0.0) - (n + 0.5)) for n in range(21))
    report("01", "harmonic levels (n+1/2)", worst <= TOL, f"max |W(n)-(n+1/2)| = {worst:.3e} <= {TOL}")
    assert worst <= TOL


def test_criterion_02_quantization_sum_rule():
    worst = 0.0
    for spec in (X2, X3, OscillatorSpec()):
        table = solve_quantum(spec, n_max=10, order=1)
        for n in range(10):
            worst = max(worst, abs(quantization_residual(table, n)) / spec.planck_h)
    report("02", "action sum rule", worst <= TOL, f"max |residual|/h = {worst:.3e} <= {TOL}")
    assert worst <= TOL


def test_criterion_03_quantum_residuals_and_translation():
    table = solve_quantum(X2, n_max=10, order=1)
    worst = max(worst_scaled_residuals(table).values())
    ok_resid = worst <= TOL

    def prod(*refs):
        return tuple(sorted(refs))

    # golden: the three-step equation's symmetrized product sum
    n = 6
    t = translate_product([1, 2], n, 3)
    expected = {
        prod(AmpRef.amp(n, n - 1), AmpRef.amp(n - 1, n - 3)): Fraction(1, 2),
        prod(AmpRef.amp(n, n - 2), AmpRef.amp(n - 2, n - 3)): Fraction(1, 2),
    }
    got = {term.factors: term.weight for term in t.terms}
    ok_1d = got == expected

    # golden: the next-order three-step source term, brace for brace
    t14 = {term.factors: term.weight for term in translate_product([1, 4], n, 3).terms}
    t03 = {term.factors: 2 * term.weight for term in translate_product([0, 3], n, 3).terms}
    ok_20 = t14 == {
        prod(AmpRef.amp(n, n + 1), AmpRef.amp(n + 1, n - 3)): Fraction(1, 2),
        prod(AmpRef.amp(n, n - 4), AmpRef.amp(n - 4, n - 3)): Fraction(1, 2),
    } and t03 == {
        prod(AmpRef.dc(n), AmpRef.amp(n, n - 3)): Fraction(1),
        prod(AmpRef.amp(n, n - 3), AmpRef.dc(n - 3)): Fraction(1),
    }

    ok = ok_resid and ok_1d and ok_20
    report("03", "equation-of-motion residuals + translation goldens", ok,
           f"max scaled residual = {worst:.3e} <= {TOL}; "
           f"three-step sum {'ok' if ok_1d else 'MISMATCH'}; "
           f"next-order braces {'ok' if ok_20 else 'MISMATCH'}")
    assert ok


def test_criterion_04_offdiagonal_energy():
    worst = 0.0
    for spec in (X2, X3):
        table = solve_quantum(spec, n_max=10, order=1)
        worst = max(worst, offdiagonal_energy_check(table))
    report("04", "off-diagonal energy entries vanish", worst <= TOL,
           f"max scaled |E(n,m)| = {worst:.3e} <= {TOL}")
    assert worst <= TOL


def test_criterion_05_cubic_closed_form_identities():
    table = solve_quantum(X3, n_max=10, order=1)
    g = X3.ladder_amplitude
    worst_w = worst_a = 0.0
    for n in range(1, 11):
        w = table.freq(n, n - 1)
        worst_w = max(worst_w, abs(w[0] - 1.0), abs(w[1] - 0.75 * n))
        a = table.amp(n, n - 1)
        worst_a = max(worst_a, abs(a[0] - g * math.sqrt(n)) / g,
                      abs(a[1] + g * math.sqrt(n) * 0.375 * n) / g)
    ok_forms = worst_w <= TOL and worst_a <= TOL

    # the remainder against the unexpanded sum-rule amplitude is O(lam^2):
    # halving the coupling divides it by ~4
    def remainder(lam):
        n = 8
        exact = math.sqrt(n * X3.planck_h / (math.pi * table.freq(n, n - 1).eval(lam)))
        return abs(table.amp(n, n - 1).eval(lam) - exact)

    ratio = remainder(LAM) / remainder(LAM / 2)
    ok_ratio = 3.5 < ratio < 4.5
    ok = ok_forms and ok_ratio
    report("05", "shifted frequency and amplitude closed forms", ok,
           f"coeff errors (w, a) = ({worst_w:.3e}, {worst_a:.3e}) <= {TOL}; "
           f"halving ratio {ratio:.3f} in (3.5, 4.5)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the first-order level misses the exact one "
    "by the second-order shift (34n^3+51n^2+59n+21)/128 * lam^2, i.e. up to "
    "4.6e-5 at n=5 for lam=1e-3, far above 5e-7.  Only n=0 meets 5e-7 at this "
    "coupling; all n<=5 meet it at lam=1e-4 (see the attainable variant).",
)
def test_criterion_06_oracle_agreement_stated():
    # each level row is |W_pert(n) - E_n| of the order-1 table against the
    # oracle's eigenvalue; the rows at lam = 1e-3 of the table's sweep
    worst = max(r.residual for r in compare_spec(X3, 5, 64).levels if r.lam == LAM)
    report("06a", "oracle agreement at quoted tolerance", worst <= 5e-7,
           f"max |W_pert - E_n| (n<=5, lam=1e-3, N=64) = {worst:.3e} vs 5e-7")
    assert worst <= 5e-7


def test_criterion_06_oracle_agreement_attainable():
    gap0 = next(r.residual for r in compare_spec(X3, 5, 64).levels if r.lam == LAM and r.n == 0)
    small = OscillatorSpec(m=1, omega0=1, lam=1e-4, kind=Kind.CUBIC_FORCE)
    worst_small = max(r.residual
                      for r in compare_spec(small, 5, 64).levels if r.lam == small.lam)
    ok = gap0 <= 5e-7 and worst_small <= 5e-7
    report("06b", "oracle agreement, attainable regime", ok,
           f"n=0 at lam=1e-3: {gap0:.3e} <= 5e-7; max n<=5 at lam=1e-4: "
           f"{worst_small:.3e} <= 5e-7")
    assert ok


def test_criterion_06_residual_scaling_exponent():
    rep = compare_spec(X3, 5, 64)
    assert rep.neglected_order == 2  # first order solved: the residual is O(lam^2)
    worst = max(abs(q - 2.0) for q in rep.fit_exponent.values())
    report("06c", "residual scaling exponent", worst <= 0.2,
           f"max |exponent - 2| = {worst:.3f} <= 0.2 over lam in [5e-4, 4e-3]")
    assert worst <= 0.2


def test_criterion_07_amplitude_oracle():
    # amplitudes are compared at lam/2 of the table's coupling: 1e-3 here
    rep = compare_spec(OscillatorSpec(m=1, omega0=1, lam=2 * LAM, kind=Kind.CUBIC_FORCE), 5, 64)
    assert rep.base_lam == LAM
    worst = max(a.rel_error_exact for a in rep.amplitudes)
    ok = worst <= 5 * LAM**2
    # informational: the linearized series alone drifts at O((n lam)^2)
    series_worst = max(a.rel_error_series for a in rep.amplitudes)
    report("07", "doubled x-elements vs sum-rule amplitudes", ok,
           f"max rel err = {worst:.3e} <= 5*lam^2 = {5 * LAM**2:.1e} "
           f"(first-order series alone: {series_worst:.3e})")
    assert ok


def test_criterion_08_classical_fixtures():
    s2 = solve_classical(X2, Fraction(1), 1)
    exact2 = (
        s2.coeff(0, 1) == Fraction(-1, 2)
        and s2.coeff(2, 1) == Fraction(1, 6)
        and s2.coeff(3, 2) == Fraction(1, 48)
    )
    s3 = solve_classical(X3, Fraction(1), 1)
    exact3 = s3.coeff(3, 1) == Fraction(1, 32) and s3.omega_sq[1] == Fraction(3, 4)

    worst = 0.0
    for spec, series in ((X2, s2), (X3, s3)):
        resid = cos_table(classical_residual(series))
        for (tau, k) in series.solved_set():
            worst = max(worst, abs(resid.get((tau, k), 0))
                        / (spec.omega0**2 * spec.order_unit(k, 1)))
    ok = exact2 and exact3 and worst <= TOL
    report("08", "classical fixtures by back-substitution", ok,
           f"coefficients exact: {exact2 and exact3}; max residual = {worst:.3e} <= {TOL}")
    assert ok


def test_criterion_09_classical_energy_quadratic():
    s = solve_classical(X2, 1.0, 1)
    e = classical_energy(s)
    ok = (math.isclose(e.constant[0], 0.5, rel_tol=1e-14)
          and abs(e.constant[1]) <= TOL and e.max_periodic() <= TOL)
    report("09a", "x2 energy: constant m*w0^2*a1^2/2 only, periodic vanish", ok,
           f"constant = ({e.constant[0]!r}, {e.constant[1]!r}), "
           f"max periodic = {e.max_periodic():.3e}")
    assert ok


def test_criterion_09_classical_energy_cubic_periodic():
    e = classical_energy(solve_classical(X3, Fraction(1), 1))
    worst = float(e.max_periodic())
    report("09b", "x3 energy: periodic terms vanish", worst <= TOL,
           f"max periodic coefficient = {worst:.3e} <= {TOL}")
    assert worst <= TOL


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the quoted constant (1/2)m w0^2 a1^2 + "
    "(3/32)m lam a1^4 is only the anharmonic-potential share (equivalently the "
    "fixed-action shift); the full constant term of the reduced energy is "
    "(9/32)m lam a1^4 at first order, as the t=0 evaluation of the conserved "
    "energy forces once the periodic terms vanish.  Both values are exposed "
    "(constant vs anharmonic_constant) and tested in the adjacent test.",
)
def test_criterion_09_cubic_constant_term_quoted():
    e = classical_energy(solve_classical(X3, Fraction(1), 1))
    ok = e.constant[1] == Fraction(3, 32)
    report("09c", "x3 energy constant term, quoted value", ok,
           f"first-order constant = {e.constant[1]} vs quoted 3/32 "
           f"(anharmonic share = {e.anharmonic_constant[1]})")
    assert ok


def test_criterion_09_cubic_constant_term_decomposition():
    e = classical_energy(solve_classical(X3, Fraction(1), 1))
    ok = (e.constant[0] == Fraction(1, 2)
          and e.constant[1] == Fraction(9, 32)
          and e.anharmonic_constant[1] == Fraction(3, 32))
    report("09d", "x3 energy constant term, exact decomposition", ok,
           f"constant = 1/2 + {e.constant[1]}*lam; anharmonic share = "
           f"{e.anharmonic_constant[1]}*lam (the quoted coefficient)")
    assert ok


@pytest.mark.parametrize(
    "kind,mutate,expected_fail",
    [
        ("x2", "a2", "eom_residual_overtone2"),
        ("x2", "a0", "offdiagonal_energy"),
        ("x3", "w", "frequency_consistency"),
    ],
)
def test_criterion_10_fault_sensitivity(capsys, kind, mutate, expected_fail):
    code = cli_main(["verify", "--kind", kind, "--lambda", "0.001", "--nmax", "6",
                     "--mutate", mutate, "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    status = {c["name"]: c["passed"] for c in payload["checks"]}
    ok = code == 1 and payload["passed"] is False and status[expected_fail] is False
    with capsys.disabled():
        report("10", f"fault '{mutate}' detected", ok,
               f"exit={code}, named check '{expected_fail}' failed={not status[expected_fail]}")
    assert ok
