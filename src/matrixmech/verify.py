"""Named consistency checks over a solved transition table.

Each check measures one invariant and compares it against a tolerance;
cmd_verify serializes the results and fails loudly on any miss.  The
mutation hooks deliberately corrupt a solved table so the fault shows up
in the corresponding named check (used by the fault-injection tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import classical as cl
from . import ladder as ld
from . import oracle as orc
from .oscillator import Kind, OscillatorSpec
from .series import LambdaSeries

MUTATIONS = ("a2", "a0", "w")


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


@dataclass
class VerificationReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, measured, tolerance, detail="", passed=None):
        ok = (measured <= tolerance) if passed is None else passed
        self.checks.append(CheckResult(name, ok, float(measured), float(tolerance), detail))


def apply_mutation(table: ld.TransitionTable, mutate: str) -> None:
    """Corrupt one ingredient of a solved table (fault injection).

    a2: scale every two-step amplitude by 1.5
    a0: flip the sign of every DC offset
    w:  shift every odd level by 1e-6 * hbar * omega0
    """
    spec = table.spec
    if mutate == "a2":
        keys = [k for k in table.amps if k[0] - k[1] == 2]
        if not keys:
            raise ValueError("mutation 'a2' needs two-step amplitudes (x2 kind)")
        for k in keys:
            table.amps[k] = table.amps[k].scaled(1.5)
    elif mutate == "a0":
        if not table.dc:
            raise ValueError("mutation 'a0' needs DC offsets (x2 kind)")
        for n in list(table.dc):
            table.dc[n] = -table.dc[n]
    elif mutate == "w":
        bump = 1e-6 * spec.hbar * spec.omega0
        for n in list(table.levels):
            if n % 2 == 1:
                table.levels[n] = table.levels[n] + LambdaSeries.const(bump)
    else:
        raise ValueError(f"unknown mutation {mutate!r} (expected one of {MUTATIONS})")


def _residual_groups(spec, table, report, tol):
    groups = {0: "eom_residual_dc", 1: "eom_residual_fundamental",
              2: "eom_residual_overtone2", 3: "eom_residual_overtone3",
              5: "eom_residual_overtone5"}
    worst: Dict[str, float] = {name: 0.0 for name in groups.values()}
    worst["eom_residual_other"] = 0.0
    for delta, v in ld.worst_scaled_residuals(spec, table).items():
        name = groups.get(delta, "eom_residual_other")
        worst[name] = max(worst[name], v)
    for name, v in worst.items():
        report.add(name, v, tol)


def run_verification(
    spec: OscillatorSpec,
    n_max: int = 10,
    order: int = 1,
    tol: float = 1e-12,
    oracle_n: Optional[int] = None,
    mutate: Optional[str] = None,
) -> VerificationReport:
    """Run every applicable invariant check and return the full report."""
    report = VerificationReport()
    table = ld.solve_quantum(spec, n_max=n_max, order=order)
    if mutate:
        apply_mutation(table, mutate)

    hb_w = spec.hbar * spec.omega0

    # closed-form level spacing of the pure ladder
    if spec.kind is Kind.HARMONIC:
        worst = max(
            abs(table.level(n).eval(0.0) - (n + 0.5) * hb_w) / hb_w
            for n in range(n_max + 1)
        )
        report.add("harmonic_level_spacing", worst, tol)

    # action sum rule
    worst = max(
        abs(ld.quantization_residual(spec, table, n)) / spec.planck_h
        for n in range(n_max)
    )
    report.add("quantization_sum_rule", worst, tol)

    _residual_groups(spec, table, report, tol)

    report.add("offdiagonal_energy", ld.offdiagonal_energy_check(spec, table), tol)
    report.add("frequency_consistency", ld.frequency_consistency(table), tol)

    # symmetry and frequency additivity (structural, verified numerically)
    lam = spec.lam
    worst = 0.0
    for n in range(2, min(n_max, 6) + 1):
        for k in range(n):
            for m in range(k):
                r = table.freq(n, k).eval(lam) + table.freq(k, m).eval(lam) - table.freq(n, m).eval(lam)
                worst = max(worst, abs(r) / spec.omega0)
    report.add("ritz_additivity", worst, tol)

    if spec.kind is Kind.CUBIC_FORCE and order >= 1:
        # shifted fundamental frequency against its closed form
        coeff = 0.375 * spec.planck_h / (math.pi * spec.omega0**2 * spec.m)
        worst = 0.0
        worst_amp = 0.0
        g = spec.ladder_amplitude
        for n in range(1, n_max + 1):
            w = table.freq(n, n - 1)
            worst = max(worst, abs(w[0] - spec.omega0) / spec.omega0,
                        abs(w[1] - coeff * n) / spec.omega0)
            a = table.amp(n, n - 1)
            a0 = g * math.sqrt(n)
            a1 = -a0 * (3.0 / 16.0) * spec.planck_h * n / (math.pi * spec.omega0**3 * spec.m)
            worst_amp = max(worst_amp, abs(a[0] - a0) / g, abs(a[1] - a1) / g)
        report.add("frequency_closed_form", worst, tol)
        report.add("amplitude_closed_form", worst_amp, tol)

        if lam != 0:
            # the series drops the curvature of 1/sqrt(omega): halving the
            # coupling must shrink the remainder by ~4
            def remainder(l):
                n = n_max
                exact = math.sqrt(n * spec.planck_h / (math.pi * spec.m * table.freq(n, n - 1).eval(l)))
                return abs(table.amp(n, n - 1).eval(l) - exact)

            r1, r2 = remainder(lam), remainder(lam / 2)
            ratio = r1 / r2 if r2 else 4.0
            report.add("amplitude_quadratic_remainder", abs(ratio - 4.0), 1.0,
                       detail=f"remainder ratio {ratio:.3f} for coupling halving")

    # classical side, at the ladder's own amplitude scale
    a1 = spec.ladder_amplitude
    series = cl.solve_classical(spec, a1, order=order)
    resid = cl.classical_residual(spec, series)
    worst = 0.0
    for (tau, k) in series.solved_set():
        worst = max(worst, abs(resid.get((tau, k), 0)) / cl.residual_scale(spec, a1, k))
    report.add("classical_residual", worst, tol)

    energy = cl.classical_energy(spec, series)
    scale = spec.m * spec.omega0**2 * a1 * a1
    report.add("classical_energy_periodic", energy.max_periodic() / scale, tol)

    # oracle comparison
    n_track = min(5, n_max - 1)
    rep = orc.compare(spec, orc.coupling_sweep(lam), n_track=n_track, n_basis=oracle_n,
                      table=table)
    level_fails = [f for f in rep.failures if f.startswith("level")]
    amp_fails = [f for f in rep.failures if f.startswith("amplitude")]
    report.add("oracle_levels", float(len(level_fails)), 0.0,
               detail="; ".join(level_fails) or f"max residual within envelope, basis {rep.n_basis}")
    if spec.kind is not Kind.HARMONIC and lam != 0:
        worst = max(abs(q - 2.0) for q in rep.fit_exponent.values())
        report.add("oracle_scaling", worst, 0.2,
                   detail=f"exponents {sorted(round(q, 3) for q in rep.fit_exponent.values())}")
        report.add("oracle_amplitudes", float(len(amp_fails)), 0.0,
                   detail="; ".join(amp_fails) or "within 5*lam^2")
    report.add("oracle_convergence", rep.convergence_delta / hb_w, 1e-10)

    return report
