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

import numpy as np

from . import classical as cl
from . import ladder as ld
from . import oracle as orc
from .oscillator import Kind
from .series import horner

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

    def add(self, name, measured, tolerance, detail=""):
        measured, tolerance = float(measured), float(tolerance)
        self.checks.append(CheckResult(name, measured <= tolerance, measured, tolerance, detail))


def apply_mutation(table: ld.TransitionTable, mutate: str) -> None:
    """Corrupt one ingredient of a solved table (fault injection).

    a2: scale every two-step amplitude by 1.5
    a0: flip the sign of every DC offset
    w:  shift every odd level by 1e-6 * hbar * omega0
    """
    x = table.x.c
    n = np.arange(x.shape[1])
    if mutate == "a2":
        if not np.diagonal(x, -2, 1, 2).any():
            raise ValueError("mutation 'a2' needs two-step amplitudes (x2 kind)")
        x[:, n[2:], n[:-2]] *= 1.5
        x[:, n[:-2], n[2:]] *= 1.5
    elif mutate == "a0":
        if not x[1:, n, n].any():
            raise ValueError("mutation 'a0' needs DC offsets (x2 kind)")
        x[1:, n, n] *= -1.0
    elif mutate == "w":
        table.w[0, 1::2] += 1e-6 * table.spec.hbar * table.spec.omega0
    else:
        raise ValueError(f"unknown mutation {mutate!r} (expected one of {MUTATIONS})")


def _residual_groups(table, report, tol):
    groups = {0: "eom_residual_dc", 1: "eom_residual_fundamental",
              2: "eom_residual_overtone2", 3: "eom_residual_overtone3",
              5: "eom_residual_overtone5"}
    worst: Dict[str, float] = {name: 0.0 for name in groups.values()}
    worst["eom_residual_other"] = 0.0
    for delta, v in ld.worst_scaled_residuals(table).items():
        name = groups.get(delta, "eom_residual_other")
        worst[name] = max(worst[name], v)
    for name, v in worst.items():
        report.add(name, v, tol)


def run_verification(
    table: ld.TransitionTable, tol: float = 1e-12, oracle_n: Optional[int] = None,
) -> VerificationReport:
    """Run every applicable invariant check on a solved table, mutated or
    not, and return the full report; oracle_n sizes the oracle's basis."""
    report = VerificationReport()
    spec, n_max, order = table.spec, table.n_max, table.order
    hb_w = spec.hbar * spec.omega0
    pub = n_max + 1

    # closed-form level spacing of the pure ladder
    if spec.kind is Kind.HARMONIC:
        ideal = (np.arange(pub) + 0.5) * hb_w
        w = table.w[:1, :pub]
        report.add("harmonic_level_spacing",
                   spec.scaled(w - ideal, hb_w, np.abs(w) + ideal).max(), tol)

    # action sum rule
    r, size = ld.sum_rule_residuals(table)
    report.add("quantization_sum_rule", spec.scaled(r[None], spec.planck_h, size[None]).max(), tol)

    _residual_groups(table, report, tol)

    report.add("offdiagonal_energy", ld.offdiagonal_energy_check(table), tol)
    report.add("frequency_consistency", ld.frequency_consistency(table), tol)

    # frequency additivity over the corner n > k > m, n <= 6
    lam = spec.lam
    c = min(n_max, 6) + 1
    o = horner(ld.level_omega(table)[:, :c, :c], lam)
    n, k, m = np.indices((c, c, c))
    r = (o[:, :, None] + o[None, :, :] - o[:, None, :])[(n > k) & (k > m)]
    report.add("ritz_additivity", spec.scaled(r[None], spec.omega0).max(initial=0.0), tol)

    if spec.kind is Kind.CUBIC_FORCE and order >= 1:
        # shifted fundamental frequency and amplitude against their closed forms
        n = np.arange(1, pub)
        omega, size = ld.rung_omega(table)
        coeff = 0.375 * spec.planck_h / (math.pi * spec.omega0**2 * spec.m)
        ideal = np.array([np.full(n_max, spec.omega0), coeff * n])
        report.add("frequency_closed_form",
                   spec.scaled(omega[:2] - ideal, spec.omega0, size[:2]).max(), tol)
        g = spec.ladder_amplitude
        a = 2.0 * table.x.c[:2, n, n - 1]
        a0 = g * np.sqrt(n)
        a1 = -a0 * (3.0 / 16.0) * spec.planck_h * n / (math.pi * spec.omega0**3 * spec.m)
        report.add("amplitude_closed_form", spec.scaled(a - [a0, a1], g, np.abs(a)).max(), tol)

        if lam != 0:
            # the series drops the curvature of 1/sqrt(omega): halving the
            # coupling must shrink the remainder by ~4
            def remainder(l):
                n = n_max
                if (omega := table.freq(n, n - 1).eval(l)) <= 0:
                    raise ValueError(f"series frequency omega({n}, {n - 1}) = {omega:.6g} is not "
                                     f"positive at lambda {l:g} (r = {spec.smallness_ratio():.3g})")
                exact = math.sqrt(n * spec.planck_h / (math.pi * spec.m * omega))
                return abs(table.amp(n, n - 1).eval(l) - exact)

            r1, r2 = remainder(lam), remainder(lam / 2)
            ratio = r1 / r2 if r2 else 4.0
            report.add("amplitude_quadratic_remainder", abs(ratio - 4.0), 1.0,
                       detail=f"remainder ratio {ratio:.3f} for coupling halving")

    # classical side, at the ladder's own amplitude scale
    a1 = spec.ladder_amplitude
    series = cl.solve_classical(spec, a1, order=order)
    resid = spec.scaled(cl.cos_rows(cl.classical_residual(series)), spec.omega0**2 * a1)
    tau, k = np.array(list(series.solved_set())).T
    report.add("classical_residual", resid[k, tau].max(), tol)

    periodic = cl.cos_rows(cl.classical_energy(series).periodic)
    report.add("classical_energy_periodic",
               spec.scaled(periodic, spec.m * spec.omega0**2 * a1 * a1).max(), tol)

    # oracle comparison: compare decides every gate, and each row maps the
    # failures of one gate word
    rep = orc.compare(table, n_basis=oracle_n)
    failed = {gate: [f for f in rep.failures if f.startswith(gate)]
              for gate in ("level", "amplitude", "convergence")}
    report.add("oracle_levels", len(failed["level"]), 0,
               "; ".join(failed["level"]) or f"max residual within envelope, basis {rep.n_basis}")
    if lam != 0:  # a harmonic spec has lam == 0
        report.add("oracle_scaling", rep.exponent_gap, orc.EXPONENT_GATE,
                   f"exponents {sorted(round(q, 3) for q in rep.fit_exponent.values())}")
        report.add("oracle_amplitudes", len(failed["amplitude"]), 0,
                   "; ".join(failed["amplitude"]) or "within 1.25*r^2")
    report.add("oracle_convergence", rep.convergence_delta, orc.CONVERGENCE_GATE,
               "; ".join(failed["convergence"]))

    return report
