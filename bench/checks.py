"""Checks of every command output against formulas written here.

Nothing is imported from matrixmech: the references are closed forms of
perturbation theory in units hbar = m = omega0 = 1 (the CLI defaults).
Each checker returns a list of error strings; an operation with any error
counts as failed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from workloads import MUTATIONS, Job

# Ladder values are serialized with 15 significant digits and carry
# round-off of order 1e-13 relative; a corruption of 1e-6 must still show.
REL_TOL = 1e-10
# eigh round-off on the oracle's levels, floor under the O(lambda^3) bound
ORACLE_FLOOR = 1e-11
# margin on the first neglected perturbative term
NEXT_ORDER_MARGIN = 1.5
# a lambda^2 residual fitted over lambda/2 .. 4*lambda
FIT_EXPONENT = 2.0
FIT_EXPONENT_TOL = 0.05

# line families: ladder step -> power of lambda at which the amplitude appears
LINE_STEPS = {"x2": {1: 0, 2: 1, 3: 2}, "x3": {1: 0, 3: 1, 5: 2}}
# checks every unmutated verify run must report, by kind
REQUIRED_CHECKS = {
    "harmonic": ("harmonic_level_spacing",),
    "x2": ("eom_residual_overtone2",),
    "x3": ("frequency_closed_form", "amplitude_closed_form"),
}
COMMON_CHECKS = ("quantization_sum_rule", "eom_residual_fundamental",
                 "offdiagonal_energy", "frequency_consistency", "ritz_additivity",
                 "classical_residual", "oracle_levels", "oracle_convergence")


# ---------------------------------------------------------------------------
# Rayleigh-Schroedinger closed forms


def w1(kind: str, n: int) -> float:
    """First-order level shift coefficient: (3/8)(n^2 + n + 1/2) for x3."""
    return 0.375 * (n * n + n + 0.5) if kind == "x3" else 0.0


def level(kind: str, n: int, lam: float) -> float:
    """Level through first order."""
    return n + 0.5 + lam * w1(kind, n)


def w2(kind: str, n: int) -> float:
    """Second-order level shift coefficient."""
    if kind == "x2":
        return -(30 * n * n + 30 * n + 11) / 72.0
    if kind == "x3":
        return -(34 * n**3 + 51 * n * n + 59 * n + 21) / 128.0
    return 0.0


def next_order(kind: str, n: int, lam: float) -> float:
    """Size of the first term beyond second order.

    x3 (g x^4 with g = lam/4): (3/16)(125n^4+250n^3+472n^2+347n+111) g^3.
    x2 (g x^3 with g = lam/3): odd orders vanish, and the fourth-order
    term is -(1410n^3+2115n^2+1635n+465)/2592 lam^4.
    """
    if kind == "x3":
        return 3.0 / 1024.0 * (125 * n**4 + 250 * n**3 + 472 * n * n + 347 * n + 111) * abs(lam) ** 3
    if kind == "x2":
        return (1410 * n**3 + 2115 * n * n + 1635 * n + 465) / 2592.0 * lam**4
    return 0.0


def fundamental_amp(kind: str, n: int, lam: float) -> float:
    """a(n, n-1) through first order: sqrt(2n), times (1 - 3n lam/8) for x3."""
    a0 = math.sqrt(2.0 * n)
    return a0 * (1.0 - 0.375 * n * lam) if kind == "x3" else a0


def overtone_amp_sq(kind: str, n: int, lam: float) -> float:
    """Squared first-overtone amplitude at leading order.

    x2: a(n, n-2) = lam sqrt(n(n-1))/3; x3: a(n, n-3) = lam sqrt(8n(n-1)(n-2))/32.
    """
    if kind == "x2":
        return lam * lam * n * (n - 1) / 9.0
    return lam * lam * n * (n - 1) * (n - 2) / 128.0


# ---------------------------------------------------------------------------
# helpers


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _csv(stdout: str, header: str) -> List[List[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[0] if lines else ''!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# one checker per command


def check_levels(job: Job, stdout: str) -> List[str]:
    errors = []
    rows = _csv(stdout, "n,W0,W1,W_total")
    if [int(r[0]) for r in rows] != list(range(job.n_max + 1)):
        return [f"levels rows are not n = 0..{job.n_max}"]
    for r in rows:
        n, w0, c1, total = int(r[0]), float(r[1]), float(r[2]), float(r[3])
        want1 = w1(job.kind, n)
        if not (_close(w0, n + 0.5) and _close(c1, want1)
                and _close(total, n + 0.5 + job.lam * want1)):
            errors.append(f"level n={n}: W0={w0!r} W1={c1!r} W={total!r}, "
                          f"want {n + 0.5!r} {want1!r}")
    return errors


def check_lines(job: Job, stdout: str) -> List[str]:
    errors = []
    rows = _csv(stdout, "n,m,omega,rel_intensity,amp_order")
    steps = LINE_STEPS[job.kind]
    lam = job.lam
    want_pairs = {(n, n - s) for s in steps for n in range(s, job.n_max + 1)}
    got_pairs = {(int(r[0]), int(r[1])) for r in rows}
    if got_pairs != want_pairs or len(rows) != len(want_pairs):
        errors.append(f"line set differs: missing {sorted(want_pairs - got_pairs)[:5]}, "
                      f"extra {sorted(got_pairs - want_pairs)[:5]}")
    peak = max(fundamental_amp(job.kind, n, lam) ** 2 for n in range(1, job.n_max + 1))
    top = 0.0
    for r in rows:
        n, m, omega, inten, order = int(r[0]), int(r[1]), float(r[2]), float(r[3]), int(r[4])
        step = n - m
        top = max(top, inten)
        # omega(n, m) = W(n) - W(m) at the same coupling (Ritz combination)
        want = level(job.kind, n, lam) - level(job.kind, m, lam)
        if not _close(omega, want):
            errors.append(f"line {n}->{m}: omega={omega!r}, want {want!r}")
        if steps.get(step) != order:
            errors.append(f"line {n}->{m}: amp_order={order}, want {steps.get(step)}")
        if not 0.0 < inten <= 1.0:
            errors.append(f"line {n}->{m}: rel_intensity={inten!r} outside (0, 1]")
        elif step == 1 or steps.get(step) == 1:
            raw = (fundamental_amp(job.kind, n, lam) ** 2 if step == 1
                   else overtone_amp_sq(job.kind, n, lam))
            if not _close(inten, raw / peak, 1e-9):
                errors.append(f"line {n}->{m}: rel_intensity={inten!r}, want {raw / peak!r}")
    if not _close(top, 1.0, 1e-14):
        errors.append(f"largest rel_intensity is {top!r}, not 1")
    return errors


def check_oracle(job: Job, stdout: str) -> List[str]:
    errors = []
    rows = _csv(stdout, "row,lambda,n,value1,value2,value3")
    kind, lam = job.kind, job.lam
    n_track = min(5, job.n_max)
    sweep = (lam / 2, lam, 2 * lam, 4 * lam)
    exact: Dict[Tuple[float, int], float] = {}
    fits = {}
    amps = []
    for r in rows:
        if r[0] == "level":
            l_got, n = float(r[1]), int(r[2])
            l = next((s for s in sweep if _close(l_got, s, 1e-14)), None)
            if l is None:
                errors.append(f"level row at lambda {l_got!r} outside the sweep {sweep}")
                continue
            pert, e, resid = float(r[3]), float(r[4]), float(r[5])
            exact[(l, n)] = e
            if not _close(pert, level(kind, n, l)):
                errors.append(f"W_pert n={n} lam={l!r}: {pert!r}, want {level(kind, n, l)!r}")
            rs2 = level(kind, n, l) + l * l * w2(kind, n)
            bound = NEXT_ORDER_MARGIN * next_order(kind, n, l) + ORACLE_FLOOR
            if abs(e - rs2) > bound:
                errors.append(f"E_exact n={n} lam={l!r}: |E - RS2| = {abs(e - rs2):.3e} > {bound:.3e}")
            if not _close(resid, abs(pert - e), 1e-12):
                errors.append(f"residual n={n} lam={l!r}: {resid!r} != |W_pert - E_exact|")
        elif r[0] == "fit":
            fits[int(r[2])] = float(r[4])
        elif r[0] == "amplitude":
            amps.append((float(r[1]), int(r[2]), float(r[3]), float(r[4]), float(r[5])))
        else:
            errors.append(f"unknown row kind {r[0]!r}")
    if set(exact) != {(l, n) for l in sweep for n in range(n_track + 1)}:
        errors.append(f"level rows do not cover the sweep x n = 0..{n_track}")
    if set(fits) != set(range(n_track + 1)):
        errors.append(f"fit rows do not cover n = 0..{n_track}")
    for n, q in fits.items():
        if abs(q - FIT_EXPONENT) > FIT_EXPONENT_TOL:
            errors.append(f"fit n={n}: exponent {q!r} not within {FIT_EXPONENT_TOL} of 2")
    if [a[1] for a in amps] != list(range(1, n_track + 1)):
        errors.append(f"amplitude rows are not n = 1..{n_track}")
    for l_got, n, measured, sum_rule, series in amps:
        l = next((s for s in sweep if _close(l_got, s, 1e-14)), None)
        if l is None or (l, n) not in exact or (l, n - 1) not in exact:
            errors.append(f"amplitude n={n} at lambda {l_got!r} has no level rows")
            continue
        if not _close(series, fundamental_amp(kind, n, l)):
            errors.append(f"amplitude n={n}: series form {series!r}, want {fundamental_amp(kind, n, l)!r}")
        want = math.sqrt(2.0 * n / (exact[(l, n)] - exact[(l, n - 1)]))
        if not _close(sum_rule, want, 1e-9):
            errors.append(f"amplitude n={n}: sum-rule form {sum_rule!r}, want {want!r}")
        # 2|<n-1|x|n>| agrees with the sum-rule form up to O(lambda^2)
        if not abs(measured - sum_rule) <= 5.0 * l * l * sum_rule:
            errors.append(f"amplitude n={n}: measured {measured!r} vs sum-rule form {sum_rule!r}")
    return errors


def check_verify(job: Job, stdout: str) -> List[str]:
    errors = []
    rows = _csv(stdout, "check,status,measured,tolerance")
    status = {}
    for name, verdict, measured, tol in rows:
        status[name] = verdict
        if verdict != ("PASS" if float(measured) <= float(tol) else "FAIL"):
            errors.append(f"check {name}: {verdict} with measured {measured} vs tolerance {tol}")
    if job.mutate:
        target = MUTATIONS[job.mutate][1]
        if status.get(target) != "FAIL":
            errors.append(f"mutation {job.mutate}: check {target} is {status.get(target)}, want FAIL")
        return errors
    for name in COMMON_CHECKS + REQUIRED_CHECKS[job.kind]:
        if name not in status:
            errors.append(f"check {name} missing")
    errors += [f"check {name} failed" for name, v in status.items() if v != "PASS"]
    return errors


CHECKERS = {
    "levels": check_levels,
    "lines": check_lines,
    "oracle-compare": check_oracle,
    "verify": check_verify,
}


def check_job(job: Job, code, stdout: str) -> List[str]:
    """Errors of one command's result; code is the exit code or an error text."""
    if code != job.expected_code:
        return [f"{' '.join(job.argv)}: exit {code!r}, want {job.expected_code}"]
    try:
        errors = CHECKERS[job.command](job, stdout)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        errors = [f"unreadable output: {exc}"]
    return [f"{' '.join(job.argv)}: {e}" for e in errors]


def check_op(jobs: Sequence[Job], results: Sequence[Tuple[object, str]]) -> List[str]:
    """Errors of one operation (one pass over the job list)."""
    errors = []
    for job, (code, stdout) in zip(jobs, results):
        errors += check_job(job, code, stdout)
    return errors
