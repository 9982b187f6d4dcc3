"""Classical anharmonic oscillator solved by harmonic balance.

The displacement is expanded over harmonics of one renormalized
fundamental frequency,

    x(t) = sum_{tau,k}  c[tau,k] * lam^k * cos(tau*w*t),      w^2 = sum_j w[j]*lam^j,

and the equation of motion x'' + omega0^2 x + lam x^p = 0 is reduced with
product-to-sum identities.  Matching the coefficient of lam^k cos(tau*w*t)
to zero order by order determines every c[tau,k] (tau != 1) and the
frequency corrections w[k]; the fundamental amplitude c[1,0] = a1 stays
free and its higher corrections are fixed to zero by convention.

The recursion is generic over the force power p, so the same machinery
that produces the textbook leading coefficients also produces the
next-order ones used as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .oscillator import Kind, OscillatorSpec
from .series import LambdaSeries

ORDER_CAP = 4

CosTable = Dict[Tuple[int, int], object]  # (harmonic tau, lam order k) -> coefficient


class SeriesOrderError(ValueError):
    """Requested expansion order outside the supported range."""


class DegenerateDivisorError(ArithmeticError):
    """A harmonic-balance divisor vanished (resonant harmonic)."""


def _tab_add(table: CosTable, key, value) -> None:
    if value:
        table[key] = table.get(key, 0) + value


def cos_table_mul(a: CosTable, b: CosTable) -> CosTable:
    """Product of two cosine tables, reduced to single cosines.

    cos(p)cos(q) = [cos(p+q) + cos(p-q)]/2; the tau = 0 row is the plain
    constant term, so it multiplies without the 1/2.
    """
    out: CosTable = {}
    for (t1, k1), c1 in a.items():
        if not c1:
            continue
        for (t2, k2), c2 in b.items():
            v = c1 * c2
            if not v:
                continue
            k = k1 + k2
            if t1 == 0 or t2 == 0:
                _tab_add(out, (t1 + t2, k), v)
            else:
                _tab_add(out, (t1 + t2, k), v / 2)
                _tab_add(out, (abs(t1 - t2), k), v / 2)
    return out


def sin_table_mul_from_cos(a: CosTable, b: CosTable) -> CosTable:
    """Table of (d/dphase a)(d/dphase b) up to the w^2 factor.

    With x = sum c cos(tau*w*t), xdot carries -c*tau*w sin(tau*w*t); this
    returns sum c1*c2*t1*t2*sin(t1)sin(t2) reduced via
    sin(p)sin(q) = [cos(p-q) - cos(p+q)]/2.  Multiply by the w^2 series
    to get the xdot^2 table.
    """
    out: CosTable = {}
    for (t1, k1), c1 in a.items():
        if t1 == 0 or not c1:
            continue
        for (t2, k2), c2 in b.items():
            if t2 == 0 or not c2:
                continue
            v = c1 * c2 * t1 * t2
            k = k1 + k2
            _tab_add(out, (abs(t1 - t2), k), v / 2)
            _tab_add(out, (t1 + t2, k), -v / 2)
    return out


def _table_times_series(table: CosTable, series) -> CosTable:
    out: CosTable = {}
    for (t, k), c in table.items():
        for j, s in enumerate(series):
            _tab_add(out, (t, k + j), c * s)
    return out


def _table_shift(table: CosTable) -> CosTable:
    """Multiply by lam: the lam*x^p force and potential terms."""
    return {(t, k + 1): c for (t, k), c in table.items()}


def _table_power(table: CosTable, p: int) -> CosTable:
    out = dict(table)
    for _ in range(p - 1):
        out = cos_table_mul(out, table)
    return out


@dataclass(frozen=True)
class FourierSeries:
    """Harmonic-balance solution of one oscillator.

    coeffs[(tau, k)] is the lam^k coefficient of cos(tau*w*t); omega_sq
    holds w^2 as a series (w itself is the positive square root, taken
    at evaluation time).  Coefficients are lam-independent: the solution
    for any coupling is obtained by evaluating the same table.
    """

    kind: Kind
    a1: object
    coeffs: CosTable
    omega_sq: LambdaSeries
    max_order: int
    extension_order: int = field(default=0)  # leading coeffs solved at max_order+1

    def coeff(self, tau: int, k: int):
        return self.coeffs.get((tau, k), 0)

    def harmonic_series(self, tau: int) -> LambdaSeries:
        top = max((k for (t, k) in self.coeffs if t == tau), default=-1)
        return LambdaSeries.from_coeffs(self.coeff(tau, k) for k in range(top + 1))

    @property
    def max_harmonic(self) -> int:
        return max((t for (t, _) in self.coeffs), default=1)

    def solved_set(self) -> set:
        """Keys (tau, k) whose balance equations this solution satisfies."""
        return solved_keys(self.kind, self.max_order)


def _harmonics(kind: Kind, max_tau: int):
    if kind is Kind.CUBIC_FORCE:
        return [t for t in range(1, max_tau + 1, 2)]
    if kind is Kind.QUADRATIC_FORCE:
        return list(range(0, max_tau + 1))
    return [1]


def leading_order(kind: Kind, tau: int) -> int:
    """lam power at which the tau-th harmonic first appears."""
    if kind is Kind.QUADRATIC_FORCE:
        return 1 if tau == 0 else tau - 1
    if kind is Kind.CUBIC_FORCE:
        if tau % 2 == 0:
            raise ValueError("even harmonics never appear for the x3 kind")
        return (tau - 1) // 2
    return 0 if tau == 1 else None


def solved_keys(kind: Kind, order: int) -> set:
    """All (tau, k) the order-by-order solve pins down.

    The full triangle k <= order for every admissible harmonic, plus the
    leading coefficient of the first harmonic that enters at order+1
    (the structural cross-check one level deeper).
    """
    if kind is Kind.HARMONIC:
        return {(1, 0)}
    keys: set = set()
    max_tau = _max_tau(kind, order)
    for tau in _harmonics(kind, max_tau):
        lead = leading_order(kind, tau)
        for k in range(lead, order + 1):
            keys.add((tau, k))
    keys.add((1, 0))
    keys.add((_max_tau(kind, order + 1), order + 1))
    return keys


def _max_tau(kind: Kind, order: int) -> int:
    # highest harmonic whose leading coefficient lies at lam^order
    return order + 1 if kind is Kind.QUADRATIC_FORCE else 2 * order + 1


def solve_classical(spec: OscillatorSpec, a1, order: int) -> FourierSeries:
    """Harmonic-balance solution with fundamental amplitude a1.

    Solves every harmonic through lam^order and additionally the leading
    coefficient of the next harmonic up (at lam^(order+1)), which the
    triangular structure of the recursion makes available for free.
    Passing Fraction inputs (with rational spec values) keeps the result
    exact.
    """
    if order < 0:
        raise SeriesOrderError("order must be nonnegative")
    if order > ORDER_CAP:
        raise SeriesOrderError(f"order {order} exceeds cap {ORDER_CAP}")
    spec.check_smallness(abs(a1))

    w0sq = spec.omega0**2
    if spec.kind is Kind.HARMONIC:
        return FourierSeries(
            kind=spec.kind,
            a1=a1,
            coeffs={(1, 0): a1},
            omega_sq=LambdaSeries.const(w0sq),
            max_order=order,
            extension_order=0,
        )

    p = spec.kind.force_power
    coeffs: CosTable = {(1, 0): a1}
    w = [w0sq]  # omega^2 series
    max_tau = _max_tau(spec.kind, order)
    tau_ext = _max_tau(spec.kind, order + 1)

    for k in range(1, order + 2):
        # lam*x^p contributes (x^p)(tau, k-1) at lam^k; only orders < k
        # of coeffs enter, so the recursion is triangular.
        nl_table = _table_power(coeffs, p)
        if k <= order:
            taus = _harmonics(spec.kind, max_tau)
        else:
            taus = [tau_ext]
        new: CosTable = {}
        w_next = None
        for tau in taus:
            nl = nl_table.get((tau, k - 1), 0)
            if tau == 1:
                if k <= order:
                    w_next = nl / a1 if nl else 0
                continue
            cross = 0
            for j in range(1, k):
                cj = coeffs.get((tau, k - j), 0)
                if cj and j < len(w):
                    cross = cross + w[j] * cj
            divisor = w0sq * (1 - tau * tau) if tau != 0 else w0sq
            if abs(divisor) < 1e-300:
                raise DegenerateDivisorError(f"vanishing divisor at harmonic {tau}")
            if tau == 0:
                value = -nl / divisor if nl else 0
            else:
                value = (tau * tau * cross - nl) / divisor
            if value:
                new[(tau, k)] = value
        if k <= order:
            w.append(w_next if w_next is not None else 0)
        coeffs.update(new)

    return FourierSeries(
        kind=spec.kind,
        a1=a1,
        coeffs=coeffs,
        omega_sq=LambdaSeries.from_coeffs(w),
        max_order=order,
        extension_order=1,
    )


def classical_residual(spec: OscillatorSpec, series: FourierSeries) -> CosTable:
    """Coefficient of lam^k cos(tau*w*t) after substituting the series
    into the equation of motion.  Zero on the solved set of keys.
    """
    w0sq = spec.omega0**2
    w = list(series.omega_sq.coeffs) or [w0sq]
    p = spec.kind.force_power
    out: CosTable = {}

    max_k = series.max_order + series.extension_order
    max_tau = max(series.max_harmonic, 1) + (p if p else 0)

    nl_table = _table_shift(_table_power(series.coeffs, p)) if p else {}

    for tau in range(0, max_tau + 1):
        for k in range(0, max_k + 1):
            c_inertia = 0
            for j, wj in enumerate(w):
                ck = series.coeffs.get((tau, k - j), 0)
                if ck:
                    c_inertia = c_inertia + wj * ck
            r = w0sq * series.coeffs.get((tau, k), 0) - tau * tau * c_inertia
            r = r + nl_table.get((tau, k), 0)
            if r:
                out[(tau, k)] = r
    return out


def residual_scale(spec: OscillatorSpec, a1, k: int):
    """Characteristic size of a lam^k residual coefficient (for
    nondimensionalized comparisons)."""
    return spec.omega0**2 * abs(a1) * spec.coupling_unit(abs(a1)) ** k


@dataclass(frozen=True)
class ClassicalEnergy:
    """Trigonometrically reduced energy of a harmonic-balance solution.

    constant is the cos(0) part as a lam series; periodic holds every
    non-constant coefficient (all of which vanish for a solved series,
    up to valid_order).  The three *_constant attributes split the
    constant term by origin; anharmonic_constant is also the first-order
    energy shift at fixed action.
    """

    constant: LambdaSeries
    periodic: CosTable
    kinetic_constant: LambdaSeries
    harmonic_constant: LambdaSeries
    anharmonic_constant: LambdaSeries
    valid_order: int

    def max_periodic(self):
        vals = [abs(c) for (t, k), c in self.periodic.items() if k <= self.valid_order]
        return max(vals, default=0)


def classical_energy(spec: OscillatorSpec, series: FourierSeries) -> ClassicalEnergy:
    """Energy W = m*xdot^2/2 + m*omega0^2*x^2/2 + anharmonic potential.

    The anharmonic potential is the integral of the force term:
    m*lam*x^3/3 for the x2 kind, m*lam*x^4/4 for the x3 kind.
    """
    m = spec.m
    w0sq = spec.omega0**2
    x = series.coeffs

    kin = sin_table_mul_from_cos(x, x)
    kin = _table_times_series(kin, series.omega_sq.coeffs or (w0sq,))
    kin = {key: m * c / 2 for key, c in kin.items()}

    harm = {key: m * w0sq * c / 2 for key, c in cos_table_mul(x, x).items()}

    anh: CosTable = {}
    p = spec.kind.force_power
    if p:
        pot_power = p + 1
        anh = _table_shift(_table_power(x, pot_power))
        anh = {key: m * c / pot_power for key, c in anh.items()}

    total: CosTable = {}
    for table in (kin, harm, anh):
        for key, c in table.items():
            _tab_add(total, key, c)

    valid = series.max_order

    def dc_series(table: CosTable) -> LambdaSeries:
        return LambdaSeries.from_coeffs(
            table.get((0, k), 0) for k in range(valid + 1)
        )

    periodic = {
        (t, k): c for (t, k), c in total.items() if t > 0 and k <= valid and c
    }
    return ClassicalEnergy(
        constant=dc_series(total),
        periodic=periodic,
        kinetic_constant=dc_series(kin),
        harmonic_constant=dc_series(harm),
        anharmonic_constant=dc_series(anh),
        valid_order=valid,
    )


def action_integral(spec: OscillatorSpec, a1) -> float:
    """Orbit action J = pi * m * a1^2 * omega of the pure harmonic motion."""
    if spec.kind is not Kind.HARMONIC:
        raise ValueError("action integral is defined here for the harmonic kind only")
    return math.pi * spec.m * a1 * a1 * spec.omega0
