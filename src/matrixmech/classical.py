"""Classical anharmonic oscillator solved by harmonic balance.

The displacement is expanded over harmonics of one renormalized
fundamental frequency,

    x(t) = sum_{tau,k}  c[tau,k] * lam^k * cos(tau*w*t),      w^2 = sum_j w[j]*lam^j,

and held as a two-sided coefficient stack, one row per power of lam,

    X[k, T+tau] = X[k, T-tau] = c[tau,k]/2  (tau >= 1),      X[k, T] = c[0,k]:

the Toeplitz limit of the ladder's half-amplitude matrix X, with X[k, T+tau]
in the place of X(n, n-tau).  A product of cosine series is a convolution
along the harmonic axis (series_product with a centred np.convolve, where
the ladder uses np.matmul), and xdot = i*w*Y with Y[tau] = tau*X[tau], so
the energy takes the ladder's form

    E = (m/2)(omega0^2 X*X - w^2 Y*Y) + m/(p+1) * lam * X^(p+1).

Matching the coefficient of lam^k cos(tau*w*t) in x'' + omega0^2 x + lam x^p
= 0 to zero order by order determines every c[tau,k] (tau != 1) and the
frequency corrections w[k], for any force power p; the fundamental
amplitude c[1,0] = a1 stays free and its higher corrections are fixed to
zero by convention.  Stacks are float64 for float inputs and object arrays,
which keep Fractions exact, otherwise.  The stack is the stored form;
(tau, k) dicts of the cosine coefficients (cos_table) are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .oscillator import Kind, OscillatorSpec
from .series import LambdaSeries, Powers, series_product

ORDER_CAP = 4

CosTable = Dict[Tuple[int, int], object]  # (harmonic tau, lam order k) -> coefficient


class SeriesOrderError(ValueError):
    """Requested expansion order outside the supported range."""


def _dtype(values) -> np.dtype:
    """float64 for float inputs; object, which keeps Fractions exact, else."""
    return np.result_type(float, np.array(values).dtype)


def cos_rows(x: np.ndarray) -> np.ndarray:
    """Cosine coefficients of a two-sided stack: c[k, tau] for tau >= 0."""
    width = x.shape[1] // 2
    c = 2 * x[:, width:]
    c[:, 0] = x[:, width]
    return c


def cos_table(x: np.ndarray) -> CosTable:
    """The nonzero cosine coefficients of a two-sided stack, by (tau, k)."""
    return {(tau, k): c for k, row in enumerate(cos_rows(x).tolist())
            for tau, c in enumerate(row) if c}


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two cosine series, as two-sided rows of equal width."""
    return np.convolve(a, b, mode="same")


@dataclass(frozen=True)
class FourierSeries:
    """Harmonic-balance solution of the oscillator spec.

    x is the two-sided stack, rows lam^0 .. lam^max_order and, for a
    forced kind, one more holding the leading coefficient solved at
    lam^(max_order+1); w the lam^k coefficients of w^2 (w itself is the
    positive square root, taken at evaluation time).  coeffs[(tau, k)], the
    lam^k coefficient of cos(tau*w*t), coeff and omega_sq are views of
    them; coeffs[(1, 0)] is a1 itself.  Coefficients are lam-independent:
    the solution for any coupling is obtained by evaluating the same stack.
    """

    spec: OscillatorSpec
    a1: object
    x: np.ndarray
    w: np.ndarray
    max_order: int

    @property
    def coeffs(self) -> CosTable:
        return {**cos_table(self.x), (1, 0): self.a1}

    def coeff(self, tau: int, k: int):
        return self.coeffs.get((tau, k), 0)

    @property
    def omega_sq(self) -> LambdaSeries:
        return LambdaSeries.from_coeffs(self.w.tolist())

    def solved_set(self) -> set:
        """Keys (tau, k) whose balance equations this solution satisfies."""
        return solved_keys(self.spec.kind, self.max_order)


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
    keys = {(tau, k) for tau in _harmonics(kind, _max_tau(kind, order))
            for k in range(leading_order(kind, tau), order + 1)}
    return keys | {(1, 0), (_max_tau(kind, order + 1), order + 1)}


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
    p = spec.kind.force_power
    ext = 1 if p else 0  # the harmonic kind has no force term to balance
    tau_ext = _max_tau(spec.kind, order + 1)
    width = p * tau_ext or 1  # x^p never reaches past it
    dtype = _dtype((a1, w0sq))
    x = np.zeros((order + 1 + ext, 2 * width + 1), dtype)
    x[0, width + 1] = x[0, width - 1] = a1 / 2
    w = np.zeros(order + 1, dtype)  # omega^2 series
    w[0] = w0sq
    # harmonics balanced at lam^1 .. lam^order, and the next one up at lam^(order+1)
    balanced = [t for t in _harmonics(spec.kind, _max_tau(spec.kind, order)) if t != 1]
    power = Powers(x, _convolve)  # the step at k reads layer k-1, then writes x[k]

    for k in range(1, len(x) if p else 1):
        tau = np.array(balanced if k <= order else [tau_ext])
        divisor = w0sq * (1 - tau * tau)
        # lam*x^p contributes (x^p)_{k-1} at lam^k; only orders < k of x
        # enter, so the recursion is triangular.
        nl = power[p, k - 1]
        if k <= order and nl[width + 1]:  # the fundamental's balance fixes w[k]
            w[k] = nl[width + 1] / x[0, width + 1]
        cross = 0  # the omega^2 corrections acting on x
        for j in range(1, k):
            cross = cross + w[j] * x[k - j, width + tau]
        value = (tau * tau * cross - nl[width + tau]) / divisor
        # both sides of the stack; no float zero in an exact one
        x[k, width + tau] = x[k, width - tau] = np.where(value != 0, value, 0)

    return FourierSeries(spec=spec, a1=a1, x=x, w=w, max_order=order)


def classical_residual(series: FourierSeries) -> np.ndarray:
    """Two-sided stack of the coefficients of lam^k cos(tau*w*t) after
    substituting the series into the equation of motion, in the rows and
    width of series.x.  Zero on the solved set of keys.
    """
    w0sq = series.spec.omega0**2
    p = series.spec.kind.force_power
    x = series.x
    width = x.shape[1] // 2
    inertia = series_product(x, series.w[:, None], len(x) - 1, np.multiply)
    tau = np.arange(-width, width + 1)
    r = w0sq * x - tau * tau * inertia
    if p:
        r[1:] += Powers(x, _convolve).stack(p, len(x) - 1)
    return r


@dataclass(frozen=True)
class ClassicalEnergy:
    """Trigonometrically reduced energy of a harmonic-balance solution.

    constant is the cos(0) part as a lam series; periodic is the two-sided
    stack of every non-constant term through valid_order, its tau = 0
    column zeroed (all of it vanishes for a solved series).  The three
    *_constant attributes split the constant term by origin;
    anharmonic_constant is also the first-order energy shift at fixed
    action.
    """

    constant: LambdaSeries
    periodic: np.ndarray
    kinetic_constant: LambdaSeries
    harmonic_constant: LambdaSeries
    anharmonic_constant: LambdaSeries
    valid_order: int

    def max_periodic(self):
        return max(map(abs, cos_table(self.periodic).values()), default=0)


def classical_energy(series: FourierSeries) -> ClassicalEnergy:
    """Energy W = m*xdot^2/2 + m*omega0^2*x^2/2 + anharmonic potential.

    The anharmonic potential is the integral of the force term:
    m*lam*x^3/3 for the x2 kind, m*lam*x^4/4 for the x3 kind.
    """
    m = series.spec.m
    w0sq = series.spec.omega0**2
    p = series.spec.kind.force_power
    valid = series.max_order
    dtype = np.result_type(series.x, _dtype((m, w0sq)))
    pad = series.x.shape[1] // 2 // max(p, 1)  # x^(p+1) reaches (p+1)/p of x^p's width
    x = np.zeros((valid + 1, series.x.shape[1] + 2 * pad), dtype)
    x[:, pad:-pad] = series.x[:valid + 1]
    width = x.shape[1] // 2
    tau = np.arange(-width, width + 1)
    y = tau * x  # xdot = i*w*Y

    yy = series_product(y, y, valid, _convolve)
    kin = m * -series_product(yy, series.w[:, None], valid, np.multiply) / 2
    power = Powers(x, _convolve)
    harm = m * w0sq * power.stack(2, valid + 1) / 2
    anh = np.zeros_like(kin)
    if p and valid >= 1:
        anh[1:] = m * power.stack(p + 1, valid) / (p + 1)
    total = kin + harm + anh

    def dc_series(stack: np.ndarray) -> LambdaSeries:
        return LambdaSeries.from_coeffs(stack[:, width].tolist())

    return ClassicalEnergy(
        constant=dc_series(total),
        periodic=np.where(tau == 0, 0, total),
        kinetic_constant=dc_series(kin),
        harmonic_constant=dc_series(harm),
        anharmonic_constant=dc_series(anh),
        valid_order=valid,
    )

