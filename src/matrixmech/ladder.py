"""Quantization of the anharmonic oscillator on a finite state ladder.

The route mirrors the classical harmonic-balance solve, with Fourier
coefficients replaced by transition amplitudes a(n, m) between ladder
states and each product replaced by the symmetrized walk sum of
translate_product.  Internally everything is one object: the
half-amplitude matrix

    X(n, m) = a(n, m)/2   (n != m),      X(n, n) = lam * a0(n),

under which the walk sums are ordinary matrix products.  X is held as a
NumPy coefficient stack (OperatorMatrix), one dim x dim layer per power
of lam, so a product of series matrices is a few array products.  Base
amplitudes come from the action sum rule

    pi*m*omega * [a^2(n+1, n) - a^2(n, n-1)] = h,  a(0,-1) = 0
    =>  a^2(n, n-1) = n*h / (pi*m*omega),

the equation-of-motion entries fix overtone amplitudes and the frequency
shift of the fundamental, and level energies are the diagonal of the
energy matrix built from X.  Transition frequencies are never stored:
omega(n, m) is always (2*pi/h)(W(n) - W(m)), so chained frequencies add
exactly by construction.

A finite table cannot validate its top states (their equations reference
states above the table), so the solver works on an internal ladder padded
above n_max; every public state 0..n_max is then fully validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .classical import leading_order
from .oscillator import Kind, OscillatorSpec
from .series import LambdaSeries

TWO_PI = 2.0 * math.pi


class LadderError(ValueError):
    pass


# ---------------------------------------------------------------------------
# operator matrices of series


def _series_product(a: np.ndarray, b: np.ndarray, max_order: int, op) -> np.ndarray:
    """(ab)_k = sum_{i+j=k} op(a_i, b_j) for k <= max_order.

    a and b are coefficient stacks (a[k] is the lam^k part); op is
    np.matmul for operator products and np.multiply for entrywise ones.
    The result always has max_order + 1 layers.
    """
    out = np.zeros((max_order + 1,) + a.shape[1:])
    for i in range(min(len(a), max_order + 1)):
        for j in range(min(len(b), max_order + 1 - i)):
            out[i + j] += op(a[i], b[j])
    return out


class OperatorMatrix:
    """Square matrix of lam-series entries as a coefficient stack.

    c has shape (order+1, dim, dim) and c[k] holds the lam^k part, so a
    product is (AB)_k = sum_{i+j=k} A_i @ B_j.
    """

    def __init__(self, c: np.ndarray):
        self.c = c

    @property
    def dim(self) -> int:
        return self.c.shape[1]

    def entry(self, n: int, m: int) -> LambdaSeries:
        if 0 <= n < self.dim and 0 <= m < self.dim:
            return LambdaSeries.from_coeffs(self.c[:, n, m].tolist())
        return LambdaSeries.zero()

    def mul(self, other: "OperatorMatrix", max_order: int) -> "OperatorMatrix":
        return OperatorMatrix(_series_product(self.c, other.c, max_order, np.matmul))

    def power(self, p: int, max_order: int) -> "OperatorMatrix":
        out = self
        for _ in range(p - 1):
            out = out.mul(self, max_order)
        return out

    def max_offdiag_abs(self, order_k: int, n_limit: int) -> float:
        if order_k >= len(self.c):
            return 0.0
        block = np.abs(self.c[order_k, : n_limit + 1, : n_limit + 1])
        np.fill_diagonal(block, 0.0)
        return float(block.max(initial=0.0))


# ---------------------------------------------------------------------------
# transition table


@dataclass
class SpectralLine:
    upper: int
    lower: int
    omega: float
    rel_intensity: float
    leading_order: int  # lam power at which the amplitude first appears


@dataclass
class TransitionTable:
    """Amplitudes, DC offsets and level energies, all as lam-series.

    Amplitudes are stored once per unordered pair {n, m} (a(n,m) = a(m,n));
    any reference below the ladder floor is identically zero.  The table is
    solved on an internal ladder of pad extra states so that every public
    state n <= n_max has complete equations; public accessors expose only
    0..n_max, and trusted(n) is true exactly there.
    """

    spec: OscillatorSpec
    n_max: int
    order: int
    pad: int
    amps: Dict[Tuple[int, int], LambdaSeries] = field(default_factory=dict)
    dc: Dict[int, LambdaSeries] = field(default_factory=dict)
    levels: Dict[int, LambdaSeries] = field(default_factory=dict)
    omega_fund: Dict[int, LambdaSeries] = field(default_factory=dict)

    @property
    def n_top(self) -> int:
        return self.n_max + self.pad

    def trusted(self, n: int) -> bool:
        return 0 <= n <= self.n_max

    def amp(self, n: int, m: int) -> LambdaSeries:
        """Amplitude series a(n, m); zero below the floor or off the table."""
        if n < 0 or m < 0:
            return LambdaSeries.zero()
        hi, lo = (n, m) if n >= m else (m, n)
        return self.amps.get((hi, lo), LambdaSeries.zero())

    def dc_series(self, n: int) -> LambdaSeries:
        return self.dc.get(n, LambdaSeries.zero())

    def level(self, n: int) -> LambdaSeries:
        if n not in self.levels:
            raise LadderError(f"level {n} not filled (call energy_levels)")
        return self.levels[n]

    def freq(self, n: int, m: int) -> LambdaSeries:
        """omega(n, m) = (2*pi/h)*(W(n) - W(m)) as a lam-series."""
        return (self.level(n) - self.level(m)).scaled(TWO_PI / self.spec.planck_h)

    def freq_sq(self, n: int, m: int) -> LambdaSeries:
        w = self.freq(n, m)
        return w * w

    def position_matrix(self, dim: Optional[int] = None) -> OperatorMatrix:
        """Half-amplitude matrix X over the internal ladder."""
        if dim is None:
            dim = self.n_top + 3
        amps = [(hi, lo, s) for (hi, lo), s in self.amps.items() if hi < dim and s]
        dc = [(n, s) for n, s in self.dc.items() if n < dim and s]
        top = max([s.order for _, _, s in amps] + [s.order + 1 for _, s in dc], default=0)
        c = np.zeros((top + 1, dim, dim))
        for hi, lo, s in amps:
            half = np.multiply(s.coeffs, 0.5)
            c[: len(half), hi, lo] = c[: len(half), lo, hi] = half
        for n, s in dc:
            c[1 : len(s.coeffs) + 1, n, n] = s.coeffs
        return OperatorMatrix(c)

    def base_amplitude(self, n: int) -> float:
        """Order-0 a(n, n-1) = sqrt(n*h/(pi*m*omega0))."""
        return self.spec.ladder_amplitude * math.sqrt(n)


def residual_scale(spec: OscillatorSpec, k: int) -> float:
    """Size of a lam^k equation-of-motion residual coefficient."""
    a = spec.ladder_amplitude
    u = spec.coupling_unit(a) or 1.0
    return spec.omega0**2 * a * u**k


def energy_scale(spec: OscillatorSpec, k: int) -> float:
    """Size of a lam^k energy-matrix entry."""
    a = spec.ladder_amplitude
    u = spec.coupling_unit(a) or 1.0
    return spec.m * spec.omega0**2 * a * a * u**k


# ---------------------------------------------------------------------------
# solving


def base_amplitudes(spec: OscillatorSpec, n_max: int, pad: int = 2) -> TransitionTable:
    """Ladder of nearest-neighbor amplitudes satisfying the sum rule.

    a(n, n-1) = sqrt(n*h/(pi*m*omega0)) with a(0,-1) = 0; every amplitude
    with |n - m| >= 2 is zero at this order.
    """
    if n_max < 1:
        raise LadderError("n_max must be at least 1")
    table = TransitionTable(spec=spec, n_max=n_max, order=0, pad=pad)
    for n in range(1, table.n_top + 3):
        table.amps[(n, n - 1)] = LambdaSeries.const(table.base_amplitude(n))
        table.omega_fund[n] = LambdaSeries.const(spec.omega0)
    return table


def quantization_residual(spec: OscillatorSpec, table: TransitionTable, n: int) -> float:
    """pi*m*omega*[a^2(n+1,n) - a^2(n,n-1)] - h at order 0 (zero when the
    ladder is correctly quantized)."""
    if n + 1 > table.n_max:
        raise LadderError("n+1 exceeds the public ladder")
    up = table.amp(n + 1, n)[0]
    down = table.amp(n, n - 1)[0] if n >= 1 else 0.0
    return math.pi * spec.m * spec.omega0 * (up * up - down * down) - spec.planck_h


def solve_quantum(spec: OscillatorSpec, n_max: int, order: int) -> TransitionTable:
    """Solve amplitudes and levels through lam^order (order 0 or 1).

    At order 1 every entry (n, m), tau = n - m >= 0, is fixed by its
    equation of motion at lam^k for k = 1 .. order+1,

        (1 - tau^2) * omega0^2 * X_k(n, m) + F(n, m) = 0,
        F = (X^p)_{k-1}  (the force from the orders already solved),

    one rule for every kind: tau = 0 gives the DC offset, tau >= 2 an
    overtone amplitude with divisor (tau^2 - 1)*omega0^2, and tau = 1
    (where the divisor vanishes) the frequency shift of the fundamental,
    whose amplitude then follows from the sum rule at the shifted
    frequency.  The pass at k = order+1 only fills harmonics that are
    still zero, i.e. the leading coefficient of the next harmonic up.
    Through order 1 no frequency correction enters any entry solved this
    way, so the omega^2 term reduces to omega0^2.  Levels are then filled
    by energy_levels.
    """
    if order not in (0, 1):
        raise LadderError("quantum solve supports order 0 or 1")
    if n_max < 3 * order + 1:
        raise LadderError("n_max too small for the requested order")
    spec.check_smallness()

    pad = 3 * order + 2
    table = base_amplitudes(spec, n_max, pad=pad)
    table.order = order
    w0sq = spec.omega0**2
    if w0sq < 1e-300:
        raise LadderError("vanishing harmonic-balance divisor (omega0^2 underflow)")

    p = spec.kind.force_power
    dim = table.n_top + 3
    top = order + 1 if order >= 1 and p else 0
    for k in range(1, top + 1):
        x = table.position_matrix(dim)
        f = np.tril(x.power(p, k - 1).c[k - 1])
        if k > order:
            f[x.c.any(axis=0)] = 0.0
        ns, ms = np.nonzero(f)
        x0 = x.c[0][ns, ms].tolist()
        for n, m, fk, x0k in zip(ns.tolist(), ms.tolist(), f[ns, ms].tolist(), x0):
            tau = n - m
            if tau == 0:  # X(n, n) = lam * a0(n), so a0 enters at lam^(k-1)
                table.dc[n] = LambdaSeries.from_coeffs((0.0,) * (k - 1) + (-fk / w0sq,))
            elif tau >= 2:
                a = 2.0 * fk / ((tau * tau - 1.0) * w0sq)
                table.amps[(n, m)] = LambdaSeries.from_coeffs((0.0,) * k + (a,))
            else:
                # only at k = 1 (the k = order+1 pass skips the fundamentals):
                # omega^2(n,m) = omega0^2 + lam*F/X0, and the sum rule
                # a^2(n,m)*omega(n,m) = n*h/(pi*m)
                w1 = fk / x0k / (2.0 * spec.omega0)
                a0 = table.base_amplitude(n)
                table.omega_fund[n] = LambdaSeries.from_coeffs((spec.omega0, w1))
                table.amps[(n, m)] = LambdaSeries.from_coeffs((a0, -a0 * w1 / (2.0 * spec.omega0)))

    return energy_levels(spec, table)


def _stack(series: List[LambdaSeries]) -> np.ndarray:
    """Coefficient array of shape (order+1, len(series)), zero-padded."""
    out = np.zeros((max([s.order for s in series], default=0) + 1, len(series)))
    for i, s in enumerate(series):
        out[: len(s.coeffs), i] = s.coeffs
    return out


def level_omega(table: TransitionTable, dim: int) -> np.ndarray:
    """Stack of omega(n, m) = (2*pi/h)(W(n) - W(m)) for n, m < dim."""
    w = _stack([table.level(n) for n in range(dim)])
    return (w[:, :, None] - w[:, None, :]) * (TWO_PI / table.spec.planck_h)


def chain_omega(table: TransitionTable, dim: int) -> np.ndarray:
    """Stack of omega(n, m) as the sum of the fundamentals omega_fund(i) for
    min(n,m) < i <= max(n,m), on the diagonals where the table has
    amplitudes (elsewhere X vanishes and omega is never used).

    Each diagonal's sums are windows over the rungs, added in increasing i;
    differences of cumulative sums would lose precision high on the ladder.
    """
    band = max((hi - lo for hi, lo in table.amps), default=0)
    fund = _stack([LambdaSeries.zero()] + [table.omega_fund[i] for i in range(1, dim)])
    out = np.zeros((len(fund), dim, dim))
    window = np.zeros_like(fund)  # window[:, n]: sum of the d rungs ending at n
    for d in range(1, min(band, dim - 1) + 1):
        window[:, d:] = window[:, d - 1 : -1] + fund[:, d:]
        n = np.arange(d, dim)
        out[:, n, n - d] = window[:, d:]
        out[:, n - d, n] = -window[:, d:]
    return out


def energy_matrix(
    spec: OscillatorSpec, table: TransitionTable, max_order: int, omega: np.ndarray
) -> OperatorMatrix:
    """Full energy matrix m*(Xdot^2 + omega0^2 X^2)/2 + anharmonic potential.

    Xdot = iY with Y = omega o X, the entrywise product with the stack
    omega(n, m); when omega comes from the levels this is the Born-Jordan
    commutator Xdot = i(2*pi/h)[W, X].  So

        E = (m/2)(omega0^2 X^2 - Y^2) + m/(p+1) * lam * X^(p+1).

    omega is level_omega (the defining convention) or chain_omega
    (solve-time fundamentals, used to bootstrap the levels); its size
    sets the ladder the matrix is built on.
    """
    x = table.position_matrix(omega.shape[1])
    y = OperatorMatrix(_series_product(omega, x.c, max_order, np.multiply))
    e = (0.5 * spec.m) * (spec.omega0**2 * x.mul(x, max_order).c - y.mul(y, max_order).c)
    p = spec.kind.force_power
    if p and max_order >= 1:
        e[1:] += (spec.m / (p + 1.0)) * x.power(p + 1, max_order - 1).c
    return OperatorMatrix(e)


def energy_levels(spec: OscillatorSpec, table: TransitionTable) -> TransitionTable:
    """Fill W(n) with the diagonal of the energy matrix.

    The matrix is built with solve-time frequency tags; the resulting
    level differences reproduce those same frequencies (checked by
    frequency_consistency), after which omega(n, m) is always derived
    from the levels.
    """
    dim = table.n_top + 3
    for n in range(1, dim):
        table.omega_fund.setdefault(n, LambdaSeries.const(spec.omega0))
    e = energy_matrix(spec, table, table.order, chain_omega(table, dim))
    for n in range(dim):
        table.levels[n] = e.entry(n, n)
    return table


def frequency_consistency(table: TransitionTable) -> float:
    """Max |(2*pi/h)(W(n)-W(n-1)) - omega_fund(n)| coefficient, scaled by
    omega0, over public n."""
    spec = table.spec
    worst = 0.0
    for n in range(1, table.n_max + 1):
        diff = table.freq(n, n - 1) - table.omega_fund[n]
        worst = max(worst, diff.max_abs(table.order) / spec.omega0)
    return worst


# ---------------------------------------------------------------------------
# validation operations


def trusted_residual_order(kind: Kind, order: int, delta: int) -> int:
    """Highest lam power at which the (n, m) equation holds for the
    order-`order` solution, delta = |n - m|.

    Every equation holds through lam^order.  At lam^(order+1) it also holds
    where harmonic delta first appears later, or exactly then and its
    leading coefficient was solved (order >= 1); the x3 kind's even
    harmonics vanish identically by parity.
    """
    if kind is Kind.HARMONIC or (kind is Kind.CUBIC_FORCE and delta % 2 == 0):
        return order + 1
    return order if leading_order(kind, delta) <= max(order, 1) else order + 1


def quantum_residuals(
    spec: OscillatorSpec, table: TransitionTable
) -> Dict[Tuple[int, int], LambdaSeries]:
    """Equation-of-motion residual series per public entry (n, m), n >= m.

    Residual = [omega0^2 - omega^2(n,m)] * X(n,m) + lam * (X^p)(n,m),
    reported in the amplitude convention (off-diagonal entries doubled), so
    each entry reproduces the cosine-coefficient equations term for term.
    """
    dim = table.n_top + 3
    top = table.order + 1
    x = table.position_matrix(dim)
    omega = level_omega(table, dim)
    wsq = _series_product(omega, omega, top, np.multiply)
    r = np.zeros((top + 1, dim, dim))
    k = min(len(x.c), top + 1)
    r[:k] = spec.omega0**2 * x.c[:k]
    r -= _series_product(wsq, x.c, top, np.multiply)
    p = spec.kind.force_power
    if p:
        r[1:] += x.power(p, top - 1).c
    r *= np.where(np.eye(dim, dtype=bool), 1.0, 2.0)

    entries = r.transpose(1, 2, 0).tolist()
    return {
        (n, m): LambdaSeries.from_coeffs(entries[n][m])
        for n in range(table.n_max + 1)
        for m in range(n + 1)
    }


def worst_scaled_residuals(spec: OscillatorSpec, table: TransitionTable) -> Dict[int, float]:
    """Largest nondimensionalized trusted residual coefficient per
    delta = n - m."""
    worst: Dict[int, float] = {}
    for (n, m), series in quantum_residuals(spec, table).items():
        top = trusted_residual_order(spec.kind, table.order, n - m)
        for k in range(top + 1):
            worst[n - m] = max(worst.get(n - m, 0.0), abs(series[k]) / residual_scale(spec, k))
    return worst


def max_scaled_residual(spec: OscillatorSpec, table: TransitionTable) -> float:
    """Largest nondimensionalized trusted residual coefficient."""
    return max(worst_scaled_residuals(spec, table).values(), default=0.0)


def offdiagonal_energy_check(spec: OscillatorSpec, table: TransitionTable) -> float:
    """Largest scaled off-diagonal energy-matrix entry over public states.

    All periodic parts of the energy must vanish to the solved order; this
    is the internal-consistency check of the whole labeling.
    """
    e = energy_matrix(spec, table, table.order, level_omega(table, table.n_top + 3))
    worst = 0.0
    for k in range(table.order + 1):
        v = e.max_offdiag_abs(k, table.n_max) / energy_scale(spec, k)
        worst = max(worst, v)
    return worst


def line_spectrum(table: TransitionTable) -> List[SpectralLine]:
    """Emission lines (n -> m, n > m) with intensities ~ a(n,m)^2.

    Frequencies are level differences evaluated at the oscillator's
    coupling; relative intensity (a convention: amplitude squared) is
    normalized to the strongest line.
    """
    spec = table.spec
    lam = spec.lam
    raw = []
    for n in range(1, table.n_max + 1):
        for m in range(n):
            series = table.amp(n, m)
            if not series:
                continue
            a = series.eval(lam)
            omega = table.freq(n, m).eval(lam)
            lead = next((k for k, c in enumerate(series.coeffs) if c), 0)
            raw.append((n, m, omega, a * a, lead))
    peak = max((r[3] for r in raw), default=0.0)
    lines = [
        SpectralLine(n, m, omega, (inten / peak if peak else 0.0), lead)
        for (n, m, omega, inten, lead) in raw
    ]
    return lines


@dataclass
class CorrespondenceReport:
    """Quantum/classical amplitude ratios for one reference state."""

    n: int
    overtone_ratio: Optional[float]  # a(n,n-2)/[a(n,n-1)a(n-1,n-2)] at leading order
    classical_ratio: Optional[float]  # a2/a1^2 = 1/(6 omega0^2)
    fundamental_ratio: float  # a(n,n-1) / a1 with the action fixed to n*h


def correspondence_check(
    spec: OscillatorSpec, table: TransitionTable, n: int, series=None
) -> CorrespondenceReport:
    """Compare quantum amplitudes with classical Fourier coefficients.

    The two-step amplitude relates to its neighbor product exactly as the
    classical second harmonic relates to a1^2; the fundamental amplitude
    matches the classical one whose orbit action equals n*h.  When a
    solved classical FourierSeries is passed, the classical ratio is taken
    from its coefficients instead of the closed form.
    """
    if n < 2:
        raise LadderError("correspondence check needs n >= 2")
    if n > table.n_max:
        raise LadderError("n beyond the public ladder")

    a_nm1 = table.amp(n, n - 1)[0]
    a_nm1m2 = table.amp(n - 1, n - 2)[0]
    over = table.amp(n, n - 2)[1]
    if spec.kind is Kind.QUADRATIC_FORCE and over:
        q = over / (a_nm1 * a_nm1m2)
        if series is not None:
            classical = float(series.coeff(2, 1)) / float(series.a1) ** 2
        else:
            classical = 1.0 / (6.0 * spec.omega0**2)
    else:
        q = None
        classical = None

    a1_action = math.sqrt(n * spec.planck_h / (math.pi * spec.m * spec.omega0))
    return CorrespondenceReport(
        n=n,
        overtone_ratio=q,
        classical_ratio=classical,
        fundamental_ratio=a_nm1 / a1_action,
    )
