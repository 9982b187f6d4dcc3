"""Quantization of the anharmonic oscillator on a finite state ladder.

The route mirrors the classical harmonic-balance solve, with Fourier
coefficients replaced by transition amplitudes a(n, m) between ladder
states and each product replaced by the symmetrized walk sum of
translate_product.  Internally everything is one object: the
half-amplitude matrix

    X(n, m) = a(n, m)/2   (n != m),      X(n, n) = lam * a0(n),

under which the walk sums are ordinary matrix products.  X is held as a
NumPy coefficient stack (OperatorMatrix), one dim x dim layer per power
of lam, so a product of series matrices is a few array products.  The
transition table stores X, the level energies W(n) and the solved
fundamental frequencies as such stacks and nothing else; its accessors
are LambdaSeries views of them.  Base amplitudes come from the action
sum rule

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
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .classical import leading_order
from .oscillator import Kind, OscillatorSpec
from .series import LambdaSeries, Powers, horner, series_product

TWO_PI = 2.0 * math.pi


class LadderError(ValueError):
    pass


# ---------------------------------------------------------------------------
# operator matrices of series


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
        return OperatorMatrix(series_product(self.c, other.c, max_order, np.matmul))


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
    """Amplitudes, DC offsets and level energies as coefficient stacks.

    The table is solved on an internal ladder of dim = n_max + pad + 3
    states, so that every public state n <= n_max has complete equations.
    It holds three stacks:

    x     the half-amplitude matrix X, layers lam^0 .. lam^(order+1) (the
          last holds the leading coefficients of the next harmonics up),
          symmetric, with the DC offsets a0(n) on its diagonal one layer up;
    fund  the solved fundamental frequencies omega(n, n-1), shape
          (order+1, dim), column 0 unused;
    w     the level energies W(n), shape (order+1, dim), unset until
          energy_levels fills it.

    amp, dc_series, level and freq are lam-series views of these with
    Python float coefficients; references below the ladder floor or off
    the table are identically zero.
    """

    spec: OscillatorSpec
    n_max: int
    order: int
    pad: int
    x: OperatorMatrix
    fund: np.ndarray
    w: Optional[np.ndarray] = None

    def amp(self, n: int, m: int) -> LambdaSeries:
        """Amplitude series a(n, m) = 2X(n, m); zero on the diagonal, below
        the floor or off the table."""
        if n == m:
            return LambdaSeries.zero()
        return self.x.entry(n, m).scaled(2.0)

    def dc_series(self, n: int) -> LambdaSeries:
        """DC offset a0(n), with X(n, n) = lam * a0(n)."""
        return LambdaSeries(self.x.entry(n, n).coeffs[1:])

    def level(self, n: int) -> LambdaSeries:
        if self.w is None or not 0 <= n < self.w.shape[1]:
            raise LadderError(f"level {n} not filled (call energy_levels)")
        return LambdaSeries.from_coeffs(self.w[:, n].tolist())

    def freq(self, n: int, m: int) -> LambdaSeries:
        """omega(n, m) = (2*pi/h)*(W(n) - W(m)) as a lam-series."""
        return (self.level(n) - self.level(m)).scaled(TWO_PI / self.spec.planck_h)


# ---------------------------------------------------------------------------
# solving


def _base_ladder(spec: OscillatorSpec, n_max: int, order: int, pad: int) -> TransitionTable:
    """Table with the order-0 ladder in stacks sized for a solve to `order`."""
    if n_max < 1:
        raise LadderError("n_max must be at least 1")
    dim = n_max + pad + 3
    n = np.arange(1, dim)
    x = np.zeros((order + 2, dim, dim))
    x[0, n, n - 1] = x[0, n - 1, n] = 0.5 * (spec.ladder_amplitude * np.sqrt(n))
    fund = np.zeros((order + 1, dim))
    fund[0, 1:] = spec.omega0
    return TransitionTable(spec=spec, n_max=n_max, order=order, pad=pad,
                           x=OperatorMatrix(x), fund=fund)


def sum_rule_residuals(table: TransitionTable) -> Tuple[np.ndarray, np.ndarray]:
    """pi*m*[a^2 omega(n+1, n) - a^2 omega(n, n-1)] - h for n = 0 .. n_max-1,
    row k its lam^k coefficient for k <= order (zero when the ladder is
    correctly quantized), omega the solved fundamentals fund, and the size
    of its terms, the same sums with every factor taken by magnitude."""
    spec, order = table.spec, table.order
    a = 2.0 * np.diagonal(table.x.c[: order + 1], -1, 1, 2)[:, : table.n_max]  # a(n+1, n)
    omega = table.fund[:, 1 : table.n_max + 1] / spec.omega0
    h = np.eye(order + 1, 1) * spec.planck_h

    def rule(a, omega, sign):  # a^2 omega/omega0 at (n+1, n), with sign that at (n, n-1)
        up = series_product(series_product(a, a, order, np.multiply), omega, order, np.multiply)
        down = np.concatenate([np.zeros((order + 1, 1)), up[:, :-1]], axis=1)  # a(0, -1) = 0
        return math.pi * spec.m * spec.omega0 * (up + sign * down) + sign * h

    return rule(a, omega, -1.0), rule(np.abs(a), np.abs(omega), 1.0)


def quantization_residual(table: TransitionTable, n: int) -> float:
    """The lam^0 sum rule residual of sum_rule_residuals for one n."""
    if not 0 <= n < table.n_max:
        raise LadderError("n must lie in 0 .. n_max-1 (n+1 on the public ladder)")
    return float(sum_rule_residuals(table)[0][0, n])


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
    way, so the omega^2 term reduces to omega0^2.  Each pass writes its
    entries into both triangles of the table's X stack; levels are then
    filled by energy_levels.  The pad of 3*order + 2 states covers the
    equations of the top public states at any n_max >= 1.
    """
    if order not in (0, 1):
        raise LadderError("quantum solve supports order 0 or 1")
    spec.check_smallness()

    table = _base_ladder(spec, n_max, order, pad=3 * order + 2)
    power = Powers(table.x.c, np.matmul)  # the pass at k reads layer k-1, then writes x[k]
    _force_passes(table, power)
    return _fill_levels(table, power)


def _force_passes(table: TransitionTable, power: Powers) -> None:
    """solve_quantum's passes k = 1 .. order+1, none at order 0 or without a
    force; their grids, and X^p's last layer for x^3, go before the levels."""
    spec = table.spec
    p = spec.kind.force_power
    x, order = table.x.c, table.order
    top = order + 1 if order >= 1 and p else 0
    tau = np.subtract.outer(np.arange(x.shape[1]), np.arange(x.shape[1]))  # n - m
    div = (tau * tau - 1.0) * spec.omega0**2
    for k in range(1, top + 1):
        f = power[p, k - 1]
        if k == top and p > 2:  # the levels read X^p below this layer only
            del power[p, k - 1]
        # tau = 0 (X(n, n) = lam * a0(n)) and tau >= 2, where F is nonzero
        solve = (f != 0) & (tau >= 0) & (tau != 1)
        if k > order:
            solve &= ~x.any(axis=0)
        np.divide(f, div, out=x[k], where=solve)  # x[k] is still zero
        x[k] = np.where(tau < 0, x[k].T, x[k])
        if k == 1:
            # tau = 1 (the k = order+1 pass skips the fundamentals):
            # omega^2(n,m) = omega0^2 + lam*F/X0, and the sum rule
            # a^2(n,m)*omega(n,m) = n*h/(pi*m)
            n1 = np.flatnonzero(np.diagonal(f, -1)) + 1
            x0 = x[0, n1, n1 - 1]
            w1 = f[n1, n1 - 1] / x0 / (2.0 * spec.omega0)
            table.fund[1, n1] = w1
            x[1, n1, n1 - 1] = x[1, n1 - 1, n1] = -x0 * w1 / (2.0 * spec.omega0)


def level_omega(table: TransitionTable) -> np.ndarray:
    """Stack of omega(n, m) = (2*pi/h)(W(n) - W(m)) over the internal ladder."""
    w = table.w
    return (w[:, :, None] - w[:, None, :]) * (TWO_PI / table.spec.planck_h)


def chain_omega(table: TransitionTable) -> np.ndarray:
    """Stack of omega(n, m) as the sum of the solved fundamentals fund(i)
    for min(n,m) < i <= max(n,m), on the diagonals where the table has
    amplitudes (elsewhere X vanishes and omega is never used).

    Each diagonal's sums are windows over the rungs, added in increasing i;
    differences of cumulative sums would lose precision high on the ladder.
    """
    fund = table.fund
    dim = fund.shape[1]
    live = table.x.c.any(axis=0)
    # the farthest entry below the diagonal: each row's first live column
    band = int((np.arange(dim) - live.argmax(axis=1))[live.any(axis=1)].max(initial=0))
    out = np.zeros((len(fund), dim, dim))
    # flat: out[n + d, n] at d*dim + n*(dim + 1), out[n, n + d] at d + n*(dim + 1)
    flat = out.reshape(len(fund), -1)
    window = np.zeros_like(fund)  # window[:, n]: sum of the d rungs ending at n
    for d in range(1, min(band, dim - 1) + 1):
        window[:, d:] = window[:, d - 1 : -1] + fund[:, d:]
        flat[:, d * dim :: dim + 1] = window[:, d:]
        flat[:, d :: dim + 1][:, : dim - d] = -window[:, d:]
    return out


def energy_matrix(table: TransitionTable, omega: np.ndarray) -> OperatorMatrix:
    """Full energy matrix m*(Xdot^2 + omega0^2 X^2)/2 + anharmonic potential,
    through the table's order.

    Xdot = iY with Y = omega o X, the entrywise product with the stack
    omega(n, m); when omega comes from the levels this is the Born-Jordan
    commutator Xdot = i(2*pi/h)[W, X].  So

        E = (m/2)(omega0^2 X^2 - Y^2) + m/(p+1) * lam * X^(p+1).

    omega is normally level_omega, the defining convention; the levels
    themselves are bootstrapped from chain_omega by _fill_levels.
    """
    return OperatorMatrix(_residual_and_energy(table, table.x.c, omega, omega)[1])


def _energy(table: TransitionTable, power: Powers, yy: np.ndarray) -> np.ndarray:
    """(m/2)(omega0^2 X^2 - yy) + m/(p+1) * lam * X^(p+1) through the
    table's order, the powers of X read from power and yy standing for Y^2."""
    spec, order = table.spec, table.order
    e = (0.5 * spec.m) * (spec.omega0**2 * power.stack(2, order + 1) - yy)
    p = spec.kind.force_power
    if p and order >= 1:
        e[1:] += (spec.m / (p + 1.0)) * power.stack(p + 1, order)
    return e


def energy_levels(table: TransitionTable) -> TransitionTable:
    """Fill W(n) with the diagonal of the energy matrix.

    The matrix is built with solve-time frequency tags; the resulting
    level differences reproduce those same frequencies (checked by
    frequency_consistency), after which omega(n, m) is always derived
    from the levels.
    """
    return _fill_levels(table, Powers(table.x.c, np.matmul))


def _fill_levels(table: TransitionTable, power: Powers) -> TransitionTable:
    y = series_product(chain_omega(table), table.x.c, table.order, np.multiply)
    yy = series_product(y, y, table.order, np.matmul)
    del y
    table.w = np.diagonal(_energy(table, power, yy), 0, 1, 2).copy()
    return table


def rung_omega(table: TransitionTable) -> Tuple[np.ndarray, np.ndarray]:
    """Stacks of omega(n, n-1) = (2*pi/h)(W(n) - W(n-1)) over public n >= 1,
    and of (2*pi/h)(|W(n)| + |W(n-1)|), the size of the two levels."""
    w = table.w[:, : table.n_max + 1]
    f = TWO_PI / table.spec.planck_h
    return (w[:, 1:] - w[:, :-1]) * f, (np.abs(w[:, 1:]) + np.abs(w[:, :-1])) * f


def frequency_consistency(table: TransitionTable) -> float:
    """Max scaled |(2*pi/h)(W(n)-W(n-1)) - fund(n)| coefficient over public
    n, in the unit omega0 * u^k."""
    omega, size = rung_omega(table)
    diff = omega - table.fund[:, 1 : table.n_max + 1]
    return float(table.spec.scaled(diff, table.spec.omega0, size).max())


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


def _residual_and_energy(table: TransitionTable, x: np.ndarray, wa: np.ndarray,
                         wb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """R = omega0^2 x - (wa o wb) o x + lam * x^p through lam^(order+1), in
    the amplitude convention (off-diagonal entries doubled), and the energy
    _energy(x, (wa o x)(wb o x)), each power of x formed once for both.
    At (X, omega, omega) these are the equation-of-motion residual and the
    energy matrix; at (|X|, -|omega|, Omega), Omega the size of the two
    levels omega is the difference of, the sizes of their terms: each term
    by magnitude, with its sign in the formula (negation is exact)."""
    spec, order, top = table.spec, table.order, table.order + 1
    # each stack goes once read (at the sizes, nothing else holds -|omega|)
    y = series_product(wa, x, order, np.multiply)
    dy = y if wb is wa else series_product(wb, x, order, np.multiply)
    wsq = series_product(wa, wb, top, np.multiply)
    del wa, wb
    yy = series_product(y, dy, order, np.matmul)
    del y, dy
    r = spec.omega0**2 * x
    r -= series_product(wsq, x, top, np.multiply)
    del wsq
    power = Powers(x, np.matmul)
    if spec.kind.force_power:
        r[1:] += power.stack(spec.kind.force_power, top)
    r *= np.where(np.eye(x.shape[1], dtype=bool), 1.0, 2.0)
    return r, _energy(table, power, yy)


def ladder_checks(table: TransitionTable) -> Tuple[Dict[int, float], float]:
    """Largest scaled trusted residual coefficient per delta = n - m, and
    largest scaled off-diagonal energy entry (every periodic part of the
    energy must vanish), over the public entries, each scaled by the size
    of its terms."""
    spec, pub = table.spec, table.n_max + 1
    omega = level_omega(table)
    w = np.abs(table.w)
    big = (w[:, :, None] + w[:, None, :]) * (TWO_PI / spec.planck_h)  # Omega
    # sizes first, so that no |X| stack is alive beside the values' pass
    r_size, e_size = _residual_and_energy(table, np.abs(table.x.c), -np.abs(omega), big)
    del big
    r, e = _residual_and_energy(table, table.x.c, omega, omega)
    del omega
    a = spec.ladder_amplitude
    off = ~np.eye(pub, dtype=bool)  # public off-diagonal entries
    energy = spec.scaled(e[:, :pub, :pub][:, off], spec.m * spec.omega0**2 * a * a,
                         e_size[:, :pub, :pub][:, off]).max(initial=0.0)
    scaled = spec.scaled(r[:, :pub, :pub], spec.omega0**2 * a, r_size[:, :pub, :pub])
    worst = {d: float(np.diagonal(scaled[: trusted_residual_order(spec.kind, table.order, d) + 1],
                                  -d, 1, 2).max()) for d in range(pub)}
    return worst, float(energy)


def quantum_residuals(table: TransitionTable) -> Dict[Tuple[int, int], LambdaSeries]:
    """Equation-of-motion residual series per public entry (n, m), n >= m.

    Residual = [omega0^2 - omega^2(n,m)] * X(n,m) + lam * (X^p)(n,m),
    reported in the amplitude convention (off-diagonal entries doubled), so
    each entry reproduces the cosine-coefficient equations term for term.
    """
    omega = level_omega(table)
    r = _residual_and_energy(table, table.x.c, omega, omega)[0]
    entries = r.transpose(1, 2, 0).tolist()
    return {(n, m): LambdaSeries.from_coeffs(entries[n][m])
            for n in range(table.n_max + 1) for m in range(n + 1)}


def worst_scaled_residuals(table: TransitionTable) -> Dict[int, float]:
    """The residual half of ladder_checks."""
    return ladder_checks(table)[0]


def offdiagonal_energy_check(table: TransitionTable) -> float:
    """The energy half of ladder_checks."""
    return ladder_checks(table)[1]


def line_spectrum(table: TransitionTable) -> List[SpectralLine]:
    """line_columns as one SpectralLine per line."""
    return [SpectralLine(*row) for row in zip(*(c.tolist() for c in line_columns(table)))]


def line_columns(table: TransitionTable) -> Tuple[np.ndarray, ...]:
    """Emission lines as arrays: upper state, lower state, omega, relative
    intensity and the lam power at which the amplitude first appears.

    Frequencies are level differences evaluated at the oscillator's
    coupling; relative intensity (a convention: amplitude squared) is
    normalized to the strongest line.  Lines run over the public states
    with a nonzero amplitude, by upper then lower state.
    """
    spec = table.spec
    pub = table.n_max + 1
    x = table.x.c[:, :pub, :pub]
    n, m = np.nonzero(np.tril(x.any(axis=0), -1))
    a = horner(2.0 * x[:, n, m], spec.lam)
    omega = horner((table.w[:, n] - table.w[:, m]) * (TWO_PI / spec.planck_h), spec.lam)
    inten = a * a
    peak = inten.max(initial=0.0)
    rel = inten / peak if peak else np.zeros_like(inten)
    return n, m, omega, rel, (x[:, n, m] != 0).argmax(axis=0)
