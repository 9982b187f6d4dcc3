"""Independent cross-check: truncated Hamiltonian in the number basis.

Everything here deliberately bypasses the series machinery.  The position
operator is built from ladder matrices with scale sqrt(hbar/(2 m omega0)),
the Hamiltonian is held in band storage and its lowest eigenpairs are found
densely below RITZ_MIN_BASIS states and by a banded Rayleigh-Ritz solve from
there up, and the resulting eigenvalues and position matrix elements are
compared against the perturbative table.

The x2 kind's cubic potential makes the true spectrum metastable
(unbounded below); at the couplings treated here the truncated spectrum is
quasi-bound and stable under the basis-doubling check, which is how the
truncation error is made visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ladder import TransitionTable, solve_quantum
from .oscillator import Kind, OscillatorSpec


class OracleError(RuntimeError):
    pass


@dataclass
class TruncatedHamiltonian:
    spec: OscillatorSpec
    n_basis: int
    matrix: np.ndarray


@dataclass
class OracleResult:
    spec: OscillatorSpec
    n_basis: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (N, k): the k = n_track+1 tracked states as columns
    x_elements: np.ndarray  # |<E_i| x |E_j>| for the tracked states i, j <= n_track
    n_track: Optional[int]  # None: eigenvalues only, k = 0


def _x_offdiagonal(spec: OscillatorSpec, n_basis: int) -> np.ndarray:
    """<k-1| x |k> for k = 1 .. n_basis-1: scale*sqrt(k)."""
    scale = math.sqrt(spec.hbar / (2.0 * spec.m * spec.omega0))
    return scale * np.sqrt(np.arange(1, n_basis))


def _hamiltonian_bands(specs: Sequence[OscillatorSpec], n_basis: int) -> List[np.ndarray]:
    """Lower band of H for each coupling: band[d, i] = <i + d| H |i> for d = 0 .. q.

    The couplings share m, omega0, h and kind; only lam differs.
    Kinetic plus harmonic potential are diagonal, (n + 1/2)*hbar*omega0;
    the anharmonic potential is m*lam*x^3/3 (x2 kind) or m*lam*x^4/4
    (x3 kind), banded with coupling width q = 3 or 4 (q = 0 for the
    harmonic kind).  The diagonals of x^q come from applying the
    tridiagonal x q times in band storage, O(q^2 N), once for every
    coupling; each coupling scales them by m*lam/q.  H_N holds (x_N)^q, so
    its last q rows are not those of a larger basis.  Entries past the
    basis are zero.
    """
    if n_basis < 8:
        raise OracleError("basis size must be at least 8")
    spec = specs[0]
    n = np.arange(n_basis)
    diag = (n + 0.5) * spec.hbar * spec.omega0
    q = spec.kind.force_power + 1
    if q == 1:
        return [diag[None, :] for _ in specs]
    off = _x_offdiagonal(spec, n_basis)
    band = np.zeros((2 * q + 1, n_basis))  # band[q + d, i] = <i + d| x^j |i>
    band[q] = 1.0
    for _ in range(q):  # x^j <- x^j x
        new = np.zeros_like(band)
        new[:-1, 1:] = off * band[1:, :-1]
        new[1:, :-1] += off * band[:-1, 1:]
        band = new
    out = []
    for s in specs:
        lower = band[q:] * (s.m * s.lam / q)
        lower[0] += diag
        for d in range(1, q + 1):
            lower[d, n_basis - d :] = 0.0
        out.append(lower)
    return out


def _corner(band: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """H[:rows, :cols], dense, from its lower band; leading axes are a batch.

    Each lower diagonal is scattered below the main one and copied above
    it, so a square corner is exactly symmetric.
    """
    h = np.zeros(band.shape[:-2] + (rows, cols))
    for d in range(band.shape[-2]):
        i = np.arange(max(min(rows - d, cols), 0))
        h[..., i + d, i] = band[..., d, i]
        i = np.arange(max(min(rows, cols - d), 0))
        h[..., i, i + d] = band[..., d, i]
    return h


def build_hamiltonian(
    spec: OscillatorSpec, n_basis: int, band: Optional[np.ndarray] = None
) -> TruncatedHamiltonian:
    """H in the harmonic number basis of frequency omega0, dense.

    Built in O(N) from its lower band (_hamiltonian_bands, or the one the
    caller already holds), exactly symmetric.
    """
    if band is None:
        band = _hamiltonian_bands([spec], n_basis)[0]
    return TruncatedHamiltonian(spec=spec, n_basis=n_basis, matrix=_corner(band, n_basis, n_basis))


# An even potential (x^4, or none) couples only states of equal parity.
_PARITIES = (slice(0, None, 2), slice(1, None, 2))


def _parity_blocks(spec: OscillatorSpec) -> Tuple[slice, ...]:
    """Row sets of the diagonal blocks of H: even and odd number states
    when the potential is even, else every state (x^3 couples both)."""
    p = spec.kind.force_power
    return _PARITIES if p == 0 or p % 2 == 1 else (slice(None),)


# The basis-doubling check asks whether every tracked eigenvalue of the
# doubled basis lies within eps*hbar*omega0 of its N-basis value, for eps
# on this ladder.  Its top rung is the gate: a delta (in units of
# hbar*omega0) above it means the N basis has not converged.
CONVERGENCE_LADDER = (1e-13, 1e-12, 1e-11, 1e-10)
CONVERGENCE_GATE = CONVERGENCE_LADDER[-1]
# Largest |q - j| of a fitted residual exponent q from the first power j
# that the table leaves out.
EXPONENT_GATE = 0.2

def _measured_delta(spec: OscillatorSpec, n_basis: int, tracked: np.ndarray) -> float:
    """Largest change of the tracked eigenvalues when the basis is doubled,
    in units of hbar*omega0."""
    doubled = diagonalize(build_hamiltonian(spec, 2 * n_basis), None).eigenvalues
    return float(np.max(np.abs(tracked - doubled[: len(tracked)]))) / (spec.hbar * spec.omega0)


_SWEEP_ROWS = 128  # rows of a block's band that _pivots holds at once


def _pivots(bands: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Pivots of banded symmetric matrices less shifts, by LDL^T without pivoting.

    bands[b, c, d, i] = <i + d| H_bc |i> is the lower band of block b at
    coupling c; shifts[c, s] are that coupling's shifts.  Returns the
    pivots of H_bc - shift as an array (N, B, C, S).  One sweep serves
    every block, coupling and shift, the batch as trailing axes:
    _SWEEP_ROWS rows at a time are eliminated in place, each on a strided
    (w+1) x (w+1) window of the full band less the shifts, and a run's
    last w rows carry into the next.  A diagonal band (w = 0) has nothing
    to eliminate: its pivots are the diagonal less the shift.
    """
    n_blocks, n_couplings, width, n = bands.shape
    if width == 1:
        return np.moveaxis(bands[:, :, 0], -1, 0)[..., None] - shifts
    w = width - 1
    # rows[j, w + t] = H[j, j + t], zero outside the matrix
    rows = np.zeros((n + w, 2 * w + 1, n_blocks, n_couplings, 1))
    for d in range(width):
        rows[d:n, w - d] = rows[: n - d, w + d] = np.moveaxis(bands[:, :, d, : n - d, None], -2, 0)
    m = min(n, _SWEEP_ROWS)
    buf = np.empty((m + w, 2 * w + 1, n_blocks, n_couplings, shifts.shape[1]))
    # window[j, r, c] = buf[j + r, w + c - r]: the rows j .. j + w being eliminated
    window = np.lib.stride_tricks.as_strided(
        buf[0, w], (m, w + 1, w + 1) + buf.shape[2:],
        (buf.strides[0], buf.strides[0] - buf.strides[1]) + buf.strides[1:])
    steps = list(zip(window[:, 1:, 0], window[:, 0, 0], window[:, 0, 1:], window[:, 1:, 1:]))
    ratio = np.empty((w, 1) + buf.shape[2:])
    update = np.empty((w, w) + buf.shape[2:])
    pivots = np.empty((n,) + buf.shape[2:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(0, n, m):
            size = min(m, n - j)
            fresh = w if j else 0  # after the first run the top w rows are carried
            buf[:fresh] = buf[m : m + fresh]
            buf[fresh : size + w] = rows[j + fresh : j + size + w]
            np.subtract(rows[j + fresh : j + size + w, w], shifts, out=buf[fresh : size + w, w])
            for col, pivot, row, rest in steps[:size]:
                np.divide(col, pivot, out=ratio[:, 0])
                np.multiply(ratio, row, out=update)
                np.subtract(rest, update, out=rest)
            pivots[j : j + size] = buf[:size, w]
    return pivots


def _negative_pivots(bands: np.ndarray, shifts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inertia counts of banded symmetric matrices (see _pivots).

    Returns the number of negative pivots of H_bc - shift, summed over
    the blocks, as an array (C, S), and a flag per coupling that every
    pivot was finite and nonzero.  By Sylvester's law of inertia the
    count is the number of eigenvalues below the shift.
    """
    pivots = _pivots(bands, shifts)
    counts = np.count_nonzero(pivots < 0, axis=(0, 1))
    sound = np.all(np.isfinite(pivots) & (pivots != 0), axis=(0, 1, 3))
    return counts, sound


def _counted_deltas(
    specs: Sequence[OscillatorSpec], n_basis: int, tracked: Sequence[np.ndarray]
) -> List[Optional[float]]:
    """Basis-doubling delta of each coupling's tracked eigenvalues that
    inertia counts of the doubled basis certify, in units of hbar*omega0;
    None where they certify no rung up to the gate.

    The delta is the smallest ladder rung eps certified at
    eps*hbar*omega0, an upper bound.  Tracked eigenvalue i of H_2N lies
    within e of E_i exactly when H_2N - (E_i - e) has at most i negative
    pivots and H_2N - (E_i + e) at least i + 1.  H_2N comes from band
    storage, split into its parity blocks; no dense doubled matrix is
    built.  The lowest rung is swept first; only the couplings it leaves
    uncertified sweep the others.  A coupling whose gate is not
    certified, or where a swept pivot was zero or not finite, gets None.
    """
    levels = np.array(tracked)  # (C, k)
    i = np.arange(levels.shape[1])
    blocks = _parity_blocks(specs[0])
    bands = np.array([
        [band[:: len(blocks), b] for b in blocks]  # a parity block's band: every other diagonal
        for band in _hamiltonian_bands(specs, 2 * n_basis)
    ]).swapaxes(0, 1)
    deltas: List[Optional[float]] = [None] * len(specs)
    asked = np.arange(len(specs))
    for rungs in (CONVERGENCE_LADDER[:1], CONVERGENCE_LADDER[1:]):
        if not len(asked):
            break
        eps = np.array(rungs)[:, None] * (specs[0].hbar * specs[0].omega0)  # absolute
        shifts = np.concatenate([levels[asked, None] - eps, levels[asked, None] + eps], axis=1)
        counts, sound = _negative_pivots(bands[:, asked], shifts.reshape(len(asked), -1))
        counts = counts.reshape(len(asked), 2, len(rungs), -1)
        certified = np.all((counts[:, 0] <= i) & (counts[:, 1] >= i + 1), axis=-1)  # (asked, rungs)
        for c, ok in zip(asked[sound & certified[:, -1]], certified[sound & certified[:, -1]]):
            deltas[c] = rungs[np.argmax(ok)]
        asked = asked[sound & ~certified[:, -1]]
    return deltas


def _doubling_deltas(
    specs: Sequence[OscillatorSpec], n_basis: int, tracked: Sequence[np.ndarray]
) -> List[float]:
    """Basis-doubling delta of each coupling's tracked eigenvalues, in
    units of hbar*omega0: the counted one (_counted_deltas), or, where
    the counts certify none, an eigvalsh of the doubled basis and the
    measured delta."""
    return [_measured_delta(s, n_basis, t) if d is None else d
            for s, t, d in zip(specs, tracked, _counted_deltas(specs, n_basis, tracked))]


def _merge(
    spec: OscillatorSpec, n_basis: int, parts: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    n_track: Optional[int],
) -> OracleResult:
    """One OracleResult from each parity block's ascending eigenvalues and
    (n_track not None) the vectors of its lowest states, held in the
    block's leading rows.

    The spectra are merged by a stable sort, which keeps the even state
    first on a tie.  The vectors of the k = n_track+1 lowest states are
    scattered into their parity rows as the columns of an N x k array;
    x_elements is |V_k^T (x V_k)|, with x V_k formed from the two
    off-diagonals of x in O(N k).
    """
    evals = np.concatenate([w for w, _ in parts])
    order = np.argsort(evals, kind="stable")
    if n_track is None:  # most calls; the vector work would add about 25 us to each
        return OracleResult(spec=spec, n_basis=n_basis, eigenvalues=evals[order],
                            eigenvectors=np.zeros((n_basis, 0)),
                            x_elements=np.zeros((0, 0)), n_track=None)

    k = min(n_track + 1, n_basis)
    vk = np.zeros((n_basis, k), order="F")
    start = 0
    for b, (w, v) in zip(_parity_blocks(spec), parts):
        cols = order[:k] - start
        mine = (cols >= 0) & (cols < len(w))
        vk[b][: len(v), mine] = v[:, cols[mine]]
        start += len(w)
    off = _x_offdiagonal(spec, n_basis)[:, None]
    xv = np.zeros_like(vk)
    xv[:-1] = off * vk[1:]
    xv[1:] += off * vk[:-1]

    return OracleResult(
        spec=spec,
        n_basis=n_basis,
        eigenvalues=evals[order],
        eigenvectors=vk,
        x_elements=np.abs(vk.T @ xv),
        n_track=n_track,
    )


def diagonalize(ham: TruncatedHamiltonian, n_track: Optional[int]) -> OracleResult:
    """Ascending eigenvalues of H, with eigenvectors of the tracked states.

    The oracle's one dense eigensolve.  An even potential (x3 kind,
    harmonic) makes H block diagonal in parity, so its even and odd blocks
    are decomposed separately and merged (_merge); x^3 couples both
    parities, one block.  With n_track None no state is tracked and every
    block gets eigvalsh.  Otherwise every block gets eigh, and the k =
    n_track+1 lowest states keep their vectors and x_elements.
    Deterministic for fixed input.
    """
    h = ham.matrix  # h[b, b] is a view: no block is copied before LAPACK
    try:  # (eigenvalues, eigenvectors or None) per block
        parts = [np.linalg.eigh(h[b, b]) if n_track is not None
                 else (np.linalg.eigvalsh(h[b, b]), None) for b in _parity_blocks(ham.spec)]
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"eigensolver did not converge: {exc}") from exc
    for w, _ in parts:  # LAPACK returns them ascending
        if not np.all(np.diff(w) >= -1e-9 * max(1.0, abs(w[-1]))):
            raise OracleError("eigenvalues not sorted; decomposition failed")
    return _merge(ham.spec, ham.n_basis, parts, n_track)


# The banded route: from RITZ_MIN_BASIS rows up, compare finds the tracked
# eigenpairs by Rayleigh-Ritz on the leading RITZ_ROWS rows of each parity
# block, certified by the doubling counts; below it, and for any coupling
# that route leaves unconverged or uncertified, by diagonalize.
RITZ_MIN_BASIS = 128
RITZ_ROWS = (32, 64, 128)
RITZ_TOL = 1e-13  # largest Ritz residual norm, in hbar*omega0


RitzPairs = Tuple[np.ndarray, np.ndarray]  # (theta, y) of one block


def _ritz_pairs(bands: Sequence[np.ndarray], k: int, unit: float) -> List[Optional[RitzPairs]]:
    """The k lowest Ritz pairs of banded symmetric blocks, or None where unconverged.

    bands[p] is block p's lower band, (w+1, n_p), w the same for every
    block.  Block Davidson from the unit vectors e_0 .. e_{k-1} with the
    diagonal preconditioner (diag - theta)^-1 searches exactly the span of
    the leading unit vectors, w more per step, because the preconditioner
    keeps each residual's support.  So the solve takes that span directly:
    the eigenpairs (theta, y) of the leading m x m block H_m, every block
    at once by one batched eigh, for m in RITZ_ROWS up to n_p/2 (where
    that eigh costs an eighth of the whole block's).  The residual of the
    Ritz pair in the whole block is (H_m y - theta y, B y) with B the w
    rows below H_m, so a block is converged at the first m where
    |B y| <= RITZ_TOL*unit for each of its k pairs; it stops unconverged
    when no m is left.  Each theta is an upper bound on the block's
    eigenvalue (Cauchy interlacing).  Returns (theta, y) per block, y
    with m rows.
    """
    found: List[Optional[RitzPairs]] = [None] * len(bands)
    todo = list(range(len(bands)))
    for m in RITZ_ROWS:
        todo = [p for p in todo if k < m <= bands[p].shape[1] // 2]
        if not todo:
            break
        w = bands[todo[0]].shape[0] - 1
        h = _corner(np.array([bands[p][:, :m] for p in todo]), m + w, m)
        try:
            theta, y = np.linalg.eigh(h[:, :m])
        except np.linalg.LinAlgError:
            break
        theta, y = theta[:, :k], y[:, :, :k]
        r = np.einsum("pri,pij->prj", h[:, m:], y)
        done = np.all(np.einsum("prj,prj->pj", r, r) <= (RITZ_TOL * unit) ** 2, axis=1)
        for p, t, v in zip(np.array(todo)[done], theta[done], y[done]):
            found[p] = (t, v)
        todo = [p for p, ok in zip(todo, done) if not ok]
    return found


def _ritz_sweep(
    specs: Sequence[OscillatorSpec], bands: Sequence[np.ndarray], n_basis: int,
    n_track: int, base: Optional[int],
) -> List[Optional[OracleResult]]:
    """The tracked eigenpairs of every coupling from one batched _ritz_pairs
    solve over the couplings and their parity blocks; None for a coupling
    with an unconverged block.

    Each block tracks ceil(k/B) states, B the number of blocks; merged,
    their k lowest Ritz values are upper bounds on H_N's k lowest
    eigenvalues in any case.  Vectors and x_elements at coupling base only.
    """
    blocks = _parity_blocks(specs[0])
    k = min(n_track + 1, n_basis)
    found = _ritz_pairs([band[:: len(blocks), b] for band in bands for b in blocks],
                        -(-k // len(blocks)), specs[0].hbar * specs[0].omega0)
    out: List[Optional[OracleResult]] = []
    for c, s in enumerate(specs):
        parts = found[c * len(blocks) : (c + 1) * len(blocks)]
        tracked = n_track if c == base else None
        out.append(None if any(p is None for p in parts) else _merge(s, n_basis, parts, tracked))
    return out


def tracked_levels(n_max: int) -> int:
    """Levels 0 .. n_track the oracle checks for a ladder solved to n_max."""
    return min(5, n_max)


def default_basis_size(n_track: int) -> int:
    return 4 * (n_track + 1) + 32


def _rs_shifts(spec: OscillatorSpec, rows: np.ndarray) -> np.ndarray:
    """Rayleigh-Schroedinger level shifts lam*E_1(n) and lam^2*E_2(n), rows
    0 and 1, for n = 0 .. n_track, read off the leading rows of H,
    rows = H[: n_track + 1] (all N columns).

    H0 is diagonal, (n + 1/2)*hbar*omega0, so lam*E_1 = H_nn - (n + 1/2)
    hbar*omega0 and lam^2*E_2 = sum_{k != n} H_kn^2/((n - k)*hbar*omega0).
    Exact when the basis holds every state the potential couples to n,
    N > n_track + p + 1 for the force power p.
    """
    n = np.arange(len(rows))
    gaps = (n[:, None] - np.arange(rows.shape[1])) * (spec.hbar * spec.omega0)
    gaps[n, n] = np.inf  # k = n adds nothing
    first = rows[n, n] - (n + 0.5) * spec.hbar * spec.omega0
    return np.array([first, np.sum(rows * rows / gaps, axis=1)])


@dataclass
class LevelComparison:
    lam: float
    n: int
    perturbative: float
    exact: float

    @property
    def residual(self) -> float:
        return abs(self.perturbative - self.exact)


@dataclass
class AmplitudeComparison:
    n: int
    measured: float          # 2|<E_{n-1}|x|E_n>|
    sum_rule_form: float     # sqrt(n h/(pi m omega(n,n-1))), exact frequency
    series_form: float       # the table's amplitude series
    lam: float

    @property
    def rel_error_exact(self) -> float:
        return abs(self.measured - self.sum_rule_form) / self.sum_rule_form

    @property
    def rel_error_series(self) -> float:
        return abs(self.measured - self.series_form) / self.series_form


@dataclass
class ComparisonReport:
    spec: OscillatorSpec
    lambdas: Tuple[float, ...]
    n_track: int
    n_basis: int
    neglected_order: int  # j: the first power of lam the table leaves out
    base_lam: Optional[float]  # the first nonzero coupling, where amplitudes are compared
    levels: List[LevelComparison] = field(default_factory=list)
    amplitudes: List[AmplitudeComparison] = field(default_factory=list)
    fit_constant: Dict[int, float] = field(default_factory=dict)
    fit_exponent: Dict[int, float] = field(default_factory=dict)
    convergence_deltas: List[float] = field(default_factory=list)  # per coupling, in hbar*omega0
    failures: List[str] = field(default_factory=list)  # each starts with its gate word

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def convergence_delta(self) -> float:
        """The largest doubling delta of the sweep (NaN propagates)."""
        return float(np.max(self.convergence_deltas, initial=0.0))

    @property
    def exponent_gap(self) -> float:
        """Largest |q - j| over the fitted levels (NaN propagates); j when
        none was fitted."""
        gaps = [abs(q - self.neglected_order) for q in self.fit_exponent.values()]
        return float(np.max(gaps)) if gaps else float(self.neglected_order)

    @property
    def unconverged(self) -> List[float]:
        """Couplings whose delta is not within the gate (NaN included)."""
        return [lam for lam, delta in zip(self.lambdas, self.convergence_deltas)
                if not delta <= CONVERGENCE_GATE]


def coupling_sweep(lam: float) -> List[float]:
    """Couplings at which the oracle checks a run at lam: lam/2 .. 4*lam."""
    return [lam / 2, lam, 2 * lam, 4 * lam] if lam != 0 else [0.0]


def compare(
    spec: OscillatorSpec,
    lambdas: Sequence[float],
    n_track: int,
    n_basis: Optional[int] = None,
    table: Optional[TransitionTable] = None,
) -> ComparisonReport:
    """The table's levels and amplitudes against the diagonalization.

    W_pert(n) is table.level(n) at each coupling; the table's coefficients
    do not depend on lam, so one solve serves the sweep.  Without a table,
    one is solved to order 1 with n_track + 1 levels.
    Each coupling's k = n_track+1 lowest eigenpairs come from one route.
    From RITZ_MIN_BASIS rows up, one batched Rayleigh-Ritz solve
    (_ritz_sweep) serves every coupling, and the inertia counts of the
    doubled basis (_counted_deltas) certify its Ritz values: theta_i >=
    lambda_i(H_N) (Ritz values are upper bounds) >= lambda_i(H_2N)
    (interlacing) >= theta_i - eps (the counts), so one certificate bounds
    both the doubling delta and |theta_i - lambda_i(H_N)| by eps.  H_N is
    not exactly the leading block of H_2N: their last q rows differ
    (_hamiltonian_bands), where converged states have no weight.  A coupling
    whose solve stops unconverged or whose counts certify no rung, and
    every coupling below RITZ_MIN_BASIS, is diagonalized instead, and one
    _doubling_deltas call checks those couplings' doubled bases.  Either
    route tracks eigenvectors at the base coupling only, the first nonzero
    one (report.base_lam), where the amplitudes read x_elements.
    convergence_deltas keeps one delta per coupling, so the hardest
    coupling is checked.

    The verdict is report.failures, each led by the word of its gate:
    - convergence: a doubling delta above CONVERGENCE_GATE.  That
      coupling's level rows are kept but add no level failure and no fit
      point: the basis, not the series, failed there.
    - level: |W_pert(n) - E_n| beyond 4*|lam^j E_j(n)| (floor
      1e-10*hbar*omega0), the Rayleigh-Schroedinger shift read off that
      coupling's H; or no coupling converged.  j is the first power the
      table leaves out, order + 1, raised to the next even power when the
      potential is odd, which shifts no level at odd orders.
    - scaling: with two or more nonzero couplings, the residual is fit to
      C*lam^q per level; exponent_gap above EXPONENT_GATE (or no fit).
    - amplitude: at the base coupling, a relative error against the
      sum-rule form at the measured frequency above 1.25*r^2 (r the
      smallness ratio there), or that coupling unconverged.  The rows,
      with the table's amplitude series, are kept either way.
    """
    if n_basis is None:
        n_basis = default_basis_size(n_track)
    if table is None:
        table = solve_quantum(spec, n_max=n_track + 1, order=1)
    j = table.order + 1
    if len(_parity_blocks(spec)) == 1 and j % 2:  # odd potential: no odd-order shift
        j += 1
    base_lam = next((l for l in lambdas if l != 0), None)
    report = ComparisonReport(spec=spec, lambdas=tuple(lambdas), n_track=n_track,
                              n_basis=n_basis, neglected_order=j, base_lam=base_lam)

    residuals: Dict[int, List[Tuple[float, float]]] = {n: [] for n in range(n_track + 1)}
    k = min(n_track + 1, n_basis)
    specs = [OscillatorSpec(spec.m, spec.omega0, lam, spec.planck_h, spec.kind) for lam in lambdas]
    bands = _hamiltonian_bands(specs, n_basis)
    shifts = [_rs_shifts(s, _corner(band, n_track + 1, n_basis))[j - 1]  # lam^j E_j(n)
              for s, band in zip(specs, bands)]
    base_index = next((c for c, lam in enumerate(lambdas) if lam != 0), None)

    def dense(c: int) -> OracleResult:
        ham = build_hamiltonian(specs[c], n_basis, band=bands[c])
        return diagonalize(ham, n_track if c == base_index else None)

    ritz = (_ritz_sweep(specs, bands, n_basis, n_track, base_index)
            if n_basis >= RITZ_MIN_BASIS else [None] * len(specs))
    sweep = [dense(c) if r is None else r for c, r in enumerate(ritz)]
    deltas = _counted_deltas(specs, n_basis, [r.eigenvalues[:k] for r in sweep])
    redo = [c for c, d in enumerate(deltas) if d is None and ritz[c] is not None]
    if redo:  # uncertified Ritz values: the dense route, as if never banded
        for c in redo:
            sweep[c] = dense(c)
        for c, d in zip(redo, _doubling_deltas([specs[c] for c in redo], n_basis,
                                               [sweep[c].eigenvalues[:k] for c in redo])):
            deltas[c] = d
    report.convergence_deltas = [
        _measured_delta(s, n_basis, r.eigenvalues[:k]) if d is None else d
        for s, r, d in zip(specs, sweep, deltas)]
    base = sweep[base_index] if base_index is not None else None

    unconverged = report.unconverged
    hbw = spec.hbar * spec.omega0
    for r, delta, shift in zip(sweep, report.convergence_deltas, shifts):
        s, lam = r.spec, r.spec.lam
        if lam in unconverged:
            report.failures.append(f"convergence lam={lam:g}: doubling delta "
                                   f"{delta * hbw:.3e} > {CONVERGENCE_GATE * hbw:.3e}")
        for n in range(n_track + 1):
            row = LevelComparison(
                lam=lam,
                n=n,
                perturbative=table.level(n).eval(lam),
                exact=float(r.eigenvalues[n]),
            )
            report.levels.append(row)
            if lam in unconverged:  # the basis, not the series, is at fault here
                continue
            if lam != 0:
                residuals[n].append((lam, row.residual))
            tol = max(4.0 * abs(shift[n]), 1e-10 * s.hbar * s.omega0)
            if row.residual > tol:
                report.failures.append(
                    f"level n={n} lam={lam:g}: |dW|={row.residual:.3e} > {tol:.3e}"
                )
    if len(unconverged) == len(lambdas):
        report.failures.append(
            "level: none compared, unconverged lam=" + ", ".join(f"{l:g}" for l in unconverged))

    # power-law fit of the residual per level (in |lam|)
    for n, pts in residuals.items():
        pts = [(abs(l), r) for (l, r) in pts if r > 0]
        if len(pts) >= 2:
            xs = np.log([p[0] for p in pts])
            ys = np.log([p[1] for p in pts])
            slope, intercept = np.polyfit(xs, ys, 1)
            report.fit_exponent[n] = float(slope)
            report.fit_constant[n] = float(math.exp(intercept))
    if sum(lam != 0 for lam in lambdas) >= 2 and not report.exponent_gap <= EXPONENT_GATE:
        qs = sorted(round(q, 3) for q in report.fit_exponent.values())
        report.failures.append(f"scaling: exponents {qs} not within {EXPONENT_GATE:g} of {j}")

    # amplitude comparison at the first nonzero coupling
    if base is not None and spec.kind is not Kind.HARMONIC:
        s, evals, x_elem = base.spec, base.eigenvalues, base.x_elements
        # 1.25*r^2 in the smallness ratio r at base_lam (5*lam^2 for x3 and
        # 2.5*lam^2 for x2 in default units); OverflowError beyond r ~ 1e154
        amp_tol = 1.25 * s.smallness_ratio() ** 2
        if base_lam in unconverged:
            report.failures.append(f"amplitude: none compared, unconverged lam={base_lam:g}")
        for n in range(1, n_track + 1):
            omega_exact = float(evals[n] - evals[n - 1]) / s.hbar
            sum_rule = math.sqrt(n * s.planck_h / (math.pi * s.m * omega_exact))
            row = AmplitudeComparison(
                n=n,
                measured=2.0 * float(x_elem[n - 1, n]),
                sum_rule_form=sum_rule,
                series_form=table.amp(n, n - 1).eval(base_lam),
                lam=base_lam,
            )
            report.amplitudes.append(row)
            if base_lam not in unconverged and row.rel_error_exact > amp_tol:
                report.failures.append(
                    f"amplitude n={n}: rel err {row.rel_error_exact:.3e} > 1.25*r^2"
                )
    return report
