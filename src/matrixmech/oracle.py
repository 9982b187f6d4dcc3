"""Independent cross-check: truncated Hamiltonian in the number basis.

Everything here deliberately bypasses the series machinery.  The position
operator is built from ladder matrices with scale sqrt(hbar/(2 m omega0)),
the Hamiltonian is held in band storage and its lowest eigenpairs are found
on one ladder of rungs, Rayleigh-Ritz on leading blocks of at most 128 rows
(diagonalize), and the resulting eigenvalues and position matrix elements
are compared against the perturbative table.

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

from .ladder import TransitionTable
from .oscillator import OscillatorSpec
from .series import horner


class OracleError(RuntimeError):
    pass


def _x_offdiagonal(spec: OscillatorSpec, n_basis: int) -> np.ndarray:
    """<k-1| x |k> for k = 1 .. n_basis-1: scale*sqrt(k)."""
    scale = math.sqrt(spec.hbar / (2.0 * spec.m * spec.omega0))
    return scale * np.sqrt(np.arange(1, n_basis))


def _hamiltonian_bands(specs: Sequence[OscillatorSpec], *sizes: int) -> List[np.ndarray]:
    """Lower band of H for each coupling at each basis size N in sizes,
    one array (C, q + 1, N) per size: bands[c, d, i] = <i + d| H_c |i>
    for d = 0 .. q.

    The couplings share m, omega0, h and kind; only lam differs.
    Kinetic plus harmonic potential are diagonal, (n + 1/2)*hbar*omega0;
    the anharmonic potential is m*lam*x^3/3 (x2 kind) or m*lam*x^4/4
    (x3 kind), banded with coupling width q = 3 or 4 (q = 0 for the
    harmonic kind).  The diagonals of x^q come from applying the
    tridiagonal x q times in band storage, O(q^2 N), in one recursion
    for every coupling and size; one product per size scales them by
    each coupling's m*lam/q.  H_N holds (x_N)^q, so its last q columns
    are not those of a larger basis; its others are.  So the recursion
    runs over the largest basis followed by the last 2q states of each
    smaller one, with x cut between these runs: after q steps a run's
    last q columns are its own basis's, bit for bit what a recursion of
    that width alone forms.  Entries past the basis are zero; a
    non-finite one raises OverflowError.
    """
    if min(sizes) < 8:
        raise OracleError("basis size must be at least 8")
    spec, width = specs[0], max(sizes)
    diag = (np.arange(width) + 0.5) * spec.hbar * spec.omega0
    q = spec.kind.force_power + 1
    if q == 1:
        bands = [np.tile(diag[:n], (len(specs), 1, 1)) for n in sizes]
    else:
        # runs of states: the largest basis, then the last 2q states of each smaller
        # one, each run starting with x cut (0) from the one before
        x = _x_offdiagonal(spec, width)
        off = np.concatenate([x] + [v for n in sizes if n < width
                                    for v in ([0.0], x[n - 2 * q : n - 1])])
        band = np.zeros((2 * q + 3, len(off) + 1))  # band[q + 1 + d, i] = <i + d| x^j |i>; zero end rows
        band[q + 1] = 1.0
        for j in range(1, q + 1):  # x^j <- x^(j-1) x, on the diagonals d = -j, -j + 2 .. j
            new = np.zeros(band.shape)
            d = slice(q + 1 - j, q + 2 + j, 2)
            np.multiply(off, band[q + 2 - j : q + 3 + j : 2, :-1], out=new[d, 1:])
            new[d, :-1] += off * band[q - j : q + 1 + j : 2, 1:]
            band = new
        lower, lams = band[q + 1 : -1], np.array([s.m * s.lam / q for s in specs])[:, None, None]
        bands, edge = [], width + q  # the last q columns of the next smaller run
        for n in sizes:
            xq = lower[:, :n]
            if n < width:
                xq = np.concatenate([xq[:, : n - q], lower[:, edge : edge + q]], axis=1)
                edge += 2 * q
            bands.append(xq * lams)
            bands[-1][:, 0] += diag[:n]
            for d in range(1, q + 1):
                bands[-1][:, d, n - d :] = 0.0
    if not all(np.isfinite(b).all() for b in bands):
        raise OverflowError("the oracle's Hamiltonian is not finite")
    return bands


def _corner(band: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """H[:rows, :cols], dense, from its lower band; leading axes are a batch.

    Each lower diagonal is scattered below the main one and copied above
    it, so a square corner is exactly symmetric.
    """
    h = np.zeros(band.shape[:-2] + (rows, cols))
    # flat: H[i + d, i] at d*cols + i*(cols + 1), H[i, i + d] at d + i*(cols + 1)
    flat = h.reshape(h.shape[:-2] + (-1,))
    for d in range(band.shape[-2]):
        below, above = max(min(rows - d, cols), 0), max(min(rows, cols - d), 0)
        flat[..., d * cols :: cols + 1][..., :below] = band[..., d, :below]
        flat[..., d :: cols + 1][..., :above] = band[..., d, :above]
    return h


def build_hamiltonian(spec: OscillatorSpec, n_basis: int) -> np.ndarray:
    """H in the harmonic number basis of frequency omega0, a dense
    n_basis x n_basis array: the reference that diagonalize's banded
    solve is checked against.

    Built in O(N) from its lower band (_hamiltonian_bands), exactly
    symmetric.
    """
    return _corner(_hamiltonian_bands([spec], n_basis)[0][0], n_basis, n_basis)


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
# Rungs above the gate, a quarter decade apart (10^-9.75 .. 10^2.75), on
# which an unconverged coupling's delta is counted.  A delta above the top
# rung is reported as the top rung.
DELTA_LADDER = tuple(10.0 ** (e / 4) for e in range(-39, 12))
# Largest |q - j| of a fitted residual exponent q from the first power j
# that the table leaves out.
EXPONENT_GATE = 0.2

_SWEEP_ROWS = 128  # rows of a block's band that _pivots holds at once


def _first_dominant_row(bands: np.ndarray, shifts: np.ndarray) -> int:
    """First row r from which every row i >= r of every H_bc - shift has
    a positive Gershgorin margin, H_ii - shift - sum_{j != i} |H_ij| > 0,
    at every shift of its coupling; N when the last row has none.

    bands and shifts as in _pivots.  A NaN anywhere fails the margin.
    """
    width, n = bands.shape[2:]
    size = np.abs(bands[:, :, 1:])  # |<i + d| H |i>| for d = 1 .. width - 1
    off = np.add.reduce(size, axis=2)  # above the diagonal: <i| H |i + d>
    for d in range(1, width):  # below it: <i| H |i - d>
        np.add(off[..., d:], size[:, :, d - 1, : n - d], off[..., d:])
    margin = bands[:, :, 0] - off - np.maximum.reduce(shifts, axis=1)[:, None]
    bad = (~np.logical_and.reduce(margin > 0, axis=(0, 1))).nonzero()[0]
    return int(bad[-1]) + 1 if len(bad) else 0


def _carried_rows_dominant(held: np.ndarray) -> bool:
    """Whether the w carried rows held[a, w + t] (t >= -a: their columns
    not yet eliminated) are strictly diagonally dominant with a positive
    diagonal, at every block, coupling and shift."""
    w = len(held)
    off = np.add.reduce(np.abs(held[:, w + 1 :]), axis=1)
    for a in range(1, w):
        off[a] += np.add.reduce(np.abs(held[a, w - a : w]), axis=0)
    return bool(np.logical_and.reduce(held[:, w] > off, axis=None))


def _pivots(bands: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Pivots of banded symmetric matrices less shifts, by LDL^T without
    pivoting, up to the row where the rest is provably positive definite.

    bands[b, c, d, i] = <i + d| H_bc |i> is the lower band of block b at
    coupling c; shifts[c, s] are that coupling's shifts.  Returns the
    pivots of the first r rows of H_bc - shift as an array (r, B, C, S),
    r <= N.  One sweep serves every block, coupling and shift, the batch
    as trailing axes: runs of at most _SWEEP_ROWS rows are filled from
    the band less the shifts and eliminated in place, each row on a
    strided (w+1) x (w+1) window of the full band, and a run's last w
    rows carry into the next.  A diagonal band (w = 0) has nothing to
    eliminate: its pivots are the diagonal less the shift, all N rows.

    The sweep stops at row r when the part not yet eliminated, the Schur
    complement of the leading r x r block, is strictly diagonally
    dominant with a positive diagonal at every block, coupling and
    shift: the w carried rows as the buffer holds them (their columns
    >= r) and the untouched rows r + w onward (_first_dominant_row).  By
    Gershgorin that complement is positive definite, and elimination
    keeps each row's dominance margin from shrinking, so by Haynsworth's
    inertia additivity the rows past r would add only positive, finite
    pivots: the counts, and whether every pivot is finite and nonzero,
    are the full sweep's.  The first row tried is _first_dominant_row's;
    where the carried rows fail (a leading block nearly singular at a
    shift next to an eigenvalue), row 2r + 8, and so on, each run filled
    through the row tried after the next.  Where no row passes (an
    unconverged coupling or a shift above the Gershgorin region anywhere
    in the batch) all N rows are eliminated.
    """
    n_blocks, n_couplings, width, n = bands.shape
    if width == 1:
        return np.moveaxis(bands[:, :, 0], -1, 0)[..., None] - shifts
    w = width - 1
    m = min(n, _SWEEP_ROWS)
    buf = np.empty((m + w, 2 * w + 1, n_blocks, n_couplings, shifts.shape[1]))
    flat = buf.reshape(m + w, 2 * w + 1, -1)  # the batch as one axis
    # window[j, r, c] = buf[j + r, w + c - r]: the rows j .. j + w being eliminated
    (s0, s1, s2), batch = flat.strides, flat.shape[2]
    window = np.ndarray((m, w + 1, w + 1, batch), float, flat, w * s1, (s0, s0 - s1, s1, s2))
    views = (window[:, 1:, 0], window[:, 0, 0], window[:, 0, 1:], window[:, 1:, 1:])
    band = bands.transpose(3, 2, 0, 1)[..., None]  # band[i, d] = bands[:, :, d, i], over the shifts
    ratio = np.empty((w, 1, batch))
    quotient, update = ratio[:, 0], np.empty((w, w, batch))
    pivots = np.empty((n,) + buf.shape[2:])
    stop = max(_first_dominant_row(bands, shifts), 1)  # the next row at which to test the rest
    j = size = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while j < n:
            fresh = w if j else 0  # after the first run the top w rows are carried
            buf[:fresh] = buf[size : size + fresh]
            size = min(m, n - j, 2 * stop + 8 - j)
            # buf[a, w + t] = H[i, i + t] (less the shift at t = 0) for row
            # i = j + a, zero outside the matrix; rows lo .. hi - 1 are new
            new = buf[fresh : size + w]
            new[...] = 0.0
            lo = j + fresh
            hi = max(min(j + size + w, n), lo)
            new[: hi - lo, w:] = band[lo:hi]  # <i| H |i + d> = bands[d, i]
            for d in range(1, width):  # <i| H |i - d> = bands[d, i - d]
                first = max(lo, d)
                if first < hi:
                    new[first - lo : hi - lo, w - d] = band[first - d : hi - d, d]
            np.subtract(new[: hi - lo, w], shifts, out=new[: hi - lo, w])
            a = 0  # the run's rows eliminated
            while a < size:
                b, a = a, min(stop - j, size)
                for col, pivot, row, rest in zip(*(v[b:a] for v in views)):
                    np.divide(col, pivot, quotient)
                    np.multiply(ratio, row, update)
                    np.subtract(rest, update, rest)
                pivots[j + b : j + a] = buf[b:a, w]
                if j + a == stop:
                    if stop + w <= n and _carried_rows_dominant(buf[a : a + w]):
                        return pivots[:stop]
                    stop = 2 * stop + 8
            j += size
    return pivots


def _negative_pivots(bands: np.ndarray, shifts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inertia counts of banded symmetric matrices (see _pivots).

    Returns the number of negative pivots of H_bc - shift, summed over
    the blocks, as an array (C, S), and a flag per coupling that every
    pivot eliminated was finite and nonzero.  By Sylvester's law of
    inertia the count is the number of eigenvalues below the shift; the
    rows that _pivots leaves uneliminated add none, and no zero or
    non-finite pivot either.
    """
    pivots = _pivots(bands, shifts)
    counts = np.add.reduce(pivots < 0, axis=(0, 1), dtype=np.intp)
    sound = np.logical_and.reduce(np.isfinite(pivots) & (pivots != 0), axis=(0, 1, 3))
    return counts, sound


def _counted_deltas(
    specs: Sequence[OscillatorSpec], bands: np.ndarray, levels: np.ndarray,
) -> np.ndarray:
    """Basis-doubling delta of each coupling's tracked eigenvalues that
    inertia counts of the doubled basis certify, in units of hbar*omega0,
    an array (C,); inf where they certify no rung up to the top of
    DELTA_LADDER.

    The delta is the smallest rung eps certified at eps*hbar*omega0, an
    upper bound up to the round-off of double-precision factorizations:
    x3 at lam 0.15, 0.3 and 0.6 on 96 states is certified at 1e-13 while
    eigvalsh of the dense H_2N lies 4.1e-13, 1.7e-13 and 8.3e-13 from the
    values given, and at lam 1.2 at 1e-12 against 1.2e-12.  Tracked
    eigenvalue i of H_2N lies within e of E_i exactly when H_2N - (E_i - e)
    has at most i negative pivots and H_2N - (E_i + e) at least i + 1, so
    a certified rung stays certified up the ladder.  The E_i are the rows
    of levels (C, k), Ritz or exact.  H_2N is each coupling's lower band
    of the doubled basis, bands (C, q + 1, 2N) from _hamiltonian_bands,
    split into its parity blocks.  Each sweep counts all its couplings'
    shifts at once (_pivots): the lowest rung; the rest of the gate, for
    the couplings it left; then, for those the gate leaves, DELTA_LADDER
    in two sweeps: every 7th rung down from the top, then the six below
    the first certified.  The counting ends as soon as no coupling is
    left, so a converged sweep of couplings is one sweep.  A sweep stops
    where the rest of every H_2N - shift is strictly diagonally dominant:
    early when all its couplings are converged, at the last row with one
    that is not.  A coupling with a swept pivot zero or not finite gets
    inf.
    """
    i = np.arange(levels.shape[1])
    (n_couplings, _, n), nb = bands.shape, len(_parity_blocks(specs[0]))
    # parity block b's band: every nb-th diagonal, at every nb-th state from b
    bands = np.ascontiguousarray(
        bands[:, ::nb].reshape(n_couplings, -1, n // nb, nb).transpose(3, 0, 1, 2))

    def certified(asked, rungs):  # rungs (asked or 1, R): each certified (asked, R), sound (asked,)
        eps = rungs[..., None] * (specs[0].hbar * specs[0].omega0)  # absolute
        shifts = np.concatenate([levels[asked, None] - eps, levels[asked, None] + eps], axis=1)
        counts, sound = _negative_pivots(bands if len(asked) == n_couplings else bands[:, asked],
                                         shifts.reshape(len(asked), -1))
        counts = counts.reshape(len(asked), 2, rungs.shape[1], -1)
        return np.logical_and.reduce((counts[:, 0] <= i) & (counts[:, 1] >= i + 1), axis=-1), sound

    deltas = np.full(n_couplings, np.inf)
    asked = np.arange(n_couplings)
    for rungs in (np.array([CONVERGENCE_LADDER[:1]]), np.array([CONVERGENCE_LADDER[1:]])):
        ok, sound = certified(asked, rungs)
        done = sound & ok[:, -1]
        deltas[asked[done]] = rungs[0, ok[done].argmax(axis=1)]
        asked = asked[sound & ~ok[:, -1]]
        if not len(asked):
            return deltas
    # DELTA_LADDER: every 7th rung down from the top, then the six below the first certified
    hi = np.full(len(asked), len(DELTA_LADDER) + 6)  # the first rung known certified; none yet
    for step, count in ((7, 8), (1, 6)):
        probes = np.maximum(hi[:, None] - step * np.arange(count, 0, -1), 0)
        ok, sound = certified(asked, np.array(DELTA_LADDER)[probes])
        hi = np.where(ok.any(axis=1), probes[np.arange(len(asked)), ok.argmax(axis=1)], hi)
        asked, hi = asked[sound & (hi < len(DELTA_LADDER))], hi[sound & (hi < len(DELTA_LADDER))]
        if not len(asked):
            return deltas
    deltas[asked] = np.array(DELTA_LADDER)[hi]
    return deltas


def _x_elements(spec: OscillatorSpec, vectors: np.ndarray) -> np.ndarray:
    """|V^T (x V)| for the tracked states, the columns of vectors (N, k),
    with x V formed from the two off-diagonals of x in O(N k)."""
    off = _x_offdiagonal(spec, len(vectors))[:, None]
    xv = np.zeros_like(vectors)
    xv[:-1] = off * vectors[1:]
    xv[1:] += off * vectors[:-1]
    return np.abs(vectors.T @ xv)


def _eigh(h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of a batch of symmetric matrices, with their
    eigenvectors, by one LAPACK call.

    Checks that every matrix's eigenvalues came back ascending, the whole
    batch at once.
    """
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"eigensolver did not converge: {exc}") from exc
    if not (w[..., 1:] - w[..., :-1] >= -1e-9 * np.maximum(1.0, np.abs(w[..., -1:]))).all():
        raise OracleError("eigenvalues not sorted; decomposition failed")
    return w, v


# The Ritz rungs in basis states, each parity block taking states/blocks
# leading rows before its last rung of 128, and the largest Ritz residual
# norm, in hbar*omega0.
RITZ_STATES = (32, 64, 128)
RITZ_TOL = 1e-13


def diagonalize(
    specs: Sequence[OscillatorSpec], bands: Sequence[np.ndarray], n_track: int,
    base: Optional[int],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Each coupling's lowest eigenpairs from its lower band of H
    (_hamiltonian_bands): the oracle's one eigensolve.

    An even potential (x3 kind, harmonic) makes H block diagonal in
    parity, so its even and odd blocks are solved separately and merged;
    x^3 couples both parities, one block.  Each block, of n_p rows,
    tracks k_b = ceil(k/blocks) of the k = n_track+1 lowest states up a
    ladder of rungs, m = states/blocks rows for states in RITZ_STATES
    (only m > k_b) and then m = 128: one batched eigh per rung and block
    size (odd N: the blocks differ by a row) of each block's leading
    min(m, n_p) rows, so no call sees more than 128 rows and the output
    holds at any BLAS thread count.  Block Davidson from the unit vectors
    with the diagonal preconditioner searches exactly the span of the
    leading unit vectors, w more per step (w the band's width), so a rung
    takes that span directly.  The Ritz pair's residual in the whole block
    is (H_m y - theta y, B y), B the w rows below H_m: a block is done at
    the first m where |B y| <= RITZ_TOL*hbar*omega0 for its k_b pairs, and
    at its last rung, min(n_p, 128) rows, whatever the residual.  Each
    theta bounds the block's eigenvalue from above (Cauchy interlacing).
    Returns (levels, vectors): levels (C, k), each coupling's k lowest
    eigenvalues, exact for a block solved whole, else Ritz values, converged
    basis or not (compare's counts certify or fail them), its blocks merged
    by a stable sort (a tie keeps the even state first); vectors (N, k), the
    states of levels[base] as columns in their parity rows, None when base
    is None.  Deterministic for fixed input.
    """
    blocks = _parity_blocks(specs[0])
    nb, n_basis = len(blocks), bands[0].shape[1]
    k = min(n_track + 1, n_basis)
    kb = -(-k // nb)
    parts = [band[::nb, b] for band in bands for b in blocks]  # block b of coupling c at c*nb + b
    found: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(parts)
    todo = list(range(len(parts)))
    tol, w = (RITZ_TOL * (specs[0].hbar * specs[0].omega0)) ** 2, parts[0].shape[0] - 1
    for m in sorted({s // nb for s in RITZ_STATES if s // nb > kb} | {128}):
        for size in sorted({min(m, parts[p].shape[1]) for p in todo}):  # odd N: two sizes
            ps = [p for p in todo if min(m, parts[p].shape[1]) == size]
            h = _corner(np.array([parts[p][:, :size] for p in ps]), size + w, size)
            theta, y = _eigh(h[:, :size])
            r = np.einsum("pri,pij->prj", h[:, size:], y[:, :, :kb])
            # a block of more than 128 rows ends at its 128-row corner
            done = (np.einsum("prj,prj->pj", r, r) <= tol).all(axis=1) | (size == 128)
            for p, t, v, ok in zip(ps, theta, y, done.tolist()):
                if parts[p].shape[1] == size:  # the whole block: every eigenpair
                    found[p] = (t, v)
                elif ok:
                    found[p] = (t[:kb], v[:, :kb])
            todo = [p for p in todo if found[p] is None]
    # each coupling's blocks side by side, each padded with inf to the longest
    width = max([len(t) for t, _ in found])
    evals = np.full((len(parts), width), np.inf)
    for p, (t, _) in enumerate(found):
        evals[p, : len(t)] = t
    evals = evals.reshape(len(specs), -1)
    order = np.argsort(evals, axis=1, kind="stable")[:, :k]
    levels, vectors = evals[np.arange(len(specs))[:, None], order], None
    if base is not None:  # each block's vectors sit in its leading rows
        vectors, (block, col) = np.zeros((n_basis, k), order="F"), np.divmod(order[base], width)
        for b, rows in enumerate(blocks):
            v, mine = found[base * nb + b][1], block == b
            vectors[rows][: len(v), mine] = v[:, col[mine]]
    return levels, vectors


def _rs_shifts(spec: OscillatorSpec, bands: np.ndarray, n_track: int) -> np.ndarray:
    """Rayleigh-Schroedinger level shifts lam*E_1(n) and lam^2*E_2(n), rows
    0 and 1, for n = 0 .. n_track, of each coupling's lower band of H
    (_hamiltonian_bands): an array (2, C, n_track + 1).

    H0 is diagonal, (n + 1/2)*hbar*omega0, so lam*E_1 = H_nn - (n + 1/2)
    hbar*omega0 and lam^2*E_2 = sum_{k != n} H_kn^2/((n - k)*hbar*omega0)
    = sum_d (H(n, n - d)^2 - H(n + d, n)^2)/(d*hbar*omega0), one pair of
    band slices per diagonal d = 1 .. q.  Exact when the basis holds every
    state the potential couples to n, N > n_track + p + 1 for the force
    power p.
    """
    k, hbw = n_track + 1, spec.hbar * spec.omega0
    first = bands[..., 0, :k] - (np.arange(k) + 0.5) * spec.hbar * spec.omega0
    second = np.zeros(first.shape)
    for d in range(1, bands.shape[-2]):
        sq = bands[..., d, :k] ** 2 / (d * hbw)  # H(n + d, n)^2, and H(n, n - d)^2 at n - d
        second -= sq
        second[..., d:] += sq[..., : max(k - d, 0)]
    return np.array([first, second])


@dataclass
class ComparisonReport:
    spec: OscillatorSpec
    lambdas: Tuple[float, ...]
    n_track: int
    n_basis: int
    neglected_order: int  # j: the first power of lam the table leaves out
    base_lam: Optional[float]  # lam/2, where amplitudes are compared; None at lam 0
    perturbative: np.ndarray  # (C, n_track + 1): W_pert(n) at each coupling
    exact: np.ndarray  # (C, n_track + 1): the oracle's E_n at each coupling
    # (n_track,), for n = 1 .. n_track at base_lam; empty at lam 0
    measured: np.ndarray  # 2|<E_{n-1}|x|E_n>|
    sum_rule_form: np.ndarray  # sqrt(n h/(pi m omega(n,n-1))), exact frequency
    series_form: np.ndarray  # the table's amplitude series
    convergence_deltas: np.ndarray  # (C,), in hbar*omega0; inf where no rung is certified
    fit_constant: Dict[int, float] = field(default_factory=dict)
    fit_exponent: Dict[int, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)  # each starts with its gate word

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def residual(self) -> np.ndarray:
        return np.abs(self.perturbative - self.exact)

    @property
    def convergence_delta(self) -> float:
        """The largest doubling delta of the sweep, capped at the top of
        DELTA_LADDER."""
        return float(np.max(np.minimum(self.convergence_deltas, DELTA_LADDER[-1]), initial=0.0))

    @property
    def exponent_gap(self) -> float:
        """Largest |q - j| over the fitted levels (NaN propagates); j when
        none was fitted."""
        gaps = [abs(q - self.neglected_order) for q in self.fit_exponent.values()]
        return float(np.maximum.reduce(gaps)) if gaps else float(self.neglected_order)

    @property
    def unconverged(self) -> np.ndarray:
        """Mask of the couplings whose delta is above the gate."""
        return self.convergence_deltas > CONVERGENCE_GATE


def compare(table: TransitionTable, n_basis: Optional[int] = None) -> ComparisonReport:
    """The table's levels and amplitudes against the diagonalization of H
    in the oscillator the table was solved for, table.spec; compare
    solves no table of its own.

    The plan comes from the table alone: the couplings lam/2, lam, 2*lam
    and 4*lam (lam = table.spec.lam; 0 alone when lam is 0), the levels
    n = 0 .. n_track = min(5, table.n_max), and a basis of n_basis states,
    4*(n_track + 1) + 32 by default.  W_pert(n) is table.level(n) at each
    coupling, evaluated on table.w by Horner's rule in LambdaSeries.eval's
    order; the table's coefficients do not depend on lam, so one table
    serves the sweep.  One _hamiltonian_bands recursion forms the bands of
    the N basis and of the doubled one.  Each coupling's n_track + 1
    lowest eigenpairs come from one batched diagonalize call, and one
    _counted_deltas call counts the inertia of the doubled basis at the
    values it returned.  The report holds arrays: the levels (C, n_track
    + 1) and the amplitudes at the base coupling (n_track,).  For Ritz
    values theta_i >= lambda_i(H_N) >= lambda_i(H_2N) >= theta_i - eps
    (upper bounds, interlacing, the counts), so one certificate bounds
    both the doubling delta and |theta_i - lambda_i(H_N)|: a block left
    unfinished at its 128-row corner needs no larger solve.  Eigenvectors
    are tracked at the base coupling only, lam/2 (report.base_lam), where
    the amplitudes read their x elements (_x_elements).

    The verdict is report.failures, each led by the word of its gate:
    - convergence: a doubling delta above CONVERGENCE_GATE, or above the
      top of DELTA_LADDER (failure text "doubling delta > top").  That
      coupling's levels, the values its delta was counted at, are kept in
      report.exact but add no level failure and no fit point: the basis,
      not the series, failed there.
    - level: |W_pert(n) - E_n| beyond 4*|lam^j E_j(n)| (floor
      1e-10*hbar*omega0), the Rayleigh-Schroedinger shift read off that
      coupling's band (_rs_shifts); or no coupling converged.  j is the
      first power the table leaves out, order + 1, raised to the next even
      power when the potential is odd, which shifts no level at odd orders.
    - scaling: at lam != 0, the residual is fit to C*lam^q per level;
      exponent_gap above EXPONENT_GATE (or no fit).
    - amplitude: at the base coupling, a relative error against the
      sum-rule form at the measured frequency above 1.25*r^2 (r the
      smallness ratio there), or that coupling unconverged.  The arrays,
      with the table's amplitude series, are kept either way.
    """
    spec = table.spec
    lambdas = (spec.lam / 2, spec.lam, 2 * spec.lam, 4 * spec.lam) if spec.lam != 0 else (0.0,)
    n_track = min(5, table.n_max)
    if n_basis is None:
        n_basis = 4 * (n_track + 1) + 32
    j = table.order + 1
    if len(_parity_blocks(spec)) == 1 and j % 2:  # odd potential: no odd-order shift
        j += 1
    base_lam = lambdas[0] if spec.lam != 0 else None  # eigenvectors and amplitudes here

    specs = [OscillatorSpec(spec.m, spec.omega0, lam, spec.planck_h, spec.kind) for lam in lambdas]
    bands, doubled = _hamiltonian_bands(specs, n_basis, 2 * n_basis)
    shifts = _rs_shifts(spec, bands, n_track)[j - 1]  # lam^j E_j(n)
    levels, vectors = diagonalize(specs, bands, n_track, None if base_lam is None else 0)
    lams = np.array(lambdas)
    report = ComparisonReport(
        spec=spec, lambdas=lambdas, n_track=n_track, n_basis=n_basis, neglected_order=j,
        base_lam=base_lam, perturbative=horner(table.w[:, None, : n_track + 1], lams[:, None]),
        exact=levels, measured=np.empty(0), sum_rule_form=np.empty(0), series_form=np.empty(0),
        convergence_deltas=_counted_deltas(specs, doubled, levels))

    unconverged, residual, hbw = report.unconverged, report.residual, spec.hbar * spec.omega0
    tols = np.maximum(4.0 * np.abs(shifts), 1e-10 * spec.hbar * spec.omega0)
    over = (residual > tols).tolist()
    for c, (lam, delta) in enumerate(zip(lambdas, report.convergence_deltas.tolist())):
        if unconverged[c]:  # the basis, not the series, is at fault here
            told = (f"> {DELTA_LADDER[-1] * hbw:.3e}" if delta > DELTA_LADDER[-1]
                    else f"{delta * hbw:.3e} > {CONVERGENCE_GATE * hbw:.3e}")
            report.failures.append(f"convergence lam={lam:g}: doubling delta {told}")
        else:
            report.failures += [f"level n={i} lam={lam:g}: |dW|={residual[c, i]:.3e} > "
                                f"{tols[c, i]:.3e}" for i, bad in enumerate(over[c]) if bad]
    if all(unconverged):
        report.failures.append(
            "level: none compared, unconverged lam=" + ", ".join(f"{l:g}" for l in lambdas))

    # power-law fit of the residual per level (in |lam|) over the converged
    # couplings where it is nonzero: one polyfit per set of couplings, with
    # its levels as columns
    fitted = ~unconverged[:, None] & (lams != 0)[:, None] & (residual > 0)
    levels_at: Dict[Tuple[bool, ...], List[int]] = {}
    for i in (fitted.sum(axis=0) >= 2).nonzero()[0].tolist():
        levels_at.setdefault(tuple(fitted[:, i].tolist()), []).append(i)
    fits = {}
    for rows, ns in levels_at.items():
        rows = np.array(rows)
        ys = np.log(residual[rows][:, ns])
        fits.update(zip(ns, np.polyfit(np.log(np.abs(lams[rows])), ys, 1).T.tolist()))
    for i, (slope, intercept) in sorted(fits.items()):
        report.fit_exponent[i] = slope
        report.fit_constant[i] = math.exp(intercept)
    if spec.lam != 0 and not report.exponent_gap <= EXPONENT_GATE:
        qs = sorted(round(q, 3) for q in report.fit_exponent.values())
        report.failures.append(f"scaling: exponents {qs} not within {EXPONENT_GATE:g} of {j}")

    # amplitude comparison at the base coupling
    if base_lam is not None:  # a harmonic spec has lam == 0
        s, n = specs[0], np.arange(1, n_track + 1)
        report.measured = 2.0 * _x_elements(s, vectors).diagonal(1)
        # 1.25*r^2 in the smallness ratio r at base_lam (5*lam^2 for x3 and
        # 2.5*lam^2 for x2 in default units); OverflowError beyond r ~ 1e154
        amp_tol = 1.25 * s.smallness_ratio() ** 2
        omega_exact = (levels[0, 1:] - levels[0, :-1]) / s.hbar
        report.sum_rule_form = np.sqrt(n * s.planck_h / (math.pi * s.m * omega_exact))
        report.series_form = horner(2.0 * table.x.c[:, n, n - 1], base_lam)
        if unconverged[0]:
            report.failures.append(f"amplitude: none compared, unconverged lam={base_lam:g}")
        else:
            rel = np.abs(report.measured - report.sum_rule_form) / report.sum_rule_form
            report.failures += [f"amplitude n={i + 1}: rel err {rel[i]:.3e} > 1.25*r^2"
                                for i, bad in enumerate((rel > amp_tol).tolist()) if bad]
    return report
