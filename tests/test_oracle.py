import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matrixmech import oracle
from matrixmech.ladder import solve_quantum
from matrixmech.oracle import (
    CONVERGENCE_LADDER,
    RITZ_MIN_BASIS,
    OracleError,
    _doubling_deltas,
    _hamiltonian_bands,
    _measured_delta,
    _negative_pivots,
    _parity_blocks,
    _pivots,
    _ritz_sweep,
    _rs_shifts,
    _x_offdiagonal,
    build_hamiltonian,
    compare,
    coupling_sweep,
    default_basis_size,
    diagonalize,
    tracked_levels,
)
from matrixmech.oscillator import Kind, OscillatorSpec
from matrixmech.verify import apply_mutation

X2 = OscillatorSpec(lam=1e-3, kind=Kind.QUADRATIC_FORCE)
X3 = OscillatorSpec(lam=1e-3, kind=Kind.CUBIC_FORCE)


def position_matrix(spec, n_basis):
    """Dense x in the number basis, from its two off-diagonals."""
    off = _x_offdiagonal(spec, n_basis)
    return np.diag(off, 1) + np.diag(off, -1)


def rs_closed_forms(spec, n):
    """lam*E_1(n) and lam^2*E_2(n) in closed form (Landau-Lifshitz QM
    section 38, problem 3; Bender and Wu, Phys. Rev. 184, 1231 (1969))."""
    hb, m, w, lam = spec.hbar, spec.m, spec.omega0, spec.lam
    if spec.kind is Kind.QUADRATIC_FORCE:
        return 0.0, -(30 * n * n + 30 * n + 11) / 72 * lam**2 * hb**2 / (m * w**4)
    return (0.375 * lam * (n * n + n + 0.5) * hb**2 / (m * w**2),
            -(34 * n**3 + 51 * n * n + 59 * n + 21) / 128 * lam**2 * hb**3 / (m**2 * w**5))


def test_harmonic_hamiltonian_is_diagonal():
    h = build_hamiltonian(OscillatorSpec(), 32).matrix
    assert np.allclose(h, np.diag((np.arange(32) + 0.5)), atol=1e-15)


def test_harmonic_eigenpairs():
    r = diagonalize(build_hamiltonian(OscillatorSpec(), 32), n_track=5)
    assert np.max(np.abs(r.eigenvalues - (np.arange(32) + 0.5))) < 1e-12
    # orthonormal eigenvectors, one per tracked state
    g = r.eigenvectors.T @ r.eigenvectors
    assert np.max(np.abs(g - np.eye(6))) < 1e-10
    # x elements match half the ladder amplitudes: sqrt(n hbar/(2 m w))
    for n in range(1, 6):
        assert math.isclose(r.x_elements[n - 1, n], math.sqrt(n / 2), rel_tol=1e-12)
    assert _doubling_deltas([r.spec], 32, [r.eigenvalues[:6]])[0] < 1e-12


def test_banded_coupling_structure():
    h2 = build_hamiltonian(X2, 24).matrix
    h3 = build_hamiltonian(X3, 24).matrix
    for i in range(24):
        for j in range(24):
            if abs(i - j) > 3:
                assert h2[i, j] == 0.0
            if abs(i - j) > 4:
                assert h3[i, j] == 0.0
    assert np.max(np.abs(h2 - h2.T)) < 1e-14 * np.max(np.abs(h2))
    assert np.max(np.abs(h3 - h3.T)) < 1e-14 * np.max(np.abs(h3))


def test_x3_diagonal_closed_form():
    # H(n,n) = (n+1/2) + (lam/4)*3*(2n^2+2n+1)*(1/2)^2 in default units
    h = build_hamiltonian(X3, 16).matrix
    for n in range(10):
        expect = (n + 0.5) + (X3.lam / 4) * 3 * (2 * n * n + 2 * n + 1) * 0.25
        assert math.isclose(h[n, n], expect, rel_tol=1e-13)


def test_x2_coupling_matches_finite_difference():
    # the anharmonic block is linear in the coupling
    d = 1e-6
    up = build_hamiltonian(OscillatorSpec(lam=X2.lam + d, kind=Kind.QUADRATIC_FORCE), 16).matrix
    dn = build_hamiltonian(OscillatorSpec(lam=X2.lam - d, kind=Kind.QUADRATIC_FORCE), 16).matrix
    slope = (up - dn) / (2 * d)
    x = position_matrix(X2, 16)
    assert np.max(np.abs(slope - np.linalg.matrix_power(x, 3) / 3.0)) < 1e-9


def test_rs_first_order_values():
    # the table's lam^1 level coefficient and the first-order shift read off H
    t2, t3 = solve_quantum(X2, n_max=4, order=1), solve_quantum(X3, n_max=4, order=1)
    assert t2.level(3)[1] == 0.0  # odd potential term: no diagonal shift
    assert _rs_shifts(X2, build_hamiltonian(X2, 16).matrix[:5])[0, 3] == 0.0
    shift3 = _rs_shifts(X3, build_hamiltonian(X3, 16).matrix[:5])[0]
    for n, expect in ((0, 0.1875e-3), (2, 0.375e-3 * 6.5)):
        assert math.isclose(X3.lam * t3.level(n)[1], expect, rel_tol=1e-13)
        assert math.isclose(shift3[n], expect, rel_tol=1e-13)


UNIT_SETS = [{}, dict(m=1.7, omega0=0.6, planck_h=3.1)]


@pytest.mark.parametrize("units", UNIT_SETS)
@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_rs_shifts_match_closed_forms(kind, units):
    spec = OscillatorSpec(lam=2e-3, kind=kind, **units)
    shifts = _rs_shifts(spec, build_hamiltonian(spec, 16).matrix[:6])
    for n in range(6):
        first, second = rs_closed_forms(spec, n)
        if kind is Kind.QUADRATIC_FORCE:
            assert shifts[0, n] == 0.0
        else:
            assert math.isclose(shifts[0, n], first, rel_tol=1e-13)
        assert math.isclose(shifts[1, n], second, rel_tol=1e-13)


def test_x3_ground_level_against_diagonalization():
    r = diagonalize(build_hamiltonian(X3, 64), n_track=5)
    assert abs(r.eigenvalues[0] - 0.5001875) < 5e-7
    # the gap to first order is the known second-order shift
    second = (21.0 / 128.0) * X3.lam**2
    first_order = solve_quantum(X3, n_max=1, order=1).level(0).eval(X3.lam)
    assert abs(abs(r.eigenvalues[0] - first_order) - second) < 1e-9
    assert _doubling_deltas([X3], 64, [r.eigenvalues[:6]])[0] < 1e-10


def test_determinism():
    a = diagonalize(build_hamiltonian(X3, 48), n_track=4)
    b = diagonalize(build_hamiltonian(X3, 48), n_track=4)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.x_elements, b.x_elements)
    # every kind, odd N, with the merged parity blocks and the doubling check
    for spec in (OscillatorSpec(), X2, X3):
        a = diagonalize(build_hamiltonian(spec, 65), n_track=5)
        b = diagonalize(build_hamiltonian(spec, 65), n_track=5)
        for name in ("eigenvalues", "eigenvectors", "x_elements"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (_doubling_deltas([spec], 65, [a.eigenvalues[:6]])
                == _doubling_deltas([spec], 65, [b.eigenvalues[:6]]))


def test_basis_size_validation():
    with pytest.raises(OracleError):
        build_hamiltonian(X3, 4)
    assert default_basis_size(5) == 56


def test_compare_x3_scaling_and_amplitudes():
    rep = compare(X3, [5e-4, 1e-3, 2e-3, 4e-3], n_track=5, n_basis=64)
    assert rep.passed, rep.failures
    for n, q in rep.fit_exponent.items():
        assert abs(q - 2.0) < 0.2
    for a in rep.amplitudes:
        assert a.rel_error_exact < 5.0 * a.lam**2
    # residual ratio across a coupling doubling is ~4 (second-order dominance)
    res = {(r.lam, r.n): r.residual for r in rep.levels}
    for n in range(6):
        ratio = res[(2e-3, n)] / res[(1e-3, n)]
        assert 3.5 < ratio < 4.5


def test_compare_x2_levels_are_second_order():
    rep = compare(X2, [1e-3], n_track=4, n_basis=64)
    assert rep.passed, rep.failures
    for r in rep.levels:
        # no first-order shift; the gap is O(lam^2) and small
        assert r.residual < 1e-5
        assert r.residual <= 4.0 * abs(rs_closed_forms(X2, r.n)[1])


@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_compare_envelope_is_first_neglected_shift(kind):
    # the tolerance of each level row is 4*|lam^j E_j(n)|, j the first
    # power the order-1 table leaves out: 2 for either kind
    spec = OscillatorSpec(lam=1e-3, kind=kind)
    rep = compare(spec, [1e-3], n_track=5, n_basis=64)
    assert rep.neglected_order == 2
    table = solve_quantum(spec, n_max=6, order=1)
    for r in rep.levels:
        assert r.perturbative == table.level(r.n).eval(r.lam)
        assert r.residual <= 4.0 * abs(rs_closed_forms(spec, r.n)[1])


@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_order_zero_table_neglects_first_nonzero_power(kind):
    # x2's odd potential has no first-order shift, so j = 2 at order 0 too
    spec = OscillatorSpec(lam=1e-3, kind=kind)
    table = solve_quantum(spec, n_max=5, order=0)
    rep = compare(spec, coupling_sweep(spec.lam), n_track=5, n_basis=64, table=table)
    assert rep.passed, rep.failures
    j = 2 if kind is Kind.QUADRATIC_FORCE else 1
    assert rep.neglected_order == j
    assert all(abs(q - j) < 0.2 for q in rep.fit_exponent.values())


@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_compare_fails_mutated_levels(kind):
    # the table's own levels are compared: shifting its odd levels by
    # 1e-6 hbar omega0 fails level rows
    spec = OscillatorSpec(lam=1e-3, kind=kind)
    table = solve_quantum(spec, n_max=5, order=1)
    apply_mutation(table, "w")
    rep = compare(spec, coupling_sweep(spec.lam), n_track=5, n_basis=64, table=table)
    fails = [f for f in rep.failures if f.startswith("level")]
    assert fails and all(f.startswith(("level n=1 ", "level n=3 ", "level n=5 ")) for f in fails)


def test_compare_harmonic_is_exact():
    rep = compare(OscillatorSpec(), [0.0], n_track=5, n_basis=48)
    assert rep.passed
    assert rep.base_lam is None and rep.amplitudes == []  # no nonzero coupling
    for r in rep.levels:
        assert r.residual < 1e-10


def test_compare_uses_solved_table_for_series_form():
    table = solve_quantum(X3, n_max=6, order=1)
    rep = compare(X3, [1e-3], n_track=5, n_basis=64, table=table)
    for a in rep.amplitudes:
        expect = table.amp(a.n, a.n - 1).eval(1e-3)
        assert math.isclose(a.series_form, expect, rel_tol=1e-13)
        # the series form agrees with the measurement to second order
        assert a.rel_error_series < 25 * (a.n * a.lam) ** 2 + 1e-8


def test_compare_keeps_every_coupling_delta():
    # at 4*lam = 0.16 the x2 spectrum has collapsed and the basis doubling
    # moves the tracked levels by O(50); lam/2 alone would look converged
    spec = OscillatorSpec(m=1, omega0=1, lam=0.04, kind=Kind.QUADRATIC_FORCE)
    rep = compare(spec, [0.02, 0.04, 0.08, 0.16], n_track=5)
    assert len(rep.convergence_deltas) == 4
    assert rep.convergence_deltas[0] < 1e-10
    assert rep.convergence_delta == max(rep.convergence_deltas) > 1.0


def test_unconverged_coupling_is_blamed_on_convergence():
    # the collapsed 4*lam point is the basis's failure, not the series':
    # its level rows stay, but it adds no level failure and no fit point
    spec = OscillatorSpec(lam=0.04, kind=Kind.QUADRATIC_FORCE)
    rep = compare(spec, coupling_sweep(spec.lam), n_track=5)
    assert rep.failures == ["convergence lam=0.16: doubling delta 4.955e+01 > 1.000e-10"]
    assert [r.lam for r in rep.levels] == [l for l in coupling_sweep(0.04) for _ in range(6)]
    assert max(r.residual for r in rep.levels if r.lam == 0.16) > 0.5
    converged = compare(spec, coupling_sweep(spec.lam)[:3], n_track=5)
    assert converged.passed
    assert rep.fit_exponent == converged.fit_exponent
    assert all(2.0 < q < 2.05 for q in rep.fit_exponent.values())


def test_unconverged_base_coupling_adds_no_amplitude_failure():
    # at lam 0.3 the whole sweep is unconverged, the base lam/2 = 0.15
    # that gates the amplitudes included: their rows stay, and no relative
    # error fails; each gate says instead that it compared nothing
    spec = OscillatorSpec(lam=0.3, kind=Kind.QUADRATIC_FORCE)
    with pytest.warns(UserWarning):
        rep = compare(spec, coupling_sweep(spec.lam), n_track=5)
    assert rep.unconverged == coupling_sweep(spec.lam)
    assert rep.base_lam == 0.15
    assert [f.split(":")[0] for f in rep.failures[:4]] == [
        f"convergence lam={l:g}" for l in coupling_sweep(spec.lam)]
    assert rep.failures[4:] == ["level: none compared, unconverged lam=0.15, 0.3, 0.6, 1.2",
                                "scaling: exponents [] not within 0.2 of 2",
                                "amplitude: none compared, unconverged lam=0.15"]
    assert not any(f.startswith("amplitude n=") for f in rep.failures)
    assert [a.n for a in rep.amplitudes] == [1, 2, 3, 4, 5]
    assert max(a.rel_error_exact for a in rep.amplitudes) > 5.0 * 0.15**2


def _top_rung_only(hbw, k):
    """Inertia counts that certify every coupling at the top rung alone.

    The rungs asked about are read off the shifts: E_i -+ eps*hbw for each
    rung eps, laid out (C, 2, rungs, k)."""
    def counts(bands, shifts):
        below, above = shifts.reshape(len(shifts), 2, -1, k).swapaxes(0, 1)
        top = np.isclose(above - below, 2 * CONVERGENCE_LADDER[-1] * hbw, rtol=1e-3, atol=0)
        i = np.arange(k)
        # E_i - eps*hbw lies above i eigenvalues, and E_i + eps*hbw above
        # i + 1 at the top rung only
        c = np.stack([np.broadcast_to(i, below.shape), i + top], axis=1)
        return c.reshape(shifts.shape), np.ones(len(shifts), bool)
    return counts


@settings(max_examples=40, deadline=None)
@given(m=st.floats(0.5, 2.0), omega0=st.floats(0.5, 2.0), planck_h=st.floats(1.0, 8.0))
def test_top_rung_delta_is_converged_in_any_units(m, omega0, planck_h):
    # the delta is held in units of hbar*omega0, so a coupling certified at
    # the gate's own rung is converged whatever hbar*omega0 rounds to
    spec = OscillatorSpec(m=m, omega0=omega0, planck_h=planck_h, lam=1e-3,
                          kind=Kind.QUADRATIC_FORCE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_negative_pivots", _top_rung_only(spec.hbar * spec.omega0, 3))
        rep = compare(spec, coupling_sweep(spec.lam), n_track=2, n_basis=16)
    assert rep.convergence_deltas == [CONVERGENCE_LADDER[-1]] * 4
    assert rep.unconverged == []
    assert not [f for f in rep.failures if f.startswith("convergence")]


def test_coupling_sweep():
    assert coupling_sweep(1e-3) == [5e-4, 1e-3, 2e-3, 4e-3]
    assert coupling_sweep(-2e-3) == [-1e-3, -2e-3, -4e-3, -8e-3]
    assert coupling_sweep(0.0) == [0.0]


def _count_decompositions(monkeypatch):
    calls = {"eigh": [], "eigvalsh": []}
    for name, shapes in calls.items():
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, _shapes=shapes, **kwargs):
            _shapes.append(a.shape)
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_compare_decomposes_each_coupling_once(monkeypatch):
    # x^4 is even: parity blocks only; x^3 is not: the whole matrix
    for spec, blocks in ((X3, 2), (X2, 1)):
        calls = _count_decompositions(monkeypatch)
        rep = compare(spec, coupling_sweep(1e-3), n_track=5, n_basis=64)
        n = 64 // blocks
        # eigenvectors at the base coupling only, for x_elements
        assert calls["eigh"] == [(n, n)] * blocks
        # eigenvalues only at the other three couplings; the converged
        # doubled bases are counted, not decomposed
        assert calls["eigvalsh"] == [(n, n)] * (3 * blocks)
        assert len(rep.amplitudes) == 5
        assert len(rep.convergence_deltas) == 4
        monkeypatch.undo()


@pytest.mark.parametrize("spec,n_basis", [(X2, 64), (X3, 64), (X3, 160)])
def test_compare_decomposes_only_inside_diagonalize(monkeypatch, spec, n_basis):
    # x2 and x3 sweeps, converged: no doubled basis is decomposed at any
    # size.  Below RITZ_MIN_BASIS every decomposition is diagonalize's;
    # from it up (x3 at 160) diagonalize is not called, and the one
    # decomposition is the Rayleigh-Ritz eigh of the leading blocks
    depth = [0]
    real = oracle.diagonalize

    def spy(*args, **kwargs):
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(oracle, "diagonalize", spy)
    inside = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _solver=getattr(np.linalg, name), **kwargs):
            inside.append(depth[0] > 0)
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rep = compare(spec, coupling_sweep(1e-3), n_track=5, n_basis=n_basis)
    assert rep.passed, rep.failures
    if n_basis < RITZ_MIN_BASIS:
        assert inside == [True] * 4 * len(_parity_blocks(spec))
    else:
        assert inside == [False]


def test_compare_harmonic_decomposes_parity_blocks(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    rep = compare(OscillatorSpec(), [0.0], n_track=5, n_basis=64)
    assert rep.passed
    assert calls == {"eigh": [], "eigvalsh": [(32, 32)] * 2}
    assert rep.convergence_deltas == [1e-13]


SIZES = [8, 9, 64, 768]
ODD_UNITS = dict(m=1.7, omega0=0.6, planck_h=3.1)


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
@pytest.mark.parametrize("n", SIZES)
def test_banded_build_matches_matrix_power(kind, n, units):
    spec = OscillatorSpec(lam=2e-3, kind=kind, **units)
    h = build_hamiltonian(spec, n).matrix
    q = kind.force_power + 1
    x = position_matrix(spec, n)
    expect = np.diag((np.arange(n) + 0.5) * spec.hbar * spec.omega0)
    expect = expect + np.linalg.matrix_power(x, q) * (spec.m * spec.lam / q)
    assert np.max(np.abs(h - expect)) <= 1e-13 * np.max(np.abs(h))
    i, j = np.indices(h.shape)
    assert not np.any(h[np.abs(i - j) > q])
    assert np.array_equal(h, h.T)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n_basis,n_track", [(8, 3), (8, 12), (64, 5), (256, 5)])
def test_tracked_x_elements_match_full_product(kind, n_basis, n_track):
    spec = OscillatorSpec(lam=0.0 if kind is Kind.HARMONIC else 1e-3, kind=kind)
    ham = build_hamiltonian(spec, n_basis)
    r = diagonalize(ham, n_track=n_track)
    k = min(n_track + 1, n_basis)
    assert r.x_elements.shape == (k, k)
    assert r.eigenvectors.shape == (n_basis, k)
    x = position_matrix(spec, n_basis)
    _, v = np.linalg.eigh(ham.matrix)  # the full basis, unsplit
    full = np.abs(v.T @ x @ v)
    assert np.max(np.abs(r.x_elements - full[:k, :k])) <= 1e-12
    vk = r.eigenvectors
    assert np.max(np.abs(r.x_elements - np.abs(vk.T @ x @ vk))) <= 1e-12


def test_compare_builds_without_matrix_power(monkeypatch):
    def tripwire(*args, **kwargs):
        raise AssertionError("dense matrix power in the oracle")

    monkeypatch.setattr(np.linalg, "matrix_power", tripwire)
    for spec in (X2, X3):
        rep = compare(spec, coupling_sweep(1e-3), n_track=5, n_basis=64)
        assert rep.passed, rep.failures


EVEN_KINDS = [Kind.HARMONIC, Kind.CUBIC_FORCE]


def _even_spec(kind, units):
    return OscillatorSpec(lam=0.0 if kind is Kind.HARMONIC else 2e-3, kind=kind, **units)


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind", EVEN_KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_parity_blocks_match_unsplit_eigenvalues(kind, n, units):
    ham = build_hamiltonian(_even_spec(kind, units), n)
    expect = np.linalg.eigvalsh(ham.matrix)
    bound = 1e-13 * np.max(np.abs(expect))
    r = diagonalize(ham, None)
    assert np.max(np.abs(r.eigenvalues - expect)) <= bound
    assert r.eigenvectors.shape == (n, 0) and r.x_elements.shape == (0, 0)
    r = diagonalize(ham, n_track=5)
    assert np.max(np.abs(r.eigenvalues - expect)) <= bound


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind", EVEN_KINDS)
@pytest.mark.parametrize("n", [8, 9, 64])
def test_parity_block_eigenvectors(kind, n, units):
    r = diagonalize(build_hamiltonian(_even_spec(kind, units), n), n_track=5)
    v = r.eigenvectors
    k = min(6, n)
    assert v.shape == (n, k)
    assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-12
    for col in v.T:
        # each eigenvector lives on one parity: zero on the other
        assert not np.any(col[0::2]) or not np.any(col[1::2])



# --- basis-doubling check by inertia counts ---------------------------------

def _band(spec, n):
    """Lower band of H at one coupling."""
    return _hamiltonian_bands([spec], n)[0]


def _block_bands(spec, n):
    """Lower bands of H's parity blocks, shaped for _negative_pivots (B, 1, w+1, n_b)."""
    band = _band(spec, n)
    blocks = _parity_blocks(spec)
    return np.array([[band[:: len(blocks), b]] for b in blocks])


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from([Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE]),
    lam=st.floats(1e-4, 0.3),
    n=st.integers(8, 96),
    split=st.booleans(),
    data=st.data(),
)
def test_inertia_counts_match_eigvalsh(kind, lam, n, split, data):
    # up to lam 0.3 the x2 spectrum has collapsed into the cubic well;
    # shifts sit inside the gaps, below the lowest and above the highest
    split = split and kind is Kind.CUBIC_FORCE
    n -= n % 2 if split else 0  # a doubled basis splits into equal blocks
    spec = OscillatorSpec(lam=lam, kind=kind)
    evals = np.linalg.eigvalsh(build_hamiltonian(spec, n).matrix)
    scale = np.max(np.abs(evals))
    gaps = np.concatenate([[evals[0] - scale], evals, [evals[-1] + scale]])
    picks = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=12))
    fracs = data.draw(st.lists(st.floats(0.05, 0.95), min_size=len(picks),
                               max_size=len(picks)))
    shifts = np.array([gaps[i] + f * (gaps[i + 1] - gaps[i]) for i, f in zip(picks, fracs)])
    assume(np.min(np.abs(evals[:, None] - shifts)) > 1e-9 * scale)
    if split:
        bands = _block_bands(spec, n)
    else:  # the whole band as one block, for either kind
        bands = _band(spec, n)[None, None]
    counts, sound = _negative_pivots(bands, shifts[None])
    assume(sound.all())  # an exactly zero pivot sends the coupling to eigvalsh
    assert counts[0].tolist() == [int(np.sum(evals < s)) for s in shifts]


def test_inertia_counts_batch_blocks_and_couplings():
    # one sweep serves every block, coupling and shift
    n = 40
    specs = [OscillatorSpec(lam=l, kind=Kind.CUBIC_FORCE) for l in (1e-3, 0.05)]
    bands = np.concatenate([_block_bands(s, n) for s in specs], axis=1)
    evals = [np.linalg.eigvalsh(build_hamiltonian(s, n).matrix) for s in specs]
    shifts = np.array([[0.7, 3.2, 9.9, 30.5], [0.1, 2.6, 11.4, 55.5]])
    counts, sound = _negative_pivots(bands, shifts)
    assert sound.tolist() == [True, True]
    for c in range(2):
        assert counts[c].tolist() == [int(np.sum(evals[c] < s)) for s in shifts[c]]


# sizes that span several of the sweep's blocks: an exact multiple of the
# block, one row more, and x2's largest doubled basis in the benchmark
BLOCK = oracle._SWEEP_ROWS


@pytest.mark.parametrize("kind,n,split", [
    (Kind.QUADRATIC_FORCE, 2 * BLOCK, False),
    (Kind.QUADRATIC_FORCE, 2 * BLOCK + 1, False),
    (Kind.QUADRATIC_FORCE, 768, False),
    (Kind.CUBIC_FORCE, 4 * BLOCK, True),  # two parity blocks of 2 * BLOCK rows
    (Kind.CUBIC_FORCE, 4 * BLOCK + 2, True),
    (Kind.CUBIC_FORCE, 768, True),
    (Kind.HARMONIC, 2 * BLOCK + 1, False),  # a diagonal band, width 1
    (Kind.HARMONIC, 4 * BLOCK + 2, True),
])
def test_inertia_counts_across_sweep_blocks(kind, n, split):
    spec = OscillatorSpec(lam=0.0 if kind is Kind.HARMONIC else 1e-3, kind=kind)
    evals = np.linalg.eigvalsh(build_hamiltonian(spec, n).matrix)
    scale = np.max(np.abs(evals))
    gaps = np.concatenate([[evals[0] - scale], evals, [evals[-1] + scale]])
    # just below and above eigenvalue i - 1: the tracked levels, then a
    # spread up to the highest, where the rows past the first block weigh most
    i = np.array([i for i in sorted({*range(1, 8), *range(8, n, n // 32), n})
                  if min(gaps[i] - gaps[i - 1], gaps[i + 1] - gaps[i]) > 1e-6 * scale])
    shifts = np.concatenate([gaps[i] - 1e-4 * (gaps[i] - gaps[i - 1]),
                             gaps[i] + 1e-4 * (gaps[i + 1] - gaps[i])])
    bands = _block_bands(spec, n) if split else _band(spec, n)[None, None]
    counts, sound = _negative_pivots(bands, shifts[None])
    assert sound.tolist() == [True]
    assert counts[0].tolist() == [int(np.sum(evals < s)) for s in shifts]


def test_zero_pivot_is_not_sound():
    # x^3 has no diagonal, so H(0,0) - 0.5 is exactly zero
    counts, sound = _negative_pivots(_band(X2, 16)[None, None],
                                     np.array([[0.5, 2.0]]))
    assert sound.tolist() == [False]


def _sweep_levels(spec, n_basis, k=6):
    specs = [OscillatorSpec(lam=l, kind=spec.kind) for l in coupling_sweep(spec.lam)]
    return specs, [diagonalize(build_hamiltonian(s, n_basis), None).eigenvalues[:k]
                   for s in specs]


@pytest.mark.parametrize("kind,lam,n_basis", [
    (Kind.QUADRATIC_FORCE, 1e-3, 80),
    (Kind.QUADRATIC_FORCE, 5e-3, 128),
    (Kind.CUBIC_FORCE, 2e-4, 160),
    (Kind.CUBIC_FORCE, 1e-2, 192),
] + [(kind, lam, n) for kind, lam in ((Kind.QUADRATIC_FORCE, 5e-3), (Kind.CUBIC_FORCE, 1e-2),
                                      (Kind.HARMONIC, 0.0))
     for n in (8, 16, 28, 56, 96)])
def test_certified_delta_bounds_measured_delta(kind, lam, n_basis):
    # at N = 8 (x3 also at 16) some couplings are not converged: there the
    # gate is not certified and the delta is the measured one
    specs, tracked = _sweep_levels(OscillatorSpec(lam=lam, kind=kind), n_basis)
    deltas = _doubling_deltas(specs, n_basis, tracked)
    for s, t, delta in zip(specs, tracked, deltas):
        measured = _measured_delta(s, n_basis, t)
        assert delta >= measured
        assert delta in CONVERGENCE_LADDER or delta == measured > CONVERGENCE_LADDER[-1]


def test_unsound_pivots_fall_back_to_eigvalsh(monkeypatch):
    specs, tracked = _sweep_levels(OscillatorSpec(lam=1e-3, kind=Kind.QUADRATIC_FORCE), 80)
    monkeypatch.setattr(oracle, "_negative_pivots",
                        lambda bands, shifts: (np.zeros(shifts.shape, int),
                                               np.zeros(len(shifts), bool)))
    deltas = _doubling_deltas(specs, 80, tracked)
    assert deltas == [_measured_delta(s, 80, t) for s, t in zip(specs, tracked)]


def _all_rungs_deltas(specs, n_basis, tracked):
    """The delta rule over every rung at once: one _negative_pivots call
    with all four rungs' shifts, then the smallest certified rung, or the
    measured delta where the gate is not certified or a pivot unsound."""
    eps = np.array(CONVERGENCE_LADDER)[:, None] * (specs[0].hbar * specs[0].omega0)
    levels = np.array(tracked)[:, None]
    shifts = np.concatenate([levels - eps, levels + eps], axis=1).reshape(len(specs), -1)
    bands = np.concatenate([_block_bands(s, 2 * n_basis) for s in specs], axis=1)
    counts, sound = _negative_pivots(bands, shifts)
    counts = counts.reshape(len(specs), 2, len(eps), -1)
    i = np.arange(len(tracked[0]))
    certified = np.all((counts[:, 0] <= i) & (counts[:, 1] >= i + 1), axis=-1)
    return [CONVERGENCE_LADDER[np.argmax(ok)] if good and ok[-1] else _measured_delta(s, n_basis, t)
            for s, t, ok, good in zip(specs, tracked, certified, sound)]


@pytest.mark.parametrize("kind,lam,n_basis", [
    (Kind.QUADRATIC_FORCE, 3e-3, 256),  # the benchmark's sizes
    (Kind.QUADRATIC_FORCE, 3e-3, 384),
    (Kind.CUBIC_FORCE, 1.5e-4, 256),
    (Kind.CUBIC_FORCE, 1.5e-4, 384),
    (Kind.QUADRATIC_FORCE, 3e-3, None),  # verify's default basis
    (Kind.CUBIC_FORCE, 3e-3, None),
    (Kind.HARMONIC, 0.0, None),
    (Kind.QUADRATIC_FORCE, 0.015, 256),  # unconverged at 4*lam
    (Kind.QUADRATIC_FORCE, 0.04, None),
    (Kind.QUADRATIC_FORCE, 0.3, None),  # unconverged everywhere
    (Kind.CUBIC_FORCE, 0.3, 96),
    (Kind.CUBIC_FORCE, 0.3, 150),  # certified at 1e-12 at 4*lam, by the second sweep
])
def test_lowest_rung_first_keeps_the_delta_rule(kind, lam, n_basis):
    n_basis = n_basis or default_basis_size(5)
    specs, tracked = _sweep_levels(OscillatorSpec(lam=lam, kind=kind), n_basis)
    assert _doubling_deltas(specs, n_basis, tracked) == _all_rungs_deltas(specs, n_basis, tracked)


def test_converged_sweep_sweeps_once_at_the_lowest_rung(monkeypatch):
    calls = []
    real = oracle._negative_pivots

    def spy(bands, shifts):
        calls.append((bands.shape[1], shifts.shape))
        return real(bands, shifts)

    monkeypatch.setattr(oracle, "_negative_pivots", spy)
    rep = compare(X2, coupling_sweep(1e-3), n_track=5, n_basis=64)
    assert rep.convergence_deltas == [CONVERGENCE_LADDER[0]] * 4
    assert calls == [(4, (4, 2 * 6))]  # E_i -+ 1e-13*hbar*omega0 for the six tracked levels


def test_unconverged_coupling_reports_measured_delta():
    # at 4*lam the x2 basis (256, or verify's default 56) has not
    # converged: the gate is not certified, the doubled basis is
    # decomposed and the measured delta reported
    for lam, n_basis, delta, failure in (
        (0.015, 256, 122.851274056317, "convergence lam=0.06: doubling delta 1.229e+02 > 1.000e-10"),
        (0.04, None, 49.5503263653598, "convergence lam=0.16: doubling delta 4.955e+01 > 1.000e-10"),
    ):
        spec = OscillatorSpec(lam=lam, kind=Kind.QUADRATIC_FORCE)
        rep = compare(spec, coupling_sweep(spec.lam), n_track=5, n_basis=n_basis)
        specs, tracked = _sweep_levels(spec, rep.n_basis)
        assert rep.convergence_deltas[:3] == [1e-13] * 3
        assert rep.convergence_deltas[3] == _measured_delta(specs[3], rep.n_basis, tracked[3])
        assert math.isclose(rep.convergence_deltas[3], delta, rel_tol=1e-9)
        assert [f for f in rep.failures if f.startswith("convergence")] == [failure]
        assert not rep.passed


def test_converged_compare_counts_instead_of_decomposing(monkeypatch):
    # at every basis size, verify's default (56) included; from
    # RITZ_MIN_BASIS up (x3 at 160) no N-sized matrix is decomposed or
    # built either: one eigh of the 32-row leading blocks, 4 couplings x 2 parities
    for spec, n_basis, blocks in ((X2, 96, 1), (X3, 160, 2), (X2, None, 1), (X3, None, 2)):
        calls = _count_decompositions(monkeypatch)
        built = []
        real_build = oracle.build_hamiltonian

        def recording(s, n, _built=built, **kwargs):
            _built.append(n)
            return real_build(s, n, **kwargs)

        monkeypatch.setattr(oracle, "build_hamiltonian", recording)
        rep = compare(spec, coupling_sweep(1e-3), n_track=5, n_basis=n_basis)
        assert rep.passed, rep.failures
        n = rep.n_basis // blocks
        if rep.n_basis >= RITZ_MIN_BASIS:
            assert calls == {"eigh": [(4 * blocks, 32, 32)], "eigvalsh": []}
            assert built == []
        else:
            assert calls["eigh"] == [(n, n)] * blocks
            assert calls["eigvalsh"] == [(n, n)] * blocks * 3  # no doubled basis
            assert built == [rep.n_basis] * 4  # no dense doubled matrix either
        assert rep.convergence_deltas == [1e-13] * 4
        monkeypatch.undo()


def test_default_basis_stays_on_eigvalsh(monkeypatch):
    # at verify's default basis only the coupling the counts cannot certify
    # (x2 at 4*lam = 0.16) has its doubled basis decomposed, by eigvalsh
    spec = OscillatorSpec(lam=0.04, kind=Kind.QUADRATIC_FORCE)
    n = default_basis_size(5)
    calls = _count_decompositions(monkeypatch)
    rep = compare(spec, coupling_sweep(spec.lam), n_track=5)
    assert rep.n_basis == n
    assert calls["eigh"] == [(n, n)]
    assert sorted(calls["eigvalsh"]) == [(n, n)] * 3 + [(2 * n, 2 * n)]
    assert rep.convergence_deltas[:3] == [1e-13] * 3
    assert rep.convergence_deltas[3] > CONVERGENCE_LADDER[-1]


def test_tracked_levels():
    assert [tracked_levels(n) for n in (1, 2, 5, 6, 10, 20)] == [1, 2, 5, 5, 5, 5]


@pytest.mark.parametrize("units", [{}, {"omega0": 0.01}, ODD_UNITS])
@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_amplitude_gate_is_in_the_smallness_ratio(kind, units):
    # the gate 1.25*r^2 is 5*lam^2 (x3) or 2.5*lam^2 (x2) in default units;
    # at the same r the relative error, and so its margin, is the same in
    # any units
    r = OscillatorSpec(lam=0.01, kind=kind).smallness_ratio()
    spec = OscillatorSpec(kind=kind, **units)
    spec = OscillatorSpec(lam=r / spec.coupling_unit(spec.ladder_amplitude), kind=kind, **units)
    rep = compare(spec, coupling_sweep(spec.lam), n_track=5)
    assert rep.passed, rep.failures
    r_b = OscillatorSpec(lam=spec.lam / 2, kind=kind, **units).smallness_ratio()
    worst = max(a.rel_error_exact for a in rep.amplitudes) / r_b**2
    assert 0.05 < worst < 0.3  # at least 4x below the gate


# --- x^q band once per basis size; diagonal-band inertia ---------------------

@pytest.mark.parametrize("n_basis", [64, 256])
def test_compare_forms_each_basis_band_once(monkeypatch, n_basis):
    # the lam-independent x^q band is formed once for the N basis and once
    # for the doubled one, on the dense route and the banded one alike
    calls = []
    real = oracle._hamiltonian_bands

    def spy(specs, n):
        calls.append((len(specs), n))
        return real(specs, n)

    monkeypatch.setattr(oracle, "_hamiltonian_bands", spy)
    rep = compare(X2, coupling_sweep(1e-3), n_track=5, n_basis=n_basis)
    assert rep.passed, rep.failures
    assert calls == [(4, n_basis), (4, 2 * n_basis)]


@pytest.mark.parametrize("kind,entries", [(Kind.QUADRATIC_FORCE, [(15, 14)]),
                                          (Kind.CUBIC_FORCE, [(14, 14), (15, 13), (15, 15)])])
def test_basis_is_not_the_leading_block_of_its_double(kind, entries):
    # H_N holds (x_N)^q, whose paths stay inside the basis: it differs from
    # the leading block of H_2N in the last q rows alone
    spec = OscillatorSpec(lam=1e-3, kind=kind)
    small = build_hamiltonian(spec, 16).matrix
    lead = build_hamiltonian(spec, 32).matrix[:16, :16]
    i, j = np.nonzero(np.tril(small != lead))
    assert list(zip(i.tolist(), j.tolist())) == entries


@pytest.mark.parametrize("n", [56, 257])
def test_diagonal_band_pivots_skip_the_elimination(n):
    # a harmonic block's band is its diagonal: the pivots are the diagonal
    # less the shifts, to the bit what the elimination gives it with a zero
    # off-diagonal
    band = _band(OscillatorSpec(), n)[None, None]
    diag = band[0, 0, 0]
    shifts = np.concatenate([diag[:6] - 1e-13, diag[:6] + 1e-13,
                             [-1.0, 7.25, diag[-1] + 1.0]])[None]
    eliminated = _pivots(np.concatenate([band, np.zeros_like(band)], axis=2), shifts)
    pivots = _pivots(band, shifts)
    assert pivots.shape == eliminated.shape == (n, 1, 1, shifts.shape[1])
    assert pivots.tobytes() == eliminated.tobytes()
    counts, sound = _negative_pivots(band, shifts)
    assert sound.tolist() == [True]
    assert counts[0].tolist() == [int(np.sum(diag < s)) for s in shifts[0]]


# --- the banded route: Rayleigh-Ritz on the leading rows ---------------------

def _sweep_at_ratio(kind, lam, units):
    """The coupling sweep at the smallness ratio of lam in default units."""
    spec = OscillatorSpec(kind=kind, **units)
    r = OscillatorSpec(lam=lam, kind=kind).smallness_ratio()
    lam = r / spec.coupling_unit(spec.ladder_amplitude)
    return [OscillatorSpec(spec.m, spec.omega0, l, spec.planck_h, kind)
            for l in coupling_sweep(lam)]


BANDED_GRID = [
    (Kind.QUADRATIC_FORCE, 1e-3, RITZ_MIN_BASIS),
    (Kind.QUADRATIC_FORCE, 5e-3, 200),
    (Kind.QUADRATIC_FORCE, 0.01, 256),  # 4*lam = 0.04
    (Kind.QUADRATIC_FORCE, 5e-3, 384),
    (Kind.QUADRATIC_FORCE, 2e-3, 768),
    (Kind.CUBIC_FORCE, 1e-4, RITZ_MIN_BASIS),
    (Kind.CUBIC_FORCE, 1e-3, RITZ_MIN_BASIS + 1),  # parity blocks of unequal size
    (Kind.CUBIC_FORCE, 2e-3, 200),
    (Kind.CUBIC_FORCE, 0.1, 256),  # 4*lam = 0.4: leading blocks of 64 rows
    (Kind.CUBIC_FORCE, 0.03, 384),
    (Kind.CUBIC_FORCE, 1e-3, 768),
]


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind,lam,n_basis", BANDED_GRID)
def test_ritz_pairs_match_the_dense_eigensolve(kind, lam, n_basis, units):
    specs = _sweep_at_ratio(kind, lam, units)
    ritz = _ritz_sweep(specs, _hamiltonian_bands(specs, n_basis), n_basis, 5, 0)
    hbw = specs[0].hbar * specs[0].omega0
    for c, (s, r) in enumerate(zip(specs, ritz)):
        assert r is not None  # converged
        dense = diagonalize(build_hamiltonian(s, n_basis), 5 if c == 0 else None)
        theta, e = r.eigenvalues[:6], dense.eigenvalues[:6]
        assert np.max(np.abs(theta - e)) <= 1e-13 * hbw
        assert np.all(theta >= e - 1e-14 * np.maximum(1.0, np.abs(e)))  # upper bounds
        if c == 0:
            assert r.x_elements.shape == (6, 6)
            assert np.max(np.abs(r.x_elements - dense.x_elements)) <= 1e-12


@pytest.mark.parametrize("kind,lam,n_basis", BANDED_GRID[:3] + BANDED_GRID[5:8])
def test_banded_compare_reports_certified_ritz_values(kind, lam, n_basis):
    specs = _sweep_at_ratio(kind, lam, {})
    ritz = _ritz_sweep(specs, _hamiltonian_bands(specs, n_basis), n_basis, 5, 0)
    rep = compare(specs[1], [s.lam for s in specs], n_track=5, n_basis=n_basis)
    assert rep.convergence_deltas == [CONVERGENCE_LADDER[0]] * 4
    assert [r.exact for r in rep.levels] == [float(e) for r in ritz for e in r.eigenvalues[:6]]
    assert [a.measured for a in rep.amplitudes] == [2.0 * float(ritz[0].x_elements[n - 1, n])
                                                    for n in range(1, 6)]


def test_ritz_solve_stops_unconverged_past_its_largest_block(monkeypatch):
    # x3 at 4*lam = 1.2: the odd block's residuals are still above RITZ_TOL
    # at 128 leading rows (N = 512, blocks of 256), so that coupling has no
    # Ritz result; at N = 384 (blocks of 192) the largest is 64 rows
    specs = _sweep_at_ratio(Kind.CUBIC_FORCE, 0.3, {})
    sizes = []
    real = np.linalg.eigh

    def spy(a):
        sizes.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for n_basis, largest in ((512, 128), (384, 64)):
        sizes.clear()
        ritz = _ritz_sweep(specs, _hamiltonian_bands(specs, n_basis), n_basis, 5, 0)
        assert [r is not None for r in ritz] == [True, True, True, False]
        assert sizes[-1][1:] == (largest, largest)


def _dense_route(monkeypatch, spec, n_basis, **kwargs):
    """compare on the dense route throughout, as below RITZ_MIN_BASIS."""
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "RITZ_MIN_BASIS", n_basis + 1)
        return compare(spec, coupling_sweep(spec.lam), n_track=5, n_basis=n_basis, **kwargs)


@pytest.mark.filterwarnings("ignore:coupling ratio")  # x3 at lam 0.3
@pytest.mark.parametrize("spec,n_basis", [(X2, 256), (X3, 384),
                                          (OscillatorSpec(lam=0.3, kind=Kind.CUBIC_FORCE), 384)])
def test_unconverged_ritz_coupling_takes_the_dense_route(monkeypatch, spec, n_basis):
    # a coupling whose Ritz solve stops unconverged is diagonalized as below
    # the crossover: its rows and delta are the dense route's to the bit
    dense = _dense_route(monkeypatch, spec, n_basis)
    blocks = len(_parity_blocks(spec))
    real = oracle._ritz_pairs

    def stalled(bands, k, unit):  # every block of the last coupling stops unconverged
        return real(bands, k, unit)[:-blocks] + [None] * blocks

    monkeypatch.setattr(oracle, "_ritz_pairs", stalled)
    rep = compare(spec, coupling_sweep(spec.lam), n_track=5, n_basis=n_basis)
    last = coupling_sweep(spec.lam)[-1]
    assert rep.convergence_deltas[-1] == dense.convergence_deltas[-1]
    assert [r for r in rep.levels if r.lam == last] == [r for r in dense.levels if r.lam == last]
    assert [f for f in rep.failures if f"lam={last:g}" in f] == [
        f for f in dense.failures if f"lam={last:g}" in f]
    # every coupling unconverged: the whole report is the dense route's
    monkeypatch.setattr(oracle, "_ritz_pairs", lambda bands, k, unit: [None] * len(bands))
    assert compare(spec, coupling_sweep(spec.lam), n_track=5, n_basis=n_basis) == dense


def test_uncertified_ritz_coupling_takes_the_dense_route(monkeypatch):
    # x2 at 4*lam = 0.06 on 256 states: the Ritz solve converges to the
    # quasi-bound states, but the doubled basis has collapsed and the counts
    # certify no rung, so that coupling is diagonalized and measured as on
    # the dense route, to the bit
    spec = OscillatorSpec(lam=0.015, kind=Kind.QUADRATIC_FORCE)
    specs = _sweep_at_ratio(spec.kind, spec.lam, {})
    assert None not in _ritz_sweep(specs, _hamiltonian_bands(specs, 256), 256, 5, 0)
    dense = _dense_route(monkeypatch, spec, 256)
    rep = compare(spec, coupling_sweep(spec.lam), n_track=5, n_basis=256)
    assert rep.convergence_deltas == dense.convergence_deltas
    assert [r for r in rep.levels if r.lam == 0.06] == [r for r in dense.levels if r.lam == 0.06]
    assert rep.failures == dense.failures == [
        "convergence lam=0.06: doubling delta 1.229e+02 > 1.000e-10"]


def test_stalled_ritz_solve_prints_the_dense_output(monkeypatch, capsys):
    from matrixmech import cli

    argv = ["oracle-compare", "--kind", "x2", "--lambda", "0.003", "--nmax", "6",
            "--oracle-n", "256"]
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "RITZ_MIN_BASIS", 257)
        dense_code = cli.main(argv)
        dense = capsys.readouterr()
    monkeypatch.setattr(oracle, "_ritz_pairs", lambda bands, k, unit: [None] * len(bands))
    assert cli.main(argv) == dense_code == 0
    assert capsys.readouterr() == dense
