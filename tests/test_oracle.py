import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matrixmech import oracle
from matrixmech.ladder import solve_quantum
from matrixmech.oracle import (
    CONVERGENCE_LADDER,
    DELTA_LADDER,
    OracleError,
    _counted_deltas,
    _hamiltonian_bands,
    _negative_pivots,
    _parity_blocks,
    _pivots,
    _rs_shifts,
    _x_elements,
    _x_offdiagonal,
    build_hamiltonian,
    compare,
    diagonalize,
)
from matrixmech.oscillator import Kind, OscillatorSpec
from matrixmech.verify import apply_mutation, run_verification

X2 = OscillatorSpec(lam=1e-3, kind=Kind.QUADRATIC_FORCE)
X3 = OscillatorSpec(lam=1e-3, kind=Kind.CUBIC_FORCE)


def position_matrix(spec, n_basis):
    """Dense x in the number basis, from its two off-diagonals."""
    off = _x_offdiagonal(spec, n_basis)
    return np.diag(off, 1) + np.diag(off, -1)


def solve(spec, n_basis, n_track=5, tracked=True):
    """diagonalize at one coupling: its n_track + 1 lowest levels and, if
    tracked, their eigenvectors (else None)."""
    bands = _hamiltonian_bands([spec], n_basis)[0]
    levels, vectors = diagonalize([spec], bands, n_track, 0 if tracked else None)
    return levels[0], vectors


def compare_spec(spec, n_max, n_basis=None):
    """compare on spec's order-1 table solved to n_max."""
    return compare(solve_quantum(spec, n_max=n_max, order=1), n_basis)


def counted_deltas(specs, n_basis, tracked):
    """_counted_deltas on the doubled basis of n_basis states."""
    return _counted_deltas(specs, _hamiltonian_bands(specs, 2 * n_basis)[0], np.array(tracked))


def assert_same_report(a, b):
    """Every field of two comparison reports equal, arrays entry by entry."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x.tolist() == y.tolist()) if isinstance(x, np.ndarray) else x == y, f.name


def coupling_sweep(lam):
    """The couplings compare checks a table at lam against: lam/2 .. 4*lam."""
    return [lam / 2, lam, 2 * lam, 4 * lam] if lam != 0 else [0.0]


def merged(spec, n_basis, parts, n_track):
    """Each parity block's eigenpairs (w, v), v held in the block's leading
    rows, as every eigenvalue merged ascending by a stable sort and (n_track
    not None) the vectors of the n_track + 1 lowest states in their parity
    rows, else None."""
    evals = np.concatenate([w for w, _ in parts])
    order = np.argsort(evals, kind="stable")
    if n_track is None:
        return evals[order], None
    vectors = np.zeros((n_basis, len(evals)))  # every block's vectors, in evals' order
    start = 0
    for b, (w, v) in zip(_parity_blocks(spec), parts):
        vectors[b][: len(v), start : start + len(w)] = v
        start += len(w)
    return evals[order], vectors[:, order[: n_track + 1]]


def dense_reference(spec, n_basis, n_track=None):
    """The dense reference for diagonalize: np.linalg.eigvalsh (eigh when
    n_track is given) of each parity block of build_hamiltonian's matrix,
    merged (every eigenvalue, and the tracked vectors or None)."""
    h = build_hamiltonian(spec, n_basis)
    parts = [np.linalg.eigh(h[b, b]) if n_track is not None else (np.linalg.eigvalsh(h[b, b]), None)
             for b in _parity_blocks(spec)]
    return merged(spec, n_basis, parts, n_track)


def measured_delta(spec, n_basis, tracked):
    """Largest change of the tracked eigenvalues when the basis is doubled,
    from the dense reference, in units of hbar*omega0."""
    doubled, _ = dense_reference(spec, 2 * n_basis)
    return float(np.max(np.abs(tracked - doubled[: len(tracked)]))) / (spec.hbar * spec.omega0)


def rs_closed_forms(spec, n):
    """lam*E_1(n) and lam^2*E_2(n) in closed form (Landau-Lifshitz QM
    section 38, problem 3; Bender and Wu, Phys. Rev. 184, 1231 (1969))."""
    hb, m, w, lam = spec.hbar, spec.m, spec.omega0, spec.lam
    if spec.kind is Kind.QUADRATIC_FORCE:
        return 0.0, -(30 * n * n + 30 * n + 11) / 72 * lam**2 * hb**2 / (m * w**4)
    return (0.375 * lam * (n * n + n + 0.5) * hb**2 / (m * w**2),
            -(34 * n**3 + 51 * n * n + 59 * n + 21) / 128 * lam**2 * hb**3 / (m**2 * w**5))


def test_harmonic_hamiltonian_is_diagonal():
    h = build_hamiltonian(OscillatorSpec(), 32)
    assert np.allclose(h, np.diag((np.arange(32) + 0.5)), atol=1e-15)


def test_harmonic_eigenpairs():
    spec = OscillatorSpec()
    levels, vectors = solve(spec, 32, n_track=31)  # every state tracked
    assert np.max(np.abs(levels - (np.arange(32) + 0.5))) < 1e-12
    # orthonormal eigenvectors, one per tracked state
    g = vectors.T @ vectors
    assert np.max(np.abs(g - np.eye(32))) < 1e-10
    # x elements match half the ladder amplitudes: sqrt(n hbar/(2 m w))
    x = _x_elements(spec, vectors)
    for n in range(1, 6):
        assert math.isclose(x[n - 1, n], math.sqrt(n / 2), rel_tol=1e-12)
    assert counted_deltas([spec], 32, [levels[:6]])[0] < 1e-12


def test_banded_coupling_structure():
    h2 = build_hamiltonian(X2, 24)
    h3 = build_hamiltonian(X3, 24)
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
    h = build_hamiltonian(X3, 16)
    for n in range(10):
        expect = (n + 0.5) + (X3.lam / 4) * 3 * (2 * n * n + 2 * n + 1) * 0.25
        assert math.isclose(h[n, n], expect, rel_tol=1e-13)


def test_x2_coupling_matches_finite_difference():
    # the anharmonic block is linear in the coupling
    d = 1e-6
    up = build_hamiltonian(OscillatorSpec(lam=X2.lam + d, kind=Kind.QUADRATIC_FORCE), 16)
    dn = build_hamiltonian(OscillatorSpec(lam=X2.lam - d, kind=Kind.QUADRATIC_FORCE), 16)
    slope = (up - dn) / (2 * d)
    x = position_matrix(X2, 16)
    assert np.max(np.abs(slope - np.linalg.matrix_power(x, 3) / 3.0)) < 1e-9


def test_rs_first_order_values():
    # the table's lam^1 level coefficient and the first-order shift read off H
    t2, t3 = solve_quantum(X2, n_max=4, order=1), solve_quantum(X3, n_max=4, order=1)
    assert t2.level(3)[1] == 0.0  # odd potential term: no diagonal shift
    assert _rs_shifts(X2, _hamiltonian_bands([X2], 16)[0], 4)[0, 0, 3] == 0.0
    shift3 = _rs_shifts(X3, _hamiltonian_bands([X3], 16)[0], 4)[0, 0]
    for n, expect in ((0, 0.1875e-3), (2, 0.375e-3 * 6.5)):
        assert math.isclose(X3.lam * t3.level(n)[1], expect, rel_tol=1e-13)
        assert math.isclose(shift3[n], expect, rel_tol=1e-13)


UNIT_SETS = [{}, dict(m=1.7, omega0=0.6, planck_h=3.1)]


@pytest.mark.parametrize("units", UNIT_SETS)
@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_rs_shifts_match_closed_forms(kind, units):
    spec = OscillatorSpec(lam=2e-3, kind=kind, **units)
    shifts = _rs_shifts(spec, _hamiltonian_bands([spec], 16)[0], 5)[:, 0]
    for n in range(6):
        first, second = rs_closed_forms(spec, n)
        if kind is Kind.QUADRATIC_FORCE:
            assert shifts[0, n] == 0.0
        else:
            assert math.isclose(shifts[0, n], first, rel_tol=1e-13)
        assert math.isclose(shifts[1, n], second, rel_tol=1e-13)


def test_x3_ground_level_against_diagonalization():
    levels, _ = solve(X3, 64)
    assert abs(levels[0] - 0.5001875) < 5e-7
    # the gap to first order is the known second-order shift
    second = (21.0 / 128.0) * X3.lam**2
    first_order = solve_quantum(X3, n_max=1, order=1).level(0).eval(X3.lam)
    assert abs(abs(levels[0] - first_order) - second) < 1e-9
    assert counted_deltas([X3], 64, [levels])[0] < 1e-10


def test_determinism():
    a = solve(X3, 48, n_track=4)
    b = solve(X3, 48, n_track=4)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(_x_elements(X3, a[1]), _x_elements(X3, b[1]))
    # every kind, odd N, with the merged parity blocks and the doubling
    # check; at 257 the Ritz rungs
    for spec in (OscillatorSpec(), X2, X3):
        for n in (65, 257):
            a = solve(spec, n)
            b = solve(spec, n)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            assert np.array_equal(_x_elements(spec, a[1]), _x_elements(spec, b[1]))
            assert (counted_deltas([spec], n, [a[0]]).tolist()
                    == counted_deltas([spec], n, [b[0]]).tolist())


def test_basis_size_validation():
    with pytest.raises(OracleError):
        build_hamiltonian(X3, 4)


@pytest.mark.parametrize("n_max", range(1, 8))
@pytest.mark.parametrize("spec", [OscillatorSpec(), X2, X3], ids=["harmonic", "x2", "x3"])
def test_compare_plans_its_check_from_the_table(spec, n_max):
    # the couplings, the tracked levels, the default basis and the base
    # coupling all come from the table's lam and n_max
    rep = compare_spec(spec, n_max)
    assert rep.lambdas == tuple(coupling_sweep(spec.lam))
    assert rep.n_track == min(5, n_max)
    assert rep.n_basis == 4 * (rep.n_track + 1) + 32
    assert rep.base_lam == (spec.lam / 2 if spec.lam else None)
    shape = (len(rep.lambdas), rep.n_track + 1)  # a row per coupling, a column per level
    assert rep.perturbative.shape == rep.exact.shape == rep.residual.shape == shape


def test_compare_solves_no_table(monkeypatch):
    def tripwire(*args, **kwargs):
        raise AssertionError("compare solved a table")

    table = solve_quantum(X3, n_max=5, order=1)
    monkeypatch.setattr("matrixmech.ladder.solve_quantum", tripwire)
    rep = compare(table)
    assert rep.passed, rep.failures


@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_compare_reads_the_units_of_its_table(kind):
    # no oscillator is passed beside the table: its spec sets the units
    spec = OscillatorSpec(lam=1e-3, kind=kind, **ODD_UNITS)
    table = solve_quantum(spec, n_max=5, order=1)
    rep = compare(table)
    assert rep.passed, rep.failures
    assert rep.spec is table.spec


def test_compare_x3_scaling_and_amplitudes():
    rep = compare_spec(X3, 5, 64)
    assert rep.passed, rep.failures
    for n, q in rep.fit_exponent.items():
        assert abs(q - 2.0) < 0.2
    rel_error_exact = np.abs(rep.measured - rep.sum_rule_form) / rep.sum_rule_form
    assert len(rel_error_exact) == 5 and np.all(rel_error_exact < 5.0 * rep.base_lam**2)
    # residual ratio across a coupling doubling is ~4 (second-order dominance)
    assert rep.lambdas[1:3] == (1e-3, 2e-3)
    ratio = rep.residual[2] / rep.residual[1]
    assert np.all((3.5 < ratio) & (ratio < 4.5))


def test_compare_x2_levels_are_second_order():
    rep = compare_spec(X2, 4, 64)
    assert rep.passed, rep.failures
    for lam, residual in zip(rep.lambdas, rep.residual):
        # no first-order shift; the gap is O(lam^2), below 1e-5 at lam = 1e-3
        at = OscillatorSpec(lam=lam, kind=X2.kind)
        for n, r in enumerate(residual):
            assert r <= 4.0 * abs(rs_closed_forms(at, n)[1])
    assert rep.residual[rep.lambdas.index(X2.lam)].max() < 1e-5


@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_compare_envelope_is_first_neglected_shift(kind):
    # the tolerance of each level row is 4*|lam^j E_j(n)|, j the first
    # power the order-1 table leaves out: 2 for either kind
    table = solve_quantum(OscillatorSpec(lam=1e-3, kind=kind), n_max=5, order=1)
    rep = compare(table, 64)
    assert rep.neglected_order == 2
    for lam, perturbative, residual in zip(rep.lambdas, rep.perturbative, rep.residual):
        at = OscillatorSpec(lam=lam, kind=kind)
        for n in range(rep.n_track + 1):
            assert perturbative[n] == table.level(n).eval(lam)
            assert residual[n] <= 4.0 * abs(rs_closed_forms(at, n)[1])


@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_order_zero_table_neglects_first_nonzero_power(kind):
    # x2's odd potential has no first-order shift, so j = 2 at order 0 too
    spec = OscillatorSpec(lam=1e-3, kind=kind)
    table = solve_quantum(spec, n_max=5, order=0)
    rep = compare(table, 64)
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
    rep = compare(table, 64)
    fails = [f for f in rep.failures if f.startswith("level")]
    assert fails and all(f.startswith(("level n=1 ", "level n=3 ", "level n=5 ")) for f in fails)


def test_compare_harmonic_is_exact():
    rep = compare_spec(OscillatorSpec(), 5, 48)
    assert rep.passed
    assert rep.base_lam is None  # no nonzero coupling, so no amplitude
    assert rep.measured.size == rep.sum_rule_form.size == rep.series_form.size == 0
    assert rep.residual.shape == (1, 6) and np.all(rep.residual < 1e-10)


def test_compare_uses_solved_table_for_series_form():
    table = solve_quantum(X3, n_max=5, order=1)
    rep = compare(table, 64)
    assert rep.base_lam == 5e-4
    assert len(rep.series_form) == 5
    for n, series_form, measured in zip(range(1, 6), rep.series_form, rep.measured):
        expect = table.amp(n, n - 1).eval(rep.base_lam)
        assert math.isclose(series_form, expect, rel_tol=1e-13)
        # the series form agrees with the measurement to second order
        rel_error_series = abs(measured - series_form) / series_form
        assert rel_error_series < 25 * (n * rep.base_lam) ** 2 + 1e-8


def test_compare_keeps_every_coupling_delta():
    # at 4*lam = 0.16 the x2 spectrum has collapsed and the basis doubling
    # moves the tracked levels by O(50); lam/2 alone would look converged
    spec = OscillatorSpec(m=1, omega0=1, lam=0.04, kind=Kind.QUADRATIC_FORCE)
    rep = compare_spec(spec, 5)
    assert rep.convergence_deltas.shape == (4,)
    assert rep.convergence_deltas[0] < 1e-10
    assert rep.convergence_delta == max(rep.convergence_deltas) > 1.0


def test_unconverged_coupling_is_blamed_on_convergence():
    # the collapsed 4*lam point is the basis's failure, not the series':
    # its level rows stay, but it adds no level failure and no fit point
    spec = OscillatorSpec(lam=0.04, kind=Kind.QUADRATIC_FORCE)
    rep = compare_spec(spec, 5)
    assert rep.failures == ["convergence lam=0.16: doubling delta 5.623e+01 > 1.000e-10"]
    assert rep.lambdas == tuple(coupling_sweep(0.04)) and rep.residual.shape == (4, 6)
    assert rep.residual[3].max() > 0.5  # lam 0.16
    # every level is fit, by np.polyfit over the three converged couplings alone
    assert list(rep.fit_exponent) == list(range(6))
    for n, q in rep.fit_exponent.items():
        pts = [(lam, r) for lam, r in zip(rep.lambdas, rep.residual[:, n])
               if lam != 0.16 and r > 0]
        slope, intercept = np.polyfit(np.log([l for l, _ in pts]), np.log([r for _, r in pts]), 1)
        assert q == float(slope) and rep.fit_constant[n] == float(math.exp(intercept))
    assert all(2.0 < q < 2.05 for q in rep.fit_exponent.values())


def test_unconverged_base_coupling_adds_no_amplitude_failure():
    # at lam 0.3 the whole sweep is unconverged, the base lam/2 = 0.15
    # that gates the amplitudes included: their rows stay, and no relative
    # error fails; each gate says instead that it compared nothing
    spec = OscillatorSpec(lam=0.3, kind=Kind.QUADRATIC_FORCE)
    with pytest.warns(UserWarning):
        rep = compare_spec(spec, 5)
    assert rep.unconverged.tolist() == [True] * 4
    assert rep.base_lam == 0.15
    assert [f.split(":")[0] for f in rep.failures[:4]] == [
        f"convergence lam={l:g}" for l in coupling_sweep(spec.lam)]
    assert rep.failures[4:] == ["level: none compared, unconverged lam=0.15, 0.3, 0.6, 1.2",
                                "scaling: exponents [] not within 0.2 of 2",
                                "amplitude: none compared, unconverged lam=0.15"]
    assert not any(f.startswith("amplitude n=") for f in rep.failures)
    assert rep.measured.shape == rep.sum_rule_form.shape == rep.series_form.shape == (5,)
    assert max(abs(rep.measured - rep.sum_rule_form) / rep.sum_rule_form) > 5.0 * 0.15**2


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
        rep = compare_spec(spec, 2, 16)
    assert rep.convergence_deltas.tolist() == [CONVERGENCE_LADDER[-1]] * 4
    assert not rep.unconverged.any()
    assert not [f for f in rep.failures if f.startswith("convergence")]


def test_coupling_sweep():
    # the sweep follows the sign of the table's coupling
    assert compare_spec(X2, 1).lambdas == (5e-4, 1e-3, 2e-3, 4e-3)
    negative = OscillatorSpec(lam=-2e-3, kind=Kind.QUADRATIC_FORCE)
    assert compare_spec(negative, 1).lambdas == (-1e-3, -2e-3, -4e-3, -8e-3)
    assert compare_spec(OscillatorSpec(), 1).lambdas == (0.0,)


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
        rep = compare_spec(spec, 5, 64)
        n = 32 // blocks
        # one batched call: every block of every coupling at the first
        # Ritz rung, 32 states; the converged doubled bases are counted,
        # not decomposed
        assert calls == {"eigh": [(4 * blocks, n, n)], "eigvalsh": []}
        assert len(rep.measured) == 5
        assert len(rep.convergence_deltas) == 4
        monkeypatch.undo()


@pytest.mark.parametrize("spec,n_basis", [(X2, 64), (X3, 64), (X3, 160)])
def test_compare_decomposes_only_inside_diagonalize(monkeypatch, spec, n_basis):
    # x2 and x3 sweeps, converged: no doubled basis is decomposed at any
    # size, and every decomposition is diagonalize's: the one Rayleigh-Ritz
    # eigh of the leading blocks
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
    rep = compare_spec(spec, 5, n_basis)
    assert rep.passed, rep.failures
    assert inside == [True]


@pytest.mark.parametrize("spec", [X2, X3], ids=["x2", "x3"])
@pytest.mark.parametrize("n_basis", [56, 256])
def test_unsorted_eigenvalues_raise_at_every_rung(monkeypatch, spec, n_basis):
    # an eigh that returns its eigenvalues out of order is caught at the
    # full blocks' rung (56: the base coupling's eigh) and at the Ritz
    # rungs (256: the leading blocks' eigh) alike
    real = np.linalg.eigh

    def unsorted(a, *args, **kwargs):
        w, v = real(a, *args, **kwargs)
        return w[..., ::-1], v[..., ::-1]

    monkeypatch.setattr(np.linalg, "eigh", unsorted)
    with pytest.raises(OracleError, match="eigenvalues not sorted"):
        compare_spec(spec, 5, n_basis)


def test_compare_harmonic_decomposes_parity_blocks(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    # the diagonal band leaves no rows below a leading block: both blocks
    # finish at the first Ritz rung, 16 of their 32 rows
    rep = compare_spec(OscillatorSpec(), 5, 64)
    assert rep.passed
    assert calls == {"eigh": [(2, 16, 16)], "eigvalsh": []}
    assert rep.convergence_deltas.tolist() == [1e-13]


SIZES = [8, 9, 64, 768]
ODD_UNITS = dict(m=1.7, omega0=0.6, planck_h=3.1)


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
@pytest.mark.parametrize("n", SIZES)
def test_banded_build_matches_matrix_power(kind, n, units):
    spec = OscillatorSpec(lam=2e-3, kind=kind, **units)
    h = build_hamiltonian(spec, n)
    q = kind.force_power + 1
    x = position_matrix(spec, n)
    expect = np.diag((np.arange(n) + 0.5) * spec.hbar * spec.omega0)
    expect = expect + np.linalg.matrix_power(x, q) * (spec.m * spec.lam / q)
    assert np.max(np.abs(h - expect)) <= 1e-13 * np.max(np.abs(h))
    i, j = np.indices(h.shape)
    assert not np.any(h[np.abs(i - j) > q])
    assert np.array_equal(h, h.T)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("units", [{}, ODD_UNITS], ids=["default", "odd"])
@pytest.mark.parametrize("kind,lam", [
    (Kind.QUADRATIC_FORCE, -1e-3), (Kind.QUADRATIC_FORCE, 1e-3),
    (Kind.CUBIC_FORCE, -1e-3), (Kind.CUBIC_FORCE, 1e-3), (Kind.HARMONIC, 0.0),
])
def test_report_arrays_are_the_public_views_to_the_bit(monkeypatch, kind, lam, units, order):
    # the report's arrays hold what the table's lam-series views and the
    # oracle's eigensolve give, to the bit: W_pert(n) is table.level(n) at
    # each coupling, the series form table.amp(n, n - 1) at base_lam, and
    # the exact levels diagonalize's
    table = solve_quantum(OscillatorSpec(lam=lam, kind=kind, **units), n_max=6, order=order)
    solved = []
    real = oracle.diagonalize

    def spy(*args):
        solved.append(real(*args))
        return solved[-1]

    monkeypatch.setattr(oracle, "diagonalize", spy)
    rep = compare(table)
    levels = range(rep.n_track + 1)
    assert bits(rep.perturbative) == bits([[table.level(n).eval(l) for n in levels]
                                           for l in rep.lambdas])
    assert bits(rep.exact) == bits(solved[0][0])
    if lam == 0:
        assert rep.series_form.shape == (0,)
    else:
        assert bits(rep.series_form) == bits([table.amp(n, n - 1).eval(rep.base_lam)
                                              for n in levels[1:]])


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n_basis,n_track", [(8, 3), (8, 12), (64, 5), (256, 5)])
def test_tracked_x_elements_match_full_product(kind, n_basis, n_track):
    # at 256 the tracked states are Ritz pairs of the leading rows
    spec = OscillatorSpec(lam=0.0 if kind is Kind.HARMONIC else 1e-3, kind=kind)
    h = build_hamiltonian(spec, n_basis)
    _, vk = solve(spec, n_basis, n_track=n_track)
    elements = _x_elements(spec, vk)
    k = min(n_track + 1, n_basis)
    assert elements.shape == (k, k)
    assert vk.shape == (n_basis, k)
    x = position_matrix(spec, n_basis)
    _, v = np.linalg.eigh(h)  # the full basis, unsplit
    full = np.abs(v.T @ x @ v)
    assert np.max(np.abs(elements - full[:k, :k])) <= 1e-12
    assert np.max(np.abs(elements - np.abs(vk.T @ x @ vk))) <= 1e-12


def test_compare_builds_without_matrix_power(monkeypatch):
    def tripwire(*args, **kwargs):
        raise AssertionError("dense matrix power in the oracle")

    monkeypatch.setattr(np.linalg, "matrix_power", tripwire)
    for spec in (X2, X3):
        rep = compare_spec(spec, 5, 64)
        assert rep.passed, rep.failures


EVEN_KINDS = [Kind.HARMONIC, Kind.CUBIC_FORCE]


def _even_spec(kind, units):
    return OscillatorSpec(lam=0.0 if kind is Kind.HARMONIC else 2e-3, kind=kind, **units)


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind", EVEN_KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_parity_blocks_match_unsplit_eigenvalues(monkeypatch, kind, n, units):
    # no Ritz rung finishes, so each block ends at its last rung: the whole
    # block up to 128 rows, every eigenvalue there; past it (768) the block's
    # 128-row corner, whose two parities make the unsplit 256-row corner
    monkeypatch.setattr(oracle, "RITZ_TOL", math.nan)
    spec = _even_spec(kind, units)
    rows = min(n, 256)
    expect = np.linalg.eigvalsh(build_hamiltonian(spec, n)[:rows, :rows])
    bound = 1e-13 * np.max(np.abs(expect))
    # every state tracked where the blocks are whole, else the k_b per block
    levels, vectors = solve(spec, n, n_track=n - 1 if n <= 256 else 5, tracked=False)
    assert len(levels) == (n if n <= 256 else 6)
    assert np.max(np.abs(levels - expect[: len(levels)])) <= bound
    assert vectors is None
    levels, _ = solve(spec, n)
    assert np.max(np.abs(levels - expect[: len(levels)])) <= bound


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind", EVEN_KINDS)
@pytest.mark.parametrize("n", [8, 9, 64])
def test_parity_block_eigenvectors(kind, n, units):
    _, v = solve(_even_spec(kind, units), n)
    k = min(6, n)
    assert v.shape == (n, k)
    assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-12
    for col in v.T:
        # each eigenvector lives on one parity: zero on the other
        assert not np.any(col[0::2]) or not np.any(col[1::2])



# --- basis-doubling check by inertia counts ---------------------------------

def _band(spec, n):
    """Lower band of H at one coupling."""
    return _hamiltonian_bands([spec], n)[0][0]


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
    evals = np.linalg.eigvalsh(build_hamiltonian(spec, n))
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
    assume(sound.all())  # an exactly zero pivot leaves the coupling uncertified
    assert counts[0].tolist() == [int(np.sum(evals < s)) for s in shifts]


def test_inertia_counts_batch_blocks_and_couplings():
    # one sweep serves every block, coupling and shift
    n = 40
    specs = [OscillatorSpec(lam=l, kind=Kind.CUBIC_FORCE) for l in (1e-3, 0.05)]
    bands = np.concatenate([_block_bands(s, n) for s in specs], axis=1)
    evals = [np.linalg.eigvalsh(build_hamiltonian(s, n)) for s in specs]
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
    evals = np.linalg.eigvalsh(build_hamiltonian(spec, n))
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
    return specs, [dense_reference(s, n_basis)[0][:k] for s in specs]


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
    # gate is not certified and the delta is counted up DELTA_LADDER, to
    # within a quarter decade above the measured one
    specs, tracked = _sweep_levels(OscillatorSpec(lam=lam, kind=kind), n_basis)
    deltas = counted_deltas(specs, n_basis, tracked)
    for s, t, delta in zip(specs, tracked, deltas):
        measured = measured_delta(s, n_basis, t)
        assert delta >= measured
        assert delta in CONVERGENCE_LADDER or delta / 10**0.25 < measured


def test_unsound_pivots_are_uncertified(monkeypatch):
    # a zero or non-finite pivot certifies no rung, up to the top of
    # DELTA_LADDER: its delta is inf, compare reports the top rung and says
    # the delta is above it
    spec = OscillatorSpec(lam=1e-3, kind=Kind.QUADRATIC_FORCE)
    specs, tracked = _sweep_levels(spec, 80)
    monkeypatch.setattr(oracle, "_negative_pivots",
                        lambda bands, shifts: (np.zeros(shifts.shape, int),
                                               np.zeros(len(shifts), bool)))
    assert counted_deltas(specs, 80, tracked).tolist() == [math.inf] * 4
    rep = compare_spec(spec, 5, 80)
    assert rep.convergence_deltas.tolist() == [math.inf] * 4
    assert rep.convergence_delta == DELTA_LADDER[-1]
    assert [f for f in rep.failures if f.startswith("convergence")] == [
        f"convergence lam={l:g}: doubling delta > 5.623e+02" for l in coupling_sweep(spec.lam)]


def _all_rungs_deltas(specs, n_basis, tracked, rungs):
    """The delta rule over every rung at once: one _negative_pivots call
    with the shifts of every rung, then the smallest certified rung, or
    inf where the top rung is not certified or a pivot unsound."""
    eps = np.array(rungs)[:, None] * (specs[0].hbar * specs[0].omega0)
    levels = np.array(tracked)[:, None]
    shifts = np.concatenate([levels - eps, levels + eps], axis=1).reshape(len(specs), -1)
    bands = np.concatenate([_block_bands(s, 2 * n_basis) for s in specs], axis=1)
    counts, sound = _negative_pivots(bands, shifts)
    counts = counts.reshape(len(specs), 2, len(eps), -1)
    i = np.arange(len(tracked[0]))
    certified = np.all((counts[:, 0] <= i) & (counts[:, 1] >= i + 1), axis=-1)
    return [rungs[np.argmax(ok)] if good and ok[-1] else math.inf
            for ok, good in zip(certified, sound)]


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
    (Kind.QUADRATIC_FORCE, 0.05, 1024),  # three couplings search DELTA_LADDER at once
    (Kind.QUADRATIC_FORCE, 0.3, 513),
])
def test_lowest_rung_first_keeps_the_delta_rule(kind, lam, n_basis):
    n_basis = n_basis or 56
    specs, tracked = _sweep_levels(OscillatorSpec(lam=lam, kind=kind), n_basis)
    gate = _all_rungs_deltas(specs, n_basis, tracked, CONVERGENCE_LADDER)
    # a coupling uncertified at the gate: its two-sweep search of
    # DELTA_LADDER finds the first rung that one sweep of every rung certifies
    wide = _all_rungs_deltas(specs, n_basis, tracked, CONVERGENCE_LADDER + DELTA_LADDER)
    assert (counted_deltas(specs, n_basis, tracked).tolist()
            == [w if g == math.inf else g for g, w in zip(gate, wide)])


@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_delta_ladder_search_finds_every_rung(kind):
    # tracked values off the doubled basis's eigenvalues by an offset half
    # way between two rungs, for every pair of adjacent rungs, below the
    # gate and above the top, each as a coupling of its own: the delta is
    # the first rung above the offset, as one sweep of every rung finds it
    spec = OscillatorSpec(lam=1e-3, kind=kind)
    rungs = CONVERGENCE_LADDER + DELTA_LADDER
    offsets = [10.0 ** ((e + 0.5) / 4) for e in range(-42, 12)]
    exact = dense_reference(spec, 64)[0][:6]
    specs, tracked = [spec] * len(offsets), [exact + off for off in offsets]
    got = counted_deltas(specs, 32, tracked).tolist()
    assert got == [next((r for r in rungs if r > off), math.inf) for off in offsets]
    assert got == _all_rungs_deltas(specs, 32, tracked, rungs)


def test_converged_sweep_sweeps_once_at_the_lowest_rung(monkeypatch):
    calls = []
    real = oracle._negative_pivots

    def spy(bands, shifts):
        calls.append((bands.shape[1], shifts.shape))
        return real(bands, shifts)

    monkeypatch.setattr(oracle, "_negative_pivots", spy)
    rep = compare_spec(X2, 5, 64)
    assert rep.convergence_deltas.tolist() == [CONVERGENCE_LADDER[0]] * 4
    assert calls == [(4, (4, 2 * 6))]  # E_i -+ 1e-13*hbar*omega0 for the six tracked levels


def test_unconverged_coupling_reports_counted_delta():
    # at 4*lam the x2 basis (256, or verify's default 56) has not
    # converged: the gate is not certified, and the delta reported is the
    # smallest rung of DELTA_LADDER that the counts certify, within a
    # quarter decade above the measured change (122.85 and 49.55)
    for lam, n_basis, delta, failure in (
        (0.015, 256, 10**2.25, "convergence lam=0.06: doubling delta 1.778e+02 > 1.000e-10"),
        (0.04, None, 10**1.75, "convergence lam=0.16: doubling delta 5.623e+01 > 1.000e-10"),
    ):
        spec = OscillatorSpec(lam=lam, kind=Kind.QUADRATIC_FORCE)
        rep = compare_spec(spec, 5, n_basis)
        specs, tracked = _sweep_levels(spec, rep.n_basis)
        assert rep.convergence_deltas[:3].tolist() == [1e-13] * 3
        assert rep.convergence_deltas[3] in DELTA_LADDER
        assert math.isclose(rep.convergence_deltas[3], delta, rel_tol=1e-12)
        measured = measured_delta(specs[3], rep.n_basis, tracked[3])
        assert delta / 10**0.25 < measured <= delta
        assert [f for f in rep.failures if f.startswith("convergence")] == [failure]
        assert not rep.passed


def test_converged_compare_counts_instead_of_decomposing(monkeypatch):
    # at every basis size, verify's default (56) included, no dense H is
    # built and no N-sized matrix is decomposed: one eigh of the leading
    # blocks of the first Ritz rung, 32 states (x2: 4 couplings of 32
    # rows; x3: 4 couplings x 2 parities of 16 rows)
    for spec, n_basis, blocks in ((X2, 96, 1), (X3, 160, 2), (X2, None, 1), (X3, None, 2)):
        calls = _count_decompositions(monkeypatch)
        built = []
        real_build = oracle.build_hamiltonian

        def recording(s, n, _built=built, **kwargs):
            _built.append(n)
            return real_build(s, n, **kwargs)

        monkeypatch.setattr(oracle, "build_hamiltonian", recording)
        rep = compare_spec(spec, 5, n_basis)
        assert rep.passed, rep.failures
        n = 32 // blocks
        assert built == []
        assert calls == {"eigh": [(4 * blocks, n, n)], "eigvalsh": []}
        assert rep.convergence_deltas.tolist() == [1e-13] * 4
        monkeypatch.undo()


@pytest.mark.parametrize("spec,shape", [(X2, (4, 32, 32)), (X3, (8, 16, 16))], ids=["x2", "x3"])
def test_verify_default_basis_solves_one_ritz_corner(monkeypatch, spec, shape):
    # verify's default basis at n_max 10, 56 states, converged: the whole
    # run decomposes only the first Ritz rung's leading blocks, 32 states
    # (x2: 4 couplings of 32 rows; x3: 4 couplings x 2 parities of 16
    # rows), in one call; no full block and no eigvalsh
    calls = _count_decompositions(monkeypatch)
    assert run_verification(solve_quantum(spec, n_max=10, order=1)).passed
    assert calls == {"eigh": [shape], "eigvalsh": []}


def test_default_basis_solves_unfinished_blocks_whole(monkeypatch):
    # at verify's default basis even the coupling the counts cannot certify
    # at the gate (x2 at 4*lam = 0.16) is counted up DELTA_LADDER: its
    # doubled basis is not decomposed, and it is not solved twice.  Only
    # the base coupling finishes at the Ritz rung (32 rows); the other
    # three stop unconverged there and take their whole 56-row blocks, by
    # eigh in one call, the last rung
    spec = OscillatorSpec(lam=0.04, kind=Kind.QUADRATIC_FORCE)
    n = 56
    calls = _count_decompositions(monkeypatch)
    rep = compare_spec(spec, 5)
    assert rep.n_basis == n
    assert calls == {"eigh": [(4, 32, 32), (3, n, n)], "eigvalsh": []}
    assert rep.convergence_deltas[:3].tolist() == [1e-13] * 3
    assert rep.convergence_deltas[3] > CONVERGENCE_LADDER[-1]


def test_tracked_levels():
    assert [compare_spec(X3, n).n_track for n in (1, 2, 5, 6, 10, 20)] == [1, 2, 5, 5, 5, 5]


@pytest.mark.parametrize("units", [{}, {"omega0": 0.01}, ODD_UNITS])
@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
def test_amplitude_gate_is_in_the_smallness_ratio(kind, units):
    # the gate 1.25*r^2 is 5*lam^2 (x3) or 2.5*lam^2 (x2) in default units;
    # at the same r the relative error, and so its margin, is the same in
    # any units
    r = OscillatorSpec(lam=0.01, kind=kind).smallness_ratio()
    spec = OscillatorSpec(kind=kind, **units)
    spec = OscillatorSpec(lam=r / spec.coupling_unit(spec.ladder_amplitude), kind=kind, **units)
    rep = compare_spec(spec, 5)
    assert rep.passed, rep.failures
    r_b = OscillatorSpec(lam=spec.lam / 2, kind=kind, **units).smallness_ratio()
    worst = max(abs(rep.measured - rep.sum_rule_form) / rep.sum_rule_form) / r_b**2
    assert 0.05 < worst < 0.3  # at least 4x below the gate


# --- one x^q recursion for both basis sizes; diagonal-band inertia ----------

@pytest.mark.parametrize("n_basis", [64, 256])
def test_compare_forms_each_basis_band_once(monkeypatch, n_basis):
    # one recursion forms the lam-independent x^q band for the N basis and
    # the doubled one, whether the full blocks or Ritz rungs solve it, and
    # a converged sweep counts the doubled basis in one sweep
    calls, sweeps = [], []
    real_bands, real_pivots = oracle._hamiltonian_bands, oracle._negative_pivots

    def bands_spy(specs, *sizes):
        calls.append((len(specs), sizes))
        return real_bands(specs, *sizes)

    def pivots_spy(bands, shifts):
        sweeps.append(bands.shape)
        return real_pivots(bands, shifts)

    monkeypatch.setattr(oracle, "_hamiltonian_bands", bands_spy)
    monkeypatch.setattr(oracle, "_negative_pivots", pivots_spy)
    rep = compare_spec(X2, 5, n_basis)
    assert rep.passed, rep.failures
    assert calls == [(4, (n_basis, 2 * n_basis))]
    assert sweeps == [(1, 4, 4, 2 * n_basis)]


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [8, 9, 16, 33, 56, 128, 129, 384])
def test_shared_recursion_equals_single_size_builds(kind, n, units):
    # the N and 2N bands of one recursion are those of a recursion of each
    # width alone, to the bit, signed zeros included
    lams = [0.0] if kind is Kind.HARMONIC else [-3e-3, 0.0, 1e-3, 0.2]
    specs = [OscillatorSpec(lam=l, kind=kind, **units) for l in lams]
    shared = _hamiltonian_bands(specs, n, 2 * n)
    for got, size in zip(shared, (n, 2 * n)):
        want = _hamiltonian_bands(specs, size)[0]
        assert got.shape == want.shape and got.shape[::2] == (len(specs), size)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kind,entries", [(Kind.QUADRATIC_FORCE, [(15, 14)]),
                                          (Kind.CUBIC_FORCE, [(14, 14), (15, 13), (15, 15)])])
def test_basis_is_not_the_leading_block_of_its_double(kind, entries):
    # H_N holds (x_N)^q, whose paths stay inside the basis: it differs from
    # the leading block of H_2N in the last q rows alone
    spec = OscillatorSpec(lam=1e-3, kind=kind)
    small = build_hamiltonian(spec, 16)
    lead = build_hamiltonian(spec, 32)[:16, :16]
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


# --- the sweep stops where the rest of H_2N is diagonally dominant -----------

def _full_sweep(bands, shifts):
    """_pivots and _negative_pivots with every row eliminated: no row is
    taken as the start of a dominant rest."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_first_dominant_row", lambda b, s: b.shape[-1])
        return _pivots(bands, shifts), _negative_pivots(bands, shifts)


def _assert_full_sweeps_counts(bands, shifts):
    """The pivots eliminated are the full sweep's to the bit, and the counts
    and soundness are the full sweep's; returns the rows eliminated."""
    pivots = _pivots(bands, shifts)
    full, (counts, sound) = _full_sweep(bands, shifts)
    assert len(full) == bands.shape[-1]
    assert pivots.tobytes() == full[: len(pivots)].tobytes()
    got_counts, got_sound = _negative_pivots(bands, shifts)
    assert got_counts.tolist() == counts.tolist()
    assert got_sound.tolist() == sound.tolist()
    return len(pivots)


@pytest.mark.parametrize("kind,lam,n", [
    (Kind.QUADRATIC_FORCE, 1e-3, 64), (Kind.QUADRATIC_FORCE, 0.3, 64),
    (Kind.CUBIC_FORCE, 1e-3, 64), (Kind.CUBIC_FORCE, 0.3, 40), (Kind.HARMONIC, 0.0, 20),
])
def test_first_dominant_row_matches_dense_gershgorin_margins(kind, lam, n):
    spec = OscillatorSpec(lam=lam, kind=kind)
    h = build_hamiltonian(spec, n)
    for top in (0.5, 5.7, 30.0, n + 1.0):  # the largest shift decides
        shifts = np.array([[top - 3.0, top, -1.0]])
        off = np.sum(np.abs(h), axis=1) - np.abs(np.diag(h))
        margin = np.diag(h) - off - top
        bad = np.flatnonzero(margin <= 0)
        want = bad[-1] + 1 if len(bad) else 0
        assert oracle._first_dominant_row(_band(spec, n)[None, None], shifts) == want


def test_carried_rows_count_only_their_columns_past_the_stop():
    # held[a, w + t], w = 2: carried row a's entries at t < -a sit in
    # eliminated columns and do not count; its other entries all do
    held = np.array([[99.0, 99.0, 1.0, 0.5, 0.4],
                     [99.0, 0.5, 1.0, 0.4, 0.0]])[..., None, None, None]
    assert oracle._carried_rows_dominant(held)
    held[1, 1] = 0.7  # 0.7 + 0.4 > 1
    assert not oracle._carried_rows_dominant(held)
    held[1, 1], held[0, 2] = 0.5, -1.0  # a negative diagonal
    assert not oracle._carried_rows_dominant(held)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from([Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE]),
    lam=st.floats(1e-4, 0.3),
    n=st.integers(8, 96),
    split=st.booleans(),
    data=st.data(),
)
def test_early_stop_keeps_the_full_sweeps_counts(kind, lam, n, split, data):
    # the draws of test_inertia_counts_match_eigvalsh, and the lowest levels
    # -+ every rung, where a leading block is nearly singular; the levels
    # alone usually stop early, with shifts in the high gaps the sweep
    # mostly runs to the end
    split = split and kind is Kind.CUBIC_FORCE
    n -= n % 2 if split else 0
    spec = OscillatorSpec(lam=lam, kind=kind)
    evals = np.linalg.eigvalsh(build_hamiltonian(spec, n))
    scale = np.max(np.abs(evals))
    gaps = np.concatenate([[evals[0] - scale], evals, [evals[-1] + scale]])
    picks = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=12))
    fracs = data.draw(st.lists(st.floats(0.05, 0.95), min_size=len(picks),
                               max_size=len(picks)))
    shifts = np.array([gaps[i] + f * (gaps[i + 1] - gaps[i]) for i, f in zip(picks, fracs)])
    eps = np.array(CONVERGENCE_LADDER)[:, None] * (spec.hbar * spec.omega0)
    levels = np.concatenate([evals[:6] - eps, evals[:6] + eps]).ravel()
    bands = _block_bands(spec, n) if split else _band(spec, n)[None, None]
    _assert_full_sweeps_counts(bands, levels[None])
    _assert_full_sweeps_counts(bands, np.concatenate([shifts, levels])[None])


@pytest.mark.parametrize("n_basis", [56, 256, 384])
@pytest.mark.parametrize("spec", [X2, X3], ids=["x2", "x3"])
def test_converged_sweep_eliminates_few_rows(monkeypatch, spec, n_basis):
    # a converged sweep stops within the leading rows of the doubled blocks
    # (112 to 768 rows), where the tracked levels live
    swept = []
    real = oracle._pivots

    def spy(bands, shifts):
        pivots = real(bands, shifts)
        swept.append((bands.shape[-1], len(pivots)))
        return pivots

    monkeypatch.setattr(oracle, "_pivots", spy)
    rep = compare_spec(spec, 5, n_basis)
    assert rep.convergence_deltas.tolist() == [CONVERGENCE_LADDER[0]] * 4
    assert len(swept) == 1
    rows, eliminated = swept[0]
    assert rows == 2 * n_basis // len(_parity_blocks(spec))
    assert eliminated <= 32


def _lowest_rung_sweep(spec, n_basis):
    """The doubled blocks' bands and the lowest rung's shifts of a sweep."""
    specs, tracked = _sweep_levels(spec, n_basis)
    bands = np.concatenate([_block_bands(s, 2 * n_basis) for s in specs], axis=1)
    eps = CONVERGENCE_LADDER[0] * (spec.hbar * spec.omega0)
    return bands, np.concatenate([np.array(tracked) - eps, np.array(tracked) + eps], axis=1)


def test_sweep_retries_past_a_nearly_singular_leading_block():
    # x2 at N 256: every row from the 6th on is dominant, but at E_5 -+ eps
    # the leading 6 x 6 block is nearly singular and the carried rows are
    # not; the next row tried, 2*6 + 8, passes
    bands, shifts = _lowest_rung_sweep(X2, 256)
    first = oracle._first_dominant_row(bands, shifts)
    assert first == 6
    assert _assert_full_sweeps_counts(bands, shifts) == 2 * first + 8


def test_sweep_without_a_dominant_rest_eliminates_every_row():
    # x2 at lam 0.3: the cubic well outweighs the diagonal in the last rows
    bands, shifts = _lowest_rung_sweep(OscillatorSpec(lam=0.3, kind=Kind.QUADRATIC_FORCE), 56)
    assert oracle._first_dominant_row(bands, shifts) == 112
    assert _assert_full_sweeps_counts(bands, shifts) == 112
    # a harmonic band with a zero off-diagonal: a shift above the top
    # diagonal leaves no dominant row, while the tracked levels alone stop
    band = _band(OscillatorSpec(), 257)[None, None]
    band = np.concatenate([band, np.zeros_like(band)], axis=2)
    diag = band[0, 0, 0]
    levels = np.concatenate([diag[:6] - 1e-13, diag[:6] + 1e-13])
    assert _assert_full_sweeps_counts(band, levels[None]) < 32
    assert _assert_full_sweeps_counts(band, np.append(levels, diag[-1] + 1.0)[None]) == 257


# --- the Ritz rungs: Rayleigh-Ritz on the leading rows ------------------------

def _sweep_at_ratio(kind, lam, units):
    """The coupling sweep at the smallness ratio of lam in default units;
    the harmonic kind's one coupling, 0."""
    spec = OscillatorSpec(kind=kind, **units)
    if kind is Kind.HARMONIC:
        return [spec]
    r = OscillatorSpec(lam=lam, kind=kind).smallness_ratio()
    lam = r / spec.coupling_unit(spec.ladder_amplitude)
    return [OscillatorSpec(spec.m, spec.omega0, l, spec.planck_h, kind)
            for l in coupling_sweep(lam)]


BANDED_GRID = [
    (Kind.QUADRATIC_FORCE, 1e-3, 128),
    (Kind.QUADRATIC_FORCE, 5e-3, 200),
    (Kind.QUADRATIC_FORCE, 0.01, 256),  # 4*lam = 0.04
    (Kind.QUADRATIC_FORCE, 5e-3, 384),
    (Kind.QUADRATIC_FORCE, 2e-3, 768),
    (Kind.CUBIC_FORCE, 1e-4, 128),
    (Kind.CUBIC_FORCE, 1e-3, 129),  # parity blocks of unequal size
    (Kind.CUBIC_FORCE, 2e-3, 200),
    (Kind.CUBIC_FORCE, 0.1, 256),  # 4*lam = 0.4: leading blocks of 64 rows
    (Kind.CUBIC_FORCE, 0.03, 384),
    (Kind.CUBIC_FORCE, 1e-3, 768),
]


# Below 128 states, each with the number of couplings, the last ones of
# the sweep, with a block that no Ritz rung below its rows finished, so
# that it was solved whole.  Up to N 32 (x2) and 33 (x3) the first rung
# is not below every block's rows, so a block is solved whole there.
SMALL_GRID = [
    (Kind.HARMONIC, 0.0, 9, 1),
    (Kind.HARMONIC, 0.0, 57, 0),
    (Kind.QUADRATIC_FORCE, 1e-3, 8, 4),
    (Kind.QUADRATIC_FORCE, 3e-3, 32, 4),
    (Kind.QUADRATIC_FORCE, 1e-3, 33, 0),
    (Kind.QUADRATIC_FORCE, 2e-3, 56, 0),  # verify's default basis
    (Kind.QUADRATIC_FORCE, 0.01, 64, 1),  # 4*lam: 32 rows too few, 64 the block
    (Kind.QUADRATIC_FORCE, 0.01, 96, 0),  # 4*lam finishes at 64 rows
    (Kind.QUADRATIC_FORCE, 3e-3, 127, 0),
    (Kind.CUBIC_FORCE, 1e-3, 9, 4),
    (Kind.CUBIC_FORCE, 1e-3, 33, 4),  # the odd block has 16 rows
    (Kind.CUBIC_FORCE, 1e-3, 34, 0),
    (Kind.CUBIC_FORCE, 2e-3, 56, 1),  # 4*lam needs 17 rows per block
    (Kind.CUBIC_FORCE, 0.01, 57, 3),
    (Kind.CUBIC_FORCE, 0.05, 96, 2),
    (Kind.CUBIC_FORCE, 1e-3, 127, 0),
]


def _diagonalize_watching_blocks(monkeypatch, specs, n_basis):
    """diagonalize of a sweep, vectors at its first coupling, and for each
    coupling whether a parity block of it went to eigh whole (else only
    its leading rows, Ritz rungs)."""
    seen = []
    real = oracle._eigh

    def spy(h):
        seen.extend(h)
        return real(h)

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_eigh", spy)
        levels, vectors = diagonalize(specs, _hamiltonian_bands(specs, n_basis)[0], 5, 0)
    whole = [any(np.array_equal(h, build_hamiltonian(s, n_basis)[b, b])
                 for b in _parity_blocks(s) for h in seen) for s in specs]
    return levels, vectors, whole


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind,lam,n_basis", BANDED_GRID + [g[:3] for g in SMALL_GRID])
def test_ritz_pairs_match_the_dense_eigensolve(monkeypatch, kind, lam, n_basis, units):
    specs = _sweep_at_ratio(kind, lam, units)
    levels, vectors, solved = _diagonalize_watching_blocks(monkeypatch, specs, n_basis)
    hbw = specs[0].hbar * specs[0].omega0
    full = {g[:3]: g[3] for g in SMALL_GRID}.get((kind, lam, n_basis), 0)
    assert solved == [False] * (len(specs) - full) + [True] * full
    for c, (s, theta) in enumerate(zip(specs, levels)):
        e, dense_vectors = dense_reference(s, n_basis, 5 if c == 0 else None)
        e = e[:6]
        assert np.max(np.abs(theta - e)) <= 1e-13 * hbw
        assert np.all(theta >= e - 1e-14 * np.maximum(1.0, np.abs(e)))  # upper bounds
        if c == 0:
            x = _x_elements(s, vectors)
            assert x.shape == (6, 6)
            assert np.max(np.abs(x - _x_elements(s, dense_vectors))) <= 1e-12


@pytest.mark.parametrize("kind,lam,n_basis", BANDED_GRID[:3] + BANDED_GRID[5:8])
def test_banded_compare_reports_certified_ritz_values(monkeypatch, kind, lam, n_basis):
    specs = _sweep_at_ratio(kind, lam, {})
    levels, vectors, solved = _diagonalize_watching_blocks(monkeypatch, specs, n_basis)
    assert not any(solved)
    rep = compare_spec(specs[1], 5, n_basis)
    assert rep.convergence_deltas.tolist() == [CONVERGENCE_LADDER[0]] * 4
    assert rep.exact.tolist() == levels.tolist()
    x = _x_elements(specs[0], vectors)
    assert rep.measured.tolist() == [2.0 * float(x[n - 1, n]) for n in range(1, 6)]


def test_ritz_solve_stops_unconverged_past_its_largest_block(monkeypatch):
    # x3 at 4*lam = 1.2: the residuals are still above RITZ_TOL at 64
    # leading rows, so that coupling's two blocks climb to their last rung,
    # 128 rows, in one call: at N = 512 (blocks of 256) and N = 384 (blocks
    # of 192) a corner, whose k_b Ritz values each block keeps although the
    # odd block's residuals are above RITZ_TOL there; at N = 256 (blocks of
    # 128) the whole blocks, every eigenvalue kept.  Nothing larger, and
    # no eigvalsh
    specs = _sweep_at_ratio(Kind.CUBIC_FORCE, 0.3, {})
    calls = _count_decompositions(monkeypatch)
    for n_basis in (512, 384, 256):
        calls["eigh"].clear()
        *_, solved = _diagonalize_watching_blocks(monkeypatch, specs, n_basis)
        assert solved == [False, False, False, n_basis == 256]
        assert calls == {"eigh": [(8, 16, 16), (8, 32, 32), (8, 64, 64), (2, 128, 128)],
                         "eigvalsh": []}


def _last_rung_diagonalize(specs, bands, n_track, base):
    """diagonalize replaced by a dense reference of every block's last
    rung: np.linalg.eigh of the leading min(n_p, 128) rows of each parity
    block of build_hamiltonian's matrix, every eigenpair merged."""
    n_basis = bands[0].shape[1]
    levels, vectors = [], None
    for c, s in enumerate(specs):
        h = build_hamiltonian(s, n_basis)
        parts = [np.linalg.eigh(h[b, b][:128, :128]) for b in _parity_blocks(s)]
        evals, v = merged(s, n_basis, parts, n_track if c == base else None)
        levels.append(evals[: n_track + 1])
        vectors = v if c == base else vectors
    return np.array(levels), vectors


def _dense_route(monkeypatch, spec, n_basis):
    """compare with every coupling's eigenpairs from the dense last rung."""
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "diagonalize", _last_rung_diagonalize)
        return compare_spec(spec, 5, n_basis)


def _stall_last_coupling(monkeypatch, blocks, n_p):
    """Every Ritz rung leaves each block of the last coupling unconverged:
    the last entries of each Ritz batch, their Ritz vectors replaced by the
    last unit vector, whose residual reaches the rows below the leading block."""
    real = oracle._eigh

    def stalled(h):
        w, v = real(h)
        if h.shape[-1] < n_p:
            v = v.copy()
            v[-blocks:] = 0.0
            v[-blocks:, -1] = 1.0
        return w, v

    monkeypatch.setattr(oracle, "_eigh", stalled)


@pytest.mark.filterwarnings("ignore:coupling ratio")  # x3 at lam 0.3
@pytest.mark.parametrize("spec,n_basis", [(X2, 256), (X3, 384),
                                          (OscillatorSpec(lam=0.3, kind=Kind.CUBIC_FORCE), 384)])
def test_unconverged_ritz_coupling_takes_the_dense_route(monkeypatch, spec, n_basis):
    # a coupling whose Ritz solve stops unconverged ends at its last rung,
    # the leading 128 rows of each block: its rows and delta are those of
    # the dense reference of that corner, to the bit
    dense = _dense_route(monkeypatch, spec, n_basis)
    blocks = len(_parity_blocks(spec))
    _stall_last_coupling(monkeypatch, blocks, n_basis // blocks)
    rep = compare_spec(spec, 5, n_basis)
    last = coupling_sweep(spec.lam)[-1]
    assert rep.lambdas[-1] == last
    assert rep.convergence_deltas[-1] == dense.convergence_deltas[-1]
    assert rep.perturbative[-1].tolist() == dense.perturbative[-1].tolist()
    assert rep.exact[-1].tolist() == dense.exact[-1].tolist()
    assert [f for f in rep.failures if f"lam={last:g}" in f] == [
        f for f in dense.failures if f"lam={last:g}" in f]
    # every coupling unconverged: the whole report is the dense reference's
    monkeypatch.setattr(oracle, "RITZ_TOL", math.nan)
    assert_same_report(compare_spec(spec, 5, n_basis), dense)


def test_uncertified_ritz_coupling_is_counted_on_its_ritz_values(monkeypatch):
    # x2 at 4*lam = 0.06 on 256 states: the Ritz solve converges to the
    # quasi-bound states, but the doubled basis has collapsed and the counts
    # certify no rung up to the gate.  That coupling keeps its Ritz values,
    # its delta is counted on them up DELTA_LADDER, and no full block is solved
    spec = OscillatorSpec(lam=0.015, kind=Kind.QUADRATIC_FORCE)
    specs = [OscillatorSpec(lam=l, kind=spec.kind) for l in coupling_sweep(spec.lam)]
    levels, _, solved = _diagonalize_watching_blocks(monkeypatch, specs, 256)
    assert not any(solved)
    sizes = []
    real = oracle._eigh

    def spy(h):
        sizes.append(h.shape[-1])
        return real(h)

    monkeypatch.setattr(oracle, "_eigh", spy)
    rep = compare_spec(spec, 5, 256)
    assert max(sizes) <= 128
    assert rep.lambdas[3] == 0.06 and rep.exact[3].tolist() == levels[3].tolist()
    counted = counted_deltas(specs, 256, levels)
    assert rep.convergence_deltas[3] == counted[3] == 10.0 ** (9 / 4)
    assert rep.failures == ["convergence lam=0.06: doubling delta 1.778e+02 > 1.000e-10"]


def test_unconverged_rows_are_the_quasi_bound_states():
    # x2 at 4*lam = 0.04 on 1024 states: the full block reaches past the
    # barrier into the deep well (its lowest eigenvalue near -188
    # hbar*omega0), while the Ritz rungs find the quasi-bound states, which
    # stay within 0.05 of the series although the basis has not converged
    spec = OscillatorSpec(lam=0.01, kind=Kind.QUADRATIC_FORCE)
    rep = compare_spec(spec, 5, 1024)
    assert rep.unconverged.tolist() == [False, False, False, True]
    assert rep.lambdas[3] == 0.04 and rep.residual[3].shape == (6,)
    assert rep.residual[3].max() < 0.05


def test_stalled_ritz_solve_prints_the_dense_output(monkeypatch, capsys):
    from matrixmech import cli

    argv = ["oracle-compare", "--kind", "x2", "--lambda", "0.003", "--nmax", "6",
            "--oracle-n", "256"]
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "diagonalize", _last_rung_diagonalize)
        dense_code = cli.main(argv)
        dense = capsys.readouterr()
    monkeypatch.setattr(oracle, "RITZ_TOL", math.nan)  # no Ritz rung converges
    assert cli.main(argv) == dense_code == 0
    assert capsys.readouterr() == dense


# --- the coupling sweep as one array axis ------------------------------------

def per_coupling_bands(specs, n_basis):
    """Each coupling's lower band on its own: x^q formed on all 2q + 1
    diagonals, then scaled in a loop over the couplings.  The reference for
    _hamiltonian_bands, which forms only the diagonals x^j fills and scales
    them for every coupling in one product."""
    spec = specs[0]
    diag = (np.arange(n_basis) + 0.5) * spec.hbar * spec.omega0
    q = spec.kind.force_power + 1
    if q == 1:
        return [diag[None, :] for _ in specs]
    off = _x_offdiagonal(spec, n_basis)
    band = np.zeros((2 * q + 1, n_basis))
    band[q] = 1.0
    for _ in range(q):
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


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [8, 9, 57, 256, 768])
def test_batched_bands_equal_the_per_coupling_loop(kind, n, units):
    lams = [0.0] if kind is Kind.HARMONIC else [-3e-3, 0.0, 1e-3, 0.2]
    specs = [OscillatorSpec(lam=l, kind=kind, **units) for l in lams]
    bands = _hamiltonian_bands(specs, n)[0]
    expect = per_coupling_bands(specs, n)
    assert bands.shape == (len(specs),) + expect[0].shape
    for got, want in zip(bands, expect):
        assert got.tobytes() == want.tobytes()


def dense_row_shifts(spec, matrix, n_track):
    """lam*E_1(n) and lam^2*E_2(n) summed over all N columns of the dense
    rows H[: n_track + 1], the reference for _rs_shifts, and the sum of
    the sizes of E_2's terms, sum_k |H_kn^2/((n - k)*hbar*omega0)|."""
    rows = matrix[: n_track + 1]
    n = np.arange(n_track + 1)
    gaps = (n[:, None] - np.arange(rows.shape[1])) * (spec.hbar * spec.omega0)
    gaps[n, n] = np.inf
    first = rows[n, n] - (n + 0.5) * spec.hbar * spec.omega0
    terms = rows * rows / gaps
    return np.array([first, np.sum(terms, axis=1), np.sum(np.abs(terms), axis=1)])


@pytest.mark.parametrize("units", [{}, ODD_UNITS])
@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [8, 9, 16, 17, 56, 57, 127, 128, 129, 256, 257, 2048])
def test_rs_shifts_equal_the_dense_row_sums(kind, n, units):
    # the band's diagonals against all N columns of the dense rows, odd and
    # even N, n_track up to 70: E_1 to the bit, and E_2, summed in another
    # order, within 2 eps of the sum of its terms' sizes
    lams = [0.0] if kind is Kind.HARMONIC else [-3e-3, 1e-3, 0.2]
    specs = [OscillatorSpec(lam=l, kind=kind, **units) for l in lams]
    bands = _hamiltonian_bands(specs, n)[0]
    dense = [build_hamiltonian(s, n) for s in specs]
    for n_track in sorted({0, 1, 5, min(n - 1, 12), min(n - 1, 70)}):
        shifts = _rs_shifts(specs[0], bands, n_track)
        assert shifts.shape == (2, len(specs), n_track + 1)
        for c, (s, h) in enumerate(zip(specs, dense)):
            first, second, size = dense_row_shifts(s, h, n_track)
            assert shifts[0, c].tobytes() == first.tobytes()
            assert np.all(np.abs(shifts[1, c] - second) <= 2 * np.finfo(float).eps * size)


def _pin_levels(monkeypatch, pinned):
    """compare's W_pert(n) at coupling c set to pinned[(n, c)] where listed:
    a residual of exactly zero there, which the fit leaves out.  The levels
    are the one horner call whose value is (C, n_track + 1)."""
    real = oracle.horner

    def horner(c, lam):
        out = real(c, lam)
        if out.ndim == 2:
            for (n, coupling), value in pinned.items():
                out[coupling, n] = value
        return out

    monkeypatch.setattr(oracle, "horner", horner)


def test_fit_is_one_polyfit_per_point_set(monkeypatch):
    # level 2 drops its point at 2*lam and level 4 keeps one point: two
    # point sets, one polyfit each, and no fit of level 4; every fit is
    # per-level np.polyfit's to the bit, the keys in ascending n
    table = solve_quantum(X3, n_max=6, order=1)
    exact = compare_spec(X3, 5, 64).exact
    _pin_levels(monkeypatch, {(2, 2): exact[2, 2], **{(4, c): exact[c, 4] for c in (1, 2, 3)}})
    calls = []
    real = np.polyfit

    def spy(x, y, deg):
        calls.append((len(x), np.shape(y)))
        return real(x, y, deg)

    monkeypatch.setattr(np, "polyfit", spy)
    rep = compare(table, 64)
    assert rep.lambdas == tuple(coupling_sweep(1e-3))
    assert calls == [(4, (4, 4)), (3, (3, 1))]
    assert list(rep.fit_exponent) == list(rep.fit_constant) == [0, 1, 2, 3, 5]
    for n in rep.fit_exponent:
        pts = [(lam, r) for lam, r in zip(rep.lambdas, rep.residual[:, n]) if r > 0]
        assert len(pts) == (3 if n == 2 else 4)
        slope, intercept = real(np.log([l for l, _ in pts]), np.log([r for _, r in pts]), 1)
        assert rep.fit_exponent[n] == float(slope)
        assert rep.fit_constant[n] == float(math.exp(intercept))


def test_full_block_coupling_is_counted_once(monkeypatch):
    # x2 at 4*lam = 0.16 on verify's default basis: its eigenvalues come
    # from its whole block, so after the gate's two sweeps it searches
    # DELTA_LADDER alone, without sweeping the gate again: every 7th rung
    # (8 rungs, 96 shifts), then the six below the first certified (72)
    calls = []
    real = oracle._negative_pivots

    def spy(bands, shifts):
        calls.append(shifts.shape)
        return real(bands, shifts)

    monkeypatch.setattr(oracle, "_negative_pivots", spy)
    spec = OscillatorSpec(lam=0.04, kind=Kind.QUADRATIC_FORCE)
    rep = compare_spec(spec, 5)
    assert calls == [(4, 12), (1, 36), (1, 96), (1, 72)]
    assert rep.convergence_deltas.tolist() == [1e-13] * 3 + [10.0 ** (7 / 4)]


@pytest.mark.parametrize("spec,eigh", [
    (OscillatorSpec(lam=0.02, kind=Kind.CUBIC_FORCE), [(8, 16, 16), (4, 17, 17)]),
    (OscillatorSpec(), [(2, 16, 16)]),
], ids=["x3", "harmonic"])
def test_odd_basis_solves_no_rung_its_smaller_block_cannot_take(monkeypatch, spec, eigh):
    # N 33: parity blocks of 17 and 16 rows.  The 16-row rung is the
    # smaller block's whole block and the larger block's Ritz corner, in one
    # call; a larger block that it leaves unfinished takes its 17 rows at
    # the next rung, and no block's decomposition is discarded
    calls = _count_decompositions(monkeypatch)
    rep = compare_spec(spec, 5, 33)
    assert calls == {"eigh": eigh, "eigvalsh": []}
    assert rep.passed


def _spy_on_solvers(monkeypatch):
    """The shapes of the first argument of each oracle._eigh (the matrices)
    and oracle._pivots (the bands) call."""
    calls = {"_eigh": [], "_pivots": []}
    for name, shapes in calls.items():
        real = getattr(oracle, name)

        def spy(a, *args, _real=real, _shapes=shapes):
            _shapes.append(a.shape)
            return _real(a, *args)

        monkeypatch.setattr(oracle, name, spy)
    return calls


@pytest.mark.filterwarnings("ignore:coupling ratio")
@pytest.mark.parametrize("kind", list(Kind))
def test_no_eigensolve_sees_more_than_128_rows(monkeypatch, kind):
    # every block ends at its last rung, min(n_p, 128) rows, converged or
    # not: odd N (the larger block one row longer, 129 at N 257), the
    # x2 couplings the basis leaves unconverged, and x3 at 4*lam = 1.2,
    # which no rung below 128 rows finishes
    calls = _spy_on_solvers(monkeypatch)
    for lam in [0.0] if kind is Kind.HARMONIC else [1e-4, 2e-3, 0.02, 0.3]:
        for n in (8, 9, 33, 128, 129, 256, 257, 259, 513, 1024, 2047, 2048):
            rep = compare_spec(OscillatorSpec(lam=lam, kind=kind), 5, n)
            assert rep.exact.shape == (len(coupling_sweep(lam)), 6)
    assert calls["_eigh"] and max(shape[-1] for shape in calls["_eigh"]) <= 128
    assert (2, 128, 128) in calls["_eigh"] or kind is not Kind.CUBIC_FORCE


@pytest.mark.parametrize("kind,lams,shape", [
    ("x2", (1e-4, 1e-3, 5e-3), (4, 32, 32)),
    ("x3", (1e-4, 2e-4, 5e-4, 1.5e-3), (8, 16, 16)),
])
@pytest.mark.parametrize("n_basis", [56, 256, 384])
@pytest.mark.parametrize("n_max", [4, 5])
def test_benchmark_compares_end_at_their_first_rung(monkeypatch, kind, lams, shape, n_basis,
                                                     n_max):
    # the compares of the benchmark's oracle_sweep (N 256, 384) and
    # verify_audit (N 56) workloads: one eigensolve, of the first rung's
    # leading blocks, and one inertia count
    kind = Kind.QUADRATIC_FORCE if kind == "x2" else Kind.CUBIC_FORCE
    for lam in lams:
        calls = _spy_on_solvers(monkeypatch)
        assert compare_spec(OscillatorSpec(lam=lam, kind=kind), n_max, n_basis).passed
        assert calls["_eigh"] == [shape] and len(calls["_pivots"]) == 1
        monkeypatch.undo()


def test_unfinished_block_alone_climbs_to_the_next_rung(monkeypatch):
    # x3 on verify's default basis (blocks of 28 rows): at lam 1.7e-3 only
    # the odd block of 4*lam is left unfinished at 16 rows, and it alone
    # takes its whole block; at 2e-3 both of that coupling's blocks do
    for lam, second in ((1.7e-3, (1, 28, 28)), (2e-3, (2, 28, 28))):
        calls = _spy_on_solvers(monkeypatch)
        assert compare_spec(OscillatorSpec(lam=lam, kind=Kind.CUBIC_FORCE), 5, 56).passed
        assert calls["_eigh"] == [(8, 16, 16), second] and len(calls["_pivots"]) == 1
        monkeypatch.undo()


@pytest.mark.filterwarnings("ignore:coupling ratio")
@pytest.mark.parametrize("spec", [
    OscillatorSpec(lam=0.0, m=1e-300, kind=Kind.CUBIC_FORCE),  # x^4 inf, times lam 0: NaN
    OscillatorSpec(lam=0.0, m=1e-300, kind=Kind.QUADRATIC_FORCE),
    OscillatorSpec(lam=1e-3, planck_h=1e200, kind=Kind.CUBIC_FORCE),
    OscillatorSpec(lam=1e-3, m=1e-152, kind=Kind.CUBIC_FORCE),  # the doubled band alone
    OscillatorSpec(planck_h=1e308),  # the harmonic diagonal
])
def test_compare_raises_overflow_on_a_non_finite_hamiltonian(spec):
    # before any eigensolve, which would fail to converge or come back
    # unsorted, and before NaN pivots leave a coupling unconverged
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match="Hamiltonian is not finite"):
            compare_spec(spec, 5)
