import math

import numpy as np
import pytest

from matrixmech.ladder import solve_quantum
from matrixmech.oracle import (
    OracleError,
    build_hamiltonian,
    compare,
    default_basis_size,
    diagonalize,
    perturbative_level,
    position_operator,
    rs_first_order,
    second_order_envelope,
)
from matrixmech.oscillator import Kind, OscillatorSpec

X2 = OscillatorSpec(lam=1e-3, kind=Kind.QUADRATIC_FORCE)
X3 = OscillatorSpec(lam=1e-3, kind=Kind.CUBIC_FORCE)


def test_harmonic_hamiltonian_is_diagonal():
    h = build_hamiltonian(OscillatorSpec(), 32).matrix
    assert np.allclose(h, np.diag((np.arange(32) + 0.5)), atol=1e-15)


def test_harmonic_eigenpairs():
    r = diagonalize(build_hamiltonian(OscillatorSpec(), 32), n_track=5)
    assert np.max(np.abs(r.eigenvalues - (np.arange(32) + 0.5))) < 1e-12
    # orthonormal eigenvectors
    g = r.eigenvectors.T @ r.eigenvectors
    assert np.max(np.abs(g - np.eye(32))) < 1e-10
    # x elements match half the ladder amplitudes: sqrt(n hbar/(2 m w))
    for n in range(1, 6):
        assert math.isclose(r.x_elements[n - 1, n], math.sqrt(n / 2), rel_tol=1e-12)
    assert r.convergence_delta < 1e-12


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
    x = position_operator(X2, 16)
    assert np.max(np.abs(slope - np.linalg.matrix_power(x, 3) / 3.0)) < 1e-9


def test_rs_first_order_values():
    assert rs_first_order(X2, 3) == 0.0  # odd potential term: no diagonal shift
    assert math.isclose(rs_first_order(X3, 0), 0.1875e-3, rel_tol=1e-13)
    assert math.isclose(rs_first_order(X3, 2), 0.375e-3 * 6.5, rel_tol=1e-13)


def test_x3_ground_level_against_diagonalization():
    r = diagonalize(build_hamiltonian(X3, 64), n_track=5)
    assert abs(r.eigenvalues[0] - 0.5001875) < 5e-7
    # the gap to first order is the known second-order shift
    second = (21.0 / 128.0) * X3.lam**2
    assert abs(abs(r.eigenvalues[0] - perturbative_level(X3, 0)) - second) < 1e-9
    assert r.convergence_delta < 1e-10


def test_determinism():
    a = diagonalize(build_hamiltonian(X3, 48), n_track=4, check_convergence=False)
    b = diagonalize(build_hamiltonian(X3, 48), n_track=4, check_convergence=False)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.x_elements, b.x_elements)


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
        assert r.residual <= second_order_envelope(X2, r.n)


def test_compare_harmonic_is_exact():
    rep = compare(OscillatorSpec(), [0.0], n_track=5, n_basis=48)
    assert rep.passed
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
