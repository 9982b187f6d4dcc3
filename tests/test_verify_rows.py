"""Every `verify` row that checks the table can fail on a faulty table.

A fixed set of mutation families, the same for every row: one entry of a
solved table (n_max 10, order 1) is changed by a relative 1e-9, 1e-6 or
1e-3, or set to that value where it is 0.  The entry is a level of W_0 or
W_1, the rung (n, n-1) of X_0 or X_1, the diagonal of X_0, or the first
overtone of X_1 ((n, n-3) for x3, else (n, n-2)), at n = 3 (a level the
oracle tracks) and at n = n_max (the rung the remainder row reads); X
entries change in both triangles.  Each unmutated table passes every row;
each table row fails under at least one family.  Health rows check the
oracle's own basis, not the table, and are exempt.
"""

import functools
import itertools

import pytest

from matrixmech.ladder import solve_quantum
from matrixmech.oscillator import Kind, OscillatorSpec
from matrixmech.verify import run_verification

N_MAX = 10
TABLES = [(Kind.QUADRATIC_FORCE, 1e-3), (Kind.QUADRATIC_FORCE, 1e-2),
          (Kind.CUBIC_FORCE, 1e-3), (Kind.CUBIC_FORCE, 1e-2), (Kind.HARMONIC, 0.0)]
FAMILIES = ("W0 level", "W1 level", "X0 rung", "X1 rung", "X0 diagonal", "X1 overtone")
STATES = (3, N_MAX)
CHANGES = (1e-9, 1e-6, 1e-3)

HEALTH_ROWS = {"oracle_convergence"}  # the doubling delta of the oracle's basis
# rows no family makes fail, each with the roadmap item that gives it a fault to see
BLIND_ROWS = {
    "ritz_additivity": "V: omega comes from level differences, so it adds exactly",
    "classical_residual": "R: checks the classical solver against itself",
    "classical_energy_periodic": "R: checks the classical solver against itself",
    "oracle_amplitudes": "J: gates eigenvector elements, not the table's amplitudes",
}
TABLE_ROWS = [
    "harmonic_level_spacing", "quantization_sum_rule", "eom_residual_dc",
    "eom_residual_fundamental", "eom_residual_overtone2", "eom_residual_overtone3",
    "eom_residual_overtone5", "eom_residual_other", "offdiagonal_energy",
    "frequency_consistency", "ritz_additivity", "frequency_closed_form",
    "amplitude_closed_form", "amplitude_quadratic_remainder", "classical_residual",
    "classical_energy_periodic", "oracle_levels", "oracle_scaling", "oracle_amplitudes",
]


def mutate(table, family, n, change):
    """Change one entry of the table by a relative `change`, or set it to
    `change` where it is 0."""
    overtone = 3 if table.spec.kind is Kind.CUBIC_FORCE else 2
    layer, m = {"W0 level": (0, None), "W1 level": (1, None), "X0 rung": (0, n - 1),
                "X1 rung": (1, n - 1), "X0 diagonal": (0, n), "X1 overtone": (1, n - overtone)}[family]
    stack, at = (table.w, (layer, n)) if m is None else (table.x.c, (layer, n, m))
    stack[at] = stack[at] * (1.0 + change) if stack[at] else change
    if m is not None:
        table.x.c[layer, m, n] = stack[at]


@functools.lru_cache(maxsize=1)
def mutation_matrix():
    """(rows reported, rows failed on an unmutated table, {row: families it
    failed under})."""
    reported, unmutated, failed = set(), set(), {}
    for kind, lam in TABLES:
        spec = OscillatorSpec(lam=lam, kind=kind)
        report = run_verification(solve_quantum(spec, N_MAX, 1))
        reported |= {c.name for c in report.checks}
        unmutated |= {c.name for c in report.checks if not c.passed}
        for family, n, change in itertools.product(FAMILIES, STATES, CHANGES):
            table = solve_quantum(spec, N_MAX, 1)
            mutate(table, family, n, change)
            for c in run_verification(table).checks:
                if not c.passed:
                    failed.setdefault(c.name, set()).add(family)
    return reported, unmutated, failed


def test_every_row_is_a_table_row_or_a_health_row():
    reported, _, _ = mutation_matrix()
    assert reported == set(TABLE_ROWS) | HEALTH_ROWS


def test_unmutated_tables_pass_every_row():
    assert mutation_matrix()[1] == set()


@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.xfail(strict=True, reason=BLIND_ROWS[row]))
    if row in BLIND_ROWS else row
    for row in TABLE_ROWS
])
def test_row_fails_under_some_family(row):
    assert mutation_matrix()[2].get(row)


@pytest.mark.parametrize("change", CHANGES)
@pytest.mark.parametrize("n", STATES)
@pytest.mark.parametrize("kind,lam", [t for t in TABLES if t[0] is not Kind.CUBIC_FORCE])
def test_sum_rule_sees_the_first_order_rung(kind, lam, n, change):
    # the lam^1 coefficient of a^2*omega on a rung of an x2 or harmonic
    # table, where omega has no lam^1 part to cancel X_1
    table = solve_quantum(OscillatorSpec(lam=lam, kind=kind), N_MAX, 1)
    mutate(table, "X1 rung", n, change)
    row = next(c for c in run_verification(table).checks if c.name == "quantization_sum_rule")
    assert not row.passed, row
