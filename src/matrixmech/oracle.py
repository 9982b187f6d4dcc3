"""Independent cross-check: truncated Hamiltonian in the number basis.

Everything here deliberately bypasses the series machinery.  The position
operator is built from ladder matrices with scale sqrt(hbar/(2 m omega0)),
the Hamiltonian is diagonalized densely, and the resulting eigenvalues and
position matrix elements are compared against the perturbative table.

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
    eigenvectors: np.ndarray
    x_elements: np.ndarray  # |<E_i| x |E_j>|
    n_track: int
    convergence_delta: float


def position_operator(spec: OscillatorSpec, n_basis: int) -> np.ndarray:
    scale = math.sqrt(spec.hbar / (2.0 * spec.m * spec.omega0))
    off = scale * np.sqrt(np.arange(1, n_basis))
    return np.diag(off, 1) + np.diag(off, -1)


def build_hamiltonian(spec: OscillatorSpec, n_basis: int) -> TruncatedHamiltonian:
    """H in the harmonic number basis of frequency omega0.

    Kinetic plus harmonic potential are diagonal, (n + 1/2)*hbar*omega0;
    the anharmonic potential is m*lam*x^3/3 (x2 kind) or m*lam*x^4/4
    (x3 kind), banded with coupling width 3 or 4.
    """
    if n_basis < 8:
        raise OracleError("basis size must be at least 8")
    n = np.arange(n_basis)
    h = np.diag((n + 0.5) * spec.hbar * spec.omega0)
    p = spec.kind.force_power
    if p:
        x = position_operator(spec, n_basis)
        pot = np.linalg.matrix_power(x, p + 1) * (spec.m * spec.lam / (p + 1))
        h = h + pot
    return TruncatedHamiltonian(spec=spec, n_basis=n_basis, matrix=h)


def diagonalize(
    ham: TruncatedHamiltonian, n_track: int = 8, check_convergence: bool = True
) -> OracleResult:
    """Dense symmetric eigendecomposition with a basis-doubling check.

    Deterministic for fixed input (LAPACK with index tie-breaking); the
    convergence delta is the largest change of the tracked eigenvalues
    when the basis is doubled.
    """
    spec = ham.spec
    try:
        evals, evecs = np.linalg.eigh(ham.matrix)
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"eigensolver did not converge: {exc}") from exc
    if not np.all(np.diff(evals) >= -1e-9 * max(1.0, abs(evals[-1]))):
        raise OracleError("eigenvalues not sorted; decomposition failed")

    x = position_operator(spec, ham.n_basis)
    x_elem = np.abs(evecs.T @ x @ evecs)

    delta = 0.0
    if check_convergence:
        big = build_hamiltonian(spec, 2 * ham.n_basis)
        evals2 = np.linalg.eigvalsh(big.matrix)
        k = min(n_track + 1, ham.n_basis)
        delta = float(np.max(np.abs(evals[:k] - evals2[:k])))

    return OracleResult(
        spec=spec,
        n_basis=ham.n_basis,
        eigenvalues=evals,
        eigenvectors=evecs,
        x_elements=x_elem,
        n_track=n_track,
        convergence_delta=delta,
    )


def default_basis_size(n_track: int) -> int:
    return 4 * (n_track + 1) + 32


def rs_first_order(spec: OscillatorSpec, n: int) -> float:
    """First-order level shift <n|V_anh|n> in closed form.

    Zero for the x2 kind (x^3 is odd); for the x3 kind
    (3/8)*lam*(n^2 + n + 1/2)*hbar^2/(m*omega0^2), from the ladder
    algebra of <n|x^4|n>.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if spec.kind is not Kind.CUBIC_FORCE:
        return 0.0
    return 0.375 * spec.lam * (n * n + n + 0.5) * spec.hbar**2 / (spec.m * spec.omega0**2)


def perturbative_level(spec: OscillatorSpec, n: int) -> float:
    return (n + 0.5) * spec.hbar * spec.omega0 + rs_first_order(spec, n)


def second_order_envelope(spec: OscillatorSpec, n: int) -> float:
    """Generous bound C(n)*lam^2 on |E_n - first order|.

    The exact second-order shifts are -(30n^2+30n+11)/72 * lam^2
    * hbar^2/(m omega0^4) for the x2 kind and -(34n^3+51n^2+59n+21)/128
    * lam^2 * hbar^3/(m^2 omega0^5) for the x3 kind; the bound carries a
    factor-4 margin for the neglected higher orders.
    """
    if spec.kind is Kind.HARMONIC:
        return 1e-10 * spec.hbar * spec.omega0
    hb, m, w = spec.hbar, spec.m, spec.omega0
    if spec.kind is Kind.QUADRATIC_FORCE:
        c = (30 * n * n + 30 * n + 11) / 72.0 * hb**2 / (m * w**4)
    else:
        c = (34 * n**3 + 51 * n * n + 59 * n + 21) / 128.0 * hb**3 / (m**2 * w**5)
    return 4.0 * spec.lam**2 * abs(c)


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
    series_form: float       # first-order amplitude series
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
    levels: List[LevelComparison] = field(default_factory=list)
    amplitudes: List[AmplitudeComparison] = field(default_factory=list)
    fit_constant: Dict[int, float] = field(default_factory=dict)
    fit_exponent: Dict[int, float] = field(default_factory=dict)
    convergence_deltas: List[float] = field(default_factory=list)  # one per coupling
    convergence_delta: float = 0.0  # the largest of them
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def coupling_sweep(lam: float) -> List[float]:
    """Couplings at which the oracle checks a run at lam: lam/2 .. 4*lam."""
    return [lam / 2, lam, 2 * lam, 4 * lam] if lam != 0 else [0.0]


def compare(
    spec: OscillatorSpec,
    lambdas: Sequence[float],
    n_track: int = 5,
    n_basis: Optional[int] = None,
    table: Optional[TransitionTable] = None,
) -> ComparisonReport:
    """Perturbative levels and amplitudes against the diagonalization.

    For each coupling, records |W_pert(n) - E_n|; across the couplings the
    residual is fit to C*lam^q per level (q should sit near 2, the first
    neglected order).  The basis-doubling delta is kept per coupling and
    convergence_delta is the largest, so the hardest coupling is checked.
    Amplitudes are compared at the first nonzero coupling, from that
    coupling's own decomposition, both against the sum-rule form at the
    measured transition frequency and against the first-order series.
    Mismatches beyond the second-order envelope are recorded as failures,
    never silently dropped.
    """
    if n_basis is None:
        n_basis = default_basis_size(n_track)
    report = ComparisonReport(
        spec=spec, lambdas=tuple(lambdas), n_track=n_track, n_basis=n_basis
    )

    residuals: Dict[int, List[Tuple[float, float]]] = {n: [] for n in range(n_track + 1)}
    base_lam = next((l for l in lambdas if l != 0), None)
    base = None  # (eigenvalues, x_elements) of the tracked states at base_lam
    for lam in lambdas:
        s = OscillatorSpec(spec.m, spec.omega0, lam, spec.planck_h, spec.kind)
        result = diagonalize(build_hamiltonian(s, n_basis), n_track=n_track)
        report.convergence_deltas.append(result.convergence_delta)
        if lam == base_lam and base is None:
            k = n_track + 1
            base = (result.eigenvalues[:k].copy(), result.x_elements[:k, :k].copy())
        for n in range(n_track + 1):
            row = LevelComparison(
                lam=lam,
                n=n,
                perturbative=perturbative_level(s, n),
                exact=float(result.eigenvalues[n]),
            )
            report.levels.append(row)
            if lam != 0:
                residuals[n].append((lam, row.residual))
            tol = max(second_order_envelope(s, n), 1e-10 * s.hbar * s.omega0)
            if row.residual > tol:
                report.failures.append(
                    f"level n={n} lam={lam:g}: |dW|={row.residual:.3e} > {tol:.3e}"
                )

    report.convergence_delta = max(report.convergence_deltas, default=0.0)

    # power-law fit of the residual per level (in |lam|)
    for n, pts in residuals.items():
        pts = [(abs(l), r) for (l, r) in pts if r > 0]
        if len(pts) >= 2:
            xs = np.log([p[0] for p in pts])
            ys = np.log([p[1] for p in pts])
            slope, intercept = np.polyfit(xs, ys, 1)
            report.fit_exponent[n] = float(slope)
            report.fit_constant[n] = float(math.exp(intercept))

    # amplitude comparison at the first nonzero coupling
    if base is not None and spec.kind is not Kind.HARMONIC:
        evals, x_elem = base
        s = OscillatorSpec(spec.m, spec.omega0, base_lam, spec.planck_h, spec.kind)
        if table is None:
            table = solve_quantum(s, n_max=max(n_track + 1, 4), order=1)
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
            if row.rel_error_exact > 5.0 * base_lam**2:
                report.failures.append(
                    f"amplitude n={n}: rel err {row.rel_error_exact:.3e} > 5*lam^2"
                )
    return report
