"""Quantization of anharmonic oscillators on a transition-amplitude ladder,
solved order by order in the coupling and cross-checked against a
diagonalization of the truncated Hamiltonian in the number basis."""

from .classical import (
    ClassicalEnergy,
    FourierSeries,
    classical_energy,
    classical_residual,
    solve_classical,
)
from .ladder import (
    OperatorMatrix,
    SpectralLine,
    TransitionTable,
    energy_levels,
    energy_matrix,
    frequency_consistency,
    line_spectrum,
    offdiagonal_energy_check,
    quantization_residual,
    quantum_residuals,
    solve_quantum,
)
from .oracle import (
    build_hamiltonian,
    compare,
    diagonalize,
)
from .oscillator import Kind, OscillatorSpec, SmallnessWarning
from .series import LambdaSeries
from .translate import AmpRef, PathTerm, Translation, translate_product

__version__ = "0.1.0"

__all__ = [
    "AmpRef",
    "ClassicalEnergy",
    "FourierSeries",
    "Kind",
    "LambdaSeries",
    "OperatorMatrix",
    "OscillatorSpec",
    "PathTerm",
    "SmallnessWarning",
    "SpectralLine",
    "TransitionTable",
    "Translation",
    "build_hamiltonian",
    "classical_energy",
    "classical_residual",
    "compare",
    "diagonalize",
    "energy_levels",
    "energy_matrix",
    "frequency_consistency",
    "line_spectrum",
    "offdiagonal_energy_check",
    "quantization_residual",
    "quantum_residuals",
    "solve_classical",
    "solve_quantum",
    "translate_product",
]
