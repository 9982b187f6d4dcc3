"""Oscillator description shared by every module.

The three supported equations of motion, written with a positive
restoring constant omega0**2 and coupling lam, are

    harmonic:   x'' + omega0^2 x            = 0
    x2 kind:    x'' + omega0^2 x + lam x^2  = 0   (cubic potential term)
    x3 kind:    x'' + omega0^2 x + lam x^3  = 0   (quartic potential term)

OscillatorSpec is the single source of units; everything downstream is
fully parameterized in (m, omega0, lam, planck_h).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np


class Kind(enum.Enum):
    """Anharmonicity of the equation of motion."""

    HARMONIC = "harmonic"
    QUADRATIC_FORCE = "x2"
    CUBIC_FORCE = "x3"

    @property
    def cli_name(self) -> str:
        return self.value

    @property
    def force_power(self) -> int:
        """Exponent p of the anharmonic force term lam*x^p (0 if none)."""
        if self is Kind.HARMONIC:
            return 0
        return 2 if self is Kind.QUADRATIC_FORCE else 3

    @staticmethod
    def from_name(name: str) -> "Kind":
        for kind in Kind:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown oscillator kind {name!r} (harmonic|x2|x3)")


# Smallness ratio r from which the truncated series is out of regime.
R_MAX = 0.1


# Share of the size of the terms that cancel in a checked entry below which
# the entry's scale never falls (OscillatorSpec.scaled).  In double
# precision an entry carries round-off of up to about 3.6 ulp of that size
# (measured for n_max up to 512), while its natural unit does not grow with
# n.  At the default tolerance 1e-12 this share admits 6 ulp.
ROUNDOFF_SHARE = 6.0 * np.finfo(float).eps / 1e-12


class SmallnessWarning(UserWarning):
    """Coupling too large for the truncated series to be meaningful."""


@dataclass(frozen=True)
class OscillatorSpec:
    """Physical parameters of one oscillator.

    Every parameter must be finite; m, omega0 and planck_h must be
    positive, omega0^2 at least 1e-300, and hbar*omega0 a normal double (at
    least np.finfo(float).tiny).  lam carries the units that make lam*x^p
    an acceleration.  The harmonic kind forces lam == 0.
    """

    m: float = 1.0
    omega0: float = 1.0
    lam: float = 0.0
    planck_h: float = 2.0 * math.pi
    kind: Kind = Kind.HARMONIC

    def __post_init__(self):
        if not all(map(math.isfinite, (self.m, self.omega0, self.planck_h, self.lam))):
            raise ValueError("m, omega0, planck_h and lambda must all be finite")
        if not (self.m > 0 and self.omega0 > 0 and self.planck_h > 0):
            raise ValueError("m, omega0 and planck_h must all be positive")
        if self.omega0**2 < 1e-300:  # every harmonic-balance divisor carries it
            raise ValueError("omega0 too small: omega0^2 underflows below 1e-300")
        if self.hbar * self.omega0 < np.finfo(float).tiny:  # the unit of every level
            raise ValueError(f"hbar*omega0 = {self.hbar * self.omega0:g} is below the "
                             "smallest normal double, so levels lose digits")
        if self.kind is Kind.HARMONIC and self.lam != 0:
            raise ValueError("harmonic kind requires lam == 0")

    @property
    def hbar(self) -> float:
        return self.planck_h / (2.0 * math.pi)

    @property
    def ladder_amplitude(self) -> float:
        """Characteristic transition amplitude sqrt(h/(pi m omega0))."""
        return math.sqrt(self.planck_h / (math.pi * self.m * self.omega0))

    def coupling_unit(self, amplitude) -> float:
        """Natural coupling scale u with r = |lam|*u dimensionless.

        u = amplitude/omega0^2 for the x2 kind and amplitude^2/omega0^2
        for the x3 kind (zero for harmonic: there is no coupling).
        """
        p = self.kind.force_power
        if p == 0:
            return 0.0
        return amplitude ** (p - 1) / self.omega0**2

    def order_unit(self, k: int, amplitude: float | None = None) -> float:
        """u^k: how much larger the natural unit of a lam^k coefficient is
        than that of its lam^0 one, u = coupling_unit(amplitude) (1 for the
        harmonic kind).  amplitude defaults to the ladder amplitude."""
        if amplitude is None:
            amplitude = self.ladder_amplitude
        return (self.coupling_unit(amplitude) or 1.0) ** k

    def scaled(self, value, base: float, size=0.0) -> np.ndarray:
        """|value| over its scale, row k of value holding lam^k coefficients.

        The scale is the natural unit base * order_unit(k), or
        ROUNDOFF_SHARE of size (the size of the terms that cancel in the
        entry, shaped like value) when that is larger.  A zero entry scales
        to 0 even where its scale underflows to 0.
        """
        value = np.asarray(value, dtype=float)
        unit = np.array([base * self.order_unit(k) for k in range(len(value))])
        unit = unit.reshape((-1,) + (1,) * (value.ndim - 1))
        return np.divide(np.abs(value), np.maximum(unit, ROUNDOFF_SHARE * size),
                         out=np.zeros_like(value), where=value != 0)

    def smallness_ratio(self, amplitude: float | None = None) -> float:
        """Dimensionless r = |lam| * (amplitude scale)^(p-1) / omega0^2."""
        if self.lam == 0:
            return 0.0
        if amplitude is None:
            amplitude = self.ladder_amplitude
        return abs(self.lam) * self.coupling_unit(amplitude)

    def check_smallness(self, amplitude: float | None = None) -> float:
        """Warn (never silently accept) when r reaches R_MAX."""
        r = self.smallness_ratio(amplitude)
        if r >= R_MAX:
            warnings.warn(
                f"coupling ratio r={r:.3g} exceeds r_max={R_MAX:g}; "
                "truncated series results are unreliable",
                SmallnessWarning,
                stacklevel=2,
            )
        return r
