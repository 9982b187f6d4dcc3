"""Truncated power series in the anharmonic coupling.

A LambdaSeries is a polynomial c0 + c1*lam + c2*lam^2 + ... stored as a
coefficient tuple.  Coefficients may be floats or exact Fractions; the
arithmetic never forces a type, so solving with Fraction inputs yields
exact rational coefficients for golden tests.

Bulk work holds many series at once as a NumPy coefficient stack, whose
leading axis is the power of lam; series_product multiplies two stacks,
Powers forms the powers of one, and horner evaluates one at a coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np


def series_product(a: np.ndarray, b: np.ndarray, max_order: int, op) -> np.ndarray:
    """(ab)_k = sum_{i+j=k} op(a_i, b_j) for k <= max_order.

    a and b are coefficient stacks (a[k] is the lam^k part); op multiplies
    two layers: np.matmul for operator products, np.multiply for entrywise
    ones, a centred convolution for cosine series.  The result always has
    max_order + 1 layers of a's layer shape, in the dtype of a and b, so
    object stacks of Fractions stay exact.
    """
    out = np.zeros((max_order + 1,) + a.shape[1:], dtype=np.result_type(a, b))
    for i in range(min(len(a), max_order + 1)):
        for j in range(min(len(b), max_order + 1 - i)):
            out[i + j] += op(a[i], b[j])
    return out


class Powers(dict):
    """Layers of the powers of a coefficient stack x under the layer product
    op, each formed once: self[j, k] is layer k of x^j, summed as
    series_product sums it (from zero in x's dtype, over op((x^(j-1))_i,
    x_(k-i)) in increasing i), from x[0 .. k] as they are then."""

    def __init__(self, x: np.ndarray, op):
        super().__init__(((1, k), layer) for k, layer in enumerate(x))
        self.x, self.op = x, op

    def __missing__(self, key: Tuple[int, int]) -> np.ndarray:
        j, k = key
        acc = self[key] = np.zeros(self.x.shape[1:], self.x.dtype)
        for i in range(k + 1):
            acc += self.op(self[j - 1, i], self.x[k - i])
        return acc

    def stack(self, j: int, layers: int) -> np.ndarray:
        return np.array([self[j, k] for k in range(layers)])


def horner(c: np.ndarray, lam: float) -> np.ndarray:
    """Value at lam of every series in a coefficient stack, by Horner's
    rule over the layers in the order LambdaSeries.eval takes them."""
    acc = np.zeros(c.shape[1:])
    for layer in c[::-1]:
        acc = acc * lam + layer
    return acc


def _trim(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class LambdaSeries:
    """Immutable truncated series in the coupling lam."""

    coeffs: tuple = ()

    @staticmethod
    def const(value) -> "LambdaSeries":
        return LambdaSeries(_trim((value,)))

    @staticmethod
    def zero() -> "LambdaSeries":
        return LambdaSeries(())

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "LambdaSeries":
        return LambdaSeries(_trim(tuple(coeffs)))

    @property
    def order(self) -> int:
        """Highest stored power (-1 for the zero series)."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "LambdaSeries") -> "LambdaSeries":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return LambdaSeries(_trim(out))

    def __sub__(self, other: "LambdaSeries") -> "LambdaSeries":
        return self + (-other)

    def __neg__(self) -> "LambdaSeries":
        return LambdaSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, LambdaSeries):
            if not self.coeffs or not other.coeffs:
                return LambdaSeries(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
            return LambdaSeries(_trim(out))
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, factor) -> "LambdaSeries":
        return LambdaSeries(_trim(tuple(c * factor for c in self.coeffs)))

    def shifted(self, powers: int = 1) -> "LambdaSeries":
        """Multiply by lam**powers."""
        if not self.coeffs:
            return self
        return LambdaSeries((0,) * powers + self.coeffs)

    def truncated(self, max_order: int) -> "LambdaSeries":
        return LambdaSeries(_trim(self.coeffs[: max_order + 1]))

    def eval(self, lam) -> float:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

    def max_abs(self, max_order: int | None = None):
        cs = self.coeffs if max_order is None else self.coeffs[: max_order + 1]
        return max((abs(c) for c in cs), default=0)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            parts.append(f"{c}" if k == 0 else f"{c}*lam^{k}")
        return " + ".join(parts) if parts else "0"
