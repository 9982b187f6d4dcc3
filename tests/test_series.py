from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from matrixmech.ladder import solve_quantum
from matrixmech.oscillator import Kind, OscillatorSpec
from matrixmech.series import LambdaSeries, horner


def test_basic_arithmetic():
    a = LambdaSeries.from_coeffs([1, 2, 3])
    b = LambdaSeries.from_coeffs([0, 1])
    assert (a + b).coeffs == (1, 3, 3)
    assert (a - a).coeffs == ()
    assert (a * b).coeffs == (0, 1, 2, 3)
    assert a.scaled(2).coeffs == (2, 4, 6)
    assert a.shifted(2).coeffs == (0, 0, 1, 2, 3)
    assert a.truncated(1).coeffs == (1, 2)


def test_trailing_zeros_trimmed():
    assert LambdaSeries.from_coeffs([1, 0, 0]).coeffs == (1,)
    assert LambdaSeries.from_coeffs([0, 0]).coeffs == ()
    assert not LambdaSeries.zero()


def test_indexing_beyond_length_gives_zero():
    a = LambdaSeries.from_coeffs([5])
    assert a[0] == 5
    assert a[3] == 0
    assert a[-1] == 0


def test_eval_horner():
    a = LambdaSeries.from_coeffs([1, -2, 4])
    assert a.eval(0.5) == 1 - 1.0 + 1.0


@pytest.mark.parametrize("kind", [Kind.QUADRATIC_FORCE, Kind.CUBIC_FORCE])
@pytest.mark.parametrize("lam", [-2e-3, 0.0, 2e-3])
def test_horner_matches_eval_to_the_bit(kind, lam):
    t = solve_quantum(OscillatorSpec(lam=1e-3, kind=kind), n_max=6, order=1)
    dim = t.x.dim
    w = [t.level(n).eval(lam) for n in range(dim)]
    x = [[t.x.entry(n, m).eval(lam) for m in range(dim)] for n in range(dim)]
    assert repr(horner(t.w, lam).tolist()) == repr([float(v) for v in w])
    assert repr(horner(t.x.c, lam).tolist()) == repr([[float(v) for v in r] for r in x])


def test_exact_fraction_arithmetic():
    a = LambdaSeries.from_coeffs([Fraction(1, 3), Fraction(1, 6)])
    b = a * a
    assert b.coeffs == (Fraction(1, 9), Fraction(1, 9), Fraction(1, 36))


def test_max_abs():
    a = LambdaSeries.from_coeffs([1, -7, 2])
    assert a.max_abs() == 7
    assert a.max_abs(0) == 1
    assert LambdaSeries.zero().max_abs() == 0


small_ints = st.integers(min_value=-20, max_value=20)
series_st = st.lists(small_ints, max_size=6).map(LambdaSeries.from_coeffs)


@given(series_st, series_st, series_st)
def test_distributive_exact(a, b, c):
    assert ((a + b) * c).coeffs == (a * c + b * c).coeffs


@given(series_st, series_st, small_ints)
def test_eval_is_ring_homomorphism(a, b, x):
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)


@given(series_st)
def test_neg_roundtrip(a):
    assert (-(-a)).coeffs == a.coeffs


def test_str_forms():
    assert str(LambdaSeries.zero()) == "0"
    assert "lam^1" in str(LambdaSeries.from_coeffs([0, 3]))
