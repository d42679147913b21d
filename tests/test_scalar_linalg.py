import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linqm import linalg
from linqm.scalar import I, ONE, ZERO, Scalar, format_gaussian, rational_sqrt


def test_exact_arithmetic():
    a = Scalar(Fraction(1, 3), Fraction(2))
    b = Scalar(Fraction(-1, 2), Fraction(1, 6))
    assert a + b == Scalar(Fraction(-1, 6), Fraction(13, 6))
    assert a * b == Scalar(Fraction(1, 3) * Fraction(-1, 2) - Fraction(2) * Fraction(1, 6),
                           Fraction(1, 3) * Fraction(1, 6) + Fraction(2) * Fraction(-1, 2))
    assert (a / b) * b == a
    assert a - a == ZERO
    assert -a + a == ZERO


def test_conjugate_and_units():
    assert I * I == -ONE
    assert I.conjugate() == -I
    assert Scalar(Fraction(3, 4)).conjugate() == Scalar(Fraction(3, 4))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_str_forms():
    assert str(Scalar(Fraction(1, 2))) == "1/2"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(Scalar(Fraction(1), Fraction(-2))) == "1-2i"
    assert str(ZERO) == "0"


def _reference_str(re: Fraction, im: Fraction) -> str:
    """The renderer of the Fraction-backed Scalar, kept as the oracle."""
    if im == 0:
        return str(re)
    im_s = "i" if im == 1 else ("-i" if im == -1 else f"{im}i")
    if re == 0:
        return im_s
    sign = "+" if im > 0 else ""
    return f"{re}{sign}{im_s}"


rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
)
parts = st.tuples(rationals, rationals)


def _assert_is(s: Scalar, re: Fraction, im: Fraction) -> None:
    """s is the canonical scalar re + im*i: parts, form, equality, hash, text."""
    assert (s.re, s.im) == (re, im)
    assert s.den > 0 and gcd(s.num_re, s.num_im, s.den) == 1
    same = Scalar(re, im)
    assert s == same and hash(s) == hash(same)
    assert str(s) == _reference_str(re, im)


@settings(max_examples=200, deadline=None)
@given(parts, parts, rationals)
def test_ring_matches_fraction_arithmetic(x, y, q):
    (ar, ai), (br, bi) = x, y
    a, b = Scalar(ar, ai), Scalar(br, bi)
    _assert_is(a, ar, ai)
    _assert_is(a + b, ar + br, ai + bi)
    _assert_is(a - b, ar - br, ai - bi)
    _assert_is(a * b, ar * br - ai * bi, ar * bi + ai * br)
    _assert_is(-a, -ar, -ai)
    _assert_is(a.conjugate(), ar, -ai)
    _assert_is(q + a, q + ar, ai)
    _assert_is(q - a, q - ar, -ai)
    _assert_is(a * q, ar * q, ai * q)
    n2 = br * br + bi * bi
    if n2 == 0:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        _assert_is(a / b, (ar * br + ai * bi) / n2, (ai * br - ar * bi) / n2)
        _assert_is(q / b, q * br / n2, -q * bi / n2)
        assert (a * b) / b == a and hash((a * b) / b) == hash(a)
    assert (a == b) == ((ar, ai) == (br, bi))


@pytest.mark.parametrize("bad", [0.5, 1j, None])
def test_scalar_takes_only_exact_rationals(bad):
    with pytest.raises(TypeError):
        Scalar(bad)
    with pytest.raises(TypeError):
        Scalar(1, bad)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == Fraction(0)
    assert rational_sqrt(Fraction(-1)) is None


def _mat(rows):
    return [[Scalar.of(Fraction(x)) if not isinstance(x, Scalar) else x
             for x in row] for row in rows]


def test_invert_and_multiply():
    m = _mat([[1, 2], [3, 5]])
    inv = linalg.invert(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(2)
    singular = _mat([[1, 2], [2, 4]])
    assert linalg.invert(singular) is None


def test_solve_and_nullspace():
    a = _mat([[1, 2, 3], [2, 4, 6]])
    b = [Scalar.of(6), Scalar.of(12)]
    x = linalg.solve(a, b)
    assert x is not None
    assert linalg.mat_vec(a, x) == b
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert all(e.is_zero for e in linalg.mat_vec(a, v))
    assert linalg.solve(a, [Scalar.of(1), Scalar.of(1)]) is None


@pytest.mark.parametrize("spectrum", [[1], [0, 3], [0, 3, 3, -2], [2, 2, 0, 0, 1, -1, 4, -3]])
def test_random_hermitian_is_exact(spectrum):
    """The Cayley unitary's columns are exactly orthonormal eigenvectors of
    the hermitian matrix, each with its entry of the spectrum as eigenvalue."""
    n = len(spectrum)
    rng = random.Random(n)
    for _ in range(3):
        op, vecs = linalg.random_hermitian(rng, spectrum)
        gram = [[sum((a.conjugate() * b for a, b in zip(v, w)), ZERO) for w in vecs]
                for v in vecs]
        assert gram == linalg.identity(n)
        assert all(op[j][k] == op[k][j].conjugate() for j in range(n) for k in range(n))
        for lam, v in zip(spectrum, vecs):
            assert linalg.mat_vec(op, v) == [lam * x for x in v]


@settings(max_examples=200, deadline=None)
@given(parts)
def test_str_is_format_gaussian_of_the_parts(x):
    s = Scalar(*x)
    assert str(s) == format_gaussian(s.num_re, s.num_im, s.den)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40),
       st.integers(1, 10**30), st.integers(1, 10**6))
def test_format_gaussian_reduces_each_part(re, im, den, k):
    # an unreduced numerator and denominator print as their reduced parts
    want = _reference_str(Fraction(re, den), Fraction(im, den))
    assert format_gaussian(re * k, im * k, den * k) == want
    assert format_gaussian(re, im, den) == want
