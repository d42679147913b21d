"""Shared helpers: independent oracles used to freeze expected values."""

from __future__ import annotations

import itertools
from fractions import Fraction

import mpmath

from linqm.scalar import Scalar
from linqm.weyl import DiffOp, Var


def monomials_upto(variables: list[Var], degree: int) -> list[DiffOp]:
    """Every monomial in the given variables with total degree <= degree."""
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(variables, total):
            powers: dict[Var, int] = {}
            for v in combo:
                powers[v] = powers.get(v, 0) + 1
            out.append(DiffOp.term(Scalar(Fraction(1)), list(powers.items()), ()))
    return out


def agree_on_monomials(a: DiffOp, b: DiffOp, variables: list[Var],
                       degree: int = 3) -> bool:
    """Brute-force oracle: two operators agree iff they map every small
    monomial to the same polynomial."""
    return all(a.apply(m) == b.apply(m) for m in monomials_upto(variables, degree))


# Relative bound on the chi-square tail inside Temme's band, where the
# oracle is mpmath rather than scipy's bits; scipy meets it too.
CHI2_BAND_RTOL = 1e-13


def mpmath_chi2_tail(dof: int, x: float):
    """P(chi2_dof > x) as Q(dof/2, x/2) in 50-digit mpmath."""
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2,
                               regularized=True)
