from fractions import Fraction

import pytest

from conftest import agree_on_monomials
from linqm.scalar import I, ONE, Scalar
from linqm.weyl import (MAX_EXPONENT, DiffOp, ExponentOverflow, LinearSub,
                        NotAPolynomial, SingularSubstitution, Var)

U, V = Var("u"), Var("v")
X, Y = Var("x", real=True), Var("y", real=True)
u, v = DiffOp.variable(U), DiffOp.variable(V)
du, dv = DiffOp.derivative(U), DiffOp.derivative(V)


def test_variable_invariants():
    with pytest.raises(ValueError):
        Var("x", real=True, conjugated=True)
    with pytest.raises(ValueError):
        Var("u", site=0)
    with pytest.raises(ValueError):
        Var("u", slot=3)
    assert X.conj() == X
    assert U.conj().conj() == U


def test_canonical_commutation():
    assert du * u == u * du + 1
    assert du.commutator(u) == DiffOp.constant(1)
    assert du.commutator(DiffOp.variable(U.conj())).is_zero
    assert dv.commutator(u).is_zero


def test_mul_matches_monomial_oracle():
    # brute-force application to monomials u^a v^b pins the product
    lhs = (u * du) * (u * dv)
    rhs = u * dv + (u * u) * du * dv
    assert lhs == rhs
    assert agree_on_monomials(lhs, rhs, [U, V], degree=4)


def test_zero_annihilates():
    a = u * du + dv
    assert (DiffOp.zero() * a).is_zero
    assert (a * DiffOp.zero()).is_zero


def test_scalar_operands_defer_to_diffop():
    """Scalar arithmetic gives a DiffOp operand NotImplemented, so Python
    reaches DiffOp's reflected methods."""
    op = u * du + dv
    assert I * op == op.scale(I)
    assert Scalar(1) + op == op + 1
    assert Scalar(1) - op == 1 - op


def test_higher_order_reordering():
    # d^2 u = u d^2 + 2 d, d u^2 = u^2 d + 2 u
    assert du * du * u == u * du * du + 2 * du
    assert du * (u * u) == (u * u) * du + 2 * u


def test_commutator_halved_cartan():
    h_half = (u * du - v * dv) / 2
    e = u * dv
    assert h_half.commutator(e) == e
    assert agree_on_monomials(h_half.commutator(e), e, [U, V], degree=3)


def test_apply_basics():
    assert du.apply(u * u) == 2 * u
    assert (u * du).apply(u * u * u) == 3 * (u * u * u)
    with pytest.raises(NotAPolynomial):
        du.apply(u * du)


def test_apply_annihilates_plain_polynomials():
    lap = (DiffOp.term(ONE, (), [(U, 1), (U.conj(), 1)])
           + DiffOp.term(ONE, (), [(V, 1), (V.conj(), 1)]))
    assert lap.apply(u * u * v).is_zero


def test_adjoint_rules():
    assert u.adjoint() == DiffOp.variable(U.conj())
    assert du.adjoint() == -DiffOp.derivative(U.conj())
    # (u d/du)* = -u~ d/du~ - 1: the reordering constant appears
    assert (u * du).adjoint() == -(DiffOp.variable(U.conj())
                                   * DiffOp.derivative(U.conj())) - 1
    # real variables: (x d/dy)* = -x d/dy, so i x d/dy is hermitian
    op = DiffOp.term(I, [(X, 1)], [(Y, 1)])
    assert op.adjoint() == op


def test_adjoint_involution_and_antihomomorphism():
    a = u * dv * Scalar(Fraction(1, 2), Fraction(3)) + du
    b = v * du - DiffOp.constant(I)
    assert a.adjoint().adjoint() == a
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_substitute_polynomial_binomial():
    a11, a12 = Scalar(Fraction(2)), Scalar(Fraction(3))
    sub = LinearSub({U: [(a11, U), (a12, V)]})
    image = sub.apply(u * u)
    expected = (4 * (u * u) + 12 * (u * v) + 9 * (v * v))
    assert image == expected


def test_substitute_operator_requires_invertibility():
    singular = LinearSub({U: [(ONE, V)], V: [(ONE, V)]})
    with pytest.raises(SingularSubstitution):
        (u * du).substitute(singular)
    # polynomials accept any linear map
    assert singular.apply(u * v) == v * v


def test_substitute_conjugate_extension():
    # mapping u alone also maps u~ by conjugated coefficients
    sub = LinearSub({U: [(I, U)]})
    uc = DiffOp.variable(U.conj())
    assert sub.apply(uc) == uc.scale(-I)


def test_substitute_sums_duplicate_targets_and_drops_zeros():
    sub = LinearSub({U: [(1, U), (2, U), (0, V)]})
    assert sub.apply(u) == 3 * u
    assert sub.apply(v) == v


def test_substitute_all_zero_image():
    sub = LinearSub({U: []})
    uc = DiffOp.variable(U.conj())
    assert sub.apply(u).is_zero
    assert sub.apply(uc).is_zero
    assert sub.apply(u * v + uc).is_zero
    with pytest.raises(SingularSubstitution):
        (u * du).substitute(sub)


def test_substitute_conjugate_fill_acts_on_derivatives():
    # u -> i u fills u~ -> -i u~, so d/du~ -> (1/(-i)) d/du~ = i d/du~
    sub = LinearSub({U: [(I, U)]})
    uc, duc = DiffOp.variable(U.conj()), DiffOp.derivative(U.conj())
    assert sub.apply(duc) == duc.scale(I)
    op = uc * duc + duc
    f = uc * uc * u
    assert op.substitute(sub).apply(sub.apply(f)) == sub.apply(op.apply(f))


def test_real_variable_gets_no_conjugate_image():
    sub = LinearSub({X: [(2, X), (1, Y)]})
    assert set(sub.images) == {X}
    assert sub.apply(DiffOp.variable(X)) == 2 * DiffOp.variable(X) + DiffOp.variable(Y)


def test_substitution_preserves_operator_action():
    # conjugation identity: sub(op) applied to sub(f) equals sub(op(f))
    sub = LinearSub({U: [(ONE, U), (Scalar(Fraction(1, 2)), V)], V: [(ONE, V)]})
    op = u * du + dv * du
    f = u * u * v
    lhs = op.substitute(sub).apply(sub.apply(f))
    rhs = sub.apply(op.apply(f))
    assert lhs == rhs


def test_map_sites():
    w1 = DiffOp.variable(Var("u", 1, 1))
    w2 = DiffOp.variable(Var("u", 1, 2))
    op = w1 * DiffOp.derivative(Var("u", 1, 2))
    swapped = op.map_sites({1: 2, 2: 1})
    assert swapped == w2 * DiffOp.derivative(Var("u", 1, 1))
    with pytest.raises(ValueError):
        op.map_sites({1: 2, 2: 2})


def test_exponent_overflow_guard():
    with pytest.raises(ExponentOverflow):
        DiffOp.term(ONE, [(U, 1 << 21)], ())


def test_commutator_skips_the_overflowing_cancelled_term():
    # x^MAX and x commute; only their product overflows, so the commutator,
    # which never forms the product, is exactly zero.
    top, x = DiffOp.term(ONE, [(X, MAX_EXPONENT)], ()), DiffOp.variable(X)
    assert top.commutator(x).is_zero
    assert x.commutator(top).is_zero
    with pytest.raises(ExponentOverflow):
        top * x


def test_commutator_exact_when_the_cancelled_term_overflows():
    # [x^MAX d/dx, x] = x^MAX, while the cancelled term x^(MAX+1) d/dx of
    # both products is past the bound.
    top = DiffOp.term(ONE, [(X, MAX_EXPONENT)], [(X, 1)])
    x = DiffOp.variable(X)
    want = DiffOp.term(ONE, [(X, MAX_EXPONENT)], ())
    assert top.commutator(x) == want
    assert x.commutator(top) == -want
    with pytest.raises(ExponentOverflow):
        top * x


def test_text_format_round():
    op = DiffOp.term(Scalar(Fraction(1, 2), Fraction(-1)),
                     [(Var("u", 1, 2), 2)], [(Var("v", 2, 1, True), 1)])
    assert op.render() == "(1/2-i)*u[1,2]^2*d[v~[2,1]]"
    assert DiffOp.zero().render() == "0"
    assert DiffOp.variable(Var("x", site=3, real=True)).render() == "(1)*x[3]"


def test_term_ordering_deterministic():
    op = v * du + u * dv + DiffOp.constant(1)
    assert [t[0] for t in op.terms()] == [ONE, ONE, ONE]
    assert op.render() == "(1) + (1)*u*d[v] + (1)*v*d[u]"


def test_real_and_complex_namesakes_are_distinct_and_commute():
    # Var("x", real=True) and Var("x") differ only in the real flag, which
    # is the last tie-break of Var.key
    xr, xc = DiffOp.variable(Var("x", real=True)), DiffOp.variable(Var("x"))
    assert xr * xc == xc * xr
    assert (xr * xc - xc * xr).render() == "0"
    assert (xr * xc).n_terms() == 1
    assert Var("x").key < Var("x", real=True).key
