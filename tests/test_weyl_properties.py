"""Property tests for the exact operator algebra."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from linqm import linalg, oplib, report, weyl
from linqm.scalar import I, Scalar
from linqm.weyl import DiffOp, ExponentOverflow, LinearSub, Var

U, V = Var("u"), Var("v")
UC = U.conj()
X = Var("x", real=True)
POOL = [U, V, UC, X]

scalars = st.builds(
    lambda a, b, c: Scalar(Fraction(a, c), Fraction(b, c)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
).filter(lambda s: not s.is_zero)

variables = st.sampled_from(POOL)
powers = st.lists(st.tuples(variables, st.integers(1, 2)), max_size=2)


@st.composite
def operators(draw, max_terms=3):
    n = draw(st.integers(1, max_terms))
    op = DiffOp.zero()
    for _ in range(n):
        op = op + DiffOp.term(draw(scalars), draw(powers), draw(powers))
    return op


@st.composite
def polynomials(draw, max_terms=3):
    n = draw(st.integers(1, max_terms))
    op = DiffOp.zero()
    for _ in range(n):
        op = op + DiffOp.term(draw(scalars), draw(powers), ())
    return op


@st.composite
def derivations(draw):
    n = draw(st.integers(1, 3))
    op = DiffOp.zero()
    for _ in range(n):
        op = op + DiffOp.term(draw(scalars),
                              draw(st.lists(st.tuples(variables, st.just(1)),
                                            max_size=1)),
                              [(draw(variables), 1)])
    return op


@settings(max_examples=40, deadline=None)
@given(operators(), operators(), operators())
def test_mul_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=40, deadline=None)
@given(operators(), operators(), polynomials())
def test_apply_consistent_with_mul(a, b, f):
    assert (a * b).apply(f) == a.apply(b.apply(f))


@settings(max_examples=40, deadline=None)
@given(derivations(), derivations(), derivations())
def test_jacobi_identity(a, b, c):
    total = (a.commutator(b).commutator(c)
             + b.commutator(c).commutator(a)
             + c.commutator(a).commutator(b))
    assert total.is_zero


@settings(max_examples=40, deadline=None)
@given(operators(), operators())
def test_adjoint_is_involutive_antihomomorphism(a, b):
    assert a.adjoint().adjoint() == a
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def _site_pool(site: int) -> list[Var]:
    u = Var("u", site=site)
    return [u, Var("v", site=site), u.conj(), Var("x", site=site, real=True)]


@st.composite
def site_terms(draw):
    """One term on one of sites 1-6, as the site-summed generators of
    ``oplib`` are built; about half also touch one of their variables from
    both sides."""
    pool = st.sampled_from(_site_pool(draw(st.integers(1, 6))))
    site_powers = st.lists(st.tuples(pool, st.integers(1, 2)), max_size=2)
    mults, derivs = draw(site_powers), draw(site_powers)
    if draw(st.booleans()):
        both = draw(pool)
        mults, derivs = mults + [(both, 1)], derivs + [(both, 1)]
    return DiffOp.term(draw(scalars), mults, derivs)


# Operators over sites 1-6, so most term pairs share no variable: sums of up
# to 12 single-site terms, and copies of one site-1 operator on sites 1-k,
# summed as ``oplib._lift`` sums a generator over sites, whose contracting
# partners sit in runs far into the other operator's term order.
site_operators = st.one_of(
    st.lists(site_terms(), min_size=1, max_size=12).map(DiffOp.sum),
    st.builds(lambda op, k: DiffOp.sum(op.map_sites({1: s}) for s in range(1, k + 1)),
              operators(), st.integers(2, 6)))
any_operators = st.one_of(operators(), site_operators)


def _reference_commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """The kernel that walked every pair of terms, kept as the oracle for the
    indexed kernel's result and for the insertion order of its terms."""
    acc = {}
    for (m1, d1), (a1, b1) in a._num.items():
        for (m2, d2), (a2, b2) in b._num.items():
            re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            for f, key in weyl._compose(m1, d1, m2, d2, True):
                weyl._add_to(acc, key, f * re, f * im)
            for f, key in weyl._compose(m2, d2, m1, d1, True):
                weyl._add_to(acc, key, -f * re, -f * im)
    return weyl._make(a._den * b._den, acc)


@settings(max_examples=80, deadline=None)
@given(any_operators, any_operators)
def test_commutator_matches_difference_of_products(a, b):
    assert a.commutator(b) == a * b - b * a


@settings(max_examples=150, deadline=None)
@given(any_operators, any_operators)
def test_commutator_is_dict_identical_to_the_full_pair_walk(a, b):
    got, want = a.commutator(b), _reference_commutator(a, b)
    assert list(got._num.items()) == list(want._num.items())
    assert got._den == want._den


@settings(max_examples=40, deadline=None)
@given(site_operators)
def test_operators_on_disjoint_sites_commute_without_composing(a):
    b = a.map_sites({site: site + 6 for site in range(1, 7)})
    before = weyl._compose.cache_info()
    assert a.commutator(b).is_zero
    assert b.commutator(a).is_zero
    after = weyl._compose.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def _reference_apply(op: DiffOp, poly: DiffOp) -> DiffOp:
    """The action that walked every (operator term, polynomial term) pair,
    kept as the oracle for the indexed action and for the insertion order of
    its terms."""
    acc = {}
    for (m1, d1), (a1, b1) in op._num.items():
        for (mf, _), (af, bf) in poly._num.items():
            powers = dict(mf)
            f = 1
            for i, order in d1:
                p = powers.get(i, 0)
                if p < order:
                    break
                f *= weyl._falling(p, order)
                powers[i] = p - order
            else:
                weyl._add_to(acc, (weyl._merge(m1, weyl._powers(powers)), ()),
                             f * (a1 * af - b1 * bf), f * (a1 * bf + b1 * af))
    return weyl._make(op._den * poly._den, acc)


@st.composite
def site_polynomials(draw):
    """Sums of up to 12 single-site terms in powers up to 3, constants
    included, so derivatives of order 2 and 3 find terms to act on."""
    terms = []
    for _ in range(draw(st.integers(1, 12))):
        pool = st.sampled_from(_site_pool(draw(st.integers(1, 6))))
        mults = draw(st.lists(st.tuples(pool, st.integers(1, 3)), max_size=2))
        terms.append(DiffOp.term(draw(scalars), mults))
    return DiffOp.sum(terms)


@st.composite
def high_order_site_operators(draw):
    """One operator with derivative orders up to 3, summed over sites 1-k."""
    op = DiffOp.sum(DiffOp.term(draw(scalars), draw(powers),
                                draw(st.lists(st.tuples(variables, st.integers(1, 3)),
                                              min_size=1, max_size=2)))
                    for _ in range(draw(st.integers(1, 3))))
    return DiffOp.sum(op.map_sites({1: s}) for s in range(1, draw(st.integers(1, 6)) + 1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(any_operators, high_order_site_operators()),
       st.one_of(polynomials(), site_polynomials()))
def test_apply_is_dict_identical_to_the_full_pair_walk(op, poly):
    got, want = op.apply(poly), _reference_apply(op, poly)
    assert list(got._num.items()) == list(want._num.items())
    assert got._den == want._den


# ----------------------------------------------------------------------
# one-pass builders: the difference and the sum of single terms
# ----------------------------------------------------------------------
small_ints = st.integers(-2, 2)


@settings(max_examples=150, deadline=None)
@given(any_operators, any_operators, st.builds(Fraction, small_ints, st.integers(1, 3)))
def test_difference_is_dict_identical_to_adding_the_negation(a, b, c):
    for got, want in ((a - b, a + (-b)), (b - a, b + (-a)), (a - a, a + (-a)),
                      (a - c, a + (-DiffOp.constant(c))),
                      (c - a, DiffOp.constant(c) + (-a)),
                      (a.__rsub__(b), b + (-a))):
        assert list(got._num.items()) == list(want._num.items())
        assert got._den == want._den


# Six keys and coefficients that are often zero or cancel, so keys repeat
# and a zero term or a cancelled sum comes before a later term of the same
# key.  A power of 0 drops its variable from the key.
term_specs = st.lists(
    st.tuples(st.one_of(st.just(0), st.builds(Fraction, small_ints, st.integers(1, 4)),
                        st.builds(Scalar, small_ints, small_ints)),
              st.lists(st.tuples(st.sampled_from([U, V]), st.integers(0, 1)), max_size=1),
              st.lists(st.tuples(st.just(X), st.just(1)), max_size=1)),
    max_size=10)


@settings(max_examples=200, deadline=None)
@given(term_specs)
def test_from_terms_is_dict_identical_to_the_sum_of_terms(spec):
    got = DiffOp.from_terms(spec)
    want = DiffOp.sum(DiffOp.term(c, m, d) for c, m, d in spec)
    assert list(got._num.items()) == list(want._num.items())
    assert got._den == want._den


unit_lower = st.builds(
    lambda c: LinearSub({U: [(Scalar(Fraction(1)), U)],
                         V: [(c, U), (Scalar(Fraction(1)), V)]}),
    scalars)
unit_upper = st.builds(
    lambda c: LinearSub({U: [(Scalar(Fraction(1)), U), (c, V)],
                         V: [(Scalar(Fraction(1)), V)]}),
    scalars)
# maps u (and so, by the conjugate fill, u~) onto the real x
unit_real = st.builds(
    lambda c: LinearSub({U: [(Scalar(Fraction(1)), U), (c, X)],
                         X: [(Scalar(Fraction(1)), X)]}),
    scalars)
invertible_subs = st.one_of(unit_lower, unit_upper, unit_real)


@settings(max_examples=30, deadline=None)
@given(invertible_subs, polynomials(), polynomials())
def test_substitution_linear_on_polys(sub, f, g):
    assert sub.apply(f + g) == sub.apply(f) + sub.apply(g)
    assert sub.apply(f * g) == sub.apply(f) * sub.apply(g)


# ----------------------------------------------------------------------
# sympy oracle: operators and polynomials are drawn as term lists, built
# once as DiffOps and once as sympy actions, so the oracle never goes
# through DiffOp.apply or DiffOp.__mul__.
# ----------------------------------------------------------------------
SYMBOLS = {v: sympy.Symbol(v.label()) for v in POOL}

gaussian = st.tuples(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
                     st.integers(1, 10**4)).filter(lambda t: t[0] or t[1])
op_specs = st.lists(st.tuples(gaussian, powers, powers), min_size=1, max_size=3)
poly_specs = st.lists(
    st.tuples(gaussian, st.lists(st.tuples(variables, st.integers(1, 3)), max_size=3),
              st.just([])),
    min_size=1, max_size=3)


def _build(spec):
    return DiffOp.sum(DiffOp.term(Scalar(Fraction(a, d), Fraction(b, d)), m, ds)
                      for (a, b, d), m, ds in spec)


def _sym_coeff(re: Fraction, im: Fraction):
    return sympy.Rational(re.numerator, re.denominator) \
        + sympy.I * sympy.Rational(im.numerator, im.denominator)


def _sym_monomial(mults):
    return sympy.Mul(*[SYMBOLS[v] ** p for v, p in mults])


def _sym_poly(items):
    """Sum of coefficient times monomial over (re, im, mults) items."""
    return sympy.expand(sympy.Add(*[_sym_coeff(re, im) * _sym_monomial(m)
                                    for re, im, m in items]))


def _sym_apply(spec, f):
    """Normal-ordered action: each term differentiates f, then multiplies."""
    total = 0
    for (a, b, d), mults, derivs in spec:
        g = f
        for v, p in derivs:
            g = sympy.diff(g, SYMBOLS[v], p)
        total += _sym_coeff(Fraction(a, d), Fraction(b, d)) * _sym_monomial(mults) * g
    return sympy.expand(total)


def to_sympy(poly: DiffOp):
    assert poly.is_polynomial
    return _sym_poly((c.re, c.im, mults) for c, mults, _ in poly.terms())


@settings(max_examples=30, deadline=None)
@given(op_specs, op_specs, poly_specs)
def test_mul_and_apply_match_sympy_oracle(a_spec, b_spec, f_spec):
    a, b, f = _build(a_spec), _build(b_spec), _build(f_spec)
    sym_f = _sym_poly((Fraction(x, d), Fraction(y, d), m) for (x, y, d), m, _ in f_spec)
    assert sympy.expand(to_sympy(a.apply(f)) - _sym_apply(a_spec, sym_f)) == 0
    assert sympy.expand(to_sympy((a * b).apply(f))
                        - _sym_apply(a_spec, _sym_apply(b_spec, sym_f))) == 0


@settings(max_examples=30, deadline=None)
@given(op_specs, op_specs, poly_specs)
def test_commutator_apply_matches_sympy_oracle(a_spec, b_spec, f_spec):
    a, b, f = _build(a_spec), _build(b_spec), _build(f_spec)
    sym_f = _sym_poly((Fraction(x, d), Fraction(y, d), m) for (x, y, d), m, _ in f_spec)
    want = _sym_apply(a_spec, _sym_apply(b_spec, sym_f)) \
        - _sym_apply(b_spec, _sym_apply(a_spec, sym_f))
    assert sympy.expand(to_sympy(a.commutator(b).apply(f)) - want) == 0


@settings(max_examples=40, deadline=None)
@given(op_specs)
def test_canonical_form_survives_round_trips(spec):
    op = _build(spec)
    assert op.scale(Fraction(1, 3)).scale(3) == op
    assert op - op == DiffOp.zero()
    assert DiffOp.sum(DiffOp.term(c, m, d) for c, m, d in op.terms()) == op


# ----------------------------------------------------------------------
# the normal-ordering memo
# ----------------------------------------------------------------------
# Monomials over two variables with powers up to 3, so a left derivative
# and a right multiplication often share a variable.
monomials = st.lists(st.tuples(st.sampled_from([U, X]), st.integers(1, 3)),
                     max_size=2).map(weyl._ids)


@settings(max_examples=60, deadline=None)
@given(monomials, monomials, monomials, monomials, st.booleans())
def test_compose_memo_matches_uncached(m1, d1, m2, d2, contractions_only):
    want = weyl._compose.__wrapped__(m1, d1, m2, d2, contractions_only)
    assert weyl._compose(m1, d1, m2, d2, contractions_only) == want
    assert weyl._compose(m1, d1, m2, d2, contractions_only) == want  # a cache hit
    assert isinstance(want, tuple)


@settings(max_examples=60, deadline=None)
@given(monomials, monomials, monomials, monomials)
def test_compose_emits_the_no_contraction_term_first(m1, d1, m2, d2):
    pairs = weyl._compose(m1, d1, m2, d2)
    assert pairs[0] == (1, (weyl._merge(m1, m2), weyl._merge(d1, d2)))
    # every later pair has lost at least one multiplication to a contraction
    degree = sum(p for _, p in m1) + sum(p for _, p in m2)
    assert all(sum(p for _, p in key[0]) < degree for _, key in pairs[1:])
    # and the contractions-only form is exactly those later pairs
    assert weyl._compose(m1, d1, m2, d2, True) == pairs[1:]


def test_compose_overflow_raises_on_every_call():
    top = weyl._ids([(X, weyl.MAX_EXPONENT)])
    one = weyl._ids([(X, 1)])
    for _ in range(2):
        with pytest.raises(ExponentOverflow):
            weyl._compose(top, (), one, ())
        with pytest.raises(ExponentOverflow):
            weyl._compose((), one, (), top)


def test_compose_memo_is_bounded():
    assert weyl._compose.cache_info().maxsize is not None


# ----------------------------------------------------------------------
# rendering: the integer-form renderer against the Scalar-based one
# ----------------------------------------------------------------------
def _reference_render(op: DiffOp) -> str:
    """The renderer that went through ``terms`` and ``str(Scalar)``, kept as
    the oracle."""
    if op.is_zero:
        return "0"
    parts = []
    for coeff, mults, derivs in op.terms():
        factors = [f"({coeff})"]
        for v, p in mults:
            factors.append(v.label() + (f"^{p}" if p > 1 else ""))
        for v, p in derivs:
            factors.append(f"d[{v.label()}]" + (f"^{p}" if p > 1 else ""))
        parts.append("*".join(factors))
    return " + ".join(parts)


# Slotted, conjugated and real variables, with a complex and a real variable
# that share family, slot and site (both print as "w[1,2]").
W = Var("w", 1, 2)
RENDER_POOL = [U, UC, V, X, Var("x"), W, W.conj(), Var("w", 1, 2, real=True),
               Var("w", 2, 1), Var("y", site=3), Var("y", site=3).conj()]
render_powers = st.lists(st.tuples(st.sampled_from(RENDER_POOL), st.integers(1, 4)),
                         max_size=3)
render_parts = st.one_of(
    st.integers(-3, 3),
    st.integers(-10**40, 10**40),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
)
render_coeffs = st.one_of(
    st.sampled_from([Scalar(0, 1), Scalar(0, -1), Scalar(1), Scalar(-1)]),
    st.builds(lambda im: Scalar(0, im), render_parts),  # purely imaginary
    st.builds(Scalar, render_parts, render_parts),  # mixed
).filter(lambda s: not s.is_zero)


# Sums long enough to pass the 800-character clip: up to 40 terms, each up
# to about 90 characters.
long_specs = st.lists(st.tuples(render_coeffs, render_powers, render_powers), max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.tuples(render_coeffs, render_powers, render_powers),
                          max_size=5), long_specs),
       st.integers(0, 2400))
def test_render_matches_reference_renderer(spec, cap):
    op = DiffOp.sum(DiffOp.term(c, m, d) for c, m, d in spec)
    text = _reference_render(op)
    assert op.render() == text
    assert str(op) == op.render()
    assert op.render_head(cap) == (text[:cap], len(text))
    assert report.clip_op(op) == report.clip(text)
    # caps at and around each term's end, where the head stops taking terms
    end = -3
    for part in text.split(" + "):
        end += len(part) + 3
        for c in range(max(end - 2, 0), end + 4):
            assert op.render_head(c) == (text[:c], len(text))


def _rendering_at(length: int) -> DiffOp:
    """An operator whose text is ``length`` characters long: a coefficient
    of many digits on w, then (1)*x[s] on sites 2-9 (11 characters each,
    with the separator)."""
    digits = length - len("()*w") - 8 * len(" + (1)*x[2]")
    op = DiffOp.term(10 ** (digits - 1), [(Var("w"), 1)])
    return op + DiffOp.from_terms((1, [(Var("x", site=s, real=True), 1)], ())
                                  for s in range(2, 10))


@pytest.mark.parametrize("length", [799, 800, 801])
def test_clip_op_at_the_cap(length):
    op = _rendering_at(length)
    text = _reference_render(op)
    assert len(text) == length
    assert report.clip_op(op) == report.clip(text)
    assert report.clip_op(op).endswith("... [1 more chars]") == (length == 801)


def test_clip_op_far_past_the_cap_and_on_zero():
    op = DiffOp.from_terms((Scalar(Fraction(s, p), Fraction(-p, 7)),
                            [(Var("x", site=s, real=True), p)], ())
                           for s in range(1, 60) for p in range(1, 30))
    text = _reference_render(op)
    assert len(text) > 30_000
    assert report.clip_op(op) == report.clip(text)
    assert report.clip_op(DiffOp.zero()) == report.clip(_reference_render(DiffOp.zero())) == "0"
    assert DiffOp.zero().render_head(800) == ("0", 1)


def _full_render_report(expected: DiffOp, actual: DiffOp, text) -> report.RelationReport:
    """The record as ``relation_report`` built it from whole texts."""
    residual = actual - expected
    if text is None:
        text = actual.render() if residual.is_zero else expected.render()
    return report.RelationReport("s", "r", text, actual.render(), residual.render(),
                                 residual.is_zero)


@settings(max_examples=60, deadline=None)
@given(st.builds(DiffOp.from_terms, long_specs), st.builds(DiffOp.from_terms, long_specs),
       st.sampled_from([None, "(c)*Z^2"]))
def test_relation_report_rows_equal_rows_from_the_full_render(a, b, text):
    for expected, actual in ((a, b), (b, b)):
        rec = report.relation_report("s", "r", expected, actual, expected_text=text)
        full = _full_render_report(expected, actual, text)
        assert rec.to_json_obj() == full.to_json_obj()
        assert rec == report.RelationReport(
            "s", "r", *map(report.clip, (full.expected, full.actual, full.residual)),
            full.passed)


# ----------------------------------------------------------------------
# lifted matrices
# ----------------------------------------------------------------------
entries = st.builds(lambda a, b, c: Scalar(Fraction(a, c), Fraction(b, c)),
                    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
matrices = st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=2)
site_counts = st.integers(1, 3)


def _doublets(sites: int) -> list:
    """The (u[b,i], v[b,i]) doublet of both slots and every site, as xs = ys."""
    return [(d, d) for d in ((oplib.uvar(b, i), oplib.vvar(b, i))
                             for b in (1, 2) for i in range(1, sites + 1))]


@settings(max_examples=50, deadline=None)
@given(matrices, matrices, site_counts)
def test_lift_carries_the_matrix_commutator(a, b, sites):
    copies = _doublets(sites)
    ab, ba = linalg.mat_mul(a, b), linalg.mat_mul(b, a)
    minus_i_bracket = [[-I * (x - y) for x, y in zip(r, s)] for r, s in zip(ab, ba)]
    assert (oplib._lift(a, copies).commutator(oplib._lift(b, copies))
            == oplib._lift(minus_i_bracket, copies).scale(I))


@settings(max_examples=50, deadline=None)
@given(matrices, site_counts)
def test_lift_is_self_adjoint_exactly_when_the_trace_is_real(a, sites):
    lift = oplib._lift(a, _doublets(sites))
    assert (lift.adjoint() == lift) == ((a[0][0] + a[1][1]).im == 0)


@settings(max_examples=50, deadline=None)
@given(matrices, matrices, site_counts)
def test_lifts_from_slot_1_to_conjugated_slot_2_commute(a, b, sites):
    copies = [((oplib.uvar(1, i), oplib.vvar(1, i)),
               (oplib.uvar(2, i, True), oplib.vvar(2, i, True)))
              for i in range(1, sites + 1)]
    assert oplib._lift(a, copies).commutator(oplib._lift(b, copies)).is_zero
