"""Exact algebra of polynomial-coefficient differential operators.

Operators are kept normal ordered: every term is an exact coefficient times
a monomial in the variables times a monomial in the partial derivatives,
with all multiplication factors standing to the left of all derivatives.
The only rewrite rule is the canonical commutation [d/dx, x] = 1 applied
per variable.  Distinct variables commute, and a variable commutes with the
derivative of its conjugate: conjugate pairs such as u and u~ are treated
as independent formal variables, linked only through ``conjugate`` and
``adjoint``.

A polynomial is simply an operator whose terms carry no derivatives.

Internal form: an operator is one positive integer denominator plus a dict
that maps each term key to the integer pair (re, im), the Gaussian-integer
numerator of that term's coefficient.  This is ``Scalar``'s own form with
the denominator shared, so coefficients pass in and out through ``num_re``,
``num_im``, ``den`` and ``gaussian`` with no conversion.  The form is
canonical -- zero terms are dropped and the gcd of the denominator and every
numerator part is 1 -- so operator equality is a plain comparison.  A term
key is (mults, derivs), each half a tuple of (variable id, power >= 1)
sorted by id.  Ids are small integers from a private intern table that is
only ever appended to, so all ring operations are integer work.  Ids never
reach the outside: a term key leaves the id form only through ``_half``,
one memo that maps each half to its sort key, its ``Var`` factors ordered
by ``Var.key``, and its text.  ``terms``, ``term_items`` and ``render`` all
read it, so the order in which variables were first met cannot change any
answer.  Because an id never changes meaning, ``_half`` and the normal
ordering of two terms (``_compose``) are memoized, each in a cache bounded
at ``COMPOSE_CACHE_SIZE`` entries.  ``commutator`` is its own
kernel: it adds only the contraction terms of both orders, so the terms
that cancel in ``a*b - b*a`` are never built.  It indexes the right
operand's terms by the variable ids of their multiplications and of their
derivatives, and pairs each left term only with the terms that share a
variable it can contract with, so terms on different sites are never
paired.  Partners are visited in the right operand's term order, so the
result is dict-identical to the one the walk over every pair builds.
``apply`` indexes the polynomial's terms by multiplication ids the same
way, and ``render_head`` orders only the terms a clipped text shows.

Text form (documented in docs/operator-text-format.md): a sum of terms
``(coeff)*var^k*...*d[var]^m*...`` where a variable prints as its family
letter, a ``~`` suffix for conjugation, and bracketed indices ``[slot,site]``
(or ``[site]`` when there is no slot, omitted entirely for site 1).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Union

from . import linalg
from .scalar import ONE, ZERO, Scalar, ScalarLike, format_gaussian, gaussian

MAX_EXPONENT = 1 << 20

# Entries kept by each memo: ``_compose``, and ``_half``, the one exit from the
# id form.  Bounded, so a process holds at most this many of each.
COMPOSE_CACHE_SIZE = 2048


class ExponentOverflow(OverflowError):
    """A power or derivative order grew past the supported bound."""


class SingularSubstitution(ValueError):
    """Operator substitution by a non-invertible linear map."""


class NotAPolynomial(TypeError):
    """An operation expected a derivative-free operator."""


@dataclass(frozen=True)
class Var:
    """One indexed formal variable.

    ``family`` is a letter such as u, v, x; ``slot`` is the optional doublet
    index (1 or 2); ``site`` is the copy index (>= 1).  Real variables never
    carry a conjugation flag (conjugation is the identity on them).
    """

    family: str
    slot: int | None = None
    site: int = 1
    conjugated: bool = False
    real: bool = False

    def __post_init__(self) -> None:
        if not self.family or not self.family.isalpha():
            raise ValueError(f"bad variable family: {self.family!r}")
        if self.slot not in (None, 1, 2):
            raise ValueError(f"slot must be 1, 2 or None, got {self.slot!r}")
        if self.site < 1:
            raise ValueError(f"site must be >= 1, got {self.site!r}")
        if self.real and self.conjugated:
            raise ValueError("real variables cannot be conjugated")

    @property
    def key(self) -> tuple:
        """Fixed total order used for canonical term ordering."""
        return (self.family, self.slot or 0, self.site, self.conjugated, self.real)

    def conj(self) -> "Var":
        if self.real:
            return self
        return Var(self.family, self.slot, self.site, not self.conjugated)

    def label(self) -> str:
        name = self.family + ("~" if self.conjugated else "")
        if self.slot is not None:
            return f"{name}[{self.slot},{self.site}]"
        if self.site != 1:
            return f"{name}[{self.site}]"
        return name

    def __str__(self) -> str:
        return self.label()


# Public term form: (mults, derivs), each a tuple of (Var, power >= 1)
# sorted by Var.key.
Mults = tuple[tuple[Var, int], ...]
TermKey = tuple[Mults, Mults]

# Internal term form: the same with variable ids, sorted by id, and the
# Gaussian-integer numerator of each term's coefficient.
Powers = tuple[tuple[int, int], ...]
Key = tuple[Powers, Powers]
Numerators = dict[Key, tuple[int, int]]

OpLike = Union["DiffOp", ScalarLike]

# The intern table: id -> Var, Var -> id, and id -> id of the conjugate.  A
# variable and its conjugate are interned together.  It is only ever
# appended to, and ids order nothing that leaves this module, so sharing it
# across callers cannot change an answer.
_VARS: list[Var] = []
_IDS: dict[Var, int] = {}
_CONJ: list[int] = []


def _intern(v: Var) -> int:
    i = _IDS.get(v)
    if i is None:
        i = _IDS[v] = len(_VARS)
        c = v.conj()
        if c == v:
            _VARS.append(v)
            _CONJ.append(i)
        else:
            _IDS[c] = i + 1
            _VARS.extend((v, c))
            _CONJ.extend((i + 1, i))
    return i


def _powers(acc: Mapping[int, int]) -> Powers:
    """Canonical powers: zeros dropped, bounds checked, sorted by id."""
    out = []
    for i, p in sorted(acc.items()):
        if p == 0:
            continue
        if p < 0:
            raise ValueError(f"negative exponent for {_VARS[i]}")
        if p > MAX_EXPONENT:
            raise ExponentOverflow(f"exponent {p} for {_VARS[i]} exceeds bound")
        out.append((i, p))
    return tuple(out)


def _merge(a: Powers, b: Powers) -> Powers:
    """Product of two canonical monomials."""
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, p in b:
        if i in acc:
            p += acc[i]
            if p > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {p} for {_VARS[i]} exceeds bound")
        acc[i] = p
    return tuple(sorted(acc.items()))


def _ids(powers: Iterable[tuple[Var, int]]) -> Powers:
    acc: dict[int, int] = {}
    for v, p in powers:
        i = _intern(v)
        acc[i] = acc.get(i, 0) + p
    return _powers(acc)


def _conj(powers: Powers) -> Powers:
    return _powers({_CONJ[i]: p for i, p in powers})


def _make(den: int, acc: Numerators) -> "DiffOp":
    """The canonical operator with coefficients acc[key] / den."""
    num = {k: c for k, c in acc.items() if c[0] or c[1]}
    g = den
    for re, im in num.values():
        if g == 1:
            break
        g = gcd(g, re, im)
    if g != 1:
        den //= g
        num = {k: (re // g, im // g) for k, (re, im) in num.items()}
    op = DiffOp()
    op._den = den
    op._num = num
    return op


def _add_to(acc: Numerators, key: Key, re: int, im: int) -> None:
    r, i = acc.get(key, (0, 0))
    acc[key] = (r + re, i + im)


def _falling(p: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= p - j
    return out


class DiffOp:
    """A normal-ordered differential operator with exact coefficients."""

    __slots__ = ("_den", "_num")

    def __init__(self) -> None:
        self._den = 1
        self._num: Numerators = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "DiffOp":
        return DiffOp()

    @staticmethod
    def constant(c: ScalarLike) -> "DiffOp":
        return DiffOp.term(c)

    @staticmethod
    def variable(v: Var) -> "DiffOp":
        return DiffOp.term(ONE, [(v, 1)])

    @staticmethod
    def derivative(v: Var) -> "DiffOp":
        return DiffOp.term(ONE, (), [(v, 1)])

    @staticmethod
    def term(coeff: ScalarLike, mults: Iterable[tuple[Var, int]] = (),
             derivs: Iterable[tuple[Var, int]] = ()) -> "DiffOp":
        c = Scalar.of(coeff)
        return _make(c.den, {(_ids(mults), _ids(derivs)): (c.num_re, c.num_im)})

    @staticmethod
    def from_terms(terms: Iterable[tuple[ScalarLike, Iterable[tuple[Var, int]],
                                         Iterable[tuple[Var, int]]]]) -> "DiffOp":
        """The sum of the (coeff, mults, derivs) terms, built in one pass:
        dict-identical to ``DiffOp.sum`` of their ``DiffOp.term``s."""
        rows = []
        for coeff, mults, derivs in terms:
            c = Scalar.of(coeff)
            key = (_ids(mults), _ids(derivs))
            if c.num_re or c.num_im:  # a zero term adds no key, as in ``sum``
                rows.append((key, c))
        den = lcm(*(c.den for _, c in rows))
        acc: Numerators = {}
        for key, c in rows:
            f = den // c.den
            _add_to(acc, key, f * c.num_re, f * c.num_im)
        return _make(den, acc)

    @staticmethod
    def sum(ops: Iterable["DiffOp"]) -> "DiffOp":
        ops = list(ops)
        den = lcm(*(op._den for op in ops))
        acc: Numerators = {}
        for op in ops:
            f = den // op._den
            for key, (re, im) in op._num.items():
                _add_to(acc, key, f * re, f * im)
        return _make(den, acc)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_polynomial(self) -> bool:
        return all(not derivs for (_, derivs) in self._num)

    def terms(self) -> list[tuple[Scalar, Mults, Mults]]:
        """Terms in canonical order."""
        return [(gaussian(re, im, self._den), m[1], d[1])
                for m, d, (re, im) in self._halves()]

    def n_terms(self) -> int:
        return len(self._num)

    def term_items(self) -> list[tuple[TermKey, Scalar]]:
        """(key, coefficient) pairs; order is not canonical."""
        return [((_half(m)[1], _half(d)[1]), gaussian(re, im, self._den))
                for (m, d), (re, im) in self._num.items()]

    def _halves(self) -> list[tuple[tuple, tuple, tuple[int, int]]]:
        """(``_half`` of mults, ``_half`` of derivs, numerator) per term,
        sorted by the halves' sort keys: the canonical term order."""
        return sorted(((_half(m), _half(d), c) for (m, d), c in self._num.items()),
                      key=lambda row: (row[0][0], row[1][0]))

    def is_derivation(self) -> bool:
        """True when every term has total derivative order exactly one."""
        return bool(self._num) and all(
            sum(p for _, p in derivs) == 1 for _, derivs in self._num)

    # ------------------------------------------------------------------
    # ring structure
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __add__(self, other: OpLike) -> "DiffOp":
        return DiffOp.sum((self, _as_op(other)))

    __radd__ = __add__

    def __sub__(self, other: OpLike) -> "DiffOp":
        return _difference(self, _as_op(other))

    def __rsub__(self, other: OpLike) -> "DiffOp":
        return _difference(_as_op(other), self)

    def __neg__(self) -> "DiffOp":
        return _make(self._den, {k: (-re, -im) for k, (re, im) in self._num.items()})

    def scale(self, c: ScalarLike) -> "DiffOp":
        c = Scalar.of(c)
        p, q = c.num_re, c.num_im
        return _make(self._den * c.den, {k: (re * p - im * q, re * q + im * p)
                                       for k, (re, im) in self._num.items()})

    def __mul__(self, other: OpLike) -> "DiffOp":
        if not isinstance(other, DiffOp):
            return self.scale(other)
        acc: Numerators = {}
        for (m1, d1), (a1, b1) in self._num.items():
            for (m2, d2), (a2, b2) in other._num.items():
                re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                for f, key in _compose(m1, d1, m2, d2):
                    # _add_to inlined: this is the kernel's innermost loop
                    r, i = acc.get(key, (0, 0))
                    acc[key] = (r + f * re, i + f * im)
        return _make(self._den * other._den, acc)

    __rmul__ = scale

    def __truediv__(self, c: ScalarLike) -> "DiffOp":
        return self.scale(ONE / c)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """[self, other], built without the terms that cancel.

        For each pair of terms the no-contraction term of both orders is the
        same key with factor 1, so only the contraction terms of each order
        enter, with signs +1 and -1.  The no-contraction term is never built,
        so a pair whose product would pass ``MAX_EXPONENT`` still commutes
        exactly.

        An order contracts only where a left derivative meets a right
        multiplication of the same variable, so a pair that shares no such
        variable in either order adds nothing.  ``other``'s terms are
        indexed by the variable ids of their multiplications and of their
        derivatives, and each term of ``self`` walks only its partners: the
        terms whose multiplications share an id with its derivatives, and
        those whose derivatives share an id with its multiplications.
        Partners are visited in ``other``'s term order, so the pairs that
        contribute arrive in the order of the full pair walk, and the result
        is dict-identical to it: the same keys in the same insertion order.
        """
        items = list(other._num.items())
        by_mult: dict[int, list[int]] = {}
        by_deriv: dict[int, list[int]] = {}
        for j, ((m2, d2), _) in enumerate(items):
            for i, _ in m2:
                by_mult.setdefault(i, []).append(j)
            for i, _ in d2:
                by_deriv.setdefault(i, []).append(j)
        acc: Numerators = {}
        for (m1, d1), (a1, b1) in self._num.items():
            ab = {j for i, _ in d1 for j in by_mult.get(i, ())}
            ba = {j for i, _ in m1 for j in by_deriv.get(i, ())}
            for j in sorted(ab | ba):
                (m2, d2), (a2, b2) = items[j]
                re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                for f, key in _compose(m1, d1, m2, d2, True) if j in ab else ():
                    r, i = acc.get(key, (0, 0))
                    acc[key] = (r + f * re, i + f * im)
                for f, key in _compose(m2, d2, m1, d1, True) if j in ba else ():
                    r, i = acc.get(key, (0, 0))
                    acc[key] = (r - f * re, i - f * im)
        return _make(self._den * other._den, acc)

    # ------------------------------------------------------------------
    # action, adjoint, conjugation
    # ------------------------------------------------------------------
    def apply(self, poly: "DiffOp") -> "DiffOp":
        """Image of a polynomial under this operator.

        Linear in the polynomial and consistent with composition:
        (a*b).apply(f) == a.apply(b.apply(f)).

        A pair whose operator term differentiates a variable the polynomial
        term lacks adds nothing.  So ``poly``'s terms are indexed by the
        variable ids of their multiplications, and each term of ``self``
        walks only the terms that carry its first derivative variable (all
        of them when it has no derivative), in ``poly``'s term order.  The
        pairs that contribute arrive in the order of the full pair walk, and
        the result is dict-identical to it.
        """
        if not poly.is_polynomial:
            raise NotAPolynomial("apply target must be derivative-free")
        items = [(mf, c) for (mf, _), c in poly._num.items()]
        by_mult: dict[int, list] = {}
        for item in items:
            for i, _ in item[0]:
                by_mult.setdefault(i, []).append(item)
        acc: Numerators = {}
        for (m1, d1), (a1, b1) in self._num.items():
            for mf, (af, bf) in by_mult.get(d1[0][0], ()) if d1 else items:
                powers = dict(mf)
                f = 1
                for i, order in d1:
                    p = powers.get(i, 0)
                    if p < order:
                        break
                    f *= _falling(p, order)
                    powers[i] = p - order
                else:
                    _add_to(acc, (_merge(m1, _powers(powers)), ()),
                            f * (a1 * af - b1 * bf), f * (a1 * bf + b1 * af))
        return _make(self._den * poly._den, acc)

    def adjoint(self) -> "DiffOp":
        """Formal adjoint under x* = x~ and (d/dx)* = -d/dx~.

        For real variables the rules degenerate to x* = x and
        (d/dx)* = -d/dx.  The map reverses products and conjugates
        coefficients, and is involutive.
        """
        acc: Numerators = {}
        for (mults, derivs), (re, im) in self._num.items():
            sign = -1 if sum(p for _, p in derivs) % 2 else 1
            for f, key in _compose((), _conj(derivs), _conj(mults), ()):
                _add_to(acc, key, sign * f * re, -sign * f * im)
        return _make(self._den, acc)

    def conjugate(self) -> "DiffOp":
        """Formal complex conjugate: coefficients and variables conjugated."""
        return _make(self._den, {(_conj(m), _conj(d)): (re, -im)
                                 for (m, d), (re, im) in self._num.items()})

    def substitute(self, sub: "LinearSub") -> "DiffOp":
        return sub.apply(self)

    def map_sites(self, mapping: Mapping[int, int]) -> "DiffOp":
        """Relabel site indices by an injective map (identity elsewhere)."""
        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise ValueError("site map must be injective")

        def recast(powers: Powers) -> Powers:
            out = []
            for i, p in powers:
                v = _VARS[i]
                if v.site in mapping:
                    v = Var(v.family, v.slot, mapping[v.site], v.conjugated, v.real)
                out.append((v, p))
            return _ids(out)

        acc: Numerators = {}
        for (mults, derivs), (re, im) in self._num.items():
            _add_to(acc, (recast(mults), recast(derivs)), re, im)
        return _make(self._den, acc)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The text form, built from the integer form: terms sorted as in
        ``terms``, each coefficient formatted by ``format_gaussian``."""
        return self.render_head()[0]

    def render_head(self, cap: int | None = None) -> tuple[str, int]:
        """The first ``cap`` characters of ``render()`` (all of it with no
        cap) and the length of the whole text.

        Every term's text is built to count the length, but only the terms
        that reach into the first ``cap`` characters are put in order and
        joined: they come off a heap of the canonical sort keys, which are
        distinct, so they come off in ``terms`` order.
        """
        if not self._num:
            return "0"[:cap], 1
        den = self._den
        rows = []
        length = -3  # no " + " before the first term
        for (m, d), (re, im) in self._num.items():
            hm, hd = _half(m), _half(d)
            text = f"({format_gaussian(re, im, den)}){hm[2]}{hd[3]}"
            length += len(text) + 3
            rows.append((hm[0], hd[0], text))
        if cap is None or cap >= length:
            rows.sort()
            return " + ".join([row[2] for row in rows]), length
        import heapq  # deferred: its C module adds about 0.1 MB of RSS
        heapq.heapify(rows)
        head = [heapq.heappop(rows)[2]]
        built = len(head[0])
        while built < cap:
            head.append(heapq.heappop(rows)[2])
            built += len(head[-1]) + 3
        return " + ".join(head)[:cap], length

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"DiffOp({self.render()})"


def _as_op(x: OpLike) -> DiffOp:
    if isinstance(x, DiffOp):
        return x
    return DiffOp.constant(x)


def _difference(a: DiffOp, b: DiffOp) -> DiffOp:
    """``a + (-b)`` in one pass, without the negated copy of ``b``: the same
    keys in the same insertion order."""
    den = lcm(a._den, b._den)
    fa, fb = den // a._den, den // b._den
    acc: Numerators = {k: (fa * re, fa * im) for k, (re, im) in a._num.items()}
    for key, (re, im) in b._num.items():
        r, i = acc.get(key, (0, 0))
        acc[key] = (r - fb * re, i - fb * im)
    return _make(den, acc)


@functools.lru_cache(maxsize=COMPOSE_CACHE_SIZE)
def _half(powers: Powers) -> tuple[tuple, Mults, str, str]:
    """One half of a term key as it leaves the id form: its sort key, its
    ``Var`` factors ordered by ``Var.key`` (which is one-to-one), and its text
    as multiplications and as derivatives, each factor led by ``*``.

    Memoized: ids are never reassigned, so the same powers always name the
    same variables.
    """
    keyed = sorted([(_VARS[i].key, p, i) for i, p in powers])
    factors = tuple((_VARS[i], p) for _, p, i in keyed)
    labels = [(v.label(), f"^{p}" if p > 1 else "") for v, p in factors]
    return (tuple((key, p) for key, p, _ in keyed), factors,
            "".join(f"*{label}{power}" for label, power in labels),
            "".join(f"*d[{label}]{power}" for label, power in labels))


@functools.lru_cache(maxsize=COMPOSE_CACHE_SIZE)
def _compose(m1: Powers, d1: Powers, m2: Powers, d2: Powers,
             contractions_only: bool = False) -> tuple[tuple[int, Key], ...]:
    """Normal-order the product (m1 d1)*(m2 d2) into (integer factor, key) pairs.

    Only the derivatives of the left term interact with the multiplications
    of the right term; per shared variable x the rewrite is

        d^m x^p = sum_k C(m,k) * p(p-1)...(p-k+1) * x^(p-k) d^(m-k).

    The first pair is ``(1, (_merge(m1, m2), _merge(d1, d2)))``, the term
    with no contraction (every ``k = 0``); the rest carry at least one
    contraction.  ``contractions_only`` leaves the first pair out without
    building it, so its exponents are never checked; ``commutator`` passes
    it, since that term cancels between the two orders.

    Memoized: the arguments are canonical and ids are never reassigned, so a
    key always names the same product.  The result is a tuple because every
    caller shares it.  An ``ExponentOverflow`` is not cached and raises again.
    """
    m2_map = dict(m2) if d1 else {}
    shared = [(i, m, m2_map[i]) for i, m in d1 if i in m2_map]
    if not shared:
        return () if contractions_only else ((1, (_merge(m1, m2), _merge(d1, d2))),)
    d1_map = dict(d1)
    choices = [[(i, k, comb(m, k) * _falling(p, k)) for k in range(min(m, p) + 1)]
               for i, m, p in shared]
    combos = itertools.product(*choices)
    if contractions_only:
        next(combos)  # every k = 0: the no-contraction term
    out = []
    for combo in combos:
        f = 1
        m2_left = dict(m2_map)
        d1_left = dict(d1_map)
        for i, k, factor in combo:
            f *= factor
            m2_left[i] -= k
            d1_left[i] -= k
        out.append((f, (_merge(m1, _powers(m2_left)), _merge(_powers(d1_left), d2))))
    return tuple(out)


# ----------------------------------------------------------------------
# linear substitutions
# ----------------------------------------------------------------------
class LinearSub:
    """An invertible-when-needed linear change of variables.

    ``images`` maps a variable to its image, a linear polynomial ``DiffOp``
    built once from the given (coefficient, variable) pairs; the canonical
    form sums duplicate targets and drops zero coefficients.  For a complex
    variable whose conjugate is not mapped explicitly, the conjugate image
    is the formal conjugate of the variable's image, so that the map
    commutes with formal conjugation.

    Polynomials transform by plain replacement.  Operators additionally
    transform their derivative factors by the inverse-transpose of the map
    restricted to the touched variables, which is what conjugation of the
    operator by the substitution requires; that restriction must be
    invertible.
    """

    def __init__(self, images: Mapping[Var, Iterable[tuple[ScalarLike, Var]]]):
        self.images: dict[Var, DiffOp] = {
            var: DiffOp.from_terms((c, [(t, 1)], ()) for c, t in combo)
            for var, combo in images.items()}
        for var in list(self.images):  # a real variable is its own conjugate
            if var.conj() not in self.images:
                self.images[var.conj()] = self.images[var].conjugate()

    def basis(self) -> list[Var]:
        touched: set[Var] = set(self.images)
        for img in self.images.values():
            touched.update(t for _, t in _linear_terms(img))
        return sorted(touched, key=lambda v: v.key)

    def matrix(self, basis: list[Var]) -> linalg.Matrix:
        index = {v: i for i, v in enumerate(basis)}
        mat = linalg.identity(len(basis))
        for var, img in self.images.items():
            row = [ZERO] * len(basis)
            for c, target in _linear_terms(img):
                row[index[target]] = c
            mat[index[var]] = row
        return mat

    def apply(self, op: DiffOp) -> DiffOp:
        if op.is_polynomial:
            return self._apply_with(op, {})
        basis = self.basis()
        inv = linalg.invert(self.matrix(basis))
        if inv is None:
            raise SingularSubstitution("substitution is not invertible on its span")
        index = {v: i for i, v in enumerate(basis)}
        deriv_images: dict[Var, DiffOp] = {}
        for v in basis:
            i = index[v]
            deriv_images[v] = DiffOp.from_terms(
                (inv[k][i], (), [(basis[k], 1)]) for k in range(len(basis)))
        return self._apply_with(op, deriv_images)

    def _apply_with(self, op: DiffOp, deriv_images: dict[Var, DiffOp]) -> DiffOp:
        pieces = []
        for (mults, derivs), c in op._num.items():
            piece = _make(op._den, {((), ()): c})
            for i, p in mults:
                v = _VARS[i]
                img = self.images[v] if v in self.images else DiffOp.variable(v)
                for _ in range(p):
                    piece = piece * img
            for i, p in derivs:
                v = _VARS[i]
                img = deriv_images.get(v, DiffOp.derivative(v))
                for _ in range(p):
                    piece = piece * img
            pieces.append(piece)
        return DiffOp.sum(pieces)


def _linear_terms(img: DiffOp) -> list[tuple[Scalar, Var]]:
    """The (coefficient, variable) pairs of a linear polynomial."""
    return [(c, mults[0][0]) for (mults, _), c in img.term_items()]
