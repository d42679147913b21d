"""Polynomial representation spaces in two complex variables.

Basis monomials are u^a v^b.  One exact pairing, ``inner_product``, makes
the monomials orthogonal; its ``pairing`` argument names the squared norm
<u^a v^b | u^a v^b> from a table of two weights:

* ``"disk"``: 2/((a+1)(b+1)), the closed form of the product-of-unit-disks
  integral.  This reproduces the printed ket normalizers exactly, but it is
  rotation invariant only up to degree one; ``verify_pairing_invariance``
  records the residuals either way.
* ``"gaussian"``: a! b!, which is exactly invariant under every unitary
  substitution.  Normalized operator matrices use these norms, so spin
  matrices come out in their standard form.

Irrational normalizers are never stored as coefficients; spaces carry the
squared norms and only ``RepMatrix.normalized``, which returns complex
floats, takes square roots.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import linalg
from .oplib import NamedOperatorSet, cyclic_table, verify_commutator_table
from .report import RelationReport
from .scalar import ONE, ZERO, Scalar, ScalarLike, gaussian
from .weyl import DiffOp, LinearSub, Var

U = Var("u")
V = Var("v")

# Degree of a homogeneous space (dimension degree + 1).  A group element's
# matrix costs about degree^4 exact operations: one homomorphism pair takes
# about 0.6 s at degree 32 on a 2-vCPU container.
MAX_DEGREE = 32


class NonHolomorphic(ValueError):
    """A pairing argument was not a plain polynomial in u and v."""


class NotInvariantSubspace(ValueError):
    """An operator maps the space outside the span of its basis."""


class BadDeterminant(ValueError):
    """A group element must have determinant one."""


Monomial = tuple[int, int]

_PAIRING_WEIGHTS: dict[str, Callable[[int, int], Fraction]] = {
    "disk": lambda a, b: Fraction(2, (a + 1) * (b + 1)),
    "gaussian": lambda a, b: Fraction(math.factorial(a) * math.factorial(b)),
}


def _pairing_weight(pairing: str) -> Callable[[int, int], Fraction]:
    """Squared norm of u^a v^b under the named pairing, as a function of (a, b)."""
    try:
        return _PAIRING_WEIGHTS[pairing]
    except KeyError:
        raise ValueError(f"unknown pairing {pairing!r}; "
                         f"expected one of {sorted(_PAIRING_WEIGHTS)}") from None


def monomial_poly(mono: Monomial) -> DiffOp:
    a, b = mono
    return DiffOp.term(ONE, [(U, a), (V, b)], ())


def _poly_monomial_coeffs(poly: DiffOp) -> dict[Monomial, Scalar]:
    """Exponent map of a polynomial in u, v; NonHolomorphic otherwise."""
    out: dict[Monomial, Scalar] = {}
    for (mults, derivs), coeff in poly.term_items():
        if derivs:
            raise NonHolomorphic("argument carries derivatives")
        a = b = 0
        for var, power in mults:
            if var == U:
                a = power
            elif var == V:
                b = power
            else:
                raise NonHolomorphic(f"foreign variable {var}")
        out[(a, b)] = out.get((a, b), ZERO) + coeff
    return out


@dataclass(frozen=True)
class RepSpace:
    """A finite span of monomials u^a v^b with its exact squared norms."""

    monomials: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if len(set(self.monomials)) != len(self.monomials):
            raise ValueError("duplicate basis monomials")

    @staticmethod
    def homogeneous(degree: int) -> "RepSpace":
        """The degree-(d) space u^d, u^(d-1) v, ..., v^d of dimension d+1."""
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be between 0 and {MAX_DEGREE}, got {degree}")
        return RepSpace(tuple((degree - k, k) for k in range(degree + 1)))

    @staticmethod
    def direct_sum(spaces: Sequence["RepSpace"]) -> "RepSpace":
        monos: list[Monomial] = []
        for sp in spaces:
            monos.extend(sp.monomials)
        return RepSpace(tuple(monos))

    @property
    def dim(self) -> int:
        return len(self.monomials)

    @property
    def norms2(self) -> list[Fraction]:
        """Disk-product squared norms 2/((a+1)(b+1))."""
        return [_PAIRING_WEIGHTS["disk"](a, b) for a, b in self.monomials]

    @property
    def invariant_norms2(self) -> list[Fraction]:
        """Gaussian-weight squared norms a! b! (exactly unitary-invariant)."""
        return [_PAIRING_WEIGHTS["gaussian"](a, b) for a, b in self.monomials]

    def basis_polys(self) -> list[DiffOp]:
        return [monomial_poly(m) for m in self.monomials]


# ----------------------------------------------------------------------
# pairings
# ----------------------------------------------------------------------
def inner_product(f: DiffOp, g: DiffOp, pairing: str = "disk") -> Scalar:
    """Pairing conjugate linear in the first argument; monomials are
    orthogonal with <u^a v^b|u^a v^b> given by the named weight."""
    weight = _pairing_weight(pairing)
    cf = _poly_monomial_coeffs(f)
    cg = _poly_monomial_coeffs(g)
    acc = ZERO
    for mono, c in cf.items():
        if mono in cg:
            acc = acc + c.conjugate() * cg[mono] * weight(*mono)
    return acc


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------
@dataclass
class RepMatrix:
    """Exact matrix of an operator or group element on a RepSpace basis."""

    dim: int
    entries: list[list[Scalar]]

    def __matmul__(self, other: "RepMatrix") -> "RepMatrix":
        return RepMatrix(self.dim, linalg.mat_mul(self.entries, other.entries))

    def normalized(self, space: RepSpace) -> list[list[complex]]:
        """Entries on the basis of ``space`` rescaled to unit invariant norm.

        The rescaling takes square roots, so the entries are Python complex
        numbers; structural identities should be checked on the exact matrix.
        """
        norms = space.invariant_norms2
        return [[e.to_complex() * math.sqrt(norms[i] / norms[j])
                 for j, e in enumerate(row)] for i, row in enumerate(self.entries)]


def _expand_on_basis(poly: DiffOp, space: RepSpace) -> list[Scalar]:
    index = {m: i for i, m in enumerate(space.monomials)}
    column = [ZERO] * space.dim
    for mono, c in _poly_monomial_coeffs(poly).items():
        if mono not in index:
            raise NotInvariantSubspace(
                f"image leaves the span: stray monomial u^{mono[0]} v^{mono[1]}")
        column[index[mono]] = c
    return column


def _matrix_of_images(images: Iterable[DiffOp], space: RepSpace) -> RepMatrix:
    """Matrix whose column j expands the image of basis monomial j."""
    columns = [_expand_on_basis(p, space) for p in images]
    return RepMatrix(space.dim, [list(row) for row in zip(*columns)])


def matrix_rep(op: DiffOp, space: RepSpace) -> RepMatrix:
    """Exact Gaussian-rational matrix of a differential operator on the
    raw monomial basis of the space."""
    return _matrix_of_images((op.apply(p) for p in space.basis_polys()), space)


def substitution_of_matrix(a: Sequence[Sequence[ScalarLike]]) -> LinearSub:
    """Change of variables by the transpose of a 2x2 matrix.

    With this convention composing two group elements multiplies their
    representation matrices in the same order, rep(B A) = rep(B) rep(A).
    """
    return LinearSub({
        U: [(a[0][0], U), (a[1][0], V)],
        V: [(a[0][1], U), (a[1][1], V)],
    })


def rep_of_group_element(a: Sequence[Sequence[ScalarLike]],
                         space: RepSpace) -> RepMatrix:
    """Exact matrix of the substitution action of a determinant-one element."""
    m = [[Scalar.of(x) for x in row] for row in a]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det != ONE:
        raise BadDeterminant(f"determinant is {det}, not 1")
    sub = substitution_of_matrix(m)
    return _matrix_of_images((p.substitute(sub) for p in space.basis_polys()), space)


# ----------------------------------------------------------------------
# exact unitary sampling
# ----------------------------------------------------------------------
def su2_from_quadruple(p: int, q: int, r: int, s: int) -> list[list[Scalar]]:
    """Exact special-unitary 2x2 element from an integer quadruple.

    Squaring the quaternion p + qi + rj + sk and dividing by its norm gives
    a rational point (a, b, c, d) on the unit 3-sphere; the element is
    [[a+bi, c+di], [-c+di, a-bi]].
    """
    n = p * p + q * q + r * r + s * s
    if n == 0:
        raise ValueError("zero quadruple")
    a, b, c, d = p * p - q * q - r * r - s * s, 2 * p * q, 2 * p * r, 2 * p * s
    return [[gaussian(a, b, n), gaussian(c, d, n)],
            [gaussian(-c, d, n), gaussian(a, -b, n)]]


def random_su2(rng: random.Random) -> list[list[Scalar]]:
    while True:
        quad = tuple(rng.randint(-6, 6) for _ in range(4))
        if any(quad):
            return su2_from_quadruple(*quad)


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------
def _real_diagonal(mat: RepMatrix, name: str) -> list[Fraction]:
    """Diagonal of an exact matrix that must be diagonal with real entries."""
    values: list[Fraction] = []
    for i, row in enumerate(mat.entries):
        if any(not e.is_zero for j, e in enumerate(row) if j != i):
            raise NotInvariantSubspace(f"{name} is not diagonal on this basis")
        if row[i].im != 0:
            raise ValueError(f"{name} eigenvalue should be real")
        values.append(row[i].re)
    return values


def spin_spectrum(sz: RepMatrix) -> list[Fraction]:
    """Exact z-spin eigenvalue of each basis monomial, read from the matrix
    of the z-spin generator on that basis."""
    return _real_diagonal(sz, "z-spin generator")


def casimir_spectrum(gens: NamedOperatorSet, space: RepSpace,
                     ) -> tuple[RepMatrix, list[tuple[Fraction, list[int]]]]:
    """Exact matrix of the quadratic invariant of the first three generators
    and its eigenvalue blocks.

    The generator triple must satisfy the cyclic commutation table; the
    invariant is then diagonal on monomial bases, constant on each
    homogeneous block with value s(s+1) for s = degree/2.
    """
    labels = gens.labels()[:3]
    table = cyclic_table(tuple(labels))
    checks = verify_commutator_table(gens, table)
    if not all(r.passed for r in checks):
        raise ValueError("generators do not close under the cyclic table")
    mat = matrix_rep(DiffOp.sum(gens[lbl] * gens[lbl] for lbl in labels), space)
    blocks: dict[Fraction, list[int]] = {}
    for i, lam in enumerate(_real_diagonal(mat, "invariant")):
        blocks.setdefault(lam, []).append(i)
    ordered = sorted(blocks.items(), key=lambda kv: kv[0])
    return mat, ordered


# ----------------------------------------------------------------------
# pairing invariance reports
# ----------------------------------------------------------------------
def verify_pairing_invariance(space: RepSpace,
                              elements: Iterable[tuple[str, Sequence[Sequence[ScalarLike]]]],
                              pairing: str = "gaussian") -> list[RelationReport]:
    """Report <Uf|Ug> = <f|g> on all basis pairs for each group element.

    The gaussian pairing passes exactly for unitary elements; the disk
    pairing holds only on degree <= 1 spaces, and the reports localize the
    failures instead of asserting.
    """
    _pairing_weight(pairing)  # reject an unknown name even with no elements
    basis = space.basis_polys()
    reports = []
    for name, a in elements:
        sub = substitution_of_matrix(a)
        images = [p.substitute(sub) for p in basis]
        worst = ZERO
        ok = True
        for i in range(space.dim):
            for j in range(space.dim):
                before = inner_product(basis[i], basis[j], pairing)
                after = inner_product(images[i], images[j], pairing)
                diff = after - before
                if not diff.is_zero:
                    ok = False
                    worst = diff
        reports.append(RelationReport(
            suite=f"pairing-invariance:{pairing}",
            relation=f"gram({name}) = gram(identity) on dim {space.dim}",
            expected="0",
            actual=str(worst),
            residual=str(worst),
            passed=ok,
        ))
    return reports
