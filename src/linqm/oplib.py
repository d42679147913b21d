"""Factories for the named operator families and their verification suites.

Operator sets built here (``OPERATOR_SETS`` names each one, with how it is
built from the site count and the commutator table it closes under):

* ``xyz``          rotation generators in three real variables
* ``su2``          spin generators in two complex variables (X + X* form)
* ``laplacian``    the two-variable complex Laplacian d/du d/du~ + d/dv d/dv~
* ``oscillator``   the pairing operator in slotted variables u[b,i], v[b,i]
* ``lorentz``      boost/rotation generators J1..J3, K1..K3 over both slots
* ``translations`` the slot-1 times d(slot-2) generators P0..P3 in their
  printed form, where P2 equals i*P1; that cannot be hermitian, so a
  separately labeled ``translations-reconstructed`` set replaces P2 by its
  hermitian four-vector partner.  Suites report residuals either way.
* ``sun``          internal-symmetry generators built from traceless
  hermitian matrices, acting on slot-1 variables by the matrix and on
  slot-2 variables by the conjugate representation.

Suites never abort on a failing relation: a false printed formula is
localized by its residual, not hidden by an assertion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import linalg
from .report import RelationReport, relation_report
from .scalar import I, ONE, ZERO, Scalar, ScalarLike, gaussian
from .weyl import DiffOp, LinearSub, Var

if TYPE_CHECKING:
    import numpy as np


class BadTau(ValueError):
    """An internal-symmetry matrix is not traceless hermitian."""


class UnknownLabel(KeyError):
    """A relation referenced an operator label not present in the set."""


class DegenerateEta(ValueError):
    """The antisymmetric constants make the denominator polynomial vanish."""


class NotADerivation(ValueError):
    """A first-order generator was required."""


class NonTerminatingFlow(RuntimeError):
    """The exponential series did not terminate at low order."""


class NotHermitian(ValueError):
    """A numeric matrix failed its hermiticity precondition."""


# ----------------------------------------------------------------------
# variables
# ----------------------------------------------------------------------
def uvar(slot: int, site: int, conj: bool = False) -> Var:
    return Var("u", slot, site, conj)


def vvar(slot: int, site: int, conj: bool = False) -> Var:
    return Var("v", slot, site, conj)


U = Var("u")
V = Var("v")
X = Var("x", real=True)
Y = Var("y", real=True)
Z = Var("z", real=True)


def _mono(coeff: ScalarLike, var: Var, dvar: Var) -> DiffOp:
    return DiffOp.term(coeff, [(var, 1)], [(dvar, 1)])


# ----------------------------------------------------------------------
# named sets
# ----------------------------------------------------------------------
@dataclass
class NamedOperatorSet:
    """A labeled family of operators sharing one site count."""

    name: str
    ops: dict[str, DiffOp]
    sites: int = 1

    def __getitem__(self, label: str) -> DiffOp:
        try:
            return self.ops[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def labels(self) -> list[str]:
        return list(self.ops)

    def perturbed(self, label: str, term_index: int, factor: ScalarLike) -> "NamedOperatorSet":
        """Copy of the set with one coefficient of one operator rescaled."""
        op = self[label]
        terms = op.terms()
        if not 0 <= term_index < len(terms):
            raise IndexError(f"{label} has {len(terms)} terms")
        coeff, mults, derivs = terms[term_index]
        delta = DiffOp.term(coeff * (Scalar.of(factor) - ONE), mults, derivs)
        ops = dict(self.ops)
        ops[label] = op + delta
        return NamedOperatorSet(f"{self.name}-perturbed", ops, self.sites)


def rotation_generators() -> NamedOperatorSet:
    """First-order rotation generators in the real variables x, y, z.

    Oriented the standard way, L = -i (r x grad), so the cyclic table
    [Lx, Ly] = i Lz closes with +i.  The opposite orientation (a global
    sign flip, produced by linearizing the clockwise rotation) closes the
    same table with -i; the suites can verify either statement.
    """
    lx = _mono(I, Z, Y) - _mono(I, Y, Z)
    ly = _mono(I, X, Z) - _mono(I, Z, X)
    lz = _mono(I, Y, X) - _mono(I, X, Y)
    return NamedOperatorSet("xyz", {"Lx": lx, "Ly": ly, "Lz": lz})


def spin_generators() -> NamedOperatorSet:
    """Spin generators in u, v: each is X + adjoint(X), hermitian by construction."""
    half = gaussian(1, 0, 2)
    ihalf = I * half
    sx = _mono(half, U, V) + _mono(half, V, U)
    sy = _mono(ihalf, V, U) - _mono(ihalf, U, V)
    sz = _mono(half, U, U) - _mono(half, V, V)
    ops = {"Sx": sx + sx.adjoint(), "Sy": sy + sy.adjoint(), "Sz": sz + sz.adjoint()}
    return NamedOperatorSet("su2", ops)


def complex_laplacian() -> NamedOperatorSet:
    """The operator d/du d/du~ + d/dv d/dv~ on two complex variables."""
    op = (DiffOp.term(ONE, (), [(U, 1), (U.conj(), 1)])
          + DiffOp.term(ONE, (), [(V, 1), (V.conj(), 1)]))
    return NamedOperatorSet("laplacian", {"O": op})


def oscillator(n: int = 1) -> NamedOperatorSet:
    """Pairing operator: minus crossed slot-1/slot-2 derivative pairs plus
    the matching multiplication pairs, summed over sites and conjugates."""
    terms = []
    for i in range(1, n + 1):
        u1, v1, u2, v2 = uvar(1, i), vvar(1, i), uvar(2, i), vvar(2, i)
        for a, b in ((u1, v2), (v1, u2)):
            sign = ONE if a.family == "u" else -ONE
            terms += [DiffOp.term(-sign, (), [(a, 1), (b, 1)]),
                      DiffOp.term(-sign, (), [(a.conj(), 1), (b.conj(), 1)]),
                      DiffOp.term(sign, [(a, 1), (b, 1)], ()),
                      DiffOp.term(sign, [(a.conj(), 1), (b.conj(), 1)], ())]
    return NamedOperatorSet("oscillator", {"O": DiffOp.sum(terms)}, sites=n)


def _doublet_sum(n: int, build: Callable[[Var, Var, Var, Var], DiffOp]) -> DiffOp:
    """Sum build(u, v, u~, v~) over both slots and all sites."""
    pairs = [(uvar(b, i), vvar(b, i)) for b in (1, 2) for i in range(1, n + 1)]
    return DiffOp.sum(build(u, v, u.conj(), v.conj()) for u, v in pairs)


def lorentz_generators(n: int = 1) -> NamedOperatorSet:
    """Rotation (J) and boost (K) generators summed over both slots."""
    h = gaussian(1, 0, 2)
    ih = I * h

    j1 = _doublet_sum(n, lambda u, v, uc, vc:
                      _mono(h, u, v) + _mono(h, v, u) - _mono(h, uc, vc) - _mono(h, vc, uc))
    j2 = _doublet_sum(n, lambda u, v, uc, vc:
                      -_mono(ih, u, v) + _mono(ih, v, u) - _mono(ih, uc, vc) + _mono(ih, vc, uc))
    j3 = _doublet_sum(n, lambda u, v, uc, vc:
                      _mono(h, u, u) - _mono(h, v, v) - _mono(h, uc, uc) + _mono(h, vc, vc))
    k1 = _doublet_sum(n, lambda u, v, uc, vc:
                      _mono(ih, u, v) + _mono(ih, v, u) + _mono(ih, uc, vc) + _mono(ih, vc, uc))
    k2 = _doublet_sum(n, lambda u, v, uc, vc:
                      _mono(h, u, v) - _mono(h, v, u) - _mono(h, uc, vc) + _mono(h, vc, uc))
    k3 = _doublet_sum(n, lambda u, v, uc, vc:
                      _mono(ih, u, u) - _mono(ih, v, v) + _mono(ih, uc, uc) - _mono(ih, vc, vc))
    return NamedOperatorSet(
        "lorentz", {"J1": j1, "J2": j2, "J3": j3, "K1": k1, "K2": k2, "K3": k3}, sites=n)


def translation_generators(n: int = 1, reconstructed: bool = False) -> NamedOperatorSet:
    """Slot-1 times d(slot-2) generators P0..P3.

    As printed, P2 = i*P1, which is anti-hermitian and linearly dependent;
    the reconstructed variant instead uses the hermitian partner that
    completes the four-vector pattern (matrices eps*sigma_mu acting on the
    conjugated slot-1 doublet).  The reconstructed set is labeled as such
    and is not presented as the printed one.
    """
    sites = [(uvar(1, i), vvar(1, i), uvar(2, i), vvar(2, i)) for i in range(1, n + 1)]
    p0 = DiffOp.sum(t for u1, v1, u2, v2 in sites for t in (
        _mono(ONE, u1, v2.conj()), _mono(-ONE, v1, u2.conj()),
        _mono(-ONE, u1.conj(), v2), _mono(ONE, v1.conj(), u2)))
    p1 = DiffOp.sum(t for u1, v1, u2, v2 in sites for t in (
        _mono(-ONE, u1, u2.conj()), _mono(ONE, v1, v2.conj()),
        _mono(ONE, u1.conj(), u2), _mono(-ONE, v1.conj(), v2)))
    p3 = DiffOp.sum(t for u1, v1, u2, v2 in sites for t in (
        _mono(ONE, u1, v2.conj()), _mono(ONE, v1, u2.conj()),
        _mono(-ONE, u1.conj(), v2), _mono(-ONE, v1.conj(), u2)))
    p2r = DiffOp.sum(t for u1, v1, u2, v2 in sites for t in (
        _mono(I, u1, u2.conj()), _mono(I, v1, v2.conj()),
        _mono(I, u1.conj(), u2), _mono(I, v1.conj(), v2)))
    if reconstructed:
        ops = {"P0": p0, "P1": p1, "P2": p2r, "P3": p3}
        return NamedOperatorSet("translations-reconstructed", ops, sites=n)
    ops = {"P0": p0, "P1": p1, "P2": p1.scale(I), "P3": p3}
    return NamedOperatorSet("translations", ops, sites=n)


def pauli_matrices() -> list[list[list[Scalar]]]:
    return [
        [[ZERO, ONE], [ONE, ZERO]],
        [[ZERO, -I], [I, ZERO]],
        [[ONE, ZERO], [ZERO, -ONE]],
    ]


def internal_symmetry_generators(n: int, taus: Sequence[Sequence[Sequence[ScalarLike]]],
                                 sites: int | None = None) -> NamedOperatorSet:
    """Generators T^a from traceless hermitian n x n matrices.

    Slot-1 unbarred variables carry the defining representation, slot-2
    unbarred variables the conjugate one; barred variables follow by
    conjugation, which makes each T^a hermitian.
    """
    sites = n if sites is None else sites
    ops: dict[str, DiffOp] = {}
    for a, tau_raw in enumerate(taus, start=1):
        tau = [[Scalar.of(x) for x in row] for row in tau_raw]
        if len(tau) != n or any(len(row) != n for row in tau):
            raise BadTau(f"tau^{a} is not {n}x{n}")
        trace = ZERO
        for j in range(n):
            trace = trace + tau[j][j]
            for k in range(n):
                if tau[j][k] != tau[k][j].conjugate():
                    raise BadTau(f"tau^{a} is not hermitian")
        if not trace.is_zero:
            raise BadTau(f"tau^{a} is not traceless")
        terms = []
        for j in range(n):
            for k in range(n):
                c = tau[j][k]
                if c.is_zero:
                    continue
                for fam in (uvar, vvar):
                    terms += [_mono(c, fam(1, j + 1), fam(1, k + 1)),
                              _mono(-c.conjugate(), fam(1, j + 1, True), fam(1, k + 1, True)),
                              _mono(-tau[k][j], fam(2, j + 1), fam(2, k + 1)),
                              _mono(tau[k][j].conjugate(), fam(2, j + 1, True), fam(2, k + 1, True))]
        ops[f"T{a}"] = DiffOp.sum(terms)
    return NamedOperatorSet("sun", ops, sites=max(sites, n))


def poincare_set(n: int = 1, reconstructed: bool = False) -> NamedOperatorSet:
    """Merged J/K/P set for the full commutation table."""
    jk = lorentz_generators(n)
    p = translation_generators(n, reconstructed=reconstructed)
    name = "poincare-reconstructed" if reconstructed else "poincare"
    return NamedOperatorSet(name, {**jk.ops, **p.ops}, sites=n)


def _pauli_sun(n: int) -> NamedOperatorSet:
    """The su(2) instance of the internal-symmetry generators: tau = sigma/2."""
    taus = [[[x * gaussian(1, 0, 2) for x in row] for row in m]
            for m in pauli_matrices()]
    return internal_symmetry_generators(2, taus, sites=n)


# ----------------------------------------------------------------------
# commutator tables
# ----------------------------------------------------------------------
# One table entry: (label_a, label_b, [(coeff, label), ...]); the expected
# right-hand side is the linear combination of set members, empty for zero.
TableEntry = tuple[str, str, list[tuple[Scalar, str]]]

_EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
        (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}


def _eps_combo(i: int, j: int, prefix: str, coeff: Scalar) -> list[tuple[Scalar, str]]:
    out = []
    for k in (1, 2, 3):
        sign = _EPS.get((i, j, k), 0)
        if sign:
            out.append((coeff * sign, f"{prefix}{k}"))
    return out


def cyclic_table(labels: tuple[str, str, str]) -> list[TableEntry]:
    """[A,B] = i C and cyclic, the angular-momentum pattern."""
    a, b, c = labels
    return [(a, b, [(I, c)]), (b, c, [(I, a)]), (c, a, [(I, b)])]


ROTATION_TABLE = cyclic_table(("Lx", "Ly", "Lz"))
SPIN_TABLE = cyclic_table(("Sx", "Sy", "Sz"))


def lorentz_table() -> list[TableEntry]:
    """All printed J/K relations: [J,J]=i eps J, [J,K]=i eps K, [K,K]=-i eps J."""
    entries: list[TableEntry] = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i < j:
                entries.append((f"J{i}", f"J{j}", _eps_combo(i, j, "J", I)))
                entries.append((f"K{i}", f"K{j}", _eps_combo(i, j, "J", -I)))
            entries.append((f"J{i}", f"K{j}", _eps_combo(i, j, "K", I)))
    return entries


def translation_table() -> list[TableEntry]:
    """[P_mu, P_nu] = 0 for all pairs."""
    labels = ["P0", "P1", "P2", "P3"]
    return [(labels[i], labels[j], [])
            for i in range(4) for j in range(i + 1, 4)]


def poincare_table() -> list[TableEntry]:
    """The full printed table over J, K, P."""
    entries = lorentz_table()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            entries.append((f"J{i}", f"P{j}", _eps_combo(i, j, "P", I)))
            combo = [(I, "P0")] if i == j else []
            entries.append((f"K{i}", f"P{j}", combo))
        entries.append((f"J{i}", "P0", []))
        entries.append((f"K{i}", "P0", [(I, f"P{i}")]))
    entries.extend(translation_table())
    return entries


def sun_table(n_gens: int, structure: Callable[[int, int, int], Scalar]) -> list[TableEntry]:
    entries: list[TableEntry] = []
    for a in range(1, n_gens + 1):
        for b in range(a + 1, n_gens + 1):
            combo = []
            for c in range(1, n_gens + 1):
                f = structure(a, b, c)
                if not f.is_zero:
                    combo.append((I * f, f"T{c}"))
            entries.append((f"T{a}", f"T{b}", combo))
    return entries


def pauli_half_structure(a: int, b: int, c: int) -> Scalar:
    return Scalar.of(_EPS.get((a, b, c), 0))


@dataclass(frozen=True)
class OperatorSetKind:
    """How one named set is built from the site count, and the commutator
    table it closes under (None for a lone operator with no table)."""

    build: Callable[[int], NamedOperatorSet]
    table: Callable[[], list[TableEntry]] | None = None


# Every named set, in the order the command line lists them.  Entries call
# the generator functions through their module names, so a caller that
# rebinds a module attribute sees the nested calls.
OPERATOR_SETS: dict[str, OperatorSetKind] = {
    "xyz": OperatorSetKind(lambda n: rotation_generators(), lambda: ROTATION_TABLE),
    "su2": OperatorSetKind(lambda n: spin_generators(), lambda: SPIN_TABLE),
    "lorentz": OperatorSetKind(lambda n: lorentz_generators(n), lorentz_table),
    "translations": OperatorSetKind(lambda n: translation_generators(n),
                                    translation_table),
    "translations-reconstructed": OperatorSetKind(
        lambda n: translation_generators(n, reconstructed=True), translation_table),
    "poincare": OperatorSetKind(lambda n: poincare_set(n), poincare_table),
    "poincare-reconstructed": OperatorSetKind(
        lambda n: poincare_set(n, reconstructed=True), poincare_table),
    "poincare-mutated": OperatorSetKind(
        lambda n: poincare_set(n).perturbed("J3", 0, 2), poincare_table),
    "sun": OperatorSetKind(lambda n: _pauli_sun(n),
                           lambda: sun_table(3, pauli_half_structure)),
    "laplacian": OperatorSetKind(lambda n: complex_laplacian()),
    "oscillator": OperatorSetKind(lambda n: oscillator(n)),
}
LIE_SETS = [name for name, kind in OPERATOR_SETS.items() if kind.table]
TARGETS = [name for name, kind in OPERATOR_SETS.items() if not kind.table]
# The sets made of P0..P3 alone, which translation_flow_check reads.
FLOW_SETS = [name for name, kind in OPERATOR_SETS.items()
             if kind.table is translation_table]


def build_operators(which: str, n: int = 1) -> NamedOperatorSet:
    """Single entry point used by the command line; see module docstring."""
    if which not in OPERATOR_SETS:
        raise ValueError(f"unknown operator set: {which}")
    return OPERATOR_SETS[which].build(n)


def verify_commutator_table(opset: NamedOperatorSet,
                            table: Iterable[TableEntry],
                            suite: str | None = None) -> list[RelationReport]:
    """Exact residual report for every relation [A,B] = sum c_k C_k."""
    suite = suite or f"lie:{opset.name}"
    reports = []
    for label_a, label_b, combo in table:
        rhs = " + ".join(f"({c})*{lbl}" for c, lbl in combo) or "0"
        reports.append(relation_report(
            suite, f"[{label_a},{label_b}] = {rhs}",
            actual=opset[label_a].commutator(opset[label_b]),
            expected=DiffOp.sum(opset[lbl].scale(c) for c, lbl in combo)))
    return reports


def verify_hermiticity(opset: NamedOperatorSet) -> list[RelationReport]:
    """Report adjoint(G) = G for every operator in the set."""
    return [relation_report(f"hermiticity:{opset.name}", f"adjoint({label}) = {label}",
                            expected=op, actual=op.adjoint())
            for label, op in opset.ops.items()]


def verify_invariance(target: DiffOp, gens: NamedOperatorSet,
                      target_name: str = "target") -> list[RelationReport]:
    """Report [G, target] = 0 for every generator in the set."""
    return [relation_report(f"invariance:{gens.name}", f"[{label},{target_name}] = 0",
                            expected=DiffOp.zero(), actual=g.commutator(target))
            for label, g in gens.ops.items()]


def verify_substitution_invariance(target: DiffOp,
                                   subs: Iterable[tuple[str, LinearSub]],
                                   target_name: str = "target") -> list[RelationReport]:
    """Report substitute(target, A) = target for supplied exact group elements."""
    return [relation_report("invariance:finite",
                            f"{target_name} o {name} = {target_name}",
                            expected=target, actual=target.substitute(sub))
            for name, sub in subs]


# ----------------------------------------------------------------------
# space-time map
# ----------------------------------------------------------------------
@dataclass
class RationalExpr:
    """Quotient of polynomials; equality by exact cross-multiplication."""

    num: DiffOp
    den: DiffOp

    def __post_init__(self) -> None:
        if self.den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        if not (self.num.is_polynomial and self.den.is_polynomial):
            raise ValueError("numerator and denominator must be polynomials")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)


@dataclass
class SpacetimeMap:
    """Four coordinate expressions x0..x3 = N_mu / Z over the slotted variables."""

    eta: list[list[Scalar]]
    n: int
    reading: str
    numerators: list[DiffOp]
    z: DiffOp

    def expr(self, mu: int) -> RationalExpr:
        return RationalExpr(self.numerators[mu], self.z)


def _check_antisymmetric(eta: list[list[Scalar]]) -> None:
    n = len(eta)
    for row in eta:
        if len(row) != n:
            raise ValueError("eta must be square")
    for j in range(n):
        for k in range(n):
            if eta[j][k] != -eta[k][j]:
                raise ValueError("eta must be exactly antisymmetric")


def build_spacetime_map(eta_raw: Sequence[Sequence[ScalarLike]],
                        reading: str = "site-slot") -> SpacetimeMap:
    """Coordinates as rational expressions in the slotted variables.

    ``reading`` resolves the ambiguous index placement in the printed
    formulas: "site-slot" reads a doubly indexed variable as (site, slot),
    pairing slot-2 factors at site j with conjugated slot-1 factors at
    site k; "slot-site" reads it as (slot, site), which only makes sense
    when eta is 2x2, and pairs slot-j factors at site 2 with conjugated
    slot-k factors at site 1.  Reports name the reading used.
    """
    eta = [[Scalar.of(x) for x in row] for row in eta_raw]
    _check_antisymmetric(eta)
    n = len(eta)
    if reading not in ("site-slot", "slot-site"):
        raise ValueError(f"unknown reading: {reading}")
    if reading == "slot-site" and n != 2:
        raise ValueError("slot-site reading requires a 2x2 eta")

    if reading == "site-slot":
        def factor2(fam: str, j: int) -> Var:
            return Var(fam, 2, j)

        def factor1c(fam: str, k: int) -> Var:
            return Var(fam, 1, k, True)
    else:
        def factor2(fam: str, j: int) -> Var:
            return Var(fam, j, 2)

        def factor1c(fam: str, k: int) -> Var:
            return Var(fam, k, 1, True)

    def pair_sum(terms: list[tuple[ScalarLike, str, str]]) -> DiffOp:
        return DiffOp.sum(
            DiffOp.term(eta[j - 1][k - 1] * Scalar.of(coeff),
                        [(factor2(fam2, j), 1), (factor1c(fam1, k), 1)], ())
            for j in range(1, n + 1) for k in range(1, n + 1)
            for coeff, fam2, fam1 in terms)

    w0 = pair_sum([(1, "u", "u"), (1, "v", "v")])
    w3 = pair_sum([(1, "u", "u"), (-1, "v", "v")])
    w1 = pair_sum([(1, "u", "v"), (1, "v", "u")])
    w2 = pair_sum([(-1, "u", "v"), (1, "v", "u")])

    n0 = w0 + w0.conjugate()
    n3 = w3 + w3.conjugate()
    n1 = w1 + w1.conjugate()
    n2 = (w2 - w2.conjugate()).scale(I)

    wz = DiffOp.sum(
        DiffOp.term(sign * eta[j - 1][k - 1].conjugate(),
                    [(Var(fj, 1, j), 1), (Var(fk, 1, k), 1)], ())
        for j in range(1, n + 1) for k in range(1, n + 1)
        for sign, fj, fk in ((1, "u", "v"), (-1, "v", "u")))
    z = (wz - wz.conjugate()).scale(-I)

    if z.is_zero:
        raise DegenerateEta("denominator polynomial vanishes for this eta")
    return SpacetimeMap(eta, n, reading, [n0, n1, n2, n3], z)


def random_eta(n: int, seed: int) -> list[list[Scalar]]:
    """Random exact antisymmetric constants with small rational entries."""
    rng = random.Random(seed)
    eta = [[ZERO for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            num = rng.randint(-5, 5)
            den = rng.randint(1, 5)
            val = gaussian(num, rng.randint(-2, 2), den)
            eta[j][k] = val
            eta[k][j] = -val
    return eta


def verify_spacetime_relations(pset: NamedOperatorSet,
                               st: SpacetimeMap) -> list[RelationReport]:
    """Check [P_mu, x_nu] = required constant via the quotient rule.

    Each generator acts as a derivation; the relation [P, N/Z] = c becomes
    the exact polynomial identity P(N) Z - N P(Z) = c Z^2, tested by
    cross-multiplication with no rational normal forms.
    """
    for label in ("P0", "P1", "P2", "P3"):
        if not pset[label].is_derivation():
            raise NotADerivation(f"{label} is not first order")
    z2 = st.z * st.z
    reports = []
    for mu in range(4):
        p = pset[f"P{mu}"]
        pz = p.apply(st.z)
        for nu in range(4):
            if mu == 0:
                c = I if nu == 0 else ZERO
            elif nu == 0:
                c = ZERO
            else:
                c = -I if mu == nu else ZERO
            num = st.numerators[nu]
            reports.append(relation_report(
                f"spacetime:{st.reading}", f"[P{mu},x{nu}] = {c}",
                expected=z2.scale(c), actual=p.apply(num) * st.z - num * pz,
                expected_text=f"({c})*Z^2"))
    return reports


# ----------------------------------------------------------------------
# translation flow
# ----------------------------------------------------------------------
def _flow_series(generator: DiffOp, target: Var) -> tuple[DiffOp, int]:
    """exp(generator) applied to a variable and the order of its last
    nonzero term; NonTerminatingFlow when the series runs past order 3."""
    total = term = DiffOp.variable(target)
    factorial = 1
    for order in range(1, 5):
        term = generator.apply(term)
        if term.is_zero:
            return total, order - 1
        factorial *= order
        total = total + term.scale(gaussian(1, 0, factorial))
    raise NonTerminatingFlow(f"series on {target} still alive past order 3")


def flow_termination_order(generator: DiffOp, target: Var) -> int:
    return _flow_series(generator, target)[1]


def printed_translation_images(x: Sequence[Scalar], site: int = 1) -> dict[Var, DiffOp]:
    """The printed affine images of u/v in both slots under exp(i P.x)."""
    x0, x1, x2, x3 = x
    u1, v1 = uvar(1, site), vvar(1, site)
    u2, v2 = uvar(2, site), vvar(2, site)
    u1c, v1c = u1.conj(), v1.conj()
    images = {
        u1: DiffOp.variable(u1),
        v1: DiffOp.variable(v1),
        u2: (DiffOp.variable(u2)
             + DiffOp.variable(v1c).scale(I * x0)
             + DiffOp.variable(u1c).scale(I * x1)
             - DiffOp.variable(u1c).scale(x2)
             - DiffOp.variable(v1c).scale(I * x3)),
        v2: (DiffOp.variable(v2)
             - DiffOp.variable(u1c).scale(I * x0)
             - DiffOp.variable(v1c).scale(I * x1)
             + DiffOp.variable(v1c).scale(x2)
             - DiffOp.variable(u1c).scale(I * x3)),
    }
    return images


def translation_flow_check(pset: NamedOperatorSet,
                           x: Sequence[ScalarLike]) -> list[RelationReport]:
    """Compare exp(i P.x) on each doublet variable with the printed images.

    The series must terminate by order 3 (it terminates at order <= 2 for
    the slot-1 times d(slot-2) generators); otherwise NonTerminatingFlow.
    """
    xs = [Scalar.of(v) for v in x]
    gen = DiffOp.sum(pset[f"P{mu}"].scale(I * xs[mu]) for mu in range(4))
    reports = []
    for site in range(1, pset.sites + 1):
        expected = printed_translation_images(xs, site)
        for target, rhs in expected.items():
            actual, order = _flow_series(gen, target)
            reports.append(relation_report(
                f"translation-flow:{pset.name}",
                f"exp(iP.x) {target.label()} (terminates at order {order})",
                expected=rhs, actual=actual))
    return reports


# ----------------------------------------------------------------------
# scaling generator search
# ----------------------------------------------------------------------
def search_scaling_generator(pset: NamedOperatorSet,
                             candidates: Sequence[DiffOp],
                             lam: ScalarLike,
                             ) -> tuple[list[Scalar], DiffOp] | None:
    """Exact linear solve for G = sum c_r C_r with [G, P_mu] = i lam P_mu
    and [G, O] = 0 for the pairing operator O of the same site count.

    Returns None when the system is infeasible or, in the fully homogeneous
    case, when only the zero combination works.
    """
    if not candidates:
        return None
    lam = Scalar.of(lam)

    rows: list[list[Scalar]] = []
    rhs: list[Scalar] = []

    def add_equation(lhs_ops: list[DiffOp], rhs_op: DiffOp) -> None:
        keys: set = set()
        for op in lhs_ops + [rhs_op]:
            keys.update(k for k, _ in op.term_items())
        lhs_maps = [dict(op.term_items()) for op in lhs_ops]
        rhs_map = dict(rhs_op.term_items())
        for key in sorted(keys, key=_key_text):
            rows.append([m.get(key, ZERO) for m in lhs_maps])
            rhs.append(rhs_map.get(key, ZERO))

    for mu in range(4):
        p = pset[f"P{mu}"]
        add_equation([c.commutator(p) for c in candidates], p.scale(I * lam))
    pairing = oscillator(pset.sites)["O"]
    add_equation([c.commutator(pairing) for c in candidates], DiffOp.zero())

    if not rows:
        coeffs = [ONE] + [ZERO] * (len(candidates) - 1)
    elif all(x.is_zero for x in rhs):
        basis = linalg.nullspace(rows)
        if not basis:
            return None
        coeffs = basis[0]
    else:
        coeffs = linalg.solve(rows, rhs)
        if coeffs is None:
            return None
    g = DiffOp.sum(c.scale(co) for c, co in zip(candidates, coeffs))
    return list(coeffs), g


def _key_text(key) -> str:
    mults, derivs = key
    return ("|".join(f"{v.label()}^{p}" for v, p in mults) + ";" +
            "|".join(f"{v.label()}^{p}" for v, p in derivs))


def diagonal_bilinears(n: int) -> list[DiffOp]:
    """All x d/dx candidates over the slotted variables, both conjugations."""
    out = []
    for b in (1, 2):
        for i in range(1, n + 1):
            for fam in ("u", "v"):
                for conj in (False, True):
                    v = Var(fam, b, i, conj)
                    out.append(_mono(ONE, v, v))
    return out


# ----------------------------------------------------------------------
# variational equivalence
# ----------------------------------------------------------------------
def variational_equivalence_check(op: np.ndarray, psi: np.ndarray,
                                  tol: float = 1e-6,
                                  step: float = 1e-5) -> tuple[bool, bool]:
    """Finite-difference check that the stationarity of <psi|O|psi> in <psi|
    coincides with O psi = 0.

    Returns (gradient_zero, residual_zero): the gradient of the real
    quadratic form over the real coordinates of psi has norm <= tol, and
    ||O psi|| <= tol respectively.
    """
    import numpy as np  # the one float check; the exact suites never load numpy

    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError("operator matrix must be square")
    if np.max(np.abs(op - op.conj().T)) > tol:
        raise NotHermitian("matrix is not hermitian within tolerance")
    psi = np.asarray(psi, dtype=complex)
    if not np.any(psi):
        raise ValueError("psi must be nonzero")

    def energy(params: np.ndarray) -> float:
        vec = params[0::2] + 1j * params[1::2]
        return float(np.real(np.vdot(vec, op @ vec)))

    params = np.empty(2 * psi.size)
    params[0::2] = psi.real
    params[1::2] = psi.imag
    grad = np.empty_like(params)
    for k in range(params.size):
        bumped = params.copy()
        bumped[k] += step
        high = energy(bumped)
        bumped[k] -= 2 * step
        low = energy(bumped)
        grad[k] = (high - low) / (2 * step)
    gradient_zero = bool(np.linalg.norm(grad) <= tol)
    residual_zero = bool(np.linalg.norm(op @ psi) <= tol)
    return gradient_zero, residual_zero
