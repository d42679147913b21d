"""Factories for the named operator families and their verification suites.

Operator sets built here (``OPERATOR_SETS`` names each one, with how it is
built from the site count and the commutator table it closes under):

* ``xyz``          rotation generators in three real variables
* ``su2``          spin generators in two complex variables, the lifts of sigma/2
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
from typing import Callable, Iterable, Sequence

from . import linalg
from .report import RelationReport, relation_report
from .scalar import I, ONE, ZERO, Scalar, ScalarLike, gaussian
from .weyl import DiffOp, LinearSub, Var


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
    """A matrix is not exactly its own conjugate transpose."""


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


def _lift(matrix: Sequence[Sequence[ScalarLike]],
          copies: Iterable[tuple[Sequence[Var], Sequence[Var]]]) -> DiffOp:
    """The first-order operator of a matrix on copies of a variable tuple.

    Each copy (xs, ys) adds M[j][k] xs[j] d/dys[k] and its conjugate part
    -conj(M[j][k]) xs[j]~ d/dys[k]~; zero entries add nothing.  With
    xs = ys this is the matrix acting on the copy: lifts then commute as
    [lift A, lift B] = i lift(-i[A, B]), and lift M is self-adjoint
    exactly when the trace of M is real.
    """
    entries = [(j, k, c, -c.conjugate()) for j, row in enumerate(matrix)
               for k, c in enumerate(map(Scalar.of, row)) if not c.is_zero]
    return DiffOp.from_terms(
        term for xs, ys in copies for j, k, c, c_bar in entries
        for term in ((c, [(xs[j], 1)], [(ys[k], 1)]),
                     (c_bar, [(xs[j].conj(), 1)], [(ys[k].conj(), 1)])))


def pauli_matrices() -> list[list[list[Scalar]]]:
    return [
        [[ZERO, ONE], [ONE, ZERO]],
        [[ZERO, -I], [I, ZERO]],
        [[ONE, ZERO], [ZERO, -ONE]],
    ]


# sigma_a / 2: the matrices the su2 and Lorentz sets lift, and the sun set's taus.
HALF_SIGMA = [[[x * gaussian(1, 0, 2) for x in row] for row in m]
              for m in pauli_matrices()]


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
    """Spin generators S_a: the lifts of sigma_a/2 on the doublet (u, v)."""
    ops = {f"S{axis}": _lift(m, [((U, V), (U, V))]) for axis, m in zip("xyz", HALF_SIGMA)}
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
            terms += [(-sign, (), [(a, 1), (b, 1)]),
                      (-sign, (), [(a.conj(), 1), (b.conj(), 1)]),
                      (sign, [(a, 1), (b, 1)], ()),
                      (sign, [(a.conj(), 1), (b.conj(), 1)], ())]
    return NamedOperatorSet("oscillator", {"O": DiffOp.from_terms(terms)}, sites=n)


def lorentz_generators(n: int = 1) -> NamedOperatorSet:
    """Rotation (J) and boost (K) generators: the lifts of sigma_a/2 and of
    i*sigma_a/2 on the doublet (u[b,i], v[b,i]) of both slots and every site."""
    doublets = [(d, d) for d in ((uvar(b, i), vvar(b, i))
                                 for b in (1, 2) for i in range(1, n + 1))]
    ops = {f"{name}{a}": _lift([[f * x for x in row] for row in m], doublets)
           for name, f in (("J", ONE), ("K", I)) for a, m in enumerate(HALF_SIGMA, 1)}
    return NamedOperatorSet("lorentz", ops, sites=n)


# P0..P3 lift these from the slot-1 doublet to the conjugated slot-2 doublet.
# This P2 is the reconstructed one; the printed set uses i*P1 in its place.
TRANSLATION_MATRICES = {
    "P0": [[ZERO, ONE], [-ONE, ZERO]],
    "P1": [[-ONE, ZERO], [ZERO, ONE]],
    "P2": [[I, ZERO], [ZERO, I]],
    "P3": [[ZERO, ONE], [ONE, ZERO]],
}


def translation_generators(n: int = 1, reconstructed: bool = False) -> NamedOperatorSet:
    """Slot-1 times d(slot-2) generators P0..P3, lifted from TRANSLATION_MATRICES.

    As printed, P2 = i*P1, which is anti-hermitian and linearly dependent;
    the reconstructed variant uses the lift of i times the identity, the
    hermitian partner that completes the four-vector pattern.  That set is
    labeled as such and is not presented as the printed one.
    """
    copies = [((uvar(1, i), vvar(1, i)), (uvar(2, i, True), vvar(2, i, True)))
              for i in range(1, n + 1)]
    ops = {label: _lift(m, copies) for label, m in TRANSLATION_MATRICES.items()}
    if reconstructed:
        return NamedOperatorSet("translations-reconstructed", ops, sites=n)
    ops["P2"] = ops["P1"].scale(I)
    return NamedOperatorSet("translations", ops, sites=n)


def internal_symmetry_generators(
        n: int, taus: Sequence[Sequence[Sequence[ScalarLike]]]) -> NamedOperatorSet:
    """Generators T^a from traceless hermitian n x n matrices.

    T^a lifts tau^a on slot 1 (the defining representation) and
    -transpose(tau^a) on slot 2 (the conjugate one), matrix index j at site
    j; the lift's barred terms make each T^a hermitian.
    """
    slot1, slot2 = ([(xs, xs) for xs in ([fam(b, j) for j in range(1, n + 1)]
                                         for fam in (uvar, vvar))]
                    for b in (1, 2))
    ops: dict[str, DiffOp] = {}
    for a, tau_raw in enumerate(taus, start=1):
        tau = [[Scalar.of(x) for x in row] for row in tau_raw]
        if len(tau) != n or any(len(row) != n for row in tau):
            raise BadTau(f"tau^{a} is not {n}x{n}")
        if any(tau[j][k] != tau[k][j].conjugate() for j in range(n) for k in range(n)):
            raise BadTau(f"tau^{a} is not hermitian")
        if not sum((tau[j][j] for j in range(n)), ZERO).is_zero:
            raise BadTau(f"tau^{a} is not traceless")
        minus_transpose = [[-tau[k][j] for k in range(n)] for j in range(n)]
        ops[f"T{a}"] = _lift(tau, slot1) + _lift(minus_transpose, slot2)
    return NamedOperatorSet("sun", ops, sites=n)


def poincare_set(n: int = 1, reconstructed: bool = False) -> NamedOperatorSet:
    """Merged J/K/P set for the full commutation table."""
    jk = lorentz_generators(n)
    p = translation_generators(n, reconstructed=reconstructed)
    name = "poincare-reconstructed" if reconstructed else "poincare"
    return NamedOperatorSet(name, {**jk.ops, **p.ops}, sites=n)


# ----------------------------------------------------------------------
# commutator tables
# ----------------------------------------------------------------------
# One table entry: (label_a, label_b, [(coeff, label), ...]); the expected
# right-hand side is the linear combination of set members, empty for zero.
# The tables are the printed claims under test, so they are written out by
# hand and not derived from the matrices the generators are lifted from.
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
    "sun": OperatorSetKind(lambda n: internal_symmetry_generators(2, HALF_SIGMA),
                           lambda: sun_table(3, pauli_half_structure)),
    "laplacian": OperatorSetKind(lambda n: complex_laplacian()),
    "oscillator": OperatorSetKind(lambda n: oscillator(n)),
}
LIE_SETS = [name for name, kind in OPERATOR_SETS.items() if kind.table]
TARGETS = [name for name, kind in OPERATOR_SETS.items() if not kind.table]
# The sets made of P0..P3 alone, which the flow and scaling suites read.
TRANSLATION_SETS = [name for name, kind in OPERATOR_SETS.items()
                    if kind.table is translation_table]


def build_operators(which: str, n: int = 1) -> NamedOperatorSet:
    """Single entry point used by the command line; see module docstring."""
    if which not in OPERATOR_SETS:
        raise ValueError(f"unknown operator set: {which}")
    return OPERATOR_SETS[which].build(n)


def verify_commutator_table(opset: NamedOperatorSet,
                            table: Iterable[TableEntry]) -> list[RelationReport]:
    """Exact residual report for every relation [A,B] = sum c_k C_k."""
    suite = f"lie:{opset.name}"
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
    """Report substitute(target, A) = target for supplied exact group elements.

    A substitution that maps no variable of the target leaves it as it is,
    so its row would compare the target with itself: ValueError.
    """
    subs = list(subs)
    touched = {v for (mults, derivs), _ in target.term_items() for v, _ in mults + derivs}
    for name, sub in subs:
        if touched.isdisjoint(sub.images):
            raise ValueError(f"{name} maps no variable of {target_name}, "
                             "so its check would be vacuous")
    return [relation_report("invariance:finite",
                            f"{target_name} o {name} = {target_name}",
                            expected=target, actual=target.substitute(sub))
            for name, sub in subs]


# ----------------------------------------------------------------------
# space-time map
# ----------------------------------------------------------------------
@dataclass
class SpacetimeMap:
    """Four coordinate expressions x0..x3 = N_mu / Z over the slotted variables."""

    reading: str
    numerators: list[DiffOp]
    z: DiffOp


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

    def var(fam: str, slot: int, site: int, conj: bool = False) -> Var:
        """Var(fam, slot, site, conj), with slot and site swapped if slot-site."""
        if reading == "slot-site":
            slot, site = site, slot
        return Var(fam, slot, site, conj)

    def pair_sum(terms: list[tuple[ScalarLike, str, str]]) -> DiffOp:
        return DiffOp.from_terms(
            (eta[j - 1][k - 1] * Scalar.of(coeff),
             [(var(fam2, 2, j), 1), (var(fam1, 1, k, True), 1)], ())
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

    wz = DiffOp.from_terms(
        (sign * eta[j - 1][k - 1].conjugate(),
         [(Var(fj, 1, j), 1), (Var(fk, 1, k), 1)], ())
        for j in range(1, n + 1) for k in range(1, n + 1)
        for sign, fj, fk in ((1, "u", "v"), (-1, "v", "u")))
    z = (wz - wz.conjugate()).scale(-I)

    if z.is_zero:
        raise DegenerateEta("denominator polynomial vanishes for this eta")
    return SpacetimeMap(reading, [n0, n1, n2, n3], z)


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

    # One row per term key, in first-seen order: the reduced row echelon
    # form is unique whatever the row order, so the answer cannot move.
    def add_equation(lhs_ops: list[DiffOp], rhs_op: DiffOp) -> None:
        lhs_maps = [dict(op.term_items()) for op in lhs_ops]
        rhs_map = dict(rhs_op.term_items())
        for key in dict.fromkeys(k for m in (*lhs_maps, rhs_map) for k in m):
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


def verify_scaling(pset: NamedOperatorSet) -> tuple[list[Scalar], list[RelationReport]]:
    """The dilation: search_scaling_generator over diagonal_bilinears at
    lam = 1, and the report of [G, P_mu] = i P_mu and [G, O] = 0 for the G it
    finds.  Returns the coefficients and the rows; both are empty when no G
    exists, and an empty report fails."""
    found = search_scaling_generator(pset, diagonal_bilinears(pset.sites), ONE)
    if found is None:
        return [], []
    coeffs, g = found
    suite = f"scaling:{pset.name}"
    reports = [relation_report(suite, f"[G,P{mu}] = (i)*P{mu}",
                               expected=pset[f"P{mu}"].scale(I),
                               actual=g.commutator(pset[f"P{mu}"]))
               for mu in range(4)]
    reports.append(relation_report(suite, "[G,O] = 0", expected=DiffOp.zero(),
                                   actual=g.commutator(oscillator(pset.sites)["O"])))
    return coeffs, reports


# ----------------------------------------------------------------------
# variational equivalence
# ----------------------------------------------------------------------
# `verify lemmas` checks the lemma on this many trials, the count of its
# acceptance test, at this dimension, drawn from this seed.
VARIATIONAL_TRIALS, VARIATIONAL_DIM, VARIATIONAL_SEED = 20, 5, 0


def variational_equivalence_check(op: linalg.Matrix, psi: linalg.Vector,
                                  label: str) -> RelationReport:
    """The row of the variational lemma on a hermitian O and a nonzero psi:
    <psi|O|psi> is stationary exactly when O psi = 0.  The gradient over
    Re psi_k and Im psi_k is a central difference with unit step, exact for
    a quadratic form.  The row passes when it and O psi are both zero or
    neither is.  NotHermitian unless O equals its conjugate transpose."""
    n = len(op)
    if any(len(row) != n for row in op) or len(psi) != n:
        raise ValueError("O must be square and psi of its size")
    if any(op[j][k] != op[k][j].conjugate() for j in range(n) for k in range(j + 1)):
        raise NotHermitian("O is not its own conjugate transpose")
    if not any(psi):
        raise ValueError("psi must be nonzero")

    def energy(k: int, step: Scalar) -> Scalar:
        v = psi[:k] + [psi[k] + step] + psi[k + 1:]
        return sum((a.conjugate() * b for a, b in zip(v, linalg.mat_vec(op, v))), ZERO)

    grad = [(energy(k, s) - energy(k, -s)) / 2 for k in range(n) for s in (ONE, I)]
    o_psi = linalg.mat_vec(op, psi)
    holds = any(grad) == any(o_psi)
    return RelationReport(
        "variational", f"{label}: grad <psi|O|psi> = 0 iff O psi = 0",
        f"O psi = {linalg.vector_text(o_psi)}", f"grad = {linalg.vector_text(grad)}",
        "0" if holds else "one side is zero and the other is not", holds)


def variational_lemma() -> list[RelationReport]:
    """The rows `verify lemmas` reports.  Each O has the eigenvalue 0 twice.
    psi combines the two kernel eigenvectors on even trials and is an
    eigenvector of nonzero eigenvalue on odd ones."""
    rng = random.Random(VARIATIONAL_SEED)
    rows = []
    for trial in range(VARIATIONAL_TRIALS):
        spectrum = [0, 0] + [rng.choice((-1, 1)) * rng.randint(1, 4)
                             for _ in range(VARIATIONAL_DIM - 2)]
        op, vecs = linalg.random_hermitian(rng, spectrum)
        c = gaussian(rng.randint(-3, 3), rng.randint(-3, 3), 1)
        if trial % 2:
            psi, label = vecs[2], f"eigenvalue {spectrum[2]}"
        else:
            psi, label = [a + c * b for a, b in zip(vecs[0], vecs[1])], "psi in the kernel"
        rows.append(variational_equivalence_check(op, psi, f"trial {trial:02d} ({label})"))
    return rows
