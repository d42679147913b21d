"""Permutation symmetry and fermionic second quantization.

Labeled products model multi-set wave functions: each factor is a label
attached to one variable-set index, and the antisymmetrizer sums signed
set-index permutations.  The 1/sqrt(k!) normalizer is irrational, so a
``KetSum`` stores exact term amplitudes together with a rational squared
prefactor; equality handles perfect-square rescalings exactly.

Occupation states over M ordered modes use the standard sign convention:
acting at a mode picks up (-1)^(number of occupied modes below it).  On the
2^M space a ladder operator is a signed partial permutation (a target and a
sign per basis state); the anticommutator suite composes them by indexing
and counts the nonzero entries of each relation exactly in integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .report import RelationReport
from .scalar import ONE, ZERO, Scalar, rational_sqrt

Label = Hashable

# Factors a permutation sum takes: k factors build k! kets, and 8 give 40,320.
MAX_LABELS = 8


# ----------------------------------------------------------------------
# labeled products and signed sums
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LabeledKet:
    """A product of labeled single-set factors, canonically ordered by set."""

    factors: tuple[tuple[Label, int], ...]

    def __post_init__(self) -> None:
        sets = [s for _, s in self.factors]
        if len(set(sets)) != len(sets):
            raise ValueError("variable-set indices must be distinct")
        object.__setattr__(self, "factors",
                           tuple(sorted(self.factors, key=lambda f: f[1])))

    @staticmethod
    def of(*factors: tuple[Label, int]) -> "LabeledKet":
        return LabeledKet(tuple(factors))

    def sets(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.factors)

    def permute_sets(self, perm: Mapping[int, int]) -> "LabeledKet":
        return LabeledKet(tuple((lbl, perm.get(s, s)) for lbl, s in self.factors))

    def __str__(self) -> str:
        return "".join(f"|{lbl}>_{s}" for lbl, s in self.factors)


@dataclass(frozen=True)
class KetSum:
    """Exact linear combination of labeled products times sqrt(norm2).

    The represented state is sqrt(norm2) * sum(amplitude * ket); norm2 is a
    positive rational so that 1/sqrt(k!) factors stay exact.
    """

    terms: tuple[tuple[LabeledKet, Scalar], ...]
    norm2: Fraction = Fraction(1)

    @staticmethod
    def build(entries: Mapping[LabeledKet, Scalar], norm2: Fraction) -> "KetSum":
        kept = tuple(sorted(((k, c) for k, c in entries.items() if not c.is_zero),
                            key=lambda kc: str(kc[0])))
        return KetSum(kept, norm2)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c: Scalar) -> "KetSum":
        return KetSum.build({k: a * c for k, a in self.terms}, self.norm2)

    def __neg__(self) -> "KetSum":
        return self.scale(-ONE)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KetSum):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        root = rational_sqrt(self.norm2 / other.norm2)
        if root is None:
            return False
        mine = {k: a * root for k, a in self.terms}
        return mine == dict(other.terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        body = " + ".join(f"({c})*{k}" for k, c in self.terms)
        if self.norm2 == 1:
            return body
        return f"sqrt({self.norm2}) * [{body}]"


def _is_odd(perm: Sequence[int]) -> bool:
    """Cycle parity: a permutation of k items with c cycles has sign (-1)^(k-c)."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return (len(perm) - cycles) % 2 == 1


def _permutation_sum(product: LabeledKet, signed: bool) -> KetSum:
    """Sum of the product over all permutations of its set assignments,
    each term signed by the permutation's parity when ``signed``, with the
    1/sqrt(k!) prefactor carried as exact squared metadata."""
    sets = product.sets()
    if len(sets) > MAX_LABELS:
        raise ValueError(f"{len(sets)} factors exceed the cap of {MAX_LABELS} "
                         f"({len(sets)}! permutations)")
    # the k^2 (label, set) factors, shared by all k! kets
    pairs = [[(lbl, s) for s in sets] for lbl, _ in product.factors]
    acc: dict[LabeledKet, Scalar] = {}
    for perm in itertools.permutations(range(len(sets))):
        ket = LabeledKet(tuple(row[p] for row, p in zip(pairs, perm)))
        acc[ket] = acc.get(ket, ZERO) + (-ONE if signed and _is_odd(perm) else ONE)
    return KetSum.build(acc, Fraction(1, factorial(len(sets))))


def antisymmetrize(product: LabeledKet) -> KetSum:
    """Signed permutation sum.  Duplicate labels make the whole sum vanish
    (exclusion); the zero result is an explicit empty sum, never a bare list.
    """
    return _permutation_sum(product, signed=True)


def symmetrize(product: LabeledKet) -> KetSum:
    """Unsigned permutation sum with the same exact normalization scheme."""
    return _permutation_sum(product, signed=False)


# ----------------------------------------------------------------------
# occupation states and ladder operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FockState:
    """Occupancy bit pattern over M ordered modes; mode 0 prints leftmost."""

    modes: int
    bits: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.modes):
            raise ValueError("bit pattern out of range")

    @staticmethod
    def vacuum(modes: int) -> "FockState":
        return FockState(modes, 0)

    def occupied(self, mode: int) -> bool:
        return bool((self.bits >> mode) & 1)

    def __str__(self) -> str:
        return "|" + "".join("1" if self.occupied(m) else "0"
                             for m in range(self.modes)) + ">"


def _parity_below(bits, mode: int):
    """(-1)^(occupied modes below ``mode``): an XOR fold of the low bits.

    ``bits`` is one bit pattern (the result is an int) or an integer array
    of them (the result is an array of signs)."""
    odd = 0
    for m in range(mode):
        odd ^= bits >> m
    return 1 - 2 * (odd & 1)


def _check_ladder(modes: int, which: str, mode: int) -> None:
    if not 0 <= mode < modes:
        raise IndexError(f"mode {mode} out of range")
    if which not in ("create", "annihilate"):
        raise ValueError(f"unknown ladder kind: {which}")


def apply_ladder(state: FockState, which: str, mode: int
                 ) -> tuple[int, FockState] | None:
    """Apply a creation or annihilation operator at one mode.

    Returns (sign, new state) with sign = (-1)^(occupied modes below), or
    None when the action annihilates the state.
    """
    _check_ladder(state.modes, which, mode)
    if state.occupied(mode) == (which == "create"):
        return None
    return _parity_below(state.bits, mode), FockState(state.modes,
                                                      state.bits ^ (1 << mode))


class SignedMap(NamedTuple):
    """Column c of a signed partial permutation holds sign[c] (0: empty) in
    row target[c]."""

    target: np.ndarray
    sign: np.ndarray

    def __matmul__(self, other: "SignedMap") -> "SignedMap":
        return SignedMap(self.target[other.target], self.sign[other.target] * other.sign)


def ladder_matrix(modes: int, which: str, mode: int) -> SignedMap:
    """One ladder operator on the 2^M basis: ``apply_ladder`` on every basis
    state at once, with array bit operations."""
    _check_ladder(modes, which, mode)
    basis = np.arange(1 << modes, dtype=np.int64)
    acts = ((basis >> mode) & 1) == (which == "annihilate")
    return SignedMap(basis ^ (1 << mode),
                     np.where(acts, _parity_below(basis, mode), 0))


def _nonzero_entries(maps: Sequence[SignedMap]) -> np.ndarray:
    """Nonzero entries of the sum of the maps, in no set order.

    Each map holds at most one entry per column, so two maps share a cell
    exactly where their targets agree in that column: each cell is summed
    at the first map that holds it."""
    unsummed = [m.sign != 0 for m in maps]
    parts = []
    for k, m in enumerate(maps):
        total = np.where(unsummed[k], m.sign, 0)
        for later, left in zip(maps[k + 1:], unsummed[k + 1:]):
            shared = unsummed[k] & left & (later.target == m.target)
            total += np.where(shared, later.sign, 0)
            left &= ~shared  # in place: not summed again at ``later``
        parts.append(total[total != 0])
    return np.concatenate(parts)


def verify_car(modes: int, include_printed_variant: bool = False
               ) -> list[RelationReport]:
    """Exact anticommutator checks on the full 2^M space.

    Standard relations: {a_i, a*_j} = delta_ij I, {a_i, a_j} = 0 and
    {a*_i, a*_j} = 0.  The optional variant rows record the residual of the
    same-side index placement a*_i a_j + a_i a*_j, which differs from the
    standard relations off the diagonal; they are informational and are not
    included by default.
    """
    if modes > 12:
        raise ValueError("mode count capped at 12 (space dimension 2^M)")
    dim = 1 << modes
    minus_identity = SignedMap(np.arange(dim), np.full(dim, -1))
    ann = [ladder_matrix(modes, "annihilate", m) for m in range(modes)]
    cre = [ladder_matrix(modes, "create", m) for m in range(modes)]
    reports = []

    def check(suite: str, relation: str, a: SignedMap, b: SignedMap,
              delta: bool) -> None:
        entries = _nonzero_entries([a, b])
        residual = _nonzero_entries([a, b, minus_identity]) if delta else entries
        reports.append(RelationReport(
            suite, relation, "I" if delta else "0",
            f"dim {dim} matrix, {entries.size} nonzeros",
            f"{residual.size} nonzero entries, max |.| = {abs(residual).max()}"
            if residual.size else "0",
            residual.size == 0))

    for i in range(modes):
        for j in range(modes):
            check("car", f"a({i})a*({j}) + a*({j})a({i}) = delta({i},{j})I",
                  ann[i] @ cre[j], cre[j] @ ann[i], i == j)
            check("car", f"a({i})a({j}) + a({j})a({i}) = 0",
                  ann[i] @ ann[j], ann[j] @ ann[i], False)
            check("car", f"a*({i})a*({j}) + a*({j})a*({i}) = 0",
                  cre[i] @ cre[j], cre[j] @ cre[i], False)
            if include_printed_variant:
                check("car-printed-variant",
                      f"a*({i})a({j}) + a({i})a*({j}) = delta({i},{j})I",
                      cre[i] @ ann[j], ann[i] @ cre[j], i == j)
    return reports
