import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linqm import fock
from linqm.report import all_passed
from linqm.scalar import ONE


# ----------------------------------------------------------------------
# antisymmetrizer / symmetrizer
# ----------------------------------------------------------------------
def test_two_factor_antisymmetrization():
    anti = fock.antisymmetrize(fock.LabeledKet.of(("A", 1), ("B", 2)))
    assert anti.norm2 == Fraction(1, 2)
    terms = dict(anti.terms)
    assert terms[fock.LabeledKet.of(("A", 1), ("B", 2))] == ONE
    assert terms[fock.LabeledKet.of(("A", 2), ("B", 1))] == -ONE


def test_duplicate_labels_vanish():
    zero = fock.antisymmetrize(fock.LabeledKet.of(("A", 1), ("A", 2)))
    assert zero.is_zero
    assert str(zero) == "0"


def test_exchange_signs():
    base = fock.antisymmetrize(fock.LabeledKet.of(("A", 1), ("B", 2)))
    label_swapped = fock.antisymmetrize(fock.LabeledKet.of(("B", 1), ("A", 2)))
    assert label_swapped == -base
    # exchanging the variable-set subscripts is the same product as the
    # label exchange after canonical ordering, so the sign is -1 as well
    set_swapped = fock.antisymmetrize(fock.LabeledKet.of(("A", 2), ("B", 1)))
    assert set_swapped == -base


def test_symmetrizer_invariant_under_exchange():
    sym = fock.symmetrize(fock.LabeledKet.of(("A", 1), ("B", 2)))
    assert fock.symmetrize(fock.LabeledKet.of(("B", 1), ("A", 2))) == sym
    dup = fock.symmetrize(fock.LabeledKet.of(("A", 1), ("A", 2)))
    assert not dup.is_zero


def test_permutation_sums_refuse_more_than_max_labels():
    product = fock.LabeledKet.of(*[(chr(65 + i), i + 1)
                                   for i in range(fock.MAX_LABELS + 1)])
    with pytest.raises(ValueError):
        fock.antisymmetrize(product)
    with pytest.raises(ValueError):
        fock.symmetrize(product)


def test_full_quantum_number_tuples_work_as_labels():
    # labels standing for (m, E, p, S, s_z, Q) are ordered tuples
    electron = (1, 2, 0, Fraction(1, 2), Fraction(1, 2), -1)
    positron = (1, 2, 0, Fraction(1, 2), Fraction(-1, 2), 1)
    anti = fock.antisymmetrize(fock.LabeledKet.of((electron, 1), (positron, 2)))
    assert len(anti.terms) == 2
    assert fock.antisymmetrize(
        fock.LabeledKet.of((electron, 1), (electron, 2))).is_zero
    assert sorted([electron, positron]) == [positron, electron]  # by s_z, then Q


def test_antisymmetrized_states_are_sign_eigenvectors():
    product = fock.LabeledKet.of(("A", 1), ("B", 2), ("C", 3))
    anti = fock.antisymmetrize(product)
    sym = fock.symmetrize(product)
    for a, b in itertools.combinations((1, 2, 3), 2):
        swap = {a: b, b: a}
        anti_sw = fock.KetSum.build(
            {k.permute_sets(swap): c for k, c in anti.terms}, anti.norm2)
        sym_sw = fock.KetSum.build(
            {k.permute_sets(swap): c for k, c in sym.terms}, sym.norm2)
        assert anti_sw == -anti
        assert sym_sw == sym


# ----------------------------------------------------------------------
# ladder operators
# ----------------------------------------------------------------------
def test_create_and_annihilate_basics():
    vac = fock.FockState.vacuum(4)
    sign, one = fock.apply_ladder(vac, "create", 0)
    assert (sign, str(one)) == (1, "|1000>")
    assert fock.apply_ladder(one, "create", 0) is None
    assert fock.apply_ladder(vac, "annihilate", 2) is None
    sign, back = fock.apply_ladder(one, "annihilate", 0)
    assert sign == 1 and back == vac


def test_sign_bookkeeping_two_modes():
    # create(0) on |0100> keeps +, create(1) on |1000> picks up -
    s01 = fock.FockState(4, 0b0010)
    sign, state = fock.apply_ladder(s01, "create", 0)
    assert sign == 1 and state.bits == 0b0011
    s10 = fock.FockState(4, 0b0001)
    sign, state = fock.apply_ladder(s10, "create", 1)
    assert sign == -1 and state.bits == 0b0011


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_car_relations_exact(modes):
    reports = fock.verify_car(modes)
    assert len(reports) == 3 * modes * modes
    assert all_passed(reports)


def test_sign_broken_convention_detected(monkeypatch):
    monkeypatch.setattr(fock, "_parity_below", lambda bits, mode: 1)
    assert not all_passed(fock.verify_car(2))


def test_printed_variant_recorded_not_gating():
    reports = fock.verify_car(2, include_printed_variant=True)
    standard = [r for r in reports if r.suite == "car"]
    variant = [r for r in reports if r.suite == "car-printed-variant"]
    assert all_passed(standard)
    diag = [r for r in variant if "delta(0,0)" in r.relation or "delta(1,1)" in r.relation]
    off = [r for r in variant if r not in diag]
    assert all_passed(diag)
    assert not any(r.passed for r in off)


def dense_ladder(modes, which, mode):
    """Reference: the ladder operator as a dense matrix, entry by entry."""
    dim = 1 << modes
    mat = np.zeros((dim, dim), dtype=np.int64)
    for bits in range(dim):
        moved = fock.apply_ladder(fock.FockState(modes, bits), which, mode)
        if moved is not None:
            mat[moved[1].bits, bits] = moved[0]
    return mat


def as_dense(signed):
    dim = len(signed.target)
    mat = np.zeros((dim, dim), dtype=np.int64)
    mat[signed.target, np.arange(dim)] = signed.sign
    return mat


@pytest.mark.parametrize("modes", [1, 2, 3, 6])
def test_signed_maps_match_dense_matrices(modes):
    dim = 1 << modes
    kinds = [(which, m) for which in ("create", "annihilate") for m in range(modes)]
    ops = {k: fock.ladder_matrix(modes, *k) for k in kinds}
    minus_identity = fock.SignedMap(np.arange(dim), np.full(dim, -1))
    for k in kinds:
        assert np.array_equal(as_dense(ops[k]), dense_ladder(modes, *k))
    for x, y in itertools.product(kinds, repeat=2):
        xy, yx = ops[x] @ ops[y], ops[y] @ ops[x]
        assert np.array_equal(as_dense(xy), as_dense(ops[x]) @ as_dense(ops[y]))
        for maps in ([xy, yx], [xy, yx, minus_identity]):
            total = sum(as_dense(m) for m in maps)
            assert np.array_equal(np.sort(fock._nonzero_entries(maps)),
                                  np.sort(total[total != 0]))


@st.composite
def signed_maps(draw):
    """1-3 signed maps on one dimension; sign 0 marks an empty column."""
    dim = draw(st.integers(1, 12))
    column = st.tuples(st.integers(0, dim - 1), st.sampled_from([-1, 0, 0, 1]))
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        target, sign = zip(*draw(st.lists(column, min_size=dim, max_size=dim)))
        maps.append(fock.SignedMap(np.array(target, dtype=np.int64),
                                   np.array(sign, dtype=np.int64)))
    return maps


@settings(max_examples=300, deadline=None)
@given(signed_maps())
def test_nonzero_entries_match_a_dense_sum(maps):
    dim = len(maps[0].target)
    dense = np.zeros((dim, dim), dtype=np.int64)
    for m in maps:
        np.add.at(dense, (m.target, np.arange(dim)), m.sign)
    expected = dense[dense != 0]
    got = fock._nonzero_entries(maps)
    assert np.array_equal(np.sort(got), np.sort(expected))
    assert got.size == expected.size
    if got.size:
        assert abs(got).max() == abs(expected).max()


# ----------------------------------------------------------------------
# Slater-sign equivalence
# ----------------------------------------------------------------------
def perm_parity(perm: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def ladder_sign(modes: int, creation_order: tuple[int, ...]) -> int:
    """Sign of a*_{m1} ... a*_{mk} |0>, rightmost operator acting first."""
    state = fock.FockState.vacuum(modes)
    total = 1
    for mode in reversed(creation_order):
        sign, state = fock.apply_ladder(state, "create", mode)
        total *= sign
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_slater_signs_match_antisymmetrizer(k):
    modes = 6
    for subset in itertools.combinations(range(modes), k):
        base_product = fock.LabeledKet.of(*[(m, i + 1) for i, m in enumerate(subset)])
        base = fock.antisymmetrize(base_product)
        for perm in itertools.permutations(subset):
            product = fock.LabeledKet.of(*[(m, i + 1) for i, m in enumerate(perm)])
            anti = fock.antisymmetrize(product)
            parity = perm_parity(perm)
            assert anti == (base if parity == 1 else -base)
            assert ladder_sign(modes, perm) == parity
