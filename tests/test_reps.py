import math
import random
from fractions import Fraction

import numpy as np
import pytest

from linqm import linalg, oplib, reps
from linqm.report import all_passed
from linqm.scalar import ONE, Scalar
from linqm.weyl import DiffOp, Var


# ----------------------------------------------------------------------
# Monte Carlo oracle for the disk-product pairing
# ----------------------------------------------------------------------
def mc_disk_pairing(a: int, b: int, c: int, d: int, samples: int = 1_000_000,
                    seed: int = 2024) -> complex:
    """Independent numeric oracle: uniform sampling of both unit disks,
    estimator 2 * mean(conj(u^a v^b) * u^c v^d)."""
    rng = np.random.default_rng(seed)
    ru = np.sqrt(rng.uniform(0, 1, samples))
    tu = rng.uniform(0, 2 * np.pi, samples)
    rv = np.sqrt(rng.uniform(0, 1, samples))
    tv = rng.uniform(0, 2 * np.pi, samples)
    u = ru * np.exp(1j * tu)
    v = rv * np.exp(1j * tv)
    vals = np.conj(u ** a * v ** b) * (u ** c * v ** d)
    return 2 * complex(vals.mean())


@pytest.mark.parametrize("a,b", [(1, 0), (2, 0), (1, 1)])
def test_closed_form_matches_monte_carlo(a, b):
    closed = reps.inner_product(reps.monomial_poly((a, b)),
                                reps.monomial_poly((a, b)))
    estimate = mc_disk_pairing(a, b, a, b)
    assert abs(estimate - closed.to_complex()) < 1e-2


def test_cross_terms_vanish_in_both_paths():
    closed = reps.inner_product(reps.monomial_poly((1, 0)),
                                reps.monomial_poly((0, 1)))
    assert closed.is_zero
    assert abs(mc_disk_pairing(1, 0, 0, 1)) < 1e-2


def test_pairing_values_and_normalizers():
    u = reps.monomial_poly((1, 0))
    u2 = reps.monomial_poly((2, 0))
    uv = reps.monomial_poly((1, 1))
    assert reps.inner_product(u, u) == Scalar(Fraction(1))
    assert reps.inner_product(u2, u2) == Scalar(Fraction(2, 3))
    assert reps.inner_product(uv, uv) == Scalar(Fraction(1, 2))
    # printed ket normalizers: sqrt(3/2) u^2 and sqrt(2) uv have unit norm
    assert Fraction(3, 2) * Fraction(2, 3) == 1
    assert Fraction(2, 1) * Fraction(1, 2) == 1
    assert reps.RepSpace.homogeneous(1).norms2 == [Fraction(1), Fraction(1)]
    assert reps.RepSpace.homogeneous(2).norms2 == [
        Fraction(2, 3), Fraction(1, 2), Fraction(2, 3)]


def test_pairing_is_sesquilinear():
    u = reps.monomial_poly((1, 0))
    c = Scalar(Fraction(1, 3), Fraction(2))
    assert reps.inner_product(u.scale(c), u) == c.conjugate()
    assert reps.inner_product(u, u.scale(c)) == c


def test_non_holomorphic_rejected():
    with pytest.raises(reps.NonHolomorphic):
        reps.inner_product(DiffOp.variable(Var("u").conj()),
                           reps.monomial_poly((1, 0)))
    with pytest.raises(reps.NonHolomorphic):
        reps.inner_product(DiffOp.variable(Var("x", real=True)),
                           reps.monomial_poly((1, 0)))


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------
def test_identity_matrix_on_any_space():
    space = reps.RepSpace.homogeneous(3)
    ident = reps.matrix_rep(DiffOp.constant(1), space)
    assert ident.entries == [[ONE if i == j else Scalar(Fraction(0))
                              for j in range(4)] for i in range(4)]


def test_degree1_spin_matrix_exact_half_sigma_x():
    spin = oplib.spin_generators()
    space = reps.RepSpace.homogeneous(1)
    mat = reps.matrix_rep(spin["Sx"], space).normalized(space)
    assert mat == [[0, 0.5], [0.5, 0]]


def ladder_spin_matrix(s: float) -> np.ndarray:
    """Independent oracle: S_x from the standard raising/lowering formula."""
    dim = int(round(2 * s)) + 1
    m_values = [s - k for k in range(dim)]
    sp = np.zeros((dim, dim))
    for k in range(1, dim):
        m = m_values[k]
        sp[k - 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    return (sp + sp.T) / 2


def test_degree2_spin_matrix_matches_ladder_oracle():
    spin = oplib.spin_generators()
    space = reps.RepSpace.homogeneous(2)
    mat = np.array(reps.matrix_rep(spin["Sx"], space).normalized(space))
    assert np.max(np.abs(mat - ladder_spin_matrix(1.0))) < 1e-12


def test_normalized_sz_is_diagonal_spectrum():
    spin = oplib.spin_generators()
    for d in range(4):
        space = reps.RepSpace.homogeneous(d)
        sz = reps.matrix_rep(spin["Sz"], space)
        mat = np.array(sz.normalized(space))
        expected = np.diag([float(x) for x in reps.spin_spectrum(sz)])
        assert np.max(np.abs(mat - expected)) == 0


def test_matrix_rep_detects_leaving_span():
    space = reps.RepSpace.homogeneous(1)
    with pytest.raises(reps.NotInvariantSubspace):
        reps.matrix_rep(DiffOp.variable(Var("u")), space)


def test_generator_representation_is_homomorphism():
    spin = oplib.spin_generators()
    space = reps.RepSpace.homogeneous(2)
    mx = reps.matrix_rep(spin["Sx"], space)
    my = reps.matrix_rep(spin["Sy"], space)
    mz = reps.matrix_rep(spin["Sz"], space)
    comm = (mx @ my).entries
    comm2 = (my @ mx).entries
    lhs = [[comm[i][j] - comm2[i][j] for j in range(3)] for i in range(3)]
    rhs = reps.matrix_rep(spin["Sx"].commutator(spin["Sy"]), space).entries
    assert lhs == rhs
    assert rhs == [[e * Scalar(Fraction(0), Fraction(1)) for e in row]
                   for row in mz.entries]


# ----------------------------------------------------------------------
# group elements
# ----------------------------------------------------------------------
def test_rep_of_identity():
    space = reps.RepSpace.homogeneous(2)
    ident = [[ONE, Scalar(Fraction(0))], [Scalar(Fraction(0)), ONE]]
    mat = reps.rep_of_group_element(ident, space)
    assert mat == reps.matrix_rep(DiffOp.constant(1), space)


def test_rep_of_rational_rotation_hand_expansion():
    # [[3/5, 4/5], [-4/5, 3/5]]: image coefficients from the binomial
    # expansion of (a11 u + a21 v)^2 etc., frozen by hand
    c, s = Fraction(3, 5), Fraction(4, 5)
    a = [[Scalar(c), Scalar(s)], [Scalar(-s), Scalar(c)]]
    space = reps.RepSpace.homogeneous(2)
    mat = reps.rep_of_group_element(a, space)
    assert mat.entries[0][0] == Scalar(c * c)
    assert mat.entries[1][0] == Scalar(2 * c * -s)
    assert mat.entries[2][0] == Scalar(s * s)
    assert mat.entries[0][1] == Scalar(c * s)
    assert mat.entries[1][1] == Scalar(c * c - s * s)


def test_bad_determinant_rejected():
    two = [[Scalar(Fraction(2)), Scalar(Fraction(0))],
           [Scalar(Fraction(0)), ONE]]
    with pytest.raises(reps.BadDeterminant):
        reps.rep_of_group_element(two, reps.RepSpace.homogeneous(1))


def test_su2_sampler_gives_exact_unitaries():
    rng = random.Random(11)
    for _ in range(20):
        a = reps.random_su2(rng)
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        assert det == ONE
        # unitarity: conjugate transpose equals inverse, checked exactly
        norm0 = (a[0][0] * a[0][0].conjugate() + a[1][0] * a[1][0].conjugate())
        norm1 = (a[0][1] * a[0][1].conjugate() + a[1][1] * a[1][1].conjugate())
        cross = (a[0][0].conjugate() * a[0][1] + a[1][0].conjugate() * a[1][1])
        assert norm0 == ONE and norm1 == ONE and cross.is_zero


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_group_multiplication_rule_exact(degree):
    rng = random.Random(100 + degree)
    space = reps.RepSpace.homogeneous(degree)
    for _ in range(10):
        a = reps.random_su2(rng)
        b = reps.random_su2(rng)
        lhs = reps.rep_of_group_element(b, space) @ reps.rep_of_group_element(a, space)
        rhs = reps.rep_of_group_element(linalg.mat_mul(b, a), space)
        assert lhs == rhs


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------
def _spin_spectrum(degree):
    space = reps.RepSpace.homogeneous(degree)
    return reps.spin_spectrum(reps.matrix_rep(oplib.spin_generators()["Sz"], space))


def test_spin_spectrum_values():
    assert _spin_spectrum(0) == [Fraction(0)]
    assert _spin_spectrum(1) == [Fraction(1, 2), Fraction(-1, 2)]
    assert _spin_spectrum(2) == [Fraction(1), Fraction(0), Fraction(-1)]


def test_spin_spectrum_rejects_off_diagonal_matrix():
    space = reps.RepSpace.homogeneous(1)
    with pytest.raises(reps.NotInvariantSubspace, match="z-spin generator is not diagonal"):
        reps.spin_spectrum(reps.matrix_rep(oplib.spin_generators()["Sx"], space))


@pytest.mark.parametrize("degree", range(5))
def test_casimir_is_scalar_on_homogeneous_spaces(degree):
    spin = oplib.spin_generators()
    space = reps.RepSpace.homogeneous(degree)
    mat, blocks = reps.casimir_spectrum(spin, space)
    s = Fraction(degree, 2)
    assert blocks == [(s * (s + 1), list(range(degree + 1)))]


def test_casimir_blocks_on_reducible_span():
    spin = oplib.spin_generators()
    mixed = reps.RepSpace.direct_sum([reps.RepSpace.homogeneous(1),
                                      reps.RepSpace.homogeneous(2)])
    _, blocks = reps.casimir_spectrum(spin, mixed)
    assert blocks == [(Fraction(3, 4), [0, 1]), (Fraction(2), [2, 3, 4])]


def test_casimir_precheck_rejects_bad_triple():
    broken = oplib.spin_generators().perturbed("Sx", 0, 3)
    with pytest.raises(ValueError):
        reps.casimir_spectrum(broken, reps.RepSpace.homogeneous(1))


def test_quantization_dimension_and_spin():
    for d in range(5):
        assert reps.RepSpace.homogeneous(d).dim == d + 1
        spectrum = _spin_spectrum(d)
        assert max(spectrum) == Fraction(d, 2)
        steps = {spectrum[k] - spectrum[k + 1] for k in range(d)}
        assert steps <= {Fraction(1)}


# ----------------------------------------------------------------------
# pairing invariance
# ----------------------------------------------------------------------
def test_gaussian_pairing_invariant_all_degrees():
    rng = random.Random(17)
    elements = [(f"A{k}", reps.random_su2(rng)) for k in range(6)]
    for degree in (1, 2, 3):
        reports = reps.verify_pairing_invariance(
            reps.RepSpace.homogeneous(degree), elements, "gaussian")
        assert all_passed(reports)


def test_disk_pairing_invariant_only_at_degree_one():
    rng = random.Random(23)
    elements = [(f"A{k}", reps.random_su2(rng)) for k in range(6)]
    deg1 = reps.verify_pairing_invariance(
        reps.RepSpace.homogeneous(1), elements, "disk")
    assert all_passed(deg1)
    # recorded residual: the disk measure is not rotation invariant beyond
    # degree one, so the printed invariance claim fails there
    deg2 = reps.verify_pairing_invariance(
        reps.RepSpace.homogeneous(2), elements, "disk")
    assert not all_passed(deg2)


def test_unknown_pairing_name_rejected():
    element = [("A", reps.su2_from_quadruple(1, 2, 3, 4))]
    with pytest.raises(ValueError, match="unknown pairing"):
        reps.verify_pairing_invariance(reps.RepSpace.homogeneous(2), element, "gausian")
    with pytest.raises(ValueError, match="unknown pairing"):
        reps.inner_product(reps.monomial_poly((1, 0)), reps.monomial_poly((1, 0)), "Disk")
