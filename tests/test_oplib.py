import json
import random
from fractions import Fraction

import pytest

from linqm import cli, linalg, oplib, reps
from linqm.report import all_passed, sort_reports
from linqm.scalar import I, ONE, ZERO, Scalar, gaussian
from linqm.weyl import DiffOp, LinearSub, Var


def frac(x) -> Scalar:
    return Scalar(Fraction(x))


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------
def test_oscillator_term_count():
    assert oplib.oscillator(1)["O"].n_terms() == 8
    assert oplib.oscillator(3)["O"].n_terms() == 24


def test_rotation_table_passes_exactly():
    rot = oplib.rotation_generators()
    assert all_passed(oplib.verify_commutator_table(rot, oplib.ROTATION_TABLE))
    assert all_passed(oplib.verify_hermiticity(rot))


def test_rotation_opposite_orientation_flips_sign():
    rot = oplib.rotation_generators()
    flipped = oplib.NamedOperatorSet("xyz-flip", {k: -v for k, v in rot.ops.items()})
    # the mirrored orientation closes the same table with -i
    neg_table = [(a, b, [(-c, lbl) for c, lbl in combo])
                 for a, b, combo in oplib.ROTATION_TABLE]
    assert not all_passed(oplib.verify_commutator_table(flipped, oplib.ROTATION_TABLE))
    assert all_passed(oplib.verify_commutator_table(flipped, neg_table))


def test_spin_table_and_hermiticity():
    spin = oplib.spin_generators()
    assert all_passed(oplib.verify_commutator_table(spin, oplib.SPIN_TABLE))
    assert all_passed(oplib.verify_hermiticity(spin))


def test_spin_action_on_doublet():
    spin = oplib.spin_generators()
    u = DiffOp.variable(Var("u"))
    v = DiffOp.variable(Var("v"))
    assert spin["Sz"].apply(u) == u / 2
    assert spin["Sz"].apply(v) == -(v / 2)
    assert spin["Sx"].apply(u) == v / 2


def test_lorentz_table_passes_for_sites():
    for n in (1, 2):
        jk = oplib.lorentz_generators(n)
        assert all_passed(oplib.verify_commutator_table(jk, oplib.lorentz_table()))
        assert all_passed(oplib.verify_hermiticity(jk))


def test_translation_commutators_vanish():
    for n in (1, 2, 3):
        p = oplib.translation_generators(n)
        assert all_passed(oplib.verify_commutator_table(p, oplib.translation_table()))


def test_printed_second_translation_is_dependent_and_antihermitian():
    p = oplib.translation_generators(1)
    assert p["P2"] == p["P1"].scale(I)
    herm = {r.relation: r.passed for r in oplib.verify_hermiticity(p)}
    assert herm["adjoint(P2) = P2"] is False
    assert herm["adjoint(P0) = P0"] and herm["adjoint(P1) = P1"] and herm["adjoint(P3) = P3"]


def test_full_poincare_table_printed_vs_reconstructed():
    printed = oplib.verify_commutator_table(oplib.poincare_set(1),
                                            oplib.poincare_table())
    failing = {r.relation for r in printed if not r.passed}
    assert failing  # the printed set cannot close the full table
    assert all("P2" in rel for rel in failing)  # defect localized to P2 rows
    recon = oplib.verify_commutator_table(oplib.poincare_set(1, reconstructed=True),
                                          oplib.poincare_table())
    assert all_passed(recon)
    assert all_passed(oplib.verify_hermiticity(
        oplib.translation_generators(1, reconstructed=True)))


def test_sun_generators():
    sun = oplib.build_operators("sun", n=2)
    assert all_passed(oplib.verify_commutator_table(
        sun, oplib.sun_table(3, oplib.pauli_half_structure)))
    assert all_passed(oplib.verify_hermiticity(sun))


def test_bad_tau_rejected():
    bad = [[[ZERO, ONE], [-ONE, ZERO]]]  # antisymmetric, not hermitian
    with pytest.raises(oplib.BadTau):
        oplib.internal_symmetry_generators(2, bad)
    traceful = [[[ONE, ZERO], [ZERO, ONE]]]
    with pytest.raises(oplib.BadTau):
        oplib.internal_symmetry_generators(2, traceful)


def test_unknown_label():
    rot = oplib.rotation_generators()
    with pytest.raises(oplib.UnknownLabel):
        oplib.verify_commutator_table(rot, [("Lx", "Nope", [])])


# ----------------------------------------------------------------------
# invariance
# ----------------------------------------------------------------------
def test_laplacian_invariant_under_spin_generators():
    lap = oplib.complex_laplacian()["O"]
    assert all_passed(oplib.verify_invariance(lap, oplib.spin_generators()))


def test_oscillator_invariant_under_symmetry_generators():
    for n in (1, 2):
        osc = oplib.oscillator(n)["O"]
        for name in ("lorentz", "translations", "translations-reconstructed"):
            gens = oplib.build_operators(name, n=n)
            assert all_passed(oplib.verify_invariance(osc, gens)), name
    osc2 = oplib.oscillator(2)["O"]
    assert all_passed(oplib.verify_invariance(osc2, oplib.build_operators("sun", n=2)))


def test_non_invariant_operator_detected():
    x = DiffOp.variable(Var("x", real=True))
    dx = DiffOp.derivative(Var("x", real=True))
    reports = oplib.verify_invariance(x * dx, oplib.rotation_generators())
    assert not all_passed(reports)
    u = DiffOp.variable(Var("u"))
    du = DiffOp.derivative(Var("u"))
    reports = oplib.verify_invariance(u * du, oplib.spin_generators())
    assert not all_passed(reports)


def test_finite_unitary_invariance_of_laplacian():
    lap = oplib.complex_laplacian()["O"]
    rng = random.Random(7)
    subs = [(f"A{k}", reps.substitution_of_matrix(reps.random_su2(rng)))
            for k in range(10)]
    assert all_passed(oplib.verify_substitution_invariance(lap, subs))


def test_substitution_that_misses_the_target_is_refused():
    """Unitaries on (u, v) leave the oscillator's u[b,i], v[b,i] alone: a row
    would compare the operator with itself, and a perturbed one would pass."""
    rng = random.Random(7)
    subs = [("A0", reps.substitution_of_matrix(reps.random_su2(rng)))]
    for osc in (oplib.oscillator(2), oplib.oscillator(2).perturbed("O", 4, 2)):
        with pytest.raises(ValueError, match="maps no variable of oscillator"):
            oplib.verify_substitution_invariance(osc["O"], subs, target_name="oscillator")


def test_affine_flow_invariance_of_oscillator():
    # the printed images preserve the pairing operator except on the
    # defective third-direction slice, where the reconstructed set differs
    osc = oplib.oscillator(1)["O"]

    def sub_for(xs):
        images = {}
        for var, poly in oplib.printed_translation_images(xs).items():
            images[var] = [(c, m[0][0]) for c, m, _ in poly.terms()]
        return LinearSub(images)

    ok = [frac(1), frac("1/3"), frac(0), frac(2)]
    assert osc.substitute(sub_for(ok)) == osc
    bad = [frac(0), frac(0), frac(1), frac(0)]
    assert osc.substitute(sub_for(bad)) != osc


# ----------------------------------------------------------------------
# mutation sensitivity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("which,table", [
    ("xyz", oplib.ROTATION_TABLE),
    ("su2", oplib.SPIN_TABLE),
])
def test_single_coefficient_mutations_all_detected(which, table):
    base = oplib.build_operators(which)
    for label in base.labels():
        for idx in range(base[label].n_terms()):
            mutated = base.perturbed(label, idx, 2)
            reports = oplib.verify_commutator_table(mutated, table)
            assert not all_passed(reports), (label, idx)


def test_corrupted_coefficient_reported_with_residual():
    mutated = oplib.build_operators("poincare-mutated")
    reports = oplib.verify_commutator_table(mutated, oplib.poincare_table())
    bad = [r for r in reports if not r.passed]
    assert bad and all(r.residual != "0" for r in bad)


# ----------------------------------------------------------------------
# space-time map
# ----------------------------------------------------------------------
def default_eta(n=2):
    eta = [[ZERO for _ in range(n)] for _ in range(n)]
    eta[0][1], eta[1][0] = ONE, -ONE
    return eta


def test_spacetime_map_well_formed():
    st = oplib.build_spacetime_map(default_eta())
    assert not st.z.is_zero
    assert len(st.numerators) == 4
    assert all(x.is_polynomial and not x.is_zero for x in st.numerators + [st.z])


def test_degenerate_eta():
    with pytest.raises(oplib.DegenerateEta):
        oplib.build_spacetime_map([[ZERO, ZERO], [ZERO, ZERO]])
    with pytest.raises(oplib.DegenerateEta):
        oplib.build_spacetime_map([[ZERO]])  # antisymmetric 1x1 is zero
    with pytest.raises(ValueError):
        oplib.build_spacetime_map([[ZERO, ONE], [ONE, ZERO]])  # not antisymmetric


def test_spacetime_relations_both_readings():
    for reading in ("site-slot", "slot-site"):
        st = oplib.build_spacetime_map(default_eta(), reading=reading)
        printed = oplib.verify_spacetime_relations(
            oplib.translation_generators(2), st)
        assert len(printed) == 16
        fails = {r.relation for r in printed if not r.passed}
        assert fails == {"[P2,x1] = 0", "[P2,x2] = -i"}
        recon = oplib.verify_spacetime_relations(
            oplib.translation_generators(2, reconstructed=True), st)
        assert all_passed(recon)


def test_spacetime_relations_random_eta():
    eta = oplib.random_eta(3, seed=5)
    st = oplib.build_spacetime_map(eta)
    recon = oplib.verify_spacetime_relations(
        oplib.translation_generators(3, reconstructed=True), st)
    assert all_passed(recon)


def test_spacetime_constant_coordinate_fails():
    st = oplib.build_spacetime_map(default_eta())
    st.numerators[0] = st.z  # x0 := 1
    reports = oplib.verify_spacetime_relations(
        oplib.translation_generators(2, reconstructed=True), st)
    by_rel = {r.relation: r.passed for r in reports}
    assert by_rel["[P0,x0] = i"] is False


def test_not_a_derivation_guard():
    st = oplib.build_spacetime_map(default_eta())
    bad = oplib.translation_generators(2)
    bad.ops["P0"] = bad["P0"] * bad["P1"]  # second order
    with pytest.raises(oplib.NotADerivation):
        oplib.verify_spacetime_relations(bad, st)


# ----------------------------------------------------------------------
# translation flow
# ----------------------------------------------------------------------
def test_flow_identity_at_zero():
    p = oplib.translation_generators(1)
    reports = oplib.translation_flow_check(p, [frac(0)] * 4)
    assert all_passed(reports)


def test_flow_terminates_by_order_two_and_slot1_fixed():
    p = oplib.translation_generators(1)
    xs = [frac(1), frac("1/2"), frac(3), frac("-2/5")]
    gen = DiffOp.sum(p[f"P{mu}"].scale(I * xs[mu]) for mu in range(4))
    for var in (Var("u", 1, 1), Var("v", 1, 1), Var("u", 2, 1), Var("v", 2, 1)):
        assert oplib.flow_termination_order(gen, var) <= 2
    reports = oplib.translation_flow_check(p, xs)
    by_rel = {r.relation: r.passed for r in reports}
    assert by_rel["exp(iP.x) u[1,1] (terminates at order 0)"]
    assert by_rel["exp(iP.x) v[1,1] (terminates at order 0)"]
    assert all_passed(reports)  # printed generators match printed images


def test_flow_reconstructed_differs_only_on_x2_slice():
    pr = oplib.translation_generators(1, reconstructed=True)
    assert all_passed(oplib.translation_flow_check(pr, [frac(1), frac(2), frac(0), frac(3)]))
    reports = oplib.translation_flow_check(pr, [frac(0), frac(0), frac(1), frac(0)])
    failing = {r.relation for r in reports if not r.passed}
    assert failing == {"exp(iP.x) v[2,1] (terminates at order 1)"}


def test_flow_nontermination_detected():
    u1 = Var("u", 1, 1)
    runaway = DiffOp.variable(u1) * DiffOp.derivative(u1)
    ops = {f"P{mu}": runaway for mu in range(4)}
    bad = oplib.NamedOperatorSet("bad", ops, sites=1)
    with pytest.raises(oplib.NonTerminatingFlow):
        oplib.translation_flow_check(bad, [frac(1), frac(0), frac(0), frac(0)])


# ----------------------------------------------------------------------
# scaling generator search
# ----------------------------------------------------------------------
def test_scaling_search_trivial_cases():
    p = oplib.translation_generators(1)
    assert oplib.search_scaling_generator(p, [], ZERO) is None
    got = oplib.search_scaling_generator(p, [p["P0"]], ZERO)
    assert got is not None and got[1] == p["P0"]


def test_scaling_search_over_diagonal_bilinears():
    p = oplib.translation_generators(1)
    lam = ONE
    result = oplib.search_scaling_generator(p, oplib.diagonal_bilinears(1), lam)
    assert result is not None
    _, g = result
    for mu in range(4):
        assert g.commutator(p[f"P{mu}"]) == p[f"P{mu}"].scale(I * lam)
    assert g.commutator(oplib.oscillator(1)["O"]).is_zero


# Exact coefficient vectors over diagonal_bilinears(n).  The equation rows
# follow the order in which term keys are first seen; the exact reduced row
# echelon form is unique for any row order, so no row order may move these.
_SCALING_ONE_SITE = {0: "1 -1 1 -1 -1 1 -1 1",
                     1: "i 0 i 0 -i 0 -i 0",
                     2: "2i 0 2i 0 -2i 0 -2i 0"}
_SCALING_TWO_SITES = {0: "1 -1 1 -1 0 0 0 0 -1 1 -1 1 0 0 0 0",
                      1: "i 0 i 0 i 0 i 0 -i 0 -i 0 -i 0 -i 0",
                      2: "2i 0 2i 0 2i 0 2i 0 -2i 0 -2i 0 -2i 0 -2i 0"}


@pytest.mark.parametrize("reconstructed", [False, True])
@pytest.mark.parametrize("n, expected", [(1, _SCALING_ONE_SITE), (2, _SCALING_TWO_SITES)])
@pytest.mark.parametrize("lam", [0, 1, 2])
def test_scaling_search_coefficients_are_pinned(reconstructed, n, expected, lam):
    p = oplib.translation_generators(n, reconstructed)
    coeffs, _ = oplib.search_scaling_generator(p, oplib.diagonal_bilinears(n), lam)
    assert " ".join(str(c) for c in coeffs) == expected[lam]


@pytest.mark.parametrize("name", oplib.TRANSLATION_SETS)
@pytest.mark.parametrize("n, expected", [(1, _SCALING_ONE_SITE), (2, _SCALING_TWO_SITES)])
def test_verify_scaling_reports_the_pinned_dilation(name, n, expected, capsys):
    """``verify scaling`` solves at lam = 1 and reports the pinned answer."""
    code = cli.main(["verify", "scaling", "--set", name, "--n", str(n),
                     "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["pass"] and len(payload["relations"]) == 5
    assert " ".join(payload["coefficients"]) == expected[1]


def test_scaling_search_infeasible():
    p = oplib.translation_generators(1)
    # a single candidate that commutes with everything cannot scale
    result = oplib.search_scaling_generator(p, [p["P3"]], ONE)
    assert result is None


# ----------------------------------------------------------------------
# variational equivalence
# ----------------------------------------------------------------------
def _hermitian_with_kernel(seed):
    """O with eigenvalues 0, 0, 1, -2, 3, and its eigenvectors."""
    return linalg.random_hermitian(random.Random(seed), [0, 0, 1, -2, 3])


def test_variational_kernel_and_eigenvector():
    op, vecs = _hermitian_with_kernel(2)
    mix = [a * gaussian(3, 0, 5) + b * gaussian(0, 4, 5) for a, b in zip(vecs[0], vecs[1])]
    row = oplib.variational_equivalence_check(op, mix, "kernel")
    assert (row.passed, row.expected, row.actual) == (True, "O psi = 0", "grad = 0")
    row = oplib.variational_equivalence_check(op, vecs[3], "eigenvector")
    assert row.passed and row.residual == "0"
    assert row.expected != "O psi = 0" and row.actual != "grad = 0"


def test_variational_gradient_is_twice_o_psi():
    """The unit-step central difference is exact: the gradient over Re psi_k
    and Im psi_k is 2 Re (O psi)_k and 2 Im (O psi)_k."""
    op, vecs = _hermitian_with_kernel(5)
    psi = [a + b * I for a, b in zip(vecs[2], vecs[4])]
    want = [Scalar(2 * part) for z in linalg.mat_vec(op, psi) for part in (z.re, z.im)]
    row = oplib.variational_equivalence_check(op, psi, "psi")
    assert row.actual == f"grad = {linalg.vector_text(want)}"


def test_variational_rejects_non_hermitian():
    op, vecs = _hermitian_with_kernel(3)
    op[0][1] = op[0][1] + 1  # one entry off by one
    with pytest.raises(oplib.NotHermitian):
        oplib.variational_equivalence_check(op, vecs[0], "psi")
    op[0][1] = op[0][1] - 1
    with pytest.raises(ValueError, match="nonzero"):
        oplib.variational_equivalence_check(op, [ZERO] * 5, "psi")


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def test_reports_deterministic_and_sorted():
    p = oplib.poincare_set(1)
    a = sort_reports(oplib.verify_commutator_table(p, oplib.poincare_table()))
    b = sort_reports(oplib.verify_commutator_table(p, oplib.poincare_table()))
    assert a == b
    assert [r.relation for r in a] == sorted(r.relation for r in a)
