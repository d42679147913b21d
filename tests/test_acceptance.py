"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one `[acceptance] ... PASS/FAIL` line (visible with
`pytest -s` or in captured output).  Tolerances are pinned here and never
loosened: exact checks assert zero residuals, and the float checks that
remain, which compare with float references (C03, C04 and C15), carry the
stated bounds.
"""

import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from linqm import branching, cli, collapse, fock, linalg, oplib, reps
from linqm.report import all_passed
from linqm.scalar import I, ONE, ZERO, Scalar
from linqm.weyl import DiffOp, Var

from test_reps import ladder_spin_matrix, mc_disk_pairing


@contextmanager
def criterion(cid: str, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {cid} {description}: FAIL")
        raise
    print(f"[acceptance] {cid} {description}: PASS")


def test_c01_rotation_generator_table():
    with criterion("C01", "rotation-generator commutator table exact"):
        reports = oplib.verify_commutator_table(
            oplib.rotation_generators(), oplib.ROTATION_TABLE)
        assert len(reports) == 3
        assert all(r.residual == "0" for r in reports)
        assert all_passed(reports)


def test_c02_spin_generator_table_and_hermiticity():
    with criterion("C02", "spin-generator table and hermiticity exact"):
        spin = oplib.spin_generators()
        table = oplib.verify_commutator_table(spin, oplib.SPIN_TABLE)
        assert len(table) == 3 and all_passed(table)
        assert all(r.residual == "0" for r in table)
        herm = oplib.verify_hermiticity(spin)
        assert len(herm) == 3 and all_passed(herm)


def test_c03_normalized_spin_matrices():
    with criterion("C03", "normalized spin matrices: half-sigma-x and spin-1"):
        spin = oplib.spin_generators()
        space1, space2 = reps.RepSpace.homogeneous(1), reps.RepSpace.homogeneous(2)
        deg1 = np.array(reps.matrix_rep(spin["Sx"], space1).normalized(space1))
        assert deg1.tolist() == [[0.0, 0.5], [0.5, 0.0]]  # exact float halves
        deg2 = np.array(reps.matrix_rep(spin["Sx"], space2).normalized(space2))
        assert np.max(np.abs(deg2 - ladder_spin_matrix(1.0))) <= 1e-12


def test_c04_pairing_closed_form_vs_monte_carlo():
    with criterion("C04", "disk-pairing closed form vs 1e6-sample integration"):
        cases = {(1, 0): Fraction(1), (2, 0): Fraction(2, 3), (1, 1): Fraction(1, 2)}
        for (a, b), expected in cases.items():
            mono = reps.monomial_poly((a, b))
            closed = reps.inner_product(mono, mono)
            assert closed == Scalar(expected)
            assert abs(mc_disk_pairing(a, b, a, b) - float(expected)) <= 1e-2
        # normalizer reproduction: squared norms match the printed constants
        assert reps.RepSpace.homogeneous(1).norms2 == [Fraction(1), Fraction(1)]
        assert reps.RepSpace.homogeneous(2).norms2 == [
            Fraction(2, 3), Fraction(1, 2), Fraction(2, 3)]


def test_c05_group_multiplication_rule():
    with criterion("C05", "rep(B)rep(A) = rep(BA) exact, 10 pairs, degrees 1-3"):
        rng = random.Random(2024)
        for degree in (1, 2, 3):
            space = reps.RepSpace.homogeneous(degree)
            for _ in range(10):
                a, b = reps.random_su2(rng), reps.random_su2(rng)
                lhs = (reps.rep_of_group_element(b, space)
                       @ reps.rep_of_group_element(a, space))
                assert lhs == reps.rep_of_group_element(linalg.mat_mul(b, a), space)


def test_c06_casimir_spectrum():
    with criterion("C06", "quadratic invariant s(s+1) on degrees 0-4 and blocks"):
        spin = oplib.spin_generators()
        for degree in range(5):
            space = reps.RepSpace.homogeneous(degree)
            _, blocks = reps.casimir_spectrum(spin, space)
            s = Fraction(degree, 2)
            assert blocks == [(s * (s + 1), list(range(degree + 1)))]
        mixed = reps.RepSpace.direct_sum([reps.RepSpace.homogeneous(1),
                                          reps.RepSpace.homogeneous(2)])
        _, blocks = reps.casimir_spectrum(spin, mixed)
        assert blocks == [(Fraction(3, 4), [0, 1]), (Fraction(2), [2, 3, 4])]


def test_c07_laplacian_invariant_under_exact_unitaries():
    with criterion("C07", "complex Laplacian fixed by 10 exact unitary maps"):
        lap = oplib.complex_laplacian()["O"]
        rng = random.Random(31)
        subs = [(f"A{k}", reps.substitution_of_matrix(reps.random_su2(rng)))
                for k in range(10)]
        reports = oplib.verify_substitution_invariance(lap, subs)
        assert len(reports) == 10 and all_passed(reports)


def test_c08_translation_subtable_readings_and_mutation_detection():
    with criterion("C08", "P-P table; dual-reading reports; mutation detection"):
        # (i) vanishing translation commutators, sites 1..3, exact
        for n in (1, 2, 3):
            p = oplib.translation_generators(n)
            reports = oplib.verify_commutator_table(p, oplib.translation_table())
            assert all(r.residual == "0" for r in reports)
        # (ii) deterministic residual reports for both index readings
        eta = [[ZERO, ONE], [-ONE, ZERO]]
        for reading in ("site-slot", "slot-site"):
            st = oplib.build_spacetime_map(eta, reading=reading)
            first = oplib.verify_spacetime_relations(
                oplib.translation_generators(2), st)
            second = oplib.verify_spacetime_relations(
                oplib.translation_generators(2), st)
            assert first == second and len(first) == 16
        full_first = oplib.verify_commutator_table(
            oplib.poincare_set(1), oplib.poincare_table())
        full_second = oplib.verify_commutator_table(
            oplib.poincare_set(1), oplib.poincare_table())
        assert full_first == full_second
        # (iii) seeded single-coefficient errors always detected
        for which, table in (("xyz", oplib.ROTATION_TABLE),
                             ("su2", oplib.SPIN_TABLE)):
            base = oplib.build_operators(which)
            for label in base.labels():
                for idx in range(base[label].n_terms()):
                    mutated = base.perturbed(label, idx, 2)
                    assert not all_passed(
                        oplib.verify_commutator_table(mutated, table)), (label, idx)


def test_c09_translation_flow():
    with criterion("C09", "translation flow terminates early; slot-1 fixed"):
        p = oplib.translation_generators(1)
        xs = [Scalar(Fraction(1)), Scalar(Fraction(-2, 3)),
              Scalar(Fraction(5)), Scalar(Fraction(1, 7))]
        gen = DiffOp.sum(p[f"P{mu}"].scale(I * xs[mu]) for mu in range(4))
        for var in (Var("u", 1, 1), Var("v", 1, 1), Var("u", 2, 1), Var("v", 2, 1)):
            assert oplib.flow_termination_order(gen, var) <= 2
        reports = oplib.translation_flow_check(p, xs)
        by_rel = {r.relation: r for r in reports}
        assert by_rel["exp(iP.x) u[1,1] (terminates at order 0)"].residual == "0"
        assert by_rel["exp(iP.x) v[1,1] (terminates at order 0)"].residual == "0"


def test_c10_variational_equivalence():
    with criterion("C10", "gradient-zero iff residual-zero on 20 exact matrices"):
        rows = oplib.variational_lemma()
        assert len(rows) == oplib.VARIATIONAL_TRIALS == 20
        for trial, row in enumerate(rows):
            # exactly zero gradient and O psi in the kernel, neither outside it
            in_kernel = trial % 2 == 0
            assert ("kernel" in row.relation) == in_kernel
            assert (row.expected == "O psi = 0") == in_kernel
            assert (row.actual == "grad = 0") == in_kernel
            assert row.passed and row.residual == "0"


def test_c11_car_and_slater_equivalence():
    with criterion("C11", "anticommutators exact M=1..4; Slater signs k<=4"):
        for modes in (1, 2, 3, 4):
            assert all_passed(fock.verify_car(modes))
        modes = 6
        for k in (1, 2, 3, 4):
            for subset in itertools.combinations(range(modes), k):
                base = fock.antisymmetrize(
                    fock.LabeledKet.of(*[(m, i + 1) for i, m in enumerate(subset)]))
                for perm in itertools.permutations(subset):
                    inv = sum(1 for i in range(k) for j in range(i + 1, k)
                              if perm[i] > perm[j])
                    parity = -1 if inv % 2 else 1
                    anti = fock.antisymmetrize(
                        fock.LabeledKet.of(*[(m, i + 1) for i, m in enumerate(perm)]))
                    assert anti == (base if parity == 1 else -base)
                    state = fock.FockState.vacuum(modes)
                    sign = 1
                    for mode in reversed(perm):
                        s, state = fock.apply_ladder(state, "create", mode)
                        sign *= s
                    assert sign == parity


def test_c12_exchange_signs_and_exclusion():
    with criterion("C12", "both exchange types give -1; duplicates vanish"):
        base = fock.antisymmetrize(fock.LabeledKet.of(("A", 1), ("B", 2)))
        assert fock.antisymmetrize(fock.LabeledKet.of(("B", 1), ("A", 2))) == -base
        assert fock.antisymmetrize(fock.LabeledKet.of(("A", 2), ("B", 1))) == -base
        assert fock.antisymmetrize(fock.LabeledKet.of(("A", 1), ("A", 2))).is_zero


def test_c13_branching_scenarios():
    with criterion("C13", "mirror/two-observer/grains/trajectory scenarios"):
        r = 1 / math.sqrt(2)
        state, reports = branching.run_scenario("mirror", {"amps": [r, r]})
        assert all_passed(reports) and len(state.branches) == 2
        assert state.branches[0].records["Obs1"] == "I see only yes, no"
        assert state.branches[1].records["Obs1"] == "I see only no, yes"

        state, reports = branching.run_scenario("two_observers", {"amps": [r, r]})
        assert all_passed(reports)
        assert all(
            b.records["Obs2"] == branching.OBS2_SEES.format(
                h=b.records["DetH"], v=b.records["DetV"])
            for b in state.branches)

        state, reports = branching.run_scenario("grains", {"n": 8})
        assert all_passed(reports) and len(state.branches) == 8
        for b in state.branches:
            exposed = [k for k, val in b.records.items()
                       if k.startswith("grain-") and val == "exposed"]
            assert len(exposed) == 1

        state, reports = branching.run_scenario("trajectory",
                                                {"n": 8, "layers": 3})
        assert all_passed(reports) and len(state.branches) == 8

        assert branching.coefficient_independence_check(
            "mirror", {"amps": [r, r]}, {"amps": [1.0, 0.0]})
        a, _ = branching.run_scenario("grains", {"n": 6})
        b, _ = branching.run_scenario(
            "grains", {"n": 6, "weights": [math.sqrt(p) for p in
                                           (0.4, 0.1, 0.1, 0.1, 0.2, 0.1)]})
        assert a.record_structure() == b.record_structure()


def test_c14_eigen_branch_lemma():
    with criterion("C14", "phase-separation lemma on 50 exact spectral instances"):
        rows = branching.eigen_branch_lemma()
        instances, controls = rows[:50], rows[50:]
        assert len(instances) == branching.EIGEN_BRANCH_INSTANCES == 50
        assert len(controls) == branching.EIGEN_BRANCH_CONTROLS
        assert [r.relation.endswith("(control)") for r in rows] == [False] * 50 + [True] * 10
        # exactly zero hypothesis and conclusion residuals on every instance
        assert all(r.actual == "hypothesis 0, conclusion 0" for r in instances)
        # and a nonzero hypothesis residual on every control
        assert not any(r.actual.startswith("hypothesis 0") for r in controls)
        assert all_passed(rows)


def test_c15_collapse_schemes():
    with criterion("C15", "linear schemes coefficient-blind; ruin matches weights"):
        # bit-identical traces across different amplitude vectors
        for scheme in ("linear_drift", "linear_noise"):
            cfg_a = collapse.CollapseConfig.from_probs(
                [0.5, 0.5], scheme, runs=32, seed=21, steps=1500, record_traces=32)
            cfg_b = collapse.CollapseConfig.from_probs(
                [0.3, 0.7], scheme, runs=32, seed=21, steps=1500, record_traces=32)
            tr_a, _ = collapse.run_scheme(cfg_a)
            tr_b, _ = collapse.run_scheme(cfg_b)
            assert all(np.array_equal(a.x, b.x) for a, b in zip(tr_a, tr_b))

        cfg = collapse.CollapseConfig.from_probs(
            [0.3, 0.7], "nonlinear_ruin", runs=20_000, seed=11, steps=40_000)
        _, summary = collapse.run_scheme(cfg)
        born = collapse.born_test(summary, cfg.amplitudes)
        assert summary.nonconverged == 0
        assert abs(born.frequencies[0] - 0.300) <= 0.010
        assert born.passed

        cfg3 = collapse.CollapseConfig.from_probs(
            [0.1, 0.2, 0.7], "nonlinear_ruin", runs=20_000, seed=13, steps=60_000)
        _, summary3 = collapse.run_scheme(cfg3)
        born3 = collapse.born_test(summary3, cfg3.amplitudes)
        done = sum(summary3.winner_counts)
        for freq, target in zip(born3.frequencies, born3.targets):
            sigma = math.sqrt(target * (1 - target) / done)
            assert abs(freq - target) <= 3 * sigma
        assert born3.passed


def test_c16_cli_determinism(tmp_path):
    with criterion("C16", "repeated seeded CLI invocations byte-identical"):
        invocations = [
            ["verify", "lie", "--set", "poincare-reconstructed"],
            ["verify", "spacetime", "--random-eta", "8", "--n", "3",
             "--reconstructed"],
            ["repr", "homomorphism", "--degree", "2", "--pairs", "6",
             "--seed", "3"],
            ["collapse", "run", "--scheme", "nonlinear_ruin",
             "--amps", "0.4,0.6", "--runs", "600", "--seed", "19",
             "--steps", "15000"],
            ["collapse", "run", "--scheme", "linear_drift",
             "--amps", "0.5,0.5", "--runs", "64", "--seed", "4",
             "--steps", "2000"],
        ]
        for k, args in enumerate(invocations):
            f1 = tmp_path / f"first-{k}.json"
            f2 = tmp_path / f"second-{k}.json"
            cli.main(args + ["--out", str(f1)])
            cli.main(args + ["--out", str(f2)])
            assert f1.read_bytes() == f2.read_bytes(), args
