import math
import random

import numpy as np
import pytest

from linqm import branching, linalg
from linqm.report import all_passed
from linqm.scalar import I, ONE, gaussian

R = 1 / math.sqrt(2)


# ----------------------------------------------------------------------
# rules and isolation
# ----------------------------------------------------------------------
def test_identity_rule_leaves_state_unchanged():
    state = branching.StateVector([branching.Branch(0.5 + 0.5j, {"a": "x"})])
    rule = branching.Rule("id", guard=lambda rec: True,
                          effect=branching.static_effect([(1.0, {})]))
    out = branching.apply_rule(state, rule)
    assert out.branches == state.branches


def test_non_unitary_rule_rejected_unless_flagged():
    state = branching.StateVector([branching.Branch(1.0, {"a": "x"})])
    rule = branching.Rule("boost", guard=lambda rec: True,
                          effect=branching.static_effect([(2.0, {})]))
    with pytest.raises(branching.NonUnitaryRule):
        branching.apply_rule(state, rule)
    flagged = branching.Rule("boost", guard=lambda rec: True,
                             effect=branching.static_effect([(2.0, {})]),
                             non_unitary=True)
    out = branching.apply_rule(state, flagged)
    assert out.branches[0].amplitude == 2.0


def test_amplitude_reading_rule_rejected_at_construction():
    with pytest.raises(branching.RuleConstructionError):
        branching.Rule("bad", guard=lambda amp, rec: True,
                       effect=branching.static_effect([(1.0, {})]))
    with pytest.raises(branching.RuleConstructionError):
        branching.Rule("bad", guard=lambda rec: True,
                       effect=lambda amp, rec: [(1.0, {})])


def test_rule_cannot_invent_subsystems():
    state = branching.StateVector([branching.Branch(1.0, {"a": "x"})])
    rule = branching.Rule("stray", guard=lambda rec: True,
                          effect=branching.static_effect([(1.0, {"new": "y"})]))
    with pytest.raises(branching.BadParams):
        branching.apply_rule(state, rule)


def test_rule_cannot_write_into_its_record_map():
    """Guards and effects see each branch's records read-only: assigning
    into them raises TypeError and leaves the ledger as it was."""
    def assign(rec):
        rec["a"] = "y"
        return True

    rules = [branching.Rule("guard-writes", guard=assign,
                            effect=branching.static_effect([(1.0, {})])),
             branching.Rule("effect-writes", guard=lambda rec: True,
                            effect=lambda rec: assign(rec) and [(1.0, {})])]
    for rule in rules:
        state = branching.StateVector([branching.Branch(1.0, {"a": "x"})])
        with pytest.raises(TypeError):
            branching.apply_rule(state, rule)
        assert state.branches == [branching.Branch(1.0, {"a": "x"})]


def test_isolation_rule_distributes_over_concatenation():
    b1 = branching.Branch(0.6, {"a": "x", "b": ""})
    b2 = branching.Branch(0.8j, {"a": "y", "b": ""})
    rule = branching.Rule(
        "mark", guard=lambda rec: rec["a"] == "x",
        effect=branching.static_effect([(R, {"b": "l"}), (R, {"b": "r"})]))
    joint = branching.apply_rule(branching.StateVector([b1, b2]), rule)
    alone1 = branching.apply_rule(branching.StateVector([b1]), rule)
    alone2 = branching.apply_rule(branching.StateVector([b2]), rule)
    assert joint.branches == alone1.branches + alone2.branches


def test_norm_preserved_across_rule_sequences():
    state, _ = branching.run_scenario("trajectory", {"n": 5, "layers": 4, "hop": 1})
    assert abs(state.norm2() - 1.0) <= 1e-12


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def test_mirror_reproduces_expected_records():
    state, reports = branching.run_scenario("mirror", {"amps": [R, R]})
    assert all_passed(reports)
    assert len(state.branches) == 2
    recs = [b.records for b in state.branches]
    assert recs[0]["DetH"] == "yes" and recs[0]["DetV"] == "no"
    assert recs[0]["Obs1"] == "I see only yes, no"
    assert recs[1]["DetH"] == "no" and recs[1]["DetV"] == "yes"
    assert recs[1]["Obs1"] == "I see only no, yes"
    assert abs(state.branches[0].amplitude - R) < 1e-15


def test_two_observers_always_agree():
    state, reports = branching.run_scenario("two_observers", {"amps": [0.6, 0.8]})
    assert all_passed(reports)
    for b in state.branches:
        assert b.records["Obs2"] == branching.OBS2_SEES.format(
            h=b.records["DetH"], v=b.records["DetV"])


def test_grains_single_exposure():
    state, reports = branching.run_scenario("grains", {"n": 8})
    assert all_passed(reports)
    assert len(state.branches) == 8
    for j, b in enumerate(state.branches, start=1):
        exposed = [k for k, val in b.records.items()
                   if k.startswith("grain-") and val == "exposed"]
        assert exposed == [f"grain-{j}"]
        assert b.records["Obs"] == f"only grain {j} exposed"


def test_trajectory_straight_lines():
    state, reports = branching.run_scenario("trajectory", {"n": 8, "layers": 3})
    assert all_passed(reports)
    assert len(state.branches) == 8
    for b in state.branches:
        lanes = {k.split(",")[1].rstrip("]")
                 for k, val in b.records.items()
                 if k.startswith("grain[") and val == "exposed"}
        assert len(lanes) == 1


def test_trajectory_with_hop_stays_adjacent():
    state, reports = branching.run_scenario(
        "trajectory", {"n": 4, "layers": 3, "hop": 1})
    assert all_passed(reports)
    assert len(state.branches) > 4


@pytest.mark.parametrize("n,layers,hop", [(1, 4, 1), (4, 1, 1), (4, 3, 1), (5, 4, 1),
                                           (6, 3, 0)])
def test_trajectory_paths_counts_branches(n, layers, hop):
    state, _ = branching.run_scenario(
        "trajectory", {"n": n, "layers": layers, "hop": hop})
    assert branching.trajectory_paths(n, layers, hop) == len(state.branches)


def test_bad_params():
    with pytest.raises(branching.BadParams):
        branching.run_scenario("grains", {"n": 0})
    with pytest.raises(branching.BadParams):
        branching.run_scenario("nope", {})
    with pytest.raises(branching.BadParams):
        branching.run_scenario("mirror", {"amps": [1.0, 1.0]})


@pytest.mark.parametrize("raw,value", [
    (1, 1 + 0j), (0.6, 0.6 + 0j), (0.8j, 0.8j), ([0.6, 0.8], 0.6 + 0.8j),
    ((0, -1), -1j),
])
def test_parse_weight_accepted_forms(raw, value):
    parsed = branching.parse_weight(raw)
    assert type(parsed) is complex and parsed == value


@pytest.mark.parametrize("raw", [
    True, "0.5", None, [0.6], [0.6, 0, 5], [0.6, "0"], [True, 0], [0.6j, 0],
    float("nan"), float("inf"), complex(0, float("nan")), [0.6, float("-inf")],
])
def test_parse_weight_refuses_other_forms(raw):
    with pytest.raises(branching.BadParams):
        branching.parse_weight(raw)


def test_nan_weight_fails_the_unitarity_check():
    state = branching.StateVector([branching.Branch(1.0, {"a": "x"})])
    rule = branching.Rule("nan", guard=lambda rec: True,
                          effect=branching.static_effect([(float("nan"), {})]))
    with pytest.raises(branching.NonUnitaryRule):
        branching.apply_rule(state, rule)


def test_branch_cap_bounds_every_rule():
    state = branching.StateVector([branching.Branch(1.0 + 0j, {"a": "x"})])

    def split(count):
        return branching.Rule("split", guard=lambda rec: True, non_unitary=True,
                              effect=branching.static_effect([(1.0, {})] * count))

    cap = branching.MAX_BRANCHES
    assert len(branching.apply_rule(state, split(cap)).branches) == cap
    with pytest.raises(branching.BadParams):
        branching.apply_rule(state, split(cap + 1))


def test_custom_scenario_from_rule_specs():
    params = {
        "initial": {"coin": "up", "obs": ""},
        "rules": [
            {"name": "flip", "guard": {"coin": "up"},
             "effect": [{"weight": R, "set": {"coin": "heads"}},
                        {"weight": [0, R], "set": {"coin": "tails"}}]},
            {"name": "look", "guard": {"obs": ""},
             "effect": [{"weight": 1.0, "set": {"obs": "seen"}}]},
        ],
    }
    state, reports = branching.run_scenario("custom", params)
    assert all_passed(reports)
    assert [b.records["coin"] for b in state.branches] == ["heads", "tails"]
    assert state.branches[1].amplitude == complex(0, R)
    with pytest.raises(branching.BadParams):
        branching.run_scenario("custom", {"initial": {"a": "x"}})
    with pytest.raises(branching.BadParams):
        branching.run_scenario("custom", {
            "initial": {"a": "x"},
            "rules": [{"name": "broken", "guard": {}}],
        })


# ----------------------------------------------------------------------
# coefficient independence
# ----------------------------------------------------------------------
def test_mirror_coefficient_independence():
    assert branching.coefficient_independence_check(
        "mirror", {"amps": [R, R]}, {"amps": [1.0, 0.0]})


def test_grains_coefficient_independence():
    rng = np.random.default_rng(4)
    w = rng.uniform(0.1, 1.0, 6)
    w = np.sqrt(w / w.sum())
    assert branching.coefficient_independence_check(
        "grains", {"n": 6}, {"n": 6, "weights": list(w)})


def test_structures_differ_across_scenarios():
    a, _ = branching.run_scenario("grains", {"n": 4})
    b, _ = branching.run_scenario("grains", {"n": 5})
    assert a.record_structure() != b.record_structure()


# ----------------------------------------------------------------------
# eigenvalue lemma
# ----------------------------------------------------------------------
def hermitian_with_eigenpair(seed, dim):
    """M with the eigenvalue 2 on its first two eigenvectors and -1, -2, ...
    on the others, and its eigenvectors."""
    return linalg.random_hermitian(random.Random(seed), [2, 2] + [-k for k in range(1, dim - 1)])


PHASES = [(ONE, ONE), (gaussian(3, 4, 5), gaussian(5, -12, 13))]


def test_lemma_shared_eigenspace():
    m, cols = hermitian_with_eigenpair(0, 6)
    y = [a + b * gaussian(1, 2, 1) for a, b in zip(cols[0], cols[1])]
    row = branching.eigen_branch_check(m, cols[0], y, 2, PHASES, "shared")
    assert row.passed and row.residual == "0"
    assert row.actual == "hypothesis 0, conclusion 0"


def test_lemma_vacuous_when_eigenvalues_differ():
    """y of eigenvalue -1 breaks the hypothesis.  As a lemma instance the row
    fails instead of passing on the failed hypothesis; as a control it passes."""
    m, cols = hermitian_with_eigenpair(1, 6)
    row = branching.eigen_branch_check(m, cols[0], cols[2], 2, PHASES, "differ")
    assert not row.passed and row.residual == row.actual
    assert not row.actual.startswith("hypothesis 0")
    control = branching.eigen_branch_check(m, cols[0], cols[2], 2, PHASES, "differ",
                                           control=True)
    assert control.passed and control.residual == "0"
    same = branching.eigen_branch_check(m, cols[0], cols[1], 2, PHASES, "same",
                                        control=True)
    assert not same.passed and same.residual == same.actual
    assert same.actual.startswith("hypothesis 0,")


def test_lemma_requires_generic_phases():
    m, cols = hermitian_with_eigenpair(2, 4)
    with pytest.raises(branching.DegeneratePhases):
        branching.eigen_branch_check(m, cols[0], cols[1], 2, [(ONE, ONE)], "one pair")
    with pytest.raises(branching.DegeneratePhases):
        branching.eigen_branch_check(m, cols[0], cols[1], 2, [(ONE, ONE), (I, I)],
                                     "parallel pairs")

