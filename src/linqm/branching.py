"""Branch-ledger simulator for measurement scenarios.

A state vector is a list of branches; each branch carries one complex
amplitude and a closed record map (every subsystem named by the scenario
appears exactly once).  Evolution rules are structurally amplitude blind:
a rule's guard and effect receive only the record map, never the branch
amplitude, so per-branch evolution cannot depend on the coefficients.
That structural constraint is the whole point: record structure after any
rule sequence is a function of the rules alone, and amplitudes ride along
multiplicatively.

Built-in scenarios: ``mirror`` (two detectors and an observer),
``two_observers`` (adds a second observer who reports agreement),
``grains`` (one spread-out wave over N film grains, exactly one exposure
per branch), ``trajectory`` (L grain layers; straight dynamics gives N
collinear-exposure branches, an optional lateral hop of one lane widens
them to adjacent-lane paths).
"""

from __future__ import annotations

import inspect
import math
import numbers
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from . import linalg
from .report import RelationReport
from .scalar import ONE, Scalar, ScalarLike, gaussian

NORM_TOL = 1e-12
# Size caps.  Every branch carries one record per subsystem, so the ledger
# grows as branches x subsystems: ``grains`` with n grains holds n^2 records,
# and a trajectory one per grain per lane path.  MAX_GRAINS bounds the film
# scenarios; MAX_BRANCHES bounds every ledger, custom rule files included.
MAX_GRAINS = 1000
MAX_BRANCHES = 5000


class NonUnitaryRule(ValueError):
    """A rule's split weights do not preserve the branch norm."""


class BadParams(ValueError):
    """Scenario parameters are inconsistent."""


class RuleConstructionError(TypeError):
    """A rule callable does not have the records-only signature."""


class DegeneratePhases(ValueError):
    """The supplied phase pairs cannot separate the two components."""


# ----------------------------------------------------------------------
# branches, rules, evolution
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Branch:
    amplitude: complex
    records: Mapping[str, str]

    def record_items(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.records.items()))


@dataclass
class StateVector:
    branches: list[Branch]

    def norm2(self) -> float:
        return float(sum(abs(b.amplitude) ** 2 for b in self.branches))

    def record_structure(self) -> tuple[tuple[tuple[str, str], ...], ...]:
        """Amplitude-free signature of the ledger, in branch order."""
        return tuple(b.record_items() for b in self.branches)

    def subsystems(self) -> frozenset[str]:
        keys = {k for b in self.branches for k in b.records}
        return frozenset(keys)


Effect = list[tuple[complex, dict[str, str]]]


def _records_only(fn: Callable, kind: str) -> None:
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        raise RuleConstructionError(f"{kind} must be a plain callable")
    positional = [p for p in sig.parameters.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                  and p.default is p.empty]
    if len(positional) != 1:
        raise RuleConstructionError(
            f"{kind} must take exactly the record map; amplitudes are not "
            f"readable by construction (got {len(positional)} required args)")


@dataclass
class Rule:
    """One amplitude-blind evolution step.

    ``guard`` decides from the records whether the rule acts on a branch;
    ``effect`` maps the records to a list of (weight, record rewrite)
    children.  Non-matching branches pass through unchanged.  Weights must
    satisfy sum |w|^2 = 1 unless the rule is flagged non-unitary.
    """

    name: str
    guard: Callable[[Mapping[str, str]], bool]
    effect: Callable[[Mapping[str, str]], Effect]
    non_unitary: bool = False

    def __post_init__(self) -> None:
        _records_only(self.guard, f"rule {self.name!r} guard")
        _records_only(self.effect, f"rule {self.name!r} effect")


def static_effect(children: Effect) -> Callable[[Mapping[str, str]], Effect]:
    def effect(records: Mapping[str, str]) -> Effect:
        return children
    return effect


def apply_rule(state: StateVector, rule: Rule) -> StateVector:
    """Evolve each branch independently; no cross-branch reads are possible.

    Raises ``BadParams`` as soon as the new ledger passes ``MAX_BRANCHES``
    branches, before the rest of it is built.
    """
    subsystems = state.subsystems()
    out: list[Branch] = []
    for branch in state.branches:
        view = MappingProxyType(dict(branch.records))
        if not rule.guard(view):
            out.append(branch)
            continue
        children = rule.effect(view)
        weight_norm = sum(abs(w) ** 2 for w, _ in children)
        if not rule.non_unitary and not abs(weight_norm - 1.0) <= NORM_TOL:
            raise NonUnitaryRule(
                f"rule {rule.name!r} split norm is {weight_norm!r}")
        for weight, rewrite in children:
            stray = set(rewrite) - set(subsystems)
            if stray:
                raise BadParams(f"rule {rule.name!r} writes unknown subsystems {stray}")
            records = {**branch.records, **rewrite}
            out.append(Branch(branch.amplitude * weight, records))
        if len(out) > MAX_BRANCHES:
            raise BadParams(f"rule {rule.name!r} grows the ledger past the cap of "
                            f"{MAX_BRANCHES} branches")
    return StateVector(out)


def apply_rules(state: StateVector, rules: Iterable[Rule]) -> StateVector:
    for rule in rules:
        state = apply_rule(state, rule)
    return state


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def parse_weight(w) -> complex:
    """One scenario amplitude or weight: a number (a Python complex
    included) or an [re, im] pair of real numbers, whose |w|^2 is a finite
    float, so that every norm sum can square it."""
    pair = isinstance(w, (list, tuple)) and len(w) == 2
    kind = numbers.Real if pair else numbers.Number
    parts = w if pair else [w]
    if all(isinstance(p, kind) and not isinstance(p, bool) for p in parts):
        value = complex(*parts)
        try:
            if math.isfinite(abs(value) ** 2):
                return value
        except OverflowError:
            pass
    raise BadParams(f"weight {w!r} is not a number or [re, im] pair "
                    "with finite |w|^2")


def _int_param(params: Mapping, key: str, default: int) -> int:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParams(f"{key!r} must be an integer, got {value!r}")
    return value


def _unit_weights(params: Mapping, key: str, n: int) -> list[complex]:
    """The n weights under ``key`` (uniform when absent), of unit norm."""
    weights = params.get(key)
    if weights is None:
        return [complex(1 / math.sqrt(n))] * n
    if not isinstance(weights, (list, tuple)) or len(weights) != n:
        raise BadParams(f"{key!r} must list {n} weights")
    ws = [parse_weight(w) for w in weights]
    if not abs(sum(abs(w) ** 2 for w in ws) - 1.0) <= NORM_TOL:
        raise BadParams(f"{key!r} must have unit norm")
    return ws


OBS_SEES = 'I see only {h}, {v}'
OBS2_SEES = "I see {h}, {v}, in agreement with Obs. 1."


def mirror_rules(amp_h: complex, amp_v: complex,
                 with_second_observer: bool = False) -> list[Rule]:
    split = Rule(
        "beam-splitter",
        guard=lambda rec: rec["photon"] == "source",
        effect=static_effect([(amp_h, {"photon": "H-path"}),
                              (amp_v, {"photon": "V-path"})]),
    )

    def detect(rec: Mapping[str, str]) -> Effect:
        hit_h = rec["photon"] == "H-path"
        return [(1.0, {"photon": "absorbed",
                       "DetH": "yes" if hit_h else "no",
                       "DetV": "no" if hit_h else "yes"})]

    detectors = Rule("detectors",
                     guard=lambda rec: rec["photon"] in ("H-path", "V-path"),
                     effect=detect)

    def observe(rec: Mapping[str, str]) -> Effect:
        return [(1.0, {"Obs1": OBS_SEES.format(h=rec["DetH"], v=rec["DetV"])})]

    rules = [split, detectors,
             Rule("observer-1", guard=lambda rec: rec["Obs1"] == "", effect=observe)]
    if with_second_observer:
        def observe2(rec: Mapping[str, str]) -> Effect:
            return [(1.0, {"Obs2": OBS2_SEES.format(h=rec["DetH"], v=rec["DetV"])})]

        rules.append(Rule("observer-2",
                          guard=lambda rec: rec["Obs2"] == "", effect=observe2))
    return rules


def _mirror_initial(with_second_observer: bool) -> StateVector:
    records = {"photon": "source", "DetH": "no", "DetV": "no", "Obs1": ""}
    if with_second_observer:
        records["Obs2"] = ""
    return StateVector([Branch(1.0 + 0j, records)])


def _report(suite: str, relation: str, ok: bool, detail: str = "") -> RelationReport:
    return RelationReport(suite=suite, relation=relation, expected="true",
                          actual=detail or str(ok), residual="" if ok else detail,
                          passed=ok)


def run_mirror(params: Mapping, second_observer: bool = False
               ) -> tuple[StateVector, list[RelationReport]]:
    amp_h, amp_v = _unit_weights(params, "amps", 2)
    state = apply_rules(_mirror_initial(second_observer),
                        mirror_rules(amp_h, amp_v, second_observer))
    suite = "branching:two_observers" if second_observer else "branching:mirror"
    reports = [
        _report(suite, "final state has exactly two branches",
                len(state.branches) == 2, f"{len(state.branches)} branches"),
        _report(suite, "norm is conserved",
                abs(state.norm2() - 1.0) <= NORM_TOL, f"norm2 = {state.norm2()!r}"),
        _report(suite, "no branch shows both detectors firing",
                all(not (b.records["DetH"] == "yes" and b.records["DetV"] == "yes")
                    for b in state.branches)),
        _report(suite, "each observer record reports a single outcome",
                all(b.records["Obs1"] == OBS_SEES.format(h=b.records["DetH"],
                                                         v=b.records["DetV"])
                    for b in state.branches)),
    ]
    if second_observer:
        agree = all(
            b.records["Obs2"] == OBS2_SEES.format(h=b.records["DetH"],
                                                  v=b.records["DetV"])
            for b in state.branches)
        reports.append(_report(suite, "observers never disagree on any branch", agree))
    return state, reports


def run_grains(params: Mapping) -> tuple[StateVector, list[RelationReport]]:
    n = _int_param(params, "n", 8)
    if n < 1:
        raise BadParams("need at least one grain")
    if n > MAX_GRAINS:
        raise BadParams(f"{n} grains exceed the cap of {MAX_GRAINS}")
    weights = _unit_weights(params, "weights", n)
    grain_keys = [f"grain-{j}" for j in range(1, n + 1)]
    records = {"electron": "incoming", "Obs": ""}
    records.update({k: "unexposed" for k in grain_keys})
    state = StateVector([Branch(1.0 + 0j, records)])

    spread = Rule(
        "grain-layer",
        guard=lambda rec: rec["electron"] == "incoming",
        effect=static_effect([
            (w, {"electron": f"at-grain-{j + 1}", grain_keys[j]: "exposed"})
            for j, w in enumerate(weights)]),
    )

    def observe(rec: Mapping[str, str]) -> Effect:
        exposed = [k for k in grain_keys if rec[k] == "exposed"]
        label = exposed[0].split("-", 1)[1] if len(exposed) == 1 else "?"
        return [(1.0, {"Obs": f"only grain {label} exposed"})]

    state = apply_rules(state, [
        spread, Rule("grain-observer", guard=lambda rec: rec["Obs"] == "",
                     effect=observe)])

    suite = "branching:grains"
    one_each = all(
        sum(1 for k in grain_keys if b.records[k] == "exposed") == 1
        for b in state.branches)
    obs_pure = all(
        b.records["Obs"] == "only grain " + next(
            k for k in grain_keys if b.records[k] == "exposed").split("-", 1)[1]
        + " exposed"
        for b in state.branches)
    reports = [
        _report(suite, f"exactly {n} branches", len(state.branches) == n,
                f"{len(state.branches)} branches"),
        _report(suite, "norm is conserved",
                abs(state.norm2() - 1.0) <= NORM_TOL, f"norm2 = {state.norm2()!r}"),
        _report(suite, "exactly one exposed grain per branch", one_each),
        _report(suite, "observer record is a pure function of own-branch grains",
                obs_pure),
    ]
    return state, reports


def trajectory_paths(lanes: int, layers: int, hop: int) -> int:
    """Lane paths through the layers that move at most ``hop`` lanes per layer:
    the branch count of a trajectory scenario."""
    ways = [1] * lanes
    for _ in range(layers - 1):
        ways = [sum(ways[max(0, i - hop):i + hop + 1]) for i in range(lanes)]
    return sum(ways)


def run_trajectory(params: Mapping) -> tuple[StateVector, list[RelationReport]]:
    n = _int_param(params, "n", 8)
    layers = _int_param(params, "layers", 3)
    hop = _int_param(params, "hop", 0)
    if layers < 1 or n < 1:
        raise BadParams("need at least one layer and one grain per layer")
    if hop not in (0, 1):
        raise BadParams("lateral hop is at most one lane")
    if n * layers > MAX_GRAINS:
        raise BadParams(f"{n} x {layers} grains exceed the cap of {MAX_GRAINS}")
    n_paths = trajectory_paths(n, layers, hop)
    if n_paths > MAX_BRANCHES:
        raise BadParams(f"{n_paths} lane paths exceed the cap of {MAX_BRANCHES} branches")
    weights = _unit_weights(params, "weights", n)

    keys = {(layer, lane): f"grain[{layer},{lane}]"
            for layer in range(1, layers + 1) for lane in range(1, n + 1)}
    records = {"electron": "incoming", "Obs": ""}
    records.update({k: "unexposed" for k in keys.values()})
    state = StateVector([Branch(1.0 + 0j, records)])

    first = Rule(
        "layer-1",
        guard=lambda rec: rec["electron"] == "incoming",
        effect=static_effect([
            (w, {"electron": f"lane-{lane}", keys[(1, lane)]: "exposed"})
            for lane, w in zip(range(1, n + 1), weights)]),
    )
    state = apply_rule(state, first)

    for layer in range(2, layers + 1):
        def advance(rec: Mapping[str, str], layer: int = layer) -> Effect:
            lane = int(rec["electron"].split("-", 1)[1])
            lanes = [lane + d for d in range(-hop, hop + 1)
                     if 1 <= lane + d <= n]
            w = 1 / math.sqrt(len(lanes))
            return [(w, {"electron": f"lane-{t}", keys[(layer, t)]: "exposed"})
                    for t in lanes]

        state = apply_rule(state, Rule(
            f"layer-{layer}",
            guard=lambda rec: rec["electron"].startswith("lane-"),
            effect=advance))

    def observe(rec: Mapping[str, str]) -> Effect:
        path = []
        for layer in range(1, layers + 1):
            lanes = [lane for lane in range(1, n + 1)
                     if rec[keys[(layer, lane)]] == "exposed"]
            path.append(lanes[0] if len(lanes) == 1 else 0)
        return [(1.0, {"Obs": "trajectory " + ",".join(map(str, path))})]

    state = apply_rule(state, Rule(
        "trajectory-observer", guard=lambda rec: rec["Obs"] == "", effect=observe))

    def branch_path(branch: Branch) -> list[list[int]]:
        return [[lane for lane in range(1, n + 1)
                 if branch.records[keys[(layer, lane)]] == "exposed"]
                for layer in range(1, layers + 1)]

    paths = [branch_path(b) for b in state.branches]
    one_per_layer = all(all(len(lanes) == 1 for lanes in p) for p in paths)
    if hop == 0:
        connected = all(len({lanes[0] for lanes in p}) == 1 for p in paths)
        shape = "collinear"
        expected_branches = n
    else:
        connected = all(
            all(abs(p[k + 1][0] - p[k][0]) <= 1 for k in range(layers - 1))
            for p in paths)
        shape = "adjacent-lane"
        expected_branches = None

    suite = "branching:trajectory"
    reports = [
        _report(suite, "norm is conserved",
                abs(state.norm2() - 1.0) <= NORM_TOL, f"norm2 = {state.norm2()!r}"),
        _report(suite, "exactly one exposure in every layer of every branch",
                one_per_layer),
        _report(suite, f"every branch traces a {shape} path", connected),
        _report(suite, "observer record matches own-branch exposures",
                all(b.records["Obs"] == "trajectory " +
                    ",".join(str(lanes[0]) for lanes in p)
                    for b, p in zip(state.branches, paths))),
    ]
    if expected_branches is not None:
        reports.insert(0, _report(
            suite, f"exactly {expected_branches} branches",
            len(state.branches) == expected_branches,
            f"{len(state.branches)} branches"))
    return state, reports


def rule_from_spec(doc: Mapping) -> Rule:
    """Build an amplitude-blind rule from its JSON form.

    The guard is an equality conjunction over records; the effect is a
    static list of {weight, set} children; ``parse_weight`` reads each
    weight.
    """
    if not isinstance(doc, Mapping):
        raise BadParams(f"rule {doc!r} is not an object")
    try:
        name = doc["name"]
        guard_spec = doc.get("guard") or {}
        effect_spec = doc["effect"]
    except KeyError as missing:
        raise BadParams(f"rule is missing field {missing}")
    if not (isinstance(guard_spec, Mapping) and isinstance(effect_spec, list)
            and all(isinstance(child, Mapping)
                    and isinstance(child.get("set") or {}, Mapping)
                    for child in effect_spec)):
        raise BadParams(f"rule {name!r}: 'guard' must be an object and 'effect' "
                        "a list of objects, each with an object 'set'")

    def guard(records: Mapping[str, str], want=guard_spec) -> bool:
        return all(records.get(k) == v for k, v in want.items())

    children: Effect = []
    for child in effect_spec:
        rewrite = {str(k): str(v) for k, v in (child.get("set") or {}).items()}
        children.append((parse_weight(child.get("weight", 1.0)), rewrite))
    return Rule(name, guard=guard, effect=static_effect(children),
                non_unitary=bool(doc.get("non_unitary", False)))


def run_custom(params: Mapping) -> tuple[StateVector, list[RelationReport]]:
    """User-supplied initial records and rule list from a scenario file."""
    initial = params.get("initial")
    rules_spec = params.get("rules")
    if not isinstance(initial, Mapping) or not isinstance(rules_spec, list) \
            or not rules_spec:
        raise BadParams("custom scenarios need 'initial' records and 'rules'")
    state = StateVector([Branch(1.0 + 0j, {str(k): str(v)
                                           for k, v in initial.items()})])
    rules = [rule_from_spec(doc) for doc in rules_spec]
    state = apply_rules(state, rules)
    unitary = all(not r.non_unitary for r in rules)
    reports = [
        _report("branching:custom", "records stay closed",
                all(set(b.records) == set(initial) for b in state.branches)),
    ]
    if unitary:
        reports.append(_report(
            "branching:custom", "norm is conserved",
            abs(state.norm2() - 1.0) <= NORM_TOL, f"norm2 = {state.norm2()!r}"))
    return state, reports


SCENARIOS = {
    "mirror": lambda params: run_mirror(params, second_observer=False),
    "two_observers": lambda params: run_mirror(params, second_observer=True),
    "grains": run_grains,
    "trajectory": run_trajectory,
    "custom": run_custom,
}


def run_scenario(name: str, params: Mapping | None = None
                 ) -> tuple[StateVector, list[RelationReport]]:
    if not isinstance(name, str) or name not in SCENARIOS:
        raise BadParams(f"unknown scenario {name!r}")
    return SCENARIOS[name](params or {})


def coefficient_independence_check(name: str, params_a: Mapping,
                                   params_b: Mapping) -> bool:
    """True when two amplitude assignments give identical record structures."""
    state_a, _ = run_scenario(name, params_a)
    state_b, _ = run_scenario(name, params_b)
    return state_a.record_structure() == state_b.record_structure()


# ----------------------------------------------------------------------
# branch energy-eigenstate lemma
# ----------------------------------------------------------------------
# Unit Gaussian-rational phase pairs (c, d); any two separate x and y in c x + d y.
PHASES = ((ONE, ONE), (gaussian(3, 4, 5), gaussian(5, -12, 13)),
          (gaussian(-4, 3, 5), gaussian(8, 15, 17)))
# `verify lemmas` checks the lemma on this many instances, the count of its
# acceptance test, at dimensions 2 to 8, and on controls at dimensions 3 to 8,
# drawn from this seed.
EIGEN_BRANCH_INSTANCES, EIGEN_BRANCH_CONTROLS, EIGEN_BRANCH_SEED = 50, 10, 0


def eigen_branch_check(m: linalg.Matrix, x: linalg.Vector, y: linalg.Vector,
                       eigenvalue: ScalarLike, phases: Sequence[tuple[Scalar, Scalar]],
                       label: str, control: bool = False) -> RelationReport:
    """The row of the phase-separation lemma on one instance: if M (c x + d y)
    = E (c x + d y) for every phase pair (c, d), then M x = E x and M y = E y.
    It shows both exact residuals, and passes when both are zero, never on a
    failed hypothesis.  A control row states that the hypothesis fails, and
    passes when it does.  DegeneratePhases unless two pairs have a nonzero
    determinant c1 d2 - d1 c2."""
    if not any(c1 * d2 != d1 * c2 for i, (c1, d1) in enumerate(phases)
               for c2, d2 in phases[i + 1:]):
        raise DegeneratePhases("no two phase pairs separate the components")

    def residual(v: linalg.Vector) -> linalg.Vector:
        return [a - eigenvalue * b for a, b in zip(linalg.mat_vec(m, v), v)]

    hypothesis = linalg.vector_text([r for c, d in phases for r in residual(
        [c * a + d * b for a, b in zip(x, y)])])
    conclusion = linalg.vector_text(residual(x) + residual(y))
    actual = f"hypothesis {hypothesis}, conclusion {conclusion}"
    if control:
        holds, expected = hypothesis != "0", "hypothesis nonzero"
        claim = "!= E(cx+dy) for some phase pair (control)"
    else:
        holds, expected = hypothesis == conclusion == "0", "hypothesis 0, conclusion 0"
        claim = f"= E(cx+dy) for {len(phases)} phase pairs => Mx = Ex, My = Ey"
    return RelationReport("eigen-branch", f"{label}: M(cx+dy) {claim}", expected, actual,
                          "0" if holds else actual, holds)


def eigen_branch_lemma() -> list[RelationReport]:
    """The rows `verify lemmas` reports, lemma instances first.  M has an
    integer eigenvalue E on its first two eigenvectors, and x is the first.
    In an instance y combines the first two, inside E's eigenspace; in a
    control y is the third, of another eigenvalue."""
    rng = random.Random(EIGEN_BRANCH_SEED)
    rows = []
    for k in range(EIGEN_BRANCH_INSTANCES + EIGEN_BRANCH_CONTROLS):
        control = k >= EIGEN_BRANCH_INSTANCES
        e = rng.randint(-4, 4)
        spectrum = [e, e] + [e + rng.choice((-1, 1)) * rng.randint(1, 4)
                             for _ in range(rng.randint(1 if control else 0, 6))]
        m, vecs = linalg.random_hermitian(rng, spectrum)
        c = gaussian(rng.randint(1, 3), rng.randint(-3, 3), 1)
        y = vecs[2] if control else [a + c * b for a, b in zip(vecs[0], vecs[1])]
        name = f"control {k - EIGEN_BRANCH_INSTANCES:02d}" if control else f"instance {k:02d}"
        rows.append(eigen_branch_check(m, vecs[0], y, e, PHASES,
                                       f"{name} (dim {len(spectrum)})", control))
    return rows


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------
def ledger_payload(state: StateVector) -> list[dict]:
    """One entry per branch: its amplitude as [real, imag] and its own
    record map, not a copy; the report renderer sorts the keys."""
    return [{"amplitude": [b.amplitude.real, b.amplitude.imag], "records": b.records}
            for b in state.branches]
