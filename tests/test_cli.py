import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linqm import branching, cli, report
from linqm.weyl import DiffOp, Var


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------------
# exit-code contract
# ----------------------------------------------------------------------
def test_passing_suite_exits_zero(capsys):
    code, out, _ = run_cli(["verify", "lie", "--set", "xyz"], capsys)
    assert code == 0
    assert "3/3 relations pass" in out


def test_failing_relation_exits_two_with_report(tmp_path, capsys):
    out_file = tmp_path / "mutated.json"
    code, _, _ = run_cli(["verify", "lie", "--set", "poincare-mutated",
                          "--out", str(out_file)], capsys)
    assert code == 2
    payload = json.loads(out_file.read_text())
    assert payload["pass"] is False
    assert any(not r["pass"] for r in payload["relations"])


def _parser_choices(path, dest):
    """The ``choices`` of option ``dest`` on the subcommand named by ``path``."""
    parser = cli.build_parser()
    for name in path:
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    return next(a.choices for a in parser._actions if a.dest == dest)


LIE_SETS = ["xyz", "su2", "lorentz", "translations", "translations-reconstructed",
            "poincare", "poincare-reconstructed", "poincare-mutated", "sun"]


@pytest.mark.parametrize("path,dest,expected", [
    (["verify", "lie"], "set", LIE_SETS),
    (["verify", "hermiticity"], "set", LIE_SETS + ["laplacian", "oscillator"]),
    (["verify", "invariance"], "target", ["laplacian", "oscillator"]),
    (["verify", "invariance"], "gens", LIE_SETS),
    (["verify", "translation-flow"], "set",
     ["translations", "translations-reconstructed"]),
    (["verify", "scaling"], "set", ["translations", "translations-reconstructed"]),
], ids=["lie", "hermiticity", "invariance-target", "invariance-gens", "translation-flow",
        "scaling"])
def test_operator_set_choices_in_order(path, dest, expected):
    # argparse prints these lists in usage and error text.
    assert list(_parser_choices(path, dest)) == expected


def _readme_commands():
    """The ``linqm ...`` lines of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands, pending = [], ""
    for raw in block.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1]
            continue
        line, pending = (pending + line).strip(), ""
        if line:
            commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) == 17
    for line in commands:
        words = shlex.split(line)
        assert words[0] == "linqm", line
        try:
            args = cli.build_parser().parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert callable(args.fn), line


def _leaf_commands(parser, path=()):
    """The word paths of every subcommand that has no subcommands of its own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [list(path)]
    return [leaf for name, child in subs[0].choices.items()
            for leaf in _leaf_commands(child, path + (name,))]


def test_readme_shows_every_subcommand():
    """Each verb is documented, and so each exact verb is also run by
    test_exact_commands_never_load_numpy."""
    shown = [shlex.split(line)[1:] for line in _readme_commands()]
    leaves = _leaf_commands(cli.build_parser())
    assert len(leaves) == 14
    assert [leaf for leaf in leaves
            if not any(words[:len(leaf)] == leaf for words in shown)] == []


def test_parser_reuse_leaks_nothing_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(["verify", "lie", "--set", "su2", "--n", "2",
                            "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["set"] == "su2"
    code, out, _ = run_cli(["verify", "lie"], capsys)
    assert code == 0
    assert out.startswith("[PASS] lie:xyz") and "3/3 relations pass" in out
    args = cli.build_parser().parse_args(["repr", "homomorphism"])
    assert (args.degree, args.pairs, args.seed, args.out, args.format) == \
        (2, 10, 0, None, "text")
    assert not hasattr(args, "set") and not hasattr(args, "n")


def test_usage_error_exits_one(capsys):
    assert cli.main(["verify", "lie", "--set", "not-a-set"]) == 1
    assert cli.main(["no-such-command"]) == 1


def test_report_schema_fields(tmp_path, capsys):
    out_file = tmp_path / "su2.json"
    code, _, _ = run_cli(["verify", "lie", "--set", "su2", "--out", str(out_file),
                          "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    for row in payload["relations"]:
        assert set(row) == {"suite", "relation", "expected", "actual",
                            "residual", "pass"}


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def test_invariance_with_finite_unitaries(capsys):
    code, out, _ = run_cli(["verify", "invariance", "--target", "laplacian",
                            "--gens", "su2", "--finite-unitaries", "4",
                            "--seed", "5"], capsys)
    assert code == 0
    # zero substitutions is a valid count; negative counts are usage errors
    assert run_cli(["verify", "invariance", "--finite-unitaries", "0"], capsys)[0] == 0


def test_hermiticity_printed_translations_fail(capsys):
    code, out, _ = run_cli(["verify", "hermiticity", "--set", "translations"],
                           capsys)
    assert code == 2
    assert "adjoint(P2) = P2" in out


def test_spacetime_reading_switch(capsys):
    code, out, _ = run_cli(["verify", "spacetime", "--reading", "slot-site",
                            "--reconstructed"], capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", "spacetime", "--reading", "site-slot"],
                           capsys)
    assert code == 2  # printed generators fail the third-direction rows


def test_translation_flow_cli(capsys):
    code, _, _ = run_cli(["verify", "translation-flow", "--x", "1,1/2,0,-2"],
                         capsys)
    assert code == 0


def test_repr_table(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code, out, _ = run_cli(["repr", "table", "--degree", "2",
                            "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["dimension"] == 3
    assert payload["norms2"] == ["2/3", "1/2", "2/3"]
    assert payload["sz_spectrum"] == ["1", "0", "-1"]
    assert payload["casimir_blocks"] == [{"eigenvalue": "2", "indices": [0, 1, 2]}]


def test_repr_homomorphism(capsys):
    code, _, _ = run_cli(["repr", "homomorphism", "--degree", "3",
                          "--pairs", "5", "--seed", "1"], capsys)
    assert code == 0


@pytest.mark.parametrize("args", [
    ["repr", "table", "--degree", "33"],
    ["repr", "homomorphism", "--degree", "33", "--pairs", "1"],
    ["repr", "homomorphism", "--degree", "0", "--pairs", "51"],
])
def test_repr_sizes_past_the_caps_are_usage_errors(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


@pytest.mark.parametrize("args", [
    ["verify", "lie", "--set", "xyz", "--n", "257"],  # cli.MAX_SITES
    ["verify", "hermiticity", "--set", "su2", "--n", "257"],
    ["verify", "invariance", "--n", "257"],
    ["verify", "translation-flow", "--n", "257"],
    ["verify", "spacetime", "--n", "13"],  # cli.MAX_SPACETIME_SITES
    ["verify", "scaling", "--n", "33"],  # cli.MAX_SCALING_SITES
])
def test_verify_site_counts_past_the_caps_are_usage_errors(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


def test_lemmas_take_no_size_option(capsys):
    code, out, err = run_cli(["verify", "lemmas", "--n", "2"], capsys)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --n 2" in err


def test_scaling_refuses_a_set_not_made_of_translations(capsys):
    code, out, err = run_cli(["verify", "scaling", "--set", "poincare"], capsys)
    assert code == 1
    assert out == ""
    assert "invalid choice: 'poincare'" in err


def test_spacetime_eta_file_past_the_site_cap_is_a_usage_error(tmp_path, capsys):
    n = cli.MAX_SPACETIME_SITES + 1
    eta = [["0"] * n for _ in range(n)]
    eta[0][1], eta[1][0] = "1", "-1"
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(eta))
    code, out, err = run_cli(["verify", "spacetime", "--eta", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


def test_verify_site_counts_at_the_caps_are_accepted(capsys):
    assert run_cli(["verify", "lie", "--set", "xyz", "--n", "256"], capsys)[0] == 0
    # the printed translations fail their [P2,x] relations, so this exits 2
    assert run_cli(["verify", "spacetime", "--n", "12"], capsys)[0] == 2
    assert run_cli(["verify", "scaling", "--n", "32"], capsys)[0] == 0


def test_repr_sizes_at_the_caps_are_accepted(capsys):
    assert run_cli(["repr", "table", "--degree", "32"], capsys)[0] == 0
    assert run_cli(["repr", "homomorphism", "--degree", "0", "--pairs", "50"],
                   capsys)[0] == 0


def test_finite_unitaries_past_the_cap_are_a_usage_error(capsys):
    code, out, err = run_cli(["verify", "invariance", "--finite-unitaries", "101"],
                             capsys)  # cli.MAX_UNITARIES
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


def test_finite_unitaries_at_the_cap_are_accepted(capsys):
    code, out, _ = run_cli(["verify", "invariance", "--target", "laplacian",
                            "--gens", "su2", "--n", "2", "--finite-unitaries", "100"],
                           capsys)
    assert code == 0
    assert "A99" in out


def test_finite_unitaries_on_the_oscillator_are_refused(tmp_path, capsys):
    """The unitaries act on the doublet (u, v), which the oscillator does not
    hold: every row would compare the oscillator with itself."""
    out_file = tmp_path / "osc.json"
    code, out, err = run_cli(["verify", "invariance", "--target", "oscillator",
                              "--gens", "su2", "--n", "2", "--finite-unitaries", "3",
                              "--out", str(out_file)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")
    assert not out_file.exists()


def test_fock_car_cli(capsys):
    code, _, _ = run_cli(["fock", "car", "--modes", "3"], capsys)
    assert code == 0
    code, _, _ = run_cli(["fock", "car", "--modes", "2", "--printed-variant"],
                         capsys)
    assert code == 2  # variant rows are informational but fail when requested


def test_fock_antisym_demo(capsys):
    code, out, _ = run_cli(["fock", "antisym", "AB"], capsys)
    assert code == 0
    assert "|A>_1|B>_2" in out and "(-1)*|B>_1|A>_2" in out


def test_fock_antisym_refuses_more_than_eight_labels(capsys):
    code, out, err = run_cli(["fock", "antisym", "ABCDEFGHI"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


def test_sim_branch_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "grains.json"
    scenario.write_text(json.dumps({"scenario": "grains", "params": {"n": 5}}))
    out_file = tmp_path / "grains-report.json"
    code, _, _ = run_cli(["sim", "branch", str(scenario), "--out", str(out_file)],
                         capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["scenario"] == "grains"
    assert len(payload["branches"]) == 5


def test_sim_branch_with_complex_amps(tmp_path, capsys):
    scenario = tmp_path / "mirror.json"
    scenario.write_text(json.dumps({
        "scenario": "mirror",
        "params": {"amps": [[0.6, 0.0], [0.0, 0.8]]},
    }))
    code, _, _ = run_cli(["sim", "branch", str(scenario)], capsys)
    assert code == 0


@pytest.mark.parametrize("doc", [
    {"scenario": "mirror", "params": {"amps": [[0.6, 0, 5], 0.8]}},
    {"scenario": "custom", "params": {"initial": {"coin": "up"}},
     "rules": [{"name": "flip", "effect": [{"weight": float("nan"),
                                            "set": {"coin": "down"}}]}]},
    {"scenario": "mirror", "params": {"amps": [1e200, 0]}},
    {"scenario": "custom", "params": {"initial": {"coin": "up"}},
     "rules": [{"name": "flip", "effect": [{"weight": 1e200,
                                            "set": {"coin": "down"}}]}]},
], ids=["three-part-amp", "nan-rule-weight", "overflowing-amp", "overflowing-rule-weight"])
def test_sim_branch_rejects_bad_weights(doc, tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))  # the NaN is written as the token NaN
    code, out, err = run_cli(["sim", "branch", str(scenario)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


def _coin_flips(coins: int) -> dict:
    """A custom scenario of independent fair coin flips: 2^coins branches."""
    half = 0.5 ** 0.5
    return {"scenario": "custom",
            "params": {"initial": {f"coin-{i}": "up" for i in range(coins)}},
            "rules": [{"name": f"flip-{i}", "guard": {f"coin-{i}": "up"},
                       "effect": [{"weight": half, "set": {f"coin-{i}": "heads"}},
                                  {"weight": half, "set": {f"coin-{i}": "tails"}}]}
                      for i in range(coins)]}


@pytest.mark.parametrize("doc", [
    {"scenario": "grains", "params": {"n": None}},
    {"scenario": "trajectory", "params": {"n": 3, "layers": None}},
    {"scenario": "trajectory", "params": {"n": 3, "hop": [1]}},
    {"scenario": "grains", "params": {"n": 2.5}},
    [{"scenario": "grains"}],
    {"scenario": "grains", "params": [["n", 3]]},
    {"scenario": ["grains"]},
    {"scenario": "custom", "params": {"initial": {"a": "x"}}, "rules": [1]},
    {"scenario": "custom", "params": {"initial": {"a": "x"}}, "rules": {"r": 1}},
    {"scenario": "custom", "params": {"initial": {"a": "x"}},
     "rules": [{"name": "r", "guard": [1], "effect": []}]},
    {"scenario": "custom", "params": {"initial": {"a": "x"}},
     "rules": [{"name": "r", "effect": [{"set": [1]}]}]},
    {"scenario": "grains", "params": {"n": 1001}},
    {"scenario": "trajectory", "params": {"n": 100, "layers": 11}},
    {"scenario": "trajectory", "params": {"n": 9, "layers": 10, "hop": 1}},
    _coin_flips(13),
], ids=["null-count", "null-layers", "list-hop", "fractional-count", "top-level-list",
        "params-list", "scenario-list", "rule-not-object", "rules-object", "guard-list",
        "set-list", "grains-over-cap", "trajectory-grains-over-cap",
        "trajectory-paths-over-cap", "custom-branches-over-cap"])
def test_sim_branch_rejects_malformed_scenarios(doc, tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    code, out, err = run_cli(["sim", "branch", str(scenario)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


def test_collapse_run_with_no_absorbed_run_writes_strict_json(tmp_path, capsys):
    out_file = tmp_path / "none.json"
    code, out, _ = run_cli(["collapse", "run", "--scheme", "nonlinear_ruin",
                            "--amps", "0.3,0.7", "--runs", "10", "--seed", "1",
                            "--steps", "1", "--out", str(out_file)], capsys)
    assert code == 2

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    for text in (out, out_file.read_text()):
        payload = json.loads(text, parse_constant=refuse)
        assert payload["chi2"] is None
        assert payload["nonconverged_count"] == 10
        assert payload["pass"] is False


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_overflowing_amplitude_writes_no_report(fmt, tmp_path, capsys):
    scenario, out_file = tmp_path / "boost.json", tmp_path / "boost-report.json"
    scenario.write_text(json.dumps({
        "scenario": "custom", "params": {"initial": {"a": "x"}},
        "rules": [{"name": f"boost-{k}", "non_unitary": True,
                   "effect": [{"weight": 1e150, "set": {"a": str(k)}}]}
                  for k in range(3)]}))
    code, out, err = run_cli(["sim", "branch", str(scenario), "--format", fmt,
                              "--out", str(out_file)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")
    assert not out_file.exists()


def test_collapse_run_cli(tmp_path, capsys):
    out_file = tmp_path / "ruin.json"
    code, _, _ = run_cli(["collapse", "run", "--scheme", "nonlinear_ruin",
                          "--amps", "0.3,0.7", "--runs", "1500", "--seed", "7",
                          "--steps", "20000", "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert set(payload) == {"config", "frequencies", "chi2", "p_value", "pass",
                            "nonconverged_count"}
    assert payload["pass"] is True


@pytest.mark.parametrize("extra", [
    ["--amps", "0.3,nan"],
    ["--amps=-0.5,1.5"],
    ["--amps", "0.5,0.5", "--dt", "-1"],
    ["--amps", "0.5,0.5", "--record-traces", "8"],  # the flag is gone
    ["--amps", "0.5,0.5", "--format", "text"],  # the summary is always JSON
    ["--amps", "0.5,0.5", "--runs", "100001"],  # collapse.MAX_RUNS
    ["--amps", "0.5,0.5", "--steps", "1000001"],  # collapse.MAX_STEPS
    ["--amps", "0.5,0.5", "--runs", "40000", "--steps", "60000"],  # MAX_RUN_STEPS
    ["--amps", ",".join(["1"] * 20_000), "--steps", "1"],  # collapse.MAX_OUTCOMES
    ["--amps", "1,1,1,1,1", "--runs", "1", "--steps", "800001"],  # MAX_OUTCOME_STEPS
    ["--amps", "1"],  # one outcome leaves the chi-square test nothing to check
])
def test_collapse_run_bad_input_exits_one(extra, tmp_path, capsys):
    out_file = tmp_path / "bad.json"
    code, out, _ = run_cli(["collapse", "run", "--scheme", "linear_drift",
                            "--runs", "20", "--seed", "1", "--steps", "50",
                            "--out", str(out_file)] + extra, capsys)
    assert code == 1
    assert out == ""
    assert not out_file.exists()


COLLAPSE_SMALL = ["collapse", "run", "--scheme", "nonlinear_ruin", "--amps", "0.3,0.7",
                  "--runs", "200", "--seed", "7", "--steps", "5000"]


def test_collapse_report_is_rendered_once(tmp_path, capsys, monkeypatch):
    rendered = []
    render_json = report.render_json
    monkeypatch.setattr(report, "render_json",
                        lambda payload: rendered.append(payload) or render_json(payload))
    out_file = tmp_path / "ruin.json"
    code, out, _ = run_cli(COLLAPSE_SMALL + ["--out", str(out_file)], capsys)
    assert code == 0
    assert len(rendered) == 1
    assert out_file.read_text(encoding="utf-8") == out


def test_collapse_refused_value_prints_nothing_and_leaves_no_file(tmp_path, capsys,
                                                                  monkeypatch):
    from linqm import collapse
    born_test = collapse.born_test

    def nan_chi2(summary, amplitudes):
        born = born_test(summary, amplitudes)
        born.chi2 = float("nan")
        return born

    monkeypatch.setattr(collapse, "born_test", nan_chi2)
    out_file = tmp_path / "nan.json"
    code, out, err = run_cli(COLLAPSE_SMALL + ["--out", str(out_file)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")
    assert not out_file.exists()
    out_file.write_text("an earlier report\n")
    assert run_cli(COLLAPSE_SMALL + ["--out", str(out_file)], capsys)[:2] == (1, "")
    assert out_file.read_text() == "an earlier report\n"
    assert list(tmp_path.iterdir()) == [out_file]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_file_gets_the_mode_of_a_plain_open(umask, fmt, tmp_path, capsys):
    """A report is written through a temporary file, yet gets the mode that
    ``open(path, "w")`` gives a new file under the umask, not 0600."""
    plain = tmp_path / "plain"
    old = os.umask(umask)
    try:
        plain.open("w").close()
        code, _, _ = run_cli(["verify", "lie", "--set", "su2", "--format", fmt,
                              "--out", str(tmp_path / "rep.json")], capsys)
    finally:
        os.umask(old)
    assert code == 0
    assert (tmp_path / "rep.json").stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "rep.json"]


@pytest.mark.parametrize("matrix", [
    [[0, [0.1, 0]], [[-0.1, 0], 0]],
    [[0, True], [-1, 0]],
    [[0, "1/0"], ["-1", 0]],
    [1, 2],
    [[0, "1e5"], ["-1e5", 0]],
], ids=["float-in-pair", "json-true", "zero-denominator", "not-a-matrix", "exponent"])
def test_spacetime_eta_rejects_inexact_cells(matrix, tmp_path, capsys):
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps(matrix))
    code, out, err = run_cli(["verify", "spacetime", "--eta", str(eta)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


def test_translation_flow_rejects_zero_denominator(capsys):
    code, out, err = run_cli(["verify", "translation-flow", "--x=1/0,0,0,0"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


@pytest.mark.parametrize("x", ["1e5,0,0,0", "0,0,2E-3,0"])
def test_translation_flow_rejects_exponents(x, capsys):
    code, out, err = run_cli(["verify", "translation-flow", f"--x={x}"], capsys)
    assert code == 1
    assert out == ""
    assert "exponent" in err


def test_report_rerender(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    run_cli(["verify", "lie", "--set", "su2", "--out", str(out_file)], capsys)
    code, out, _ = run_cli(["report", str(out_file), "--format", "text"], capsys)
    assert code == 0
    assert "relations pass" in out
    # The file keeps 800 characters of each text; the re-rendered text must
    # still count the rest of the original, as the original run printed it.
    argv = ["verify", "spacetime", "--random-eta", "3", "--n", "4", "--out", str(out_file)]
    code, original, _ = run_cli(argv, capsys)
    assert code == 2 and "... [11475 more chars]" in original
    assert run_cli(["report", str(out_file)], capsys) == (2, original, "")


@settings(max_examples=100, deadline=None)
@given(st.builds(lambda unit, k: unit * k, st.text(min_size=1, max_size=12),
                 st.integers(0, 250)),
       st.sampled_from([1, 200, 800]))
def test_clipping_a_stored_text_counts_the_original(text, cap):
    """A report file stores ``clip(text)``; clipping that again at any cap
    up to the stored one reads as clipping the original text."""
    assert report.clip(report.clip(text), cap) == report.clip(text, cap)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_with_no_relations_fails(fmt, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"relations": [], "pass": True}))
    code, _, _ = run_cli(["report", str(empty), "--format", fmt], capsys)
    assert code == 2


_ROW = {"suite": "lie:xyz", "relation": "[Lx,Ly] = (i)*Lz", "expected": "(i)*Lz",
        "actual": "(i)*Lz", "residual": "0", "pass": True}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("payload", [
    {"relations": None}, [], {"relations": [1]}, {"relations": [{"suite": "lie:xyz"}]},
    {"relations": [{**_ROW, "expected": 1}], "pass": True},
    {"relations": [{**_ROW, "suite": ["lie:xyz"]}], "pass": True},
    {"relations": [{**_ROW, "pass": "no"}], "pass": True},
    {"relations": [_ROW], "pass": "true"},
    {"frequencies": [0.5, 0.5], "pass": 1},
], ids=["null-relations", "top-level-list", "non-object-row", "missing-row-keys",
        "integer-expected", "list-suite", "string-row-pass", "string-top-level-pass",
        "integer-top-level-pass"])
def test_report_rejects_malformed_file(payload, fmt, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run_cli(["report", str(bad), "--format", fmt], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("linqm: error: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_verdict_comes_from_the_rows(fmt, tmp_path, capsys):
    """A top-level ``pass`` that contradicts the rows does not decide."""
    contradicting = tmp_path / "contradicting.json"
    contradicting.write_text(json.dumps({"relations": [{**_ROW, "pass": False}],
                                         "pass": True}))
    code, out, _ = run_cli(["report", str(contradicting), "--format", fmt], capsys)
    assert code == 2
    if fmt == "json":
        assert json.loads(out)["pass"] is False
    else:
        assert out.endswith("0/1 relations pass\n")


@pytest.mark.parametrize("argv", [
    ["verify", "lie", "--set", "su2"],
    ["verify", "spacetime", "--random-eta", "3", "--n", "4"],  # clipped texts
    ["fock", "car", "--modes", "2", "--printed-variant"],
    ["repr", "homomorphism", "--degree", "3", "--pairs", "3", "--seed", "2"],
    ["sim", "branch", "mirror.json"],
    ["verify", "scaling", "--set", "translations", "--n", "2"],
    ["verify", "lemmas"],
], ids=["lie", "spacetime", "fock-car", "repr-homomorphism", "sim-branch", "scaling",
        "lemmas"])
def test_report_reproduces_the_original_run(argv, tmp_path, capsys, monkeypatch):
    """``linqm report`` on a file prints what the run that wrote it printed,
    in either format, and exits with its code."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mirror.json").write_text(json.dumps(
        {"scenario": "mirror", "params": {"amps": [[0.6, 0.0], [0.0, 0.8]]}}))
    code, text, _ = run_cli(argv + ["--out", "run.json"], capsys)
    stored = (tmp_path / "run.json").read_text(encoding="utf-8")
    assert run_cli(argv + ["--format", "json"], capsys) == (code, stored, "")
    assert run_cli(["report", "run.json", "--format", "json"], capsys) == (code, stored, "")
    assert run_cli(["report", "run.json", "--format", "text"], capsys) == (code, text, "")


def test_relation_report_renders_equal_operators_once(monkeypatch):
    u, v = DiffOp.variable(Var("u")), DiffOp.variable(Var("v"))
    rendered = []
    render_head = DiffOp.render_head
    monkeypatch.setattr(DiffOp, "render_head",
                        lambda op, cap=None: rendered.append(op) or render_head(op, cap))
    actual, expected = u * v + v, v * u + v  # equal, built apart
    rec = report.relation_report("s", "r", expected, actual)
    assert rec.passed and rec.expected == rec.actual == render_head(actual)[0]
    assert [op for op in rendered if not op.is_zero] == [actual]
    assert all(op is not expected for op in rendered)
    rendered.clear()
    rec = report.relation_report("s", "r", u, v)
    assert not rec.passed
    assert (rec.expected, rec.actual, rec.residual) == ("(1)*u", "(1)*v", "(-1)*u + (1)*v")
    assert any(op is u for op in rendered) and any(op is v for op in rendered)


def test_empty_reports_payload_does_not_pass():
    assert report.reports_payload([])["pass"] is False


def _dumps(payload) -> str:
    """The oracle ``render_json`` must reproduce byte for byte."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


_TEXTS = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600'))
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.sampled_from([2**64, -(10**300), -0.0, 5e-324, 1e308, 0.1])
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.floats(allow_nan=False, allow_infinity=False).map(np.float64) | _TEXTS)
_PAYLOADS = st.recursive(_SCALARS, lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                                                 | st.dictionaries(_TEXTS, kids)),
                         max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(_PAYLOADS)
def test_render_json_is_json_dumps(payload):
    assert report.render_json(payload) == _dumps(payload)


@settings(max_examples=100, deadline=None)
@given(_PAYLOADS)
def test_written_pieces_are_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("pieces") / "report.json"
    report.write_report(str(path), report.json_pieces(payload))
    assert path.read_text(encoding="utf-8") == _dumps(payload)


def _refused_write(payload, tmp_path, error):
    """``write_report`` of ``payload``'s pieces raises ``error`` (json's
    exception, with its message) and leaves the directory empty."""
    with pytest.raises(error.type, match=f"^{re.escape(str(error.value))}$"):
        report.write_report(str(tmp_path / "report.json"), report.json_pieces(payload))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), float("-inf"), np.float64("nan"),  # ValueError
    np.bool_(False), set(), object(), np.int64(1),  # TypeError
], ids=["nan", "inf", "-inf", "np-nan", "np-bool", "set", "object", "np-int64"])
def test_render_json_refuses_what_json_dumps_refuses(bad, tmp_path):
    payload = {"relations": [], "value": [{"deep": bad}]}
    with pytest.raises((TypeError, ValueError)) as want:
        _dumps(payload)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        report.render_json(payload)
    _refused_write(payload, tmp_path, want)


@pytest.mark.parametrize("key", [1, 1.5, True, None, ("a",)])
def test_render_json_refuses_keys_that_are_not_strings(key, tmp_path):
    """json.dumps coerces number, bool and None keys to strings; a report's
    keys are always strings, so render_json refuses the rest instead."""
    payload = {"ok": 0, "nested": {key: 0}}
    with pytest.raises(TypeError) as want:
        report.render_json(payload)
    _refused_write(payload, tmp_path, want)


def test_ledger_is_written_within_its_length(tmp_path):
    """The 4,096-branch ledger's payload is built and written a branch at a
    time: its text is never held whole, as rendering it first would (2.8
    times its length, payload included), nor every chunk of it, as json's
    pure-Python encoder does (6.9 times)."""
    doc = _coin_flips(12)
    state, reports = branching.run_scenario("custom", dict(doc["params"], rules=doc["rules"]))
    path = tmp_path / "ledger.json"
    tracemalloc.start()
    try:
        payload = report.reports_payload(reports, scenario="custom",
                                         branches=branching.ledger_payload(state))
        report.write_report(str(path), report.json_pieces(payload))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert len(payload["branches"]) == 4096 and text == _dumps(payload)
    assert peak < len(text)


def _fresh_python(code, *args, cwd=None):
    """Run ``code`` in a new interpreter that imports linqm from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=True)


def test_cli_import_does_not_load_scipy_stats():
    """scipy.stats would take most of each command's start-up time, and
    scipy.sparse is not needed: ladder operators are signed permutations.
    numpy loads only when a simulator command runs, and scipy only for a
    collapse verdict past ``chi2.MAX_DOF`` degrees of freedom."""
    probe = ("import sys, linqm.cli; print(*(m in sys.modules for m in "
             "('scipy.stats', 'scipy.sparse', 'numpy', 'scipy')))")
    assert _fresh_python(probe).stdout.split() == ["False"] * 4


_COLLAPSE_PROBE = (
    "import contextlib, io, json, sys\n"
    "from linqm import cli\n"
    "reports = []\n"
    "for n in json.loads(sys.argv[1]):\n"
    "    out = io.StringIO()\n"
    "    with contextlib.redirect_stdout(out):\n"
    "        code = cli.main(['collapse', 'run', '--scheme', 'linear_drift',\n"
    "                         '--amps', ','.join(['1'] * n), '--runs', '40',\n"
    "                         '--seed', '1', '--steps', '2000'])\n"
    "    reports.append([code, json.loads(out.getvalue())])\n"
    "print(json.dumps([reports, sorted(m for m in sys.modules\n"
    "                                  if m.split('.')[0] == 'scipy')]))\n")


def test_collapse_run_loads_no_scipy_up_to_forty_degrees_of_freedom():
    """The chi-square tail is plain Python through dof 40 (41 outcomes)."""
    reports, loaded = json.loads(_fresh_python(_COLLAPSE_PROBE, "[2, 3, 41]").stdout)
    assert [code for code, _ in reports] == [0, 0, 0]
    assert all(r["chi2"] is not None for _, r in reports)
    assert loaded == []


def test_collapse_run_past_forty_degrees_of_freedom_takes_scipys_tail():
    """At 42 outcomes (dof 41) the tail is scipy.special.chdtrc's, imported
    then and only then."""
    from scipy.special import chdtrc
    [[code, report]], loaded = json.loads(_fresh_python(_COLLAPSE_PROBE, "[42]").stdout)
    assert code == 0 and report["chi2"] is not None
    assert "scipy.special" in loaded
    assert report["p_value"] == float(chdtrc(41, report["chi2"]))


def test_exact_commands_never_load_numpy(tmp_path):
    """Every README verify, repr and report command, run in one process,
    leaves numpy and scipy unloaded: the exact path needs no float library."""
    commands = [shlex.split(line)[1:] for line in _readme_commands()]
    commands = [argv for argv in commands if argv[0] in ("verify", "repr", "report")]
    probe = ("import contextlib, io, json, sys\n"
             "from linqm import cli\n"
             "argvs = [['verify', 'lie', '--out', 'report.json']] + json.loads(sys.argv[1])\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [cli.main(argv) for argv in argvs]\n"
             "print(json.dumps([codes, sorted(m for m in sys.modules\n"
             "                                if m.split('.')[0] in ('numpy', 'scipy'))]))\n")
    codes, loaded = json.loads(_fresh_python(probe, json.dumps(commands), cwd=tmp_path).stdout)
    assert {argv[0] for argv in commands} == {"verify", "repr", "report"}
    assert len(codes) == len(commands) + 1 and set(codes) <= {0, 2}
    assert loaded == []


def test_sim_branch_never_loads_numpy(tmp_path):
    """The branch ledger is plain Python, and so a ``sim branch`` process
    never pays numpy's import."""
    (tmp_path / "mirror.json").write_text(json.dumps({"scenario": "mirror"}))
    probe = ("import contextlib, io, sys\n"
             "from linqm import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(['sim', 'branch', 'mirror.json'])\n"
             "print(code, 'numpy' in sys.modules)\n")
    assert _fresh_python(probe, cwd=tmp_path).stdout.split() == ["0", "False"]


def test_scheme_choices_follow_collapse():
    """``collapse run --scheme`` lists its choices without importing collapse."""
    from linqm import collapse
    assert cli.SCHEMES == collapse.SCHEMES
    assert _parser_choices(["collapse", "run"], "scheme") == collapse.SCHEMES


def test_report_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LINQM_REPORT_DIR", str(tmp_path))
    code, _, _ = run_cli(["verify", "lie", "--set", "xyz", "--out", "here.json"],
                         capsys)
    assert code == 0
    assert (tmp_path / "here.json").exists()


def test_missing_scenario_file_is_usage_error(capsys):
    assert cli.main(["sim", "branch", "/nonexistent/file.json"]) == 1


@pytest.mark.parametrize("args", [
    ["verify", "lie", "--set", "poincare", "--n", "0"],
    ["verify", "hermiticity", "--set", "translations", "--n", "0"],
    ["verify", "invariance", "--target", "oscillator", "--gens", "poincare", "--n", "0"],
    ["verify", "spacetime", "--n", "-1"],
    ["verify", "translation-flow", "--n", "0"],
    ["fock", "car", "--modes", "0"],
    ["repr", "homomorphism", "--pairs", "0"],
    ["verify", "invariance", "--finite-unitaries", "-3"],
    ["fock", "antisym", ""],
])
def test_zero_sizes_are_usage_errors(args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 1
    assert "relations pass" not in out


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("args", [
    ["verify", "lie", "--set", "poincare"],
    ["verify", "spacetime", "--random-eta", "3", "--n", "2", "--reconstructed"],
    ["repr", "homomorphism", "--degree", "2", "--pairs", "4", "--seed", "9"],
    ["collapse", "run", "--scheme", "nonlinear_ruin", "--amps", "0.2,0.8",
     "--runs", "400", "--seed", "5", "--steps", "12000"],
])
def test_repeat_invocations_byte_identical(args, tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(args + ["--out", str(f1)])
    cli.main(args + ["--out", str(f2)])
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
