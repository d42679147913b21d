"""Command-line entry point for all suites and simulators.

Exit codes: 0 when every requested relation passes, 2 when any relation
fails (the report is still written), 1 on usage errors.  All stochastic
commands are fully determined by --seed; identical invocations produce
byte-identical reports.  LINQM_REPORT_DIR, when set, is prepended to
relative --out paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import linalg, oplib, report, reps
from .scalar import Scalar

# collapse and fock load numpy (collapse loads scipy.special only past
# chi2.MAX_DOF degrees of freedom); each simulator command imports its
# module, so the exact commands and ``sim branch`` start without either.
# ``collapse run --scheme`` choices, in the order of collapse.SCHEMES:
SCHEMES = ("linear_drift", "linear_noise", "nonlinear_ruin")

# Random pairs one ``repr homomorphism`` call checks: each costs two group
# elements' matrices and one product at the chosen degree.
MAX_PAIRS = 50

# Exact unitary substitutions one ``verify invariance`` call checks.  They
# act on the doublet (u, v), so only the laplacian target takes them: the
# oscillator's variables are u[b,i] and v[b,i].  Each costs under 1 ms, and
# 100 take 0.15-0.24 s on a 2-vCPU machine.
MAX_UNITARIES = 100

# Site counts (--n) the verify commands accept.  At 256 sites the slowest
# of the commutator, hermiticity, invariance and translation-flow suites
# (``verify lie --set poincare``) takes about 0.8 s in a fresh process on a
# 2-vCPU machine; the spacetime suite grows about as n^4 and takes 3.8-4.4 s
# at 12.  The size of an --eta file is its site count.
# The scaling search solves for 8n unknowns, in about 1.2 s at 32 sites and
# 4.8 s at 64: its cost grows about as n^2.
MAX_SITES = 256
MAX_SPACETIME_SITES = 12
MAX_SCALING_SITES = 32


class Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict, out: str | None, text: str | None = None) -> int:
    """The one output path.  With no ``text`` the JSON is rendered once,
    written to ``out`` and printed; with a text, the JSON streams into
    ``out`` piece by piece (or is only checked, with no ``out``) before the
    text is printed.  So a refused value prints nothing, leaves no file and
    leaves an existing ``out`` as it was.  ``out`` is relative to
    LINQM_REPORT_DIR when that is set."""
    if text is None:
        text = report.render_json(payload)
        pieces = [text]
    else:
        pieces = report.json_pieces(payload)
    if out:
        report.write_report(os.path.join(os.environ.get("LINQM_REPORT_DIR", ""), out),
                            pieces)
    else:
        for _ in pieces:
            pass
    sys.stdout.write(text)
    return 0 if payload.get("pass", True) else 2


def _emit_relations(reports_list, args, /, **extra) -> int:
    """A relation report, as text or JSON by --format (``report`` has no --out)."""
    payload = report.reports_payload(reports_list, **extra)
    text = report.render_text(payload) if args.format == "text" else None
    return _emit(payload, getattr(args, "out", None), text)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return int(text)


def _check_sites(n: int, cap: int) -> int:
    if n > cap:
        raise ValueError(f"{n} sites exceed the cap of {cap} for this command")
    return n


def _exact(x) -> Scalar:
    """One --x token or --eta cell: an integer, a string Fraction reads
    ("3", "-2/5", "1.25"), or an [re, im] pair of those.  Exponents are
    refused before Fraction sees them: it would build 10**exp exactly."""
    parts = x if isinstance(x, list) and len(x) == 2 else [x]
    for p in parts:
        if isinstance(p, bool) or not isinstance(p, (int, str)):
            raise ValueError(f"not an exact rational: {p!r} "
                             "(give an integer or a string such as \"1/3\")")
        if isinstance(p, str) and "e" in p.lower():
            raise ValueError(f"exponent notation is not accepted: {p!r}")
    try:
        return Scalar(*map(Fraction, parts))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


# ----------------------------------------------------------------------
# verify subcommands
# ----------------------------------------------------------------------
def cmd_verify_lie(args) -> int:
    opset = oplib.build_operators(args.set, n=_check_sites(args.n, MAX_SITES))
    table = oplib.OPERATOR_SETS[args.set].table()
    reports_list = oplib.verify_commutator_table(opset, table)
    return _emit_relations(reports_list, args, set=args.set, n=args.n)


def cmd_verify_hermiticity(args) -> int:
    opset = oplib.build_operators(args.set, n=_check_sites(args.n, MAX_SITES))
    reports_list = oplib.verify_hermiticity(opset)
    return _emit_relations(reports_list, args, set=args.set, n=args.n)


def cmd_verify_invariance(args) -> int:
    if args.finite_unitaries > MAX_UNITARIES:
        raise ValueError(f"{args.finite_unitaries} unitaries exceed "
                         f"the cap of {MAX_UNITARIES}")
    target_set = oplib.build_operators(args.target, n=_check_sites(args.n, MAX_SITES))
    target = target_set["O"]
    gens = oplib.build_operators(args.gens, n=args.n)
    reports_list = oplib.verify_invariance(target, gens, target_name=args.target)
    if args.finite_unitaries:
        rng = random.Random(args.seed)
        subs = []
        for k in range(args.finite_unitaries):
            a = reps.random_su2(rng)
            subs.append((f"A{k}", reps.substitution_of_matrix(a)))
        reports_list += oplib.verify_substitution_invariance(
            target, subs, target_name=args.target)
    return _emit_relations(reports_list, args,
                           target=args.target, gens=args.gens, n=args.n)


def cmd_verify_spacetime(args) -> int:
    if args.eta:
        with open(args.eta, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not (isinstance(raw, list) and all(isinstance(row, list) for row in raw)):
            raise ValueError(f"{args.eta}: eta must be a JSON list of rows")
        _check_sites(len(raw), MAX_SPACETIME_SITES)
        eta = [[_exact(x) for x in row] for row in raw]
    else:
        _check_sites(args.n, MAX_SPACETIME_SITES)
        if args.random_eta is not None:
            eta = oplib.random_eta(args.n, args.random_eta)
        else:
            eta = [[Scalar(0) for _ in range(args.n)] for _ in range(args.n)]
            if args.n >= 2:
                eta[0][1] = Scalar(1)
                eta[1][0] = Scalar(-1)
    st = oplib.build_spacetime_map(eta, reading=args.reading)
    pset = oplib.translation_generators(
        len(eta), reconstructed=args.reconstructed)
    reports_list = oplib.verify_spacetime_relations(pset, st)
    return _emit_relations(reports_list, args,
                           reading=args.reading, n=len(eta), set=pset.name)


def cmd_verify_translation_flow(args) -> int:
    xs = [_exact(tok) for tok in args.x.split(",")]
    if len(xs) != 4:
        raise ValueError("--x needs four comma-separated rationals")
    pset = oplib.build_operators(args.set, n=_check_sites(args.n, MAX_SITES))
    reports_list = oplib.translation_flow_check(pset, xs)
    return _emit_relations(reports_list, args, set=args.set, x=args.x)


def cmd_verify_scaling(args) -> int:
    pset = oplib.build_operators(args.set, n=_check_sites(args.n, MAX_SCALING_SITES))
    coeffs, reports_list = oplib.verify_scaling(pset)
    return _emit_relations(reports_list, args, set=args.set, n=args.n,
                           coefficients=[str(c) for c in coeffs])


def cmd_verify_lemmas(args) -> int:
    from . import branching
    return _emit_relations(oplib.variational_lemma() + branching.eigen_branch_lemma(), args,
                           phases=[[str(c), str(d)] for c, d in branching.PHASES])


# ----------------------------------------------------------------------
# repr subcommands
# ----------------------------------------------------------------------
def cmd_repr_table(args) -> int:
    space = reps.RepSpace.homogeneous(args.degree)
    spin = oplib.spin_generators()
    exact = {label: reps.matrix_rep(spin[label], space) for label in ("Sx", "Sy", "Sz")}
    spectrum = reps.spin_spectrum(exact["Sz"])
    _, blocks = reps.casimir_spectrum(spin, space)
    payload = {
        "degree": args.degree,
        "dimension": space.dim,
        "basis": [f"u^{a} v^{b}" for a, b in space.monomials],
        "norms2": [str(x) for x in space.norms2],
        "invariant_norms2": [str(x) for x in space.invariant_norms2],
        "sz_spectrum": [str(x) for x in spectrum],
        "casimir_blocks": [{"eigenvalue": str(lam), "indices": idx}
                           for lam, idx in blocks],
        "matrices": {label: {
            "exact": [[str(e) for e in row] for row in mat.entries],
            "normalized": [[[z.real, z.imag] for z in row]
                           for row in mat.normalized(space)],
        } for label, mat in exact.items()},
    }
    text = None
    if args.format == "text":
        lines = [f"degree {args.degree}  dimension {space.dim}"]
        for i, mono in enumerate(payload["basis"]):
            lines.append(f"  {mono:10s} norm2={payload['norms2'][i]:8s} "
                         f"sz={payload['sz_spectrum'][i]}")
        lines.append("casimir blocks: " + ", ".join(
            f"{b['eigenvalue']} on {b['indices']}" for b in payload["casimir_blocks"]))
        text = "\n".join(lines) + "\n"
    return _emit(payload, args.out, text)


def cmd_repr_homomorphism(args) -> int:
    if args.pairs > MAX_PAIRS:
        raise ValueError(f"{args.pairs} pairs exceed the cap of {MAX_PAIRS}")
    rng = random.Random(args.seed)
    space = reps.RepSpace.homogeneous(args.degree)
    reports_list = []
    for k in range(args.pairs):
        a = reps.random_su2(rng)
        b = reps.random_su2(rng)
        lhs = reps.rep_of_group_element(b, space) @ reps.rep_of_group_element(a, space)
        rhs = reps.rep_of_group_element(linalg.mat_mul(b, a), space)
        ok = lhs == rhs
        reports_list.append(report.RelationReport(
            suite=f"homomorphism:deg{args.degree}",
            relation=f"rep(B{k})rep(A{k}) = rep(B{k}A{k})",
            expected="equal exact matrices",
            actual="equal" if ok else "different",
            residual="0" if ok else "nonzero",
            passed=ok,
        ))
    return _emit_relations(reports_list, args,
                           degree=args.degree, pairs=args.pairs, seed=args.seed)


# ----------------------------------------------------------------------
# fock subcommands
# ----------------------------------------------------------------------
def cmd_fock_car(args) -> int:
    from . import fock
    reports_list = fock.verify_car(args.modes,
                                   include_printed_variant=args.printed_variant)
    return _emit_relations(reports_list, args, modes=args.modes)


def cmd_fock_antisym(args) -> int:
    from . import fock
    labels = list(args.labels)
    if not labels:
        raise ValueError("fock antisym needs at least one label")
    product = fock.LabeledKet.of(*[(lbl, i + 1) for i, lbl in enumerate(labels)])
    result = fock.antisymmetrize(product)
    sys.stdout.write(f"antisymmetrize({product}) = {result}\n")
    return 0


# ----------------------------------------------------------------------
# simulators
# ----------------------------------------------------------------------
def cmd_sim_branch(args) -> int:
    from . import branching
    with open(args.scenario, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("params") or {}, dict):
        raise ValueError(f"{args.scenario}: a scenario must be a JSON object "
                         "whose 'params', if given, is an object")
    name = doc.get("scenario")
    params = dict(doc.get("params") or {})
    for key in ("rules", "initial"):
        if key in doc and key not in params:
            params[key] = doc[key]
    state, reports_list = branching.run_scenario(name, params)
    return _emit_relations(reports_list, args, scenario=name,
                           branches=branching.ledger_payload(state))


def cmd_collapse_run(args) -> int:
    from . import collapse
    probs = [float(tok) for tok in args.amps.split(",")]
    cfg = collapse.CollapseConfig.from_probs(
        probs, args.scheme, args.runs, args.seed,
        dt=args.dt, steps=args.steps)
    _, summary = collapse.run_scheme(cfg)
    born = collapse.born_test(summary, cfg.amplitudes)
    return _emit({
        "config": cfg.to_json_obj(),
        "frequencies": born.frequencies,
        "chi2": born.chi2,
        "p_value": born.p_value,
        "pass": born.passed,
        "nonconverged_count": summary.nonconverged,
    }, args.out)


def cmd_report(args) -> int:
    """Re-render a stored report through the path that wrote it.  A relation
    report is rebuilt from its rows, so its verdict and ``pass`` are theirs."""
    with open(args.file, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{args.file}: a report must be a JSON object")
    if not isinstance(payload.get("pass", False), bool):
        raise ValueError(f"{args.file}: 'pass' must be true or false")
    if "relations" not in payload:
        return _emit(payload, None)
    if not isinstance(payload["relations"], list):
        raise ValueError(f"{args.file}: 'relations' must be a list")
    rows = [report.RelationReport.from_json_obj(r) for r in payload.pop("relations")]
    payload.pop("pass", None)
    return _emit_relations(rows, args, **payload)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
@functools.cache
def build_parser() -> Parser:
    """The command-line parser, built once per process: parsing never
    changes it, and every call returns a fresh namespace."""
    parser = Parser(prog="linqm")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    def common(p: Parser) -> None:
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--format", choices=["json", "text"], default="text")

    verify = sub.add_parser("verify", help="exact relation suites")
    vsub = verify.add_subparsers(dest="verify_command", required=True,
                                 parser_class=Parser)

    p = vsub.add_parser("lie", help="commutator tables")
    p.add_argument("--set", choices=oplib.LIE_SETS, default="xyz")
    p.add_argument("--n", type=_positive_int, default=1, help="site count")
    common(p)
    p.set_defaults(fn=cmd_verify_lie)

    p = vsub.add_parser("hermiticity")
    p.add_argument("--set", choices=list(oplib.OPERATOR_SETS), default="su2")
    p.add_argument("--n", type=_positive_int, default=1)
    common(p)
    p.set_defaults(fn=cmd_verify_hermiticity)

    p = vsub.add_parser("invariance")
    p.add_argument("--target", choices=oplib.TARGETS, default="laplacian")
    p.add_argument("--gens", choices=oplib.LIE_SETS, default="su2")
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--finite-unitaries", type=_nonnegative_int, default=0,
                   help="also check this many exact unitary substitutions")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_verify_invariance)

    p = vsub.add_parser("spacetime")
    p.add_argument("--eta", default=None, help="JSON file with the eta matrix")
    p.add_argument("--random-eta", type=int, default=None, metavar="SEED")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--reading", choices=["site-slot", "slot-site"],
                   default="site-slot")
    p.add_argument("--reconstructed", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_verify_spacetime)

    p = vsub.add_parser("translation-flow")
    p.add_argument("--x", default="1,0,0,0", help="four rationals, comma separated")
    p.add_argument("--set", choices=oplib.TRANSLATION_SETS, default="translations")
    p.add_argument("--n", type=_positive_int, default=1)
    common(p)
    p.set_defaults(fn=cmd_verify_translation_flow)

    p = vsub.add_parser("scaling", help="the dilation generator search")
    p.add_argument("--set", choices=oplib.TRANSLATION_SETS, default="translations")
    p.add_argument("--n", type=_positive_int, default=1)
    common(p)
    p.set_defaults(fn=cmd_verify_scaling)

    p = vsub.add_parser("lemmas", help="the variational and phase-separation lemmas")
    common(p)
    p.set_defaults(fn=cmd_verify_lemmas)

    rep = sub.add_parser("repr", help="representation tables")
    rsub = rep.add_subparsers(dest="repr_command", required=True, parser_class=Parser)

    p = rsub.add_parser("table")
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_repr_table)

    p = rsub.add_parser("homomorphism")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--pairs", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_repr_homomorphism)

    fk = sub.add_parser("fock", help="occupation-space checks")
    fsub = fk.add_subparsers(dest="fock_command", required=True, parser_class=Parser)

    p = fsub.add_parser("car")
    p.add_argument("--modes", type=_positive_int, default=4)
    p.add_argument("--printed-variant", action="store_true",
                   help="also record the same-side index placement residuals")
    common(p)
    p.set_defaults(fn=cmd_fock_car)

    p = fsub.add_parser("antisym")
    p.add_argument("labels", help="one character per factor, e.g. AB")
    p.set_defaults(fn=cmd_fock_antisym)

    sim = sub.add_parser("sim", help="branch-ledger scenarios")
    ssub = sim.add_subparsers(dest="sim_command", required=True, parser_class=Parser)
    p = ssub.add_parser("branch")
    p.add_argument("scenario", help="scenario JSON file")
    common(p)
    p.set_defaults(fn=cmd_sim_branch)

    col = sub.add_parser("collapse", help="smooth-collapse schemes")
    csub = col.add_subparsers(dest="collapse_command", required=True,
                              parser_class=Parser)
    p = csub.add_parser("run")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--amps", required=True,
                   help="branch weights |a_k|^2, comma separated (normalized)")
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=cmd_collapse_run)

    p = sub.add_parser("report", help="re-render a stored report")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"linqm: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
