"""Span recorder and size counters for the traced benchmark passes.

Both work from outside the package: they rebind the public functions and
methods of each ``linqm`` layer (module attributes, class attributes, and
every module-level name a function was imported under by value) to
wrappers.  Nothing inside ``src/`` changes.

* ``Spans`` records one span per wrapped call: name, start, end, parent
  span and job id, kept in flat arrays in memory and written out when the
  pass ends.  A span's self time is its duration minus the time its direct
  children cover.
* ``Counts`` records work and size counters (terms, coefficient bits,
  dimensions, kets, branches, Scalar operations).  Counting costs more than
  the counted work, so it runs in its own pass and never inflates self
  times.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import defaultdict
from time import perf_counter

# (layer name, module, attribute) for every wrapped entry point.
TARGETS = [
    ("report", "report", "render_json"),
    ("report", "report", "render_text"),
    ("report", "report", "write_report"),
    ("report", "report", "reports_payload"),
    ("oplib.build", "oplib", "build_operators"),
    ("oplib.build", "oplib", "translation_generators"),
    ("oplib.build", "oplib", "build_spacetime_map"),
    ("oplib.build", "oplib", "spin_generators"),
    ("oplib.suite", "oplib", "verify_commutator_table"),
    ("oplib.suite", "oplib", "verify_hermiticity"),
    ("oplib.suite", "oplib", "verify_invariance"),
    ("oplib.suite", "oplib", "verify_substitution_invariance"),
    ("oplib.suite", "oplib", "verify_spacetime_relations"),
    ("oplib.suite", "oplib", "translation_flow_check"),
    ("weyl.mul", "weyl", "DiffOp.__mul__"),
    ("weyl.commutator", "weyl", "DiffOp.commutator"),
    ("weyl.add", "weyl", "DiffOp.__add__"),
    ("weyl.add", "weyl", "DiffOp.__radd__"),
    ("weyl.adjoint", "weyl", "DiffOp.adjoint"),
    ("weyl.render", "weyl", "DiffOp.render"),
    ("weyl.apply", "weyl", "DiffOp.apply"),
    ("weyl.substitute", "weyl", "LinearSub.apply"),
    ("linalg", "linalg", "invert"),
    ("linalg", "linalg", "solve"),
    ("linalg", "linalg", "nullspace"),
    ("linalg", "linalg", "mat_mul"),
    ("linalg", "linalg", "mat_vec"),
    ("reps.group_element", "reps", "rep_of_group_element"),
    ("reps.matmul", "reps", "RepMatrix.__matmul__"),
    ("reps.matrix_rep", "reps", "matrix_rep"),
    ("fock.ladder", "fock", "ladder_matrix"),
    ("fock.car", "fock", "verify_car"),
    ("fock.antisym", "fock", "antisymmetrize"),
    ("branching.apply_rule", "branching", "apply_rule"),
    ("branching.ledger", "branching", "ledger_payload"),
    ("collapse.ruin", "collapse", "_run_ruin"),
    ("collapse.linear", "collapse", "_run_linear"),
    ("collapse.born", "collapse", "born_test"),
]

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "conjugate")

ROOT = "cli"


def _install(wrap) -> None:
    """Rebind every TARGETS entry to ``wrap(layer, original)``."""
    modules = [importlib.import_module(f"linqm.{name}")
               for name in sorted({m for _, m, _ in TARGETS} | {"cli"})]
    for layer, module, attr in TARGETS:
        mod = importlib.import_module(f"linqm.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, wrap(layer, cls.__dict__[meth]))
            continue
        original = getattr(mod, attr)
        wrapped = wrap(layer, original)
        for other in modules:  # also names imported by value elsewhere
            for name, value in list(vars(other).items()):
                if value is original:
                    setattr(other, name, wrapped)


class Spans:
    """In-memory span store; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        if layer not in self.names:
            self.names.append(layer)
        nid = self.names.index(layer)
        name_id, start, end, parent, job = (self.name_id, self.start, self.end,
                                            self.parent, self.job)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
        return wrapper

    def install(self) -> None:
        _install(self.wrap)

    def summary(self) -> dict:
        """Per layer: span count, self seconds and total seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            total_s[name] += dur
        return {"calls": dict(calls), "self_s": dict(self_s),
                "total_s": dict(total_s)}

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i],
                                     self.end[i], self.parent[i], self.job[i]]))
                fh.write("\n")


def _coeff_bits(op) -> int:
    best = 0
    for _, c in op.term_items():
        best = max(best, c.re.numerator.bit_length(), c.re.denominator.bit_length(),
                   c.im.numerator.bit_length(), c.im.denominator.bit_length())
    return best


class Counts:
    """Work and size counters; one instance per counting pass."""

    def __init__(self) -> None:
        self.c: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []   # [layer, product terms seen below]

    def _after(self, layer: str, args, result, frame) -> None:
        c = self.c
        parent = self._stack[-1][0] if self._stack else None
        if layer == "report" and isinstance(result, str):
            c["report.bytes"] += len(result.encode("utf-8"))
        elif layer == "oplib.build" and parent != "oplib.build":
            ops = (list(result.numerators) + [result.z] if hasattr(result, "z")
                   else list(result.ops.values()))
            c["oplib.build.terms"] += sum(op.n_terms() for op in ops)
        elif layer == "oplib.suite":
            c["oplib.relations"] += len(result)
            c["oplib.relations_failed"] += sum(1 for r in result if not r.passed)
        elif layer == "weyl.mul":
            terms = result.n_terms()
            c["weyl.mul.terms_out"] += terms
            if hasattr(args[1], "n_terms"):
                c["weyl.mul.pairs"] += args[0].n_terms() * args[1].n_terms()
            if parent == "weyl.commutator":
                self._stack[-1][1] += terms
            c["weyl.coeff_bits_max"] = max(c["weyl.coeff_bits_max"], _coeff_bits(result))
        elif layer == "weyl.commutator":
            c["weyl.commutator.terms_kept"] += result.n_terms()
            c["weyl.commutator.terms_products"] += frame[1]
        elif layer == "weyl.render":
            c["weyl.render.chars"] += len(result)
        elif layer in ("weyl.apply", "weyl.substitute"):
            if layer == "weyl.apply":
                c["weyl.apply.terms_out"] += result.n_terms()
            c["weyl.coeff_bits_max"] = max(c["weyl.coeff_bits_max"], _coeff_bits(result))
        elif layer in ("reps.matrix_rep", "reps.group_element"):
            c["reps.dim_max"] = max(c["reps.dim_max"], result.dim)
        elif layer == "fock.antisym":
            c["fock.antisym.kets"] += len(result.terms)
        elif layer == "branching.apply_rule":
            c["branching.branches"] += len(result.branches)
        elif layer in ("collapse.ruin", "collapse.linear"):
            traces, summary = result
            c["collapse.runs"] += summary.runs
            c["collapse.converged"] += sum(summary.winner_counts)
            c["collapse.trace_rows"] += sum(t.x.shape[0] for t in traces)

    def wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            self._after(layer, args, result, frame)
            return result
        return wrapper

    def _count_scalar(self, fn):
        c = self.c

        @functools.wraps(fn)
        def wrapper(*args):
            c["scalar.ops"] += 1
            return fn(*args)
        return wrapper

    def install(self) -> None:
        _install(self.wrap)
        scalar = importlib.import_module("linqm.scalar").Scalar
        for meth in SCALAR_OPS:
            setattr(scalar, meth, self._count_scalar(scalar.__dict__[meth]))
