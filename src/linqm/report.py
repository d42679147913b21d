"""Relation reports: the shared result record for all verification suites.

Schema (docs/report-schema.md): every relation check produces one record
{suite, relation, expected, actual, residual, pass}.  A check never raises
on a failing relation; the pass flag is true exactly when the residual is
zero (or within the stated tolerance for float-valued suites).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator

from .weyl import DiffOp

_RENDER_CAP = 800

# What ``clip`` appends past ``_RENDER_CAP`` characters in a report file.
_CLIPPED_TAIL = re.compile(r"\.\.\. \[([0-9]+) more chars\]")

_TEXT_KEYS = ("suite", "relation", "expected", "actual", "residual")


def clip(text: str, cap: int = _RENDER_CAP) -> str:
    """The first ``cap`` characters of ``text`` and a count of the rest.  A
    text a report file stored clipped counts the rest from its marker."""
    if len(text) <= cap:
        return text
    tail = _CLIPPED_TAIL.fullmatch(text, _RENDER_CAP)
    return _marked(text[:cap], _RENDER_CAP + int(tail[1]) if tail else len(text), cap)


def _marked(head: str, length: int, cap: int) -> str:
    """``head``, the first ``cap`` characters of a text ``length`` long, and
    a count of the rest."""
    return head if length <= cap else head + f"... [{length - cap} more chars]"


def clip_op(op: DiffOp) -> str:
    """``clip(op.render())``, rendering only the terms the clip keeps."""
    return _marked(*op.render_head(_RENDER_CAP), _RENDER_CAP)


@dataclass(frozen=True)
class RelationReport:
    suite: str
    relation: str
    expected: str
    actual: str
    residual: str
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "relation": self.relation,
            "expected": clip(self.expected),
            "actual": clip(self.actual),
            "residual": clip(self.residual),
            "pass": self.passed,
        }

    @classmethod
    def from_json_obj(cls, obj: object) -> "RelationReport":
        """The record ``to_json_obj`` wrote; ValueError for anything else."""
        if not (isinstance(obj, dict) and isinstance(obj.get("pass"), bool)
                and all(isinstance(obj.get(k), str) for k in _TEXT_KEYS)):
            raise ValueError("each relation must be an object with the strings "
                             f"{', '.join(_TEXT_KEYS)} and the boolean pass")
        return cls(*(obj[k] for k in _TEXT_KEYS), obj["pass"])


def relation_report(suite: str, relation: str, expected: DiffOp, actual: DiffOp,
                    expected_text: str | None = None) -> RelationReport:
    """The record for the operator identity ``actual = expected``.

    The residual ``actual - expected`` is computed once and every operator
    is rendered at most once, by ``clip_op``, so the record holds the texts
    a report file stores; ``expected_text`` replaces the rendering of
    ``expected`` where a symbolic form reads better.  When the residual is
    zero the two operators are equal, so ``expected`` takes the text of
    ``actual``: equal canonical operators render alike.
    """
    residual = actual - expected
    actual_text = clip_op(actual)
    if expected_text is None:
        expected_text = actual_text if residual.is_zero else clip_op(expected)
    return RelationReport(
        suite=suite,
        relation=relation,
        expected=expected_text,
        actual=actual_text,
        residual=clip_op(residual),
        passed=residual.is_zero,
    )


def sort_reports(reports: Iterable[RelationReport]) -> list[RelationReport]:
    return sorted(reports, key=lambda r: (r.suite, r.relation))


def all_passed(reports: Iterable[RelationReport]) -> bool:
    return all(r.passed for r in reports)


def reports_payload(reports: Iterable[RelationReport], /, **extra) -> dict:
    """Report file body; an empty relation list verifies nothing and fails."""
    ordered = sort_reports(reports)
    payload = {
        "relations": [r.to_json_obj() for r in ordered],
        "pass": bool(ordered) and all_passed(ordered),
    }
    payload.update(extra)
    return payload


def render_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)``
    and a newline, byte for byte, with the same refusals: ValueError for a
    NaN or infinite float and TypeError for a value json cannot write.  A
    dict key must be a string (TypeError otherwise, where json would coerce
    a number).  Payloads are trees, never circular.

    With an indent, ``json`` falls back to its pure-Python encoder, which
    holds every chunk of the text until one final join; here the text is
    the join of ``json_pieces``, each one join of its children's texts.
    """
    return "".join(json_pieces(payload))


def json_pieces(payload: dict) -> Iterator[str]:
    """The text ``render_json`` returns, in pieces: one for each member or
    element of the payload and of each object or array directly inside it,
    such as a ledger's branches, each rendered by ``_json`` with the
    punctuation before it.  A report written piece by piece holds one
    branch of a ledger at a time, not the ledger's text.  A refused value
    raises when its piece is reached."""
    yield from _pieces(payload, "\n", 2)
    yield "\n"


def _pieces(value, newline: str, depth: int) -> Iterator[str]:
    """``_json(value, newline)``, split at the members of ``value`` and of
    the containers fewer than ``depth`` levels below it."""
    if not (depth and isinstance(value, (dict, list, tuple)) and value):
        yield _json(value, newline)
        return
    inner = newline + "  "
    if isinstance(value, dict):
        # _quote raises TypeError on a key that is not a string
        members = ((_quote(k) + ": ", v) for k, v in sorted(value.items()))
        sep, close = "{" + inner, newline + "}"
    else:
        members = (("", v) for v in value)
        sep, close = "[" + inner, newline + "]"
    for prefix, v in members:
        pieces = _pieces(v, inner, depth - 1)
        yield sep + prefix + next(pieces)
        yield from pieces
        sep = "," + inner
    yield close


def _json(value, newline: str) -> str:
    """``value`` as JSON; ``newline`` is the line break and indent of the
    line it starts on."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _quote raises TypeError on a key that is not a string
        body = (_quote(k) + ": " + _json(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in value) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_text(payload: dict) -> str:
    """The text form of a ``reports_payload``.  Its rows are sorted and hold
    the texts a report file stores, so a fresh run and ``linqm report`` on
    its file print the same bytes."""
    rows = payload["relations"]
    lines = []
    for r in rows:
        lines.append(f"[{'PASS' if r['pass'] else 'FAIL'}] {r['suite']} :: {r['relation']}")
        if not r["pass"]:
            lines += [f"       {key + ':':9s} {clip(r[key], 200)}"
                      for key in ("expected", "actual", "residual")]
    n_pass = sum(r["pass"] for r in rows)
    lines.append(f"{n_pass}/{len(rows)} relations pass")
    return "\n".join(lines) + "\n"


def write_report(path: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` one at a time into a new file beside ``path``, which
    replaces ``path`` only after the last piece: a value ``json_pieces``
    refuses, or any other error, deletes that file and leaves ``path`` as
    it was.  The report gets the mode that ``open(path, "w")`` gives a new
    file, also where it replaces one."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
