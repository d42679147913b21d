"""The traced benchmark passes rebind ``linqm`` entry points by name.

``bench/spans.py`` looks each one up with ``getattr`` or a class
``__dict__`` when a traced pass starts, so a rename in ``src/`` would only
show up as a crash of ``bench/run.py --trace 1``.  This test resolves every
name without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

from linqm.scalar import Scalar

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    spans = _load_spans()
    missing = []
    for _, module, attr in spans.TARGETS:
        mod = importlib.import_module(f"linqm.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            ok = cls is not None and meth in vars(cls)
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_counted_scalar_op_is_defined_on_the_class():
    spans = _load_spans()
    assert [op for op in spans.SCALAR_OPS if op not in Scalar.__dict__] == []
