"""The benchmark's per-layer tracer (perfbench/spans.py) still finds every
function it names, so a rename or merge in ringscope fails here and not
only in a traced benchmark run.  spans.py is loaded read-only."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _resolve(module, attr):
    owner = importlib.import_module(f"ringscope.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    assert len(set(spans.NAMES)) == len(spans.TRACED)
    for name, module, attr in spans.TRACED:
        assert callable(_resolve(module, attr)), name
    # installing the wrappers raises LookupError on a stale name
    with spans.Tracer().installed():
        for name, module, attr in spans.TRACED:
            assert hasattr(_resolve(module, attr), "__wrapped__"), name
    for name, module, attr in spans.TRACED:
        assert not hasattr(_resolve(module, attr), "__wrapped__"), name
