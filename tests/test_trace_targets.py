"""The benchmark's tracer patches headlearn functions by (module, qualified
name); a rename must fail here, not in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for mod_name, qual in spans.TARGETS:
        owner = importlib.import_module(f"headlearn.{mod_name}")
        *classes, name = qual.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        # methods are patched on the class that defines them
        assert callable(vars(owner).get(name)), f"{mod_name}.{qual}"
