"""The benchmark's tracer, perfbench/spans.py, wraps library functions by
name and checks that modules importing them by value see its wrappers. A
rename, or a module that stops importing a pinned name, would make every
traced benchmark run raise; these checks catch it in the tests instead."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _qcapprox(name: str):
    return importlib.import_module(f"qcapprox.{name}")


def test_every_wrapped_function_exists():
    spans = _load_spans()
    missing = [f"{m}.{fn}" for m, fns in spans.WRAPPED.items() for fn in fns
               if not callable(getattr(_qcapprox(m), fn, None))]
    assert missing == []


def test_by_name_imports_are_the_defining_objects():
    spans = _load_spans()
    for module, attr, name in spans.BY_NAME_IMPORTS:
        home, fn = name.split(".")
        assert getattr(_qcapprox(module), attr, None) is getattr(_qcapprox(home), fn), (module, attr, name)
