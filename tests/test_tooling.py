"""The benchmark's tracer, perfbench/spans.py, wraps library functions by
name and checks that modules importing them by value see its wrappers. A
rename, or a module that stops importing a pinned name, would make every
traced benchmark run raise; these checks catch it in the tests instead.
One untraced pass of every benchmark workload runs here too, so a job whose
output check fails shows up as a test failure."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, register=None):
    """perfbench/<name>.py as a module; `register(key, module)` records it
    in sys.modules before it runs, as dataclasses need."""
    key = f"perfbench_{name}_under_test"
    spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if register is not None:
        register(key, module)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


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


def test_one_untraced_pass_of_every_workload_passes_its_checks(tmp_path, monkeypatch):
    workloads = _load("workloads", lambda key, m: monkeypatch.setitem(sys.modules, key, m))
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, tmp_path)
        try:
            for job in workload.jobs:
                assert job.check(job.run()) is None, (name, job.kind)
            assert [err for _, err in workload.probes() if err is not None] == [], name
        finally:
            workload.close()


def test_report_key_changes_with_every_field_of_a_controlled_gate(monkeypatch):
    # The benchmark compares circuits by report_key, which reads a gate's
    # `controls` and `matrix`; on a multi-branch gate these must still carry
    # every wire, pattern, the target and every stack entry.
    workloads = _load("workloads", lambda key, m: monkeypatch.setitem(sys.modules, key, m))
    tensor = _qcapprox("tensor")
    rng = np.random.default_rng(7)
    stack = np.array([workloads.random_unitary(2, rng) for _ in range(3)])
    fields = dict(wires=(0, 2), target=1, pattern=np.array([3, 0, 1]), stack=stack)

    def key(gate):
        return workloads.report_key(SimpleNamespace(circuit=tensor.Circuit(4, (gate,))))

    def variant(**changed):
        return tensor.ControlledGate.multiplexor(**{**fields, **changed})

    base = key(variant())
    assert key(variant()) == base
    entry = stack.copy()
    entry[2, 1] *= -1  # one row of one branch negated: still unitary
    for gate in (variant(pattern=[3, 0, 2]), variant(wires=(0, 3)), variant(target=3),
                 variant(stack=entry)):
        assert key(gate) != base
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert (key(tensor.ControlledGate(((0, 1), (2, 0)), 1, x))
            != key(tensor.ControlledGate(((0, 1), (2, 1)), 1, x)))
