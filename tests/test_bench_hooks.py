"""The benchmark in perfbench/ wraps charvol functions by name; a rename in
charvol must not silently break it."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()


@pytest.mark.parametrize("layer,modname,attr", _spans.SPANNED + _spans.HOT)
def test_benchmark_hook_resolves(layer, modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), layer


def test_benchmark_fingerprint_names_resolve():
    # perfbench/run.py's environment fingerprint reads this alias
    from charvol import gaussian
    assert gaussian._mpq.__name__


def test_each_compiled_evaluation_counts_once():
    """The benchmark wraps `values`, `jacobian` and `values_and_jacobian`;
    none may reach the block through another wrapped method, or the
    `poly.compiled` count would no longer count evaluations."""
    import charvol.cli  # noqa: F401  (the tracer patches every layer module)
    from charvol.fixtures import load_fixture
    from charvol.repvar import GaugedSystem
    system = GaugedSystem(load_fixture("fig8"))
    x = np.array([1.1 + 0.2j, 0.9 - 0.1j, 0.3 + 0.4j])
    tracer = _spans.Tracer().install()
    try:
        for method in ("values", "jacobian", "values_and_jacobian"):
            before = tracer.hot["poly.compiled"][0]
            getattr(system.compiled, method)(x)
            assert tracer.hot["poly.compiled"][0] == before + 1, method
    finally:
        tracer.uninstall()
