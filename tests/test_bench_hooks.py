"""The benchmark in perfbench/ wraps charvol functions by name; a rename in
charvol must not silently break it."""

import importlib
import importlib.util
from pathlib import Path

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
