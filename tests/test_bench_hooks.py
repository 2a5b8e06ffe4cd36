"""The benchmark in perfbench/ wraps charvol functions by name; a rename in
charvol must not silently break it."""

import importlib
import importlib.util
import sys
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


def test_correct_returns_convergence_flag_at_index_2(fig8_problem, fig8_complete):
    """The tracer counts `continuation.correct.fail` from index 2 of
    `DeformationProblem.correct`'s 3-tuple."""
    from charvol.continuation import pin_log, step_off_complete
    from charvol.repvar import CharacterPoint
    base = step_off_complete(fig8_problem, fig8_complete, [0.3 + 0.1j])
    u0 = base.cusps[0].u - base.cusps[0].base_u
    near = pin_log(lambda tau: np.array([u0 + 0.01 * tau]))
    far = pin_log(lambda tau: np.array([u0 + 40 * tau]))
    for family, maxiter, converged in ((near, 30, True), (far, 2, False)):
        result = fig8_problem.correct(base.coords, base, family, 1.0, maxiter=maxiter)
        assert isinstance(result, tuple) and len(result) == 3
        assert result[2] is converged
        if converged:
            assert isinstance(result[0], CharacterPoint) and result[1] < 1e-11
        else:
            assert result[0] is None
        assert _spans._result_counts("continuation.correct", result, {}) is not converged


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


def test_sample_point_span_counts_once_per_extended_point(fig8_fillings):
    """The tracer's wrapper forwards any signature; a call through
    `extended_point` is one `eigenvar.sample_point` call."""
    import charvol.cli  # noqa: F401  (the tracer patches every layer module)
    from charvol.eigenvar import extended_point
    _, pt, _ = fig8_fillings[0]
    tracer = _spans.Tracer().install()
    try:
        before = tracer.layer_metrics()["eigenvar.sample_point.calls"]
        extended_point(pt)
        assert tracer.layer_metrics()["eigenvar.sample_point.calls"] == before + 1
    finally:
        tracer.uninstall()


def test_benchmark_workload_command_lines_parse(monkeypatch, tmp_path):
    """perfbench/run.py appends `--seed N --out DIR` to each workload's
    command line; the CLI must accept every one, or the benchmark stops."""
    from charvol import cli
    monkeypatch.syspath_prepend(str(SPANS.parent))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", SPANS.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    for name, wl in run.WORKLOADS.items():
        args = cli.build_parser().parse_args([*wl.argv, "--seed", "0", "--out", str(tmp_path)])
        assert (args.command, args.seed, args.out) == (wl.argv[0], 0, str(tmp_path)), name
