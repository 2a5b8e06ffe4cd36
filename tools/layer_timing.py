"""Time the layers of the Newton kernel in two source trees.

    python tools/layer_timing.py PARENT CHANGE [--rounds N]

PARENT and CHANGE are checkouts (each with a `src/charvol`).  On fig8 and
wlink, at the base point of the exactness loops (`cli._generic_base_point`)
and the first loop that `default_rng(1)` draws, it times the sequential
layers:

- `values_and_jacobian`: one single-point call of the gauged system's
  compiled block;
- `rows_F`: one call F(x) of `DeformationProblem._rows`;
- `correct`: one `DeformationProblem.correct` from the predicted point of
  the first 1/64 step;
- `track_step`: one accepted step of `track` along that loop at 1/64 (a
  whole winding, divided by its accepted steps);

and, on the filling of `KAPPAS` (fig8 1,5 and wlink 1,5;1,7), the stacked
layers, each called with the arguments its caller passed:

- `multistart`: the `gauss_newton_lockstep` solve of `fiber_over` at the
  filled point's traces (128 starts, seed 1, `monodromy_loops=0`);
- `grid`: the `_grid_samples` call of `solve_filling` at
  `QUADRATURE_STEP`;

and one layer of the exactness loops:

- `loops_64`: `cli.run_exactness_loops(problem, complete, 10, 1003)`, whose
  ten draws all resolve at 64 samples per winding on both specs, so it
  times the first level of one round of loops.

Each round runs both trees, each in a fresh process with
`PYTHONPATH=<tree>/src` (the parent first in even rounds, the change first
in odd ones).  Before the first round, one untimed process of the parent
tree runs and its output is discarded: the first process on a quiet machine
runs slow, and without it a single round can read every layer of the first
tree as much slower than the second.  A process reports, per layer, the
fastest of `REPEATS` timed runs of about `RUN_SECONDS` each (`measure`;
the process is this script with the single argument `measure`); a layer
that takes longer than a run, such as `loops_64`, runs once per repeat,
and `FEW_REPEATS` of them.  The tool
prints, per layer and tree, the median and quartiles over the rounds in
microseconds, and the ratio of the medians.  `--rounds` defaults to 10.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

REPEATS = 15
FEW_REPEATS = 3
RUN_SECONDS = 0.01
SPECS = ("fig8", "wlink")
LAYERS = ("values_and_jacobian", "rows_F", "correct", "track_step", "multistart", "grid",
          "loops_64")
KAPPAS = {"fig8": "1,5", "wlink": "1,5;1,7"}


def _captured(module, name: str, call) -> tuple:
    """The arguments of the first call of `module.name` that call() makes,
    and call()'s result."""
    fn, seen = getattr(module, name), []
    setattr(module, name, lambda *args: seen.append(args) or fn(*args))
    try:
        result = call()
    finally:
        setattr(module, name, fn)
    return seen[0], result


def _layers(name: str) -> dict:
    """The timed calls on one spec: layer -> (function, calls it stands for)."""
    import numpy as np
    import charvol.continuation as cont
    from charvol.cli import _generic_base_point, run_exactness_loops
    from charvol.continuation import (QUADRATURE_STEP, DeformationProblem, FillingCoefficients,
                                      fiber_over, random_log_loop_targets, solve_filling,
                                      track)
    from charvol.fixtures import load_fixture
    from charvol.repvar import find_complete

    problem = DeformationProblem(load_fixture(name))
    complete = find_complete(problem)
    kappa = FillingCoefficients.parse(KAPPAS[name], len(problem.cusps))
    grid, (filled, _) = _captured(cont, "_grid_samples", lambda: solve_filling(
        problem, complete, kappa, QUADRATURE_STEP))
    multistart, _ = _captured(cont, "gauss_newton_lockstep", lambda: fiber_over(
        problem, filled.trace_vector(), [filled], budget=128, seed=1, monodromy_loops=0))
    base = _generic_base_point(problem, complete)
    family = random_log_loop_targets(base, np.random.default_rng(1), radius=(0.08, 0.3))
    step = 1 / 64
    x = problem.predict([base], [0.0], step)
    F = problem._rows(base, family, step)

    def one_winding():
        return track(problem, base, family, first_step=step, max_step=step)
    return {"values_and_jacobian": (lambda: problem.compiled.values_and_jacobian(x), 1),
            "rows_F": (lambda: F(x), 1),
            "correct": (lambda: problem.correct(x, base, family, step), 1),
            "track_step": (one_winding, len(one_winding()) - 1),
            "multistart": (lambda: cont.gauss_newton_lockstep(*multistart), 1),
            "grid": (lambda: cont._grid_samples(*grid), 1),
            "loops_64": (lambda: run_exactness_loops(problem, complete, 10, 1003), 1)}


def measure() -> dict:
    """Microseconds per call of each layer on each spec, in this process's
    charvol: per layer, the fastest of REPEATS timed runs of n calls, with n
    chosen so that one run takes about RUN_SECONDS; a layer whose single
    call takes longer than a run has FEW_REPEATS runs of one call.  The runs
    of all layers take turns, so that a slow spell of the host touches
    every layer."""
    calls = {(name, layer): call for name in SPECS for layer, call in _layers(name).items()}
    timers = {}
    for key, (fn, _) in calls.items():
        timer = timeit.Timer(fn)
        once = timer.timeit(1)
        timers[key] = (timer, max(1, round(RUN_SECONDS / max(once, 1e-7))),
                       REPEATS if once < RUN_SECONDS else FEW_REPEATS)
    best = dict.fromkeys(calls, float("inf"))
    for r in range(REPEATS):
        for key, (timer, n, repeats) in timers.items():
            if r < repeats:
                best[key] = min(best[key], timer.timeit(n) / n)
    return {name: {layer: best[name, layer] / calls[name, layer][1] * 1e6 for layer in LAYERS}
            for name in SPECS}


def run_tree(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "measure"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if argv[:1] == ["measure"]:
        print(json.dumps(measure()))
        return 0
    rounds = 10
    if len(argv) == 4 and argv[2] == "--rounds":
        rounds = int(argv[3])
    elif len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]), "change": Path(argv[1])}
    runs = {side: [] for side in trees}
    run_tree(trees["parent"])  # warm-up, discarded
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            runs[side].append(run_tree(trees[side]))
    print(f"{rounds} rounds, each tree in a fresh process per round, alternating order; "
          "us per call: median [q1, q3]")
    for name in SPECS:
        for layer in LAYERS:
            stats = {side: quartiles([run[name][layer] for run in runs[side]])
                     for side in trees}
            cells = "  ".join(f"{side} {q2:8.2f} [{q1:.2f}, {q3:.2f}]"
                              for side, (q1, q2, q3) in stats.items())
            ratio = stats["change"][1] / stats["parent"][1]
            print(f"{name:6} {layer:20} {cells}  change/parent {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
