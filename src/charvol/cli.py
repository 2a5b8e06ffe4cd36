"""Command-line entry point: fixture loading, computations, certification.

Each command takes `--spec` and `--out` and its own options (the `COMMANDS`
table); a report's `config` records exactly these.  `apoly` draws nothing
at random yet accepts `--seed`, which the benchmark harness (`perfbench/`)
passes to every command.  Reports are JSON; identical run configurations
(including the seed) produce byte-identical reports apart from the timing
block.  Exit codes: 0 all checks passed, 1 failure, error or usage error,
2 inconclusive.

`main` runs every command alike: it loads the spec, starts the clock and
calls the command's function, which returns (exit code, report body,
summary line, timings).  `main` writes the one report
`{spec}_{command}.json` under `--out`, with `total_s` and those timings as
its timing block, and prints `<summary line> -> <report path>` as the last
line of standard output.  A command that raises writes no report; `main`
prints the error to standard error and returns 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fixtures
from .continuation import (QUADRATURE_STEP, ContinuationError, DeformationProblem,
                           FillingCoefficients, closure_gap, fiber_over, sample_dense_set,
                           solve_filling, step_off_complete, track, track_closed_loops,
                           random_log_loop_targets)
from .eigenvar import (EigenvarError, EliminationBudgetError, build_extended, eliminate,
                       extended_point)
from .locus import near_U
from .manifold import ManifoldSpec, SpecError, h1_z2, load_spec
from .repvar import GaugedSystem, NoCompleteStructureError, find_complete, enumerate_twists
from .volume import (anchor, anchored_volume, eta_at, handedness_sign, loop_integral,
                     reference_volume_from_formula, running_integral, VolumeError)


def _load(spec_arg: str) -> ManifoldSpec:
    path = Path(spec_arg)
    if path.exists():
        return load_spec(path)
    if spec_arg in fixtures.FIXTURE_NAMES:
        return fixtures.load_fixture(spec_arg)
    raise SpecError(f"no such spec file or fixture: {spec_arg}")


def write_report(args, name: str, body: dict, timings: dict) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {"config": vars(args), "report": body, "timings": timings}
    path = out / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def report_bytes_without_timings(path: Path) -> bytes:
    doc = json.loads(path.read_text())
    doc.pop("timings", None)
    return json.dumps(doc, indent=2, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_csv(args, spec, text: str) -> None:
    path = Path(args.out) / f"{spec.name}_{args.command}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"{args.command} csv -> {path}")


def _solved(spec):
    """(deformation problem, complete structure) of the spec."""
    problem = DeformationProblem(spec)
    return problem, find_complete(problem)


def cmd_complete(args, spec):
    try:
        pt = find_complete(GaugedSystem(spec))
    except NoCompleteStructureError as e:
        return 1, {"status": "failed", "error": str(e)}, f"complete: FAILED ({e})", {}
    body = {"status": "ok", "point": pt.to_json(),
            "eta_max": eta_at(pt, handedness_sign(spec)).max_abs()}
    return 0, body, "complete: ok", {}


def cmd_h1z2(args, spec):
    z2 = h1_z2(spec)
    body = {"h1_dim": z2.h1_dim, "cusps": z2.cusp_count, "k": z2.k,
            "degree_bound": z2.degree_bound,
            "twists": [list(t.epsilon) for t in enumerate_twists(spec)]}
    return 0, body, f"h1z2: dim H^1 = {z2.h1_dim}, k = {z2.k}, bound = {z2.degree_bound}", {}


def cmd_apoly(args, spec):
    kappas = _kappas(spec, args.kappas)
    problem = DeformationProblem(spec)
    try:
        comp = find_complete(problem)
    except NoCompleteStructureError as e:
        return _apoly_failed(e, {"filled_slopes": [], "samples": 0}, {})
    fillings = sample_dense_set(problem, comp, kappas)
    filled = [f for f in fillings if f.point is not None]
    filling_errors = {f.kappa.label(): f.error for f in fillings if f.point is None}
    samples = [extended_point(f.point) for f in filled]
    for f in filled:
        for k in (len(f.path) // 3, 2 * len(f.path) // 3):
            samples.append(extended_point(f.path.points[k]))
    # every report says which slopes were filled and how many samples were used
    sampled = {"filled_slopes": [f.kappa.label() for f in filled], "samples": len(samples)}
    try:
        es = eliminate(build_extended(problem), samples)
    except EliminationBudgetError as e:
        body = {"status": "budget_exceeded", "message": str(e),
                "hint": "use the fiber/certify commands for numerical sampling", **sampled}
        return 0, body, "apoly: variable budget exceeded", {}
    except EigenvarError as e:
        return _apoly_failed(e, sampled, filling_errors)
    for p in es.polynomials:
        print("eliminant:", p.as_text())
    return 0, {"status": "ok", "eliminants": es.to_json(), **sampled}, "apoly:", {}


def _apoly_failed(error, sampled, filling_errors):
    print(f"error: {error}", file=sys.stderr)
    body = {"status": "failed", "message": str(error), **sampled,
            "filling_errors": filling_errors}
    return 1, body, "apoly: FAILED", {}


def cmd_fill(args, spec):
    kappa = FillingCoefficients.parse(args.kappa, spec.cusp_count)
    problem, comp = _solved(spec)
    pt, path_ = solve_filling(problem, comp, kappa, QUADRATURE_STEP)
    vol = anchored_volume(spec, path_)
    body = {"status": "ok", "kappa": args.kappa, "point": pt.to_json(),
            "volume": vol.to_json(), "samples": len(path_), "filling_stats": path_.stats,
            "eta_integral": vol.eta_integral, "reference": spec.reference_volume.value}
    if args.csv:
        rv = running_integral(path_, handedness_sign(spec)) + anchor(spec, path_.points[0])
        _write_csv(args, spec, path_.export_csv(rv))
    return 0, body, f"fill {args.kappa}: volume {vol.value:.9f}", {}


def cmd_track(args, spec):
    """Track a closed random loop in the log-eigenvalue coordinates and
    report the endpoint match (a smoke test of the path tracker)."""
    problem, comp = _solved(spec)
    rng = np.random.default_rng(args.seed)
    base = _generic_base_point(problem, comp)
    loop = track(problem, base, random_log_loop_targets(base, rng), first_step=0.01,
                 max_step=0.01, description=f"random loop on {spec.name}")
    mismatch = closure_gap(base, loop.endpoint())
    body = {"status": "ok", "samples": len(loop), "endpoint_mismatch": mismatch}
    if args.csv:
        _write_csv(args, spec, loop.export_csv(running_integral(loop, handedness_sign(spec))))
    return 0, body, f"track: loop of {len(loop)} samples, endpoint mismatch {mismatch:.2e}", {}


def _generic_base_point(problem, comp):
    """A tracked point away from the parabolic locus to base loops at."""
    du = [0.35 + 0.1j * (i + 1) for i in range(problem.spec.cusp_count)]
    return step_off_complete(problem, comp, du)


# an exactness loop is resolved when its Richardson estimate is below
# LOOP_TOL/20, and fails the check when its integral is at least LOOP_TOL
LOOP_TOL = 1e-6


def cmd_loops(args, spec):
    problem, comp = _solved(spec)
    results, failures, dropped, levels = run_exactness_loops(
        problem, comp, args.loops, args.seed)
    body = {"status": "ok" if not failures else "failed",
            "loop_integrals": results, "failures": failures, "dropped": dropped,
            "levels": levels, "tolerance": LOOP_TOL}
    summary = (f"loops: {len(results)} loop integrals, max |I| = "
               f"{max(map(abs, results), default=0):.2e}")
    return (0 if not failures else 1), body, summary, {}


def run_exactness_loops(problem, comp, count, seed):
    """Closed U-avoiding loops in deformation space; exactness predicts
    integrals ~ 0.  Each loop is tracked at the steps 1/64, 0.004, 0.004/3,
    0.004/9 and 0.004/27 (64, 250, 750, 2250 and 6750 samples per winding):
    the trapezoid rule converges geometrically on a smooth periodic loop, so
    most loops resolve at 64 samples, and loops passing near the branch locus
    need finer sampling.  A level that fails to track, or whose Richardson
    estimate is not below LOOP_TOL/20, hands the loop to the next level; a loop
    that passes near U is dropped at once, and one that fails at the last
    level is dropped under that level's cause.  Another loop is drawn for
    each drop.

    Loops are drawn in rounds, at most 6 * count + 20 in all: the first
    round draws `count` loops and each later one as many as the rounds
    before dropped.  A round walks the ladder one level at a time: each
    level tracks the round's draws still pending there in one
    `track_closed_loops` call.  The draws are then settled in draw order,
    so the draws, their outcomes and their order are those of tracking each
    loop by itself.

    Returns (integrals, failures, dropped, levels), dropped counting the
    loops dropped for each reason and levels the loops kept at each
    samples-per-winding count."""
    steps = (1 / 64, 0.004, 0.004 / 3, 0.004 / 9, 0.004 / 27)
    rng = np.random.default_rng(seed)
    sign = handedness_sign(problem.spec)
    base = _generic_base_point(problem, comp)
    results = []
    failures = []
    dropped = {"near_U": 0, "unresolved": 0, "tracking_failed": 0}
    levels = {round(1 / step): 0 for step in steps}
    attempts, cap = 0, 6 * count + 20
    while len(results) < count and attempts < cap:
        families = [random_log_loop_targets(base, rng, radius=(0.08, 0.3))
                    for _ in range(min(count - len(results), cap - attempts))]
        attempts += len(families)
        outcomes: list = [None] * len(families)
        pending = list(range(len(families)))
        for step in steps:
            if not pending:
                break
            loops = track_closed_loops(problem, base, [families[d] for d in pending],
                                       step, step)
            for d, loop in zip(pending, loops):
                outcomes[d] = _level_outcome(loop, sign, step)
            pending = [d for d in pending if outcomes[d] in ("tracking_failed", "unresolved")]
        for outcome in outcomes:
            if isinstance(outcome, str):
                dropped[outcome] += 1
                continue
            value, level = outcome
            results.append(value)
            levels[level] += 1
            if abs(value) >= LOOP_TOL:
                failures.append({"loop": len(results) - 1, "value": value})
    if len(results) < count:
        failures.append({"error": f"only {len(results)} of {count} loops tracked"})
    return results, failures, dropped, levels


def _level_outcome(loop, sign, step):
    """(integral, samples per winding) of a loop that resolves at its
    level, else the cause that drops it or hands it to the next level."""
    if isinstance(loop, ContinuationError):
        return "tracking_failed"
    if near_U(loop.points):
        return "near_U"
    try:
        integ = loop_integral(loop, sign)
    except VolumeError:
        return "tracking_failed"
    if integ.error_estimate < LOOP_TOL / 20:
        return integ.value, round(1 / step)
    return "unresolved"


def cmd_fiber(args, spec):
    kappa = FillingCoefficients.parse(args.kappa, spec.cusp_count)
    problem, comp = _solved(spec)
    pt, _ = solve_filling(problem, comp, kappa)
    report = fiber_over(problem, pt.trace_vector(), [pt], budget=args.budget, seed=args.seed)
    body = {"status": "inconclusive" if report.inconclusive else "ok",
            "fiber": report.to_json()}
    summary = (f"fiber over kappa={args.kappa}: sl2 {report.sl2_count}, "
               f"psl2 {report.psl2_count}{' INCONCLUSIVE' if report.inconclusive else ''}")
    return (2 if report.inconclusive else 0), body, summary, {}


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

# the largest Richardson estimate of a filled volume that certify passes
QUADRATURE_TOL = 1e-7


def cmd_certify(args, spec):
    kappas = _kappas(spec, args.kappas)
    checks: list[dict] = []
    timings: dict = {}

    def check(name, passed, value, tolerance, details="", inconclusive=False):
        checks.append({
            "name": name,
            "status": "inconclusive" if inconclusive else ("pass" if passed else "fail"),
            "value": value, "tolerance": tolerance, "details": details,
        })
        flag = "INCONCLUSIVE" if inconclusive else ("PASS" if passed else "FAIL")
        print(f"  [{flag}] {name}: {details or value}")

    print(f"certify {spec.name} (seed {args.seed})")
    try:
        problem, comp = _solved(spec)
    except NoCompleteStructureError as e:
        check("complete_structure", False, None, None, str(e))
        return 1, {"checks": checks, "overall": "fail"}, "certify: FAIL", {}

    # volume anchor cross-check against the Lobachevsky oracle
    t1 = time.perf_counter()
    formula = reference_volume_from_formula(spec)
    if formula is not None:
        err = abs(formula - spec.reference_volume.value)
        check("reference_volume_oracle", err < 1e-9, err, 1e-9,
              f"|oracle - reference| = {err:.2e}")
    timings["oracle_s"] = time.perf_counter() - t1

    # eta vanishes at the complete structure
    ev = eta_at(comp, handedness_sign(spec))
    check("eta_critical_at_complete", ev.max_abs() < 1e-9, ev.max_abs(), 1e-9,
          f"max |coefficient| = {ev.max_abs():.2e}")

    # the mod-2 degree bound 2^k, for the fiber checks and the report body
    z2 = h1_z2(spec)

    # filled characters: volumes below reference, increasing along a series,
    # quadrature-stable
    t1 = time.perf_counter()
    fillings = sample_dense_set(problem, comp, kappas, QUADRATURE_STEP)
    for f in fillings:
        if f.point is None:
            check(f"filling_{f.kappa.label()}", False, None, None, f.error)
    filled = [f for f in fillings if f.point is not None]
    vols = [(f.kappa.label(), anchored_volume(spec, f.path)) for f in filled]
    if filled:
        below = all(v.value < spec.reference_volume.value for _, v in vols)
        check("filled_volumes_below_reference", below,
              {k: v.value for k, v in vols}, spec.reference_volume.value,
              "; ".join(f"{k}: {v.value:.9f}" for k, v in vols))
        if _is_increasing_series(kappas):
            ordered = [v.value for _, v in vols]
            increasing = all(a < b for a, b in zip(ordered, ordered[1:]))
            check("filled_volumes_increase_toward_reference", increasing and below,
                  ordered, spec.reference_volume.value)
        quad_worst = max(v.quadrature_error for _, v in vols)
        check("quadrature_richardson_estimate", quad_worst < QUADRATURE_TOL,
              quad_worst, QUADRATURE_TOL,
              f"worst Richardson difference {quad_worst:.2e}")
    timings["fillings_s"] = time.perf_counter() - t1

    # exactness loops
    t1 = time.perf_counter()
    if args.loops > 0:
        integrals, failures, dropped, levels = run_exactness_loops(
            problem, comp, args.loops, args.seed)
        worst = max(map(abs, integrals), default=float("inf"))
        check("loop_exactness", not failures, worst, LOOP_TOL,
              f"{len(integrals)} loops, max |integral| = {worst:.2e}; dropped: " +
              ", ".join(f"{n} {why.replace('_', ' ')}" for why, n in dropped.items()) +
              f"; kept at {'/'.join(map(str, levels))} per winding: "
              f"{'/'.join(map(str, levels.values()))}")
    else:
        checks.append({"name": "loop_exactness", "status": "skipped",
                       "value": None, "tolerance": LOOP_TOL,
                       "details": "loop count 0"})
        print("  [SKIP] loop_exactness")
    timings["loops_s"] = time.perf_counter() - t1

    # fibers: degree one, stability under budget doubling, the 2^k bound
    t1 = time.perf_counter()
    overall_inconclusive = False
    for f in filled:
        ktext, pt = f.kappa.label(), f.point
        z = pt.trace_vector()
        rep1 = fiber_over(problem, z, [pt], budget=args.budget, seed=args.seed)
        rep2 = fiber_over(problem, z, [pt], budget=2 * args.budget, seed=args.seed + 1)
        stable = (rep1.sl2_count == rep2.sl2_count and
                  rep1.psl2_count == rep2.psl2_count)
        inconclusive = rep1.inconclusive or rep2.inconclusive or not stable
        overall_inconclusive |= inconclusive
        degree_one = rep1.psl2_count == 1
        check(f"fiber_degree_one_{ktext}", degree_one and stable and not rep1.excluded,
              {"sl2": rep1.sl2_count, "psl2": rep1.psl2_count,
               "doubled": rep2.sl2_count}, 1,
              f"psl2 = {rep1.psl2_count}, sl2 = {rep1.sl2_count}, "
              f"budget-doubled sl2 = {rep2.sl2_count}",
              inconclusive=inconclusive)
        bound_ok = rep1.sl2_count <= rep1.psl2_count * z2.degree_bound
        check(f"fiber_sl2_bound_{ktext}", bound_ok,
              rep1.sl2_count, rep1.psl2_count * z2.degree_bound,
              f"sl2 {rep1.sl2_count} <= psl2 {rep1.psl2_count} x 2^k {z2.degree_bound}")
    timings["fibers_s"] = time.perf_counter() - t1

    statuses = [c["status"] for c in checks]
    overall = "fail" if "fail" in statuses else \
        ("inconclusive" if overall_inconclusive or "inconclusive" in statuses else "pass")
    body = {"checks": checks, "overall": overall,
            "reference_volume": spec.reference_volume.value,
            "filling_stats": {f.kappa.label(): f.path.stats for f in filled},
            "h1z2": {"h1_dim": z2.h1_dim, "k": z2.k, "bound": z2.degree_bound}}
    code = 0 if overall == "pass" else (2 if overall == "inconclusive" else 1)
    return code, body, f"certify: {overall.upper()}", timings


def _kappas(spec: ManifoldSpec, texts: list[str]) -> list[FillingCoefficients]:
    """The slopes given on the command line, or by default (1,q) on every
    cusp: q in 5, 7, 11 for one cusp, every combination of q in 5, 7 for
    more."""
    if texts:
        return [FillingCoefficients.parse(k, spec.cusp_count) for k in texts]
    qs = (5, 7, 11) if spec.cusp_count == 1 else (5, 7)
    return [FillingCoefficients(tuple((1, q) for q in combo))
            for combo in itertools.product(qs, repeat=spec.cusp_count)]


def _is_increasing_series(kappas: list[FillingCoefficients]) -> bool:
    """True for a single-cusp series (1,q1), (1,q2), ... with increasing q."""
    if any(len(k.slopes) != 1 or k.slopes[0] is None or k.slopes[0][0] != 1
           for k in kappas):
        return False
    qs = [k.slopes[0][1] for k in kappas]
    return all(a < b for a, b in zip(qs, qs[1:]))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error by raising, so that `main` returns 1 (exit
    code 2 means "inconclusive")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


class _Once(argparse.Action):
    """An option that may be given once."""

    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given once")
        setattr(namespace, self.dest, value)


def _at_least(least: int):
    """The type of a count option: an integer no smaller than `least`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return value
    return integer


_KAPPA_HELP = "filling coefficients, e.g. '1,5' or '1,5;inf'"

# option name (its attribute on the parsed arguments) -> flag, argparse keywords
OPTIONS = {
    "seed": ("--seed", {"type": int, "default": 0, "help": "seed of the random draws"}),
    "kappas": ("--kappa", {"action": "append", "default": [], "metavar": "KAPPA",
                           "help": _KAPPA_HELP + " (repeatable; default: (1,q) slopes)"}),
    "kappa": ("--kappa", {"action": _Once, "required": True, "help": _KAPPA_HELP}),
    "budget": ("--budget", {"type": _at_least(1), "default": 64,
                            "help": "multistart attempts per fiber"}),
    "loops": ("--loops", {"type": _at_least(0), "default": 10, "help": "exactness loops"}),
    "csv": ("--csv", {"action": "store_true", "help": "also write a CSV trace"}),
}

# command -> function, help, its own options
COMMANDS = {
    "complete": (cmd_complete, "solve for the complete hyperbolic structure", ()),
    "apoly": (cmd_apoly, "eliminate to defining equations of the eigenvalue variety",
              ("seed", "kappas")),
    "fill": (cmd_fill, "solve a Dehn filling by continuation and give its anchored volume",
             ("kappa", "csv")),
    "track": (cmd_track, "track a random closed deformation loop", ("seed", "csv")),
    "loops": (cmd_loops, "exactness loop integrals of the volume form",
              ("seed", "loops")),
    "fiber": (cmd_fiber, "count the fiber of the boundary-trace map over a filled point",
              ("seed", "kappa", "budget")),
    "h1z2": (cmd_h1z2, "mod-2 cohomology data and the degree bound", ()),
    "certify": (cmd_certify, "run the full certification suite",
                ("seed", "kappas", "budget", "loops")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="charvol",
        description="character varieties, eigenvalue varieties and the "
                    "volume differential for cusped hyperbolic 3-manifolds")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--spec", required=True,
                       help="path to a .spec file or a fixture name "
                            f"({', '.join(fixtures.FIXTURE_NAMES)})")
        p.add_argument("--out", default=".", help="output directory")
        for name in options:
            flag, kwargs = OPTIONS[name]
            p.add_argument(flag, dest=name, **kwargs)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        t0 = time.perf_counter()
        spec = _load(args.spec)
        code, body, summary, timings = COMMANDS[args.command][0](args, spec)
        path = write_report(args, f"{spec.name}_{args.command}", body,
                            {"total_s": time.perf_counter() - t0, **timings})
        print(f"{summary} -> {path}")
        return code
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ContinuationError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
