"""Command-line entry point: fixture loading, computations, certification.

Each command takes `--spec` and `--out` and its own options (the `COMMANDS`
table); a report's `config` records exactly these.  `apoly` draws nothing
at random yet accepts `--seed`, which the benchmark harness (`perfbench/`)
passes to every command.  Reports are JSON; identical run configurations
(including the seed) produce byte-identical reports apart from the timing
block.  Exit codes: 0 all checks passed, 1 failure, error or usage error,
2 inconclusive.
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
from .continuation import (ContinuationError, DeformationProblem,
                           FillingCoefficients, fiber_over, sample_dense_set, solve_filling,
                           track, track_closed_loop, random_log_loop_targets)
from .eigenvar import (EigenvarError, EliminationBudgetError, build_extended, eliminate,
                       extended_point)
from .locus import TOLERANCES as LOCUS_TOL, eigenvalues, on_U
from .manifold import ManifoldSpec, SpecError, h1_z2, load_spec
from .repvar import (GaugedSystem, NoCompleteStructureError, find_complete,
                     enumerate_twists)
from .volume import (anchored_volume, eta_at, handedness_sign, loop_integral,
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

def cmd_complete(args) -> int:
    t0 = time.perf_counter()
    spec = _load(args.spec)
    try:
        system = GaugedSystem(spec)
        pt = find_complete(spec, system)
    except (NoCompleteStructureError, SpecError) as e:
        write_report(args, f"{spec.name}_complete",
                     {"status": "failed", "error": str(e)},
                     {"total_s": time.perf_counter() - t0})
        print(f"complete: FAILED ({e})")
        return 1
    body = {"status": "ok", "point": pt.to_json(),
            "eta_max": eta_at(pt, handedness_sign(spec)).max_abs()}
    path = write_report(args, f"{spec.name}_complete", body,
                        {"total_s": time.perf_counter() - t0})
    print(f"complete: ok -> {path}")
    return 0


def cmd_h1z2(args) -> int:
    spec = _load(args.spec)
    z2 = h1_z2(spec)
    body = {"h1_dim": z2.h1_dim, "cusps": z2.cusp_count, "k": z2.k,
            "degree_bound": z2.degree_bound,
            "twists": [list(t.epsilon) for t in enumerate_twists(spec)]}
    path = write_report(args, f"{spec.name}_h1z2", body, {})
    print(f"h1z2: dim H^1 = {z2.h1_dim}, k = {z2.k}, bound = {z2.degree_bound} -> {path}")
    return 0


def cmd_apoly(args) -> int:
    t0 = time.perf_counter()
    spec = _load(args.spec)
    kappas = _kappas(spec, args.kappas)
    system = GaugedSystem(spec)
    ext = build_extended(system)
    samples, slopes, filling_errors = None, [], {}
    try:
        comp = find_complete(spec, system)
        fillings = sample_dense_set(DeformationProblem(system), comp, kappas)
        filled = [f for f in fillings if f.point is not None]
        filling_errors = {f.kappa.label(): f.error for f in fillings if f.point is None}
        slopes = [f.kappa.label() for f in filled]
        samples = [extended_point(ext, f.point) for f in filled]
        for f in filled:
            for k in (len(f.path) // 3, 2 * len(f.path) // 3):
                samples.append(extended_point(ext, f.path.points[k]))
    except (NoCompleteStructureError, ContinuationError):
        samples, slopes = None, []
    # every report says which slopes were filled and how many samples were used
    sampled = {"filled_slopes": slopes, "samples": len(samples or ())}
    try:
        es = eliminate(ext, samples=samples)
    except EliminationBudgetError as e:
        body = {"status": "budget_exceeded", "message": str(e),
                "hint": "use the fiber/certify commands for numerical sampling", **sampled}
        path = write_report(args, f"{spec.name}_apoly", body,
                            {"total_s": time.perf_counter() - t0})
        print(f"apoly: variable budget exceeded -> {path}")
        return 0
    except EigenvarError as e:
        body = {"status": "failed", "message": str(e), **sampled,
                "filling_errors": filling_errors}
        path = write_report(args, f"{spec.name}_apoly", body,
                            {"total_s": time.perf_counter() - t0})
        print(f"error: {e}", file=sys.stderr)
        print(f"apoly: FAILED -> {path}")
        return 1
    body = {"status": "ok", "eliminants": es.to_json(), **sampled}
    path = write_report(args, f"{spec.name}_apoly", body,
                        {"total_s": time.perf_counter() - t0})
    for p in es.polynomials:
        print("eliminant:", p.as_text())
    print(f"apoly: -> {path}")
    return 0


def cmd_fill(args) -> int:
    t0 = time.perf_counter()
    spec = _load(args.spec)
    kappa = FillingCoefficients.parse(args.kappa, spec.cusp_count)
    system = GaugedSystem(spec)
    comp = find_complete(spec, system)
    pt, path_ = solve_filling(DeformationProblem(system), comp, kappa)
    vol = anchored_volume(spec, path_)
    body = {"status": "ok", "kappa": args.kappa, "point": pt.to_json(),
            "volume": vol.to_json(), "samples": len(path_),
            "eta_integral": vol.eta_integral, "reference": spec.reference_volume.value}
    path = write_report(args, f"{spec.name}_fill", body,
                        {"total_s": time.perf_counter() - t0})
    if args.csv:
        csv_path = Path(args.out) / f"{spec.name}_fill.csv"
        sign0 = path_.points[0].orientation or 1
        rv = running_integral(path_, handedness_sign(spec)) + \
            sign0 * spec.reference_volume.value
        csv_path.write_text(path_.export_csv(rv))
        print(f"fill csv -> {csv_path}")
    print(f"fill {args.kappa}: volume {vol.value:.9f} -> {path}")
    return 0


def cmd_track(args) -> int:
    """Track a closed random loop in the log-eigenvalue coordinates and
    report the endpoint match (a smoke test of the path tracker)."""
    t0 = time.perf_counter()
    spec = _load(args.spec)
    system = GaugedSystem(spec)
    comp = find_complete(spec, system)
    problem = DeformationProblem(system)
    rng = np.random.default_rng(args.seed)
    base = _generic_base_point(spec, problem, comp)
    loop = track(problem, base, random_log_loop_targets(base, rng),
                 tau0=0.0, tau1=1.0, first_step=0.01, max_step=0.01,
                 description=f"random loop on {spec.name}")
    end = loop.endpoint()
    mismatch = max(max(abs(a.m - b.m), abs(a.l - b.l))
                   for a, b in zip(base.cusps, end.cusps))
    body = {"status": "ok", "samples": len(loop), "endpoint_mismatch": mismatch}
    path = write_report(args, f"{spec.name}_track", body,
                        {"total_s": time.perf_counter() - t0})
    if args.csv:
        csv_path = Path(args.out) / f"{spec.name}_track.csv"
        csv_path.write_text(loop.export_csv(running_integral(loop, handedness_sign(spec))))
        print(f"track csv -> {csv_path}")
    print(f"track: loop of {len(loop)} samples, endpoint mismatch {mismatch:.2e} -> {path}")
    return 0


def _generic_base_point(spec, problem, comp):
    """A tracked point away from the parabolic locus to base loops at."""
    from .continuation import step_off_complete
    h = spec.cusp_count
    du = [0.35 + 0.1j * (i + 1) for i in range(h)]
    return step_off_complete(problem, comp, du)


# an exactness loop is resolved when its Richardson estimate is below
# LOOP_TOL/20, and fails the check when its integral is at least LOOP_TOL
LOOP_TOL = 1e-6


def cmd_loops(args) -> int:
    t0 = time.perf_counter()
    spec = _load(args.spec)
    system = GaugedSystem(spec)
    comp = find_complete(spec, system)
    problem = DeformationProblem(system)
    results, failures, dropped, levels = run_exactness_loops(
        spec, problem, comp, args.loops, args.seed)
    body = {"status": "ok" if not failures else "failed",
            "loop_integrals": results, "failures": failures, "dropped": dropped,
            "levels": levels, "tolerance": LOOP_TOL}
    path = write_report(args, f"{spec.name}_loops", body,
                        {"total_s": time.perf_counter() - t0})
    print(f"loops: {len(results)} loop integrals, max |I| = "
          f"{max(map(abs, results), default=0):.2e} -> {path}")
    return 0 if not failures else 1


def run_exactness_loops(spec, problem, comp, count, seed):
    """Closed U-avoiding loops in deformation space; exactness predicts
    integrals ~ 0.  Each loop is tracked at the steps 1/64, 0.004, 0.004/3,
    0.004/9 and 0.004/27 (64, 250, 750, 2250 and 6750 samples per winding):
    the trapezoid rule converges geometrically on a smooth periodic loop, so
    most loops resolve at 64 samples, and loops passing near the branch locus
    need finer sampling.  A level that fails to track, or whose Richardson
    estimate is not below LOOP_TOL/20, hands the loop to the next level; a loop
    that passes near U is dropped at once, and one that fails at the last
    level is dropped under that level's cause.  Another loop is drawn for
    each drop.  Returns (integrals, failures, dropped, levels), dropped
    counting the loops dropped for each reason and levels the loops kept at
    each samples-per-winding count."""
    steps = (1 / 64, 0.004, 0.004 / 3, 0.004 / 9, 0.004 / 27)
    rng = np.random.default_rng(seed)
    sign = handedness_sign(spec)
    base = _generic_base_point(spec, problem, comp)
    results = []
    failures = []
    dropped = {"near_U": 0, "unresolved": 0, "tracking_failed": 0}
    levels = {round(1 / step): 0 for step in steps}
    attempts = 0
    while len(results) < count and attempts < 6 * count + 20:
        attempts += 1
        family = random_log_loop_targets(base, rng, radius=(0.08, 0.3))
        for step in steps:
            try:
                loop = track_closed_loop(
                    problem, base, family, first_step=step, max_step=step,
                    description=f"exactness loop {len(results)} on {spec.name}")
                if any(on_U(eigenvalues(pt), LOCUS_TOL["near"]) for pt in loop.points):
                    dropped["near_U"] += 1
                    break
                integ = loop_integral(loop, sign)
            except (ContinuationError, VolumeError):
                cause = "tracking_failed"
                continue
            if integ.error_estimate < LOOP_TOL / 20:
                results.append(integ.value)
                levels[round(1 / step)] += 1
                if abs(integ.value) >= LOOP_TOL:
                    failures.append({"loop": len(results) - 1, "value": integ.value})
                break
            cause = "unresolved"
        else:
            dropped[cause] += 1
    if len(results) < count:
        failures.append({"error": f"only {len(results)} of {count} loops tracked"})
    return results, failures, dropped, levels


def cmd_fiber(args) -> int:
    t0 = time.perf_counter()
    spec = _load(args.spec)
    kappa = FillingCoefficients.parse(args.kappa, spec.cusp_count)
    system = GaugedSystem(spec)
    comp = find_complete(spec, system)
    problem = DeformationProblem(system)
    pt, path_ = solve_filling(problem, comp, kappa)
    z = pt.trace_vector()
    report = fiber_over(system, z, [pt], budget=args.budget, seed=args.seed)
    body = {"status": "inconclusive" if report.inconclusive else "ok",
            "fiber": report.to_json()}
    path = write_report(args, f"{spec.name}_fiber", body,
                        {"total_s": time.perf_counter() - t0})
    print(f"fiber over kappa={args.kappa}: sl2 {report.sl2_count}, "
          f"psl2 {report.psl2_count}{' INCONCLUSIVE' if report.inconclusive else ''} -> {path}")
    return 2 if report.inconclusive else 0


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

# the largest Richardson estimate of a filled volume that certify passes
QUADRATURE_TOL = 1e-7


def cmd_certify(args) -> int:
    t0 = time.perf_counter()
    spec = _load(args.spec)
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
    system = GaugedSystem(spec)
    try:
        comp = find_complete(spec, system)
    except NoCompleteStructureError as e:
        check("complete_structure", False, None, None, str(e))
        path = write_report(args, f"{spec.name}_certify",
                            {"checks": checks, "overall": "fail"},
                            {"total_s": time.perf_counter() - t0})
        print(f"certify: FAIL -> {path}")
        return 1
    problem = DeformationProblem(system)

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
    fillings = sample_dense_set(problem, comp, kappas)
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
            spec, problem, comp, args.loops, args.seed)
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
        rep1 = fiber_over(system, z, [pt], budget=args.budget, seed=args.seed)
        rep2 = fiber_over(system, z, [pt], budget=2 * args.budget, seed=args.seed + 1)
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
            "h1z2": {"h1_dim": z2.h1_dim, "k": z2.k, "bound": z2.degree_bound}}
    path = write_report(args, f"{spec.name}_certify", body,
                        {"total_s": time.perf_counter() - t0, **timings})
    print(f"certify: {overall.upper()} -> {path}")
    return 0 if overall == "pass" else (2 if overall == "inconclusive" else 1)


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
        return COMMANDS[args.command][0](args)
    except (SpecError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ContinuationError, NoCompleteStructureError) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
