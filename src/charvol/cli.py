"""Command-line entry point: fixture loading, computations, certification.

Reports are JSON with a recorded seed and tolerance table; identical run
configurations (including the seed) produce byte-identical reports apart
from the timing block.  Exit codes: 0 all checks passed, 1 failure or error,
2 inconclusive.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
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
from .volume import (anchored_volume, eta_at, fiber_volume_equality,
                     handedness_sign, integrate_eta, loop_integral,
                     reference_volume_from_formula, running_integral,
                     VolumeError)

DEFAULT_TOLERANCES = {
    "residual": 1e-10,
    "dedup": 1e-6,
    "loop_exactness": 1e-6,
    "volume_equality": 1e-6,
    "parabolic_trace": 1e-9,
    "quadrature": 1e-7,
    "eliminant_residual": 1e-8,
}


@dataclass
class RunConfig:
    command: str
    spec_path: str
    seed: int = 0
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    budget: int = 64
    loops: int = 10
    kappas: list = field(default_factory=list)
    out_dir: str = "."
    csv: bool = False

    def __post_init__(self):
        for k, v in self.tolerances.items():
            if v <= 0:
                raise ValueError(f"tolerance {k} must be positive")

    def to_json(self):
        return {"command": self.command, "spec": self.spec_path,
                "seed": self.seed, "tolerances": self.tolerances,
                "budget": self.budget, "loops": self.loops,
                "kappas": self.kappas, "out": self.out_dir, "csv": self.csv}


def _load(spec_arg: str) -> ManifoldSpec:
    path = Path(spec_arg)
    if path.exists():
        return load_spec(path)
    if spec_arg in fixtures.FIXTURE_NAMES:
        return fixtures.load_fixture(spec_arg)
    raise SpecError(f"no such spec file or fixture: {spec_arg}")


def write_report(config: RunConfig, name: str, body: dict, timings: dict) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {"config": config.to_json(), "report": body, "timings": timings}
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

def cmd_complete(config: RunConfig) -> int:
    t0 = time.perf_counter()
    spec = _load(config.spec_path)
    try:
        system = GaugedSystem(spec)
        pt = find_complete(spec, system)
    except (NoCompleteStructureError, SpecError) as e:
        write_report(config, f"{spec.name}_complete",
                     {"status": "failed", "error": str(e)},
                     {"total_s": time.perf_counter() - t0})
        print(f"complete: FAILED ({e})")
        return 1
    body = {"status": "ok", "point": pt.to_json(),
            "eta_max": eta_at(pt, handedness_sign(spec)).max_abs()}
    path = write_report(config, f"{spec.name}_complete", body,
                        {"total_s": time.perf_counter() - t0})
    print(f"complete: ok -> {path}")
    return 0


def cmd_h1z2(config: RunConfig) -> int:
    spec = _load(config.spec_path)
    z2 = h1_z2(spec)
    body = {"h1_dim": z2.h1_dim, "cusps": z2.cusp_count, "k": z2.k,
            "degree_bound": z2.degree_bound,
            "twists": [list(t.epsilon) for t in enumerate_twists(spec)]}
    path = write_report(config, f"{spec.name}_h1z2", body, {})
    print(f"h1z2: dim H^1 = {z2.h1_dim}, k = {z2.k}, bound = {z2.degree_bound} -> {path}")
    return 0


def cmd_apoly(config: RunConfig) -> int:
    t0 = time.perf_counter()
    spec = _load(config.spec_path)
    system = GaugedSystem(spec)
    ext = build_extended(system)
    kappas = [FillingCoefficients.parse(k, spec.cusp_count) for k in config.kappas] or [
        FillingCoefficients(tuple((1, q) for q in qs))
        for qs in itertools.product((5, 7, 11), repeat=spec.cusp_count)]
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
        es = eliminate(ext, samples=samples,
                       sample_tol=config.tolerances["eliminant_residual"])
    except EliminationBudgetError as e:
        body = {"status": "budget_exceeded", "message": str(e),
                "hint": "use the fiber/certify commands for numerical sampling", **sampled}
        path = write_report(config, f"{spec.name}_apoly", body,
                            {"total_s": time.perf_counter() - t0})
        print(f"apoly: variable budget exceeded -> {path}")
        return 0
    except EigenvarError as e:
        body = {"status": "failed", "message": str(e), **sampled,
                "filling_errors": filling_errors}
        path = write_report(config, f"{spec.name}_apoly", body,
                            {"total_s": time.perf_counter() - t0})
        print(f"error: {e}", file=sys.stderr)
        print(f"apoly: FAILED -> {path}")
        return 1
    body = {"status": "ok", "eliminants": es.to_json(), **sampled}
    path = write_report(config, f"{spec.name}_apoly", body,
                        {"total_s": time.perf_counter() - t0})
    for p in es.polynomials:
        print("eliminant:", p.as_text())
    print(f"apoly: -> {path}")
    return 0


def _fill_one(spec, system, comp, kappa_text):
    kappa = FillingCoefficients.parse(kappa_text, spec.cusp_count)
    return solve_filling(DeformationProblem(system), comp, kappa)


def cmd_fill(config: RunConfig) -> int:
    t0 = time.perf_counter()
    spec = _load(config.spec_path)
    system = GaugedSystem(spec)
    comp = find_complete(spec, system)
    if not config.kappas:
        raise ValueError("fill needs --kappa")
    pt, path_ = _fill_one(spec, system, comp, config.kappas[0])
    vol = anchored_volume(spec, path_)
    body = {"status": "ok", "kappa": config.kappas[0], "point": pt.to_json(),
            "volume": vol.to_json(), "samples": len(path_)}
    path = write_report(config, f"{spec.name}_fill", body,
                        {"total_s": time.perf_counter() - t0})
    if config.csv:
        csv_path = Path(config.out_dir) / f"{spec.name}_fill.csv"
        sign0 = path_.points[0].orientation or 1
        rv = running_integral(path_, handedness_sign(spec)) + \
            sign0 * spec.reference_volume.value
        csv_path.write_text(path_.export_csv(rv))
        print(f"fill csv -> {csv_path}")
    print(f"fill {config.kappas[0]}: volume {vol.value:.9f} -> {path}")
    return 0


def cmd_track(config: RunConfig) -> int:
    """Track a closed random loop in the log-eigenvalue coordinates and
    report the endpoint match (a smoke test of the path tracker)."""
    t0 = time.perf_counter()
    spec = _load(config.spec_path)
    system = GaugedSystem(spec)
    comp = find_complete(spec, system)
    problem = DeformationProblem(system)
    rng = np.random.default_rng(config.seed)
    base = _generic_base_point(spec, problem, comp)
    loop = track(problem, base, random_log_loop_targets(base, rng),
                 tau0=0.0, tau1=1.0, first_step=0.01, max_step=0.01,
                 description=f"random loop on {spec.name}")
    end = loop.endpoint()
    mismatch = max(max(abs(a.m - b.m), abs(a.l - b.l))
                   for a, b in zip(base.cusps, end.cusps))
    body = {"status": "ok", "samples": len(loop), "endpoint_mismatch": mismatch}
    path = write_report(config, f"{spec.name}_track", body,
                        {"total_s": time.perf_counter() - t0})
    if config.csv:
        csv_path = Path(config.out_dir) / f"{spec.name}_track.csv"
        csv_path.write_text(loop.export_csv(running_integral(loop, handedness_sign(spec))))
        print(f"track csv -> {csv_path}")
    print(f"track: loop of {len(loop)} samples, endpoint mismatch {mismatch:.2e} -> {path}")
    return 0


def cmd_volume(config: RunConfig) -> int:
    t0 = time.perf_counter()
    spec = _load(config.spec_path)
    system = GaugedSystem(spec)
    comp = find_complete(spec, system)
    if not config.kappas:
        raise ValueError("volume needs --kappa")
    pt, path_ = _fill_one(spec, system, comp, config.kappas[0])
    vol = anchored_volume(spec, path_)
    integ = integrate_eta(path_, handedness_sign(spec))
    body = {"status": "ok", "kappa": config.kappas[0], "volume": vol.to_json(),
            "eta_integral": integ.value, "quadrature_error": integ.error_estimate,
            "reference": spec.reference_volume.value}
    path = write_report(config, f"{spec.name}_volume", body,
                        {"total_s": time.perf_counter() - t0})
    print(f"volume {config.kappas[0]}: {vol.value:.9f} "
          f"(reference {spec.reference_volume.value:.9f}) -> {path}")
    return 0


def _generic_base_point(spec, problem, comp):
    """A tracked point away from the parabolic locus to base loops at."""
    from .continuation import step_off_complete
    h = spec.cusp_count
    du = [0.35 + 0.1j * (i + 1) for i in range(h)]
    return step_off_complete(problem, comp, du)


def cmd_loops(config: RunConfig) -> int:
    t0 = time.perf_counter()
    spec = _load(config.spec_path)
    system = GaugedSystem(spec)
    comp = find_complete(spec, system)
    problem = DeformationProblem(system)
    results, failures, dropped = run_exactness_loops(
        spec, problem, comp, config.loops, config.seed,
        config.tolerances["loop_exactness"])
    body = {"status": "ok" if not failures else "failed",
            "loop_integrals": results, "failures": failures, "dropped": dropped,
            "tolerance": config.tolerances["loop_exactness"]}
    path = write_report(config, f"{spec.name}_loops", body,
                        {"total_s": time.perf_counter() - t0})
    print(f"loops: {len(results)} loop integrals, max |I| = "
          f"{max(map(abs, results), default=0):.2e} -> {path}")
    return 0 if not failures else 1


def run_exactness_loops(spec, problem, comp, count, seed, tol):
    """Closed U-avoiding loops in deformation space; exactness predicts
    integrals ~ 0.  A loop that passes near U, fails to track, or whose
    quadrature is still unresolved at the finest step is dropped and another
    is drawn.  Returns (integrals, failures, dropped), dropped counting the
    loops dropped for each reason."""
    rng = np.random.default_rng(seed)
    sign = handedness_sign(spec)
    base = _generic_base_point(spec, problem, comp)
    results = []
    failures = []
    dropped = {"near_U": 0, "unresolved": 0, "tracking_failed": 0}
    attempts = 0
    while len(results) < count and attempts < 6 * count + 20:
        attempts += 1
        try:
            family = random_log_loop_targets(base, rng, radius=(0.08, 0.3))
            step = 0.004
            # refine until the quadrature estimate is well inside tolerance
            # (loops passing near the branch locus need finer sampling)
            for _ in range(4):
                loop = track_closed_loop(
                    problem, base, family, first_step=step, max_step=step,
                    description=f"exactness loop {len(results)} on {spec.name}")
                if any(on_U(eigenvalues(pt), LOCUS_TOL["near"]) for pt in loop.points):
                    dropped["near_U"] += 1
                    break
                integ = loop_integral(loop, sign)
                if integ.error_estimate < tol / 20:
                    results.append(integ.value)
                    if abs(integ.value) >= tol:
                        failures.append({"loop": len(results) - 1, "value": integ.value})
                    break
                step /= 3
            else:
                dropped["unresolved"] += 1
        except (ContinuationError, VolumeError):
            dropped["tracking_failed"] += 1
    if len(results) < count:
        failures.append({"error": f"only {len(results)} of {count} loops tracked"})
    return results, failures, dropped


def cmd_fiber(config: RunConfig) -> int:
    t0 = time.perf_counter()
    spec = _load(config.spec_path)
    system = GaugedSystem(spec)
    comp = find_complete(spec, system)
    problem = DeformationProblem(system)
    if not config.kappas:
        raise ValueError("fiber needs --kappa for the base point")
    kappa = FillingCoefficients.parse(config.kappas[0], spec.cusp_count)
    pt, path_ = solve_filling(problem, comp, kappa)
    z = pt.trace_vector()
    report = fiber_over(system, z, [pt], budget=config.budget, seed=config.seed,
                        dedup_tol=config.tolerances["dedup"])
    body = {"status": "inconclusive" if report.inconclusive else "ok",
            "fiber": report.to_json()}
    path = write_report(config, f"{spec.name}_fiber", body,
                        {"total_s": time.perf_counter() - t0})
    print(f"fiber over kappa={config.kappas[0]}: sl2 {report.sl2_count}, "
          f"psl2 {report.psl2_count}{' INCONCLUSIVE' if report.inconclusive else ''} -> {path}")
    return 2 if report.inconclusive else 0


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def cmd_certify(config: RunConfig) -> int:
    t0 = time.perf_counter()
    spec = _load(config.spec_path)
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

    print(f"certify {spec.name} (seed {config.seed})")
    system = GaugedSystem(spec)
    try:
        comp = find_complete(spec, system)
    except NoCompleteStructureError as e:
        check("complete_structure", False, None, None, str(e))
        path = write_report(config, f"{spec.name}_certify",
                            {"checks": checks, "overall": "fail"},
                            {"total_s": time.perf_counter() - t0})
        print(f"certify: FAIL -> {path}")
        return 1
    problem = DeformationProblem(system)
    tol = config.tolerances

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

    # cohomology degree bound
    z2 = h1_z2(spec)
    check("z2_degree_bound_data", z2.degree_bound >= 1, z2.degree_bound, None,
          f"dim H^1 = {z2.h1_dim}, k = {z2.k}, bound = {z2.degree_bound}")

    # filled characters: volumes below reference, increasing, quadrature-stable
    t1 = time.perf_counter()
    kappa_texts = config.kappas or _default_kappas(spec)
    filled: list[tuple[str, object, object]] = []
    for ktext in kappa_texts:
        try:
            kappa = FillingCoefficients.parse(ktext, spec.cusp_count)
            pt, path_ = solve_filling(problem, comp, kappa)
            filled.append((ktext, pt, path_))
        except ContinuationError as e:
            check(f"filling_{ktext}", False, None, None, str(e))
    vols = []
    quad_ok = True
    quad_worst = 0.0
    for ktext, pt, path_ in filled:
        vol = anchored_volume(spec, path_)
        vols.append((ktext, vol.value))
        quad_worst = max(quad_worst, vol.quadrature_error)
        if vol.quadrature_error >= tol["quadrature"]:
            quad_ok = False
    if filled:
        below = all(v < spec.reference_volume.value for _, v in vols)
        check("filled_volumes_below_reference", below,
              {k: v for k, v in vols}, spec.reference_volume.value,
              "; ".join(f"{k}: {v:.9f}" for k, v in vols))
        ordered = [v for _, v in vols]
        increasing = all(a < b for a, b in zip(ordered, ordered[1:])) \
            if _kappas_are_increasing_series(kappa_texts) else True
        check("filled_volumes_increase_toward_reference", increasing and below,
              ordered, spec.reference_volume.value)
        check("quadrature_richardson_estimate", quad_ok, quad_worst, tol["quadrature"],
              f"worst Richardson difference {quad_worst:.2e}")
    timings["fillings_s"] = time.perf_counter() - t1

    # exactness loops
    t1 = time.perf_counter()
    if config.loops > 0:
        integrals, failures, dropped = run_exactness_loops(
            spec, problem, comp, config.loops, config.seed, tol["loop_exactness"])
        worst = max(map(abs, integrals), default=float("inf"))
        check("loop_exactness", not failures, worst, tol["loop_exactness"],
              f"{len(integrals)} loops, max |integral| = {worst:.2e}; dropped: " +
              ", ".join(f"{n} {why.replace('_', ' ')}" for why, n in dropped.items()))
    else:
        checks.append({"name": "loop_exactness", "status": "skipped",
                       "value": None, "tolerance": tol["loop_exactness"],
                       "details": "loop count 0"})
        print("  [SKIP] loop_exactness")
    timings["loops_s"] = time.perf_counter() - t1

    # fibers: degree one, stability under budget doubling, volume equality
    t1 = time.perf_counter()
    overall_inconclusive = False
    for ktext, pt, path_ in filled:
        z = pt.trace_vector()
        rep1 = fiber_over(system, z, [pt], budget=config.budget,
                          seed=config.seed, dedup_tol=tol["dedup"])
        rep2 = fiber_over(system, z, [pt], budget=2 * config.budget,
                          seed=config.seed + 1, dedup_tol=tol["dedup"])
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
        paths = [path_ if np.max(np.abs(p.trace_vector() - z)) < 1e-6 and
                 np.max(np.abs(system.char_key(p.coords) -
                               system.char_key(pt.coords))) < 1e-6 else None
                 for p in rep1.points]
        fv = fiber_volume_equality(spec, rep1, paths, tol["volume_equality"])
        check(f"fiber_volume_equality_{ktext}", fv.passed, fv.max_difference,
              tol["volume_equality"],
              f"max pairwise difference {fv.max_difference:.2e}"
              + (f"; notes: {'; '.join(fv.notes)}" if fv.notes else ""))
    timings["fibers_s"] = time.perf_counter() - t1

    statuses = [c["status"] for c in checks]
    overall = "fail" if "fail" in statuses else \
        ("inconclusive" if overall_inconclusive or "inconclusive" in statuses else "pass")
    body = {"checks": checks, "overall": overall,
            "reference_volume": spec.reference_volume.value,
            "h1z2": {"h1_dim": z2.h1_dim, "k": z2.k, "bound": z2.degree_bound}}
    path = write_report(config, f"{spec.name}_certify", body,
                        {"total_s": time.perf_counter() - t0, **timings})
    print(f"certify: {overall.upper()} -> {path}")
    return 0 if overall == "pass" else (2 if overall == "inconclusive" else 1)


def _default_kappas(spec: ManifoldSpec) -> list[str]:
    if spec.cusp_count == 1:
        return ["1,5", "1,7", "1,11"]
    qs = [5, 7]
    out = []
    for combo in itertools.product(qs, repeat=spec.cusp_count):
        out.append(";".join(f"1,{q}" for q in combo))
    return out


def _kappas_are_increasing_series(kappa_texts: list[str]) -> bool:
    """True for a single-cusp series (1,q1), (1,q2), ... with increasing q."""
    qs = []
    for k in kappa_texts:
        if ";" in k:
            return False
        parts = k.split(",")
        if len(parts) != 2 or parts[0].strip() != "1":
            return False
        qs.append(int(parts[1]))
    return qs == sorted(qs) and len(set(qs)) == len(qs)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="charvol",
        description="character varieties, eigenvalue varieties and the "
                    "volume differential for cusped hyperbolic 3-manifolds")
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {
        "complete": "solve for the complete hyperbolic structure",
        "apoly": "eliminate to defining equations of the eigenvalue variety",
        "fill": "solve a Dehn filling by continuation",
        "track": "track a random closed deformation loop",
        "volume": "anchored volume of a filled character",
        "loops": "exactness loop integrals of the volume form",
        "fiber": "count the fiber of the boundary-trace map over a filled point",
        "h1z2": "mod-2 cohomology data and the degree bound",
        "certify": "run the full certification suite",
    }
    for name, help_ in commands.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--spec", required=True,
                       help="path to a .spec file or a fixture name "
                            f"({', '.join(fixtures.FIXTURE_NAMES)})")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=64)
        p.add_argument("--loops", type=int, default=10)
        p.add_argument("--kappa", action="append", default=[],
                       help="filling coefficients, e.g. '1,5' or '1,5;inf' "
                            "(repeatable)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--csv", action="store_true", help="also write CSV traces")
        for tname in DEFAULT_TOLERANCES:
            p.add_argument(f"--tol-{tname.replace('_', '-')}", type=float,
                           default=None, dest=f"tol_{tname}")
    return ap


def config_from_args(args) -> RunConfig:
    tolerances = dict(DEFAULT_TOLERANCES)
    for k in DEFAULT_TOLERANCES:
        v = getattr(args, f"tol_{k}", None)
        if v is not None:
            tolerances[k] = v
    return RunConfig(command=args.command, spec_path=args.spec, seed=args.seed,
                     tolerances=tolerances, budget=args.budget, loops=args.loops,
                     kappas=list(args.kappa), out_dir=args.out, csv=args.csv)


COMMANDS = {
    "complete": cmd_complete,
    "apoly": cmd_apoly,
    "fill": cmd_fill,
    "track": cmd_track,
    "volume": cmd_volume,
    "loops": cmd_loops,
    "fiber": cmd_fiber,
    "h1z2": cmd_h1z2,
    "certify": cmd_certify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return COMMANDS[config.command](config)
    except (SpecError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ContinuationError, NoCompleteStructureError) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
