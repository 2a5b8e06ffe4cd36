"""The charvol benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/charvol` of that checkout and nothing is installed.  Every workload
drives the user's entry point `charvol.cli.main([...])` in this process, one
command after another (a closed loop with one client), writing reports under
`.bench_build/perfbench/`.  Command i of a run gets `--seed` `SEED*1000+i`,
so a run covers several loop and multistart draws and the same SEED always
gives the same commands.

With `--trace 0` the run sets up the program several times in fresh
interpreters (`setup_s`), then runs commands for S seconds (`wall_s`,
`pass_ratio`).  Both times are scaled to a reference host speed that a probe
measures while they run (see `hostspeed.py`); the raw wall times are
printed and recorded beside them.  With `--trace 1` it runs one command
untraced and the same command twice traced, reports the per-layer metrics
of the first traced command, and checks that tracing leaves the report
bytes unchanged and that every deterministic count repeats exactly.  A
traced run always makes these three commands, whatever S is.

Every command's output is checked (see `gate_certify`, `gate_apoly`).  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the metric names and units are those
listed in BENCHMARK.json.  Lines before it are a readable summary and the
environment fingerprint, and a full record of the run is written to
`.bench_build/perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hostspeed import HostSpeed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

# A second seed that any later performance claim must also hold on; it is
# not used while tuning a change.
HOLDOUT_SEED = 7919

SETUP_PROBES = 11       # measured fresh-interpreter set-ups per run (one more warms up)
SEED_STRIDE = 1000      # command i of a run uses seed * SEED_STRIDE + i


@dataclass(frozen=True)
class Workload:
    spec: str
    argv: tuple
    report: str          # report file the command writes
    extended: bool       # set-up also builds the extended system (apoly)


WORKLOADS = {
    "certify-fig8": Workload("fig8", ("certify", "--spec", "fig8", "--loops", "10",
                                      "--budget", "64"), "fig8_certify.json", False),
    "certify-wlink": Workload("wlink", ("certify", "--spec", "wlink", "--loops", "10",
                                        "--budget", "64"), "wlink_certify.json", False),
    "apoly-fig8": Workload("fig8", ("apoly", "--spec", "fig8"), "fig8_apoly.json", True),
}

# The fig8 A-polynomial of Cooper, Culler, Gillet, Long and Shalen
# (Invent. Math. 1994): l - m^2 l - m^4 - 2 m^4 l - m^4 l^2 - m^6 l + m^8 l,
# as {(exponent of m, exponent of l): coefficient}.
FIG8_APOLY = {(0, 1): 1, (2, 1): -1, (4, 0): -1, (4, 1): -2, (4, 2): -1,
              (6, 1): -1, (8, 1): 1}


# ---------------------------------------------------------------------------
# correctness gates: (operations attempted, operations failed, note)
# ---------------------------------------------------------------------------

def gate_certify(rc, doc):
    """`certify` must exit 0 with overall "pass"; every check is one
    operation and fails unless its status is "pass"."""
    if doc is None:
        return 1, 1, f"no report (exit {rc})"
    checks = doc["report"]["checks"]
    failed = sum(c["status"] != "pass" for c in checks)
    overall = doc["report"]["overall"]
    if (rc != 0 or overall != "pass") and failed == 0:
        failed = 1
    return max(len(checks), 1), failed, f"exit {rc}, overall {overall}"


def _gauss(re, im):
    return Fraction(re), Fraction(im)


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return _gmul(a, (b[0] / n, -b[1] / n))


def equals_fig8_apoly(poly_json) -> bool:
    """True when the reported polynomial is the published fig8 A-polynomial
    times a unit (a nonzero Gaussian rational times a monomial)."""
    names = poly_json["vars"]
    if sorted(names) != ["l1", "m1"]:
        return False
    im, il = names.index("m1"), names.index("l1")
    got = {(t["exp"][im], t["exp"][il]): _gauss(t["re"], t.get("im", "0"))
           for t in poly_json["terms"]}
    got = {k: c for k, c in got.items() if c != (0, 0)}
    if len(got) != len(FIG8_APOLY):
        return False
    lo_m = min(k[0] for k in got)
    lo_l = min(k[1] for k in got)
    got = {(a - lo_m, b - lo_l): c for (a, b), c in got.items()}
    if set(got) != set(FIG8_APOLY):
        return False
    unit = _gdiv(_gauss(FIG8_APOLY[0, 1], 0), got[0, 1])
    return all(_gmul(unit, c) == _gauss(FIG8_APOLY[k], 0) for k, c in got.items())


def gate_apoly(rc, doc):
    """`apoly --spec fig8` must exit 0 with exactly one validated eliminant
    equal to the published A-polynomial up to a unit."""
    if doc is None:
        return 1, 1, f"no report (exit {rc})"
    body = doc["report"]
    es = body.get("eliminants") or {}
    polys = es.get("polynomials", [])
    ok = (rc == 0 and body.get("status") == "ok" and es.get("validated") is True
          and len(polys) == 1 and equals_fig8_apoly(polys[0]))
    return 1, 0 if ok else 1, f"exit {rc}, status {body.get('status')}, " \
        f"{len(polys)} eliminant(s), validated {es.get('validated')}"


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

@dataclass
class CommandResult:
    seed: int
    wall_s: float        # raw wall seconds
    scaled_s: float      # wall seconds at the reference host speed
    rc: object
    attempted: int
    failed: int
    note: str
    report_bytes: bytes


def run_command(cli, wl: Workload, seed: int, out_dir: Path) -> CommandResult:
    """One whole CLI command, timed with the host-speed probe running, then
    gated against its report."""
    report = out_dir / wl.report
    report.unlink(missing_ok=True)
    argv = [*wl.argv, "--seed", str(seed), "--out", str(out_dir)]
    sink = io.StringIO()
    with HostSpeed() as probe:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception as e:  # a crashing command is a failed operation
            rc = f"raised {type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
    scaled = probe.scaled(wall)
    doc = json.loads(report.read_text()) if report.exists() else None
    gate = gate_apoly if wl.argv[0] == "apoly" else gate_certify
    attempted, failed, note = gate(rc, doc)
    data = cli.report_bytes_without_timings(report) if doc is not None else b""
    return CommandResult(seed, wall, scaled, rc, attempted, failed, note, data)


def setup_times(wl: Workload) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds from fresh interpreters; the first probe
    only warms the bytecode and file caches and is dropped."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(PROBE), str(SRC), wl.spec, "1" if wl.extended else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        raw, scaled = out.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(scaled)))
    return times[1:]


def high_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return round(100 * (n - 10) / n), ordered[n - 11]


def timed_run(cli, wl: Workload, seed: int, seconds: float, out_dir: Path):
    """Closed loop: start the next command when the last returns, while the
    next one is expected to finish inside the window (at least one)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_command(cli, wl, seed * SEED_STRIDE + len(results), out_dir))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall_s for r in results) > seconds:
            return results


def traced_run(cli, wl: Workload, seed: int, out_dir: Path, name: str):
    """One untraced and two traced commands on the same seed."""
    cmd_seed = seed * SEED_STRIDE
    plain = run_command(cli, wl, cmd_seed, out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    traced, layer_runs = [], []
    for command in (1, 2):
        tracer = Tracer(command).install()
        try:
            traced.append(run_command(cli, wl, cmd_seed, out_dir))
        finally:
            tracer.uninstall()
        tracer.write_spans(spans_dir / f"{name}-seed{seed}-{command}.tsv")
        layer_runs.append(tracer.layer_metrics())

    first, second = layer_runs
    problems = []
    if not (plain.report_bytes == traced[0].report_bytes == traced[1].report_bytes):
        problems.append("traced and untraced reports differ")
    moved = [k for k in first if not k.endswith((".s", ".self_s")) and first[k] != second[k]]
    if moved:
        problems.append("deterministic counts moved between traced runs: "
                        + ", ".join(f"{k} {first[k]} -> {second[k]}" for k in moved))

    m = dict(first)
    # fiber_over is the only caller of newton_correct: one call per attempt
    nc = m["continuation.newton_correct.calls"]
    m["continuation.fiber_over.hit_ratio"] = \
        (nc - m["continuation.newton_correct.fail"]) / nc if nc else 0.0
    loops = m["continuation.track_closed_loop.calls"]
    m["cli.loops.kept_ratio"] = m["cli.loops.kept"] / loops if loops else 0.0
    m["process.peak_rss_mb"] = peak_rss_mb
    m["trace.overhead_s"] = traced[0].scaled_s - plain.scaled_s
    return [plain, *traced], m, problems


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def fingerprint() -> dict:
    import numpy as np
    from charvol import gaussian

    digest = hashlib.sha256()
    for path in sorted((SRC / "charvol").rglob("*")):
        if path.suffix in (".py", ".spec"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "gmpy2_imports": importlib.util.find_spec("gmpy2") is not None,
        "rational_type": f"{gaussian._mpq.__module__}.{gaussian._mpq.__name__}",
        "platform": platform.platform(),
    }


def import_cli():
    """Import charvol from this checkout's src/, never from elsewhere."""
    if not (SRC / "charvol" / "cli.py").is_file():
        raise SystemExit(f"error: no charvol sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import charvol.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "charvol").resolve():
        raise SystemExit(f"error: charvol imported from {cli.__file__}, not {SRC}")
    return cli


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    end_to_end, per_layer = declared_metrics()
    cli = import_cli()
    wl = WORKLOADS[args.workload]
    out_dir = OUT / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = fingerprint()

    problems = []
    setups = []
    if args.trace:
        commands, measured, problems = traced_run(cli, wl, args.seed, out_dir, args.workload)
    else:
        setups = setup_times(wl)
        commands = timed_run(cli, wl, args.seed, args.seconds, out_dir)
    attempted = sum(c.attempted for c in commands)
    failed = sum(c.failed for c in commands)
    if not args.trace:
        measured = {"setup_s": statistics.median(s for _, s in setups),
                    "wall_s": statistics.median(c.scaled_s for c in commands),
                    "pass_ratio": 1 - failed / attempted}
    declared = per_layer if args.trace else end_to_end
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in declared.items()}

    print(f"{args.workload} seed {args.seed} (holdout seed {HOLDOUT_SEED}), "
          f"trace {args.trace}")
    if args.trace:
        print(f"  trace.overhead_s {measured['trace.overhead_s']:.4f} s "
              f"(traced minus untraced scaled wall time, one command each)")
    else:
        walls = [c.scaled_s for c in commands]
        hi = high_percentile(walls)
        print(f"  setup_s    {measured['setup_s']:.4f} s at reference speed, "
              f"{statistics.median(r for r, _ in setups):.4f} s raw "
              f"(median of {len(setups)} fresh interpreters)")
        print(f"  wall_s     {measured['wall_s']:.4f} s at reference speed, "
              f"{statistics.median(c.wall_s for c in commands):.4f} s raw "
              f"(median of {len(walls)} commands; "
              + (f"p{hi[0]} {hi[1]:.4f} s)" if hi else
                 "no high percentile below 11 commands)"))
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for c in commands:
        print(f"    seed {c.seed}: {c.wall_s:.3f} s ({c.scaled_s:.3f} s scaled), "
              f"{c.note}, {c.failed}/{c.attempted} failed")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print("# env " + json.dumps(env, sort_keys=True))

    correct = failed == 0 and not problems
    record = {"workload": args.workload, "seed": args.seed,
              "holdout_seed": HOLDOUT_SEED, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "setup_s_samples": [{"raw_s": r, "scaled_s": s} for r, s in setups],
              "commands": [{"seed": c.seed, "wall_s": c.wall_s, "scaled_s": c.scaled_s,
                            "rc": c.rc,
                            "attempted": c.attempted, "failed": c.failed,
                            "note": c.note} for c in commands],
              "problems": problems, "correct": correct, "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
