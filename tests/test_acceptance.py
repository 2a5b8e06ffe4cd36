"""Acceptance suite: one test per certification criterion, each printing a
pass/fail line with the quantity and its tolerance."""

import time

import numpy as np
import pytest

from charvol.cli import main, report_bytes_without_timings, run_exactness_loops
from charvol.continuation import (fiber_over, jacobian_check, pin_log,
                                  step_off_complete, track)
from charvol.eigenvar import (eliminate, extended_point, gamma_act, sample_point,
                              _scaled_residual)
from charvol.manifold import h1_z2
from charvol.poly import CompiledSystem
from charvol.volume import (anchored_volume, eta_at, handedness_sign, integrate_eta,
                            lobachevsky)

PASS = "PASS"
FAIL = "FAIL"


def report(name, ok, detail):
    print(f"[{PASS if ok else FAIL}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: exactness of the volume form -----------------------------------

@pytest.mark.parametrize("fixture", ["fig8", "wlink"])
def test_criterion_1_loop_exactness(fixture, request):
    spec = request.getfixturevalue(f"{fixture}_spec")
    problem = request.getfixturevalue(f"{fixture}_problem")
    complete = request.getfixturevalue(f"{fixture}_complete")
    t0 = time.time()
    integrals, failures, _, _ = run_exactness_loops(spec, problem, complete,
                                                    count=10, seed=2026)
    elapsed = time.time() - t0
    worst = max(map(abs, integrals), default=float("inf"))
    ok = len(integrals) >= 10 and not failures and worst < 1e-6 and elapsed < 60
    report(f"criterion 1 exactness [{fixture}]", ok,
           f"{len(integrals)} loops, max |integral| = {worst:.2e} "
           f"(tol 1e-6), {elapsed:.1f}s (target < 60s)")


# -- criterion 2: degree one -------------------------------------------------------

@pytest.mark.parametrize("fixture,budget", [("fig8", 28), ("wlink", 24)])
def test_criterion_2_degree_one(fixture, budget, request):
    spec = request.getfixturevalue(f"{fixture}_spec")
    system = request.getfixturevalue(f"{fixture}_system")
    fillings = request.getfixturevalue(f"{fixture}_fillings")
    t0 = time.time()
    lines = []
    ok = True
    count = 0
    for ktext, pt, _ in fillings:
        if "inf" in ktext:
            continue
        z = pt.trace_vector()
        r1 = fiber_over(system, z, [pt], budget=budget, seed=7, monodromy_loops=1)
        r2 = fiber_over(system, z, [pt], budget=2 * budget, seed=8, monodromy_loops=1)
        good = (r1.psl2_count == 1 and r2.psl2_count == 1 and
                r1.sl2_count == r2.sl2_count and
                not r1.inconclusive and not r2.inconclusive and
                not r1.excluded)
        ok &= good
        count += 1
        lines.append(f"{ktext}: psl2={r1.psl2_count} sl2={r1.sl2_count} "
                     f"doubled={r2.sl2_count}")
    elapsed = time.time() - t0
    ok &= count >= 3 if fixture == "fig8" else count >= 2
    ok &= elapsed < 600
    report(f"criterion 2 degree one [{fixture}]", ok,
           "; ".join(lines) + f"; {elapsed:.1f}s (target < 600s)")


@pytest.fixture(scope="session")
def wlink_third_filling(wlink_spec, wlink_problem, wlink_complete):
    from charvol.continuation import FillingCoefficients, solve_filling
    kappa = FillingCoefficients.parse("1,5;1,5", 2)
    return solve_filling(wlink_problem, wlink_complete, kappa)


def test_criterion_2_wlink_third_point(wlink_system, wlink_third_filling):
    pt, _ = wlink_third_filling
    r = fiber_over(wlink_system, pt.trace_vector(), [pt], budget=24, seed=9,
                   monodromy_loops=1)
    ok = r.psl2_count == 1 and not r.inconclusive
    report("criterion 2 degree one [wlink 1,5;1,5]", ok,
           f"psl2={r.psl2_count} sl2={r.sl2_count}")


# -- criterion 3: fiber volume equality --------------------------------------------

def test_criterion_3_fiber_volume_equality(fig8_spec, fig8_system, fig8_fillings,
                                           wlink_spec, wlink_system, wlink_fillings):
    """A filled point and its sign twist lie in one fiber of the restriction
    map (the same PSL2 character); their mirrored paths give equal volume
    labels."""
    from charvol.continuation import TrackedPath
    from charvol.repvar import apply_twist, enumerate_twists
    worst = 0.0
    ok = True
    for spec, system, fillings in ((fig8_spec, fig8_system, fig8_fillings),
                                   (wlink_spec, wlink_system, wlink_fillings)):
        tw = [t for t in enumerate_twists(spec) if not t.is_trivial()][0]
        _, _, path = fillings[0]
        tw_path = TrackedPath(
            points=[apply_twist(p, tw, system) for p in path.points],
            taus=list(path.taus))
        v1 = anchored_volume(spec, path).value
        v2 = anchored_volume(spec, tw_path).value
        ok &= abs(v1 - v2) < 1e-6
        worst = max(worst, abs(v1 - v2))
    report("criterion 3 fiber volume equality", ok,
           f"max twist-pair difference {worst:.2e} (tol 1e-6)")


# -- criterion 4: the mod-2 degree bound ----------------------------------------------

def test_criterion_4_degree_bound(fig8_spec, wlink_spec, fig8_system, wlink_system,
                                  fig8_fillings, wlink_fillings):
    ok = True
    details = []
    for spec, system, fillings in ((fig8_spec, fig8_system, fig8_fillings),
                                   (wlink_spec, wlink_system, wlink_fillings)):
        z2 = h1_z2(spec)
        ok &= z2.k == 0 and z2.degree_bound == 1
        details.append(f"{spec.name}: k={z2.k} bound={z2.degree_bound}")
        for ktext, pt, _ in fillings:
            if "inf" in ktext:
                continue
            rep = fiber_over(system, pt.trace_vector(), [pt], budget=16,
                             seed=5, monodromy_loops=0)
            ok &= rep.sl2_count <= rep.psl2_count * z2.degree_bound
    report("criterion 4 degree bound", ok, "; ".join(details) +
           "; sl2 <= psl2 x 2^k on every fiber")


# -- criterion 5: the volume anchor ----------------------------------------------------

def test_criterion_5_volume_anchor(fig8_spec, fig8_fillings):
    import math
    oracle = 2 * (3 * lobachevsky(math.pi / 3))
    anchor_err = abs(oracle - 2.0298832128)
    ref_err = abs(oracle - fig8_spec.reference_volume.value)
    vols = [anchored_volume(fig8_spec, path).value for _, _, path in fig8_fillings]
    below = all(v < fig8_spec.reference_volume.value for v in vols)
    increasing = vols == sorted(vols)
    quad = []
    for _, _, path in fig8_fillings:
        integ = integrate_eta(path, handedness_sign(fig8_spec))
        quad.append(3 * integ.error_estimate)  # |fine - halved| = 3 x estimate
    ok = (anchor_err < 1e-9 and ref_err < 1e-9 and below and increasing and
          all(qv < 1e-7 for qv in quad))
    report("criterion 5 volume anchor", ok,
           f"2*3*Lob(pi/3) = {oracle:.10f} (+-1e-9 of 2.0298832128); "
           f"volumes {['%.9f' % v for v in vols]} increasing below reference; "
           f"max halving difference {max(quad):.2e} (tol 1e-7)")


# -- criterion 6: the volume form vanishes at the complete structure ----------------------

def test_criterion_6_eta_critical(fig8_spec, wlink_spec, fig8_complete, wlink_complete):
    worst = 0.0
    for spec, pt in ((fig8_spec, fig8_complete), (wlink_spec, wlink_complete)):
        ev = eta_at(pt, handedness_sign(spec))
        worst = max(worst, ev.max_abs())
    ok = worst < 1e-9
    report("criterion 6 eta critical point", ok,
           f"max |coefficient| at complete structures = {worst:.2e} (tol 1e-9)")


# -- criterion 7: eliminant validity ------------------------------------------------------

@pytest.fixture(scope="session")
def fig8_forty_samples(fig8_system, fig8_extended, fig8_problem, fig8_complete,
                       fig8_fillings):
    """40 independently sampled characters on X0, as two lists: filled
    characters and tracked path interiors, then fiber solutions over random
    deformations."""
    tracked = []
    for _, pt, path in fig8_fillings:
        tracked.append(pt)
        step = max(1, len(path) // 6)
        for k in range(step, len(path) - 1, step):
            tracked.append(path.points[k])
    deformed = []
    rng = np.random.default_rng(33)
    while len(tracked) + len(deformed) < 40:
        du = 0.15 + rng.uniform(0.0, 0.4) + 1j * rng.uniform(-0.3, 0.3)
        deformed.append(step_off_complete(fig8_problem, fig8_complete, [du]))
    return tracked, deformed


def test_criterion_7_eliminant(fig8_extended, fig8_forty_samples):
    """The eliminant is localized at the tracked samples, which lie on one
    sheet of the gauge slice over X0, and checked at all 40 characters:
    the random deformations land on both sheets (p = m1 and p = 1/m1)."""
    tracked, deformed = fig8_forty_samples
    es = eliminate(fig8_extended, samples=[extended_point(fig8_extended, pt)
                                           for pt in tracked])
    p = es.polynomials[0]
    points = [sample_point(fig8_extended, pt) for pt in tracked + deformed]
    residuals = [_scaled_residual(p, x.values) for x in points]
    gamma_residuals = [_scaled_residual(p, gamma_act(x, [0]).values) for x in points]
    ok = (len(points) == 40 and es.validated and
          max(residuals) < 1e-8 and max(gamma_residuals) < 1e-8)
    report("criterion 7 eliminant validity", ok,
           f"40 samples: max residual {max(residuals):.2e}, "
           f"max gamma-pullback residual {max(gamma_residuals):.2e} (tol 1e-8); "
           f"degree in l = {p.degree('l1')}")


# -- criterion 8: numerical hygiene ----------------------------------------------------------

def test_criterion_8_hygiene(tmp_path, fig8_system, fig8_extended, fig8_problem,
                             fig8_complete, fig8_fillings):
    # Jacobians against central differences
    rng = np.random.default_rng(40)
    x = fig8_complete.coords + 0.05 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    j1 = jacobian_check(fig8_system.compiled, x)
    ext_cs = CompiledSystem(fig8_extended.polynomials, fig8_extended.vars)
    _, pt, _ = (lambda t: t)(fig8_fillings[0])
    xe = np.concatenate([pt.coords, [pt.cusps[0].m, pt.cusps[0].l]])
    j2 = jacobian_check(ext_cs, xe)
    jac_ok = j1["max_relative_error"] < 1e-5 and j2["max_relative_error"] < 1e-5

    # path reversal returns to the start
    base = step_off_complete(fig8_problem, fig8_complete, [0.3 + 0.1j])
    u0 = base.cusps[0].u - base.cusps[0].base_u
    seg = 0.3 + 0.3j
    fwd = track(fig8_problem, base, pin_log(lambda tau: np.array([u0 + tau * seg])),
                first_step=0.02, max_step=0.02)
    rev = track(fig8_problem, fwd.endpoint(),
                pin_log(lambda tau: np.array([u0 + (1 - tau) * seg])),
                first_step=0.02, max_step=0.02)
    reversal = float(np.max(np.abs(rev.endpoint().coords - base.coords)))

    # identical seeds give byte-identical reports
    args = ["fiber", "--spec", "fig8", "--kappa", "1,5", "--seed", "13",
            "--budget", "12", "--out", str(tmp_path)]
    assert main(args) == 0
    b1 = report_bytes_without_timings(tmp_path / "fig8_fiber.json")
    assert main(args) == 0
    b2 = report_bytes_without_timings(tmp_path / "fig8_fiber.json")

    ok = jac_ok and reversal < 1e-9 and b1 == b2
    report("criterion 8 numerical hygiene", ok,
           f"jacobian errors {j1['max_relative_error']:.2e}/"
           f"{j2['max_relative_error']:.2e} (tol 1e-5); "
           f"path reversal {reversal:.2e} (tol 1e-9); "
           f"reports byte-identical: {b1 == b2}")
