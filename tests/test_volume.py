import cmath
import math

import numpy as np
import pytest

from charvol.continuation import (FillingCoefficients, TrackedPath, random_log_loop_targets,
                                  solve_filling, step_off_complete)
from charvol.repvar import CharacterPoint, PeripheralState
from charvol.volume import (VolumeError, anchored_volume, eta_at, integrate_eta,
                            lobachevsky, loop_integral, reference_volume_from_formula,
                            running_integral)
from oracles import (apply_twist, fig8_gluing_volume, lobachevsky_series,
                     make_filling_route_via_detour, reversed_path)

FIG8_VOLUME = 2.029883212819307


# -- Lobachevsky oracle -------------------------------------------------------

def test_lobachevsky_zero_and_symmetry():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(math.pi / 2)) < 1e-12
    # odd and pi-periodic
    for t in (0.3, 1.1, 2.0):
        assert abs(lobachevsky(-t) + lobachevsky(t)) < 1e-14
        assert abs(lobachevsky(t + math.pi) - lobachevsky(t)) < 1e-13


def test_lobachevsky_fig8_volume():
    # two regular ideal tetrahedra
    assert abs(6 * lobachevsky(math.pi / 3) - 2.0298832128) < 1e-9
    assert abs(6 * lobachevsky(math.pi / 3) - FIG8_VOLUME) < 1e-12


def test_lobachevsky_octahedron_is_catalan():
    catalan = 0.915965594177219015
    assert abs(8 * lobachevsky(math.pi / 4) - 4 * catalan) < 1e-12


def test_lobachevsky_matches_fourier_series_oracle():
    for t in (0.2, math.pi / 3, 1.0, 2.5):
        slow = lobachevsky_series(t, terms=400000)
        assert abs(lobachevsky(t) - slow) < 1e-9


def test_reference_formula_fixtures(fig8_spec, wlink_spec):
    assert abs(reference_volume_from_formula(fig8_spec) -
               fig8_spec.reference_volume.value) < 1e-12
    assert abs(reference_volume_from_formula(wlink_spec) -
               wlink_spec.reference_volume.value) < 1e-12


# -- gluing-equation oracle ------------------------------------------------------

@pytest.mark.parametrize("slope,t,volume", [((5, 1), 0.0, 2.029883212819),
                                            ((5, 1), 1.0, 0.9813688288922),
                                            ((1, 5), 1.0, 1.918602377553)],
                         ids=["complete", "5,1", "1,5"])
def test_fig8_gluing_oracle_volumes(slope, t, volume):
    """The gluing-equation oracle reads fig8's volume at t = 0, Meyerhoff's
    m004(5,1) for (5,1), and the (1,5) filling."""
    assert abs(fig8_gluing_volume(*slope, t=t) - volume) < 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the filling target and the volume form each miss a factor of 2: fig8 (1,5) "
    "reads 1.819077010 against the oracle's 1.918602378 (ROADMAP item 1)"))
def test_fig8_filled_volume_meets_the_gluing_oracle(fig8_spec, fig8_fillings):
    """`solve_filling` and `anchored_volume` on fig8 (1,5) at the quadrature
    step agree with the gluing-equation oracle within certify's
    QUADRATURE_TOL."""
    from charvol.cli import QUADRATURE_TOL
    path = {ktext: path for ktext, _, path in fig8_fillings}["1,5"]
    error = abs(anchored_volume(fig8_spec, path).value - fig8_gluing_volume(1, 5))
    assert error < QUADRATURE_TOL


# -- eta ------------------------------------------------------------------------

def test_eta_zero_at_complete(fig8_complete, wlink_complete):
    for pt in (fig8_complete, wlink_complete):
        ev = eta_at(pt)
        assert ev.max_abs() < 1e-9


def _synthetic_point(u, v):
    m, l = cmath.exp(u), cmath.exp(v)
    st = PeripheralState(u=u, v=v, m=m, l=l,
                         trace_m=m + 1 / m, trace_l=l + 1 / l,
                         trace_ml=m * l + 1 / (m * l))
    return CharacterPoint(coords=np.zeros(1), cusps=[st], residual=0.0)


def test_eta_direct_substitution():
    ev = eta_at(_synthetic_point(1.0, 0.0))
    (cu, cv), = ev.coefficients
    assert abs(cu - 0) < 1e-15 and abs(cv - 1.0) < 1e-15


def test_eta_handedness_sign_flip():
    ev = eta_at(_synthetic_point(1.0, 0.5), handedness_sign=-1)
    (cu, cv), = ev.coefficients
    assert abs(cu - 0.5) < 1e-15 and abs(cv + 1.0) < 1e-15


def test_eta_matches_finite_difference_of_volume(fig8_spec, fig8_fillings):
    """d(Vol)/dt along a tracked path against the eta coefficients."""
    _, _, path = fig8_fillings[0]
    run = running_integral(path)
    k = len(path) // 2
    a, b = path.points[k - 1], path.points[k + 1]
    dvol = run[k + 1] - run[k - 1]
    ev = eta_at(path.points[k])
    (cu, cv), = ev.coefficients
    approx = cu * (b.cusps[0].u - a.cusps[0].u).imag + \
        cv * (b.cusps[0].v - a.cusps[0].v).imag
    assert abs(dvol - approx) < 1e-5


# -- integration -------------------------------------------------------------------

def _loop_trapezoid(points, sign):
    """Reference: the trapezoid sums one segment and one cusp at a time."""
    def increment(a, b):
        total = 0.0
        for ca, cb in zip(a.cusps, b.cusps):
            du, dv = (cb.u - ca.u).imag, (cb.v - ca.v).imag
            total += -0.5 * (ca.v.real + cb.v.real) * du + 0.5 * (ca.u.real + cb.u.real) * dv
        return sign * total
    out = [0.0]
    for a, b in zip(points, points[1:]):
        out.append(out[-1] + increment(a, b))
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_vectorized_trapezoid_equals_the_loop_bitwise(sign, fig8_fillings, wlink_fillings):
    """Running integral, value and Richardson estimate are bit-identical to
    per-segment sums added in order, on odd and even sample counts and on
    one and two cusps."""
    for _, _, path in fig8_fillings + wlink_fillings:
        for pts in (path.points, path.points[:-1], path.points[:2], path.points[:1]):
            ref = _loop_trapezoid(pts, sign)
            coarse = _loop_trapezoid(pts[::2] if len(pts) % 2 else pts[::2] + pts[-1:], sign)
            sub = TrackedPath(points=pts, taus=list(range(len(pts))))
            assert running_integral(sub, sign).tolist() == ref
            integ = integrate_eta(sub, sign)
            assert (integ.value, integ.error_estimate) == (ref[-1], abs(ref[-1] - coarse[-1]) / 3.0)


def test_integrate_constant_path(fig8_fillings):
    _, pt, _ = fig8_fillings[0]
    path = TrackedPath(points=[pt, pt, pt], taus=[0.0, 0.5, 1.0])
    assert integrate_eta(path).value == 0.0


def test_integral_antisymmetric_under_reversal(fig8_fillings):
    _, _, path = fig8_fillings[0]
    fwd = integrate_eta(path).value
    rev = integrate_eta(reversed_path(path)).value
    assert abs(fwd + rev) < 1e-9


def test_filling_volume_decreases(fig8_spec, fig8_fillings):
    for ktext, _, path in fig8_fillings:
        integ = integrate_eta(path)
        assert integ.value < 0
        assert abs(integ.value) < fig8_spec.reference_volume.value


def test_volumes_increase_toward_reference(fig8_spec, fig8_fillings):
    vols = [anchored_volume(fig8_spec, path).value for _, _, path in fig8_fillings]
    assert vols == sorted(vols)
    assert all(v < fig8_spec.reference_volume.value for v in vols)
    # Neumann-Zagier rate: (Vol(M) - Vol(M_q)) * q^2 roughly constant
    qs = [5, 7, 11]
    scaled = [(fig8_spec.reference_volume.value - v) * q * q
              for v, q in zip(vols, qs)]
    assert max(scaled) / min(scaled) < 1.15


def test_anchored_volume_trivial_paths(fig8_spec, fig8_complete):
    path = TrackedPath(points=[fig8_complete], taus=[0.0])
    vol = anchored_volume(fig8_spec, path)
    assert vol.value == fig8_spec.reference_volume.value
    conj = CharacterPoint(coords=fig8_complete.coords,
                          cusps=fig8_complete.cusps, residual=0.0,
                          orientation=-1)
    vol2 = anchored_volume(fig8_spec, TrackedPath(points=[conj], taus=[0.0]))
    assert vol2.value == -fig8_spec.reference_volume.value


def test_quadrature_error_estimate_small(fig8_fillings):
    for _, _, path in fig8_fillings:
        integ = integrate_eta(path)
        assert integ.error_estimate < 1e-7


def test_volume_needs_the_quadrature_step(fig8_spec, fig8_problem, fig8_complete,
                                          fig8_fillings):
    """On a (1,5) path at `track`'s adaptive steps the volume's Richardson
    estimate exceeds certify's quadrature tolerance; on the path at
    QUADRATURE_STEP it does not.  So `fill` and `certify` pass the step."""
    from charvol.cli import QUADRATURE_TOL
    _, adaptive = solve_filling(fig8_problem, fig8_complete,
                                FillingCoefficients.parse("1,5", 1))
    _, _, dense = fig8_fillings[0]
    assert anchored_volume(fig8_spec, adaptive).quadrature_error > QUADRATURE_TOL
    assert anchored_volume(fig8_spec, dense).quadrature_error < QUADRATURE_TOL


def test_gamma_mirror_leaves_integral_unchanged(fig8_fillings):
    """Pulling back along the per-cusp inversion (u, v) -> (-u, -v) preserves
    the integral exactly."""
    _, _, path = fig8_fillings[0]
    mirrored = []
    for pt in path.points:
        sts = []
        for c in pt.cusps:
            sts.append(PeripheralState(
                u=-c.u, v=-c.v, m=1 / c.m, l=1 / c.l,
                trace_m=c.trace_m, trace_l=c.trace_l, trace_ml=c.trace_ml,
                base_u=-c.base_u, base_v=-c.base_v))
        mirrored.append(CharacterPoint(coords=pt.coords, cusps=sts, residual=0.0))
    mpath = TrackedPath(points=mirrored, taus=list(path.taus))
    assert abs(integrate_eta(mpath).value - integrate_eta(path).value) < 1e-9


def test_twisted_path_same_volume(fig8_spec, fig8_system, fig8_fillings):
    """Sign twists shift Im(u) by a constant: identical line integrals, so the
    twisted fiber point carries the same anchored volume."""
    from charvol.repvar import enumerate_twists
    _, _, path = fig8_fillings[0]
    tw = [t for t in enumerate_twists(fig8_spec) if not t.is_trivial()][0]
    twisted = TrackedPath(
        points=[apply_twist(p, tw, fig8_system) for p in path.points],
        taus=list(path.taus))
    v1 = anchored_volume(fig8_spec, path).value
    v2 = anchored_volume(fig8_spec, twisted).value
    assert abs(v1 - v2) < 1e-9


# -- loops ---------------------------------------------------------------------------

def test_trivial_loop_integral(fig8_fillings):
    _, pt, _ = fig8_fillings[0]
    loop = TrackedPath(points=[pt, pt, pt], taus=[0.0, 0.5, 1.0])
    integ = loop_integral(loop)
    assert integ.value == 0.0 and integ.error_estimate == 0.0


def test_loop_integral_requires_closure(fig8_fillings):
    _, _, path = fig8_fillings[0]
    with pytest.raises(VolumeError):
        loop_integral(path)  # open path: endpoints differ


def test_loop_crossing_U_rejected(fig8_fillings):
    """A closed path running through the complete structure touches U with
    moving cusps and is rejected."""
    _, _, path = fig8_fillings[0]
    loop = TrackedPath(points=list(path.points) + list(reversed(path.points[:-1])),
                       taus=list(range(2 * len(path) - 1)))
    with pytest.raises(VolumeError):
        loop_integral(loop)


def test_path_through_the_complete_structure_rejected(fig8_fillings):
    """A filling path run backwards and then forwards has the complete
    structure, on U, as an interior sample; its endpoints are off U."""
    _, _, path = fig8_fillings[0]
    there_and_back = list(reversed(path.points)) + list(path.points[1:])
    with pytest.raises(VolumeError, match="^interior path sample lies on U$"):
        integrate_eta(TrackedPath(points=there_and_back,
                                  taus=list(range(len(there_and_back)))))


def test_random_loops_are_exact(fig8_spec, fig8_problem, fig8_complete):
    from charvol.continuation import track_closed_loop
    rng = np.random.default_rng(8)
    base = step_off_complete(fig8_problem, fig8_complete, [0.35 + 0.1j])
    values = []
    for _ in range(3):
        family = random_log_loop_targets(base, rng, radius=(0.1, 0.25))
        loop = track_closed_loop(fig8_problem, base, family,
                                 first_step=0.004, max_step=0.004)
        values.append(loop_integral(loop).value)
    assert all(abs(v) < 1e-6 for v in values)


def test_path_independence_two_routes(fig8_spec, fig8_problem, fig8_complete,
                                      fig8_fillings, fig8_system):
    """Two different tracked paths from the complete structure to the same
    filled character assign equal anchored volumes."""
    ktext, pt, path_a = fig8_fillings[0]
    va = anchored_volume(fig8_spec, path_a).value
    for detour in (0.15 + 0.1j, 0.2 - 0.1j, 0.35 + 0.2j):
        path_b = make_filling_route_via_detour(
            fig8_problem, fig8_complete, (1, 5), detour=detour)
        key_a = fig8_system.char_key(pt.coords)
        key_b = fig8_system.char_key(path_b.endpoint().coords)
        assert np.max(np.abs(key_a - key_b)) < 1e-8
        vb = anchored_volume(fig8_spec, path_b).value
        assert abs(va - vb) < 1e-6


# -- quadrature oracle for exactness loops ----------------------------------------

def _area_sum(points, u0):
    """Per cusp, the trapezoid sum of Re(u - u0) dIm(u) over the samples."""
    return [sum(0.5 * ((a.cusps[i].u - c0).real + (b.cusps[i].u - c0).real)
                * (b.cusps[i].u - a.cusps[i].u).imag
                for a, b in zip(points, points[1:]))
            for i, c0 in enumerate(u0)]


@pytest.mark.parametrize("fixture", ["fig8", "wlink"])
def test_exactness_loop_levels_sample_the_ellipse_uniformly(fixture, request):
    """On n uniform samples per winding of the pinned ellipse u = u0 +
    a(cos t - cos ph) + i b(sin t - sin ph), the trapezoid sum of
    Re(u - u0) dIm(u) is exactly w pi a b sin(h)/h with h = 2 pi/n, while
    the integral itself is w pi a b.  Matching that identity at 1/64 and at
    0.004 shows each level takes the stated number of uniform samples."""
    from charvol.cli import _generic_base_point
    from charvol.continuation import track_closed_loop
    spec = request.getfixturevalue(f"{fixture}_spec")
    problem = request.getfixturevalue(f"{fixture}_problem")
    complete = request.getfixturevalue(f"{fixture}_complete")
    base = _generic_base_point(problem, complete)
    draw = np.random.default_rng(1000)      # the draws random_log_loop_targets makes
    a = draw.uniform(0.08, 0.3, size=spec.cusp_count)
    b = draw.uniform(0.08, 0.3, size=spec.cusp_count)
    family = random_log_loop_targets(base, np.random.default_rng(1000), radius=(0.08, 0.3))
    for step, n in ((1 / 64, 64), (0.004, 250)):
        loop = track_closed_loop(problem, base, family, first_step=step, max_step=step)
        windings = round(loop.taus[-1])
        assert loop.steps_rejected == 0 and len(loop) == windings * n + 1
        h = 2 * math.pi / n
        sums = _area_sum(loop.points, [c.u for c in base.cusps])
        for s, ai, bi in zip(sums, a, b):
            assert s == pytest.approx(windings * math.pi * ai * bi * math.sin(h) / h,
                                      rel=1e-6)


@pytest.mark.parametrize("fixture", ["fig8", "wlink"])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_loop_exactness_sees_a_non_exact_term(fixture, eps, request, monkeypatch):
    """Adding eps Re(u - u0) dIm(u) per cusp to the volume form gives each
    loop about eps pi a b, at least 2e-5 here against the 1e-6 tolerance, so
    every kept loop must fail; with eps = 0 none may."""
    import charvol.volume as volume
    from charvol.cli import _generic_base_point, run_exactness_loops
    problem = request.getfixturevalue(f"{fixture}_problem")
    complete = request.getfixturevalue(f"{fixture}_complete")
    u0 = [c.u for c in _generic_base_point(problem, complete).cusps]
    increments = volume._segment_increments

    def perturbed(points, sign):
        return increments(points, sign) + eps * np.array(
            [sum(_area_sum([a, b], u0)) for a, b in zip(points, points[1:])])
    monkeypatch.setattr(volume, "_segment_increments", perturbed)
    integrals, failures, _, _ = run_exactness_loops(problem, complete, count=3, seed=1000)
    assert len(integrals) == 3
    failed = [f["loop"] for f in failures]
    assert failed == ([0, 1, 2] if eps else [])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the Richardson estimate of a 1/64 loop can under-read its error: this one "
    "reads 3.8e-8 against 2.7e-6 (ROADMAP item 4)"))
def test_a_loop_resolved_at_1_64_meets_the_loop_tolerance(wlink_spec, wlink_problem,
                                                          wlink_complete):
    """Loop 8 of `certify --spec wlink --seed 201005`, the ninth draw, tracked
    at 1/64: two windings, 129 samples.  It integrates to 2.7e-6 with a
    Richardson estimate of 3.8e-8, below LOOP_TOL/20, so the check keeps it
    and loop_exactness fails.  The form is exact on it: a 1/1024 track of
    the same loop agrees with these samples to 3e-12 and integrates to
    1e-13.  A loop the check keeps must have |value| below LOOP_TOL, or an
    estimate that hands it to the next level."""
    from charvol.cli import LOOP_TOL, _generic_base_point
    from charvol.continuation import track_closed_loop
    from charvol.volume import handedness_sign
    base = _generic_base_point(wlink_problem, wlink_complete)
    rng = np.random.default_rng(201005)
    for _ in range(9):
        family = random_log_loop_targets(base, rng, radius=(0.08, 0.3))
    loop = track_closed_loop(wlink_problem, base, family, first_step=1 / 64,
                             max_step=1 / 64)
    if len(loop) != 129:
        pytest.fail(f"the pinned loop took {len(loop)} samples, not 129")
    integ = loop_integral(loop, handedness_sign(wlink_spec))
    assert integ.error_estimate >= LOOP_TOL / 20 or abs(integ.value) < LOOP_TOL
