import copy

import numpy as np
import pytest

from charvol.continuation import (CLOSURE_TOL, FOURTH_DIFFERENCE_TOL, QUADRATURE_STEP,
                                  ConstraintFamily, ContinuationError, DivergenceError,
                                  FillingCoefficients, FillingError, SingularJacobianError,
                                  TrackingError, closure_gap, concatenate_paths, fiber_over,
                                  newton_correct, pin_log, sample_dense_set, solve_filling,
                                  step_off_complete, track, _twist_key)
from charvol.locus import eigenvalues, on_U, on_V, traces
from charvol.poly import CompiledSystem
from charvol.repvar import SignTwist, enumerate_twists, gauss_newton, gauss_newton_lockstep
from charvol.volume import anchored_volume
from oracles import apply_twist, jacobian_check

TWO_PI_I = 2j * np.pi


class _Callable:
    """Adapter exposing values/jacobian from plain callables (test systems)."""

    def __init__(self, f, jac):
        self.f, self.jac = f, jac

    def values(self, x):
        return np.atleast_1d(self.f(np.asarray(x, dtype=complex)))

    def jacobian(self, x):
        return np.atleast_2d(self.jac(np.asarray(x, dtype=complex)))

    def values_and_jacobian(self, x):
        return self.values(x), self.jacobian(x)


# -- newton_correct ------------------------------------------------------------

def test_newton_exact_solution_unchanged():
    sys_ = _Callable(lambda x: np.array([x[0] ** 2 - 4]),
                     lambda x: np.array([[2 * x[0]]]))
    res = newton_correct(sys_.values_and_jacobian, np.array([2.0 + 0j]))
    assert res.iterations == 0
    assert res.x[0] == 2.0


def test_newton_sqrt2():
    sys_ = _Callable(lambda x: np.array([x[0] ** 2 - 2]),
                     lambda x: np.array([[2 * x[0]]]))
    res = newton_correct(sys_.values_and_jacobian, np.array([1.5 + 0j]), tol=1e-13)
    assert abs(res.x[0] - np.sqrt(2)) < 1e-12
    # quadratic convergence: contraction ratios stay bounded
    assert all(r < 10 for r in res.quad_ratios)


def test_newton_singular_jacobian_raises():
    sys_ = _Callable(lambda x: np.array([x[0] ** 2]),
                     lambda x: np.array([[0.0 * x[0]]]))
    with pytest.raises(SingularJacobianError):
        newton_correct(sys_.values_and_jacobian, np.array([1e-3 + 0j]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_newton_divergence_raises():
    sys_ = _Callable(lambda x: np.array([np.exp(x[0] ** 2) - 1e30]),
                     lambda x: np.array([[2 * x[0] * np.exp(x[0] ** 2)]]))
    with pytest.raises((DivergenceError, SingularJacobianError)):
        newton_correct(sys_.values_and_jacobian, np.array([30.0 + 0j]), maxiter=10)


def test_newton_nonfinite_iterate_raises_divergence():
    # from x = 2 the first step lands on the pole x = 0
    def F(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1 / x - 1, np.diag(-1 / x ** 2)
    with pytest.raises(DivergenceError):
        newton_correct(F, np.array([2.0 + 0j]))


def test_newton_max_step_caps_each_step():
    target = np.array([30.0, 40.0j])
    iterates = []

    def F(x):
        iterates.append(x)
        return x - target, np.eye(2, dtype=complex)
    res = gauss_newton(F, np.zeros(2, dtype=complex), 1e-12, maxiter=20, max_step=5.0)
    steps = [np.linalg.norm(b - a) for a, b in zip(iterates, iterates[1:])]
    assert res.iterations == 10
    assert max(steps) <= 5.0 + 1e-12
    assert np.max(np.abs(res.x - target)) < 1e-12
    # without the cap the linear system is solved in one step
    assert gauss_newton(lambda x: (x - target, np.eye(2, dtype=complex)),
                        np.zeros(2, dtype=complex), 1e-12, maxiter=20).iterations == 1


def test_newton_reconverges_near_filled(fig8_system, fig8_fillings):
    _, pt, _ = fig8_fillings[0]
    z = pt.trace_vector()
    gauge, trace = fig8_system.gauge_rows, fig8_system.trace_rows

    def F(x):
        # the gauge rows plus the boundary-trace rows shifted by z
        vals, J = fig8_system.compiled.values_and_jacobian(x)
        return (np.concatenate([vals[gauge], vals[trace] - z]),
                np.vstack([J[gauge], J[trace]]))
    rng = np.random.default_rng(1)
    x0 = pt.coords + 1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    res = newton_correct(F, x0, tol=1e-11)
    assert np.max(np.abs(res.x - pt.coords)) < 1e-9


def test_correct_and_predict_evaluate_once_per_step(fig8_problem, fig8_complete,
                                                   block_calls, monkeypatch):
    """One compiled block call per Newton evaluation in `correct`, which
    builds its point from the last one, and none in `predict` from a single
    sample."""
    import charvol.continuation as cont
    du = 0.1 + 0.05j
    base = step_off_complete(fig8_problem, fig8_complete, [du])
    family = pin_log(lambda tau: np.array([du + 0.02 * tau]))
    evaluations = []
    kernel = cont.gauss_newton

    def counting_kernel(F, *args, **kwargs):
        def G(x):
            evaluations.append(1)
            return F(x)
        return kernel(G, *args, **kwargs)

    monkeypatch.setattr(cont, "gauss_newton", counting_kernel)
    before = len(block_calls)
    xpred = fig8_problem.predict([base], [0.0], 1.0)
    assert len(block_calls) - before == 0
    before = len(block_calls)
    pt, res, ok = fig8_problem.correct(xpred, base, family, 1.0)
    assert ok and res < 1e-11
    assert len(evaluations) >= 2
    assert len(block_calls) - before == len(evaluations)


def test_predict_from_samples_is_exact_on_cubic_paths(fig8_problem, fig8_complete,
                                                     block_calls):
    """From one to four samples, `predict` returns the value of the polynomial
    through them (degree at most three, at uneven taus, as after a rejected
    step) with no evaluation; from more, it uses the last four."""
    base = step_off_complete(fig8_problem, fig8_complete, [0.1 + 0.05j])
    rng = np.random.default_rng(5)
    taus = [0.3, 0.34, 0.36, 0.365, 0.3675]
    for degree in range(4):
        coeffs = rng.normal(size=(degree + 1, 3)) + 1j * rng.normal(size=(degree + 1, 3))

        def path(tau):
            return sum(c * tau ** k for k, c in enumerate(coeffs))
        samples = []
        for tau in taus:
            pt = copy.copy(base)
            pt.coords = path(tau)
            samples.append(pt)
        for n in range(degree + 1, len(taus) + 1):
            before = len(block_calls)
            x = fig8_problem.predict(samples[:n], taus[:n], 0.00125)
            assert len(block_calls) == before
            assert np.max(np.abs(x - path(taus[n - 1] + 0.00125))) < 1e-12


def test_predict_keeps_an_exactness_loop_to_one_newton_step(fig8_problem, fig8_complete,
                                                           monkeypatch):
    """On a fig8 exactness loop at step 0.004, the extrapolating predictor
    leaves Newton about one step per sample (the tangent predictor needed
    two, with three least-squares solves per sample)."""
    import charvol.continuation as cont
    from charvol.cli import _generic_base_point
    from charvol.continuation import random_log_loop_targets
    base = _generic_base_point(fig8_problem, fig8_complete)
    family = random_log_loop_targets(base, np.random.default_rng(1000), radius=(0.08, 0.3))
    steps, solves = [], []
    kernel, lstsq = cont.gauss_newton, np.linalg.lstsq

    def counting_kernel(*args, **kwargs):
        r = kernel(*args, **kwargs)
        steps.append(r.iterations)
        return r

    def counting_lstsq(*args, **kwargs):
        solves.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(cont, "gauss_newton", counting_kernel)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    path = track(fig8_problem, base, family, first_step=0.004, max_step=0.004)
    samples = len(path) - 1
    assert samples == 250 and path.steps_rejected == 0
    assert sum(steps) / samples <= 1.4
    assert len(solves) / samples <= 1.4


# -- jacobian_check --------------------------------------------------------------

def test_jacobian_check_linear_system():
    A = np.array([[2.0, 1j], [0.5, -3.0]])
    sys_ = _Callable(lambda x: A @ x, lambda x: A)
    rep = jacobian_check(sys_, np.array([0.3, -0.7 + 0.2j]))
    assert rep["max_relative_error"] < 1e-9


def test_jacobian_check_fig8(fig8_system, fig8_complete):
    rep = jacobian_check(fig8_system.compiled,
                         fig8_complete.coords + np.array([0.05, 0.02, -0.01j]))
    assert rep["max_relative_error"] < 1e-5


def test_jacobian_check_extended_laurent(fig8_extended, fig8_fillings):
    from charvol.eigenvar import sample_point
    _, pt, _ = fig8_fillings[0]
    point = np.concatenate([pt.coords, sample_point(pt)])
    cs = CompiledSystem(fig8_extended.polynomials, fig8_extended.vars)
    rep = jacobian_check(cs, point)
    assert rep["max_relative_error"] < 1e-5


def test_jacobian_check_detects_mismatch():
    sys_ = _Callable(lambda x: np.array([x[0] ** 2]),
                     lambda x: np.array([[3 * x[0]]]))  # wrong derivative
    with pytest.raises(ContinuationError):
        jacobian_check(sys_, np.array([1.0 + 0j]))


# -- tracking ----------------------------------------------------------------------

def test_track_constant_family(fig8_problem, fig8_fillings):
    _, pt, _ = fig8_fillings[0]
    u0 = pt.cusps[0].u - pt.cusps[0].base_u
    family = pin_log(lambda tau: np.array([u0]))
    path = track(fig8_problem, pt, family, first_step=0.25, max_step=0.25)
    assert len(path) >= 2
    for sample in path.points:
        assert np.max(np.abs(sample.coords - pt.coords)) < 1e-9


def test_track_out_and_back(fig8_problem, fig8_complete):
    """A u-segment tracked forward then reversed returns to the start."""
    base = step_off_complete(fig8_problem, fig8_complete, [0.3 + 0.1j])
    u0 = base.cusps[0].u - base.cusps[0].base_u
    seg = 0.4 + 0.25j
    out = pin_log(lambda tau: np.array([u0 + tau * seg]))
    fwd = track(fig8_problem, base, out, first_step=0.02, max_step=0.02)
    back = pin_log(lambda tau: np.array([u0 + (1 - tau) * seg]))
    rev = track(fig8_problem, fwd.endpoint(), back, first_step=0.02, max_step=0.02)
    assert np.max(np.abs(rev.endpoint().coords - base.coords)) < 1e-9
    assert abs(rev.endpoint().cusps[0].u - base.cusps[0].u) < 1e-9


def test_track_from_sign_twisted_point(fig8_system, fig8_problem, fig8_complete):
    """Constraints are measured from the tracked point's own lift reference:
    a path from a sign-twisted point moves, stays the twist of the untwisted
    path, and returns to the twisted coordinates."""
    plain = step_off_complete(fig8_problem, fig8_complete, [0.3 + 0.1j])
    twist = SignTwist((-1, -1))
    base = apply_twist(plain, twist, fig8_system)
    u0 = base.cusps[0].u - base.cusps[0].base_u
    assert abs(u0 - (plain.cusps[0].u - plain.cusps[0].base_u)) < 1e-15
    seg = 0.3 + 0.2j
    out = pin_log(lambda tau: np.array([u0 + tau * seg]))
    fwd = track(fig8_problem, base, out, first_step=0.02, max_step=0.02)
    fwd_plain = track(fig8_problem, plain, out, first_step=0.02, max_step=0.02)
    twisted_end = apply_twist(fwd_plain.endpoint(), twist, fig8_system)
    assert np.max(np.abs(fwd.endpoint().coords - twisted_end.coords)) < 1e-9
    back = pin_log(lambda tau: np.array([u0 + (1 - tau) * seg]))
    rev = track(fig8_problem, fwd.endpoint(), back, first_step=0.02, max_step=0.02)
    assert np.max(np.abs(rev.endpoint().coords - base.coords)) < 1e-9
    assert abs(rev.endpoint().cusps[0].u - base.cusps[0].u) < 1e-9


def test_track_reports_min_step_failure(fig8_problem, fig8_complete):
    base = step_off_complete(fig8_problem, fig8_complete, [0.3])
    u0 = base.cusps[0].u - base.cusps[0].base_u
    # demand an absurd jump in one step: the corrector cannot follow
    family = pin_log(lambda tau: np.array([u0 + tau * (40 + 40j)]))
    with pytest.raises(TrackingError):
        track(fig8_problem, base, family, first_step=1.0, max_step=1.0,
              min_step=0.2)


def test_track_min_step_error_names_the_branch_check(fig8_problem, fig8_complete,
                                                     monkeypatch):
    """When Newton converges but every step moves a log by pi/2 or more, the
    minimum-step error names the branch check, the cusp, the log and the
    increment rather than a residual."""
    base = step_off_complete(fig8_problem, fig8_complete, [0.3])
    u0 = base.cusps[0].u - base.cusps[0].base_u
    family = pin_log(lambda tau: np.array([u0 + 0.01 * tau]))
    correct = fig8_problem.correct

    def jumping(*args, **kwargs):
        pt, res, ok = correct(*args, **kwargs)
        pt = copy.deepcopy(pt)
        pt.cusps[0].u += 2j
        return pt, res, ok
    monkeypatch.setattr(fig8_problem, "correct", jumping)
    with pytest.raises(TrackingError, match=r"rejected by the branch check "
                                            r"\(cusp 1, log u, increment .*2j\)"):
        track(fig8_problem, base, family, first_step=0.1, max_step=0.1, min_step=0.01)
    monkeypatch.undo()
    far = pin_log(lambda tau: np.array([u0 + tau * (40 + 40j)]))
    with pytest.raises(TrackingError, match=r"rejected by Newton \(residual "):
        track(fig8_problem, base, far, first_step=1.0, max_step=1.0, min_step=0.2)


def test_track_never_steps_past_max_step(wlink_problem, wlink_complete, monkeypatch):
    """After a rejection the step regrows by 1.5 per accepted step up to
    max_step and no further: rejecting the third step of the first
    default_rng(1000) exactness loop at 1/64 leaves every tau increment at
    most 1/64 (0.5, 0.75, then 1 x 1/64)."""
    import charvol.continuation as continuation
    from charvol.cli import _generic_base_point
    from charvol.continuation import random_log_loop_targets
    base = _generic_base_point(wlink_problem, wlink_complete)
    family = random_log_loop_targets(base, np.random.default_rng(1000), radius=(0.08, 0.3))
    branch_jump = continuation._branch_jump
    calls = []

    def scripted(old, new):
        calls.append(None)
        return "a scripted rejection" if len(calls) == 3 else branch_jump(old, new)
    monkeypatch.setattr(continuation, "_branch_jump", scripted)
    path = track(wlink_problem, base, family, first_step=1 / 64, max_step=1 / 64)
    assert path.steps_rejected == 1
    steps = np.diff(path.taus)
    assert steps[:4] == pytest.approx([1 / 64, 1 / 64, 0.5 / 64, 0.75 / 64])
    assert np.all(steps <= (1 / 64) * (1 + 1e-12))
    assert len(path) == 66 and path.taus[-1] == pytest.approx(1.0)


def test_tracked_path_samples_validate(fig8_fillings):
    _, _, path = fig8_fillings[0]
    for pt in path.points[:: max(1, len(path) // 7)]:
        assert pt.residual < 1e-10
        pt.validate()
    # branch continuity along the path
    for a, b in zip(path.points, path.points[1:]):
        assert abs((b.cusps[0].u - a.cusps[0].u).imag) < np.pi / 2


def test_csv_export(fig8_fillings):
    _, _, path = fig8_fillings[0]
    text = path.export_csv(np.zeros(len(path)))
    lines = text.strip().splitlines()
    assert lines[0] == "t,re_u1,im_u1,re_v1,im_v1,running_volume"
    assert len(lines) == len(path) + 1


# -- fillings -----------------------------------------------------------------------

def test_filling_trivial(fig8_problem, fig8_complete, fig8_spec):
    kappa = FillingCoefficients.parse("inf", 1)
    pt, path = solve_filling(fig8_problem, fig8_complete, kappa)
    assert pt is fig8_complete
    assert len(path) == 1


def test_filling_equation_residual(fig8_fillings):
    for ktext, pt, path in fig8_fillings:
        q = int(ktext.split(",")[1])
        c = pt.cusps[0]
        resid = abs((c.u - c.base_u) + q * (c.v - c.base_v) - TWO_PI_I)
        assert resid < 1e-9
        assert on_V(traces(path.points[0])) and not on_V(traces(path.endpoint()))


def test_filling_trace_identities(fig8_fillings):
    _, pt, _ = fig8_fillings[0]
    for c in pt.cusps:
        assert abs(c.m + 1 / c.m - c.trace_m) < 1e-8
        assert abs(c.l + 1 / c.l - c.trace_l) < 1e-8
        assert abs(c.m * c.l + 1 / (c.m * c.l) - c.trace_ml) < 1e-8


def test_filling_mixed_wlink(wlink_fillings):
    ktext, pt, path = wlink_fillings[2]  # "1,5;inf"
    assert ktext.endswith("inf")
    c1, c2 = pt.cusps
    assert abs((c1.u - c1.base_u) + 5 * (c1.v - c1.base_v) - TWO_PI_I) < 1e-9
    assert abs(c2.u - c2.base_u) < 1e-9
    assert abs(c2.trace_m ** 2 - 4) < 1e-8


def test_filling_coprimality_enforced():
    with pytest.raises(ValueError):
        FillingCoefficients(((2, 4),))


def test_filling_parse_errors():
    with pytest.raises(ValueError):
        FillingCoefficients.parse("1,5", 2)


def _loop_draws(problem, complete, count):
    """The exactness loops' base point and the first `count` loops that
    default_rng(1) draws from it."""
    from charvol.cli import _generic_base_point
    from charvol.continuation import random_log_loop_targets
    base = _generic_base_point(problem, complete)
    rng = np.random.default_rng(1)
    return base, [random_log_loop_targets(base, rng, radius=(0.08, 0.3)) for _ in range(count)]


def _solo_loop(problem, base, family, step):
    """The family's loop tracked by itself with `track` at `step`, winding
    by winding from the endpoint of the last, until its eigenvalue
    coordinates are within CLOSURE_TOL of base, at most three windings; or
    the TrackingError that ends it."""
    loop = None
    try:
        for _ in range(3):
            path = track(problem, base if loop is None else loop.endpoint(), family,
                         first_step=step, max_step=step)
            loop = path if loop is None else concatenate_paths(loop, path)
            gap = closure_gap(base, loop.endpoint())
            if gap < CLOSURE_TOL:
                return loop
    except TrackingError as e:
        return e
    return TrackingError(f"loop failed to close after 2 windings (gap {gap:.2e})")


def _assert_same_loop(stacked, solo):
    """Equal errors, or equal taus, sample counts and rejections and
    coordinates within 1e-12."""
    if isinstance(solo, TrackingError):
        assert isinstance(stacked, TrackingError) and str(stacked) == str(solo)
        return
    assert stacked.taus == solo.taus
    assert len(stacked) == len(solo) and stacked.steps_rejected == solo.steps_rejected
    for a, b in zip(stacked.points, solo.points):
        assert np.max(np.abs(a.coords - b.coords)) <= 1e-12


@pytest.mark.parametrize("name", ["fig8", "wlink"])
@pytest.mark.parametrize("step", [1 / 64, 1 / 8, 0.004])
def test_stacked_loops_equal_their_solo_tracks(name, step, request):
    """Each member of a `track_closed_loops` stack gets the path that `track`
    tracks for it alone, winding by winding, or the same error.  The six
    draws include loops that close only after a second winding and, at the
    step 1/8, loops with rejected steps, and draws that fail to close.  A
    stack that shrinks below STACK_MIN members goes on with `correct`, and
    a smaller stack has the solo bytes."""
    from charvol.continuation import track_closed_loop, track_closed_loops
    problem, complete = (request.getfixturevalue(f"{name}_{k}")
                         for k in ("problem", "complete"))
    base, families = _loop_draws(problem, complete, 6)
    stacked = track_closed_loops(problem, base, families, step, step)
    solos = [_solo_loop(problem, base, family, step) for family in families]
    assert len(stacked) == len(solos)
    for a, b in zip(stacked, solos):
        _assert_same_loop(a, b)
    closed = [b for b in solos if not isinstance(b, TrackingError)]
    assert any(b.taus[-1] == pytest.approx(2.0) for b in closed)   # two windings
    assert any(b.steps_rejected for b in closed) == (step == 1 / 8)
    failed = {("fig8", 1 / 64): [2], ("fig8", 1 / 8): [2], ("fig8", 0.004): [],
              ("wlink", 1 / 64): [], ("wlink", 1 / 8): [0], ("wlink", 0.004): []}[name, step]
    assert [k for k, a in enumerate(stacked) if isinstance(a, TrackingError)] == failed
    # fewer than STACK_MIN members step with `correct`: the solo bytes
    pair = track_closed_loops(problem, base, families[3:5], step, step)
    one = track_closed_loop(problem, base, families[5], step, step)
    for a, b in zip(pair + [one], solos[3:]):
        assert [p.coords.tobytes() for p in a.points] == [p.coords.tobytes() for p in b.points]


def test_a_failing_member_leaves_the_stack_alone(fig8_problem, fig8_complete, monkeypatch):
    """A member that reaches the minimum step, or whose sample lands on V,
    fails with its own TrackingError in a stack of STACK_MIN members; the
    other members keep their solo tracks."""
    import charvol.continuation as continuation
    from charvol.continuation import track_closed_loops
    base, draws = _loop_draws(fig8_problem, fig8_complete, continuation.STACK_MIN - 1)
    u0 = base.cusps[0].u - base.cusps[0].base_u
    # the corrector cannot follow a jump of 0.88 in u per step
    far = pin_log(lambda tau: [u0 + tau * (40 + 40j)])
    stacked = track_closed_loops(fig8_problem, base, [draws[0], far, *draws[1:]], 1 / 64, 1 / 64)
    assert isinstance(stacked[1], TrackingError)
    assert str(stacked[1]).startswith("minimum step reached at tau=0.09")
    assert isinstance(_solo_loop(fig8_problem, base, far, 1 / 64), TrackingError)
    solos = [_solo_loop(fig8_problem, base, family, 1 / 64) for family in draws]
    for a, b in zip(stacked[:1] + stacked[2:], solos):
        _assert_same_loop(a, b)
    # V seen wherever the meridian trace is the base point's: only the
    # member that stays at the base point reaches it
    trace_m = base.cusps[0].trace_m
    monkeypatch.setattr(continuation, "on_V", lambda pairs, tol=1e-6, moving=None:
                        any(abs(a - trace_m) < 1e-9 for a, _ in pairs))
    still = pin_log(lambda tau: [u0])
    stacked = track_closed_loops(fig8_problem, base, [draws[0], still, *draws[1:]], 1 / 64,
                                 1 / 64)
    assert str(stacked[1]) == str(_solo_loop(fig8_problem, base, still, 1 / 64)) == \
        "path crossed V at tau=0.015625"
    for a, b in zip(stacked[:1] + stacked[2:], solos):
        _assert_same_loop(a, b)


def _filling_family(kappa: FillingCoefficients) -> ConstraintFamily:
    """The constraint family that solve_filling imposes for kappa."""
    return ConstraintFamily([1 if s is None else s[0] for s in kappa.slopes],
                            [0 if s is None else s[1] for s in kappa.slopes],
                            lambda tau: [0j if s is None else TWO_PI_I * tau
                                         for s in kappa.slopes])


@pytest.mark.parametrize("name", ["fig8", "wlink"])
def test_stacked_rows_equal_single_rows(name, fig8_problem, fig8_fillings,
                                        wlink_problem, wlink_fillings):
    """The stacked family rows give each sample the values and Jacobian of
    `_rows` at that sample's tau and lift reference (read from the path's
    points through `before`), also when F sees only some of the samples
    (wlink's "1,5;inf" pins its unfilled cusp).  The gauge rows have the
    same bytes.  A family row sums the logs u, u0, v, v0 (times p or q)
    and -t, which cancel, so it agrees to 1e-14 relative to the largest of
    them.  Per-sample (k, h) coefficients equal to the shared (h,) row give
    the same bytes."""
    problem, (ktext, _, path) = {"fig8": (fig8_problem, fig8_fillings[0]),
                                 "wlink": (wlink_problem, wlink_fillings[2])}[name]
    family = _filling_family(FillingCoefficients.parse(ktext, len(problem.cusps)))
    rng = np.random.default_rng(5)
    picks = [2, 3, 200, 600, 990]
    before = np.array(picks) - 1
    refs = [path.points[k] for k in before]
    taus = [path.taus[k] for k in picks]
    X = np.array([path.points[k].coords for k in picks])
    X = X + 1e-3 * (rng.normal(size=X.shape) + 1j * rng.normal(size=X.shape))
    p, q = family.coefficients(len(problem.cusps))
    targets = np.array([family.target(t) for t in taus], dtype=complex)
    F = problem._stacked_rows(path.points, before, p, q, targets)
    per_sample = problem._stacked_rows(path.points, before, np.tile(p, (len(picks), 1)),
                                       np.tile(q, (len(picks), 1)), targets)
    for live in (np.arange(len(picks)), np.array([1, 4])):
        vals, J = F(X[live], live)
        for a, b in zip((vals, J), per_sample(X[live], live)):
            assert a.tobytes() == b.tobytes()
        for k, v, j in zip(live, vals, J):
            F1 = problem._rows(refs[k], family, taus[k])
            v1, j1 = F1(X[k])
            terms = [max(abs(p) * (abs(c.u) + abs(c.base_u)),
                         abs(q) * (abs(c.v) + abs(c.base_v)), abs(t))
                     for p, q, t, c in zip(family.p, family.q, family.target(taus[k]),
                                           refs[k].cusps)]
            g = len(v) - len(terms)
            assert v[:g].tobytes() == v1[:g].tobytes()
            assert np.all(np.abs(v[g:] - v1[g:]) <= 1e-14 * np.array(terms))
            assert np.allclose(j, j1, rtol=1e-14, atol=0)
            assert j[:g].tobytes() == j1[:g].tobytes()


@pytest.mark.parametrize("name", ["fig8", "wlink"])
def test_rows_equal_the_concatenated_rows_bytewise(name, request):
    """`_rows` writes the gauge rows and the family's rows into preallocated
    arrays; its values and Jacobian have the bytes of the concatenate/vstack
    formula written out here, for a filling family (integer p, q) and a
    random loop family (float p, q)."""
    from charvol.cli import _generic_base_point
    from charvol.continuation import random_log_loop_targets
    problem, complete = (request.getfixturevalue(f"{name}_{k}")
                         for k in ("problem", "complete"))
    base = _generic_base_point(problem, complete)
    slopes = "1,5" if name == "fig8" else "1,5;inf"
    families = [_filling_family(FillingCoefficients.parse(slopes, len(problem.cusps))),
                random_log_loop_targets(base, np.random.default_rng(3), radius=(0.08, 0.3))]
    rng = np.random.default_rng(11)
    n = len(problem.vars)
    for family in families:
        for tau in (0.0, 0.3, 0.7):
            F = problem._rows(base, family, tau)
            for _ in range(4):
                x = base.coords + 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
                vals, J = F(x)
                cv, cJ = problem.compiled.values_and_jacobian(x)
                ml, Jml = cv[problem.ml_rows], cJ[problem.ml_rows]
                rows, grads = [], []
                for i, (p, q, t, c) in enumerate(zip(family.p, family.q, family.target(tau),
                                                     base.cusps)):
                    m, l = ml[2 * i], ml[2 * i + 1]
                    u, v = c.continued_logs(m, l)
                    rows.append(p * (u - c.base_u) + q * (v - c.base_v) - t)
                    grads.append(p * Jml[2 * i] / m + q * Jml[2 * i + 1] / l)
                want_vals = np.concatenate([cv[problem.gauge_rows], rows])
                want_J = np.vstack([cJ[problem.gauge_rows], *grads])
                assert vals.dtype == want_vals.dtype and J.shape == want_J.shape
                assert vals.tobytes() == want_vals.tobytes()
                assert J.tobytes() == want_J.tobytes()
                assert F.vals.tobytes() == cv.tobytes()


@pytest.mark.parametrize("ktext", ["5,1", "-5,1"])
def test_short_slope_fails_at_the_quadrature_step(ktext, fig8_problem, fig8_complete):
    """The (±5,1) path kinks near tau = 0.73: a sequential track at the
    quadrature step moves 0.44 and 0.59 there in single steps and yields a
    volume.  On the grid it ends in a FillingError that names the failed
    check, never in a volume."""
    with pytest.raises(FillingError, match="did not converge|fourth difference"):
        solve_filling(fig8_problem, fig8_complete, FillingCoefficients.parse(ktext, 1),
                      QUADRATURE_STEP)


def test_V_check_stops_track_and_grid_at_the_first_interior_sample(fig8_problem,
                                                                   fig8_complete,
                                                                   monkeypatch):
    """With `on_V` patched to report V everywhere, `track` and the quadrature
    grid both raise the same error at their first interior sample."""
    import charvol.continuation as continuation
    base = step_off_complete(fig8_problem, fig8_complete, [0.3])
    u0 = base.cusps[0].u - base.cusps[0].base_u
    family = pin_log(lambda tau: np.array([u0 + 0.1 * tau]))
    skeleton = track(fig8_problem, base, family)
    monkeypatch.setattr(continuation, "on_V", lambda *args, **kwargs: True)
    with pytest.raises(TrackingError, match=r"^path crossed V at tau=0\.020000$"):
        track(fig8_problem, base, family)
    with pytest.raises(TrackingError, match=r"^path crossed V at tau=0\.010000$"):
        continuation._grid_samples(fig8_problem, family, skeleton, 0.01)
    # a monodromy loop may cross V
    assert len(track(fig8_problem, base, family, allow_V_interior=True)) == len(skeleton)


def test_fourth_difference_rejects_a_shifted_sample():
    from charvol.continuation import _fourth_difference
    grid = np.linspace(0.01, 1.0, 991)
    coords = np.exp(1j * grid)[:, None] * np.array([1.0, 2.0, 0.5j])
    assert _fourth_difference(coords, grid) < 1e-10
    coords[500, 1] += 1e-4
    with pytest.raises(TrackingError, match="fourth difference 6.00e-04 .* tau=0.510000"):
        _fourth_difference(coords, grid)


def test_grid_path_statistics(fig8_fillings, wlink_fillings):
    """Every default filling keeps 992 samples, solved from a skeleton of
    track's adaptive steps; its statistics are recorded on the path."""
    for _, _, path in fig8_fillings + wlink_fillings:
        assert len(path) == 992
        stats = path.stats
        assert 20 <= stats["skeleton_samples"] < 40
        assert stats["skeleton_rejected"] == 0
        assert 1 <= stats["newton_iterations_max"] <= 3
        assert stats["fourth_difference_max"] < 1e-9 < FOURTH_DIFFERENCE_TOL
        assert np.allclose(np.diff(path.taus[1:]), QUADRATURE_STEP, rtol=0, atol=1e-12)


def test_whitehead_symmetry_in_volumes(wlink_spec, wlink_fillings):
    """The component-exchange symmetry makes (1,5;1,7) and (1,7;1,5)
    isometric fillings: equal volumes is a strong independent check."""
    vols = {}
    for ktext, pt, path in wlink_fillings[:2]:
        vols[ktext] = anchored_volume(wlink_spec, path).value
    assert abs(vols["1,5;1,7"] - vols["1,7;1,5"]) < 1e-7


def test_sample_dense_set_fig8(fig8_spec, fig8_problem, fig8_complete):
    kappas = [FillingCoefficients.parse(k, 1) for k in ("1,5", "1,7")]
    out = sample_dense_set(fig8_problem, fig8_complete, kappas, QUADRATURE_STEP)
    assert len(out) == 2
    assert all(f.error is None for f in out)
    vols = [anchored_volume(fig8_spec, f.path).value for f in out]
    assert vols[0] < vols[1] < fig8_spec.reference_volume.value


def test_sample_dense_set_empty():
    class P:  # no calls expected
        cusps = [None]
    assert sample_dense_set(P, None, []) == []


def test_sample_dense_set_wlink_cartesian(wlink_system, wlink_problem, wlink_complete):
    texts = ["1,5;1,5", "1,5;1,7", "1,7;1,5", "1,7;1,7", "2,5;inf"]
    out = sample_dense_set(wlink_problem, wlink_complete,
                           [FillingCoefficients.parse(k, 2) for k in texts])
    assert [f.kappa.label() for f in out] == texts
    assert all(f.error is None for f in out)
    # only the unfilled cusp of the last slope stays parabolic, which puts
    # its trace point on the image of U, where no degree claim applies
    assert [fiber_over(wlink_system, f.point.trace_vector(), [f.point], budget=4,
                       monodromy_loops=0).excluded for f in out] == \
        [False, False, False, False, True]


# -- fibers ------------------------------------------------------------------------

def test_fiber_over_filled_point_degree_one(fig8_system, fig8_fillings):
    _, pt, _ = fig8_fillings[0]
    report = fiber_over(fig8_system, pt.trace_vector(), [pt], budget=40,
                        seed=3, monodromy_loops=2)
    assert report.sl2_count == 1
    assert report.psl2_count == 1
    assert not report.inconclusive
    assert not report.excluded
    assert all(report.branch_ok)


def test_fiber_monodromy_loop_failure_is_counted(fig8_system, fig8_fillings,
                                                monkeypatch):
    """A monodromy loop that fails to track is counted, and the other loops
    still run."""
    import charvol.continuation as cont
    calls, loop = [], cont._monodromy_loop

    def first_fails(*args):
        calls.append(1)
        if len(calls) == 1:
            raise TrackingError("minimum step reached")
        return loop(*args)
    monkeypatch.setattr(cont, "_monodromy_loop", first_fails)
    _, pt, _ = fig8_fillings[0]
    report = fiber_over(fig8_system, pt.trace_vector(), [pt], budget=8,
                        seed=3, monodromy_loops=3)
    assert len(calls) == 3 and len(report.count_history) == 8 + 3
    assert report.monodromy_dropped == {"near_U": 0, "tracking_failed": 1}
    assert report.to_json()["monodromy_dropped"] == report.monodromy_dropped
    assert report.sl2_count == 1


def test_fiber_count_stable_under_budget_doubling(fig8_system, fig8_fillings):
    _, pt, _ = fig8_fillings[1]
    r1 = fiber_over(fig8_system, pt.trace_vector(), [pt], budget=30, seed=5,
                    monodromy_loops=0)
    r2 = fiber_over(fig8_system, pt.trace_vector(), [pt], budget=60, seed=17,
                    monodromy_loops=0)
    assert r1.sl2_count == r2.sl2_count == 1


def test_fiber_at_complete_is_excluded(fig8_system, fig8_complete):
    """The fiber over the complete structure's real traces holds it and its
    complex conjugate, which conjugation merges into one orbit: the only
    orbit merge that fig8 and wlink reach, since k = 0 leaves them no
    nontrivial sign twist."""
    report = fiber_over(fig8_system, fig8_complete.trace_vector(),
                        [fig8_complete], budget=20, seed=0, monodromy_loops=0)
    assert report.excluded
    assert "U" in report.excluded_reason or "branch" in report.excluded_reason
    assert (report.sl2_count, report.psl2_count) == (2, 1)
    assert report.orbits == [[0, 1]]
    assert report.twist_pairs == []


@pytest.mark.parametrize("name", ["fig8", "wlink"])
def test_twist_key_is_the_key_of_the_twisted_point(name, request):
    """`_twist_key`, which no shipped fiber reaches (k = 0 on fig8 and
    wlink), signs a point's key as `apply_twist` signs its coordinates:
    for every twist, the twisted key is the key of the twisted point."""
    problem = request.getfixturevalue(f"{name}_problem")
    _, pt, _ = request.getfixturevalue(f"{name}_fillings")[0]
    twists = enumerate_twists(problem.spec)
    assert len(twists) == {"fig8": 2, "wlink": 4}[name]
    key = problem.char_key(pt.coords)
    for tw in twists:
        twisted = apply_twist(pt, tw, problem)
        assert np.array_equal(_twist_key(problem, key, tw), problem.char_key(twisted.coords))


def test_fiber_wlink_degree_one_and_bound(wlink_spec, wlink_system, wlink_fillings):
    from charvol.manifold import h1_z2
    _, pt, _ = wlink_fillings[0]
    report = fiber_over(wlink_system, pt.trace_vector(), [pt], budget=30,
                        seed=11, monodromy_loops=0)
    z2 = h1_z2(wlink_spec)
    assert report.psl2_count == 1
    assert report.sl2_count <= report.psl2_count * z2.degree_bound


def _fiber_solve(system, pt, monkeypatch):
    """fiber_over's residual map and starts (budget 64, seed 0), read off
    its lockstep call."""
    import charvol.continuation as cont
    calls, kernel = [], cont.gauss_newton_lockstep

    def recording(F, starts, *args):
        calls.append((F, np.array(starts)))
        return kernel(F, starts, *args)
    monkeypatch.setattr(cont, "gauss_newton_lockstep", recording)
    fiber_over(system, pt.trace_vector(), [pt], budget=64, seed=0, monodromy_loops=0)
    (F, starts), = calls
    return F, starts


@pytest.mark.parametrize("name", ["fig8", "wlink"])
def test_lockstep_matches_gauss_newton_per_start(name, fig8_system, fig8_fillings,
                                                 wlink_system, wlink_fillings,
                                                 monkeypatch):
    """Each fiber start ends as gauss_newton ends it: the same outcome, the
    same number of steps and the same point to roundoff."""
    system, fillings = {"fig8": (fig8_system, fig8_fillings),
                        "wlink": (wlink_system, wlink_fillings)}[name]
    _, pt, _ = fillings[0]
    F, starts = _fiber_solve(system, pt, monkeypatch)
    xs, converged, iterations = gauss_newton_lockstep(F, starts, 1e-10, 40, 1e12)
    assert 0 < converged.sum() < len(starts)
    for x0, x, ok, its in zip(starts, xs, converged, iterations):
        steps = []

        def F1(y):
            steps.append(1)
            vals, J = F(y[None], [0])
            return vals[0], J[0]
        try:
            r = gauss_newton(F1, x0, 1e-10, 40, condition_limit=1e12)
        except ContinuationError:
            r = None
        assert ok == (r is not None)
        assert its == len(steps) - 1
        if r is not None:
            assert np.max(np.abs(r.x - x)) <= 1e-12


def test_point_on_U(fig8_complete, fig8_fillings):
    assert on_U(eigenvalues(fig8_complete), 1e-6)
    _, pt, _ = fig8_fillings[0]
    assert not on_U(eigenvalues(pt), 1e-3)


def test_fiber_empty_search_is_inconclusive(fig8_system, fig8_fillings):
    """A fiber search that finds nothing must never report a confident count."""
    _, pt, _ = fig8_fillings[0]
    rep = fiber_over(fig8_system, pt.trace_vector(), [], budget=6, seed=0,
                     monodromy_loops=0)
    if rep.sl2_count == 0:
        assert rep.inconclusive


def test_gauge_slice_full_rank_at_generic_points(fig8_system, fig8_fillings,
                                                 wlink_system, wlink_fillings):
    """The relator Jacobian has corank h at generic (filled) points; only the
    complete structure sits at the eigenvalue-branch node."""
    for system, fillings, h in ((fig8_system, fig8_fillings, 1),
                                (wlink_system, wlink_fillings, 2)):
        _, pt, _ = fillings[0]
        J = system.compiled.jacobian(pt.coords)[system.gauge_rows]
        sv = np.linalg.svd(J, compute_uv=False)
        rank = int(np.sum(sv > 1e-8))
        assert len(system.vars) - rank == h
