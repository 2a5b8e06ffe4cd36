import copy

import numpy as np
import pytest

from charvol.continuation import (ContinuationError, DivergenceError,
                                  FillingCoefficients, SingularJacobianError,
                                  TrackingError, fiber_over, jacobian_check,
                                  newton_correct, pin_log,
                                  sample_dense_set, solve_filling,
                                  step_off_complete, track)
from charvol.locus import eigenvalues, on_U, on_V, traces
from charvol.poly import CompiledSystem
from charvol.repvar import SignTwist, apply_twist, gauss_newton, gauss_newton_lockstep
from charvol.volume import anchored_volume

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


def test_predict_keeps_an_exactness_loop_to_one_newton_step(fig8_spec, fig8_problem,
                                                           fig8_complete, monkeypatch):
    """On a fig8 exactness loop at step 0.004, the extrapolating predictor
    leaves Newton about one step per sample (the tangent predictor needed
    two, with three least-squares solves per sample)."""
    import charvol.continuation as cont
    from charvol.cli import _generic_base_point
    from charvol.continuation import random_log_loop_targets
    base = _generic_base_point(fig8_spec, fig8_problem, fig8_complete)
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
    x = sample_point(fig8_extended, pt)
    point = np.concatenate([pt.coords, x.values])
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


def test_track_never_steps_past_max_step(wlink_spec, wlink_problem, wlink_complete,
                                         monkeypatch):
    """After a rejection the step regrows by 1.5 per accepted step up to
    max_step and no further: rejecting the third step of the first
    default_rng(1000) exactness loop at 1/64 leaves every tau increment at
    most 1/64 (0.5, 0.75, then 1 x 1/64)."""
    import charvol.continuation as continuation
    from charvol.cli import _generic_base_point
    from charvol.continuation import random_log_loop_targets
    base = _generic_base_point(wlink_spec, wlink_problem, wlink_complete)
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


def test_whitehead_symmetry_in_volumes(wlink_spec, wlink_fillings):
    """The component-exchange symmetry makes (1,5;1,7) and (1,7;1,5)
    isometric fillings: equal volumes is a strong independent check."""
    vols = {}
    for ktext, pt, path in wlink_fillings[:2]:
        vols[ktext] = anchored_volume(wlink_spec, path).value
    assert abs(vols["1,5;1,7"] - vols["1,7;1,5"]) < 1e-7


def test_sample_dense_set_fig8(fig8_spec, fig8_problem, fig8_complete):
    kappas = [FillingCoefficients.parse(k, 1) for k in ("1,5", "1,7")]
    out = sample_dense_set(fig8_problem, fig8_complete, kappas)
    assert len(out) == 2
    assert all(f.error is None for f in out)
    vols = [anchored_volume(fig8_spec, f.path).value for f in out]
    assert vols[0] < vols[1] < fig8_spec.reference_volume.value


def test_sample_dense_set_empty():
    class P:  # no calls expected
        class system:
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
    report = fiber_over(fig8_system, fig8_complete.trace_vector(),
                        [fig8_complete], budget=20, seed=0, monodromy_loops=0)
    assert report.excluded
    assert "U" in report.excluded_reason or "branch" in report.excluded_reason


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
            vals, J = F(y[None])
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
