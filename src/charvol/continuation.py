"""Path tracking on the gauge slice with branch-consistent peripheral logs,
Dehn-filling continuation, and fiber counting over boundary-trace points.

Every path is one constraint family on all cusps, expressed through the
per-cusp log-eigenvalue coordinates u_i = log m_i, v_i = log l_i, continued
along the path.  Constraints use the sign-normalized logs u_i - u_i^0,
v_i - v_i^0 measured from the tracked point's lift reference (for paths
from the complete structure, its lift, where the eigenvalue of a peripheral
element may be -1).
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .locus import TOLERANCES as LOCUS_TOL, cusp_arrays, moved, near_U, on_V, traces
# the Newton kernel and its errors live in repvar and are re-exported here
from .repvar import (CharacterPoint, ContinuationError, DivergenceError, GaugedSystem,
                     NewtonResult, SignTwist, SingularJacobianError, TWO_PI_I,
                     enumerate_twists, gauss_newton, gauss_newton_lockstep,
                     make_character_point)

PI = cmath.pi


class TrackingError(ContinuationError):
    pass


class FillingError(ContinuationError):
    pass


# ---------------------------------------------------------------------------
# Newton correction
# ---------------------------------------------------------------------------

def newton_correct(F, start, tol: float = 1e-12, maxiter: int = 50,
                   condition_limit: float = 1e8) -> NewtonResult:
    """`gauss_newton` on F(x) -> (values, Jacobian), refusing a start whose
    Jacobian condition exceeds condition_limit.  Nothing in charvol calls it
    (`fiber_over` solves its starts with `gauss_newton_lockstep`); the
    benchmark resolves it by name."""
    return gauss_newton(F, start, tol, maxiter, condition_limit=condition_limit)


# ---------------------------------------------------------------------------
# constraints on the gauge slice
# ---------------------------------------------------------------------------

class ConstraintFamily:
    """p_i (u_i - u_i^0) + q_i (v_i - v_i^0) = target(tau)_i on every cusp i,
    in branch-lifted logs measured from the tracked point's lift reference
    (u_i^0, v_i^0).

    p and q are per-cusp sequences, or scalars shared by every cusp;
    target maps tau to a sequence of one value per cusp.  (p, q) = (1, 0)
    pins meridian logs; coprime (p, q) with target 2*pi*i*tau is a filling
    equation."""

    def __init__(self, p, q, target: Callable[[float], Sequence[complex]]):
        # a scalar coefficient repeats for every cusp it is zipped with
        self.p = p if np.ndim(p) else itertools.repeat(p)
        self.q = q if np.ndim(q) else itertools.repeat(q)
        self.target = target

    def coefficients(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """(p, q) as complex arrays over h cusps."""
        return (np.fromiter(itertools.islice(self.p, h), complex, h),
                np.fromiter(itertools.islice(self.q, h), complex, h))

    def residual(self, pt: CharacterPoint, tau: float) -> np.ndarray:
        """Per-cusp value of the family at a point's own logs."""
        return np.array([p * (c.u - c.base_u) + q * (c.v - c.base_v) - t for p, q, t, c
                         in zip(self.p, self.q, self.target(tau), pt.cusps)])


def pin_log(target: Callable[[float], Sequence[complex]]) -> ConstraintFamily:
    return ConstraintFamily(1.0, 0.0, target)


# the corrector of every tracked sample, quadrature grids included: Newton to
# a max-abs residual below CORRECT_TOL in at most CORRECT_MAXITER steps
CORRECT_TOL = 1e-11
CORRECT_MAXITER = 30


class DeformationProblem(GaugedSystem):
    """The gauged system of a spec, with the constraint families imposed on
    it along paths.  Logs are lifted from, and measured from the lift
    reference of, the tracked point passed as `prev`."""

    def _rows(self, prev: CharacterPoint, family: ConstraintFamily, tau):
        """F(x) -> (values, Jacobian): the gauge rows and the family's rows at
        tau, every row from one evaluation of the compiled system, whose row
        vector F keeps as `F.vals`."""
        g, ml = self.gauge_rows, self.ml_rows.start
        ng = g.stop - g.start
        # per cusp: its row of F, the compiled rows of its m and l, the
        # coefficients, the target and the lift to continue from
        terms = [(ng + i, ml + 2 * i, ml + 2 * i + 1, p, q, t, c) for i, (p, q, t, c)
                 in enumerate(zip(family.p, family.q, family.target(tau), prev.cusps))]
        shape = (ng + len(terms), len(self.vars))

        def F(x):
            vals, J = self.compiled.values_and_jacobian(x)
            F.vals = vals
            out, Jout = np.empty(shape[0], dtype=complex), np.empty(shape, dtype=complex)
            out[:ng], Jout[:ng] = vals[g], J[g]
            for k, im, il, p, q, t, c in terms:
                m, l = vals[im], vals[il]
                u, v = c.continued_logs(m, l)
                out[k] = p * (u - c.base_u) + q * (v - c.base_v) - t
                Jout[k] = p * J[im] / m + q * J[il] / l
            return out, Jout
        return F

    def _stacked_rows(self, refs: Sequence[CharacterPoint], before: np.ndarray,
                      p: np.ndarray, q: np.ndarray, targets: np.ndarray):
        """The stacked twin of `_rows`, for `gauss_newton_lockstep`: sample k
        imposes p_i (u_i - u_i^0) + q_i (v_i - v_i^0) = targets[k, i] on
        every cusp i and lifts its logs from refs[before[k]].  targets is a
        (k, h) array; p and q are (k, h) arrays of per-sample coefficients,
        or one (h,) row shared by every sample.  F(X, live) evaluates the
        samples `live` at the stack X from `gauge_and_slots`, the only
        compiled rows it reads."""
        p, q = (np.broadcast_to(c, targets.shape) for c in (p, q))
        u, v, ref_m, ref_l, base_u, base_v = (a[before] for a in cusp_arrays(
            refs, "u", "v", "m", "l", "base_u", "base_v"))
        # the rows at each sample's lift reference; F adds the log
        # increments from the reference
        offset = p * (u - base_u) + q * (v - base_v) - targets
        ng = self.gauge_rows.stop - self.gauge_rows.start

        def F(X, live):
            vals, J = self.gauge_and_slots.values_and_jacobian(X)
            m, l = vals[:, ng::2], vals[:, ng + 1::2]
            Jm, Jl = J[:, ng::2], J[:, ng + 1::2]
            pl, ql = p[live], q[live]
            rows = offset[live] + pl * np.log(m / ref_m[live]) + ql * np.log(l / ref_l[live])
            grads = pl[:, :, None] * Jm / m[:, :, None] + ql[:, :, None] * Jl / l[:, :, None]
            return (np.concatenate([vals[:, :ng], rows], axis=1),
                    np.concatenate([J[:, :ng], grads], axis=1))
        return F

    def correct(self, x0, prev: CharacterPoint, family: ConstraintFamily, tau,
                tol=CORRECT_TOL, maxiter=CORRECT_MAXITER):
        """Newton-correct x0 onto the gauge system plus the family at tau;
        returns (point or None, residual, converged), the point lifted from
        prev and built from the last Newton evaluation."""
        F = self._rows(prev, family, tau)
        try:
            r = gauss_newton(F, x0, tol, maxiter)
        except DivergenceError as e:
            return None, e.residual, False
        return (make_character_point(self, r.x, prev=prev, vals=F.vals),
                r.residual, True)

    def predict(self, points: Sequence[CharacterPoint], taus: Sequence[float], step):
        """Predicted coordinates at taus[-1] + step on the path through the
        accepted samples `points` at `taus`: the polynomial in tau through
        the last four samples (cubic once four exist, constant from one),
        evaluated in Lagrange form with no evaluation or solve."""
        nodes = taus[-4:]
        t = taus[-1] + step
        x = 0
        for j, (tj, pt) in enumerate(zip(nodes, points[-4:])):
            w = 1.0
            for k, tk in enumerate(nodes):
                if k != j:
                    w *= (t - tk) / (tj - tk)
            x = x + w * pt.coords
        return x


# ---------------------------------------------------------------------------
# tracked paths
# ---------------------------------------------------------------------------

@dataclass
class TrackedPath:
    points: list[CharacterPoint]
    taus: list[float]
    description: str = ""
    steps_rejected: int = 0
    # deterministic solver statistics of the path, for reports
    stats: dict = field(default_factory=dict)

    def endpoint(self) -> CharacterPoint:
        return self.points[-1]

    def __len__(self):
        return len(self.points)

    def export_csv(self, running_volume: Optional[Sequence[float]] = None) -> str:
        h = len(self.points[0].cusps)
        cols = ["t"]
        for i in range(1, h + 1):
            cols += [f"re_u{i}", f"im_u{i}", f"re_v{i}", f"im_v{i}"]
        cols.append("running_volume")
        lines = [",".join(cols)]
        for k, (tau, pt) in enumerate(zip(self.taus, self.points)):
            row = [repr(tau)]
            for c in pt.cusps:
                row += [repr(c.u.real), repr(c.u.imag), repr(c.v.real), repr(c.v.imag)]
            row.append(repr(float(running_volume[k])) if running_volume is not None else "")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _branch_jump(old: CharacterPoint, new: CharacterPoint) -> Optional[str]:
    """The branch check of one step: None when every log increment stays
    below pi/2 in imaginary part, else which one reached it."""
    for i, (a, b) in enumerate(zip(old.cusps, new.cusps), 1):
        for name, d in (("u", b.u - a.u), ("v", b.v - a.v)):
            if abs(d.imag) >= PI / 2:
                return f"the branch check (cusp {i}, log {name}, increment {d:.3g})"
    return None


def _check_off_V(pt: CharacterPoint, tau: float) -> None:
    """The V check of an interior sample: raises TrackingError when a cusp
    that has deformed away from its base lift has returned to parabolic
    traces.  Cusps pinned at the complete structure are harmless."""
    if on_V(traces(pt), moving=[moved(c) for c in pt.cusps]):
        raise TrackingError(f"path crossed V at tau={tau:.6f}")


class _Walk:
    """One path under `track`'s adaptive steps: its accepted samples, its
    tau and step, and the step rule that every tracker applies to each
    corrected step (`settle`)."""

    def __init__(self, start: CharacterPoint, tau0: float, first_step: float,
                 max_step: float, min_step: float = 1e-7, allow_V_interior: bool = False):
        self.points, self.taus = [start], [tau0]
        self.tau, self.dtau = tau0, min(first_step, 1.0 - tau0)
        self.rejected = 0
        self.max_step, self.min_step = max_step, min_step
        self.allow_V_interior = allow_V_interior

    def running(self) -> bool:
        return 1.0 - self.tau > 1e-14

    def next_step(self) -> float:
        """The length of the next step, which ends at tau = 1 at the latest;
        raises TrackingError once the path holds more than 20000 samples."""
        if len(self.points) > 20000:
            raise TrackingError("sample budget exceeded")
        step = self.dtau
        if self.tau + step > 1.0:
            step = 1.0 - self.tau
        return step

    def settle(self, step: float, new_pt: Optional[CharacterPoint], converged: bool,
               residual: float) -> None:
        """Accept or reject the corrected step of length `step`.  A step whose
        Newton correction failed (with max-abs `residual`) or whose log
        increments reach pi/2 (`_branch_jump`) is rejected and halves the
        step; TrackingError once the step falls below min_step.  An accepted
        sample before tau = 1 must pass the V check, unless the path may
        cross V, and each accepted step grows the step by 1.5 up to
        max_step."""
        cause = _branch_jump(self.points[-1], new_pt) if converged else \
            f"Newton (residual {residual:.2e})"
        if cause:
            self.rejected += 1
            self.dtau *= 0.5
            if self.dtau < self.min_step:
                raise TrackingError(f"minimum step reached at tau={self.tau:.6f}; "
                                    f"the last step was rejected by {cause}")
            return
        tau = self.tau + step
        if abs(tau - 1.0) > 1e-14 and not self.allow_V_interior:
            _check_off_V(new_pt, tau)
        self.tau = tau
        self.points.append(new_pt)
        self.taus.append(tau)
        self.dtau = min(1.5 * self.dtau, self.max_step)

    def path(self, description: str = "") -> TrackedPath:
        return TrackedPath(points=self.points, taus=self.taus, description=description,
                           steps_rejected=self.rejected)


# the fewest live members that `_walk_together` corrects in one stack; a
# smaller stack costs more than correcting its members one at a time
# (stacked windings of 3 or 4 fig8 loops took 1.12-1.35 times as long)
STACK_MIN = 5


def _correct_together(problem: DeformationProblem, X: np.ndarray,
                      refs: Sequence[CharacterPoint], p: np.ndarray, q: np.ndarray,
                      targets: np.ndarray) -> list[tuple]:
    """`DeformationProblem.correct` of each start X[k] onto its own rows
    (p[k], q[k], targets[k]; `_stacked_rows`), lifted from refs[k], in one
    `gauss_newton_lockstep` call with the same tolerance and budget.  Per
    start: (point or None, residual, converged), the points built from one
    stacked `compiled.values` call and a failed start's residual read at its
    last iterate (inf when not finite, as `gauss_newton` reports it)."""
    F = problem._stacked_rows(refs, np.arange(len(refs)), p, q, targets)
    xs, converged, _ = gauss_newton_lockstep(F, X, CORRECT_TOL, CORRECT_MAXITER)
    vals = iter(problem.compiled.values(xs[converged]))
    residuals = np.zeros(len(refs))
    failed = np.flatnonzero(~converged)
    if len(failed):
        res = np.abs(F(xs[failed], failed)[0]).max(axis=1, initial=0.0)
        residuals[failed] = np.where(np.isfinite(res), res, np.inf)
    return [(make_character_point(problem, x, prev=ref, vals=next(vals)) if ok else None, r, ok)
            for x, ref, r, ok in zip(xs, refs, residuals, converged)]


def _walk_together(problem: DeformationProblem, walks: Sequence[_Walk],
                   families: Sequence[ConstraintFamily]) -> list:
    """Advance each walk along its family to tau = 1 in rounds.  A round
    predicts every live member's next sample from its own samples and
    corrects them together (`_correct_together`) when at least STACK_MIN
    are live, else each with `DeformationProblem.correct`; `_Walk.settle`
    then decides each member's step.  Returns one result per walk, in
    order: its TrackedPath, or the TrackingError that ended it alone."""
    h = len(problem.cusps)
    coefficients = [family.coefficients(h) for family in families]
    p, q = (np.array([c[k] for c in coefficients]).reshape(len(families), h) for k in (0, 1))
    errors: list = [None] * len(walks)
    live = [k for k, walk in enumerate(walks) if walk.running()]
    while live:
        members = []
        for k in live:
            walk = walks[k]
            try:
                step = walk.next_step()
            except TrackingError as e:
                errors[k] = e
                continue
            members.append((k, walk, step, problem.predict(walk.points, walk.taus, step)))
        stacked = None
        if len(members) >= STACK_MIN:
            ks = [k for k, _, _, _ in members]
            stacked = iter(_correct_together(
                problem, np.array([x for _, _, _, x in members]),
                [walk.points[-1] for _, walk, _, _ in members], p[ks], q[ks],
                np.array([families[k].target(walk.tau + step) for k, walk, step, _ in members],
                         dtype=complex)))
        live = []
        for k, walk, step, x in members:
            new_pt, res, converged = next(stacked) if stacked else \
                problem.correct(x, walk.points[-1], families[k], walk.tau + step)
            try:
                walk.settle(step, new_pt, converged, res)
            except TrackingError as e:
                errors[k] = e
                continue
            if walk.running():
                live.append(k)
    return [walk.path() if e is None else e for walk, e in zip(walks, errors)]


def track(problem: DeformationProblem, start: CharacterPoint,
          family: ConstraintFamily, tau0: float = 0.0,
          first_step: float = 0.02, max_step: float = 0.05, min_step: float = 1e-7,
          description: str = "", allow_V_interior: bool = False) -> TrackedPath:
    """Adaptive predictor-corrector tracking of the constraint family from
    tau0 up to tau = 1, as the one walk of `_walk_together`.  Each step is
    predicted from the path's own accepted samples and corrected by Newton
    (`DeformationProblem.correct`).  Every accepted sample satisfies
    `correct`'s residual tolerance; branch continuity is enforced by
    rejecting steps whose log increments reach pi/2 in imaginary part.  A
    rejection halves the step, and each accepted step grows it by 1.5 up to
    max_step: no step is longer than max_step (`_Walk.settle`)."""
    walk = _Walk(start, tau0, first_step, max_step, min_step, allow_V_interior)
    path, = _walk_together(problem, [walk], [family])
    if isinstance(path, TrackingError):
        raise path
    path.description = description
    return path


# ---------------------------------------------------------------------------
# stepping off the complete structure
# ---------------------------------------------------------------------------

def step_off_complete(problem: DeformationProblem, complete: CharacterPoint,
                      du: Sequence[complex], tol: float = 1e-12) -> CharacterPoint:
    """Solve the gauge system with every cusp's normalized meridian log pinned
    to the given offsets, seeding the eigenvalue slots directly.  This is the
    transversal way past the branch point of the trace coordinates at the
    complete structure."""
    x0 = np.array(complete.coords, dtype=complex)
    for i, cf in enumerate(problem.cusps):
        index, power = cf.meridian_slot
        x0[index] *= cmath.exp(du[i] / power)
    pt, res, ok = problem.correct(x0, complete, pin_log(lambda tau: du), 0.0, tol=tol)
    if not ok:
        raise TrackingError(f"could not step off the complete structure (residual {res:.2e})")
    return pt


def cusp_shape_matrix(problem: DeformationProblem, complete: CharacterPoint) -> np.ndarray:
    """tau[i][j] ~ d v_i / d u_j at the complete structure, by one-sided
    differences of the pinned deformation at offsets 0.01."""
    h = len(problem.cusps)
    M = np.zeros((h, h), dtype=complex)
    for j in range(h):
        du = [0j] * h
        du[j] = 1e-2
        pt = step_off_complete(problem, complete, du)
        for i in range(h):
            M[i, j] = (pt.cusps[i].v - complete.cusps[i].v) / 1e-2
    return M


# ---------------------------------------------------------------------------
# Dehn filling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FillingCoefficients:
    """Per cusp: coprime (p, q) or None for an unfilled cusp."""
    slopes: tuple[Optional[tuple[int, int]], ...]

    def __post_init__(self):
        import math
        for s in self.slopes:
            if s is None:
                continue
            p, q = s
            if math.gcd(p, q) != 1:
                raise ValueError(f"filling coefficients {s} are not coprime")

    @staticmethod
    def parse(text: str, cusp_count: int) -> "FillingCoefficients":
        """One slope per cusp, separated by ';': integers 'p,q', or 'inf' for
        an unfilled cusp, as in '1,5' or '1,5;inf'.  Malformed text raises a
        ValueError that quotes it."""
        def malformed(why: str) -> ValueError:
            return ValueError(f"filling coefficients {text!r}: {why}; expected p,q or inf "
                              f"for each of {cusp_count} cusp(s), separated by ';'")
        parts = [p.strip() for p in text.split(";")]
        if len(parts) != cusp_count:
            raise malformed(f"{len(parts)} slope(s)")
        slopes = []
        for p in parts:
            if p == "inf":
                slopes.append(None)
                continue
            try:
                a, b = p.split(",")
                slopes.append((int(a), int(b)))
            except ValueError:
                raise malformed(f"{p!r} is not p,q") from None
        return FillingCoefficients(tuple(slopes))

    def label(self) -> str:
        return ";".join("inf" if s is None else f"{s[0]},{s[1]}" for s in self.slopes)


# the grid step of a filling path that a volume is integrated along: 992
# samples.  Its Richardson estimate is below cli.QUADRATURE_TOL on the
# default slopes, not on every slope: tracked one sample at a time at this
# step, fig8 (5,1) read 2.3e-6.
QUADRATURE_STEP = 0.001

# the largest fourth difference of a filling path's gauge coordinates on its
# quadrature grid.  The default slopes read below 1e-10.  A larger one marks
# a kinked path, a skeleton that jumped sheets or an ill-conditioned end:
# fig8 (3,1), whose filled point has a gauge singular value of 6e-6, reads
# 1.8e-6 at its last samples.
FOURTH_DIFFERENCE_TOL = 1e-6


def solve_filling(problem: DeformationProblem, complete: CharacterPoint,
                  kappa: FillingCoefficients, step: Optional[float] = None,
                  shapes: Optional[np.ndarray] = None) -> tuple[CharacterPoint, TrackedPath]:
    """Continue from the complete structure to the solution of the log-form
    filling equations p_i u_i + q_i v_i = 2 pi i at filled cusps, keeping
    unfilled cusps parabolic.  The path is tracked at `track`'s adaptive
    steps.  With a `step` (a caller that integrates a volume along the path
    passes QUADRATURE_STEP), that track is the skeleton of the path that
    `_grid_samples` returns, on the uniform grid of `step`.  `shapes` is
    `cusp_shape_matrix(problem, complete)` when the caller has it."""
    h = len(problem.cusps)
    if len(kappa.slopes) != h:
        raise FillingError(f"kappa has {len(kappa.slopes)} entries for {h} cusps")
    filled = [i for i, s in enumerate(kappa.slopes) if s is not None]
    if not filled:
        path = TrackedPath(points=[complete], taus=[0.0],
                           description=f"trivial filling of {problem.spec.name}")
        return complete, path

    # unfilled cusps stay pinned: (p, q) = (1, 0) with target 0
    family = ConstraintFamily([1 if s is None else s[0] for s in kappa.slopes],
                              [0 if s is None else s[1] for s in kappa.slopes],
                              lambda tau: [0j if s is None else TWO_PI_I * tau
                                           for s in kappa.slopes])
    tau_start = 0.01

    if shapes is None:
        shapes = cusp_shape_matrix(problem, complete)
    # asymptotic first point: p_i u_i + q_i sum_j tau_ij u_j = 2 pi i tau_start
    A = np.zeros((len(filled), len(filled)), dtype=complex)
    rhs = np.array(family.target(tau_start))[filled]
    for a, i in enumerate(filled):
        p, q = kappa.slopes[i]
        for b, j in enumerate(filled):
            A[a, b] = q * shapes[i, j] + (p if i == j else 0)
    du_f = np.linalg.solve(A, rhs)
    du = [0j] * h
    for a, i in enumerate(filled):
        du[i] = du_f[a]

    try:
        start_pt = step_off_complete(problem, complete, du)
    except TrackingError as e:
        raise FillingError(f"kappa={kappa.label()}: {e}") from e

    # settle the asymptotic seed exactly onto the constraint family at tau_start
    start_pt, res, ok = problem.correct(start_pt.coords, start_pt, family, tau_start)
    if not ok:
        raise FillingError(f"kappa={kappa.label()}: start correction failed ({res:.2e})")
    try:
        path = track(problem, start_pt, family, tau0=tau_start,
                     description=f"filling {kappa.label()} of {problem.spec.name}")
        if step is not None:
            path = _grid_samples(problem, family, path, step)
    except TrackingError as e:
        raise FillingError(f"kappa={kappa.label()}: {e}") from e

    end = path.endpoint()
    resid = np.abs(family.residual(end, 1.0))
    for i in filled:
        if resid[i] >= 1e-9:
            raise FillingError(f"kappa={kappa.label()}: filling residual {resid[i]:.2e}")
    for i, s in enumerate(kappa.slopes):
        if s is None and resid[i] >= 1e-9:
            raise FillingError(f"kappa={kappa.label()}: unfilled cusp {i + 1} drifted")

    full_path = TrackedPath(points=[complete] + path.points, taus=[0.0] + path.taus,
                            description=path.description,
                            steps_rejected=path.steps_rejected, stats=path.stats)
    end.label = f"filled:{problem.spec.name}:{kappa.label()}"
    return end, full_path


def _cubic_interpolant(taus: np.ndarray, coords: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Coordinates at the parameters `at` on the cubic in tau through the
    four samples (taus, coords) around each, in Lagrange form; needs at
    least four samples."""
    k = np.searchsorted(taus, at, side="right") - 1
    nodes = np.clip(k - 1, 0, len(taus) - 4)[:, None] + np.arange(4)
    tn = taus[nodes]
    x = 0
    for j in range(4):
        w = 1.0
        for i in range(4):
            if i != j:
                w = w * (at - tn[:, i]) / (tn[:, j] - tn[:, i])
        x = x + w[:, None] * coords[nodes[:, j]]
    return x


def _fourth_difference(coords: np.ndarray, taus: Sequence[float]) -> float:
    """The largest fourth difference of the coordinate rows `coords` of
    samples at the uniformly spaced `taus`; raises TrackingError when it
    reaches FOURTH_DIFFERENCE_TOL."""
    d4 = np.abs(np.diff(coords, 4, axis=0)).max(axis=1)
    worst = int(np.argmax(d4))
    if not d4[worst] < FOURTH_DIFFERENCE_TOL:
        raise TrackingError(f"fourth difference {d4[worst]:.2e} of the quadrature samples "
                            f"at tau={taus[worst + 2]:.6f} reaches "
                            f"FOURTH_DIFFERENCE_TOL {FOURTH_DIFFERENCE_TOL:.0e}")
    return float(d4[worst])


def _grid_samples(problem: DeformationProblem, family: ConstraintFamily,
                  skeleton: TrackedPath, step: float) -> TrackedPath:
    """The path of the tracked `skeleton` on the uniform grid of `step` over
    the skeleton's tau range.  Every grid sample after the first is solved
    in one `gauss_newton_lockstep` call with `track`'s corrector budget,
    started from the skeleton's cubic interpolant, with its logs
    lifted from the skeleton sample before it.  The samples are then lifted
    in order, from the compiled row vectors of one stacked `values` call,
    and checked as `track` checks its own: the branch check and, before the
    end, the V check.

    Raises TrackingError on a sample that does not converge, on a largest
    fourth difference of the coordinates of FOURTH_DIFFERENCE_TOL or more
    (a kinked path, or a skeleton that jumped sheets, whose interpolant the
    grid follows), and on a failed check."""
    taus = np.asarray(skeleton.taus)
    coords = np.array([pt.coords for pt in skeleton.points])
    grid = np.linspace(taus[0], taus[-1], round((taus[-1] - taus[0]) / step) + 1)
    at = grid[1:]
    before = np.clip(np.searchsorted(taus, at, side="right") - 1, 0, len(taus) - 2)
    targets = np.array([family.target(t) for t in at], dtype=complex)
    F = problem._stacked_rows(skeleton.points, before,
                              *family.coefficients(len(problem.cusps)), targets)
    xs, converged, iterations = gauss_newton_lockstep(
        F, _cubic_interpolant(taus, coords, at), CORRECT_TOL, CORRECT_MAXITER)
    if not converged.all():
        bad = np.flatnonzero(~converged)
        raise TrackingError(f"{len(bad)} of {len(at)} quadrature samples did not "
                            f"converge, the first at tau={at[bad[0]]:.6f}")
    d4 = _fourth_difference(np.vstack([coords[:1], xs]), grid)
    pt = skeleton.points[0]
    points = [pt]
    for k, (tau, x, vals) in enumerate(zip(at, xs, problem.compiled.values(xs))):
        new_pt = make_character_point(problem, x, prev=pt, vals=vals)
        cause = _branch_jump(pt, new_pt)
        if cause:
            raise TrackingError(f"the quadrature sample at tau={tau:.6f} fails {cause}")
        if k < len(at) - 1:
            _check_off_V(new_pt, tau)
        points.append(new_pt)
        pt = new_pt
    stats = {"skeleton_samples": len(skeleton), "skeleton_rejected": skeleton.steps_rejected,
             "newton_iterations_max": int(iterations.max()), "fourth_difference_max": d4}
    return TrackedPath(points=points, taus=grid.tolist(), description=skeleton.description,
                       steps_rejected=skeleton.steps_rejected, stats=stats)


@dataclass
class FilledCharacter:
    kappa: FillingCoefficients
    point: Optional[CharacterPoint]
    path: Optional[TrackedPath]
    error: Optional[str] = None


def sample_dense_set(problem: DeformationProblem, complete: CharacterPoint,
                     kappas: Sequence[FillingCoefficients],
                     step: Optional[float] = None) -> list[FilledCharacter]:
    """Filled characters chi_kappa for the given slopes, each path tracked as
    `solve_filling` tracks it at `step`: a finite sample of the
    Zariski-dense filled set.  A filling that fails is recorded with its
    error.  The cusp-shape matrix is computed once, at the first slope that
    fills a cusp, for every slope."""
    out, shapes = [], None
    for kappa in kappas:
        try:
            if shapes is None and any(s is not None for s in kappa.slopes):
                shapes = cusp_shape_matrix(problem, complete)
            pt, path = solve_filling(problem, complete, kappa, step, shapes)
            out.append(FilledCharacter(kappa, pt, path))
        except ContinuationError as e:
            out.append(FilledCharacter(kappa, None, None, error=str(e)))
    return out


# ---------------------------------------------------------------------------
# fibers of the restriction map
# ---------------------------------------------------------------------------

@dataclass
class FiberReport:
    z: np.ndarray
    points: list[CharacterPoint]
    twist_pairs: list[tuple[int, int, tuple[int, ...]]]
    orbits: list[list[int]]
    sl2_count: int
    psl2_count: int
    inconclusive: bool
    excluded: bool
    excluded_reason: str
    branch_ok: list[bool]
    count_history: list[int]
    seed: int
    budget: int
    # monodromy loops dropped, by reason
    monodromy_dropped: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        c = lambda zz: [zz.real, zz.imag]
        return {
            "z": [c(v) for v in self.z],
            "sl2_count": self.sl2_count,
            "psl2_count": self.psl2_count,
            "inconclusive": self.inconclusive,
            "excluded": self.excluded,
            "excluded_reason": self.excluded_reason,
            "twist_pairs": [[i, j, list(e)] for i, j, e in self.twist_pairs],
            "orbits": self.orbits,
            "branch_full_rank": self.branch_ok,
            "count_history": self.count_history,
            "seed": self.seed,
            "budget": self.budget,
            "monodromy_dropped": self.monodromy_dropped,
            "points": [p.to_json() for p in self.points],
        }


def _char_distance(k1: np.ndarray, k2: np.ndarray) -> float:
    return float(np.max(np.abs(k1 - k2)))


# the smallest singular value of the boundary-trace map on the slice tangent
# space at which the map has full rank
RANK_TOL = 1e-6


def restriction_rank_ok(system: GaugedSystem, coords) -> bool:
    """Full-rank test of the boundary-trace map on the slice tangent space."""
    J = system.compiled.jacobian(coords)
    M = J[system.trace_rows] @ system.tangent_basis(J)
    if M.size == 0:
        return False
    sv = np.linalg.svd(M, compute_uv=False)
    h = len(system.cusps)
    return len(sv) >= h and bool(sv[min(h, len(sv)) - 1] > RANK_TOL)


# the largest character-key distance at which two fiber points are one
# character, a sign twist or a complex conjugate of each other
DEDUP_TOL = 1e-6


def fiber_over(problem: DeformationProblem, z: np.ndarray,
               seeds: Sequence[CharacterPoint], budget: int = 64,
               seed: int = 0, monodromy_loops: int = 4) -> FiberReport:
    """All gauge-slice solutions with boundary traces z found within budget,
    deduplicated as characters and classified into sign-twist orbits; the
    monodromy loops track on `problem` itself.

    The count stability protocol records the running number of distinct
    characters; a count still moving in the last quarter of the budget marks
    the report inconclusive."""
    z = np.asarray(z, dtype=complex)
    rng = np.random.default_rng(seed)
    ng = problem.gauge_rows.stop - problem.gauge_rows.start

    def F(X, live):
        vals, J = problem.gauge_and_traces.values_and_jacobian(X)
        vals[:, ng:] -= z
        return vals, J
    seed_coords = [np.asarray(s.coords, dtype=complex) for s in seeds]
    scale = max((float(np.max(np.abs(c))) for c in seed_coords), default=1.0)

    points: list[CharacterPoint] = []
    keys: list[np.ndarray] = []
    history: list[int] = []

    def register(x, vals=None) -> bool:
        """Keep x unless its character is known; vals is the compiled row
        vector at x when it has been evaluated."""
        if vals is None:
            vals = problem.compiled.values(x)
        key = vals[problem.key_rows]
        for k in keys:
            if _char_distance(key, k) < DEDUP_TOL:
                return False
        points.append(make_character_point(problem, x, label="fiber", vals=vals))
        keys.append(key)
        return True

    # all starts are drawn before any is solved (no draw depends on a Newton
    # outcome), in attempt order, and registered in attempt order
    n = len(problem.vars)
    starts = np.empty((budget, n), dtype=complex)
    for attempt in range(1, budget + 1):
        if seed_coords and attempt <= len(seed_coords):
            x0 = seed_coords[attempt - 1]
        elif seed_coords and rng.uniform() < 0.7:
            base = seed_coords[rng.integers(len(seed_coords))]
            sigma = 10.0 ** rng.uniform(-2, 0.3)
            x0 = base + sigma * (rng.normal(size=base.shape) + 1j * rng.normal(size=base.shape))
        else:
            x0 = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        starts[attempt - 1] = x0
    xs, converged, _ = gauss_newton_lockstep(F, starts, 1e-10, 40, 1e12)
    # the compiled rows at every converged start, from one stacked evaluation
    found = zip(xs[converged], problem.compiled.values(xs[converged]))
    for hit in converged:
        if hit:
            register(*next(found))
        history.append(len(points))

    # monodromy loops around the meridian-log coordinates, filtered by z-return
    dropped = {"near_U": 0, "tracking_failed": 0}
    if points:
        for _ in range(monodromy_loops):
            try:
                if not _monodromy_loop(problem, points, z, rng, register):
                    dropped["near_U"] += 1
            except ContinuationError:
                dropped["tracking_failed"] += 1
            history.append(len(points))

    quarter = max(1, len(history) // 4)
    inconclusive = (not points) or \
        (len(history) >= 4 and history[-1] != history[-quarter])
    excluded = False
    reason = ""
    # z holds (I_M, I_L, I_ML) per cusp
    if on_V(zip(z[0::3], z[1::3]), LOCUS_TOL["near"]):
        excluded = True
        reason = "z lies on the image of U (some cusp trace pair at +-2); degree claims do not apply"
    branch_ok = [restriction_rank_ok(problem, p.coords) for p in points]
    if points and not all(branch_ok):
        excluded = True
        reason = (reason + "; " if reason else "") + \
            "restriction map rank-deficient at a fiber point (branch locus)"

    twists = enumerate_twists(problem.spec)
    twist_pairs = []
    parent = list(range(len(points)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            for tw in twists:
                if tw.is_trivial():
                    continue
                twisted = _twist_key(problem, keys[i], tw)
                if _char_distance(twisted, keys[j]) < DEDUP_TOL:
                    twist_pairs.append((i, j, tw.epsilon))
                    parent[find(i)] = find(j)
                    break
    z_real = bool(np.max(np.abs(z.imag)) < 1e-9) if len(z) else True
    if z_real:
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if _char_distance(np.conj(keys[i]), keys[j]) < DEDUP_TOL:
                    parent[find(i)] = find(j)
    orbit_map: dict[int, list[int]] = {}
    for i in range(len(points)):
        orbit_map.setdefault(find(i), []).append(i)
    orbits = sorted(orbit_map.values())
    return FiberReport(
        z=z, points=points, twist_pairs=twist_pairs, orbits=orbits,
        sl2_count=len(points), psl2_count=len(orbits),
        inconclusive=inconclusive, excluded=excluded, excluded_reason=reason,
        branch_ok=branch_ok, count_history=history, seed=seed, budget=budget,
        monodromy_dropped=dropped)


def _twist_key(system: GaugedSystem, key: np.ndarray, tw: SignTwist) -> np.ndarray:
    signs = np.array([tw.on_word(w) for w in system.key_words], dtype=complex)
    return key * signs


def random_log_loop_targets(base: CharacterPoint, rng,
                            radius=(0.05, 0.25)) -> ConstraintFamily:
    """Per-cusp closed elliptical curves in normalized u-coordinates, passing
    through the base point's logs at tau = 0 and 1."""
    h = len(base.cusps)
    r1 = rng.uniform(*radius, size=h)
    r2 = rng.uniform(*radius, size=h)
    phase = rng.uniform(0, 2 * PI, size=h)
    terms = [(c.u - c.base_u, a, b, ph) for c, a, b, ph in zip(base.cusps, r1, r2, phase)]

    def target(tau):
        return [c0 + a * (cmath.cos(2 * PI * tau + ph) - cmath.cos(ph)) +
                1j * b * (cmath.sin(2 * PI * tau + ph) - cmath.sin(ph))
                for c0, a, b, ph in terms]
    return pin_log(target)


def concatenate_paths(a: TrackedPath, b: TrackedPath) -> TrackedPath:
    """Join two paths where b starts at a's endpoint."""
    shift = a.taus[-1]
    return TrackedPath(points=list(a.points) + list(b.points[1:]),
                       taus=list(a.taus) + [shift + t - b.taus[0] for t in b.taus[1:]],
                       description=a.description,
                       steps_rejected=a.steps_rejected + b.steps_rejected)


# the largest eigenvalue-coordinate gap at which a tracked loop is closed
CLOSURE_TOL = 1e-9


def closure_gap(a: CharacterPoint, b: CharacterPoint) -> float:
    """max(|dm|, |dl|) over the cusps: a closed loop's ends are within CLOSURE_TOL."""
    return max(max(abs(ca.m - cb.m), abs(ca.l - cb.l)) for ca, cb in zip(a.cusps, b.cusps))


def track_closed_loops(problem: DeformationProblem, base: CharacterPoint,
                       families: Sequence[ConstraintFamily], first_step: float,
                       max_step: float) -> list:
    """Track each family's loop from base at `track`'s steps until the
    eigenvalue coordinates close up (`closure_gap` below CLOSURE_TOL).

    A loop in the meridian logs may permute the finitely many sheets of the
    eigenvalue variety over it; winding the same loop again, at most twice
    more, closes any order-two monodromy.  Each winding is one
    `_walk_together` call over the members not yet closed, each from its
    endpoint.  Returns one result per family, in order: the closed
    TrackedPath, or the TrackingError that ended that member alone."""
    loops: list = [None] * len(families)
    pending = list(range(len(families)))
    for winding in range(3):
        walks = [_Walk(base if winding == 0 else loops[k].endpoint(), 0.0, first_step, max_step)
                 for k in pending]
        walked = _walk_together(problem, walks, [families[k] for k in pending])
        still = []
        for k, path in zip(pending, walked):
            if isinstance(path, TrackingError):
                loops[k] = path
                continue
            loops[k] = path = concatenate_paths(loops[k], path) if winding else path
            gap = closure_gap(base, path.endpoint())
            if gap >= CLOSURE_TOL and winding < 2:
                still.append(k)
            elif gap >= CLOSURE_TOL:
                loops[k] = TrackingError(f"loop failed to close after 2 windings (gap {gap:.2e})")
        pending = still
    return loops


def track_closed_loop(problem: DeformationProblem, base: CharacterPoint,
                      family: ConstraintFamily, first_step: float,
                      max_step: float) -> TrackedPath:
    """`track_closed_loops` of one family: its closed loop, or raises the
    TrackingError that ended it."""
    loop, = track_closed_loops(problem, base, [family], first_step, max_step)
    if isinstance(loop, TrackingError):
        raise loop
    return loop


def _monodromy_loop(problem, points, z, rng, register):
    """Track a random u-coordinate ellipse from a random known fiber point;
    keep the endpoint only if its full trace vector returns to z.  Returns
    False for a loop that passes near U, which is not a legal monodromy
    loop."""
    base = points[int(rng.integers(len(points)))]
    path = track(problem, base, random_log_loop_targets(base, rng),
                 first_step=0.05, max_step=0.05 * 1.5 * 1.5,  # steps 0.05, 0.075, 0.1125
                 description="monodromy loop", allow_V_interior=True)
    if near_U(path.points):
        return False
    end = path.endpoint()
    if np.max(np.abs(end.trace_vector() - z)) < 1e-7:
        register(end.coords)
    return True
