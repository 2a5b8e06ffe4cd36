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

from .locus import TOLERANCES as LOCUS_TOL, eigenvalues, moved, on_U, on_V, traces
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


def jacobian_check(system, point, step: float = 1e-6, tol: float = 1e-5) -> dict:
    """Analytic Jacobian against central finite differences; hard failure on mismatch."""
    x = np.asarray(point, dtype=complex)
    J = system.jacobian(x)
    n = len(x)
    Jfd = np.zeros_like(J)
    for k in range(n):
        xp, xm = x.copy(), x.copy()
        xp[k] += step
        xm[k] -= step
        Jfd[:, k] = (system.values(xp) - system.values(xm)) / (2 * step)
    scale = np.maximum(np.abs(J), 1.0)
    err = float(np.max(np.abs(J - Jfd) / scale))
    if err >= tol:
        raise ContinuationError(f"Jacobian mismatch {err:.2e} >= {tol:.0e}")
    return {"max_relative_error": err, "step": step, "tolerance": tol, "shape": list(J.shape)}


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

    def residual(self, pt: CharacterPoint, tau: float) -> np.ndarray:
        """Per-cusp value of the family at a point's own logs."""
        return np.array([p * (c.u - c.base_u) + q * (c.v - c.base_v) - t for p, q, t, c
                         in zip(self.p, self.q, self.target(tau), pt.cusps)])


def pin_log(target: Callable[[float], Sequence[complex]]) -> ConstraintFamily:
    return ConstraintFamily(1.0, 0.0, target)


class DeformationProblem:
    """A gauged system with the constraint families imposed on it along
    paths.  Logs are lifted from, and measured from the lift reference of,
    the tracked point passed as `prev`."""

    def __init__(self, system: GaugedSystem):
        self.system = system

    def _rows(self, prev: CharacterPoint, family: ConstraintFamily, tau):
        """F(x) -> (values, Jacobian): the gauge rows and the family's rows at
        tau, every row from one evaluation of the compiled system, whose row
        vector F keeps as `F.vals`."""
        system = self.system
        # per cusp: coefficients, target and the lift to continue from
        terms = list(zip(family.p, family.q, family.target(tau), prev.cusps))
        g = system.gauge_rows

        def F(x):
            vals, J = system.compiled.values_and_jacobian(x)
            F.vals = vals
            ml, Jml = vals[system.ml_rows], J[system.ml_rows]
            rows, grads = [], []
            for i, (p, q, t, c) in enumerate(terms):
                m, l = ml[2 * i], ml[2 * i + 1]
                u = c.u + cmath.log(m / c.m)
                v = c.v + cmath.log(l / c.l)
                rows.append(p * (u - c.base_u) + q * (v - c.base_v) - t)
                grads.append(p * Jml[2 * i] / m + q * Jml[2 * i + 1] / l)
            return np.concatenate([vals[g], rows]), np.vstack([J[g], *grads])
        return F

    def correct(self, x0, prev: CharacterPoint, family: ConstraintFamily, tau,
                tol=1e-11, maxiter=30):
        """Newton-correct x0 onto the gauge system plus the family at tau;
        returns (point or None, residual, converged), the point lifted from
        prev and built from the last Newton evaluation."""
        F = self._rows(prev, family, tau)
        try:
            r = gauss_newton(F, x0, tol, maxiter)
        except DivergenceError as e:
            return None, e.residual, False
        return (make_character_point(self.system, r.x, prev=prev, vals=F.vals),
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

    def endpoint(self) -> CharacterPoint:
        return self.points[-1]

    def reversed(self) -> "TrackedPath":
        return TrackedPath(points=list(reversed(self.points)),
                           taus=[self.taus[-1] - t for t in reversed(self.taus)],
                           description=f"reversal of: {self.description}",
                           steps_rejected=self.steps_rejected)

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


def track(problem: DeformationProblem, start: CharacterPoint,
          family: ConstraintFamily,
          tau0: float = 0.0, tau1: float = 1.0,
          first_step: float = 0.02, max_step: float = 0.05,
          min_step: float = 1e-7, tol: float = 1e-11,
          description: str = "", allow_V_interior: bool = False) -> TrackedPath:
    """Adaptive predictor-corrector tracking of the constraint family from
    tau0 to tau1.  Each step is predicted from the path's own accepted
    samples (`DeformationProblem.predict`) and corrected by Newton.  Every
    accepted sample satisfies the residual tolerance; branch continuity is
    enforced by rejecting steps whose log increments reach pi/2 in
    imaginary part.  A rejection halves the step, and each accepted step
    grows it by 1.5 up to max_step: no step is longer than max_step."""
    pt = start
    points = [start]
    taus = [tau0]
    rejected = 0
    dtau = min(first_step, abs(tau1 - tau0)) * (1 if tau1 >= tau0 else -1)
    tau = tau0
    while (tau1 - tau) * (1 if tau1 >= tau0 else -1) > 1e-14:
        if len(points) > 20000:
            raise TrackingError("sample budget exceeded")
        step = dtau
        if (tau + step - tau1) * (1 if tau1 >= tau0 else -1) > 0:
            step = tau1 - tau
        xpred = problem.predict(points, taus, step)
        new_pt, res, converged = problem.correct(xpred, pt, family, tau + step, tol=tol)
        cause = _branch_jump(pt, new_pt) if converged else \
            f"Newton (residual {res:.2e})"
        if cause:
            rejected += 1
            dtau *= 0.5
            if abs(dtau) < min_step:
                raise TrackingError(f"minimum step reached at tau={tau:.6f}; "
                                    f"the last step was rejected by {cause}")
            continue
        interior = abs(tau + step - tau1) > 1e-14
        # a cusp that has deformed away from its base lift yet returned to
        # parabolic traces; cusps pinned at the complete structure are harmless
        if interior and not allow_V_interior and \
                on_V(traces(new_pt), moving=[moved(c) for c in new_pt.cusps]):
            raise TrackingError(f"path crossed V at tau={tau + step:.6f}")
        pt = new_pt
        tau += step
        points.append(pt)
        taus.append(tau)
        dtau = min(1.5 * abs(dtau), max_step) * (1 if dtau > 0 else -1)
    return TrackedPath(points=points, taus=taus, description=description,
                       steps_rejected=rejected)


# ---------------------------------------------------------------------------
# stepping off the complete structure
# ---------------------------------------------------------------------------

def step_off_complete(problem: DeformationProblem, complete: CharacterPoint,
                      du: Sequence[complex], tol: float = 1e-12) -> CharacterPoint:
    """Solve the gauge system with every cusp's normalized meridian log pinned
    to the given offsets, seeding the eigenvalue slots directly.  This is the
    transversal way past the branch point of the trace coordinates at the
    complete structure."""
    system = problem.system
    x0 = np.array(complete.coords, dtype=complex)
    for i, cf in enumerate(system.cusps):
        x0[cf.slot_index] *= cmath.exp(du[i] / cf.slot_power)
    pt, res, ok = problem.correct(x0, complete, pin_log(lambda tau: du), 0.0, tol=tol)
    if not ok:
        raise TrackingError(f"could not step off the complete structure (residual {res:.2e})")
    return pt


def cusp_shape_matrix(problem: DeformationProblem, complete: CharacterPoint,
                      delta: float = 1e-2) -> np.ndarray:
    """tau[i][j] ~ d v_i / d u_j at the complete structure, by one-sided
    differences of the pinned deformation."""
    h = len(problem.system.cusps)
    M = np.zeros((h, h), dtype=complex)
    for j in range(h):
        du = [0j] * h
        du[j] = delta
        pt = step_off_complete(problem, complete, du)
        for i in range(h):
            M[i, j] = (pt.cusps[i].v - complete.cusps[i].v) / delta
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


def solve_filling(problem: DeformationProblem, complete: CharacterPoint,
                  kappa: FillingCoefficients) -> tuple[CharacterPoint, TrackedPath]:
    """Continue from the complete structure to the solution of the log-form
    filling equations p_i u_i + q_i v_i = 2 pi i at filled cusps, keeping
    unfilled cusps parabolic."""
    system = problem.system
    h = len(system.cusps)
    if len(kappa.slopes) != h:
        raise FillingError(f"kappa has {len(kappa.slopes)} entries for {h} cusps")
    filled = [i for i, s in enumerate(kappa.slopes) if s is not None]
    if not filled:
        path = TrackedPath(points=[complete], taus=[0.0],
                           description=f"trivial filling of {system.spec.name}")
        return complete, path

    # unfilled cusps stay pinned: (p, q) = (1, 0) with target 0
    family = ConstraintFamily([1 if s is None else s[0] for s in kappa.slopes],
                              [0 if s is None else s[1] for s in kappa.slopes],
                              lambda tau: [0j if s is None else TWO_PI_I * tau
                                           for s in kappa.slopes])
    tau_start = 0.01

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
        path = track(problem, start_pt, family, tau0=tau_start, tau1=1.0,
                     first_step=0.001, max_step=0.001,
                     description=f"filling {kappa.label()} of {system.spec.name}")
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
                            steps_rejected=path.steps_rejected)
    end.label = f"filled:{system.spec.name}:{kappa.label()}"
    return end, full_path


def make_filling_route_via_detour(problem: DeformationProblem,
                                  complete: CharacterPoint,
                                  slope: tuple[int, int], detour: complex,
                                  ) -> TrackedPath:
    """An alternative route from the complete structure to a one-cusp filled
    character: a straight segment to the nonzero offset `detour` in the
    normalized u-coordinate, then a linear morph of the combination p*u + q*v
    onto the filling value 2 pi i.  A test oracle for path independence; the
    endpoint agrees with solve_filling's when the detour stays in the same
    tracking basin."""
    if len(problem.system.cusps) != 1:
        raise TrackingError("detour route helper supports one cusp")
    p, q = slope
    # leave the branch point at the complete structure by slot seeding, then
    # track the pinned meridian log in steps of 0.002 in u
    first = min(1e-2 / abs(detour), 0.2)
    step = min(0.002 / abs(detour), 0.05)
    start = step_off_complete(problem, complete, [detour * first], tol=1e-11)
    approach = track(problem, start, pin_log(lambda tau: [tau * detour]),
                     tau0=first, tau1=1.0, first_step=step, max_step=step)
    start = approach.endpoint()
    # the family's left-hand side p*u + q*v (normalized) at the detour point
    c0 = ConstraintFamily(p, q, lambda tau: [0j]).residual(start, 0.0)
    family = ConstraintFamily(p, q, lambda tau: [c + tau * (TWO_PI_I - c) for c in c0])
    path = track(problem, start, family, tau0=0.0, tau1=1.0,
                 first_step=0.002, max_step=0.002,
                 description=f"detour filling route ({p},{q})")
    route = concatenate_paths(approach, path)
    return TrackedPath(points=[complete] + route.points, taus=[0.0] + route.taus,
                       description=path.description, steps_rejected=route.steps_rejected)


@dataclass
class FilledCharacter:
    kappa: FillingCoefficients
    point: Optional[CharacterPoint]
    path: Optional[TrackedPath]
    error: Optional[str] = None


def sample_dense_set(problem: DeformationProblem, complete: CharacterPoint,
                     kappas: Sequence[FillingCoefficients]) -> list[FilledCharacter]:
    """Filled characters chi_kappa for the given slopes: a finite sample of
    the Zariski-dense filled set.  A filling that fails is recorded with its
    error."""
    out = []
    for kappa in kappas:
        try:
            pt, path = solve_filling(problem, complete, kappa)
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


def restriction_rank_ok(system: GaugedSystem, coords, threshold=1e-6) -> bool:
    """Full-rank test of the boundary-trace map on the slice tangent space."""
    J = system.compiled.jacobian(coords)
    M = J[system.trace_rows] @ system.tangent_basis(J)
    if M.size == 0:
        return False
    sv = np.linalg.svd(M, compute_uv=False)
    h = len(system.cusps)
    return len(sv) >= h and bool(sv[min(h, len(sv)) - 1] > threshold)


# the largest character-key distance at which two fiber points are one
# character, a sign twist or a complex conjugate of each other
DEDUP_TOL = 1e-6


def fiber_over(system: GaugedSystem, z: np.ndarray,
               seeds: Sequence[CharacterPoint], budget: int = 64,
               seed: int = 0, monodromy_loops: int = 4) -> FiberReport:
    """All gauge-slice solutions with boundary traces z found within budget,
    deduplicated as characters and classified into sign-twist orbits.

    The count stability protocol records the running number of distinct
    characters; a count still moving in the last quarter of the budget marks
    the report inconclusive."""
    z = np.asarray(z, dtype=complex)
    rng = np.random.default_rng(seed)
    gauge, trace = system.gauge_rows, system.trace_rows

    def F(X):
        vals, J = system.compiled.values_and_jacobian(X)
        return (np.concatenate([vals[:, gauge], vals[:, trace] - z], axis=1),
                np.concatenate([J[:, gauge], J[:, trace]], axis=1))
    seed_coords = [np.asarray(s.coords, dtype=complex) for s in seeds]
    scale = max((float(np.max(np.abs(c))) for c in seed_coords), default=1.0)

    points: list[CharacterPoint] = []
    keys: list[np.ndarray] = []
    history: list[int] = []

    def register(x, vals=None) -> bool:
        """Keep x unless its character is known; vals is the compiled row
        vector at x when it has been evaluated."""
        if vals is None:
            vals = system.compiled.values(x)
        key = vals[system.key_rows]
        for k in keys:
            if _char_distance(key, k) < DEDUP_TOL:
                return False
        points.append(make_character_point(system, x, label="fiber", vals=vals))
        keys.append(key)
        return True

    # all starts are drawn before any is solved (no draw depends on a Newton
    # outcome), in attempt order, and registered in attempt order
    n = len(system.vars)
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
    found = zip(xs[converged], system.compiled.values_and_jacobian(xs[converged])[0])
    for hit in converged:
        if hit:
            register(*next(found))
        history.append(len(points))

    # monodromy loops around the meridian-log coordinates, filtered by z-return
    dropped = {"near_U": 0, "tracking_failed": 0}
    if points:
        problem = DeformationProblem(system)
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
    branch_ok = [restriction_rank_ok(system, p.coords) for p in points]
    if points and not all(branch_ok):
        excluded = True
        reason = (reason + "; " if reason else "") + \
            "restriction map rank-deficient at a fiber point (branch locus)"

    twists = enumerate_twists(system.spec)
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
                twisted = _twist_key(system, keys[i], tw)
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


def track_closed_loop(problem: DeformationProblem, base: CharacterPoint,
                      family: ConstraintFamily, max_windings: int = 2,
                      closure_tol: float = 1e-9, **opts) -> TrackedPath:
    """Track the family's loop until the eigenvalue coordinates close up.

    A loop in the meridian logs may permute the finitely many sheets of the
    eigenvalue variety over it; winding the same loop again closes any
    order-two monodromy.  Raises when the path refuses to close."""
    total = track(problem, base, family, tau0=0.0, tau1=1.0, **opts)
    for winding in range(max_windings + 1):
        end = total.endpoint()
        gap = max(max(abs(ca.m - cb.m), abs(ca.l - cb.l))
                  for ca, cb in zip(base.cusps, end.cusps))
        if gap < closure_tol:
            return total
        if winding < max_windings:
            total = concatenate_paths(
                total, track(problem, end, family, tau0=0.0, tau1=1.0, **opts))
    raise TrackingError(f"loop failed to close after {max_windings} windings "
                        f"(gap {gap:.2e})")


def _monodromy_loop(problem, points, z, rng, register):
    """Track a random u-coordinate ellipse from a random known fiber point;
    keep the endpoint only if its full trace vector returns to z.  Returns
    False for a loop that passes near U, which is not a legal monodromy
    loop."""
    base = points[int(rng.integers(len(points)))]
    path = track(problem, base, random_log_loop_targets(base, rng), tau0=0.0, tau1=1.0,
                 first_step=0.05, max_step=0.05 * 1.5 * 1.5,  # steps 0.05, 0.075, 0.1125
                 description="monodromy loop", allow_V_interior=True)
    if any(on_U(eigenvalues(pt), LOCUS_TOL["near"]) for pt in path.points):
        return False
    end = path.endpoint()
    if np.max(np.abs(end.trace_vector() - z)) < 1e-7:
        register(end.coords)
    return True
