"""Independent oracles that tests check charvol against, and the helpers
that only tests call.  None of them is used by the program itself."""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

from charvol.continuation import (CORRECT_TOL, ConstraintFamily, TrackedPath, TrackingError,
                                  concatenate_paths, pin_log, step_off_complete, track)
from charvol.repvar import (TWO_PI_I, CharacterPoint, ContinuationError, GaugedSystem,
                            PeripheralState, RepVarError, SignTwist)


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


def make_filling_route_via_detour(problem, complete, slope: tuple[int, int],
                                  detour: complex) -> TrackedPath:
    """An alternative route from the complete structure to a one-cusp filled
    character: a straight segment to the nonzero offset `detour` in the
    normalized u-coordinate, then a linear morph of the combination p*u + q*v
    onto the filling value 2 pi i.  An oracle for path independence; the
    endpoint agrees with solve_filling's when the detour stays in the same
    tracking basin."""
    if len(problem.cusps) != 1:
        raise TrackingError("detour route helper supports one cusp")
    p, q = slope
    # leave the branch point at the complete structure by slot seeding, then
    # track the pinned meridian log in steps of 0.002 in u
    first = min(1e-2 / abs(detour), 0.2)
    step = min(0.002 / abs(detour), 0.05)
    start = step_off_complete(problem, complete, [detour * first], tol=CORRECT_TOL)
    approach = track(problem, start, pin_log(lambda tau: [tau * detour]),
                     tau0=first, first_step=step, max_step=step)
    start = approach.endpoint()
    # the family's left-hand side p*u + q*v (normalized) at the detour point
    c0 = ConstraintFamily(p, q, lambda tau: [0j]).residual(start, 0.0)
    family = ConstraintFamily(p, q, lambda tau: [c + tau * (TWO_PI_I - c) for c in c0])
    path = track(problem, start, family, first_step=0.002, max_step=0.002,
                 description=f"detour filling route ({p},{q})")
    route = concatenate_paths(approach, path)
    return TrackedPath(points=[complete] + route.points, taus=[0.0] + route.taus,
                       description=path.description, steps_rejected=route.steps_rejected)


def reversed_path(path: TrackedPath) -> TrackedPath:
    """The path traversed backwards, tau measured from its end."""
    return TrackedPath(points=list(reversed(path.points)),
                       taus=[path.taus[-1] - t for t in reversed(path.taus)],
                       description=f"reversal of: {path.description}",
                       steps_rejected=path.steps_rejected)


def random_sl2(rng) -> np.ndarray:
    """Random SL2(C) matrix with entries O(1)."""
    while True:
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        if abs(det) > 1e-3:
            return M / np.sqrt(det)


def apply_twist(pt: CharacterPoint, tw: SignTwist, system: GaugedSystem) -> CharacterPoint:
    """Scale each generator matrix by its sign and re-gauge.

    In gauge coordinates: s -> e1 s, p -> e2 p, t -> e1 e2 t and each extra
    generator scales as (a,b,c,d) -> (e a, e e1 b, e e1 c, e d).  Peripheral
    traces pick up the sign of the corresponding word; eigenvalue branches
    shift by i*pi where the sign is -1.
    """
    eps = tw.epsilon
    for r in system.spec.relators:
        if tw.on_word(r) != 1:
            raise RepVarError("twist is not a homomorphism for this presentation")
    e1, e2 = eps[0], eps[1]
    coords = np.array(pt.coords, dtype=complex)
    coords[0] *= e1
    coords[1] *= e2
    coords[2] *= e1 * e2
    for j in range(3, system.spec.generators + 1):
        e = eps[j - 1]
        base = 3 + 4 * (j - 3)
        coords[base] *= e
        coords[base + 1] *= e * e1
        coords[base + 2] *= e * e1
        coords[base + 3] *= e
    states = []
    for cf, st in zip(system.cusps, pt.cusps):
        sm = tw.on_word(cf.meridian)
        sl = tw.on_word(cf.longitude)
        shift_m = 0j if sm == 1 else 1j * cmath.pi
        shift_l = 0j if sl == 1 else 1j * cmath.pi
        states.append(PeripheralState(
            u=st.u + shift_m, v=st.v + shift_l,
            m=sm * st.m, l=sl * st.l,
            trace_m=sm * st.trace_m, trace_l=sl * st.trace_l,
            trace_ml=sm * sl * st.trace_ml,
            base_u=st.base_u + shift_m, base_v=st.base_v + shift_l))
    return CharacterPoint(coords=coords, cusps=states,
                          residual=system.gauge_residual(system.compiled.values(coords)),
                          orientation=pt.orientation, label=pt.label)


def thurston_rank(system, pt, threshold=1e-6) -> int:
    """Rank of the log-eigenvalue coordinate differentials (du_1,...,du_h)
    restricted to the tangent space of the gauge slice."""
    vals, J = system.compiled.values_and_jacobian(pt.coords)
    ml, Jml = vals[system.ml_rows], J[system.ml_rows]
    M = (Jml[0::2] / ml[0::2, None]) @ system.tangent_basis(J)
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > threshold))


def lobachevsky_series(theta: float, terms: int = 200000) -> float:
    """Direct Fourier partial sum (1/2) sum_{n<=N} sin(2 n theta)/n^2: the
    slow independent oracle of the Lobachevsky function."""
    total = 0.0
    for n in range(terms, 0, -1):
        total += math.sin(2 * n * theta) / (n * n)
    return total / 2


def bloch_wigner(z) -> mpmath.mpf:
    """D(z) = Im Li2(z) + arg(1 - z) log|z|, the volume of the ideal
    tetrahedron of shape z."""
    return mpmath.im(mpmath.polylog(2, z)) + mpmath.arg(1 - z) * mpmath.log(abs(z))


def fig8_gluing_volume(p: int, q: int, t: float = 1.0) -> float:
    """Volume of fig8 filled along the slope (p, q), from its two ideal
    tetrahedra, with none of charvol's conventions.

    The shapes z, w solve the edge equation z(1-z)w(1-w) = 1 and the
    filling equation p H(m) + q H(l) = 2 pi i t, with H(m) = log(w(1-z)) and
    H(l) = 2 log(z(1-z)) in principal logs.  They are continued from the
    complete structure z = w = e^{i pi/3} at t = 0 in 20 equal steps of t,
    each solved by Newton at 20 digits from the linear extrapolation of the
    two before.  The volume is D(z) + D(w)."""
    steps, digits = 20, 20
    with mpmath.workdps(digits):
        target = 2j * mpmath.pi

        def F(z, w, s):
            return (z * (1 - z) * w * (1 - w) - 1,
                    p * mpmath.log(w * (1 - z)) + 2 * q * mpmath.log(z * (1 - z)) - target * s)

        def J(z, w):
            return mpmath.matrix([[(1 - 2 * z) * w * (1 - w), z * (1 - z) * (1 - 2 * w)],
                                  [-p / (1 - z) + 2 * q * (1 - 2 * z) / (z * (1 - z)), p / w]])

        prev = cur = mpmath.matrix([mpmath.expjpi(mpmath.mpf(1) / 3)] * 2)
        for k in range(1, steps + 1):
            s = mpmath.mpf(t) * k / steps
            x = 2 * cur - prev
            for _ in range(50):
                dx = mpmath.lu_solve(J(x[0], x[1]), -mpmath.matrix(F(x[0], x[1], s)))
                x += dx
                if mpmath.norm(dx) < mpmath.mpf(10) ** (2 - digits):
                    break
            else:
                raise ContinuationError(f"gluing equations: no convergence at t = {s}")
            prev, cur = cur, x
        return float(bloch_wigner(cur[0]) + bloch_wigner(cur[1]))
