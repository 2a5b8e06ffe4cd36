"""Independent oracles that tests check charvol against.  None of them is
used by the program itself."""

from __future__ import annotations

import math

import mpmath
import numpy as np

from charvol.continuation import (CORRECT_TOL, ConstraintFamily, TrackedPath, TrackingError,
                                  concatenate_paths, pin_log, step_off_complete, track)
from charvol.repvar import TWO_PI_I, ContinuationError


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
