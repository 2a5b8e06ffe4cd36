"""The two degenerate loci of the deformation space, decided in one place.

V: some cusp has both peripheral traces at +-2 (I_M^2 = I_L^2 = 4).
U: some cusp has both peripheral eigenvalues at +-1 (m^2 = l^2 = 1); there
   Hodgson's volume form degenerates.  The boundary-trace map sends U into V.

Both predicates take one pair per cusp and an optional per-cusp `moving`
mask; a cusp the mask marks False is ignored.  A cusp is moving when its
normalized logs have left the complete structure's lift: cusps pinned there
(unfilled cusps, say) stay parabolic, contribute nothing to the volume form
and obstruct neither tracking nor integration.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

TOLERANCES = {
    "on": 1e-6,      # a tracked sample lies on the locus
    "near": 1e-3,    # a loop or a trace image comes too close to use
    "moved": 1e-6,   # a cusp's normalized logs have left the complete structure
    "lift": 1e-9,    # an eigenvalue is +-1 exactly enough to be its own log reference
}


def _some_cusp(pairs, square, tol, moving) -> bool:
    for i, (a, b) in enumerate(pairs):
        if (moving is None or moving[i]) and \
                abs(a ** 2 - square) < tol and abs(b ** 2 - square) < tol:
            return True
    return False


def on_U(eigenvalues: Iterable, tol: float = TOLERANCES["on"],
         moving: Optional[Sequence[bool]] = None) -> bool:
    """True when some cusp has both m^2 and l^2 within tol of 1; `eigenvalues`
    holds one (m, l) pair per cusp."""
    return _some_cusp(eigenvalues, 1, tol, moving)


def on_V(traces: Iterable, tol: float = TOLERANCES["on"],
         moving: Optional[Sequence[bool]] = None) -> bool:
    """True when some cusp has both peripheral traces within tol of +-2
    (squares within tol of 4); `traces` holds one (I_M, I_L) pair per cusp."""
    return _some_cusp(traces, 4, tol, moving)


def near_U(points) -> bool:
    """Does some sample come within TOLERANCES["near"] of U, at any cusp?"""
    return any(on_U(eigenvalues(pt), TOLERANCES["near"]) for pt in points)


def eigenvalues(pt) -> list:
    """(m, l) per cusp of a character point."""
    return [(c.m, c.l) for c in pt.cusps]


def traces(pt) -> list:
    """(I_M, I_L) per cusp of a character point."""
    return [(c.trace_m, c.trace_l) for c in pt.cusps]


def moved(c, tol: float = TOLERANCES["moved"]) -> bool:
    """Has this cusp state left the complete structure's lift?"""
    return max(abs(c.u - c.base_u), abs(c.v - c.base_v)) > tol


def moving_along(points) -> list[bool]:
    """Per cusp: does it leave the complete structure's lift anywhere along
    the given points?"""
    return [any(moved(pt.cusps[i]) for pt in points)
            for i in range(len(points[0].cusps))]
