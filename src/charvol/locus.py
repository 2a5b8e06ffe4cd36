"""The two degenerate loci of the deformation space, decided in one place.

V: some cusp has both peripheral traces at +-2 (I_M^2 = I_L^2 = 4).
U: some cusp has both peripheral eigenvalues at +-1 (m^2 = l^2 = 1); there
   Hodgson's volume form degenerates.  The boundary-trace map sends U into V.

Both predicates take one pair per cusp and an optional per-cusp `moving`
mask; a cusp the mask marks False is ignored.  A cusp is moving when its
normalized logs have left the complete structure's lift: cusps pinned there
(unfilled cusps, say) stay parabolic, contribute nothing to the volume form
and obstruct neither tracking nor integration.  A path is decided in one
vectorised pass over its (N, h) arrays (`on_U_rows`, `near_U`,
`moving_along`), with the comparison of the per-point predicates.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

TOLERANCES = {
    "on": 1e-6,      # a tracked sample lies on the locus
    "near": 1e-3,    # a loop or a trace image comes too close to use
    "moved": 1e-6,   # a cusp's normalized logs have left the complete structure
    "lift": 1e-9,    # an eigenvalue is +-1 exactly enough to be its own log reference
}


def _near(x, square, tol):
    """|x^2 - square| < tol, for a number or elementwise for an array."""
    return abs(x * x - square) < tol


def _some_cusp(pairs, square, tol, moving) -> bool:
    for i, (a, b) in enumerate(pairs):
        if (moving is None or moving[i]) and _near(a, square, tol) and _near(b, square, tol):
            return True
    return False


def _some_cusp_rows(a, b, square, tol, moving) -> np.ndarray:
    """`_some_cusp` of each row of the (N, h) arrays a and b."""
    hit = _near(a, square, tol) & _near(b, square, tol)
    if moving is not None:
        hit &= np.asarray(moving, dtype=bool)
    return hit.any(axis=1)


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


def on_U_rows(m: np.ndarray, l: np.ndarray, tol: float = TOLERANCES["on"],
              moving: Optional[Sequence[bool]] = None) -> np.ndarray:
    """`on_U` of each sample of a path, from its (N, h) eigenvalue arrays m
    and l: a boolean per sample."""
    return _some_cusp_rows(m, l, 1, tol, moving)


def near_U(points) -> bool:
    """Does some sample come within TOLERANCES["near"] of U, at any cusp?"""
    m, l = cusp_arrays(points, "m", "l")
    return bool(on_U_rows(m, l, TOLERANCES["near"]).any())


def cusp_arrays(points, *names: str) -> list[np.ndarray]:
    """Per attribute name (two or more, of a cusp state), the (N, h) array
    of that attribute at every cusp of the N points."""
    get = attrgetter(*names)
    table = np.array([[get(c) for c in pt.cusps] for pt in points], dtype=complex)
    return [table[:, :, k] for k in range(len(names))]


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
    the given points?  `moved` of every sample, in one pass."""
    u, v, base_u, base_v = cusp_arrays(points, "u", "v", "base_u", "base_v")
    away = np.maximum(abs(u - base_u), abs(v - base_v)) > TOLERANCES["moved"]
    return away.any(axis=0).tolist()
