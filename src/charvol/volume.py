"""The volume differential on eigenvalue coordinates and anchored volumes.

The 1-form is, per cusp,

    -( log|l| d(arg m) - log|m| d(arg l) )
      = (-Re v) d(Im u) + (Re u) d(Im v)

in the branch-lifted logs u = log m, v = log l carried by tracked paths.  It
vanishes wherever every peripheral eigenvalue lies on the unit circle, and
for a left-handed peripheral basis it is the differential of the volume
function, so line integrals along tracked paths assign each endpoint an
absolute volume once the complete structure is anchored at the fixture's
reference volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .continuation import CLOSURE_TOL, TrackedPath, closure_gap
from .locus import cusp_arrays, moving_along, on_U_rows
from .manifold import ManifoldSpec
from .repvar import CharacterPoint


class VolumeError(RuntimeError):
    pass


@dataclass
class EtaValue:
    """Coefficients of the volume form at a point: per cusp the pair
    (d/d Im u, d/d Im v) = (-Re v, +Re u), sign-flipped for right-handed bases."""
    coefficients: list[tuple[float, float]]

    def max_abs(self) -> float:
        return max((max(abs(a), abs(b)) for a, b in self.coefficients), default=0.0)


def eta_at(pt: CharacterPoint, handedness_sign: int = 1) -> EtaValue:
    """Evaluate the form's coefficients from a character point's branch
    lifts.  Points on U are not rejected (the form extends by the same
    formula)."""
    return EtaValue(coefficients=[(handedness_sign * (-c.v.real), handedness_sign * c.u.real)
                                  for c in pt.cusps])


def _segment_increments(points: Sequence[CharacterPoint], sign: int) -> np.ndarray:
    """The trapezoid increment of the form on each segment between
    consecutive points, the cusps' terms added in cusp order."""
    n = len(points)
    u = np.array([c.u for pt in points for c in pt.cusps], dtype=complex).reshape(n, -1).T
    v = np.array([c.v for pt in points for c in pt.cusps], dtype=complex).reshape(n, -1).T
    terms = (-0.5 * (v.real[:, :-1] + v.real[:, 1:]) * np.diff(u.imag) +
             0.5 * (u.real[:, :-1] + u.real[:, 1:]) * np.diff(v.imag))
    return sign * sum(terms, 0.0)


def _trapezoid(points: Sequence[CharacterPoint], sign: int) -> np.ndarray:
    """The trapezoid integral from the first point to each, adding in order
    (`np.sum`'s pairwise order would change the last bits)."""
    return np.cumsum(np.concatenate(([0.0], _segment_increments(points, sign))))


def running_integral(path: TrackedPath, handedness_sign: int = 1) -> np.ndarray:
    return _trapezoid(path.points, handedness_sign)


@dataclass
class IntegralResult:
    value: float
    error_estimate: float


def integrate_eta(path: TrackedPath, handedness_sign: int = 1) -> IntegralResult:
    """Composite trapezoid integral of the volume form along a tracked path.

    The coarse (every second sample) integral gives a Richardson error
    estimate; interior samples on U are rejected.  Cusps that never leave
    the complete structure's lift along the path contribute nothing to the
    form and do not obstruct integration; moving cusps must stay off U."""
    if len(path.points) < 1:
        raise VolumeError("empty path")
    return _integral(path.points, handedness_sign, _samples_on_U(path.points))


def _samples_on_U(points: Sequence[CharacterPoint]) -> np.ndarray:
    """Per sample: does it lie on U at a cusp that moves along the points?
    One vectorised pass over the path's eigenvalue arrays."""
    m, l = cusp_arrays(points, "m", "l")
    return on_U_rows(m, l, moving=moving_along(points))


def _integral(pts: Sequence[CharacterPoint], sign: int, on_u: np.ndarray) -> IntegralResult:
    """`integrate_eta` of the points, given which of them lie on U."""
    if on_u[1:-1].any():
        raise VolumeError("interior path sample lies on U")
    value = float(_trapezoid(pts, sign)[-1])
    # every second sample, and the last
    coarse = _trapezoid(pts[::2] if len(pts) % 2 else pts[::2] + pts[-1:], sign)
    err = float(abs(value - coarse[-1]) / 3.0)
    return IntegralResult(value=value, error_estimate=err)


def loop_integral(loop: TrackedPath, handedness_sign: int = 1) -> IntegralResult:
    """Integral around a closed path (closure measured in the eigenvalue
    coordinates; the branch lifts may return shifted by multiples of 2 pi i),
    with its Richardson error estimate.  Exactness predicts a value near
    zero."""
    a, b = loop.points[0], loop.points[-1]
    gap = closure_gap(a, b)
    if not gap < CLOSURE_TOL:
        raise VolumeError(f"loop endpoints differ in eigenvalue coordinates by {gap:.2e}")
    # the interior samples are checked as integrate_eta checks them, and the
    # loop's base point here
    on_u = _samples_on_U(loop.points)
    if on_u[0] or on_u[-1]:
        raise VolumeError("loop touches U")
    return _integral(loop.points, handedness_sign, on_u)


@dataclass
class VolumeLabel:
    value: float
    anchor: str
    path_id: str
    quadrature_error: float
    eta_integral: float     # the path integral added to the anchor

    def to_json(self):
        return {"value": self.value, "anchor": self.anchor,
                "path_id": self.path_id, "quadrature_error": self.quadrature_error}


def handedness_sign(spec: ManifoldSpec) -> int:
    return 1 if spec.basis_handedness == "left" else -1


def anchor(spec: ManifoldSpec, start: CharacterPoint) -> float:
    """The volume at the complete structure `start` that paths from it are
    anchored at: the reference volume, negated when `start` is the conjugate
    (orientation -1)."""
    return (start.orientation or 1) * spec.reference_volume.value


def anchored_volume(spec: ManifoldSpec, path: TrackedPath) -> VolumeLabel:
    """The anchor of the path's first point, the complete structure, plus
    the path integral from it."""
    start = path.points[0]
    integ = integrate_eta(path, handedness_sign(spec))
    return VolumeLabel(value=anchor(spec, start) + integ.value,
                       anchor=f"complete structure of {spec.name} "
                              f"({'-' if start.orientation < 0 else '+'}reference)",
                       path_id=path.description or f"path[{len(path.points)}]",
                       quadrature_error=integ.error_estimate,
                       eta_integral=integ.value)


# ---------------------------------------------------------------------------
# Lobachevsky function
# ---------------------------------------------------------------------------

def lobachevsky(theta: float) -> float:
    """The Lobachevsky function, the integral whose Fourier series is
    (1/2) sum sin(2 n theta) / n^2, via the accelerated zeta-series

        L(t) = t - t log|2t| + sum_{n>=1} zeta(2n) t^(2n+1) / (n (2n+1) pi^(2n))

    after odd pi-periodic reduction to |t| <= pi/2.  Absolute error well
    below 1e-12."""
    t = math.fmod(theta, math.pi)
    if t > math.pi / 2:
        t -= math.pi
    elif t < -math.pi / 2:
        t += math.pi
    if t == 0.0:
        return 0.0
    sign = 1.0
    if t < 0:
        t, sign = -t, -1.0
    total = t - t * math.log(2 * t)
    ratio = (t / math.pi) ** 2
    power = ratio
    n = 1
    while True:
        term = _zeta_2n(n) * t * power / (n * (2 * n + 1))
        total += term
        if abs(term) < 1e-17 or n > 200:
            break
        power *= ratio
        n += 1
    return sign * total


_ZETA_CACHE: dict[int, float] = {}


def _zeta_2n(n: int) -> float:
    """zeta(2n) by direct summation with an Euler-Maclaurin tail at K = 32:
    full double precision for all n >= 1."""
    if n not in _ZETA_CACHE:
        s = 2 * n
        K = 32
        total = sum(k ** (-s) for k in range(1, K))
        # tail: sum_{k >= K} k^-s
        total += K ** (1 - s) / (s - 1) + 0.5 * K ** (-s) + s * K ** (-s - 1) / 12 \
            - s * (s + 1) * (s + 2) * K ** (-s - 3) / 720
        _ZETA_CACHE[n] = total
    return _ZETA_CACHE[n]


def reference_volume_from_formula(spec: ManifoldSpec) -> Optional[float]:
    lob = spec.reference_volume.lobachevsky
    if lob is None:
        return None
    coeff, num, den = lob
    return coeff * lobachevsky(math.pi * num / den)

