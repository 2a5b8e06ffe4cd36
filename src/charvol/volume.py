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
from typing import Optional

import numpy as np

from .continuation import TrackedPath
from .locus import eigenvalues, moving_along, on_U
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


def _segment_increment(a: CharacterPoint, b: CharacterPoint, sign: int) -> float:
    total = 0.0
    for ca, cb in zip(a.cusps, b.cusps):
        du = (cb.u - ca.u).imag
        dv = (cb.v - ca.v).imag
        total += -0.5 * (ca.v.real + cb.v.real) * du + 0.5 * (ca.u.real + cb.u.real) * dv
    return sign * total


def running_integral(path: TrackedPath, handedness_sign: int = 1) -> np.ndarray:
    out = np.zeros(len(path.points))
    for k in range(len(path.points) - 1):
        out[k + 1] = out[k] + _segment_increment(path.points[k], path.points[k + 1],
                                                 handedness_sign)
    return out


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
    moving = moving_along(path.points)
    for pt in path.points[1:-1]:
        if on_U(eigenvalues(pt), moving=moving):
            raise VolumeError("interior path sample lies on U")
    fine = running_integral(path, handedness_sign)
    value = float(fine[-1])
    pts = path.points
    coarse = 0.0
    idx = list(range(0, len(pts), 2))
    if idx[-1] != len(pts) - 1:
        idx.append(len(pts) - 1)
    for a, b in zip(idx, idx[1:]):
        coarse += _segment_increment(pts[a], pts[b], handedness_sign)
    err = abs(value - coarse) / 3.0
    return IntegralResult(value=value, error_estimate=err)


def loop_integral(loop: TrackedPath, handedness_sign: int = 1) -> IntegralResult:
    """Integral around a closed path (closure measured in the eigenvalue
    coordinates; the branch lifts may return shifted by multiples of 2 pi i),
    with its Richardson error estimate.  Exactness predicts a value near
    zero."""
    a, b = loop.points[0], loop.points[-1]
    for ca, cb in zip(a.cusps, b.cusps):
        if abs(ca.m - cb.m) >= 1e-9 or abs(ca.l - cb.l) >= 1e-9:
            raise VolumeError(
                f"loop endpoints differ in eigenvalue coordinates: "
                f"|dm| = {abs(ca.m - cb.m):.2e}, |dl| = {abs(ca.l - cb.l):.2e}")
    # integrate_eta rejects interior samples on U; the loop's base point
    # is checked here
    moving = moving_along(loop.points)
    if any(on_U(eigenvalues(pt), moving=moving) for pt in (a, b)):
        raise VolumeError("loop touches U")
    return integrate_eta(loop, handedness_sign)


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


def anchored_volume(spec: ManifoldSpec, path: TrackedPath) -> VolumeLabel:
    """reference volume (orientation-signed) plus the path integral from the
    complete structure."""
    start = path.points[0]
    sign = start.orientation if start.orientation != 0 else 1
    anchor_value = sign * spec.reference_volume.value
    if len(path.points) == 1:
        return VolumeLabel(value=anchor_value,
                           anchor=f"complete structure of {spec.name} "
                                  f"({'+' if sign > 0 else '-'}reference)",
                           path_id=path.description or "trivial path",
                           quadrature_error=0.0, eta_integral=0.0)
    integ = integrate_eta(path, handedness_sign(spec))
    return VolumeLabel(value=anchor_value + integ.value,
                       anchor=f"complete structure of {spec.name} "
                              f"({'+' if sign > 0 else '-'}reference)",
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


def lobachevsky_series(theta: float, terms: int = 200000) -> float:
    """Direct Fourier partial sum (1/2) sum_{n<=N} sin(2 n theta)/n^2: the
    slow independent oracle used by tests."""
    total = 0.0
    for n in range(terms, 0, -1):
        total += math.sin(2 * n * theta) / (n * n)
    return total / 2


def reference_volume_from_formula(spec: ManifoldSpec) -> Optional[float]:
    lob = spec.reference_volume.lobachevsky
    if lob is None:
        return None
    coeff, num, den = lob
    return coeff * lobachevsky(math.pi * num / den)

