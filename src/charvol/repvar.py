"""Gauge-fixed SL2(C) representation variety of a presented group.

The documented gauge puts generator 1 upper-triangular with unit upper-right
entry and generator 2 lower-triangular; any further generators stay full 2x2
matrices with det - 1 adjoined.  Its zero locus is a slice of the
representation variety on which conjugation freedom is spent, so generic
irreducible characters appear finitely often.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .locus import TOLERANCES
from .manifold import ManifoldSpec, relator_matrix, gf2_nullspace
from .matrices import GaugeError, gauge_coord_names, gauge_matrices, regauge
from .poly import (CompiledSystem, Polynomial, SymMatrix2,
                   trace_poly, word_matrix)
from .words import Word, invert_word, sign_character

TWO_PI_I = 2j * cmath.pi


class RepVarError(ValueError):
    pass


class NoCompleteStructureError(RepVarError):
    pass


def _balanced_relator_split(r: Word) -> tuple[Word, Word]:
    """Split r = r1 * r2' and return (r1, inverse(r2')); the equations
    W(r1) - W(inv r2') = 0 cut the same locus as W(r) = E at half the degree."""
    half = (len(r) + 1) // 2
    return tuple(r[:half]), invert_word(r[half:])


@dataclass
class CuspFunctions:
    """Peripheral data attached to one cusp of a gauged system."""
    index: int
    meridian: Word
    longitude: Word
    trace_m: Polynomial
    trace_l: Polynomial
    trace_ml: Polynomial
    # eigenvalue slot data: (m, l) are read along a coordinate eigenvector
    # (e1 for a generator-1 meridian, e2 for a generator-2 meridian), and
    # m = x[slot_index] ** slot_power
    m_poly: Polynomial
    l_poly: Polynomial
    slot_index: int
    slot_power: int


class GaugedSystem:
    """Polynomial system cutting out the gauge slice, plus peripheral machinery."""

    def __init__(self, spec: ManifoldSpec):
        n = spec.generators
        if n < 2:
            raise RepVarError("gauge needs at least two generators")
        self.spec = spec
        self.vars = gauge_coord_names(n)
        lau = frozenset({"s", "p"})
        self.laurent = lau
        V = self.vars

        def var(name, power=1):
            return Polynomial.variable(name, V, lau, power)

        one = Polynomial.constant(1, V, lau)
        zero = Polynomial.constant(0, V, lau)
        g1 = SymMatrix2(var("s"), one, zero, var("s", -1))
        g2 = SymMatrix2(var("p"), zero, var("t"), var("p", -1))
        gens = [g1, g2]
        for j in range(3, n + 1):
            gens.append(SymMatrix2(var(f"a{j}"), var(f"b{j}"), var(f"c{j}"), var(f"d{j}")))

        polys: list[Polynomial] = []
        for r in spec.relators:
            r1, r2 = _balanced_relator_split(r)
            A = word_matrix(r1, gens)
            B = word_matrix(r2, gens)
            polys.extend((A.a - B.a, A.b - B.b, A.c - B.c, A.d - B.d))
        for j in range(3, n + 1):
            polys.append(gens[j - 1].det() - one)
        self.polynomials = polys    # the gauge relations

        self.cusps: list[CuspFunctions] = []
        for c in spec.cusps:
            tm = trace_poly(c.meridian, gens)
            tl = trace_poly(c.longitude, gens)
            tml = trace_poly(tuple(c.meridian) + tuple(c.longitude), gens)
            slot = self._meridian_slot(c.meridian)
            if slot is None:
                raise RepVarError(
                    f"{spec.name}: cusp {c.index} meridian {list(c.meridian)} is not "
                    "a bare gauge generator (1, -1, 2 or -2); every cusp needs an "
                    "eigenvalue slot")
            name, power, entry = slot
            L = word_matrix(c.longitude, gens)
            m_poly = var(name, power)
            l_poly = L.a if entry == 0 else L.d
            self.cusps.append(CuspFunctions(
                index=c.index, meridian=c.meridian, longitude=c.longitude,
                trace_m=tm, trace_l=tl, trace_ml=tml,
                m_poly=m_poly, l_poly=l_poly, slot_index=V.index(name),
                slot_power=power))
        trace_polys, ml = [], []
        for cf in self.cusps:
            trace_polys.extend((cf.trace_m, cf.trace_l, cf.trace_ml))
            ml.extend((cf.m_poly, cf.l_poly))
        # character separation: generator, pair and commutator traces
        key_words: list[Word] = [(i,) for i in range(1, n + 1)]
        key_words += [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        key_words.append((1, 2, -1, -2))
        self.key_words = key_words
        key_polys = [trace_poly(w, gens) for w in key_words]

        # one compiled system over every numeric row, read by named ranges:
        # gauge relations, boundary traces (I_M, I_L, I_ML per cusp),
        # eigenvalue slots (m, l per cusp) and the character key
        rows = [polys, trace_polys, ml, key_polys]
        ends = list(itertools.accumulate(map(len, rows), initial=0))
        self.gauge_rows, self.trace_rows, self.ml_rows, self.key_rows = (
            slice(a, b) for a, b in zip(ends, ends[1:]))
        self.compiled = CompiledSystem([p for r in rows for p in r], V)

    @staticmethod
    def _meridian_slot(w: Word):
        """(var name, eigenvalue power, diagonal entry index) when the meridian
        is a bare gauge generator; the common eigenvector is then a coordinate
        vector and both peripheral eigenvalues are read off matrix entries.
        None for any other meridian word."""
        if w == (1,):
            return ("s", 1, 0)
        if w == (-1,):
            return ("s", -1, 0)
        if w == (2,):
            return ("p", -1, 1)
        if w == (-2,):
            return ("p", 1, 1)
        return None

    # -- numeric helpers ---------------------------------------------------
    def matrices(self, coords) -> list[np.ndarray]:
        return gauge_matrices(np.asarray(coords, dtype=complex), self.spec.generators)

    def gauge_residual(self, vals) -> float:
        """Max-abs gauge relation value in a full row vector of `compiled`."""
        g = vals[self.gauge_rows]
        return float(np.max(np.abs(g))) if len(g) else 0.0

    def residual(self, coords) -> float:
        return self.gauge_residual(self.compiled.values(coords))

    def ml_values(self, coords) -> np.ndarray:
        """(m_1, l_1, ..., m_h, l_h) along the slot eigenvectors."""
        return self.compiled.values(coords)[self.ml_rows]

    def char_key(self, coords) -> np.ndarray:
        return self.compiled.values(coords)[self.key_rows]

    def tangent_basis(self, J, rtol=1e-8) -> np.ndarray:
        """Orthonormal basis of the numerical null space of the gauge rows of
        J, a full Jacobian of `compiled`."""
        J = J[self.gauge_rows]
        if J.shape[0] == 0:
            return np.eye(len(self.vars), dtype=complex)
        u, sv, vh = np.linalg.svd(J)
        cut = rtol * max(1.0, sv[0] if len(sv) else 1.0)
        null_dim = sum(1 for x in sv if x <= cut) + max(0, J.shape[1] - len(sv))
        return vh.conj().T[:, J.shape[1] - null_dim:]


# ---------------------------------------------------------------------------
# character points
# ---------------------------------------------------------------------------

@dataclass
class PeripheralState:
    """Branch-lifted peripheral coordinates of one cusp at one point."""
    u: complex
    v: complex
    m: complex
    l: complex
    trace_m: complex
    trace_l: complex
    trace_ml: complex
    base_u: complex = 0j
    base_v: complex = 0j

    def to_json(self):
        c = lambda z: [z.real, z.imag]
        return {"u": c(self.u), "v": c(self.v), "m": c(self.m), "l": c(self.l),
                "I_M": c(self.trace_m), "I_L": c(self.trace_l), "I_ML": c(self.trace_ml),
                "base_u": c(self.base_u), "base_v": c(self.base_v)}


@dataclass
class CharacterPoint:
    coords: np.ndarray
    cusps: list[PeripheralState]
    residual: float
    orientation: int = 0           # +1 positively oriented, -1 conjugate, 0 unknown
    label: str = ""

    def trace_vector(self) -> np.ndarray:
        """The boundary-trace vector (I_M, I_L, I_ML per cusp): the image r(chi)."""
        out = []
        for c in self.cusps:
            out.extend((c.trace_m, c.trace_l, c.trace_ml))
        return np.array(out, dtype=complex)

    def validate(self, tol_exp=1e-9, tol_trace=1e-8, tol_res=1e-10):
        for c in self.cusps:
            if abs(cmath.exp(c.u) - c.m) >= tol_exp:
                raise RepVarError(f"branch lift broken: |exp(u) - m| = {abs(cmath.exp(c.u) - c.m):.2e}")
            if abs(cmath.exp(c.v) - c.l) >= tol_exp:
                raise RepVarError(f"branch lift broken: |exp(v) - l| = {abs(cmath.exp(c.v) - c.l):.2e}")
            for val, tr in ((c.m, c.trace_m), (c.l, c.trace_l), (c.m * c.l, c.trace_ml)):
                if abs(val + 1 / val - tr) >= tol_trace:
                    raise RepVarError(f"eigenvalue/trace mismatch: {abs(val + 1/val - tr):.2e}")
        if self.residual >= tol_res:
            raise RepVarError(f"system residual {self.residual:.2e} too large")
        return True

    def to_json(self) -> dict:
        c = lambda z: [z.real, z.imag]
        return {
            "coords": [c(z) for z in self.coords],
            "cusps": [st.to_json() for st in self.cusps],
            "residual": self.residual,
            "orientation": self.orientation,
            "label": self.label,
        }


def make_character_point(system: GaugedSystem, coords, prev: Optional[CharacterPoint] = None,
                         label: str = "", vals: Optional[np.ndarray] = None) -> CharacterPoint:
    """Build a CharacterPoint at the given gauge coordinates.

    Branch lifts continue from `prev` when given (the increment of each log
    stays in the principal strip); otherwise principal logs are taken.
    `vals`, the row vector of `system.compiled` at coords, saves the
    evaluation when the caller already has it.
    """
    coords = np.asarray(coords, dtype=complex)
    if vals is None:
        vals = system.compiled.values(coords)
    traces, ml = vals[system.trace_rows], vals[system.ml_rows]
    states = []
    for i, cf in enumerate(system.cusps):
        m, l = ml[2 * i], ml[2 * i + 1]
        if prev is not None:
            pc = prev.cusps[i]
            u = pc.u + cmath.log(m / pc.m)
            v = pc.v + cmath.log(l / pc.l)
            base_u, base_v = pc.base_u, pc.base_v
        else:
            u = cmath.log(m)
            v = cmath.log(l)
            # lift reference: the point's own log when the eigenvalue sits at
            # +-1 (so parabolic points have zero normalized logs exactly),
            # otherwise 0 or i*pi by sign
            lift = TOLERANCES["lift"]
            base_u = u if abs(m * m - 1) < lift else (1j * cmath.pi if m.real < 0 else 0j)
            base_v = v if abs(l * l - 1) < lift else (1j * cmath.pi if l.real < 0 else 0j)
        states.append(PeripheralState(
            u=u, v=v, m=m, l=l,
            trace_m=traces[3 * i], trace_l=traces[3 * i + 1], trace_ml=traces[3 * i + 2],
            base_u=base_u, base_v=base_v))
    return CharacterPoint(coords=coords, cusps=states, residual=system.gauge_residual(vals),
                          label=label)


# ---------------------------------------------------------------------------
# sign twists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignTwist:
    epsilon: tuple[int, ...]

    def on_word(self, w: Word) -> int:
        return sign_character(w, self.epsilon)

    def is_trivial(self) -> bool:
        return all(e == 1 for e in self.epsilon)


def enumerate_twists(spec: ManifoldSpec) -> list[SignTwist]:
    """All homomorphisms pi_1 -> {+-1}: sign assignments killing the relators mod 2."""
    rows = [[x % 2 for x in r] for r in relator_matrix(spec)]
    basis = gf2_nullspace(rows, spec.generators)
    twists = set()
    for mask in range(2 ** len(basis)):
        v = [0] * spec.generators
        for b, vec in enumerate(basis):
            if (mask >> b) & 1:
                v = [(x + y) % 2 for x, y in zip(v, vec)]
        twists.add(tuple(-1 if x else 1 for x in v))
    out = [SignTwist(t) for t in sorted(twists, reverse=True)]
    for tw in out:
        for r in spec.relators:
            if tw.on_word(r) != 1:
                raise RepVarError("enumerated twist violates a relator sign")
    return out


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
                          residual=system.residual(coords),
                          orientation=pt.orientation, label=pt.label)


# ---------------------------------------------------------------------------
# the Newton kernel
# ---------------------------------------------------------------------------

class ContinuationError(RuntimeError):
    pass


class SingularJacobianError(ContinuationError):
    pass


class DivergenceError(ContinuationError):
    """Newton stopped without converging at iterate `x` with max-abs
    residual `residual` (inf when the residual is not finite)."""

    def __init__(self, message: str, x: np.ndarray, residual: float):
        super().__init__(message)
        self.x = x
        self.residual = residual


@dataclass
class NewtonResult:
    x: np.ndarray
    residual: float
    iterations: int
    quad_ratios: list[float]


def gauss_newton(F, start, tol: float, maxiter: int, max_step: Optional[float] = None,
                 condition_limit: Optional[float] = None) -> NewtonResult:
    """Gauss-Newton (least-squares steps, so non-square systems are fine) on
    F(x) -> (values, Jacobian) to a max-abs residual below tol.

    Raises DivergenceError on a non-finite residual or step, after three
    4x growths of the residual 2-norm in a row, or after maxiter steps.
    max_step caps the 2-norm of each step.  With condition_limit, an
    unconverged start whose Jacobian condition number exceeds it raises
    SingularJacobianError.  The per-step contraction ratios |F_k+1| / |F_k|^2
    are recorded so quadratic convergence can be audited."""
    def evaluate(x):
        vals, J = F(x)
        res = float(np.max(np.abs(vals))) if len(vals) else 0.0
        if not math.isfinite(res):
            raise DivergenceError("non-finite Newton residual", x, float("inf"))
        return vals, J, res

    x = np.asarray(start, dtype=complex).copy()
    vals, J, res = evaluate(x)
    if res < tol:
        return NewtonResult(x, res, 0, [])
    if condition_limit is not None:
        sv = np.linalg.svd(J, compute_uv=False) if J.size else np.array([1.0])
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        if not cond <= condition_limit:
            raise SingularJacobianError(f"Jacobian condition {cond:.2e} exceeds {condition_limit:.0e}")
    ratios, prev_norm, bad = [], None, 0
    for it in range(1, maxiter + 1):
        dx, *_ = np.linalg.lstsq(J, -vals, rcond=None)
        if not np.all(np.isfinite(dx)):
            raise DivergenceError("non-finite Newton step", x, res)
        if max_step is not None:
            ndx = float(np.linalg.norm(dx))
            if ndx > max_step:
                dx *= max_step / ndx
        x = x + dx
        vals, J, res = evaluate(x)
        norm = float(np.linalg.norm(vals))
        if prev_norm is not None:
            # contraction ratios are only meaningful above the roundoff floor
            if prev_norm > 1e-8:
                ratios.append(norm / prev_norm ** 2)
            bad = bad + 1 if norm > 4 * prev_norm else 0
            if bad >= 3:
                raise DivergenceError(f"residual diverging at iteration {it}", x, res)
        prev_norm = norm
        if res < tol:
            return NewtonResult(x, res, it, ratios)
    raise DivergenceError(f"no convergence in {maxiter} iterations (residual {res:.2e})",
                          x, res)


def gauss_newton_lockstep(F, starts, tol: float, maxiter: int, condition_limit: float):
    """`gauss_newton` with condition_limit (and no step cap) on a stack of
    independent starts, all stepped together: F maps a (k, n) stack of
    points to (k, m) values and (k, m, n) Jacobians.

    Each start follows gauss_newton's rules.  It converges at once when its
    starting residual is below tol, and fails when its starting Jacobian
    condition exceeds condition_limit, on a non-finite residual, Jacobian or
    step, after three 4x growths of the residual 2-norm in a row, or after
    maxiter steps.  Steps are minimum-norm least squares with lstsq's cutoff
    eps * max(m, n) * sigma_max, from a stacked pseudo-inverse.  A start
    that converges or fails leaves the stack at once, so no non-finite
    member reaches the stacked SVD (which would raise for all of them).
    Sequential callers keep `gauss_newton`: one stacked call costs about
    twice a single-point call.

    Returns (x, converged, iterations): each start's last iterate, whether
    it converged, and the number of steps applied to it."""
    x = np.array(starts, dtype=complex)
    converged = np.zeros(len(x), dtype=bool)
    iterations = np.zeros(len(x), dtype=int)
    if not len(x):
        return x, converged, iterations

    def evaluate(live):
        vals, J = F(x[live])
        res = np.abs(vals).max(axis=1, initial=0.0)
        ok = np.isfinite(res) & np.isfinite(J).all(axis=(1, 2))
        return vals, J, res, ok

    live = np.arange(len(x))
    vals, J, res, ok = evaluate(live)
    done = ok & (res < tol)
    converged[live[done]] = True
    keep = ok & ~done
    live, vals, J = live[keep], vals[keep], J[keep]
    if len(live):
        sv = np.linalg.svd(J, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            keep = sv[:, 0] / sv[:, -1] <= condition_limit
        live, vals, J = live[keep], vals[keep], J[keep]
    # the first step has no previous norm to grow from
    prev_norm, bad = np.full(len(live), np.inf), np.zeros(len(live), dtype=int)
    for it in range(1, maxiter + 1):
        if not len(live):
            break
        m, n = J.shape[1:]
        pinv = np.linalg.pinv(J, rcond=np.finfo(float).eps * max(m, n))
        dx = -(pinv @ vals[:, :, None])[:, :, 0]
        keep = np.isfinite(dx).all(axis=1)
        live, dx, prev_norm, bad = live[keep], dx[keep], prev_norm[keep], bad[keep]
        x[live] += dx
        iterations[live] = it
        vals, J, res, ok = evaluate(live)
        norm = np.linalg.norm(vals, axis=1)
        bad = np.where(norm > 4 * prev_norm, bad + 1, 0)
        ok &= bad < 3
        done = ok & (res < tol)
        converged[live[done]] = True
        keep = ok & ~done
        live, vals, J, prev_norm, bad = live[keep], vals[keep], J[keep], norm[keep], bad[keep]
    return x, converged, iterations


# ---------------------------------------------------------------------------
# the complete structure
# ---------------------------------------------------------------------------

def irreducibility_defect(system: GaugedSystem, coords) -> float:
    """min over generator pairs of |tr[gi, gj] - 2|; 0 iff globally reducible."""
    mats = system.matrices(coords)
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            K = mats[i] @ mats[j] @ np.linalg.inv(mats[i]) @ np.linalg.inv(mats[j])
            worst = max(worst, abs(np.trace(K) - 2))
    return worst


def thurston_rank(system: GaugedSystem, pt: CharacterPoint, threshold=1e-6) -> int:
    """Rank of the log-eigenvalue coordinate differentials (du_1,...,du_h)
    restricted to the tangent space of the gauge slice."""
    vals, J = system.compiled.values_and_jacobian(pt.coords)
    ml, Jml = vals[system.ml_rows], J[system.ml_rows]
    M = (Jml[0::2] / ml[0::2, None]) @ system.tangent_basis(J)
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > threshold))


def find_complete(spec: ManifoldSpec, system: Optional[GaugedSystem] = None,
                  start_matrices=None, multistart: int = 40) -> CharacterPoint:
    """Newton-refine the boundary-parabolic locus and select the discrete
    faithful character matching the shipped seed's orientation.

    Parabolicity is imposed per lift sign: for each sign vector the meridian
    eigenvalue slots are pinned to +-1 (the square trace condition I^2 = 4
    vanishes doubly along the deformation direction, so the slot equations
    are the transversal formulation; all 2^h sign choices are solved).
    """
    system = system or GaugedSystem(spec)
    rng = np.random.default_rng(0)
    h = spec.cusp_count

    starts = []
    if start_matrices is not None:
        starts.append(regauge(start_matrices))
    elif spec.seed_representation is not None:
        starts.append(regauge(spec.seed_representation))
    else:
        nv = len(system.vars)
        for _ in range(multistart):
            starts.append(rng.normal(size=nv) + 1j * rng.normal(size=nv))

    seed_key = None
    if spec.seed_representation is not None:
        try:
            seed_key = system.char_key(regauge(spec.seed_representation))
        except GaugeError:
            seed_key = None

    # the lift sign eps pins each cusp's slot variable (s or p) to eps
    # whatever the power sign: a row x[slot] - eps with a unit gradient
    slots = [cf.slot_index for cf in system.cusps]
    pin_jac = np.eye(len(system.vars), dtype=complex)[slots]
    gauge = system.gauge_rows

    def pinned(eps):
        def F(x):
            vals, J = system.compiled.values_and_jacobian(x)
            return (np.concatenate([vals[gauge], x[slots] - eps]),
                    np.vstack([J[gauge], pin_jac]))
        return F

    candidates = []
    diagnostics = []
    for mask in range(2 ** h):
        eps = [1 - 2 * ((mask >> i) & 1) for i in range(h)]
        F = pinned(np.array(eps))
        for x0 in starts:
            try:
                x = gauss_newton(F, x0, 1e-12, maxiter=80, max_step=5.0).x
            except DivergenceError as e:
                diagnostics.append(f"eps={eps}: residual {e.residual:.2e}")
                continue
            defect = irreducibility_defect(system, x)
            if defect < 1e-6:
                diagnostics.append(f"eps={eps}: converged but reducible (defect {defect:.2e})")
                continue
            if any(abs(system.char_key(x) - system.char_key(c)).max() < 1e-8
                   for c in candidates):
                continue
            candidates.append(x)
    if not candidates:
        raise NoCompleteStructureError(
            f"{spec.name}: no irreducible boundary-parabolic solution found "
            f"({len(diagnostics)} attempts); " + "; ".join(diagnostics[:4]))

    def orient(x):
        if seed_key is None:
            return 0
        key = system.char_key(x)
        if np.max(np.abs(key - seed_key)) < 1e-6:
            return 1
        if np.max(np.abs(key - np.conj(seed_key))) < 1e-6:
            return -1
        return 0

    # the first candidate of the best orientation
    ori, x = max(((orient(x), x) for x in candidates), key=lambda q: q[0])
    pt = make_character_point(system, x, label=f"complete:{spec.name}")
    pt.orientation = ori if ori != 0 else 1
    # parabolic traces certificate
    for c in pt.cusps:
        if abs(c.trace_m ** 2 - 4) >= 1e-10:
            raise NoCompleteStructureError(
                f"{spec.name}: candidate meridian trace defect {abs(c.trace_m**2-4):.2e}")
    return pt
