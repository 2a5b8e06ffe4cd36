"""The extended variety and the eigenvalue variety.

Adjoining peripheral eigenvalue unit variables (m_i, l_i) to the gauged
system with the three trace generators per cusp

    I_M - (m + 1/m),  I_L - (l + 1/l),  I_ML - (ml + 1/(ml))

gives the extended system.  Projecting its zero locus to the (m_i, l_i)
coordinates sweeps the eigenvalue variety; for few enough variables a
resultant chain localized at the Dehn surgery component X0 gives explicit
eliminants cutting out X0's image (its A-polynomial factor when there is
one cusp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .poly import Polynomial, factor_list, resultant
from .repvar import CharacterPoint, GaugedSystem


class EigenvarError(ValueError):
    pass


class EliminationBudgetError(EigenvarError):
    """Too many variables for symbolic elimination; sample numerically instead."""


class DimensionAnomalyError(EigenvarError):
    pass


def _embed(p: Polynomial, new_vars: tuple[str, ...], laurent) -> Polynomial:
    idx = [new_vars.index(v) for v in p.vars]
    terms = {}
    for e, c in p.terms.items():
        ne = [0] * len(new_vars)
        for k, x in zip(idx, e):
            ne[k] = x
        terms[tuple(ne)] = c
    return Polynomial(new_vars, terms, laurent)


class ExtendedSystem:
    """GaugedSystem with peripheral eigenvalue variables adjoined."""

    def __init__(self, gauged: GaugedSystem):
        self.gauged = gauged
        h = len(gauged.cusps)
        periph = []
        for i in range(1, h + 1):
            periph += [f"m{i}", f"l{i}"]
        self.peripheral_vars = tuple(periph)
        self.vars = tuple(gauged.vars) + self.peripheral_vars
        self.laurent = frozenset(gauged.laurent) | frozenset(periph)
        V, lau = self.vars, self.laurent

        def var(name, power=1):
            return Polynomial.variable(name, V, lau, power)

        self.trace_equations = []
        for i, cf in enumerate(gauged.cusps, start=1):
            m, l = var(f"m{i}"), var(f"l{i}")
            minv, linv = var(f"m{i}", -1), var(f"l{i}", -1)
            IM = _embed(cf.trace_m, V, lau)
            IL = _embed(cf.trace_l, V, lau)
            IML = _embed(cf.trace_ml, V, lau)
            self.trace_equations += [
                IM - m - minv,
                IL - l - linv,
                IML - m * l - minv * linv,
            ]
        self.polynomials = [_embed(p, V, lau) for p in gauged.polynomials] + \
            self.trace_equations


def build_extended(gauged: GaugedSystem) -> ExtendedSystem:
    return ExtendedSystem(gauged)


# ---------------------------------------------------------------------------
# eigenvalue points
# ---------------------------------------------------------------------------

@dataclass
class EigenvaluePoint:
    """(m_1, l_1, ..., m_h, l_h) in (C \\ 0)^2h."""
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if np.any(self.values == 0):
            raise EigenvarError("eigenvalue coordinates must be nonzero")

    def cusp(self, i: int) -> tuple[complex, complex]:
        return complex(self.values[2 * i]), complex(self.values[2 * i + 1])

    @property
    def cusp_count(self) -> int:
        return len(self.values) // 2


def sample_point(ext: ExtendedSystem, pt: CharacterPoint,
                 tol: float = 1e-8) -> EigenvaluePoint:
    """Peripheral eigenvalue data of a character point, read off the
    eigenvalue slots and checked against the three trace generators."""
    point = EigenvaluePoint(values=ext.gauged.ml_values(pt.coords))
    _check_trace_consistency(pt, point, tol)
    return point


def _check_trace_consistency(pt: CharacterPoint, x: EigenvaluePoint, tol: float):
    for i, c in enumerate(pt.cusps):
        m, l = x.cusp(i)
        checks = (
            abs(m + 1 / m - c.trace_m),
            abs(l + 1 / l - c.trace_l),
            abs(m * l + 1 / (m * l) - c.trace_ml),
        )
        if max(checks) >= tol:
            raise EigenvarError(
                f"cusp {i + 1}: slot eigenvalues inconsistent with traces "
                f"(defects {[f'{v:.2e}' for v in checks]})")


def gamma_act(x: EigenvaluePoint, subset: Sequence[int]) -> EigenvaluePoint:
    """Invert (m_i, l_i) for the cusps in subset (0-based indices)."""
    vals = np.array(x.values, dtype=complex)
    for i in subset:
        vals[2 * i] = 1 / vals[2 * i]
        vals[2 * i + 1] = 1 / vals[2 * i + 1]
    return EigenvaluePoint(values=vals)


def extended_point(ext: ExtendedSystem, pt: CharacterPoint) -> np.ndarray:
    """A character point with its checked slot eigenvalues adjoined: a point
    of the extended variety in `ext.vars` order."""
    return np.concatenate([pt.coords, sample_point(ext, pt).values])


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

@dataclass
class EliminantSet:
    """Polynomials in the peripheral variables cutting out the image of the
    component the samples lie on, with bookkeeping flags."""
    polynomials: list[Polynomial]
    description: str
    cleared_monomials: list[str] = field(default_factory=list)
    removed_factors: list[str] = field(default_factory=list)
    sample_residuals: list[float] = field(default_factory=list)
    validated: bool = False

    def to_json(self):
        return {
            "description": self.description,
            "polynomials": [p.to_json() for p in self.polynomials],
            "text": [p.as_text() for p in self.polynomials],
            "cleared_monomials": self.cleared_monomials,
            "removed_factors": self.removed_factors,
            "sample_residuals": self.sample_residuals,
            "validated": self.validated,
        }


def _strip(p: Polynomial, log: list[str], units=None) -> Polynomial:
    """Clear Laurent denominators and strip unit-variable monomial content,
    recording the cleared monomials (they flag the extraneous loci where an
    eigenvalue coordinate would vanish)."""
    cleared, _ = p.clear_laurent()
    stripped, removed = cleared.strip_monomial_content(
        restrict_to=units if units is not None else p.laurent)
    if any(removed):
        mono = "*".join(f"{v}^{k}" for v, k in zip(p.vars, removed) if k)
        log.append(mono)
    return stripped


def _detect_slot_substitution(eq: Polynomial, gauge_vars, periph_vars, samples, tol):
    """Recognize a trace equation equivalent to (g - w^s)(g w^s - 1) = 0 for a
    gauge variable g and peripheral variable w; returns (g, w^s) for the
    branch g = w^s that the samples lie on (s = 1 without samples), or None.
    Raises when every sample lies on both branches (w = +-1 throughout)."""
    support = eq.support_vars()
    gs = [v for v in gauge_vars if v in support]
    ps = [v for v in periph_vars if v in support]
    if len(gs) != 1 or len(ps) != 1:
        return None
    g, w = gs[0], ps[0]
    ig, iw = eq.vars.index(g), eq.vars.index(w)
    branches = [Polynomial.variable(w, eq.vars, eq.laurent, power) for power in (1, -1)
                if all(abs(x[ig] - x[iw] ** power) < tol * max(1.0, abs(x[ig]))
                       for x in samples or ())]
    branches = [b for b in branches if eq.subs_var(g, b).is_zero()]
    if samples and len(branches) == 2:
        raise EigenvarError(
            f"every sample has {w} = +-1, where both branches of the slot {g} meet: "
            "the samples do not determine X0 (fill every cusp)")
    return (g, branches[0]) if branches else None


def _localize(p: Polynomial, samples, tol, removed_log: list[str]) -> Polynomial:
    """The product of p's irreducible factors that vanish at every sample,
    each primitive with a positive lex-leading coefficient; every factor is
    kept without samples (a constant stays 1).  The dropped factors are
    appended to removed_log."""
    kept = Polynomial.constant(1, p.vars)
    for factor, _ in factor_list(p):
        if all(_scaled_residual(factor, x) < tol for x in samples or ()):
            kept = kept * factor
        else:
            removed_log.append(factor.as_text())
    if samples and not kept.support_vars():
        raise EigenvarError(f"no factor of a {p.total_terms()}-term polynomial "
                            "vanishes at every sample")
    return kept


# the largest scaled residual at which a sample lies on a factor or a slot
# branch, and at which an eliminant is validated
SAMPLE_TOL = 1e-8


def eliminate(ext: ExtendedSystem,
              samples: Optional[Sequence[np.ndarray]] = None) -> EliminantSet:
    """Resultant-chain elimination of the gauge variables from the extended
    system, localized at the component X0 that the samples lie on.

    Samples are points in `ext.vars` order (see `extended_point`) on one
    irreducible component of the extended variety, such as characters
    continued from the complete structure along filling paths.  Slot
    equations are solved first, on the branch the samples lie on; each
    remaining gauge variable is eliminated by the resultants of its
    lowest-degree user (the pivot) with every other user.  Every polynomial
    the chain produces is replaced by the product of its irreducible factors
    that vanish at every sample: X0 is irreducible and lies in the zero set
    of each of them, so exactly the factors containing X0 survive.  Without
    samples (None) every factor is kept and the result is not validated; an
    empty sample list is an error, since it says nothing about X0.  Raises
    when more than six variables survive the substitutions, and when no
    factor of a polynomial vanishes at every sample (samples off the
    variety, or on two of its components), and when the chain contains a
    nonzero constant (the variety is empty)."""
    if samples is not None and len(samples) == 0:
        raise EigenvarError("no samples on X0: the eliminant cannot be localized "
                            "or validated")
    V = ext.vars
    periph = set(ext.peripheral_vars)
    gauge_vars = [v for v in V if v not in periph]
    cleared_log: list[str] = []
    removed_log: list[str] = []

    def localize(p: Polynomial) -> Polynomial:
        kept = _localize(_strip(p, cleared_log, ext.laurent), samples, SAMPLE_TOL,
                         removed_log)
        # a nonzero constant (or a unit monomial, stripped to one) vanishes nowhere
        if not kept.support_vars():
            raise EigenvarError("empty variety: the chain contains a nonzero constant")
        return kept

    tree = []
    subs: dict[str, Polynomial] = {}
    remaining = []
    for eq in ext.polynomials:
        hit = _detect_slot_substitution(eq, gauge_vars, ext.peripheral_vars,
                                        samples, SAMPLE_TOL)
        if hit is not None and hit[0] not in subs:
            subs[hit[0]] = hit[1]
            tree.append(f"substitute {hit[0]} -> {hit[1].as_text()}")
        else:
            remaining.append(eq)
    work = []
    for p in remaining:
        for g, val in subs.items():
            p = p.subs_var(g, val)
        if not p.is_zero():
            work.append(localize(p))

    live_vars = set().union(*[p.support_vars() for p in work])
    if len(live_vars) > 6:
        raise EliminationBudgetError(
            f"{len(live_vars)} variables remain after substitution "
            "(budget 6); use numerical fiber sampling instead")

    to_eliminate = [v for v in gauge_vars if v in live_vars]
    for var in sorted(to_eliminate, key=lambda v: max(p.degree(v) for p in work)):
        users = sorted((p for p in work if p.degree(var) > 0),
                       key=lambda p: (p.degree(var), p.total_terms()))
        if not users:
            continue
        passthrough = [p for p in work if p.degree(var) == 0]
        stage = []
        for f in users[1:]:
            r = resultant(users[0], f, var)
            # a zero resultant: the pair shares its factor through X0
            if not r.is_zero():
                stage.append(localize(r))
        if not stage and not passthrough:
            raise DimensionAnomalyError(
                f"all resultants vanished while eliminating {var}: " +
                ("the projection is degenerate" if samples is not None else
                 "nothing was localized at X0, so the pivot shares its factor "
                 "with every other user; the chain needs samples on X0"))
        tree.append(f"eliminate {var} against pivot with {len(stage)} resultants")
        work = passthrough + stage

    finals = list(dict.fromkeys(p for p in work if p.support_vars()
                                and p.support_vars() <= periph))
    if not finals:
        raise DimensionAnomalyError("no eliminant in peripheral variables survived")
    # each cleared monomial and removed factor is logged once, in the order first seen
    es = EliminantSet([_project_to_periph(ext, p) for p in finals],
                      "; ".join(tree), list(dict.fromkeys(cleared_log)),
                      list(dict.fromkeys(removed_log)))
    # the peripheral coordinates close `ext.vars`
    return _validate(es, None if samples is None else
                     [x[len(gauge_vars):] for x in samples], SAMPLE_TOL)


def _scaled_residual(p: Polynomial, x) -> float:
    """|p(x)| scaled by the largest term magnitude at x (ordered as p.vars)."""
    pt = [complex(z) for z in x]
    total = 0j
    scale = 0.0
    for e, c in p.terms.items():
        term = complex(c)
        for z, k in zip(pt, e):
            if k:
                term *= z ** k
        total += term
        scale = max(scale, abs(term))
    return abs(total) / max(scale, 1.0)


def _project_to_periph(ext: ExtendedSystem, p: Polynomial) -> Polynomial:
    idx = [ext.vars.index(v) for v in ext.peripheral_vars]
    terms = {}
    for e, c in p.terms.items():
        for k, x in enumerate(e):
            if x != 0 and ext.vars[k] not in ext.peripheral_vars:
                raise EigenvarError("projection hit a non-peripheral variable")
        terms[tuple(e[k] for k in idx)] = c
    return Polynomial(ext.peripheral_vars, terms, frozenset(ext.peripheral_vars))


def _validate(es: EliminantSet, samples, tol) -> EliminantSet:
    if samples is None:
        return es
    residuals = []
    for p in es.polynomials:
        worst = max((_scaled_residual(p, x) for x in samples), default=0.0)
        residuals.append(worst)
    es.sample_residuals = residuals
    es.validated = all(r < tol for r in residuals)
    return es
