"""The extended variety and the eigenvalue variety.

Adjoining peripheral eigenvalue unit variables (m_i, l_i) to the gauged
system with two trace rows per cusp

    I_M - (m + 1/m),  I_L - (l + 1/l)

gives the extended system.  Projecting its zero locus to the (m_i, l_i)
coordinates sweeps the eigenvalue variety; for few enough variables a
resultant chain localized at the Dehn surgery component X0 gives explicit
eliminants cutting out X0's image (its A-polynomial factor when there is
one cusp).  Localization at X0, not a row I_ML - (ml + 1/(ml)), pairs each
l with its m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .poly import Polynomial, factor_list, resultant
from .repvar import CharacterPoint, GaugedSystem


class EigenvarError(ValueError):
    pass


class EliminationBudgetError(EigenvarError):
    """Too many variables for symbolic elimination; sample numerically instead."""


class DimensionAnomalyError(EigenvarError):
    pass


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
            IM = cf.trace_m.embed(V, lau)
            IL = cf.trace_l.embed(V, lau)
            self.trace_equations += [IM - m - minv, IL - l - linv]
        self.polynomials = [p.embed(V, lau) for p in gauged.polynomials] + \
            self.trace_equations


def build_extended(gauged: GaugedSystem) -> ExtendedSystem:
    return ExtendedSystem(gauged)


# ---------------------------------------------------------------------------
# eigenvalue points
# ---------------------------------------------------------------------------

# the largest scaled residual at which a sample lies on a factor, and at
# which an eliminant is validated; also the largest trace defect of a
# sample's slot eigenvalues, and the largest |w - 1/w| of a slot w at +-1
SAMPLE_TOL = 1e-8


def sample_point(pt: CharacterPoint) -> np.ndarray:
    """Peripheral eigenvalue data of a character point: its slot
    eigenvalues (m_1, l_1, ..., m_h, l_h), checked against its three traces
    per cusp."""
    for i, c in enumerate(pt.cusps, 1):
        defects = c.trace_defects()
        if max(defects) >= SAMPLE_TOL:
            raise EigenvarError(
                f"cusp {i}: slot eigenvalues inconsistent with traces "
                f"(defects {[f'{v:.2e}' for v in defects]})")
    return np.array([z for c in pt.cusps for z in (c.m, c.l)], dtype=complex)


def gamma_act(x: np.ndarray, subset: Sequence[int]) -> np.ndarray:
    """Invert (m_i, l_i) for the cusps in subset (0-based indices)."""
    vals = np.array(x, dtype=complex)
    for i in subset:
        vals[2 * i] = 1 / vals[2 * i]
        vals[2 * i + 1] = 1 / vals[2 * i + 1]
    return vals


def extended_point(pt: CharacterPoint) -> np.ndarray:
    """A character point with its checked slot eigenvalues adjoined: a point
    of the extended variety in `ExtendedSystem.vars` order."""
    return np.concatenate([pt.coords, sample_point(pt)])


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


def _strip(p: Polynomial, log: list[str], units) -> Polynomial:
    """Clear Laurent denominators and strip the monomial content in the unit
    variables, recording the cleared monomials (they flag the extraneous
    loci where an eigenvalue coordinate would vanish)."""
    cleared, _ = p.clear_laurent()
    stripped, removed = cleared.strip_monomial_content(restrict_to=units)
    if any(removed):
        mono = "*".join(f"{v}^{k}" for v, k in zip(p.vars, removed) if k)
        log.append(mono)
    return stripped


def _slot_substitutions(ext: ExtendedSystem) -> dict[str, Polynomial]:
    """The gauge's eigenvalue slots as substitutions g -> w^k: each slot
    polynomial (m, then l, in cusp order) that is a unit power g^k
    (k = +-1) of one gauge variable g reads w = g^k, so g = w^k.  The first
    slot of each gauge variable is kept."""
    subs: dict[str, Polynomial] = {}
    for i, cf in enumerate(ext.gauged.cusps, start=1):
        for w, slot in ((f"m{i}", cf.m_poly), (f"l{i}", cf.l_poly)):
            power = slot.unit_power()
            if power is None or abs(power[1]) != 1 or power[0] in subs:
                continue
            g, k = power
            subs[g] = Polynomial.variable(w, ext.vars, ext.laurent, k)
    return subs


def _localize(p: Polynomial, samples, tol, removed_log: list[str]) -> Polynomial:
    """The product of p's irreducible factors that vanish at every sample,
    each primitive with a positive lex-leading coefficient.  The dropped
    factors are appended to removed_log.  Raises when no factor vanishes at
    every sample, as for a nonzero constant, which has no factor."""
    kept = Polynomial.constant(1, p.vars)
    for factor, _ in factor_list(p):
        if all(_scaled_residual(factor, x) < tol for x in samples):
            kept = kept * factor
        else:
            removed_log.append(factor.as_text())
    if not kept.support_vars():
        raise EigenvarError(f"no factor of a {p.total_terms()}-term polynomial "
                            "vanishes at every sample")
    return kept


def eliminate(ext: ExtendedSystem, samples: Sequence[np.ndarray]) -> EliminantSet:
    """Resultant-chain elimination of the gauge variables from the extended
    system, localized at the component X0 that the samples lie on.

    Samples are points in `ext.vars` order (see `extended_point`) on one
    irreducible component of the extended variety, such as characters
    continued from the complete structure along filling paths.  The gauge's
    eigenvalue slots are substituted first (`_slot_substitutions`); each
    remaining gauge variable is eliminated by the resultants of its
    lowest-degree user (the pivot) with every other user.  Every polynomial
    the chain produces is replaced by the product of its irreducible factors
    that vanish at every sample: X0 is irreducible and lies in the zero set
    of each of them, so exactly the factors containing X0 survive.  The
    eliminants are validated at the samples.  Raises for an empty sample
    list, which says nothing about X0; when every sample has a slot
    eigenvalue at +-1, where both branches of the slot meet; when more than
    six variables survive the substitutions, before any polynomial is
    factored; and when no factor of a polynomial vanishes at every sample
    (samples off the variety or off a slot, or on two of its components,
    or a nonzero constant in the chain)."""
    if len(samples) == 0:
        raise EigenvarError("no samples on X0: the eliminant cannot be localized "
                            "or validated")
    V = ext.vars
    periph = set(ext.peripheral_vars)
    gauge_vars = [v for v in V if v not in periph]
    cleared_log: list[str] = []
    removed_log: list[str] = []

    def localize(p: Polynomial) -> Polynomial:
        return _localize(_strip(p, cleared_log, ext.laurent), samples, SAMPLE_TOL,
                         removed_log)

    subs = _slot_substitutions(ext)
    for g, val in subs.items():
        # at w = +-1 both branches g = w^+-1 hold, so the samples fix neither
        w, _ = val.unit_power()
        iw = V.index(w)
        if all(abs(x[iw] - 1 / x[iw]) < SAMPLE_TOL for x in samples):
            raise EigenvarError(
                f"every sample has {w} = +-1, where both branches of the slot {g} "
                "meet: the samples do not determine X0 (fill every cusp)")
    tree = [f"substitute {g} -> {val.as_text()}" for g, val in subs.items()]
    substituted = []
    # the trace equation a slot solves substitutes to zero
    for p in ext.polynomials:
        for g, val in subs.items():
            p = p.subs_var(g, val)
        if not p.is_zero():
            substituted.append(p)

    live_vars = set().union(*[p.support_vars() for p in substituted])
    if len(live_vars) > 6:
        raise EliminationBudgetError(
            f"{len(live_vars)} variables remain after substitution "
            "(budget 6); use numerical fiber sampling instead")
    work = [localize(p) for p in substituted]

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
                f"all resultants vanished while eliminating {var}: "
                "the projection is degenerate")
        tree.append(f"eliminate {var} against pivot with {len(stage)} resultants")
        work = passthrough + stage

    finals = list(dict.fromkeys(p for p in work if p.support_vars()
                                and p.support_vars() <= periph))
    if not finals:
        raise DimensionAnomalyError("no eliminant in peripheral variables survived")
    # each cleared monomial and removed factor is logged once, in the order first seen
    es = EliminantSet([p.embed(ext.peripheral_vars, frozenset(periph)) for p in finals],
                      "; ".join(tree), list(dict.fromkeys(cleared_log)),
                      list(dict.fromkeys(removed_log)))
    # the peripheral coordinates close `ext.vars`
    return _validate(es, [x[len(gauge_vars):] for x in samples], SAMPLE_TOL)


def _scaled_residual(p: Polynomial, x) -> float:
    """|p(x)| scaled by the largest term magnitude at x (ordered as p.vars)."""
    value, scale = p.evaluate_with_scale(x)
    return abs(value) / max(scale, 1.0)


def _validate(es: EliminantSet, samples, tol) -> EliminantSet:
    es.sample_residuals = [max(_scaled_residual(p, x) for x in samples)
                           for p in es.polynomials]
    es.validated = all(r < tol for r in es.sample_residuals)
    return es
