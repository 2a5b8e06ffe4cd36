"""The extended variety and the eigenvalue variety.

Adjoining peripheral eigenvalue unit variables (m_i, l_i) to the gauged
system with the three trace generators per cusp

    I_M - (m + 1/m),  I_L - (l + 1/l),  I_ML - (ml + 1/(ml))

gives the extended system.  Projecting its zero locus to the (m_i, l_i)
coordinates sweeps the eigenvalue variety; for few enough variables an
explicit defining eliminant is computed by a resultant tree (the
A-polynomial when there is one cusp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .poly import (Polynomial, PolySystem, ResultantError, exact_div, factor_list,
                   poly_gcd, pseudo_rem, resultant, squarefree_part)
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

        base = [_embed(p, V, lau) for p in gauged.system.polynomials]
        self.gauge_equations = list(base)
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
        self.system = PolySystem(base + self.trace_equations, V, description=(
            f"extended variety of {gauged.spec.name}: gauge slice with "
            "peripheral eigenvalue units adjoined"))

    @property
    def added_generators(self) -> int:
        return len(self.trace_equations)

    @property
    def added_variables(self) -> int:
        return len(self.peripheral_vars)


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


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

@dataclass
class EliminantSet:
    """Polynomials in the peripheral variables cutting out (a superset of)
    the eigenvalue variety's projection, with bookkeeping flags."""
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


def _detect_slot_substitution(eq: Polynomial, gauge_vars, periph_vars):
    """Recognize a trace equation equivalent to (g - w^s)(g w^s - 1) = 0 for a
    gauge variable g and peripheral variable w; returns (g, monomial) or None."""
    support = eq.support_vars()
    gs = [v for v in gauge_vars if v in support]
    ps = [v for v in periph_vars if v in support]
    if len(gs) != 1 or len(ps) != 1:
        return None
    g, w = gs[0], ps[0]
    for power in (1, -1):
        cand = Polynomial.variable(w, eq.vars, eq.laurent, power)
        if eq.subs_var(g, cand).is_zero():
            return g, cand
    return None


def eliminate(ext: ExtendedSystem, samples: Optional[Sequence[EigenvaluePoint]] = None,
              sample_tol: float = 1e-8) -> EliminantSet:
    """Resultant-tree elimination of the gauge variables from the extended
    system, leaving defining equations in the peripheral variables only.

    Substitutes eigenvalue-slot branches first (valid because the eigenvalue
    variety is stable under the per-cusp inversion action, certified by the
    gamma-invariance checks), then eliminates remaining gauge variables by
    pivot resultants in ascending degree, reducing each stage by gcds,
    monomial stripping and squarefree parts.  Raises when more than six
    variables survive the substitutions.  The description records every
    stage group whose gcd the term cap skipped or whose members were cut to
    three."""
    V = ext.vars
    periph = set(ext.peripheral_vars)
    gauge_vars = [v for v in V if v not in periph]
    cleared_log: list[str] = []
    removed_log: list[str] = []

    polys = [p for p in ext.system.polynomials if not p.is_zero()]
    # slot substitutions
    tree = []
    subs: dict[str, Polynomial] = {}
    remaining = []
    for eq in polys:
        hit = _detect_slot_substitution(eq, gauge_vars, ext.peripheral_vars)
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
            work.append(_strip(p, cleared_log, ext.laurent))

    to_eliminate = [v for v in gauge_vars if v not in subs and
                    any(v in p.support_vars() for p in work)]
    live_vars = set().union(*[p.support_vars() for p in work]) if work else set()
    if len(live_vars) > 6:
        raise EliminationBudgetError(
            f"{len(live_vars)} variables remain after substitution "
            "(budget 6); use numerical fiber sampling instead")

    if not to_eliminate:
        final = [p for p in work if p.support_vars() <= periph
                 and p.support_vars() and not p.is_zero()]
        out = []
        for p in final:
            q = _project_to_periph(ext, squarefree_part(p))
            if q not in out:
                out.append(q)
        es = EliminantSet(out, "; ".join(tree) or "already peripheral",
                          cleared_log, removed_log)
        return _validate(es, samples, sample_tol)

    for var in sorted(to_eliminate, key=lambda v: max(p.degree(v) for p in work)):
        stage = []
        users = sorted((p for p in work if p.degree(var) > 0 or p.min_degree(var) < 0),
                       key=lambda p: (p.clear_laurent()[0].degree(var), p.total_terms()))
        passthrough = [p for p in work if p not in users]
        if not users:
            continue
        pivot = _strip(users[0], cleared_log, ext.laurent)
        for f in users[1:]:
            f = _strip(f, cleared_log, ext.laurent)
            r = pseudo_rem(f, pivot, var)
            if r.is_zero():
                continue
            r = _strip(r, cleared_log, ext.laurent)
            cand = None
            # a vanishing resultant means the remainder shares a whole
            # component with the pivot; divide the shared factor out and
            # retry, the honest projection lives in the cofactor
            for _ in range(6):
                if r.degree(var) == 0 and r.min_degree(var) == 0:
                    cand = r
                    break
                try:
                    cand = resultant(pivot, r, var)
                except ResultantError:
                    cand = None
                    break
                if not cand.is_zero():
                    break
                cand = None
                g = poly_gcd(r, pivot)
                if not g.support_vars():
                    break
                r = _strip(exact_div(r, g), cleared_log, ext.laurent)
                removed_log.append(g.as_text())
                if r.is_zero():
                    break
            if cand is None or cand.is_zero():
                continue
            stage.append(_strip(cand, cleared_log, ext.laurent))
        if not stage and not passthrough:
            raise DimensionAnomalyError(
                f"all resultants vanished while eliminating {var}: "
                "the projection is degenerate")
        tree.append(f"eliminate {var} against pivot with {len(stage)} resultants")
        stage, shortcuts = _reduce_stage(stage, cleared_log, ext.laurent)
        tree.extend(shortcuts)
        work = passthrough + stage

    finals = [p for p in work if p.support_vars() <= periph and p.support_vars()
              and not p.is_zero()]
    if not finals:
        raise DimensionAnomalyError("no eliminant in peripheral variables survived")
    h = len(ext.gauged.cusps)
    out_polys: list[Polynomial]
    if h == 1:
        # one cusp: the eigenvalue variety is a plane curve, its defining
        # polynomial is the gcd of all elimination paths
        g = finals[0]
        for f in finals[1:]:
            cand = poly_gcd(g, f)
            if cand.support_vars():
                g = cand
        tree.append(f"gcd of {len(finals)} candidates")
        g = squarefree_part(_strip(g, cleared_log, ext.laurent))
        g, removed = _remove_extraneous_factors(g, samples)
        removed_log.extend(removed)
        out_polys = [g]
    else:
        # higher-codimension projection: return a reduced equation set
        tree.append(f"{len(finals)} final candidates (codimension > 1)")
        out_polys = []
        for f in sorted(finals, key=lambda p: p.total_terms())[:2 * h]:
            f = squarefree_part(_strip(f, cleared_log, ext.laurent))
            f, removed = _remove_extraneous_factors(f, samples)
            removed_log.extend(removed)
            if f.support_vars() and f not in out_polys:
                out_polys.append(f)
    # each removed factor is logged once, in the order first seen
    es = EliminantSet([_project_to_periph(ext, g) for g in out_polys],
                      "; ".join(tree), cleared_log, list(dict.fromkeys(removed_log)))
    return _validate(es, samples, sample_tol)


def _remove_extraneous_factors(p: Polynomial, samples):
    """Divide out the irreducible factors of p that vanish at no validation
    sample (extraneous components such as the reducible locus), returning
    the quotient and the removed factors' texts."""
    removed = []
    if samples is None:
        return p, removed
    for factor, k in factor_list(p):
        if not any(abs(factor.evaluate(_periph_point(factor, x))) < 1e-6 for x in samples):
            p = exact_div(p, factor ** k)
            removed.append(factor.as_text())
    return p, removed


def _periph_point(p: Polynomial, x: EigenvaluePoint) -> list:
    """x's peripheral eigenvalues in the order of p's variables: m_i and l_i
    from the sample, 0 for any other variable."""
    point = []
    for v in p.vars:
        if v.startswith("m") and v[1:].isdigit():
            point.append(x.values[2 * (int(v[1:]) - 1)])
        elif v.startswith("l") and v[1:].isdigit():
            point.append(x.values[2 * (int(v[1:]) - 1) + 1])
        else:
            point.append(0.0)
    return point


def _scaled_residual(p: Polynomial, x: EigenvaluePoint) -> float:
    """|p(x)| scaled by the largest term magnitude at x."""
    pt = [complex(z) for z in _periph_point(p, x)]
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


def _reduce_stage(stage: list[Polynomial], cleared_log, units=None,
                  gcd_term_cap: int = 120) -> tuple[list[Polynomial], list[str]]:
    """Pairwise gcd reduction of a stage's output grouped by variable support.

    gcd attempts are capped by term count.  The cap decides which
    polynomials the next stage sees, and so shapes the elimination tree.
    Returns the reduced stage and one note per shortcut taken: a gcd the
    cap skipped, or a group cut to its three smallest members."""
    groups: dict[frozenset, list[Polynomial]] = {}
    for p in stage:
        groups.setdefault(frozenset(p.support_vars()), []).append(p)
    out, notes = [], []
    for sup, ps in groups.items():
        ps = sorted(ps, key=lambda p: p.total_terms())
        group = "{" + ",".join(sorted(sup)) + "} group"
        over = [f.total_terms() for f in ps[1:3] if f.total_terms() > gcd_term_cap]
        if over:
            notes.append(f"gcd skipped in the {group}: {over[0]}-term member "
                         f"over the {gcd_term_cap}-term cap")
        g = ps[0]
        reduced = False
        for f in ps[1:3]:
            if f.total_terms() > gcd_term_cap:
                break
            cand = poly_gcd(g, f)
            if cand.support_vars():
                g = cand
                reduced = True
        if reduced:
            out.append(_strip(g, cleared_log, units))
            out.extend(ps[1:2])
        else:
            if len(ps) > 3:
                notes.append(f"kept 3 of {len(ps)} members of the {group}")
            out.extend(ps[:3])
    return out, notes


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
