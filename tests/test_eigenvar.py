import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import charvol
from charvol.eigenvar import (EigenvarError, EliminationBudgetError, _localize,
                              _scaled_residual, _slot_substitutions, build_extended,
                              eliminate, extended_point, gamma_act, sample_point)
from charvol.continuation import step_off_complete
from charvol.fixtures import fixture_text
from charvol.locus import on_U
from charvol.manifold import parse_spec
from charvol.poly import Polynomial, exact_div
from charvol.repvar import GaugedSystem


def test_build_extended_counts(fig8_extended, wlink_system):
    assert len(fig8_extended.trace_equations) == 2
    assert len(fig8_extended.peripheral_vars) == 2
    extw = build_extended(wlink_system)
    assert len(extw.trace_equations) == 4
    assert len(extw.peripheral_vars) == 4


def test_extended_system_vanishes_on_samples(fig8_extended, fig8_fillings):
    _, pt, _ = fig8_fillings[0]
    point = extended_point(pt)
    assert len(point) == len(fig8_extended.vars)
    assert max(abs(p.evaluate(point)) for p in fig8_extended.polynomials) < 1e-8


def test_sample_point_names_the_cusp_of_a_trace_mismatch(wlink_fillings):
    """A point whose I_L misses l + 1/l by 1e-6 at cusp 2 is no eigenvalue
    sample; `CharacterPoint.validate` rejects it by the same defects."""
    import copy
    from charvol.repvar import RepVarError
    _, pt, _ = wlink_fillings[0]
    sample_point(pt)
    bad = copy.deepcopy(pt)
    bad.cusps[1].trace_l += 1e-6
    with pytest.raises(EigenvarError, match=r"^cusp 2: slot eigenvalues inconsistent"):
        sample_point(bad)
    with pytest.raises(RepVarError, match="eigenvalue/trace mismatch: 1.00e-06"):
        bad.validate()


def test_sample_point_complete_unit_modulus(fig8_extended, fig8_complete):
    m, l = sample_point(fig8_complete)
    assert abs(abs(m) - 1) < 1e-10 and abs(abs(l) - 1) < 1e-10
    assert on_U([(m, l)])


def test_sample_point_filled_satisfies_filling(fig8_extended, fig8_fillings):
    _, pt, _ = fig8_fillings[0]  # kappa = (1,5)
    m, l = sample_point(pt)
    c = pt.cusps[0]
    # the sampled eigenvalues are those of the lifts on the filling line
    assert abs(np.exp(c.u) - m) < 1e-9 and abs(np.exp(c.v) - l) < 1e-9
    assert abs((c.u - c.base_u) + 5 * (c.v - c.base_v) - 2j * np.pi) < 1e-9
    assert not on_U([(m, l)], 1e-3)


def test_gamma_act_involution():
    x = np.array([2.0 + 1j, 0.5])
    y = gamma_act(x, [0])
    assert abs(y[0] - 1 / (2 + 1j)) < 1e-15
    z = gamma_act(y, [0])
    assert np.max(np.abs(z - x)) < 1e-15
    empty = gamma_act(x, [])
    assert np.max(np.abs(empty - x)) == 0


def test_on_U_cases():
    assert on_U([(1.0, -1.0)])
    assert not on_U([(2.0, 3.0)])
    assert on_U([(1.0, -1.0), (2.0, 0.5)])


# -- elimination -----------------------------------------------------------------

@pytest.fixture(scope="module")
def fig8_samples(fig8_extended, fig8_fillings):
    out = []
    for _, pt, path in fig8_fillings:
        out.append(extended_point(pt))
        out.append(extended_point(path.points[len(path) // 2]))
    return out


@pytest.fixture(scope="module")
def fig8_eliminant(fig8_extended, fig8_samples):
    return eliminate(fig8_extended, samples=fig8_samples)


def test_fig8_eliminant_is_a_polynomial(fig8_eliminant):
    es = fig8_eliminant
    assert len(es.polynomials) == 1
    p = es.polynomials[0]
    assert p.degree("l1") == 2
    assert p.degree("m1") == 8
    assert es.validated
    assert all(r < 1e-8 for r in es.sample_residuals)


def test_fig8_eliminant_matches_classical_a_polynomial(fig8_eliminant):
    """Zero-set check against the known figure-eight A-polynomial at random
    points of the eliminant's zero locus."""
    p = fig8_eliminant.polynomials[0]
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(12):
        m = rng.normal() + 1j * rng.normal()
        if abs(m) < 0.3:
            continue
        # solve p(m, l) = 0 for l via the quadratic coefficients
        c = [complex(0)] * 3
        for e, coef in p.terms.items():
            li = p.vars.index("l1")
            mi = p.vars.index("m1")
            c[e[li]] += complex(coef) * m ** e[mi]
        roots = np.roots([c[2], c[1], c[0]])
        for l in roots:
            a_classical = (m ** 4 * l ** 2 -
                           (m ** 8 - m ** 6 - 2 * m ** 4 - m ** 2 + 1) * l + m ** 4)
            assert abs(a_classical) < 1e-6 * max(1, abs(m) ** 8)
            hits += 1
    assert hits >= 10


def test_fig8_eliminant_equals_published_a_polynomial(fig8_eliminant):
    """Term-by-term oracle: Cooper-Culler-Gillet-Long-Shalen (Invent. Math.
    1994) give l - m^2 l - m^4 - 2 m^4 l - m^4 l^2 - m^6 l + m^8 l."""
    p, _ = fig8_eliminant.polynomials[0].strip_monomial_content()
    published = {(0, 1): 1, (2, 1): -1, (4, 0): -1, (4, 1): -2, (4, 2): -1,
                 (6, 1): -1, (8, 1): 1}
    im, il = p.vars.index("m1"), p.vars.index("l1")
    got = {(e[im], e[il]): c for e, c in p.terms.items()}
    unit = got[0, 1]
    assert unit != 0
    assert got == {k: unit * c for k, c in published.items()}


def test_fig8_elimination_log_records_shortcuts(fig8_eliminant):
    """The chain takes no shortcut: the log holds only the substitution and
    the elimination stages."""
    assert fig8_eliminant.description == (
        "substitute s -> 1*m1; eliminate t against pivot with 4 resultants; "
        "eliminate p against pivot with 1 resultants")
    for note in ("gcd skipped", "kept 3 of", "gcd of", "codimension"):
        assert note not in fig8_eliminant.description
    assert fig8_eliminant.removed_factors.count("-1*m1 + 1*p") == 1
    assert len(set(fig8_eliminant.cleared_monomials)) == \
        len(fig8_eliminant.cleared_monomials)


def test_eliminate_raises_for_samples_on_two_sheets(fig8_extended, fig8_problem,
                                                    fig8_complete, fig8_samples):
    """Over X0 the gauge slice has two sheets, p = m1 and p = 1/m1, which
    meet at the complete structure.  The tracked samples lie on one; with a
    sample from the other sheet no factor vanishes at every sample."""
    V = fig8_extended.vars
    on_first = [abs(x[V.index("p")] - x[V.index("m1")]) < 1e-8 for x in fig8_samples]
    assert len(set(on_first)) == 1
    rng = np.random.default_rng(33)
    for _ in range(10):
        du = 0.15 + rng.uniform(0.0, 0.4) + 1j * rng.uniform(-0.3, 0.3)
        x = extended_point(step_off_complete(fig8_problem, fig8_complete, [du]))
        if (abs(x[V.index("p")] - x[V.index("m1")]) < 1e-8) != on_first[0]:
            break
    else:
        pytest.fail("no random deformation reached the other sheet")
    with pytest.raises(EigenvarError, match="vanishes at every sample"):
        eliminate(fig8_extended, samples=fig8_samples + [x])


def test_fig8_eliminant_gamma_invariance(fig8_eliminant, fig8_samples):
    p = fig8_eliminant.polynomials[0]
    for x in fig8_samples:
        assert _scaled_residual(p, gamma_act(x[-2:], [0])) < 1e-8


def test_fig8_eliminant_no_unit_monomial_factor(fig8_eliminant):
    """Laurent clearing must not leave m = 0 components in the eliminant."""
    p = fig8_eliminant.polynomials[0]
    for var in ("m1", "l1"):
        i = p.vars.index(var)
        assert min(e[i] for e in p.terms) == 0
    assert len(fig8_eliminant.cleared_monomials) > 0  # clearing was recorded


def test_unlocalized_substitutions_take_the_gauge_slot_branch():
    """With meridian [2] and longitude [1] both slots have power -1: m1 = 1/p
    and l1 = 1/s, so the substitutions take those branches."""
    doc = json.loads(fixture_text("abelian"))
    doc["cusps"] = [{"meridian": [2], "longitude": [1]}]
    subs = _slot_substitutions(build_extended(GaugedSystem(parse_spec(json.dumps(doc)))))
    assert {g: val.as_text() for g, val in subs.items()} == {
        "p": "1*m1^-1", "s": "1*l1^-1"}


def test_eliminate_raises_for_a_sample_off_the_slot(fig8_extended, fig8_samples):
    """Every sample must read the slot m1 = s; one with m1 moved lies on no
    factor of the substituted system, so localization refuses it."""
    x = np.array(fig8_samples[0])
    x[fig8_extended.vars.index("m1")] *= 1.1
    with pytest.raises(EigenvarError, match="no factor of a .* vanishes at every sample"):
        eliminate(fig8_extended, samples=fig8_samples + [x])


def test_eliminate_raises_on_a_nonzero_constant(nonhyp_spec):
    """nonhyp's relator makes the two gauge generators equal, which their
    unit off-diagonal entry forbids: the system contains the constant 1,
    which has no factor through any sample."""
    ext = build_extended(GaugedSystem(nonhyp_spec))
    assert any(not p.support_vars() and not p.is_zero() for p in ext.polynomials)
    sample = np.full(len(ext.vars), 1.3 + 0.2j)
    with pytest.raises(EigenvarError, match="no factor of a 1-term polynomial vanishes"):
        eliminate(ext, [sample])


def test_eliminate_raises_for_an_empty_sample_list(abelian_spec, fig8_extended):
    """An empty sample list says nothing about X0."""
    abelian = build_extended(GaugedSystem(abelian_spec))
    for ext in (abelian, fig8_extended):
        with pytest.raises(EigenvarError, match="no samples on X0"):
            eliminate(ext, samples=[])


# -- localizing at the samples ------------------------------------------------

PERIPH = ("m1", "l1")
_m = Polynomial.variable("m1", PERIPH)
_l = Polynomial.variable("l1", PERIPH)
_ONE = Polynomial.constant(1, PERIPH)


def _curve_samples(ms):
    """Points (m, l) on l = m^2."""
    return [np.array([m, m * m]) for m in ms]


def test_localize_keeps_factor_vanishing_at_every_sample():
    p = (_m + _ONE) * (_l - _m * _m)
    removed = []
    q = _localize(p, _curve_samples([2.0, 0.5j, 3 - 1j]), 1e-8, removed)
    assert removed == ["1 + 1*m1"]
    assert q == _m * _m - _l


def test_localize_drops_factor_vanishing_at_some_samples_only():
    p = (_m + _ONE) * (_l - _m * _m)
    removed = []
    q = _localize(p, _curve_samples([2.0, -1.0]), 1e-8, removed)
    assert removed == ["1 + 1*m1"]
    assert q == _m * _m - _l


def test_localize_raises_for_samples_off_the_variety():
    p = (_m + _ONE) * (_l - _m * _m)
    with pytest.raises(EigenvarError):
        _localize(p, [np.array([2.0, 3.0])], 1e-8, [])


@pytest.fixture(scope="module")
def wlink_eliminant(wlink_system, wlink_fillings):
    ext = build_extended(wlink_system)
    samples = []
    for _, pt, path in wlink_fillings:
        samples.append(extended_point(pt))
        samples.append(extended_point(path.points[len(path) // 2]))
    return eliminate(ext, samples=samples)


def test_wlink_elimination(wlink_eliminant):
    es = wlink_eliminant
    assert es.validated
    assert len(set(es.removed_factors)) == len(es.removed_factors)
    # the slot is p = 1/m2, and the substitution takes that branch
    assert "substitute p -> 1*m2^-1" in es.description
    assert [sorted(p.support_vars()) for p in es.polynomials] == [
        ["l1", "m1", "m2"], ["l2", "m1", "m2"]]
    assert [p.as_text() for p in es.polynomials] == [
        ('-1*m2^2 + 1*l1 + 1*l1*m2^4 + -1*l1^2*m2^2 + -1*m1^2*l1 + '
         '-2*m1^2*l1*m2^2 + -1*m1^2*l1*m2^4 + 1*m1^2*l1^2 + '
         '2*m1^2*l1^2*m2^2 + 1*m1^2*l1^2*m2^4 + 1*m1^4*l1*m2^2 + '
         '-1*m1^4*l1^2 + -1*m1^4*l1^2*m2^4 + 1*m1^4*l1^3*m2^2'),
        ('-1*l2 + 1*m2^2*l2 + -1*m2^2*l2^2 + 1*m2^4*l2^2 + 1*m1^2 + '
         '1*m1^2*l2^2 + 2*m1^2*m2^2*l2 + -2*m1^2*m2^2*l2^2 + '
         '-1*m1^2*m2^4*l2 + -1*m1^2*m2^4*l2^3 + -1*m1^4*l2 + '
         '1*m1^4*m2^2*l2 + -1*m1^4*m2^2*l2^2 + 1*m1^4*m2^4*l2^2'),
    ]
    for p in es.polynomials:
        m2 = Polynomial.variable("m2", p.vars)
        with pytest.raises(ValueError):
            exact_div(p, m2 * m2 + Polynomial.constant(1, p.vars))


def test_wlink_eliminants_exchanged_by_cusp_swap(wlink_eliminant):
    """The Whitehead link has a symmetry exchanging its two cusps, so the
    swap (m1, l1) <-> (m2, l2) exchanges the two eliminants up to a unit."""
    first, second = wlink_eliminant.polynomials
    assert first.vars == ("m1", "l1", "m2", "l2")
    swapped = Polynomial(first.vars, {(e[2], e[3], e[0], e[1]): c
                                      for e, c in first.terms.items()})
    quotient = exact_div(second, swapped)
    assert not quotient.support_vars() and not quotient.is_zero()


def test_setup_does_not_import_sympy():
    """sympy is loaded by elimination only: importing the CLI and building
    fig8's gauged and extended systems leave it unimported, and with integer
    coefficients nothing loads `fractions` either."""
    src = str(Path(charvol.__file__).resolve().parent.parent)
    code = ("import sys\n"
            "import charvol.cli\n"
            "from charvol.eigenvar import build_extended\n"
            "from charvol.fixtures import load_fixture\n"
            "from charvol.repvar import GaugedSystem\n"
            "build_extended(GaugedSystem(load_fixture('fig8')))\n"
            "print('sympy' in sys.modules, 'fractions' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False False"


def test_eliminate_budget_error(monkeypatch):
    """Seven variables survive the substitutions: the budget refuses the
    system before any polynomial is factored, whatever the sample."""
    def no_factoring(p):
        raise AssertionError("a polynomial was factored before the budget check")
    monkeypatch.setattr("charvol.eigenvar.factor_list", no_factoring)
    doc = json.loads(fixture_text("abelian"))
    doc.update(name="threegen", generators=3,
               relators=[[1, 2, -1, -2], [3, 1, -3, -1], [3, 2, -3, -2]],
               cusps=[{"meridian": [1], "longitude": [2]}])
    spec = parse_spec(json.dumps(doc))
    ext = build_extended(GaugedSystem(spec))
    sample = np.full(len(ext.vars), 1.3 + 0.2j)
    with pytest.raises(EliminationBudgetError, match="^7 variables remain"):
        eliminate(ext, [sample])


def test_eliminate_already_peripheral(fig8_extended):
    """Peripheral-only systems are returned unchanged (modulo normalization),
    localized and validated at one sample on m*l = 1."""
    from charvol.poly import Polynomial

    class Stub:
        pass

    ext = fig8_extended
    V, lau = ext.vars, ext.laurent
    m = Polynomial.variable("m1", V, lau)
    l = Polynomial.variable("l1", V, lau)
    stub = Stub()
    stub.vars = V
    stub.peripheral_vars = ext.peripheral_vars
    stub.laurent = lau
    stub.gauged = ext.gauged
    stub.polynomials = [m * l - Polynomial.constant(1, V, lau)]
    sample = np.zeros(len(V), dtype=complex)
    sample[V.index("m1")], sample[V.index("l1")] = 2.0, 0.5
    es = eliminate(stub, [sample])
    assert len(es.polynomials) == 1
    assert es.polynomials[0].degree("m1") == 1
    assert es.validated
