import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import charvol
from charvol.eigenvar import (EigenvaluePoint, EliminationBudgetError,
                              _remove_extraneous_factors, _scaled_residual,
                              build_extended, eliminate, gamma_act, sample_point)
from charvol.fixtures import fixture_text
from charvol.locus import on_U
from charvol.manifold import parse_spec
from charvol.poly import Polynomial, exact_div
from charvol.repvar import GaugedSystem


def test_build_extended_counts(fig8_extended, wlink_system):
    assert fig8_extended.added_generators == 3
    assert fig8_extended.added_variables == 2
    extw = build_extended(wlink_system)
    assert extw.added_generators == 6
    assert extw.added_variables == 4


def test_extended_system_vanishes_on_samples(fig8_extended, fig8_fillings):
    _, pt, _ = fig8_fillings[0]
    x = sample_point(fig8_extended, pt)
    point = list(pt.coords) + [x.values[0], x.values[1]]
    res = fig8_extended.system.residual(point)
    assert res < 1e-8


def test_sample_point_complete_unit_modulus(fig8_extended, fig8_complete):
    x = sample_point(fig8_extended, fig8_complete)
    m, l = x.cusp(0)
    assert abs(abs(m) - 1) < 1e-10 and abs(abs(l) - 1) < 1e-10
    assert on_U([x.cusp(0)])


def test_sample_point_filled_satisfies_filling(fig8_extended, fig8_fillings):
    _, pt, _ = fig8_fillings[0]  # kappa = (1,5)
    x = sample_point(fig8_extended, pt)
    c = pt.cusps[0]
    # the sampled eigenvalues are those of the lifts on the filling line
    assert abs(np.exp(c.u) - x.cusp(0)[0]) < 1e-9 and abs(np.exp(c.v) - x.cusp(0)[1]) < 1e-9
    assert abs((c.u - c.base_u) + 5 * (c.v - c.base_v) - 2j * np.pi) < 1e-9
    assert not on_U([x.cusp(0)], 1e-3)


def test_eigenvalue_point_rejects_zero():
    with pytest.raises(ValueError):
        EigenvaluePoint(values=np.array([0.0, 1.0]))


def test_gamma_act_involution():
    x = EigenvaluePoint(values=np.array([2.0 + 1j, 0.5]))
    y = gamma_act(x, [0])
    assert abs(y.values[0] - 1 / (2 + 1j)) < 1e-15
    z = gamma_act(y, [0])
    assert np.max(np.abs(z.values - x.values)) < 1e-15
    empty = gamma_act(x, [])
    assert np.max(np.abs(empty.values - x.values)) == 0


def test_on_U_cases():
    assert on_U([(1.0, -1.0)])
    assert not on_U([(2.0, 3.0)])
    assert on_U([(1.0, -1.0), (2.0, 0.5)])


# -- elimination -----------------------------------------------------------------

@pytest.fixture(scope="module")
def fig8_samples(fig8_extended, fig8_fillings):
    out = []
    for _, pt, path in fig8_fillings:
        out.append(sample_point(fig8_extended, pt))
        out.append(sample_point(fig8_extended, path.points[len(path) // 2]))
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
    assert ("eliminate t against pivot with 5 resultants; gcd skipped in the "
            "{l1,m1,p} group: 220-term member over the 120-term cap; "
            "eliminate p") in fig8_eliminant.description
    assert fig8_eliminant.removed_factors.count("-1*m1 + 1*p") == 1


def test_fig8_eliminant_gamma_invariance(fig8_eliminant, fig8_samples):
    p = fig8_eliminant.polynomials[0]
    for x in fig8_samples:
        gx = gamma_act(x, [0])
        assert _scaled_residual(p, gx) < 1e-8


def test_fig8_eliminant_no_unit_monomial_factor(fig8_eliminant):
    """Laurent clearing must not leave m = 0 components in the eliminant."""
    p = fig8_eliminant.polynomials[0]
    assert p.min_degree("m1") == 0
    assert p.min_degree("l1") == 0
    assert len(fig8_eliminant.cleared_monomials) > 0  # clearing was recorded


def test_abelian_eliminant_binomial(abelian_spec):
    ext = build_extended(GaugedSystem(abelian_spec))
    rng = np.random.default_rng(3)
    samples = []
    for _ in range(8):
        s = rng.normal() + 1j * rng.normal()
        for l in (1.0, -1.0):
            samples.append(EigenvaluePoint(values=np.array([s, l])))
    es = eliminate(ext, samples=samples)
    assert es.validated
    # l^2 - 1 divides the binomial relation m^0 l^2 - 1
    assert [p.as_text() for p in es.polynomials] == ["-1 + 1*l1^2"]


# -- removal of extraneous factors ---------------------------------------------

PERIPH = ("m1", "l1")
_m = Polynomial.variable("m1", PERIPH)
_l = Polynomial.variable("l1", PERIPH)
_ONE = Polynomial.constant(1, PERIPH)


def _curve_samples(ms):
    """Eigenvalue points on l = m^2."""
    return [EigenvaluePoint(values=np.array([m, m * m])) for m in ms]


def test_extraneous_factor_divided_out_and_logged():
    p = (_m + _ONE) * (_l - _m * _m)
    q, removed = _remove_extraneous_factors(p, _curve_samples([2.0, 0.5j, 3 - 1j]))
    assert removed == ["1 + 1*m1"]
    assert q == _l - _m * _m or q == _m * _m - _l


def test_factor_vanishing_at_a_sample_is_kept():
    p = (_m + _ONE) * (_l - _m * _m)
    q, removed = _remove_extraneous_factors(p, _curve_samples([2.0, -1.0]))
    assert removed == []
    assert q == p


def test_no_factor_removed_without_samples():
    p = (_m + _ONE) * (_l - _m * _m)
    assert _remove_extraneous_factors(p, None) == (p, [])


def test_wlink_elimination(wlink_system, wlink_fillings):
    ext = build_extended(wlink_system)
    samples = []
    for _, pt, path in wlink_fillings:
        samples.append(sample_point(ext, pt))
        samples.append(sample_point(ext, path.points[len(path) // 2]))
    es = eliminate(ext, samples=samples)
    assert es.validated
    assert "1 + 1*m2^2" in es.removed_factors
    assert len(set(es.removed_factors)) == len(es.removed_factors)
    # both stage groups over the gcd cap and the cut group are on record
    for note in ("gcd skipped in the {l1,l2,m1,m2} group: 1095-term member",
                 "gcd skipped in the {l1,m1,m2} group: 257-term member",
                 "kept 3 of 5 members of the {l1,m1,m2} group"):
        assert note in es.description
    for p in es.polynomials:
        m2 = Polynomial.variable("m2", p.vars)
        with pytest.raises(ValueError):
            exact_div(p, m2 * m2 + Polynomial.constant(1, p.vars))


def test_setup_does_not_import_sympy():
    """sympy is loaded by elimination only: importing the CLI and building
    fig8's gauged and extended systems leave it unimported."""
    src = str(Path(charvol.__file__).resolve().parent.parent)
    code = ("import sys\n"
            "import charvol.cli\n"
            "from charvol.eigenvar import build_extended\n"
            "from charvol.fixtures import load_fixture\n"
            "from charvol.repvar import GaugedSystem\n"
            "build_extended(GaugedSystem(load_fixture('fig8')))\n"
            "print('sympy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_eliminate_budget_error():
    doc = json.loads(fixture_text("abelian"))
    doc.update(name="threegen", generators=3,
               relators=[[1, 2, -1, -2], [3, 1, -3, -1], [3, 2, -3, -2]],
               cusps=[{"meridian": [1], "longitude": [2]}])
    spec = parse_spec(json.dumps(doc))
    ext = build_extended(GaugedSystem(spec))
    with pytest.raises(EliminationBudgetError):
        eliminate(ext)


def test_eliminate_already_peripheral(fig8_extended):
    """Peripheral-only systems are returned unchanged (modulo normalization)."""
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
    stub.system = type("S", (), {"polynomials": [m * l - Polynomial.constant(1, V, lau)]})()
    es = eliminate(stub)
    assert len(es.polynomials) == 1
    assert es.polynomials[0].degree("m1") == 1
