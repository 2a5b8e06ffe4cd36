from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvol.poly import (CompiledSystem, Polynomial, ResultantError,
                          SymMatrix2, VariableMismatchError, exact_div, factor_list,
                          poly_gcd, pseudo_rem, resultant, squarefree_part, trace_poly,
                          word_matrix)

V = ("x", "y", "z")


def var(name, power=1):
    return Polynomial.variable(name, V, power=power)


def const(c):
    return Polynomial.constant(c, V)


coef = st.integers(min_value=-4, max_value=4)
exponent = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


@st.composite
def polys(draw, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = draw(exponent)
        c = draw(coef)
        if c:
            terms[e] = c
    return Polynomial(V, terms)


# -- arithmetic --------------------------------------------------------------

def test_add_cancels():
    x = var("x")
    assert (x + (-x)).is_zero()


def test_integer_product():
    x = var("x")
    p = (x + const(1)) * (x - const(1))
    assert p == x * x - const(1)


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3), Fraction(0), 0.5, 2.0])
def test_non_integer_coefficient_raises(c):
    with pytest.raises(TypeError):
        Polynomial(V, {(1, 0, 0): c})
    with pytest.raises(TypeError):
        const(c)


def test_subs_var_inverts_unit_monomials_only():
    """m + 1/m at m = -y is -y - 1/y; at m = 2y the inverse 1/(2y) has no
    integer coefficient."""
    W = ("m", "y")
    lau = frozenset(W)
    m = Polynomial.variable("m", W, lau)
    minv = Polynomial.variable("m", W, lau, power=-1)
    y = Polynomial.variable("y", W, lau)
    yinv = Polynomial.variable("y", W, lau, power=-1)
    assert (m + minv).subs_var("m", -y) == -y - yinv
    with pytest.raises(ValueError):
        (m + minv).subs_var("m", y * Polynomial.constant(2, W, lau))


def test_laurent_unit_product():
    W = ("m",)
    m = Polynomial.variable("m", W, laurent=frozenset({"m"}))
    minv = Polynomial.variable("m", W, laurent=frozenset({"m"}), power=-1)
    assert (m * minv) == Polynomial.constant(1, W, frozenset({"m"}))


def test_variable_mismatch_raises():
    p = var("x")
    q = Polynomial.variable("x", ("x", "y"))
    with pytest.raises(VariableMismatchError):
        p + q


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p


# -- evaluation ---------------------------------------------------------------

def test_evaluate_examples():
    x = var("x")
    assert abs((x * x + const(1)).evaluate([1j, 0, 0])) < 1e-15
    W = ("m",)
    m = Polynomial.variable("m", W, laurent=frozenset({"m"}))
    minv = Polynomial.variable("m", W, laurent=frozenset({"m"}), power=-1)
    assert abs((m + minv).evaluate([1.0]) - 2) < 1e-15


def test_evaluate_zero_laurent_raises():
    W = ("m",)
    minv = Polynomial.variable("m", W, laurent=frozenset({"m"}), power=-1)
    with pytest.raises(ZeroDivisionError):
        minv.evaluate([0.0])


@settings(max_examples=40)
@given(polys())
def test_evaluate_matches_term_sum_oracle(p):
    rng = np.random.default_rng(11)
    pt = rng.normal(size=3) + 1j * rng.normal(size=3)
    # brute-force term-by-term oracle
    expected = 0j
    for e, c in p.terms.items():
        term = complex(c)
        for z, k in zip(pt, e):
            term *= z ** k
        expected += term
    assert abs(p.evaluate(pt) - expected) <= 1e-9 * max(1.0, abs(expected))


def test_evaluate_with_scale_reads_the_largest_term():
    p = 3 * var("x") - 2 * var("y")
    assert p.evaluate_with_scale([1, 2, 0]) == (-1 + 0j, 4.0)
    assert const(0).evaluate_with_scale([1, 2, 0]) == (0j, 0.0)
    with pytest.raises(ValueError, match="arity"):
        p.evaluate_with_scale([1, 2])


def test_unit_power_reads_a_bare_power_of_one_variable():
    W = ("m", "y")
    assert Polynomial.variable("m", W, frozenset({"m"}), -1).unit_power() == ("m", -1)
    assert var("y", 3).unit_power() == ("y", 3)
    for p in (2 * var("x"), var("x") * var("y"), var("x") + const(1), const(1), const(0)):
        assert p.unit_power() is None


def test_embed_keeps_exponents_and_drops_only_absent_variables():
    p = var("x") * var("z", 2) + const(5)
    W = ("w", "z", "x")
    q = p.embed(W, frozenset({"w"}))
    assert q.vars == W and q.laurent == frozenset({"w"})
    assert q.terms == {(0, 2, 1): 1, (0, 0, 0): 5}
    assert q.embed(V, frozenset()) == p
    with pytest.raises(VariableMismatchError, match=r"cannot drop \['z'\]"):
        p.embed(("x", "y"), frozenset())


# -- differentiation -----------------------------------------------------------

def test_differentiate_laurent():
    W = ("m",)
    lau = frozenset({"m"})
    m = Polynomial.variable("m", W, laurent=lau)
    minv = Polynomial.variable("m", W, laurent=lau, power=-1)
    d = (m + minv).differentiate("m")
    expect = Polynomial.constant(1, W, lau) - Polynomial(
        W, {(-2,): 1}, lau)
    assert d == expect


def test_differentiate_constant_and_unknown_var():
    assert const(7).differentiate("x").is_zero()
    with pytest.raises(ValueError):
        const(7).differentiate("w")


@settings(max_examples=30)
@given(polys())
def test_differentiate_matches_central_difference(p):
    rng = np.random.default_rng(5)
    pt = rng.normal(size=3) + 1j * rng.normal(size=3)
    h = 1e-6
    d = p.differentiate("x")
    up = p.evaluate([pt[0] + h, pt[1], pt[2]])
    dn = p.evaluate([pt[0] - h, pt[1], pt[2]])
    fd = (up - dn) / (2 * h)
    exact = d.evaluate(pt)
    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


@settings(max_examples=30)
@given(polys(), polys())
def test_derivative_linearity_and_product_rule(p, q):
    dx = lambda f: f.differentiate("y")
    assert dx(p + q) == dx(p) + dx(q)
    assert dx(p * q) == dx(p) * q + p * dx(q)


# -- division, gcd, resultants ---------------------------------------------------

def test_exact_div_roundtrip():
    x, y = var("x"), var("y")
    f = (x + y) * (const(3) * x * x - const(2) * y)
    assert exact_div(f, x + y) == const(3) * x * x - const(2) * y
    assert exact_div(f * const(6), (x + y) * const(2)) == const(9) * x * x - const(6) * y
    # a rational quotient is not an integer polynomial
    with pytest.raises(ValueError):
        exact_div(x + const(1), const(6) * x + const(6))
    with pytest.raises(ValueError):
        exact_div(x * x + const(1), x + const(1))


def test_poly_gcd_common_factor():
    x, y = var("x"), var("y")
    g = x * y - const(2)
    # the integer contents 6 and 4 share 2, which the gcd over Z keeps
    f1 = const(6) * g * (x + const(1))
    f2 = const(-4) * g * (const(3) * y + const(1))
    assert poly_gcd(f1, f2) == const(2) * g
    assert poly_gcd(g * (x + const(1)), g * (const(3) * y + const(1))) == g


def test_squarefree_part():
    x, y = var("x"), var("y")
    p = (x - y) * (x - y) * (x + const(2))
    sq = squarefree_part(p)
    assert sq.degree("x") == 2
    assert exact_div(p, x - y).degree("x") == 2


def test_squarefree_part_keeps_factors_free_of_a_variable():
    """Every distinct factor survives, also those without x (here y + 1)."""
    x, y = var("x"), var("y")
    p = (x - y) ** 2 * (y + const(1)) * (x * x + const(1))
    assert squarefree_part(p) == (x - y) * (y + const(1)) * (x * x + const(1))


def test_factor_list_irreducible_factors():
    x, y = var("x"), var("y")
    p = const(-3) * (x - y) ** 2 * (y + const(1)) * (x * x + const(1))
    got = dict(factor_list(p))
    # primitive factors with a positive lex-leading coefficient; -3 is dropped
    assert got == {x - y: 2, y + const(1): 1, x * x + const(1): 1}


def test_resultant_linear_pair():
    W = ("x", "a", "b")
    x = Polynomial.variable("x", W)
    a = Polynomial.variable("a", W)
    b = Polynomial.variable("b", W)
    r = resultant(x - a, x - b, "x")
    assert r == a - b or r == b - a
    # an integer-scaled pair: the Sylvester determinant carries the scale
    two = Polynomial.constant(2, W)
    assert resultant(two * (x - a), x - b, "x") == two * (a - b)


def test_pseudo_rem_contract():
    """lc(g)^(df-dg+1) f = q g + r, with the full power of lc(g) also when a
    reduction step drops the degree by more than one."""
    W = ("x", "y")
    x = Polynomial.variable("x", W)
    y = Polynomial.variable("y", W)
    one, two = Polynomial.constant(1, W), Polynomial.constant(2, W)
    # x^3 by 2x^2 + 1: 2^2 x^3 = (2x)(2x^2 + 1) - 2x
    assert pseudo_rem(x * x * x, two * x * x + one, "x") == -(two * x)
    # x^2 y + 1 by y x + 2: y^2 (x^2 y + 1) = (x y - 2)(y x + 2) y + y^2 + 4y
    assert pseudo_rem(x * x * y + one, y * x + two, "x") == \
        y * y + Polynomial.constant(4, W) * y
    # g of degree 0 in x: the remainder is 0
    assert pseudo_rem(x * x * y + one, two * y + one, "x").is_zero()


def test_resultant_quadratic():
    W = ("x", "c", "d")
    x = Polynomial.variable("x", W)
    c = Polynomial.variable("c", W)
    d = Polynomial.variable("d", W)
    r = resultant(x * x - c, x - d, "x")
    assert r == d * d - c


def test_resultant_degree_zero_errors():
    x = var("x")
    with pytest.raises(ResultantError):
        resultant(x, const(3), "x")


def test_resultant_vanishes_iff_common_root():
    x, y = var("x"), var("y")
    f = (x - y) * (x + const(1))
    g = (x - y) * (x - const(2))
    assert resultant(f, g, "x").is_zero()
    g2 = (x + y) * (x - const(2))
    r = resultant(f, g2, "x")
    assert not r.is_zero()


# -- matrices and words -----------------------------------------------------------

def _gauge_gens():
    W = ("s", "p", "t")
    lau = frozenset({"s", "p"})
    s = Polynomial.variable("s", W, lau)
    sinv = Polynomial.variable("s", W, lau, power=-1)
    p = Polynomial.variable("p", W, lau)
    pinv = Polynomial.variable("p", W, lau, power=-1)
    t = Polynomial.variable("t", W, lau)
    one = Polynomial.constant(1, W, lau)
    zero = Polynomial.constant(0, W, lau)
    return [SymMatrix2(s, one, zero, sinv), SymMatrix2(p, zero, t, pinv)]


def test_word_matrix_identity_and_inverse():
    gens = _gauge_gens()
    E = word_matrix((), gens)
    assert E.a == Polynomial.constant(1, E.a.vars, E.a.laurent)
    assert E.b.is_zero() and E.c.is_zero()
    AAinv = word_matrix((1, -1), gens)
    assert AAinv.a == E.a and AAinv.b.is_zero() and AAinv.c.is_zero()
    single = word_matrix((1,), gens)
    assert single.a == gens[0].a and single.b == gens[0].b


def test_trace_examples():
    gens = _gauge_gens()
    assert trace_poly((), gens) == Polynomial.constant(2, gens[0].a.vars, gens[0].a.laurent)
    tr = trace_poly((1,), gens)
    s = Polynomial.variable("s", tr.vars, tr.laurent)
    sinv = Polynomial.variable("s", tr.vars, tr.laurent, power=-1)
    assert tr == s + sinv


def test_trace_conjugation_invariance_numeric():
    """tr(w) equals tr of the reversed-inverse conjugate at random points."""
    gens = _gauge_gens()
    rng = np.random.default_rng(2)
    w = (1, 2, -1, 2, 2, -1)
    winv = tuple(-g for g in reversed(w))
    t1 = trace_poly(w, gens)
    t2 = trace_poly(winv, gens)
    for _ in range(10):
        pt = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert abs(t1.evaluate(pt) - t2.evaluate(pt)) < 1e-9 * max(1, abs(t1.evaluate(pt)))


# -- systems, serialization, compilation ----------------------------------------

def test_serialization_roundtrip():
    p = var("x") * const(-3) + var("y") ** 3
    d = p.to_json()
    assert d["vars"] == list(V)
    assert d["terms"] == [{"exp": [0, 3, 0], "re": "1", "im": "0"},
                          {"exp": [1, 0, 0], "re": "-3", "im": "0"}]
    assert Polynomial(V, {tuple(t["exp"]): int(t["re"]) for t in d["terms"]}) == p


def test_compiled_system_matches_evaluate():
    rng = np.random.default_rng(9)
    x, y, z = (var(n) for n in V)
    ps = [x * y - z ** 2 + const(-2), (x + y + const(1)) ** 2]
    cs = CompiledSystem(ps, V)
    for _ in range(5):
        pt = rng.normal(size=3) + 1j * rng.normal(size=3)
        vals, J = cs.values_and_jacobian(pt)
        for k, p in enumerate(ps):
            assert abs(vals[k] - p.evaluate(pt)) < 1e-12 * max(1, abs(vals[k]))
            for j, name in enumerate(V):
                d = p.differentiate(name).evaluate(pt)
                assert abs(J[k, j] - d) < 1e-12 * max(1, abs(d))


@pytest.mark.parametrize("name", ["fig8", "wlink"])
def test_compiled_stack_equals_single_points_bytewise(name):
    """A stacked call gives each row exactly the bytes of a single-point call,
    for the gauged and the extended system (Laurent rows included), through
    each of the three evaluation methods.  Points with s = 0 or p = 0 raise
    those units to negative powers, so their rows carry inf and nan."""
    from charvol.eigenvar import build_extended
    from charvol.fixtures import load_fixture
    from charvol.repvar import GaugedSystem
    gauged = GaugedSystem(load_fixture(name))
    ext = build_extended(gauged)
    rng = np.random.default_rng(31)
    for cs in (gauged.compiled, CompiledSystem(ext.polynomials, ext.vars)):
        X = rng.normal(size=(200, cs.nvars)) + 1j * rng.normal(size=(200, cs.nvars))
        X[:10, cs.vars.index("s")] = 0
        X[10:20, cs.vars.index("p")] = 0
        vals, J = cs.values_and_jacobian(X)
        assert vals.shape == (200, cs.npolys) and J.shape == (200, cs.npolys, cs.nvars)
        assert not np.isfinite(J[:10]).all() and not np.isfinite(J[10:20]).all()
        assert cs.values(X).tobytes() == vals.tobytes()
        assert cs.jacobian(X).tobytes() == J.tobytes()
        for x, v, j in zip(X, vals, J):
            v1, j1 = cs.values_and_jacobian(x)
            assert v.tobytes() == v1.tobytes() and j.tobytes() == j1.tobytes()
            assert cs.values(x).tobytes() == v1.tobytes()
            assert cs.jacobian(x).tobytes() == j1.tobytes()
        v1, j1 = cs.values_and_jacobian(X[:1])  # a stack of one
        assert v1.shape == (1, cs.npolys) and j1.shape == (1, cs.npolys, cs.nvars)
        assert v1.tobytes() == vals[:1].tobytes() and j1.tobytes() == J[:1].tobytes()
        assert cs.values(X[:1]).tobytes() == v1.tobytes()
        assert cs.jacobian(X[:1]).tobytes() == j1.tobytes()


def test_compiled_shapes_of_empty_system_and_zero_polynomial():
    """No polynomials give empty rows of the input's rank; a polynomial
    without terms gives zero value and Jacobian rows, at a point and on a
    stack alike."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    empty = CompiledSystem([], V)
    for x, lead in ((X[0], ()), (X, (4,))):
        vals, J = empty.values_and_jacobian(x)
        assert vals.shape == lead + (0,) and J.shape == lead + (0, 3)
        assert empty.values(x).shape == lead + (0,) and empty.jacobian(x).shape == lead + (0, 3)
    zero = Polynomial(V, {})
    cs = CompiledSystem([var("x") * var("y"), zero], V)
    for x, lead in ((X[0], ()), (X, (4,))):
        vals, J = cs.values_and_jacobian(x)
        assert vals.shape == lead + (2,) and J.shape == lead + (2, 3)
        assert not vals[..., 1].any() and not J[..., 1, :].any()
        assert cs.values(x).tobytes() == vals.tobytes()
