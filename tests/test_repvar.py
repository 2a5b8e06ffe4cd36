import json

import numpy as np
import pytest

from charvol.fixtures import fixture_text, load_fixture
from charvol.manifold import parse_spec
from charvol.matrices import regauge, numeric_word_matrix, sl2_inverse
from charvol.repvar import (GaugedSystem, NoCompleteStructureError, RepVarError,
                            enumerate_twists, find_complete,
                            gauss_newton_lockstep, irreducibility_defect,
                            least_squares_steps, make_character_point)
from charvol.locus import on_V, traces
from oracles import apply_twist, random_sl2, thurston_rank


def test_build_gauged_system_fig8(fig8_system):
    # one relator in balanced form: four entry equations over (s, p, t)
    assert fig8_system.vars == ("s", "p", "t")
    assert len(fig8_system.polynomials) == 4


def test_gauged_system_requires_eigenvalue_slots():
    doc = json.loads(fixture_text("fig8"))
    doc["cusps"] = [{"meridian": [1, 2], "longitude": [1, 2, 1, 2]}]
    spec = parse_spec(json.dumps(doc))
    with pytest.raises(RepVarError, match="cusp 1 meridian"):
        GaugedSystem(spec)


@pytest.mark.parametrize("meridian", [[1], [-1], [2], [-2]])
def test_meridian_slot_reads_the_meridian_eigenvalue(meridian):
    """m = x[index] ** power at any point, for each of the four
    bare-generator meridians."""
    doc = json.loads(fixture_text("fig8"))
    doc["cusps"] = [{"meridian": meridian, "longitude": doc["cusps"][0]["longitude"]}]
    system = GaugedSystem(parse_spec(json.dumps(doc)))
    (cf,) = system.cusps
    index, power = cf.meridian_slot
    assert (system.vars[index], power) == {1: ("s", 1), -1: ("s", -1),
                                           2: ("p", -1), -2: ("p", 1)}[meridian[0]]
    x = np.random.default_rng(2).normal(size=len(system.vars)) + 0.5j
    m = system.compiled.values(x)[system.ml_rows][0]
    assert m == pytest.approx(x[index] ** power, rel=1e-15)


def test_build_gauged_free_group():
    doc = json.loads(fixture_text("abelian"))
    doc["relators"] = []
    doc["cusps"] = [{"meridian": [1], "longitude": [1]}]
    doc["name"] = "free2"
    spec = parse_spec(json.dumps(doc))
    gs = GaugedSystem(spec)
    # no relators: only the gauge parametrization, a 3-dimensional slice
    assert len(gs.polynomials) == 0
    assert len(gs.vars) == 3


def test_build_gauged_rejects_one_generator():
    doc = json.loads(fixture_text("abelian"))
    doc.update(name="rank1", generators=1, relators=[],
               cusps=[{"meridian": [1], "longitude": [1]}])
    spec = parse_spec(json.dumps(doc))
    with pytest.raises(RepVarError):
        GaugedSystem(spec)


def test_third_generator_gets_det_equation():
    doc = json.loads(fixture_text("abelian"))
    doc.update(name="threegen", generators=3,
               relators=[[1, 2, -1, -2], [3, 1, -3, -1]],
               cusps=[{"meridian": [1], "longitude": [2]}])
    spec = parse_spec(json.dumps(doc))
    gs = GaugedSystem(spec)
    assert len(gs.vars) == 7
    assert len(gs.polynomials) == 2 * 4 + 1  # two relators + det - 1


# -- complete structures -----------------------------------------------------

def test_fig8_complete(fig8_spec, fig8_system, fig8_complete):
    pt = fig8_complete
    assert pt.residual < 1e-12
    assert pt.orientation == 1
    for c in pt.cusps:
        assert abs(c.trace_m ** 2 - 4) < 1e-10
        assert abs(c.trace_l ** 2 - 4) < 1e-10
    assert pt.validate()
    assert on_V(traces(pt))


def test_wlink_complete(wlink_complete):
    assert wlink_complete.residual < 1e-12
    assert len(wlink_complete.cusps) == 2
    assert all(abs(c.trace_m ** 2 - 4) < 1e-10 for c in wlink_complete.cusps)


def test_complete_conjugate_seed_flagged(fig8_spec, fig8_system):
    conj = tuple(np.conj(M) for M in fig8_spec.seed_representation)
    pt = find_complete(fig8_system, start_matrices=conj)
    assert pt.orientation == -1


def test_complete_thurston_rank(fig8_system, fig8_complete, wlink_system, wlink_complete):
    assert thurston_rank(fig8_system, fig8_complete) == 1
    assert thurston_rank(wlink_system, wlink_complete) == 2


@pytest.mark.parametrize("name", ["abelian", "nonhyp"])
def test_controls_have_no_complete_structure(name):
    spec = load_fixture(name)
    with pytest.raises(NoCompleteStructureError):
        find_complete(GaugedSystem(spec), multistart=20)


def test_failed_newton_diagnostics_report_residual():
    # `complete --spec nonhyp` writes these strings into its report
    with pytest.raises(NoCompleteStructureError,
                       match=r"\(40 attempts\); eps=\[1\]: 20 attempts, 0 converged but reducible, "
                             r"20 diverged \(best residual 1\.00e\+00\); eps=\[-1\]: 20 attempts"):
        find_complete(GaugedSystem(load_fixture("nonhyp")), multistart=20)


def test_newton_reconverges_from_perturbation(fig8_system, fig8_complete):
    """The boundary-parabolic system (all unit slots pinned) is full rank at
    the complete structure; a 1e-3 perturbation reconverges to the point."""
    rng = np.random.default_rng(0)
    x0 = fig8_complete.coords + 1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    from charvol.repvar import gauss_newton
    gauge = fig8_system.gauge_rows
    slots = [fig8_system.vars.index(n) for n in ("s", "p")]

    def F(x):
        # the gauge rows plus the pins s - 1 and p - 1 with unit gradients
        vals, J = fig8_system.compiled.values_and_jacobian(x)
        return (np.concatenate([vals[gauge], x[slots] - 1]),
                np.vstack([J[gauge], np.eye(3, dtype=complex)[slots]]))
    r = gauss_newton(F, x0, 1e-12, maxiter=80, max_step=5.0)
    assert r.residual < 1e-12
    assert np.max(np.abs(r.x - fig8_complete.coords)) < 1e-10


# -- one compiled evaluation ----------------------------------------------------

def _symbolic_generators(system):
    """The documented gauge as symbolic matrices: [[s, 1], [0, 1/s]],
    [[p, 0], [t, 1/p]] and free entries a_j, b_j, c_j, d_j from j = 3."""
    from charvol.poly import Polynomial, SymMatrix2
    V, lau = system.vars, system.laurent

    def var(name, power=1):
        return Polynomial.variable(name, V, lau, power)
    one, zero = Polynomial.constant(1, V, lau), Polynomial.constant(0, V, lau)
    return [SymMatrix2(var("s"), one, zero, var("s", -1)),
            SymMatrix2(var("p"), zero, var("t"), var("p", -1)),
            *(SymMatrix2(var(f"a{j}"), var(f"b{j}"), var(f"c{j}"), var(f"d{j}"))
              for j in range(3, system.spec.generators + 1))]


@pytest.mark.parametrize("name", ["fig8", "wlink"])
def test_row_ranges_match_separately_compiled_roles(name, request):
    """Each role's rows of the one compiled system evaluate like a system
    compiled from that role's polynomials alone, values and Jacobian."""
    from charvol.poly import CompiledSystem, trace_poly
    system = request.getfixturevalue(f"{name}_system")
    gens = _symbolic_generators(system)
    roles = {
        "gauge_rows": system.polynomials,
        "trace_rows": [p for cf in system.cusps for p in (cf.trace_m, cf.trace_l, cf.trace_ml)],
        "ml_rows": [p for cf in system.cusps for p in (cf.m_poly, cf.l_poly)],
        "key_rows": [trace_poly(w, gens) for w in system.key_words],
    }
    # the four ranges tile the compiled rows in order
    starts = [getattr(system, attr).start for attr in roles]
    stops = [getattr(system, attr).stop for attr in roles]
    assert starts == [0] + stops[:-1] and stops[-1] == system.compiled.npolys
    rng = np.random.default_rng(11)
    n = len(system.vars)
    for _ in range(5):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        vals, J = system.compiled.values_and_jacobian(x)
        for attr, polys in roles.items():
            rows = getattr(system, attr)
            v, Jr = CompiledSystem(polys, system.vars).values_and_jacobian(x)
            assert vals[rows].shape == v.shape and J[rows].shape == Jr.shape
            assert np.all(np.abs(vals[rows] - v) <= 1e-13 * np.maximum(1, np.abs(v))), attr
            assert np.all(np.abs(J[rows] - Jr) <= 1e-13 * np.maximum(1, np.abs(Jr))), attr


def test_make_character_point_evaluates_once(fig8_system, fig8_complete, block_calls):
    before = len(block_calls)
    pt = make_character_point(fig8_system, fig8_complete.coords + 1e-3, prev=fig8_complete)
    assert len(block_calls) - before == 1
    assert pt.residual == fig8_system.gauge_residual(fig8_system.compiled.values(pt.coords))
    vals = fig8_system.compiled.values(pt.coords)
    assert np.array_equal(pt.trace_vector(), vals[fig8_system.trace_rows])
    assert np.array_equal([v for c in pt.cusps for v in (c.m, c.l)], vals[fig8_system.ml_rows])


# -- traces, V, character points ------------------------------------------------

def test_restriction_traces_vector(fig8_complete):
    z = fig8_complete.trace_vector()
    assert z.shape == (3,)
    assert abs(z[0] - 2) < 1e-10 and abs(z[1] + 2) < 1e-10


def test_restriction_traces_conjugation_invariant(fig8_system, fig8_fillings):
    # conjugate a generic (non-parabolic) representation and re-gauge; the
    # parabolic complete structure has defective eigenvectors and no gauge
    rng = np.random.default_rng(4)
    _, filled, _ = fig8_fillings[0]
    mats = fig8_system.matrices(filled.coords)
    C = random_sl2(rng)
    conj = [C @ M @ sl2_inverse(C) for M in mats]
    coords = regauge(conj)
    pt = make_character_point(fig8_system, coords)
    assert np.max(np.abs(pt.trace_vector() - filled.trace_vector())) < 1e-8


def test_on_V_cases(fig8_complete, fig8_fillings):
    assert on_V(traces(fig8_complete))
    _, filled, path = fig8_fillings[0]
    assert not on_V(traces(filled))
    # a point with meridian trace well away from +-2 is off V
    mid = path.points[len(path) // 2]
    assert not on_V(traces(mid))


def test_diagonal_representation_traces():
    z, w = 0.7 + 0.4j, 1.3 - 0.2j
    A = np.diag([z, 1 / z])
    B = np.diag([w, 1 / w])
    assert abs(np.trace(numeric_word_matrix((1,), [A, B])) - (z + 1 / z)) < 1e-12


# -- twists ---------------------------------------------------------------------

def test_enumerate_twists_counts(fig8_spec, wlink_spec):
    assert len(enumerate_twists(fig8_spec)) == 2
    assert len(enumerate_twists(wlink_spec)) == 4


def test_enumerate_twists_trivial_only():
    doc = json.loads(fixture_text("abelian"))
    doc.update(name="killed", relators=[[1], [2]],
               cusps=[{"meridian": [1], "longitude": [2]}])
    spec = parse_spec(json.dumps(doc))
    tws = enumerate_twists(spec)
    assert len(tws) == 1 and tws[0].is_trivial()


def test_apply_twist_involution_and_signs(fig8_spec, fig8_system, fig8_complete):
    tw = [t for t in enumerate_twists(fig8_spec) if not t.is_trivial()][0]
    pt2 = apply_twist(fig8_complete, tw, fig8_system)
    sm = tw.on_word(fig8_system.cusps[0].meridian)
    assert abs(pt2.cusps[0].trace_m - sm * fig8_complete.cusps[0].trace_m) < 1e-12
    assert pt2.residual < 1e-10
    pt3 = apply_twist(pt2, tw, fig8_system)
    assert np.max(np.abs(pt3.coords - fig8_complete.coords)) < 1e-12


def test_apply_twist_trivial_identity(fig8_spec, fig8_system, fig8_complete):
    triv = [t for t in enumerate_twists(fig8_spec) if t.is_trivial()][0]
    pt = apply_twist(fig8_complete, triv, fig8_system)
    assert np.max(np.abs(pt.coords - fig8_complete.coords)) == 0


def test_apply_twist_preserves_even_sign_words(fig8_spec, fig8_system, fig8_fillings):
    """Traces of words on which the sign character is trivial are preserved."""
    _, pt, _ = fig8_fillings[0]
    tw = [t for t in enumerate_twists(fig8_spec) if not t.is_trivial()][0]
    pt2 = apply_twist(pt, tw, fig8_system)

    def trace(w, p):
        return np.trace(numeric_word_matrix(w, fig8_system.matrices(p.coords)))
    for w in [(1, 2), (1, -2), (1, 1), (1, 2, 1, 2), (2, -1, -2, 1)]:
        if tw.on_word(w) != 1:
            continue
        assert abs(trace(w, pt) - trace(w, pt2)) < 1e-9


def test_apply_twist_same_psl2_character(fig8_spec, fig8_system, fig8_fillings):
    """Twisting scales every trace by +-1: squares of traces are preserved."""
    _, pt, _ = fig8_fillings[0]
    tw = [t for t in enumerate_twists(fig8_spec) if not t.is_trivial()][0]
    pt2 = apply_twist(pt, tw, fig8_system)
    k1 = fig8_system.char_key(pt.coords)
    k2 = fig8_system.char_key(pt2.coords)
    assert np.max(np.abs(k1 ** 2 - k2 ** 2)) < 1e-9


def test_irreducibility_defect(fig8_system, fig8_complete):
    assert irreducibility_defect(fig8_system, fig8_complete.coords) > 1e-3


def test_lockstep_passes_the_live_indices(fig8_system, fig8_fillings):
    """F sees, with each stack, the indices of its starts: a start that
    converges at once leaves the stack before the first step."""
    _, pt, _ = fig8_fillings[0]
    z, g, tr = pt.trace_vector(), fig8_system.gauge_rows, fig8_system.trace_rows
    seen = []

    def F(X, live):
        seen.append(list(live))
        vals, J = fig8_system.compiled.values_and_jacobian(X)
        return (np.concatenate([vals[:, g], vals[:, tr] - z], axis=1),
                np.concatenate([J[:, g], J[:, tr]], axis=1))
    near = pt.coords + np.array([1e-3, -2e-3j, 1e-3 + 1e-3j])
    _, converged, _ = gauss_newton_lockstep(F, [pt.coords, near], 1e-10, 40)
    assert list(converged) == [True, True]
    assert seen[0] == [0, 1] and all(live == [1] for live in seen[1:]) and len(seen) > 1


def test_lockstep_start_at_s_zero_fails_alone(fig8_system, fig8_fillings):
    """A start with s = 0 has non-finite values (the gauge is Laurent in s):
    it fails at once without taking the rest of the stack with it."""
    _, pt, _ = fig8_fillings[0]
    z, g, tr = pt.trace_vector(), fig8_system.gauge_rows, fig8_system.trace_rows

    def F(X, live):
        vals, J = fig8_system.compiled.values_and_jacobian(X)
        return (np.concatenate([vals[:, g], vals[:, tr] - z], axis=1),
                np.concatenate([J[:, g], J[:, tr]], axis=1))
    near = pt.coords + np.array([1e-3, -2e-3j, 1e-3 + 1e-3j])
    at_zero = np.array(near)
    at_zero[0] = 0
    xs, converged, iterations = gauss_newton_lockstep(
        F, [near, at_zero, pt.coords], 1e-10, 40, 1e12)
    assert list(converged) == [True, False, True]
    assert iterations[1] == 0 and iterations[0] > 0 and iterations[2] == 0
    assert np.max(np.abs(xs[0] - pt.coords)) < 1e-8


@pytest.mark.parametrize("name", ["fig8", "wlink"])
def test_row_systems_have_the_bytes_of_the_full_rows(name, request):
    """`gauge_and_slots`, `gauge_and_traces` and `compiled.values` give the
    bytes of the same rows of the full `values_and_jacobian`, at single
    points and on a stack, also where s = 0 or p = 0 makes rows non-finite."""
    system = request.getfixturevalue(f"{name}_system")
    rng = np.random.default_rng(7)
    n = len(system.vars)
    X = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
    X[1, 0] = 0
    X[2, 1] = 0
    rows = lambda *rs: [i for r in rs for i in range(r.start, r.stop)]
    subsystems = [(system.gauge_and_slots, rows(system.gauge_rows, system.ml_rows)),
                  (system.gauge_and_traces, rows(system.gauge_rows, system.trace_rows))]
    with np.errstate(divide="ignore", invalid="ignore"):
        full_vals, full_J = system.compiled.values_and_jacobian(X)
        assert not np.isfinite(full_vals[1]).all() and not np.isfinite(full_vals[2]).all()
        assert system.compiled.values(X).tobytes() == np.ascontiguousarray(full_vals).tobytes()
        for sub, index in subsystems:
            vals, J = sub.values_and_jacobian(X)
            assert vals.shape == (len(X), len(index))
            assert vals.tobytes() == np.ascontiguousarray(full_vals[:, index]).tobytes()
            assert J.tobytes() == full_J[:, index].tobytes()
        for x in X:
            full_vals, full_J = system.compiled.values_and_jacobian(x)
            assert system.compiled.values(x).tobytes() == full_vals.tobytes()
            for sub, index in subsystems:
                vals, J = sub.values_and_jacobian(x)
                assert vals.tobytes() == full_vals[index].tobytes()
                assert J.tobytes() == full_J[index].tobytes()


@pytest.mark.parametrize("shape", [(40, 7, 3), (40, 3, 3), (25, 13, 7)])
def test_least_squares_steps_match_lstsq(shape):
    """On full-rank stacks the QR steps are the least-squares steps of
    `np.linalg.lstsq`, row by row, to 1e-13 relative to the step."""
    rng = np.random.default_rng(3)
    J = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    vals = rng.normal(size=shape[:2]) + 1j * rng.normal(size=shape[:2])
    dx = least_squares_steps(J, vals)
    for A, v, d in zip(J, vals, dx):
        want = np.linalg.lstsq(A, -v, rcond=None)[0]
        assert np.max(np.abs(d - want)) <= 1e-13 * np.linalg.norm(want)


def test_lockstep_member_with_singular_r_fails_alone():
    """A start whose Jacobian has a zero column has an exact zero on the
    diagonal of R: its step is not finite and it fails at once, while the
    rest of the stack converges and the call does not raise."""
    rng = np.random.default_rng(4)
    A = rng.normal(size=(3, 5, 3)) + 1j * rng.normal(size=(3, 5, 3))
    A[1, :, 2] = 0
    root = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = (A @ root[:, :, None])[:, :, 0]

    def F(X, live):
        return (A[live] @ X[:, :, None])[:, :, 0] - b[live], A[live]
    assert np.linalg.qr(A[1])[1][2, 2] == 0
    xs, converged, iterations = gauss_newton_lockstep(F, np.zeros((3, 3)), 1e-10, 40)
    assert list(converged) == [True, False, True]
    assert list(iterations) == [1, 0, 1]
    assert np.max(np.abs(xs[[0, 2]] - root[[0, 2]])) < 1e-12
