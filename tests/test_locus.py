import cmath
from types import SimpleNamespace

import numpy as np
import pytest

from charvol.locus import (TOLERANCES, _some_cusp_rows, eigenvalues, moved, moving_along,
                           near_U, on_U, on_U_rows, on_V, traces)

ON, NEAR = TOLERANCES["on"], TOLERANCES["near"]


@pytest.mark.parametrize("predicate, pairs, tol, moving, expected", [
    # U: both eigenvalue squares near 1
    (on_U, [(1.0, -1.0)], ON, None, True),
    (on_U, [(cmath.exp(1e-8j), -1.0)], ON, None, True),
    (on_U, [(1.0, 1.0j)], NEAR, None, False),         # l^2 = -1
    (on_U, [(1.0 + 1e-4, -1.0)], ON, None, False),     # |m^2 - 1| ~ 2e-4
    (on_U, [(1.0 + 1e-4, -1.0)], NEAR, None, True),
    (on_U, [(1.0 + 1e-2, 1.0)], NEAR, None, False),
    (on_U, [(2.0, 0.5), (1.0, -1.0)], ON, None, True),
    (on_U, [(2.0, 0.5), (1.0, -1.0)], ON, [True, True], True),
    (on_U, [(2.0, 0.5), (1.0, -1.0)], ON, [True, False], False),
    (on_U, [(1.0, 1.0)], ON, [False], False),
    # V: both trace squares near 4
    (on_V, [(2.0, -2.0)], ON, None, True),
    (on_V, [(2.0, 2.5)], NEAR, None, False),
    (on_V, [(2.0 + 1e-5, 2.0)], ON, None, False),      # |I^2 - 4| ~ 4e-5
    (on_V, [(2.0 + 1e-5, 2.0)], NEAR, None, True),
    (on_V, [(2.1, -2.0)], NEAR, None, False),
    (on_V, [(3.0, 1.0), (-2.0, 2.0)], ON, [True, True], True),
    (on_V, [(3.0, 1.0), (-2.0, 2.0)], ON, [True, False], False),
    # U and V are different loci: eigenvalues +-1 are not traces +-2
    (on_V, [(1.0, -1.0)], NEAR, None, False),
    (on_U, [(2.0, -2.0)], NEAR, None, False),
])
def test_locus_table(predicate, pairs, tol, moving, expected):
    """Each row of the table decides alike per point and, as one sample of
    a path, in the vectorised form that paths use."""
    assert predicate(pairs, tol, moving) is expected
    a, b = (np.array([[pair[k] for pair in pairs]], dtype=complex) for k in (0, 1))
    if predicate is on_U:
        assert on_U_rows(a, b, tol, moving).tolist() == [expected]
    square = 1 if predicate is on_U else 4
    rows = _some_cusp_rows(np.repeat(a, 3, axis=0), np.repeat(b, 3, axis=0), square, tol, moving)
    assert rows.tolist() == [expected] * 3


def _cusp(du, dv=0j):
    return SimpleNamespace(u=0.3j + du, v=1j * cmath.pi + dv,
                           base_u=0.3j, base_v=1j * cmath.pi)


def test_moving_mask():
    assert not moved(_cusp(0j))
    assert not moved(_cusp(5e-7))
    assert moved(_cusp(2e-6))
    assert moved(_cusp(0j, -2e-6j))
    assert moved(_cusp(1e-4), tol=1e-5) and not moved(_cusp(1e-6), tol=1e-5)
    # per path: a cusp is moving when it leaves its lift anywhere along it
    path = [SimpleNamespace(cusps=[_cusp(0j), _cusp(0j)]),
            SimpleNamespace(cusps=[_cusp(0j), _cusp(0.1)]),
            SimpleNamespace(cusps=[_cusp(0j), _cusp(0j)])]
    assert moving_along(path) == [False, True]
    assert [moved(c) for c in path[2].cusps] == [False, False]


def test_locus_on_tracked_points(fig8_complete, fig8_fillings):
    """The complete structure lies on U and V; a filled character lies off
    both, even at the coarse tolerance; along a filling path the complete
    structure counts as on U because its cusp moves, and it is the path's
    only sample near U."""
    _, filled, path = fig8_fillings[0]
    assert on_U(eigenvalues(fig8_complete)) and on_V(traces(fig8_complete))
    assert not on_U(eigenvalues(filled), NEAR)
    assert not on_V(traces(filled), NEAR)
    moving = moving_along(path.points)
    assert moving == [True]
    assert on_U(eigenvalues(path.points[0]), ON, moving)
    assert not on_U(eigenvalues(path.points[0]), ON, [False])
    # a whole path in one pass: only its first sample comes near U
    assert near_U(path.points) and not near_U(path.points[1:])
