import pytest

from charvol.continuation import (QUADRATURE_STEP, DeformationProblem, FillingCoefficients,
                                  solve_filling)
from charvol.eigenvar import build_extended
from charvol.fixtures import load_fixture
from charvol.repvar import find_complete


@pytest.fixture(scope="session")
def fig8_spec():
    return load_fixture("fig8")


@pytest.fixture(scope="session")
def wlink_spec():
    return load_fixture("wlink")


@pytest.fixture(scope="session")
def abelian_spec():
    return load_fixture("abelian")


@pytest.fixture(scope="session")
def nonhyp_spec():
    return load_fixture("nonhyp")


@pytest.fixture(scope="session")
def fig8_problem(fig8_spec):
    return DeformationProblem(fig8_spec)


@pytest.fixture(scope="session")
def wlink_problem(wlink_spec):
    return DeformationProblem(wlink_spec)


@pytest.fixture(scope="session")
def fig8_system(fig8_problem):
    """fig8's gauged system: the deformation problem, one object per slice."""
    return fig8_problem


@pytest.fixture(scope="session")
def wlink_system(wlink_problem):
    """wlink's gauged system: the deformation problem, one object per slice."""
    return wlink_problem


@pytest.fixture(scope="session")
def fig8_complete(fig8_problem):
    return find_complete(fig8_problem)


@pytest.fixture(scope="session")
def wlink_complete(wlink_problem):
    return find_complete(wlink_problem)


@pytest.fixture(scope="session")
def fig8_extended(fig8_system):
    return build_extended(fig8_system)


@pytest.fixture(scope="session")
def fig8_fillings(fig8_spec, fig8_problem, fig8_complete):
    """(kappa text, point, path) for q = 5, 7, 11, computed once, each path
    tracked at the quadrature step that volumes along it need."""
    out = []
    for q in (5, 7, 11):
        kappa = FillingCoefficients.parse(f"1,{q}", fig8_spec.cusp_count)
        pt, path = solve_filling(fig8_problem, fig8_complete, kappa, QUADRATURE_STEP)
        out.append((f"1,{q}", pt, path))
    return out


@pytest.fixture(scope="session")
def wlink_fillings(wlink_spec, wlink_problem, wlink_complete):
    out = []
    for ktext in ("1,5;1,7", "1,7;1,5", "1,5;inf"):
        kappa = FillingCoefficients.parse(ktext, wlink_spec.cusp_count)
        pt, path = solve_filling(wlink_problem, wlink_complete, kappa, QUADRATURE_STEP)
        out.append((ktext, pt, path))
    return out


@pytest.fixture
def block_calls(monkeypatch):
    """Records every call of the compiled evaluation block during a test."""
    from charvol.poly import _CompiledBlock
    calls = []
    original = _CompiledBlock.__call__

    def counted(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(_CompiledBlock, "__call__", counted)
    return calls
