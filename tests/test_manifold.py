import itertools
import json

import pytest

from charvol.fixtures import fixture_text, load_fixture
from charvol.manifold import (SpecError, gf2_nullspace, h1_z2, lattice_contains,
                              parse_spec)
from charvol.words import sign_character


def _doc(**overrides):
    base = json.loads(fixture_text("fig8"))
    base.update(overrides)
    return base


def test_parse_fixture_counts(fig8_spec, wlink_spec):
    assert fig8_spec.generators == 2
    assert fig8_spec.cusp_count == 1
    assert wlink_spec.cusp_count == 2
    assert fig8_spec.seed_representation is not None


def test_parse_rejects_bad_index():
    doc = _doc(relators=[[1, 3]])
    with pytest.raises(SpecError):
        parse_spec(json.dumps(doc))


def test_parse_rejects_missing_fields():
    doc = _doc()
    del doc["reference_volume"]
    with pytest.raises(SpecError):
        parse_spec(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(SpecError):
        parse_spec("{not json")


def test_right_handed_needs_override():
    doc = _doc(basis_handedness="right")
    with pytest.raises(SpecError):
        parse_spec(json.dumps(doc))
    doc["allow_right_handed"] = True
    spec = parse_spec(json.dumps(doc))
    assert spec.basis_handedness == "right"


def test_seed_validation_det():
    doc = _doc()
    doc["seed_representation"][0][0] = [2.0, 0.0]  # breaks det = 1
    with pytest.raises(SpecError):
        parse_spec(json.dumps(doc))


def test_seed_validation_relator():
    doc = _doc()
    doc["seed_representation"][1][2] = [0.9, 0.9]  # wrong parabolic parameter
    with pytest.raises(SpecError):
        parse_spec(json.dumps(doc))


def test_commutation_check_rejects_free_pair():
    doc = _doc(relators=[], cusps=[{"meridian": [1], "longitude": [2]}],
               seed_representation=None)
    with pytest.raises(SpecError, match="commut"):
        parse_spec(json.dumps(doc))


def test_words_stored_freely_reduced():
    doc = _doc(relators=[[1, 2, -2, 2, -1, -2, 1, -2, -1, 2, 1, -2]])
    spec = parse_spec(json.dumps(doc))
    assert spec.relators[0] == (1, 2, -1, -2, 1, -2, -1, 2, 1, -2)


# -- mod 2 cohomology ----------------------------------------------------------

def brute_force_twist_count(spec):
    """Independent oracle: enumerate all sign assignments and count the
    homomorphisms."""
    count = 0
    for eps in itertools.product((1, -1), repeat=spec.generators):
        if all(sign_character(r, eps) == 1 for r in spec.relators):
            count += 1
    return count


@pytest.mark.parametrize("name,h1,k,bound", [
    ("fig8", 1, 0, 1),
    ("wlink", 2, 0, 1),
    ("abelian", 2, 1, 2),
    ("nonhyp", 1, 0, 1),
])
def test_h1_z2_fixtures_against_oracle(name, h1, k, bound):
    spec = load_fixture(name)
    z2 = h1_z2(spec)
    assert z2.h1_dim == h1
    assert z2.k == k
    assert z2.degree_bound == bound
    assert 2 ** z2.h1_dim == brute_force_twist_count(spec)


def test_h1_z2_free_rank_one_like():
    doc = _doc(name="freeish", generators=2, relators=[[2]],
               cusps=[{"meridian": [1], "longitude": [1]}],
               seed_representation=None)
    spec = parse_spec(json.dumps(doc))
    z2 = h1_z2(spec)
    assert z2.h1_dim == 1 and z2.k == 0


def test_h1_z2_reports_consistency_failure():
    # two relators killing both generators mod 2: h1 = 0 < h = 1
    doc = _doc(name="bad", relators=[[1], [2]],
               cusps=[{"meridian": [1], "longitude": [1]}],
               seed_representation=None)
    spec = parse_spec(json.dumps(doc))
    with pytest.raises(SpecError, match="H\\^1"):
        h1_z2(spec)


def test_h1_invariant_under_adding_conjugate_relator(fig8_spec):
    doc = _doc()
    r = doc["relators"][0]
    conj = [1] + r + [-1]
    doc["relators"] = [r, conj]
    doc["seed_representation"] = None
    spec = parse_spec(json.dumps(doc))
    assert h1_z2(spec).h1_dim == h1_z2(fig8_spec).h1_dim


# -- linear algebra helpers -----------------------------------------------------

def test_gf2_rank_and_nullspace():
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    null = gf2_nullspace(rows, 3)
    assert len(null) == 1
    v = null[0]
    for r in rows:
        assert sum(a * b for a, b in zip(r, v)) % 2 == 0


def test_lattice_contains():
    cols = [[2, 0], [0, 3]]
    assert lattice_contains(cols, [4, 3])
    assert not lattice_contains(cols, [1, 0])
    assert lattice_contains([], [0, 0])
    assert not lattice_contains([], [1, 0])
    assert lattice_contains([[1, 1], [0, 2]], [3, 5])
    assert not lattice_contains([[1, 1], [0, 2]], [0, 1])
