"""Manifold presentation files: parsing, validation, mod-2 cohomology.

A spec document is JSON carrying a finite presentation, peripheral word
pairs per cusp, an orientation convention for the peripheral bases, a
reference volume with provenance, and optionally an approximate seed
representation used to select the complete hyperbolic structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .words import (Word, exponent_sums, free_reduce, make_word,
                    nilpotent_class2_data, wedge)


class SpecError(ValueError):
    """Raised for malformed or inconsistent manifold spec documents."""


@dataclass(frozen=True)
class CuspData:
    meridian: Word
    longitude: Word
    index: int


@dataclass(frozen=True)
class ReferenceVolume:
    value: float
    provenance: str
    # optional exact formula coeff * Lobachevsky(pi * num / den)
    lobachevsky: Optional[tuple[int, int, int]] = None


@dataclass(frozen=True)
class ManifoldSpec:
    name: str
    generators: int
    relators: tuple[Word, ...]
    cusps: tuple[CuspData, ...]
    basis_handedness: str
    reference_volume: ReferenceVolume
    provenance: str
    seed_representation: Optional[tuple[np.ndarray, ...]] = None

    @property
    def cusp_count(self) -> int:
        return len(self.cusps)


@dataclass(frozen=True)
class Z2CohomologyData:
    h1_dim: int
    cusp_count: int
    k: int
    degree_bound: int


# ---------------------------------------------------------------------------
# GF(2) and integer lattice linear algebra
# ---------------------------------------------------------------------------

def gf2_rank(rows: list[list[int]]) -> int:
    mat = [sum((x & 1) << j for j, x in enumerate(r)) for r in rows]
    basis: list[int] = []
    for r in mat:
        cur = r
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
    return len(basis)


def gf2_nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {v : M v = 0 over GF(2)} for the matrix with the given rows."""
    mat = [sum((x & 1) << j for j, x in enumerate(r)) for r in rows]
    pivots: dict[int, int] = {}
    reduced: list[int] = []
    for r in mat:
        cur = r
        for col, b in pivots.items():
            if (cur >> col) & 1:
                cur ^= b
        if cur:
            col = cur.bit_length() - 1
            pivots[col] = cur
            reduced.append(cur)
    pivot_cols = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = 1 << fc
        # back-substitute pivot rows
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            if bin(row & v).count("1") % 2 == 1:
                v ^= 1 << col
        basis.append([(v >> j) & 1 for j in range(ncols)])
    return basis


def lattice_contains(columns: list[list[int]], target: list[int]) -> bool:
    """Is target in the integer span of the given column vectors?

    Column-style Hermite reduction on small matrices.
    """
    if not any(target):
        return True
    if not columns:
        return False
    cols = [list(c) for c in columns]
    t = list(target)
    nrows = len(t)
    row = 0
    for r in range(nrows):
        # gcd-reduce all columns on row r
        active = [c for c in cols if any(c[r:])]
        cols = active
        if not cols:
            break
        while True:
            nz = [c for c in cols if c[r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[r]))
            piv = nz[0]
            for c in nz[1:]:
                q = c[r] // piv[r]
                for i in range(nrows):
                    c[i] -= q * piv[i]
        nz = [c for c in cols if c[r] != 0]
        if nz:
            piv = nz[0]
            if t[r] % piv[r] != 0:
                return False
            q = t[r] // piv[r]
            for i in range(nrows):
                t[i] -= q * piv[i]
            cols = [c for c in cols if c is not piv]
        elif t[r] != 0:
            return False
    return not any(t)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def relator_matrix(spec: ManifoldSpec) -> list[list[int]]:
    return [exponent_sums(r, spec.generators) for r in spec.relators]


def h1_z2(spec: ManifoldSpec) -> Z2CohomologyData:
    """dim H^1(M, Z/2) from the mod-2 abelianized relator matrix.

    Reports k = h1_dim - h and the degree bound 2^k; k < 0 violates the
    peripheral-image rank and is a spec-consistency failure.
    """
    rank = gf2_rank(relator_matrix(spec))
    h1 = spec.generators - rank
    h = spec.cusp_count
    k = h1 - h
    if k < 0:
        raise SpecError(
            f"{spec.name}: dim H^1(M,Z2) = {h1} < cusp count {h}; "
            "peripheral cohomology cannot inject")
    return Z2CohomologyData(h1_dim=h1, cusp_count=h, k=k, degree_bound=2 ** k)


def check_peripheral_commutation(spec: ManifoldSpec) -> None:
    """Necessary condition: each [meridian, longitude] dies in the class-2
    nilpotent quotient of the presented group, checked over Z."""
    n = spec.generators
    columns: list[list[int]] = []
    for r in spec.relators:
        a, c = nilpotent_class2_data(r, n)
        columns.append(c)
        for i in range(n):
            e = [0] * n
            e[i] = 1
            columns.append(wedge(a, e))
    for cusp in spec.cusps:
        comm = tuple(cusp.meridian) + tuple(cusp.longitude) + \
            tuple(-g for g in reversed(cusp.meridian)) + \
            tuple(-g for g in reversed(cusp.longitude))
        _, w = nilpotent_class2_data(comm, n)
        if not lattice_contains(columns, w):
            raise SpecError(
                f"{spec.name}: cusp {cusp.index} meridian/longitude do not "
                "commute in the class-2 abelian quotient (integer check)")


def _parse_matrix(entries) -> np.ndarray:
    if len(entries) != 4:
        raise SpecError("seed matrices need 4 entries [a, b, c, d]")
    vals = [complex(e[0], e[1]) for e in entries]
    return np.array([[vals[0], vals[1]], [vals[2], vals[3]]], dtype=complex)


def _validate_seed(spec_name: str, matrices, relators, ngens) -> tuple[np.ndarray, ...]:
    from .matrices import numeric_word_matrix
    mats = tuple(_parse_matrix(m) for m in matrices)
    if len(mats) != ngens:
        raise SpecError(f"{spec_name}: seed has {len(mats)} matrices, expected {ngens}")
    for i, M in enumerate(mats):
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        if abs(det - 1) >= 1e-8:
            raise SpecError(f"{spec_name}: seed matrix {i + 1} has |det - 1| = {abs(det - 1):.2e}")
    for r in relators:
        R = numeric_word_matrix(r, mats)
        err = min(np.max(np.abs(R - np.eye(2))), np.max(np.abs(R + np.eye(2))))
        if err >= 1e-6:
            raise SpecError(f"{spec_name}: seed violates relator {list(r)} by {err:.2e}")
    return mats


def parse_spec(text: str) -> ManifoldSpec:
    """Parse and fully validate a spec document; raises SpecError on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"not valid JSON: {e}") from e
    for key in ("name", "generators", "relators", "cusps", "basis_handedness",
                "reference_volume", "provenance"):
        if key not in doc:
            raise SpecError(f"missing required field {key!r}")
    name = doc["name"]
    n = int(doc["generators"])
    if n < 1:
        raise SpecError("generator count must be positive")
    try:
        relators = tuple(free_reduce(make_word(r, n)) for r in doc["relators"])
        cusps = []
        for i, c in enumerate(doc["cusps"], start=1):
            cusps.append(CuspData(
                meridian=free_reduce(make_word(c["meridian"], n)),
                longitude=free_reduce(make_word(c["longitude"], n)),
                index=i,
            ))
    except ValueError as e:
        raise SpecError(str(e)) from e
    if not cusps:
        raise SpecError("at least one cusp is required")
    handed = doc["basis_handedness"]
    if handed not in ("left", "right"):
        raise SpecError("basis_handedness must be 'left' or 'right'")
    if handed == "right" and not doc.get("allow_right_handed", False):
        raise SpecError(
            "right-handed peripheral basis requires allow_right_handed: true; "
            "the volume form will be negated")
    rv = doc["reference_volume"]
    if "value" not in rv or "provenance" not in rv:
        raise SpecError("reference_volume needs value and provenance")
    value = float(rv["value"])
    if value < 0:
        raise SpecError("reference_volume must be nonnegative")
    lob = None
    if "lobachevsky" in rv:
        lb = rv["lobachevsky"]
        lob = (int(lb["coefficient"]), int(lb["angle_numerator"]), int(lb["angle_denominator"]))
    seed = None
    if doc.get("seed_representation") is not None:
        seed = _validate_seed(name, doc["seed_representation"], relators, n)
    spec = ManifoldSpec(
        name=name,
        generators=n,
        relators=relators,
        cusps=tuple(cusps),
        basis_handedness=handed,
        reference_volume=ReferenceVolume(value, rv["provenance"], lob),
        provenance=doc["provenance"],
        seed_representation=seed,
    )
    check_peripheral_commutation(spec)
    return spec


def load_spec(path) -> ManifoldSpec:
    with open(path, "r") as fh:
        return parse_spec(fh.read())
