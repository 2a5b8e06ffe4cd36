"""Numeric 2x2 matrix utilities: word evaluation and gauge normalization."""

from __future__ import annotations

import numpy as np

from .words import Word


class GaugeError(ValueError):
    """The representation cannot be put in the documented gauge."""


def sl2_inverse(A: np.ndarray) -> np.ndarray:
    return np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]], dtype=complex)


def numeric_word_matrix(w: Word, mats) -> np.ndarray:
    M = np.eye(2, dtype=complex)
    for g in w:
        A = mats[abs(g) - 1]
        M = M @ (A if g > 0 else sl2_inverse(A))
    return M


def gauge_matrices(coords: np.ndarray, ngens: int):
    """Generator matrices from gauge coordinates.

    Layout: coords = (s, p, t, a_3, b_3, c_3, d_3, ..., a_n, b_n, c_n, d_n)
    with generator 1 = [[s, 1], [0, 1/s]], generator 2 = [[p, 0], [t, 1/p]]
    and further generators as full matrices (their det - 1 equations live in
    the polynomial system).
    """
    s, p, t = coords[0], coords[1], coords[2]
    mats = [np.array([[s, 1], [0, 1 / s]], dtype=complex),
            np.array([[p, 0], [t, 1 / p]], dtype=complex)]
    for j in range(ngens - 2):
        a, b, c, d = coords[3 + 4 * j: 7 + 4 * j]
        mats.append(np.array([[a, b], [c, d]], dtype=complex))
    return mats


def gauge_coord_names(ngens: int) -> tuple[str, ...]:
    names = ["s", "p", "t"]
    for j in range(3, ngens + 1):
        names += [f"a{j}", f"b{j}", f"c{j}", f"d{j}"]
    return tuple(names)


def regauge(mats) -> np.ndarray:
    """Conjugate a representation into the documented gauge and return coords.

    Sends the s-eigenvector of generator 1 to e1 and the 1/p-eigenvector of
    generator 2 to e2, then scales so the (0,1) entry of generator 1 is 1.
    The eigenvalue order of generator 1 is kept (its (0,0) entry stays within
    a branch choice of the input's first eigenvalue).
    """
    A, B = np.asarray(mats[0], dtype=complex), np.asarray(mats[1], dtype=complex)
    evalA, evecA = np.linalg.eig(A)
    evalB, evecB = np.linalg.eig(B)
    # pick the A-eigenvector for evalA[0] and the B-eigenvector for evalB[1]
    v1 = evecA[:, 0]
    v2 = evecB[:, 1]
    C = np.column_stack([v1, v2])
    if abs(np.linalg.det(C)) < 1e-12:
        raise GaugeError("generator fixed points coincide; reducible or degenerate pair")
    Cinv = np.linalg.inv(C)
    g1 = Cinv @ A @ C
    g2 = Cinv @ B @ C
    b = g1[0, 1]
    if abs(b) < 1e-12:
        raise GaugeError("generator 1 is diagonal in the gauge basis; rescaling impossible")
    # conjugating by D = diag(delta, 1/delta) maps the (0,1) entry to b/delta^2
    delta = np.sqrt(b)
    D = np.array([[delta, 0], [0, 1 / delta]], dtype=complex)
    Dinv = np.array([[1 / delta, 0], [0, delta]], dtype=complex)
    out = [Dinv @ g1 @ D, Dinv @ g2 @ D]
    rest = [Dinv @ Cinv @ np.asarray(M, dtype=complex) @ C @ D for M in mats[2:]]
    coords = [out[0][0, 0], out[1][0, 0], out[1][1, 0]]
    for M in rest:
        coords.extend([M[0, 0], M[0, 1], M[1, 0], M[1, 1]])
    return np.array(coords, dtype=complex)
