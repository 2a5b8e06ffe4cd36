"""Words in a finitely generated free group, as tuples of signed indices.

A letter g > 0 is the g-th generator, g < 0 its inverse; indices are 1-based.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Word = tuple[int, ...]


def make_word(letters: Iterable[int], ngens: int) -> Word:
    """Validate letters against the generator count and return a Word."""
    w = tuple(int(g) for g in letters)
    for g in w:
        if g == 0:
            raise ValueError("word letters must be nonzero signed indices")
        if abs(g) > ngens:
            raise ValueError(f"letter {g} exceeds generator count {ngens}")
    return w


def free_reduce(w: Sequence[int]) -> Word:
    """Cancel adjacent inverse pairs until the word is freely reduced."""
    out: list[int] = []
    for g in w:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def invert_word(w: Sequence[int]) -> Word:
    return tuple(-g for g in reversed(w))


def exponent_sums(w: Sequence[int], ngens: int) -> list[int]:
    """Abelianized image of the word in Z^ngens."""
    a = [0] * ngens
    for g in w:
        a[abs(g) - 1] += 1 if g > 0 else -1
    return a


def sign_character(w: Sequence[int], eps: Sequence[int]) -> int:
    """Evaluate a generator sign assignment (+-1 per generator) on a word."""
    val = 1
    for g in w:
        val *= eps[abs(g) - 1]
    return val


def nilpotent_class2_data(w: Sequence[int], ngens: int) -> tuple[list[int], list[int]]:
    """Abelianization and degree-2 Magnus coordinates of a word.

    Returns (a, c) where a is the exponent-sum vector and c collects the
    coefficients c[i<j] of the basic commutators [x_i, x_j] in the free
    class-2 nilpotent quotient.  Products compose as
    (a, c) * (a', c') = (a + a', c + c' + a ^ a').
    """
    npairs = ngens * (ngens - 1) // 2
    a = [0] * ngens
    c = [0] * npairs
    idx = {}
    k = 0
    for i in range(ngens):
        for j in range(i + 1, ngens):
            idx[(i, j)] = k
            k += 1
    for g in w:
        gi = abs(g) - 1
        sg = 1 if g > 0 else -1
        # wedge of the accumulated abelianization with the new letter
        for i in range(ngens):
            if a[i] == 0 or i == gi:
                continue
            if i < gi:
                c[idx[(i, gi)]] += a[i] * sg
            else:
                c[idx[(gi, i)]] -= a[i] * sg
        a[gi] += sg
    return a, c


def wedge(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a ^ b in the basis e_i ^ e_j, i < j."""
    n = len(a)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(a[i] * b[j] - a[j] * b[i])
    return out
