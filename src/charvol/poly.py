"""Exact multivariate (Laurent) polynomial arithmetic over Z.

Polynomials are stored as maps from exponent vectors to int coefficients
over a fixed ordered variable tuple.  Variables carrying a
"unit" tag may appear with negative exponents; everything else is ordinary
polynomial support.  All elimination work (resultants, gcds, exact
division) happens on cleared, non-Laurent representatives.
"""

from __future__ import annotations

import operator

import numpy as np

from .words import Word

Exponents = tuple[int, ...]


class VariableMismatchError(ValueError):
    pass


class Polynomial:
    """Element of Z[vars], Laurent in the unit-tagged variables; a
    coefficient that is not an integer raises TypeError."""

    __slots__ = ("vars", "laurent", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict[Exponents, int],
                 laurent: frozenset[str] = frozenset()):
        self.vars = tuple(vars)
        self.laurent = frozenset(laurent)
        clean = {}
        for e, c in terms.items():
            c = operator.index(c)
            if not c:
                continue
            if len(e) != len(self.vars):
                raise ValueError("exponent arity does not match variable count")
            for x, name in zip(e, self.vars):
                if x < 0 and name not in self.laurent:
                    raise ValueError(f"negative exponent on non-unit variable {name}")
            clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c, vars, laurent=frozenset()) -> "Polynomial":
        z = tuple(0 for _ in vars)
        return cls(vars, {z: c}, laurent)

    @classmethod
    def variable(cls, name: str, vars, laurent=frozenset(), power: int = 1) -> "Polynomial":
        i = tuple(vars).index(name)
        e = tuple(power if j == i else 0 for j in range(len(vars)))
        return cls(vars, {e: 1}, laurent)

    # -- helpers ----------------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable orderings differ: {self.vars} vs {other.vars}")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str) -> int:
        """Maximum exponent of var (0 for the zero polynomial)."""
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)

    def min_degree(self, var: str) -> int:
        i = self.vars.index(var)
        return min((e[i] for e in self.terms), default=0)

    def total_terms(self) -> int:
        return len(self.terms)

    def support_vars(self) -> set[str]:
        out = set()
        for e in self.terms:
            for x, name in zip(e, self.vars):
                if x != 0:
                    out.add(name)
        return out

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.vars, terms, self.laurent | other.laurent)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()}, self.laurent)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        terms: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                s = c if s is None else s + c
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Polynomial(self.vars, terms, self.laurent | other.laurent)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(1, self.vars, self.laurent)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(other, self.vars, self.laurent)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus ---------------------------------------------------------
    def differentiate(self, var: str) -> "Polynomial":
        """Formal partial derivative; Laurent exponents differentiate as d/dx x^k = k x^(k-1)."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var}")
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            e2 = e[:i] + (k - 1,) + e[i + 1:]
            nc = c * k
            s = terms.get(e2, 0) + nc
            if s:
                terms[e2] = s
            else:
                terms.pop(e2, None)
        return Polynomial(self.vars, terms, self.laurent)

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, point) -> complex:
        """Evaluate at a complex vector (ordered as self.vars)."""
        pt = [complex(x) for x in point]
        if len(pt) != len(self.vars):
            raise ValueError("point arity does not match variable count")
        for i, name in enumerate(self.vars):
            if name in self.laurent and pt[i] == 0 and any(e[i] < 0 for e in self.terms):
                raise ZeroDivisionError(f"unit variable {name} evaluated at zero")
        total = 0j
        for e, c in self.terms.items():
            v = complex(c)
            for x, k in zip(pt, e):
                if k:
                    v *= x ** k
            total += v
        return total

    # -- Laurent clearing / substitution -------------------------------------
    def clear_laurent(self) -> tuple["Polynomial", Exponents]:
        """Multiply by the minimal monomial making all exponents nonnegative.

        Returns (cleared polynomial, shift) with shift[i] >= 0 the power of
        vars[i] that was multiplied in.
        """
        if not self.terms:
            return self, tuple(0 for _ in self.vars)
        shift = tuple(max(0, -min(e[i] for e in self.terms)) for i in range(len(self.vars)))
        if not any(shift):
            return Polynomial(self.vars, self.terms, frozenset()), shift
        terms = {tuple(x + s for x, s in zip(e, shift)): c for e, c in self.terms.items()}
        return Polynomial(self.vars, terms, frozenset()), shift

    def strip_monomial_content(self, restrict_to=None) -> tuple["Polynomial", Exponents]:
        """Divide out the largest common monomial; returns (primitive, removed
        exponents).  With restrict_to, only the named variables are stripped
        (stripping an ordinary variable would discard its zero locus)."""
        if not self.terms:
            return self, tuple(0 for _ in self.vars)
        rem = tuple(
            min(e[i] for e in self.terms)
            if (restrict_to is None or self.vars[i] in restrict_to) else 0
            for i in range(len(self.vars)))
        if not any(rem):
            return self, rem
        terms = {tuple(x - r for x, r in zip(e, rem)): c for e, c in self.terms.items()}
        return Polynomial(self.vars, terms, self.laurent), rem

    def subs_var(self, var: str, value: "Polynomial") -> "Polynomial":
        """Substitute value for var.  Negative powers of var require value
        to be a unit monomial (coefficient +-1)."""
        i = self.vars.index(var)
        if value.vars != self.vars:
            raise VariableMismatchError("substitution value must share the variable ordering")
        negs = any(e[i] < 0 for e in self.terms)
        inv = None
        if negs:
            if len(value.terms) != 1 or set(value.terms.values()) - {1, -1}:
                raise ValueError("negative powers need a unit monomial substitution value")
            (ve, vc), = value.terms.items()
            inv_terms = {tuple(-x for x in ve): vc}
            inv = Polynomial(self.vars, inv_terms, self.laurent | value.laurent | set(
                n for n, x in zip(self.vars, ve) if x != 0))
        groups: dict[int, dict[Exponents, int]] = {}
        for e, c in self.terms.items():
            k = e[i]
            e0 = e[:i] + (0,) + e[i + 1:]
            groups.setdefault(k, {})[e0] = c
        out = Polynomial.constant(0, self.vars, self.laurent | value.laurent)
        for k, terms in groups.items():
            base = Polynomial(self.vars, terms, self.laurent)
            factor = (value ** k) if k >= 0 else (inv ** (-k))
            out = out + base * factor
        return out

    # -- printing / serialization ----------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __repr__(self):
        return f"Polynomial({self.as_text()})"

    def as_text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                (f"{n}^{k}" if k != 1 else n)
                for n, k in zip(self.vars, e) if k != 0
            )
            cs = str(c)
            bits.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "laurent": sorted(self.laurent),
            "terms": [
                # the report schema keeps an imaginary part
                {"exp": list(e), "re": str(c), "im": "0"}
                for e, c in self.sorted_terms()
            ],
        }


# ---------------------------------------------------------------------------
# exact division, gcd, squarefree parts, factors, resultants
#
# All of these work on cleared representatives (no Laurent exponents) and
# run in sympy's sparse integer polynomial ring; sympy is imported inside
# them so that importing charvol stays cheap.
# ---------------------------------------------------------------------------

def _ring(vars):
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring
    return ring(vars, ZZ)[0]


def _from_ring(vars, P) -> Polynomial:
    return Polynomial(vars, {e: int(c) for e, c in P.items()})


def exact_div(f: Polynomial, d: Polynomial) -> Polynomial:
    """Exact polynomial division f / d over Z; raises ValueError if the
    quotient is not an integer polynomial."""
    from sympy.polys.polyerrors import ExactQuotientFailed
    f._check(d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    fc, fshift = f.clear_laurent()
    dc, dshift = d.clear_laurent()
    R = _ring(f.vars)
    try:
        Q = R(fc.terms).exquo(R(dc.terms))
    except ExactQuotientFailed:
        raise ValueError("inexact division") from None
    q = _from_ring(f.vars, Q)
    shift = tuple(a - b for a, b in zip(fshift, dshift))
    if any(shift):
        mono = {tuple(-s for s in shift): 1}
        lau = f.laurent | d.laurent | frozenset(
            n for n, s in zip(f.vars, shift) if s > 0)
        q = q * Polynomial(f.vars, mono, lau)
    return q


def pseudo_rem(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Pseudo-remainder of f by g in var, lc(g)^(df-dg+1) f = q g + r, on
    the cleared representatives; 0 when g has degree 0 in var."""
    f._check(g)
    R = _ring(f.vars)
    F, G = R(f.clear_laurent()[0].terms), R(g.clear_laurent()[0].terms)
    return _from_ring(f.vars, F.prem(G, R.gens[f.vars.index(var)]))


def _primitive_cleared(p: Polynomial) -> Polynomial:
    """p cleared of Laurent denominators and of its monomial content."""
    return p.clear_laurent()[0].strip_monomial_content()[0]


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """gcd of f and g in Z[vars], with a positive lex-leading coefficient.

    Works on the cleared representatives; correct up to monomial factors in
    unit variables, which is the right notion for zero sets off the
    coordinate hyperplanes.
    """
    f._check(g)
    R = _ring(f.vars)
    F = R(_primitive_cleared(f).terms)
    G = R(_primitive_cleared(g).terms)
    return _from_ring(f.vars, F.gcd(G))


def squarefree_part(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of p (over all variables,
    monomial and integer content dropped), with a positive lex-leading
    coefficient."""
    R = _ring(p.vars)
    return _from_ring(p.vars, R(_primitive_cleared(p).terms).sqf_part())


def factor_list(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Irreducible factors of p's cleared representative over Z with their
    multiplicities, each primitive with a positive lex-leading coefficient;
    the integer content and its sign are dropped."""
    R = _ring(p.vars)
    P = R(p.clear_laurent()[0].terms)
    return [(_from_ring(p.vars, f), k) for f, k in P.factor_list()[1]]


class ResultantError(ValueError):
    pass


def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Sylvester resultant of p and q with respect to var.

    Inputs are cleared of Laurent denominators first; the caller is
    responsible for tracking any cleared monomials.  Raises ResultantError
    for inputs of degree 0 in var.
    """
    from sympy.polys.matrices import DomainMatrix
    p._check(q)
    pc, _ = p.clear_laurent()
    qc, _ = q.clear_laurent()
    dp, dq = pc.degree(var), qc.degree(var)
    if dp == 0 or dq == 0:
        raise ResultantError(f"resultant needs positive degree in {var}")
    R = _ring(p.vars)
    P, Q = R(pc.terms), R(qc.terms)
    i = p.vars.index(var)

    def coeffs(F, d):
        parts = [{} for _ in range(d + 1)]
        for e, c in F.items():
            parts[e[i]][e[:i] + (0,) + e[i + 1:]] = c
        return [R(t) for t in parts]

    a, b = coeffs(P, dp), coeffs(Q, dq)
    n = dp + dq
    M = [[R.zero] * n for _ in range(n)]
    for r in range(dq):
        for k, c in enumerate(reversed(a)):
            M[r][r + k] = c
    for r in range(dp):
        for k, c in enumerate(reversed(b)):
            M[dq + r][r + k] = c
    return _from_ring(p.vars, DomainMatrix(M, (n, n), R.to_domain()).det())


# ---------------------------------------------------------------------------
# symbolic 2x2 matrices
# ---------------------------------------------------------------------------

class SymMatrix2:
    """2x2 matrix with Polynomial entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Polynomial, b: Polynomial, c: Polynomial, d: Polynomial):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, vars, laurent=frozenset()) -> "SymMatrix2":
        one = Polynomial.constant(1, vars, laurent)
        zero = Polynomial.constant(0, vars, laurent)
        return cls(one, zero, zero, one)

    def __matmul__(self, o: "SymMatrix2") -> "SymMatrix2":
        return SymMatrix2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def adjugate(self) -> "SymMatrix2":
        """Inverse modulo det = 1."""
        return SymMatrix2(self.d, -self.b, -self.c, self.a)

    def det(self) -> Polynomial:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Polynomial:
        return self.a + self.d


def word_matrix(w: Word, gen_matrices: list[SymMatrix2]) -> SymMatrix2:
    """Symbolic product over a signed word; inverses use the adjugate (det = 1)."""
    if not gen_matrices:
        raise ValueError("need at least one generator matrix")
    vars = gen_matrices[0].a.vars
    lau = gen_matrices[0].a.laurent
    out = SymMatrix2.identity(vars, lau)
    for g in w:
        if not 1 <= abs(g) <= len(gen_matrices):
            raise ValueError(f"word letter {g} out of range")
        A = gen_matrices[abs(g) - 1]
        out = out @ (A if g > 0 else A.adjugate())
    return out


def trace_poly(w: Word, gen_matrices: list[SymMatrix2]) -> Polynomial:
    return word_matrix(w, gen_matrices).trace()


# ---------------------------------------------------------------------------
# compiled numeric evaluation
# ---------------------------------------------------------------------------

class CompiledSystem:
    """Vectorized complex evaluation of a list of polynomials and their Jacobian.

    One block holds the polynomials followed by their partial derivatives,
    so values and Jacobian come from a single evaluation; the per-call
    overhead, not the term count, dominates its cost.  `values_and_jacobian`
    also evaluates a stack of points (N, nvars) in one call, row by row
    bit-identical to single points; `values` and `jacobian` take one point."""

    def __init__(self, polys: list[Polynomial], vars: tuple[str, ...]):
        self.vars = tuple(vars)
        self.npolys = len(polys)
        self.nvars = len(vars)
        for p in polys:
            if p.vars != self.vars:
                raise VariableMismatchError("compiled polynomials must share variables")
        derivs = [p.differentiate(v) for p in polys for v in vars]
        self._block = _CompiledBlock(list(polys) + derivs, self.vars)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._block(np.asarray(x, dtype=complex))[:self.npolys]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        out = self._block(np.asarray(x, dtype=complex))
        return out[self.npolys:].reshape(self.npolys, self.nvars)

    def values_and_jacobian(self, x):
        """(npolys,) values and (npolys, nvars) Jacobian at a point, or
        (N, npolys) and (N, npolys, nvars) at a stack of N points."""
        out = self._block(np.asarray(x, dtype=complex))
        if out.ndim == 1:
            return out[:self.npolys], out[self.npolys:].reshape(self.npolys, self.nvars)
        return (out[:, :self.npolys],
                out[:, self.npolys:].reshape(len(out), self.npolys, self.nvars))


class _CompiledBlock:
    """Every term's coefficient times its monomial, summed per polynomial.

    The per-variable exponent ranges, each term's index into them and a
    sum buffer with one trailing zero (for polynomials without terms) are
    built once per block.  A stack of points (N, nvars) multiplies the same
    factors in the same order into an (N, terms) buffer and reduces each
    row like a single point."""

    def __init__(self, polys: list[Polynomial], vars):
        exps, coeffs, bounds = [], [], [0]
        for p in polys:
            for e, c in p.sorted_terms():
                exps.append(e)
                coeffs.append(complex(c))
            bounds.append(len(coeffs))
        self.npolys = len(polys)
        self.coeffs = np.array(coeffs, dtype=complex)
        bounds = np.array(bounds, dtype=np.int64)
        self.starts = bounds[:-1]
        self.empty = bounds[:-1] == bounds[1:]
        self.buf = np.zeros(len(coeffs) + 1, dtype=complex)
        self.ranges, self.columns = [], []
        if coeffs:  # a block without terms evaluates to zeros
            E = np.array(exps, dtype=np.int64)
            emin, emax = E.min(axis=0), E.max(axis=0)
            for v in range(len(vars)):
                self.ranges.append(np.arange(emin[v], emax[v] + 1))
                self.columns.append(np.ascontiguousarray(E[:, v] - emin[v]))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if not len(self.coeffs):
            return np.zeros(x.shape[:-1] + (self.npolys,), dtype=complex)
        if x.ndim == 2:
            return self._stacked(x)
        vals = self.buf[:-1]
        vals[:] = self.coeffs
        with np.errstate(divide="ignore", invalid="ignore"):
            for xv, exps, col in zip(x, self.ranges, self.columns):
                vals *= (xv ** exps)[col]
        out = np.add.reduceat(self.buf, self.starts)
        out[self.empty] = 0
        return out

    def _stacked(self, x: np.ndarray) -> np.ndarray:
        buf = np.zeros((len(x), len(self.buf)), dtype=complex)
        vals = buf[:, :-1]
        vals[:] = self.coeffs
        with np.errstate(divide="ignore", invalid="ignore"):
            for xv, exps, col in zip(x.T, self.ranges, self.columns):
                vals *= (xv[:, None] ** exps)[:, col]
        out = np.add.reduceat(buf, self.starts, axis=1)
        out[:, self.empty] = 0
        return out
