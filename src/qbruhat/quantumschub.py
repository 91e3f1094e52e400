"""Schubert polynomials, the quantum Chevalley-Monk rule, path Schubert
polynomials over the quantum Bruhat graph, minimal-degree Gromov-Witten
invariants, the Schubert expansion of tilted Richardson classes, and the
descent-cycling identities.

Polynomials here are integer multipolynomials in x_1..x_n and q_1..q_{n-1}:
``MultiPoly`` is the ``poly.Poly`` keyed by (x-exponents, q-exponents), so
its ring operations are ``Poly``'s; it adds the size n, monomials and the
parts by q-degree.
"""

from __future__ import annotations

import functools
from typing import Iterator, Mapping, Optional

from .permcore import (
    InternalConsistencyError,
    Perm,
    all_permutations,
    apply_simple,
    apply_transposition,
    check_gate,
    compose,
    length,
    longest,
)
from .poly import Poly
from .qbgraph import DegreeVec, deg_add, deg_zero, edges_from, min_degree
from .varietylab import solve_exact

XKey = tuple[int, ...]
Term = tuple[XKey, DegreeVec]


class MultiPoly(Poly):
    """Sparse integer polynomial in x_1..x_n, q_1..q_{n-1}: ``terms`` maps
    (x-exponents, q-exponents) -> coefficient."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms: Optional[Mapping[Term, int]] = None):
        super().__init__(terms)
        self.n = n

    def _new(self, terms: Mapping[Term, int]) -> "MultiPoly":
        return MultiPoly(self.n, terms)

    def _one(self) -> "MultiPoly":
        return MultiPoly.one(self.n)

    @classmethod
    def monomial(cls, n: int, xe: XKey, qe: Optional[DegreeVec] = None, c: int = 1) -> "MultiPoly":
        qe = qe if qe is not None else (0,) * (n - 1)
        return cls(n, {(tuple(xe), tuple(qe)): c})

    @classmethod
    def one(cls, n: int) -> "MultiPoly":
        return cls.monomial(n, (0,) * n)

    def q_part(self, d: DegreeVec) -> "MultiPoly":
        """The coefficient of q^d, as an x-only polynomial."""
        zero = deg_zero(self.n)
        return MultiPoly(
            self.n,
            {(xe, zero): c for (xe, qe), c in self.terms.items() if qe == d},
        )

    def q_weights(self) -> set[DegreeVec]:
        return {qe for (_, qe) in self.terms}


# ---------------------------------------------------------------------------
# divided differences and Schubert polynomials


def divided_difference(i: int, P: MultiPoly) -> MultiPoly:
    """(P - s_i P) / (x_i - x_{i+1}), expanded monomial by monomial."""
    n = P.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range")
    out: dict[Term, int] = {}
    for (xe, qe), c in P.terms.items():
        a, b = xe[i - 1], xe[i]
        if a == b:
            continue
        sign = 1 if a > b else -1
        lo, hi = min(a, b), max(a, b)
        for t in range(hi - lo):
            ex = list(xe)
            ex[i - 1] = lo + (hi - lo - 1 - t)
            ex[i] = lo + t
            key = (tuple(ex), qe)
            out[key] = out.get(key, 0) + sign * c
    return MultiPoly(n, out)


@functools.lru_cache(maxsize=1024)
def schubert_poly(w: Perm) -> MultiPoly:
    """Classical Schubert polynomial; x^rho at the longest element, divided
    differences downward.  The cache holds all of S_6 (720 entries)."""
    n = len(w)
    if w == longest(n):
        return MultiPoly.monomial(n, tuple(range(n - 1, -1, -1)))
    for i in range(1, n):
        if w[i - 1] < w[i]:
            return divided_difference(i, schubert_poly(apply_simple(w, i)))
    raise AssertionError("unreachable: only w_0 has no ascent")


# ---------------------------------------------------------------------------
# quantum Chevalley-Monk


def quantum_chevalley(k: int, w: Perm) -> dict[tuple[Perm, DegreeVec], int]:
    """sigma_{s_k} * sigma_w as {(target, q-degree): coefficient}."""
    n = len(w)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range")
    out: dict[tuple[Perm, DegreeVec], int] = {}
    for i, j, wt in edges_from(w):
        if i <= k < j:
            key = (apply_transposition(w, i, j), wt)
            out[key] = out.get(key, 0) + 1
    return out


def classical_monk(k: int, w: Perm) -> dict[Perm, int]:
    """Classical Monk by direct transposition enumeration (oracle)."""
    n = len(w)
    out: dict[Perm, int] = {}
    for i in range(1, k + 1):
        for j in range(k + 1, n + 1):
            t = apply_transposition(w, i, j)
            if length(t) == length(w) + 1:
                out[t] = out.get(t, 0) + 1
    return out


# ---------------------------------------------------------------------------
# path Schubert polynomials


def _admissible_paths(
    u: Perm, v: Perm
) -> Iterator[tuple[tuple[int, ...], DegreeVec]]:
    """All x^beta-admissible paths u -> v, yielded as (beta, weight).

    Segment k walks edges t_{ab} with nondecreasing a <= k < b and distinct
    b's; a path is the concatenation of segments k = 1 .. n-1.
    """
    n = len(u)

    def walk(k: int, w: Perm, wt: DegreeVec, beta: tuple[int, ...]):
        if k == n:
            if w == v:
                yield beta, wt
            return

        def seg(cur: Perm, cnt: int, last_a: int, used_b: frozenset[int], cwt: DegreeVec):
            yield from walk(k + 1, cur, cwt, beta + (cnt,))
            for i, j, ewt in edges_from(cur):
                if last_a <= i <= k < j and j not in used_b:
                    yield from seg(
                        apply_transposition(cur, i, j),
                        cnt + 1,
                        i,
                        used_b | {j},
                        deg_add(cwt, ewt),
                    )

        yield from seg(w, 0, 1, frozenset(), wt)

    yield from walk(1, u, deg_zero(n), ())


def path_schubert(u: Perm, v: Perm) -> MultiPoly:
    """Sum of x^{rho - beta} wt(P) over x^beta-admissible paths u -> v."""
    n = len(u)
    if len(v) != n:
        raise ValueError("size mismatch")
    check_gate("QBRUHAT_MAX_PATH_N", n)
    rho = tuple(range(n - 1, -1, -1))
    out: dict[Term, int] = {}
    for beta, wt in _admissible_paths(u, v):
        xe = tuple(r - b for r, b in zip(rho, beta + (0,)))
        key = (xe, wt)
        out[key] = out.get(key, 0) + 1
    return MultiPoly(n, out)


def revlex_leading(P: MultiPoly) -> tuple[DegreeVec, XKey, int]:
    """The revlex-leading term: exponents read q_1..q_{n-1}, x_1..x_n, the
    lexicographically smallest exponent vector being the largest monomial."""
    if not P.terms:
        raise ValueError("zero polynomial")
    (xe, qe) = min(P.terms, key=lambda t: t[1] + t[0])
    return qe, xe, P.terms[(xe, qe)]


# ---------------------------------------------------------------------------
# Schubert basis expansion and Gromov-Witten invariants


def schubert_expand(P: MultiPoly, grade: int) -> dict[Perm, int]:
    """Write the x-only polynomial P as sum c_z S_z over z in S_n of length
    grade, by an exact linear solve over the monomial span."""
    n = P.n
    basis = [z for z in all_permutations(n) if length(z) == grade]
    basis_polys = [schubert_poly(z) for z in basis]
    monomials = sorted(
        {xe for bp in basis_polys for (xe, _) in bp.terms}
        | {xe for (xe, _) in P.terms}
    )
    zero = deg_zero(n)
    A = [[bp.terms.get((m, zero), 0) for bp in basis_polys] for m in monomials]
    b = [P.terms.get((m, zero), 0) for m in monomials]
    sol = solve_exact(A, b)
    if sol is None:
        raise InternalConsistencyError("polynomial is outside the Schubert span")
    out = {}
    for z, c in zip(basis, sol):
        if c:
            if c.denominator != 1:
                raise InternalConsistencyError(f"non-integral Schubert coefficient {c}")
            out[z] = int(c)
    return out


def gw_min_degree(u: Perm, v: Perm) -> dict[Perm, int]:
    """Minimal-degree Gromov-Witten numbers {w: c_{u,w}^{v, d(u,v)}}."""
    n = len(u)
    check_gate("QBRUHAT_MAX_GW_N", n)
    d = min_degree(u, v)
    P = path_schubert(u, v).q_part(d)
    if not P:
        raise InternalConsistencyError("minimal q-degree part vanished")
    grade = max(sum(xe) for (xe, _) in P.terms)
    w0 = longest(n)
    coeffs = schubert_expand(P, grade)
    out: dict[Perm, int] = {}
    for z, c in coeffs.items():
        if c < 0:
            raise InternalConsistencyError(f"negative expansion coefficient at {z}")
        out[compose(w0, z)] = c
    return out


def cohomology_class_T(u: Perm, v: Perm) -> dict[Perm, int]:
    """[T_{u,v}] in the Schubert basis: {w_0 w: c_{u,w}^{v, d(u,v)}}."""
    w0 = longest(len(u))
    return {compose(w0, w): c for w, c in gw_min_degree(u, v).items()}


# ---------------------------------------------------------------------------
# descent cycling


def check_descent_cycling(u: Perm, v: Perm, i: int) -> dict:
    """Verify the vanishing and three-way identities tied to an s_i-invariant
    tilted interval; returns a report, never raises on violation."""
    from .tiltorder import interval_s_invariant

    n = len(u)
    if not 1 <= i <= n - 1:
        raise ValueError(f"descent position i={i} out of range for n={n} (need 1 <= i <= n-1)")
    if not interval_s_invariant(u, v, i):
        raise ValueError(f"[{u},{v}] is not invariant under s_{i}")
    us = apply_simple(u, i)
    vs = apply_simple(v, i)
    base = gw_min_degree(u, v)
    left = gw_min_degree(us, v)
    right = gw_min_degree(u, vs)
    from .qbgraph import ell

    grade = ell(u, v)
    violations = []
    instances = 0
    for w in all_permutations(n):
        if w[i - 1] > w[i]:
            continue
        wsi = apply_simple(w, i)
        if base.get(w, 0) != 0:
            violations.append(("vanishing", w, base[w]))
        if length(w) == grade:
            instances += 1
        triple = (base.get(wsi, 0), left.get(w, 0), right.get(w, 0))
        if len(set(triple)) != 1:
            violations.append(("equality", w, triple))
    return {
        "u": u,
        "v": v,
        "i": i,
        "ok": not violations,
        "vacuous": instances == 0,
        "violations": violations,
    }
