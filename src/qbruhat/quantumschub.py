"""Schubert polynomials, the quantum Chevalley-Monk rule, path Schubert
polynomials over the quantum Bruhat graph, minimal-degree Gromov-Witten
invariants, the Schubert expansion of tilted Richardson classes, and the
descent-cycling identities.

Path Schubert polynomials count admissible paths segment by segment, the
tails from each (segment, permutation, packed weight budget) once per call.
``gw_min_degree`` passes d = d(u,v) as a bound, so the walk prunes a path as
soon as its weight leaves d, and expands the q^d part triangularly.

Polynomials here are integer multipolynomials in x_1..x_n and q_1..q_{n-1}:
``MultiPoly`` is the ``poly.Poly`` keyed by (x-exponents, q-exponents), so
its ring operations are ``Poly``'s; it adds the size n, monomials and the
parts by q-degree.
"""

from __future__ import annotations

import functools
from typing import Mapping, Optional

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
from .qbgraph import DegreeVec, deg_zero, edges_from, ell, min_degree

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


def path_schubert(u: Perm, v: Perm, degree: Optional[DegreeVec] = None) -> MultiPoly:
    """Sum of x^{rho - beta} wt(P) over x^beta-admissible paths u -> v.

    Segment k walks edges t_{ab} with nondecreasing a <= k < b and distinct
    b's; a path is the concatenation of segments k = 1 .. n-1.  What may
    follow segment k depends only on k, the permutation reached and the
    weight budget left, so the tails from each such state are counted once,
    in a memo local to the call.  With ``degree`` only the paths of weight
    <= degree are summed: weights grow along a path, so an edge that leaves
    the budget ends every path through it, and the q^degree part is the
    same as without the bound.  A weight is one int, q_k's exponent in field
    k-1 under its top bit, a guard no exponent reaches (a path has at most
    n(n-1)/2 edges); a budget sets every guard, and w <= budget componentwise
    exactly when budget - w keeps every guard set.
    """
    n = len(u)
    if len(v) != n:
        raise ValueError("size mismatch")
    check_gate("QBRUHAT_MAX_PATH_N", n)
    top = n * (n - 1) // 2
    width = top.bit_length() + 1
    q = [1 << width * k for k in range(n - 1)]
    guard = sum(q) << width - 1
    step = {(i, j): sum(q[i - 1:j - 1]) for i in range(1, n) for j in range(i + 1, n + 1)}
    memo: dict[tuple[int, Perm, Optional[int]], dict] = {}
    edges: dict[Perm, list] = {}

    def tails(k: int, w: Perm, budget: Optional[int]) -> dict:
        """{(beta_k..beta_{n-1}, weight): count} over segments k..n-1 from w to v."""
        if k == n:
            return {((), 0): 1} if w == v else {}
        if (k, w, budget) in memo:
            return memo[k, w, budget]
        out: dict = {}
        # segment k so far: its end, last a, bitmask of the b's used, weight
        stack = [(w, 1, 0, 0)]
        while stack:
            cur, last_a, used, swt = stack.pop()
            rest = None if budget is None else budget - swt
            for (beta, wt), c in tails(k + 1, cur, rest).items():
                term = ((used.bit_count(),) + beta, swt + wt)
                out[term] = out.get(term, 0) + c
            if cur not in edges:
                edges[cur] = [(i, j, step[i, j] if any(e) else 0) for i, j, e in edges_from(cur)]
            for i, j, ewt in edges[cur]:
                if last_a <= i <= k < j and not used >> j & 1 and (
                    rest is None or (rest - ewt) & guard == guard
                ):
                    stack.append((apply_transposition(cur, i, j), i, used | 1 << j, swt + ewt))
        memo[k, w, budget] = out
        return out

    rho = tuple(range(n - 1, -1, -1))
    budget = None if degree is None else guard + sum(min(e, top) * b for e, b in zip(degree, q))
    return MultiPoly(n, {
        (tuple(r - b for r, b in zip(rho, beta + (0,))),
         tuple(wt >> width * k & (1 << width) - 1 for k in range(n - 1))): c
        for (beta, wt), c in tails(1, u, budget).items()
    })


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
    grade.  S_z's lex-smallest monomial is x^{code(z)}, coefficient 1
    (Macdonald, Notes on Schubert Polynomials): peel c S_z off P for its
    lex-smallest term c x^e, code(z) = e, until P is zero."""
    n = P.n
    out = {}
    while P:
        qe, e, c = revlex_leading(P)
        free = list(range(1, n + 1))  # z: the permutation whose Lehmer code is e
        z = tuple(free.pop(ei) for ei in e) if all(ei < n - i for i, ei in enumerate(e)) else None
        if any(qe) or z is None or length(z) != grade:
            raise InternalConsistencyError("polynomial is outside the Schubert span")
        out[z] = c
        P = P - c * schubert_poly(z)
    return out


def gw_min_degree(u: Perm, v: Perm) -> dict[Perm, int]:
    """Minimal-degree Gromov-Witten numbers {w: c_{u,w}^{v, d(u,v)}}."""
    n = len(u)
    check_gate("QBRUHAT_MAX_GW_N", n)
    # every path u -> v weighs at least d (Postnikov), so the bound keeps
    # exactly the paths of weight d, and nothing else may appear; a d that
    # is not the least path weight fails that guard, which is why the
    # depth formula's own check walk is skipped
    d = min_degree(u, v, check=False)
    P = path_schubert(u, v, d)
    if P.q_weights() != {d}:
        raise InternalConsistencyError(f"paths under the bound {d} weigh {sorted(P.q_weights())}")
    grade = max(sum(xe) for (xe, _) in P.terms)
    w0 = longest(n)
    coeffs = schubert_expand(P.q_part(d), grade)
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
