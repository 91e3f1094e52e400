"""The a-tilted Bruhat orders on S_n.

A tilt is a sequence a = (a_1, ..., a_n) in [n]^n, with the uniform
convention a_{n+1} := 1.  The order u <=_a v compares prefix sets under
the shifted Gale orders <=_{a_k}; the refinement u <~_a v additionally
fixes the cyclic class counts |u[k] n [a_k, a_{k+1})_c|.  For
a = (1, ..., 1) both collapse to the classical Bruhat order.
"""

from __future__ import annotations

from typing import Iterable, Literal, Optional

from .permcore import (
    InternalConsistencyError,
    Perm,
    apply_simple,
    apply_transposition,
    cyclic_interval_contains,
    prefix_set,
    shifted_gale_leq,
    shifted_less,
)
from . import qbgraph

Tilt = tuple[int, ...]


def check_tilt(a: Iterable[int], n: int) -> Tilt:
    a = tuple(a)
    if len(a) != n or not all(1 <= x <= n for x in a):
        raise ValueError(f"tilt must lie in [{n}]^{n}, got {a!r}")
    return a


def a_next(a: Tilt, k: int) -> int:
    """a_{k+1} with the convention a_{n+1} = 1."""
    return a[k] if k < len(a) else 1


# ---------------------------------------------------------------------------
# the orders


def a_leq(a: Tilt, u: Perm, v: Perm) -> bool:
    """u <=_a v: u[k] <=_{a_k} v[k] for all k."""
    n = len(u)
    if len(v) != n:
        raise ValueError("size mismatch")
    a = check_tilt(a, n)
    return all(
        shifted_gale_leq(n, a[k - 1], prefix_set(u, k), prefix_set(v, k))
        for k in range(1, n)
    )


def a_sim(a: Tilt, u: Perm, v: Perm) -> bool:
    """u ~_a v: equal counts |.[k] n [a_k, a_{k+1})_c| for all k."""
    n = len(u)
    if len(v) != n:
        raise ValueError("size mismatch")
    a = check_tilt(a, n)
    for k in range(1, n):
        lo, hi = a[k - 1], a_next(a, k)
        in_u = sum(cyclic_interval_contains(n, lo, hi, x) for x in u[:k])
        if in_u != sum(cyclic_interval_contains(n, lo, hi, x) for x in v[:k]):
            return False
    return True


def a_lesssim(a: Tilt, u: Perm, v: Perm, check: bool = True) -> bool:
    """u <~_a v, i.e. u <=_a v and u ~_a v.

    The alternative formulation (u[k] comparable under both a_k and
    a_{k+1}) is recomputed when check is on; disagreement is a bug.
    """
    n = len(u)
    result = a_leq(a, u, v) and a_sim(a, u, v)
    if check:
        a = check_tilt(a, n)
        alt = all(
            shifted_gale_leq(n, a[k - 1], prefix_set(u, k), prefix_set(v, k))
            and shifted_gale_leq(n, a_next(a, k), prefix_set(u, k), prefix_set(v, k))
            for k in range(1, n)
        )
        if alt != result:
            raise InternalConsistencyError(
                f"two <~_a formulations disagree at a={a}, u={u}, v={v}"
            )
    return result


# ---------------------------------------------------------------------------
# witness construction


def witness_a(u: Perm, v: Perm) -> Tilt:
    """A deterministic a with u <~_a v (always exists).

    a_1 is the smallest minimum of the first lattice path; each a_{k+1} is
    the smallest common minimum of the k-th and (k+1)-st lattice paths.
    """
    n = len(u)
    if len(v) != n:
        raise ValueError("size mismatch")
    mins = [
        qbgraph.min_set(n, prefix_set(u, k), prefix_set(v, k)) for k in range(1, n + 1)
    ]
    a = [min(mins[0])]
    for k in range(1, n):
        common = mins[k - 1] & mins[k]
        if not common:
            raise InternalConsistencyError(
                f"adjacent lattice paths share no minimum at k={k} for {u}, {v}"
            )
        a.append(min(common))
    return tuple(a)


def witness_a_leq(u: Perm, v: Perm) -> Tilt:
    """The componentwise-smallest a with u <=_a v (no ~ constraint)."""
    n = len(u)
    if len(v) != n:
        raise ValueError("size mismatch")
    return tuple(
        min(qbgraph.min_set(n, prefix_set(u, k), prefix_set(v, k)))
        for k in range(1, n + 1)
    )


def in_tilted_interval(u: Perm, v: Perm, w: Perm, check: Optional[bool] = None) -> bool:
    """w in [u,v], by the one-witness criterion u <~_a w <~_a v.

    With check on (default up to the graph gate) the answer is compared
    against BFS membership; disagreement is a hard failure.
    """
    n = len(u)
    a = witness_a(u, v)
    result = a_lesssim(a, u, w, check=False) and a_lesssim(a, w, v, check=False)
    if check is None:
        check = n <= 5
    if check:
        bfs = qbgraph.ell(u, w) + qbgraph.ell(w, v) == qbgraph.ell(u, v)
        if bfs != result:
            raise InternalConsistencyError(
                f"witness criterion disagrees with BFS membership at {u}, {v}, {w}"
            )
    return result


# ---------------------------------------------------------------------------
# covers


def adj_increases(a: Tilt, w: Perm, i: int) -> bool:
    """True iff w <_a w*s_i (adjacent pairs are always <=_a comparable)."""
    n = len(w)
    # a_i outside the band (w_i, w_{i+1}]_c
    return not cyclic_interval_contains(n, w[i - 1], w[i], a[i - 1], False, True)


def covers(
    a: Tilt, w: Perm, i: int, j: int, mode: Literal["leq", "lesssim"] = "leq"
) -> str:
    """Classify w against w*t_{ij}: 'cover', 'comparable', or 'incomparable'.

    'comparable' means w strictly below w*t_{ij} but not a cover;
    'incomparable' means w is not below (it may lie above).
    """
    n = len(w)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i},{j})")
    a = check_tilt(a, n)
    wi, wj = w[i - 1], w[j - 1]
    hi = j if mode == "lesssim" else j - 1
    # some a_k in the band (w_i, w_j]_c
    if any(cyclic_interval_contains(n, wi, wj, a[k - 1], False, True)
           for k in range(i, hi + 1)):
        return "incomparable"
    # no w_k in the gap (w_i, w_j)_c
    if not any(cyclic_interval_contains(n, wi, wj, w[k - 1], False, False)
               for k in range(i + 1, j)):
        return "cover"
    return "comparable"


# ---------------------------------------------------------------------------
# tilted length, descents, ascents


def a_length(a: Tilt, w: Perm) -> int:
    """Number of a-inversions: pairs i < j with w_i >_{a_i} w_j."""
    n = len(w)
    a = check_tilt(a, n)
    return sum(
        1
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if shifted_less(n, a[i - 1], w[j - 1], w[i - 1])
    )


def a_step_type(a: Tilt, w: Perm, i: int) -> Optional[str]:
    """'descent', 'ascent', or None when a_i != a_{i+1} (not applicable)."""
    n = len(w)
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range")
    if a[i - 1] != a[i]:
        return None
    if shifted_less(n, a[i - 1], w[i], w[i - 1]):
        return "descent"
    return "ascent"


def a_descents(a: Tilt, w: Perm) -> set[int]:
    return {
        i for i in range(1, len(w)) if a_step_type(a, w, i) == "descent"
    }


def a_ascents(a: Tilt, w: Perm) -> set[int]:
    return {i for i in range(1, len(w)) if a_step_type(a, w, i) == "ascent"}


# ---------------------------------------------------------------------------
# interval invariance and the k-tilted order


def interval_s_invariant(u: Perm, v: Perm, i: int) -> bool:
    """Whether [u,v] * s_i = [u,v] as a set."""
    iv = qbgraph.tilted_interval(u, v)
    return all(apply_simple(w, i) in iv.members for w in iv.members)


def strong_lifting_witness(u: Perm, v: Perm, i: int) -> Optional[Tilt]:
    """An a with u <~_a v and i in Des_a(v) n Asc_a(u), if one exists.

    Searches the witness tilt adjusted at position i per the equivalence
    of the set-invariance and lifting criteria; falls back to None.
    """
    a = witness_a(u, v)
    candidates = [a]
    if a[i - 1] != a[i]:
        b = list(a)
        b[i] = b[i - 1]
        candidates.append(tuple(b))
        c = list(a)
        c[i - 1] = c[i]
        candidates.append(tuple(c))
    for cand in candidates:
        if (
            a_lesssim(cand, u, v, check=False)
            and a_step_type(cand, v, i) == "descent"
            and a_step_type(cand, u, i) == "ascent"
        ):
            return cand
    return None


def k_tilted_leq(u: Perm, v: Perm, k: int) -> bool:
    """u <=^k v: some shortest path uses only edges t_{cd} with c <= k < d.

    The condition is independent of any tilt, so none is taken.
    """
    n = len(u)
    if len(v) != n:
        raise ValueError("size mismatch")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range")
    target = qbgraph.ell(u, v)
    # BFS on the edge-restricted graph, stopping at the unrestricted distance
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            dw = dist[w]
            if dw >= target:
                break
            for i, j, _ in qbgraph.edges_from(w):
                if not (i <= k < j):
                    continue
                t = apply_transposition(w, i, j)
                if t not in dist:
                    dist[t] = dw + 1
                    nxt.append(t)
        frontier = nxt
    return dist.get(v) == target
