"""The a-tilted Bruhat orders on S_n.

A tilt is a sequence a = (a_1, ..., a_n) in [n]^n, with the uniform
convention a_{n+1} := 1.  The order u <=_a v compares prefix sets under
the shifted Gale orders <=_{a_k}; the refinement u <~_a v additionally
fixes the cyclic class counts |u[k] n [a_k, a_{k+1})_c|.  For
a = (1, ..., 1) both collapse to the classical Bruhat order.

The orders and witness tilts are read off the lattice paths of d(u,v)
(``qbgraph.lattice_rows``): for the heights h of the path of (u[k], v[k]),
u[k] <=_r v[k] iff h_{r-1} = min h, and the counts in [a_k, a_{k+1})_c
agree iff h_{a_k - 1} = h_{a_{k+1} - 1}.  The orders and witness minima
scan ``qbgraph._row_updates`` in place, the orders up to the first level
that fails; ``k_tilted_leq`` alone copies them (``qbgraph._levels``).  The
tests compare these reads against ``permcore``'s definitions: the sorted
``shifted_gale_leq`` and the counts over ``cyclic_interval``.  A band test
"t in (x, y]_c" reads y <_t x (``shifted_less``), and the cover test's gap
is the graph's edge criterion (``qbgraph.edge_weight``).

The public tests check their input; ``lesssim`` (u <~_a v) and
``descends`` (i in Des_a(w)) are their unchecked kernels, for callers that
checked u, v and a once and then test many nodes, as the tilted
R-polynomial recursion does.
"""

from __future__ import annotations

from typing import Iterable, Literal, Optional

from .permcore import (
    InternalConsistencyError,
    Perm,
    apply_simple,
    apply_transposition,
    check_permutation,
    check_perms,
    shifted_less,
)
from . import qbgraph

Tilt = tuple[int, ...]


def check_tilt(a: Iterable[int], n: int) -> Tilt:
    a = tuple(a)
    if len(a) != n or not all(1 <= x <= n for x in a):
        raise ValueError(f"tilt must lie in [{n}]^{n}, got {a!r}")
    return a


# ---------------------------------------------------------------------------
# the orders


def a_leq(a: Tilt, u: Perm, v: Perm) -> bool:
    """u <=_a v: u[k] <=_{a_k} v[k] for all k."""
    check_perms(u, v)
    a = check_tilt(a, len(u))
    return all(h[a[k] - 1] == min(h) for k, h in enumerate(qbgraph._row_updates(u, v)))


def a_sim(a: Tilt, u: Perm, v: Perm) -> bool:
    """u ~_a v: equal counts |.[k] n [a_k, a_{k+1})_c| for all k."""
    check_perms(u, v)
    a = check_tilt(a, len(u))
    return all(h[a[k] - 1] == h[a[k + 1] - 1] for k, h in enumerate(qbgraph._row_updates(u, v)))


def a_lesssim(a: Tilt, u: Perm, v: Perm) -> bool:
    """u <~_a v, i.e. u <=_a v and u ~_a v."""
    check_perms(u, v)
    return lesssim(check_tilt(a, len(u)), u, v)


def lesssim(a: Tilt, u: Perm, v: Perm) -> bool:
    """u <~_a v for permutations u, v of one size and a tilt a of that size,
    which the caller has checked: ``a_lesssim`` without its input checks.
    It reads the rows uncopied, one level at a time, up to the first that
    fails (``qbgraph._row_updates``)."""
    k = 0
    for h in qbgraph._row_updates(u, v):
        if not h[a[k] - 1] == h[a[k + 1] - 1] == min(h):
            return False
        k += 1
    return True


# ---------------------------------------------------------------------------
# witness construction


def _minima(u: Perm, v: Perm) -> list[int]:
    """Bitmasks of the r in [n] (bit r-1) where the path of (u[k], v[k])
    is minimal, for k = 0..n (flat at 0 and n); (m & -m).bit_length() is
    the smallest r of a mask m.  These are ``qbgraph._level``'s masks
    without bit n, as h_n = h_0, read off the rows uncopied."""
    check_perms(u, v)
    flat = (1 << len(u)) - 1
    return [flat, *(qbgraph._level(h)[1] & flat for h in qbgraph._row_updates(u, v)), flat]


def witness_a(u: Perm, v: Perm) -> Tilt:
    """A deterministic a with u <~_a v (always exists).

    Each a_k is the smallest common minimum of the (k-1)-st and k-th
    lattice paths, so a_1 is the smallest minimum of the first.
    """
    mins = _minima(u, v)
    a = []
    for k in range(1, len(mins)):
        common = mins[k - 1] & mins[k]
        if not common:
            raise InternalConsistencyError(
                f"adjacent lattice paths share no minimum at k={k - 1} for {u}, {v}"
            )
        a.append((common & -common).bit_length())
    return tuple(a)


def witness_a_leq(u: Perm, v: Perm) -> Tilt:
    """The componentwise-smallest a with u <=_a v (no ~ constraint)."""
    return tuple((m & -m).bit_length() for m in _minima(u, v)[1:])


def in_tilted_interval(u: Perm, v: Perm, w: Perm) -> bool:
    """w in [u,v], by the one-witness criterion u <~_a w <~_a v alone.

    Builds no interval and no BFS table; ``verify`` and the tests compare it
    against BFS membership.
    """
    a = witness_a(u, v)
    return a_lesssim(a, u, w) and a_lesssim(a, w, v)


# ---------------------------------------------------------------------------
# covers


def adj_increases(a: Tilt, w: Perm, i: int) -> bool:
    """True iff w <_a w*s_i (adjacent pairs are always <=_a comparable)."""
    n = len(w)
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range")
    # a_i outside the band (w_i, w_{i+1}]_c
    return shifted_less(n, a[i - 1], w[i - 1], w[i])


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
    if mode not in ("leq", "lesssim"):
        raise ValueError(f"mode must be 'leq' or 'lesssim', got {mode!r}")
    check_permutation(w)
    a = check_tilt(a, n)
    wi, wj = w[i - 1], w[j - 1]
    hi = j if mode == "lesssim" else j - 1
    # some a_k in the band (w_i, w_j]_c
    if any(shifted_less(n, a[k - 1], wj, wi) for k in range(i, hi + 1)):
        return "incomparable"
    # no w_k in the gap (w_i, w_j)_c
    if qbgraph.edge_weight(w, i, j) is not None:
        return "cover"
    return "comparable"


# ---------------------------------------------------------------------------
# the tilted Rothe diagram, tilted length and descents


def tilted_rothe(a: Tilt, w: Perm) -> frozenset[tuple[int, int]]:
    """D_a(w) = {(w_i, k) : i > k, w_i <_{a_k} w_k}, the tilted Rothe diagram."""
    n = len(check_permutation(w))
    a = check_tilt(a, n)
    return frozenset(
        (w[i - 1], k)
        for k in range(1, n + 1)
        for i in range(k + 1, n + 1)
        if shifted_less(n, a[k - 1], w[i - 1], w[k - 1])
    )


def a_length(a: Tilt, w: Perm) -> int:
    """l_a(w) = |D_a(w)|: the a-inversions, pairs k < i with w_i <_{a_k} w_k."""
    return len(tilted_rothe(a, w))


def a_step_type(a: Tilt, w: Perm, i: int) -> Optional[str]:
    """'descent', 'ascent', or None when a_i != a_{i+1} (not applicable)."""
    n = len(check_permutation(w))
    a = check_tilt(a, n)
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range")
    if a[i - 1] != a[i]:
        return None
    return "descent" if descends(a, w, i) else "ascent"


def a_descents(a: Tilt, w: Perm) -> set[int]:
    """Des_a(w) = {i : a_i = a_{i+1} and w_{i+1} <_{a_i} w_i}."""
    n = len(check_permutation(w))
    a = check_tilt(a, n)
    return {i for i in range(1, n) if descends(a, w, i)}


def descends(a: Tilt, w: Perm, i: int) -> bool:
    """i in Des_a(w), for a permutation w, a tilt a of its size and
    1 <= i < n, which the caller has checked: the kernel of ``a_step_type``
    and ``a_descents``.  w_{i+1} <_t w_i reads (w_{i+1} - t) mod n <
    (w_i - t) mod n, the keys of ``permcore.shifted_key``."""
    t, n = a[i - 1], len(w)
    return t == a[i] and (w[i] - t) % n < (w[i - 1] - t) % n


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
    if not 1 <= i <= len(u) - 1:
        raise ValueError(f"position {i} out of range")
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
            a_lesssim(cand, u, v)
            and a_step_type(cand, v, i) == "descent"
            and a_step_type(cand, u, i) == "ascent"
        ):
            return cand
    return None


def k_tilted_leq(u: Perm, v: Perm, k: int) -> bool:
    """u <=^k v: some shortest path uses only edges t_{cd} with c <= k < d.

    The condition is independent of any tilt, so none is taken.  A search
    from u over the edges t_{cd}, c <= k < d, that pass ``qbgraph._keeps``
    toward v, the test of ``increasing_path``'s greedy walk (BFP Thm 6.4):
    each such edge lowers ell(., v) by one, so every path the search
    follows is a shortest path and none needs a distance kept.
    """
    qbgraph._check_pair(u, v)
    if not 1 <= k <= len(u) - 1:
        raise ValueError(f"k={k} out of range")
    seen, stack = {u}, [(u, qbgraph._levels(u, v))]
    while stack:
        w, levels = stack.pop()
        if w == v:
            return True
        for i, j, _ in qbgraph.edges_from(w):
            if i <= k < j and qbgraph._keeps(w, i, j, levels):
                t = apply_transposition(w, i, j)
                if t not in seen:
                    seen.add(t)
                    stack.append((t, qbgraph._advance(w, i, j, levels)))
    return False
