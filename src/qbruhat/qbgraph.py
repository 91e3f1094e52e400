"""The quantum Bruhat graph on S_n.

Edges go w -> w*t_{ij} for i < j and exist iff no entry strictly between
positions i and j lies in the open cyclic interval (w_i, w_j)_c.  Strong
edges raise length by 1 and carry weight 1; quantum edges drop it by
2(j-i)-1 and carry weight q_{ij} = q_i q_{i+1} ... q_{j-1}.  Weights are
degree vectors: tuples of n-1 nonnegative integers (exponents of q_k).

Every edge is checked by two separately computed conditions: the cyclic
criterion above and the length condition (no entry between positions i and
j lies between w_i and w_j in the linear order for a strong edge, all of
them do for a quantum edge); a disagreement raises
``InternalConsistencyError``.  The edge test is one kernel, ``_edge_row``:
the edges w -> w*t_{ij} of one i, in an O(n) scan that keeps a running
cyclic minimum and a bitmask of the entries passed.  ``edges_from`` joins
the n-1 rows of a vertex and rejects a non-permutation, read off the
bitmask of its first row; ``edge_weight`` checks w and reads row i alone;
``increasing_path`` and ``tiltorder.k_tilted_leq`` scan only the rows they
need.

No graph query builds a table over S_n.  Minimal degrees d(u,v) come
from the lattice-path depth formula, read off ``lattice_rows`` (all n-1
paths of a pair in one incremental O(n^2) pass), and ell(u,v) = l(v) -
l(u) + 2|d(u,v)| (Postnikov); ``tiltorder`` reads the tilted orders off
the same rows.  An edge w -> t = w*t_{ij} of weight wt lies on a shortest
path to v iff d(t,v) = d(w,v) - wt; only the levels i..j-1 can change, and
each is decided in O(1) by where w's lattice path toward v attains its
minimum (``_keeps``).  ``increasing_path`` walks this test greedily, as
the label-increasing path is the lexicographically least shortest path
(Brenti-Fomin-Postnikov, Thm 6.4), testing ``_keeps`` first and scanning
one edge row per step; ``min_degree`` checks d against it (ell steps,
weights summing to d), and ``tiltorder.k_tilted_leq`` searches the same
test.  A tilted interval [u,v] scans no edge: lattice-path heights add, so
w lies in [u,v] iff d(u,v)_k = d(u,w)_k + d(w,v)_k at every k.
``_passing_sets`` sweeps the prefix sets once, level by level, deciding
each in O(1) by a packed band test against the prefix counts of u and v;
``tilted_interval`` folds the members out of the sets that pass, and the
Plücker route of ``varietylab`` counts chains over them.  The BFS tables
(``_bfs``, ``_bfs_reverse``) and the readers over them (``bfs_ell``,
``shortest_path_weight``) are oracles for tests and ``verify``, which
compare them against these routes; no production route calls them.  Every
exporter prints permutations by ``permcore.format_perm``.
"""

from __future__ import annotations

import functools
import json
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .permcore import (
    InternalConsistencyError,
    Perm,
    all_permutations,
    apply_transposition,
    check_gate,
    check_permutation,
    check_perms,
    format_perm,
    length,
    perm_from_word,
)

DegreeVec = tuple[int, ...]

def deg_zero(n: int) -> DegreeVec:
    return (0,) * (n - 1)


def deg_add(a: DegreeVec, b: DegreeVec) -> DegreeVec:
    return tuple(x + y for x, y in zip(a, b))


def deg_leq(a: DegreeVec, b: DegreeVec) -> bool:
    """Componentwise; "minimal" always means componentwise."""
    return all(x <= y for x, y in zip(a, b))


def format_degree(d: DegreeVec) -> str:
    """Monomial string, e.g. (1,2) -> 'q1*q2^2'; zero vector -> '1'."""
    parts = []
    for i, e in enumerate(d, start=1):
        if e == 1:
            parts.append(f"q{i}")
        elif e > 1:
            parts.append(f"q{i}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# edges


def _mismatch(w: Perm, i: int, j: int, holds: bool) -> InternalConsistencyError:
    check_permutation(w)  # a non-permutation is bad input, not a kernel fault
    if holds:
        what = "edge criterion holds but neither length condition does"
    else:
        what = "edge criterion and length condition disagree"
    return InternalConsistencyError(f"{what} at {w}, t_{i}{j}")


def edge_weight(w: Perm, i: int, j: int) -> Optional[DegreeVec]:
    """Weight of the edge w -> w*t_{ij}, or None if absent.

    w is checked, then row i of the kernel (``_edge_row``) is scanned, so
    the edge test and its cross-check are ``edges_from``'s.
    """
    n = len(w)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i},{j})")
    check_permutation(w)
    row: list[tuple[int, int, DegreeVec]] = []
    _edge_row(w, i, row)
    return next((wt for _, b, wt in row if b == j), None)


@functools.lru_cache(maxsize=16)
def _edge_tables(
    n: int,
) -> tuple[DegreeVec, tuple[tuple[DegreeVec, ...], ...], tuple[tuple[int, ...], ...]]:
    """Per-n tables for ``_edge_row``, built on first use.

    ``quantum[i][j]`` is the (i+1, j+1) indicator weight (0-based i < j);
    ``between[a][b]`` is the bitmask of the values strictly between a and b
    (bit x stands for the value x; 0 when a == b).
    """
    quantum = tuple(
        tuple(tuple(1 if i < k <= j else 0 for k in range(1, n)) for j in range(n))
        for i in range(n)
    )
    between = tuple(
        tuple(
            (1 << max(a, b)) - (2 << min(a, b)) if a != b else 0
            for b in range(n + 1)
        )
        for a in range(n + 1)
    )
    return deg_zero(n), quantum, between


def _edge_row(w: Perm, i: int, out: list[tuple[int, int, DegreeVec]]) -> int:
    """Append the edges w -> w*t_{ij}, j = i+1..n, to out as (i, j, weight),
    j ascending, and return the bitmask of w_{i+1}, ..., w_n.

    One O(n) scan that walks j and keeps two running values over the entries
    strictly between positions i and j: ``m``, the least cyclic offset
    (x - w_i) mod n, and ``seen``, the bitmask of those entries.  The cyclic
    criterion is the O(1) test (w_j - w_i) mod n <= m, strict for a
    permutation: offsets lie in 1..n.  The length condition counts, by
    popcount, the entries strictly between w_i and w_j in the linear order:
    none for a strong edge (w_i < w_j), all j-i-1 of them for a quantum one.
    The two are computed separately and must agree; a mismatch raises
    ``InternalConsistencyError`` (``_mismatch``).  w is not checked here.
    """
    n = len(w)
    zero, quantum, between = _edge_tables(n)
    wi = w[i - 1]
    qrow, brow = quantum[i - 1], between[wi]
    m, seen = n, 0
    for j in range(i, n):  # 0-based: position j + 1
        wj = w[j]
        inside = (seen & brow[wj]).bit_count()
        strong = wi < wj
        length_ok = inside == (0 if strong else j - i)
        if (wj - wi) % n <= m:
            if not length_ok:
                raise _mismatch(w, i, j + 1, holds=True)
            out.append((i, j + 1, zero if strong else qrow[j]))
        elif length_ok:
            raise _mismatch(w, i, j + 1, holds=False)
        d = (wj - wi - 1) % n + 1
        if d < m:
            m = d
        seen |= 1 << wj
    return seen


def edges_from(w: Perm) -> list[tuple[int, int, DegreeVec]]:
    """All edges leaving w, as (i, j, weight), i ascending, then j: the rows
    ``_edge_row(w, i)`` for i = 1..n-1 joined, in O(n^2).

    w is checked on the way: the first row's bitmask, with w_1 added, must
    be {1, ..., n}, and its 1 must not be ``True``, the one non-int that
    passes every test here; a value out of range or not an int fails a
    table lookup or a shift first.  n = 1 is left to ``check_permutation``.
    A non-permutation raises ``check_permutation``'s ``ValueError``.

    >>> edges_from((3, 2, 1))
    [(1, 2, (1, 0)), (1, 3, (1, 1)), (2, 3, (0, 1))]
    """
    n = len(w)
    out: list[tuple[int, int, DegreeVec]] = []
    ok = False
    try:
        for i in range(1, n):
            seen = _edge_row(w, i, out)
            if i == 1:
                ok = seen | 1 << w[0] == (2 << n) - 2 and type(w[w.index(1)]) is int
    except (IndexError, TypeError, ValueError):  # a value out of range or not an int
        ok = False
    if not ok:
        check_permutation(w)
    return out


def graph_edges(n: int) -> Iterator[tuple[Perm, Perm, DegreeVec]]:
    """All edges of Gamma_n as (source, target, weight)."""
    check_gate("QBRUHAT_MAX_N", n)
    for w in all_permutations(n):
        for i, j, wt in edges_from(w):
            yield w, apply_transposition(w, i, j), wt


# ---------------------------------------------------------------------------
# BFS oracles: distances and shortest-path weights over all of S_n


@functools.lru_cache(maxsize=128)
def _bfs(src: Perm) -> dict[Perm, tuple[int, Optional[tuple[Perm, DegreeVec]]]]:
    """BFS table from src: w -> (distance, (predecessor, edge weight)).

    An oracle; no production route calls it.  Ungated: a cache hit would
    skip a check here, so every caller checks the graph gate before it asks
    for a table.  The cache holds every source of S_5.
    """
    table: dict[Perm, tuple[int, Optional[tuple[Perm, DegreeVec]]]] = {
        src: (0, None)
    }
    frontier = [src]
    while frontier:
        nxt = []
        for w in frontier:
            dw = table[w][0]
            for i, j, wt in edges_from(w):
                t = apply_transposition(w, i, j)
                if t not in table:
                    table[t] = (dw + 1, (w, wt))
                    nxt.append(t)
        frontier = nxt
    return table


@functools.lru_cache(maxsize=128)
def _bfs_reverse(dst: Perm) -> dict[Perm, int]:
    """Distance-to table: w -> length of the shortest path w -> dst.

    An oracle for ``tilted_interval``; no production route calls it.
    Ungated and bounded, like ``_bfs``.
    """
    n = len(dst)
    dist = {dst: 0}
    frontier = [dst]
    while frontier:
        nxt = []
        for t in frontier:
            dt = dist[t]
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    w = apply_transposition(t, i, j)
                    if w not in dist and edge_weight(w, i, j) is not None:
                        dist[w] = dt + 1
                        nxt.append(w)
        frontier = nxt
    return dist


def _check_pair(u: Perm, v: Perm) -> None:
    check_perms(u, v)
    check_gate("QBRUHAT_MAX_N", len(u))


def bfs_ell(u: Perm, v: Perm) -> int:
    """ell(u,v) as the distance in the BFS table from u (oracle)."""
    _check_pair(u, v)
    return _bfs(u)[v][0]


def shortest_path_weight(u: Perm, v: Perm) -> DegreeVec:
    """Weight of one BFS shortest path from u to v."""
    _check_pair(u, v)
    table = _bfs(u)
    d = deg_zero(len(u))
    w = v
    while True:
        _, back = table[w]
        if back is None:
            return d
        w, wt = back
        d = deg_add(d, wt)


# ---------------------------------------------------------------------------
# lattice paths and minimal degrees


def _lattice_heights(n: int, A: Iterable[int], B: Iterable[int]) -> list[int]:
    """Heights h_0..h_n of the lattice path of (A, B); h_{x-1} is at abscissa x."""
    A, B = set(A), set(B)
    if len(A) != len(B):
        raise ValueError("subset size mismatch")
    h = [0]
    for i in range(1, n + 1):
        step = (1 if i in A else 0) - (1 if i in B else 0)
        h.append(h[-1] + step)
    return h


def lattice_depth(n: int, A: Iterable[int], B: Iterable[int]) -> int:
    """Largest y >= 0 such that the path of (A, B) touches height -y.

    >>> lattice_depth(7, {3, 4, 6, 7}, {1, 2, 3, 5})
    2
    """
    return -min(_lattice_heights(n, A, B))


def min_set(n: int, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """All r in [n] where the lattice path attains its minimum.

    These are exactly the r with A <=_r B in the shifted Gale order.

    >>> sorted(min_set(7, {3, 4, 6, 7}, {1, 2, 3, 5}))
    [3, 4, 6]
    """
    h = _lattice_heights(n, A, B)
    m = min(h)
    return frozenset(r for r in range(1, n + 1) if h[r - 1] == m)


def lattice_rows(u: Perm, v: Perm) -> list[list[int]]:
    """Heights of the lattice path of (u[k], v[k]) for k = 1..n-1: row k's
    depth is d(u,v)_k, and u[k] <=_r v[k] iff h_{r-1} is the row's minimum.

    As h_x = |u[k] n [1,x]| - |v[k] n [1,x]|, row k is row k-1 with one
    slice changed: +1 on [u_k, v_k) when u_k < v_k, -1 on [v_k, u_k) when
    u_k > v_k.  One pass builds all n-1 rows in O(n^2), with no sets.

    >>> lattice_rows((2, 3, 1), (1, 2, 3))
    [[0, -1, 0, 0], [0, -1, -1, 0]]
    """
    return [row[:] for row in _row_updates(u, v)]


def _row_updates(u: Perm, v: Perm) -> Iterator[list[int]]:
    """The rows of ``lattice_rows(u, v)`` as one list, yielded after each
    update: valid until the next, and no later row is built for a reader
    that stops."""
    row = [0] * (len(u) + 1)
    for k in range(len(u) - 1):
        a, b = u[k], v[k]
        if a < b:
            for x in range(a, b):
                row[x] += 1
        elif a > b:
            for x in range(b, a):
                row[x] -= 1
        yield row


Levels = list[tuple[list[int], int]]


def _level(row: list[int]) -> tuple[list[int], int]:
    """A lattice path's heights with the bitmask of the abscissae x where it
    attains its minimum (bit x stands for h_x)."""
    m = min(row)
    mask = 0
    for x, y in enumerate(row):
        if y == m:
            mask |= 1 << x
    return row, mask


def _levels(u: Perm, v: Perm) -> Levels:
    """``_level`` of each of ``lattice_rows(u, v)``; row k's depth is d(u,v)_k."""
    return [_level(row) for row in lattice_rows(u, v)]


def _keeps(w: Perm, i: int, j: int, levels: Levels) -> bool:
    """Whether d(t,v) = d(w,v) - wt for the edge w -> t = w*t_{ij} of weight
    wt, given w's ``_levels`` toward v.

    By Postnikov's theorem this is ell(t,v) = ell(w,v) - 1: the edge lies on
    a shortest path to v.  Only the levels i..j-1 differ: there t's prefix
    trades w_i for w_j, which lowers the heights on [w_i, w_j) by one for a
    strong edge (weight 0 there) and raises them on [w_j, w_i) by one for a
    quantum edge (weight 1 there).  So the depth stays put iff no minimum
    lies in [w_i, w_j), and drops by one iff every minimum lies in [w_j, w_i).
    """
    wi, wj = w[i - 1], w[j - 1]
    # the abscissae where no minimum may lie: [w_i, w_j), or outside [w_j, w_i)
    banned = (1 << wj) - (1 << wi) if wi < wj else ~((1 << wi) - (1 << wj))
    for k in range(i - 1, j - 1):
        if levels[k][1] & banned:
            return False
    return True


def _advance(w: Perm, i: int, j: int, levels: Levels) -> Levels:
    """The ``_levels`` of w*t_{ij} toward v, from w's."""
    wi, wj = w[i - 1], w[j - 1]
    lo, hi, s = (wi, wj, -1) if wi < wj else (wj, wi, 1)
    out = list(levels)
    for k in range(i - 1, j - 1):
        row = levels[k][0]
        out[k] = _level(row[:lo] + [x + s for x in row[lo:hi]] + row[hi:])
    return out


def min_degree(u: Perm, v: Perm, check: bool = True) -> DegreeVec:
    """Minimal degree d(u,v): d_k = depth of the lattice path of (u[k], v[k]).

    d is read off ``lattice_rows(u, v)``, d_k = -min(row k).  With check
    (the default) it is cross-checked against ``increasing_path(u, v)``, a
    greedy walk along a shortest path (BFP Thm 6.4), which must take exactly
    ell(u,v) steps with weights summing to d, or ``InternalConsistencyError``;
    its walk starts from the rows d was read from.  check=False skips it.
    """
    check_perms(u, v)
    rows = lattice_rows(u, v)
    d = tuple(-min(row) for row in rows)
    if not check:
        return d
    path = _walk(u, v, [_level(row) for row in rows], _default_order(len(u)))
    total = tuple(map(sum, zip(deg_zero(len(u)), *(wt for _, _, wt in path))))
    if len(path) != _ell(u, v, d) or total != d:
        raise InternalConsistencyError(
            f"depth formula {d} has no path of its length and weight from "
            f"{format_perm(u)} to {format_perm(v)}: the increasing path has "
            f"{len(path)} steps of weight {total}"
        )
    return d


def _ell(u: Perm, v: Perm, d: DegreeVec) -> int:
    return length(v) - length(u) + 2 * sum(d)


def ell(u: Perm, v: Perm) -> int:
    """Length of the shortest directed path from u to v; always finite.

    Closed form l(v) - l(u) + 2|d(u,v)| over the lattice-path depths.
    """
    _check_pair(u, v)
    return _ell(u, v, min_degree(u, v, check=False))


# ---------------------------------------------------------------------------
# tilted Bruhat intervals


class TiltedInterval(NamedTuple):
    u: Perm
    v: Perm
    ell: int
    d: DegreeVec
    members: frozenset[Perm]
    rank: dict[Perm, int]

    def __contains__(self, w: Perm) -> bool:
        return w in self.members

    def poset_leq(self, x: Perm, y: Perm) -> bool:
        """x precedes y on some shortest path from u to v."""
        if x not in self.members or y not in self.members:
            raise ValueError("not interval members")
        return self.rank[x] + ell(x, y) + ell(y, self.v) == self.ell


@functools.lru_cache(maxsize=16)
def _fields(n: int) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """Per-n constants of ``_passing_sets``' band test, built on first use.

    The band test packs one W-bit field per abscissa x = 0..n into an int,
    field x at bit W*x, with W = bit_length(4n) + 1.  Returned: W; the
    guard, the top bit of every field; ``step[x]``, 1 in the fields x..n
    (the prefix counts of {x}, so a k-set's counts are the sum of its
    entries' steps); and ``off[c]``, 3n - c in every field.
    """
    width = (4 * n).bit_length() + 1
    ones = sum(1 << width * x for x in range(n + 1))
    step = tuple(ones >> width * x << width * x for x in range(n + 1))
    off = tuple((3 * n - c) * ones for c in range(n + 1))
    return width, ones << width - 1, step, off


def _passing_sets(u: Perm, v: Perm, rows: list[list[int]]) -> list[dict[int, int]]:
    """The prefix sets of [u,v], for u, v and ``lattice_rows(u, v)``: entry
    k - 1 maps each k-set t (a bitmask, bit x for the entry x) that passes
    level k and extends a set of entry k - 2 (the empty set for k = 1) to
    d(u,w)_k, for k = 1..n-1.  One forward sweep tests each such t once,
    in O(1), by the band test below.

    The test.  Let cu, cv and P be the prefix counts of u[k], v[k] and t
    (cu(x) = |u[k] n [1, x]|), so that row k is cu - cv, and let x* be an
    abscissa where row k is minimal.  The heights h = cu - P of the path
    of (u[k], t) and g = P - cv of (t, v[k]) add up to row k, so min h +
    min g <= row(x*) = min row, with equality iff h and g both attain
    their minima at x*: t passes iff, for every x,
    cv(x) - cv(x*) <= P(x) - P(x*) <= cu(x) - cu(x*), and then
    d(u,w)_k = -h(x*) = P(x*) - cu(x*).

    The packing.  P, cu and cv are ints with the fields of ``_fields(n)``.
    P is the parent's plus ``step[x]``, and cu, cv move by one step per
    level.  Re-centred at x* and offset by 3n, the three sides hold
    differences of counts in [0, n] plus 3n, so every field lies in
    [2n, 4n], below the guard 2^(W-1) > 4n as W - 1 = bit_length(4n).  So
    ``a | guard`` adds the guard to every field of a, and (a | guard) - b,
    for b with fields in [2n, 4n] too, has fields in [guard - 2n,
    guard + 2n], inside [0, 2^W): no borrow leaves a field, and a field
    keeps its guard iff a's field is at least b's.  Each side of the test
    is one such subtraction.
    """
    n = len(u)
    width, guard, step, off = _fields(n)
    mask = (1 << width) - 1
    out: list[dict[int, int]] = []
    level, counts = {0: 0}, {0: 0}  # counts: a tested set -> its packed prefix counts
    pu = pv = 0
    for k in range(1, n):
        pu += step[u[k - 1]]
        pv += step[v[k - 1]]
        row = rows[k - 1]
        at = width * row.index(min(row))
        cu = pu >> at & mask
        hi, lo = pu + off[cu] | guard, pv + off[pv >> at & mask]
        below, level, tried = level, {}, {}
        for s in below:
            ps = counts[s]
            for x in range(1, n + 1):
                t = s | 1 << x
                if t == s or t in tried:
                    continue
                pt = tried[t] = ps + step[x]
                p = pt >> at & mask
                a = pt + off[p]
                if (a | guard) - lo & guard == guard and hi - a & guard == guard:
                    level[t] = p - cu
        out.append(level)
        counts = tried
    return out


def tilted_interval(u: Perm, v: Perm) -> TiltedInterval:
    """[u,v] = permutations on some shortest path from u to v.

    Built prefix set by prefix set, scanning no edge.  Lattice-path heights
    add, h(u[k],v[k]) = h(u[k],w[k]) + h(w[k],v[k]), so d(u,v)_k <=
    d(u,w)_k + d(w,v)_k, and by the closed form ell(u,w) + ell(w,v) =
    ell(u,v) iff all n-1 are equalities.  Each reads only w[k], so the
    members are the chains of the sets ``_passing_sets`` lists with their
    depths d(u,w)_k (the last entry is forced).  They are folded level by
    level: prefixes are grouped by their set, a set's prefixes extend those
    of each listed set one entry smaller, and each prefix carries one int,
    its inversions plus twice its depths summed, so rank(w) = ell(u,w) =
    l(w) - l(u) + 2|d(u,w)| costs nothing more.  d(u,v) is read off
    ``lattice_rows(u, v)``, d_k = -min(row k); u must be alone at rank 0 and
    v alone at rank ell(u,v), or ``InternalConsistencyError``.
    """
    _check_pair(u, v)
    rows = lattice_rows(u, v)
    d = tuple(-min(row) for row in rows)
    total = _ell(u, v, d)
    n = len(u)
    # a prefix set -> its prefixes, each with its inversions + 2 * its depth sum
    groups: dict[int, list[tuple[Perm, int]]] = {0: [((), 0)]}
    for level in _passing_sets(u, v, rows):
        nxt: dict[int, list[tuple[Perm, int]]] = {}
        for t, dt in level.items():
            nxt[t] = here = []
            rest = t
            while rest:
                b = rest & -rest
                rest ^= b
                group = groups.get(t ^ b)
                if group:
                    x = b.bit_length() - 1
                    c = (t >> x + 1).bit_count() + 2 * dt
                    here += [(w + (x,), r + c) for w, r in group]
        groups = nxt
    full, base = (2 << n) - 2, length(u)
    rank = {}
    for s, group in groups.items():
        x = (full ^ s).bit_length() - 1
        c = (s >> x).bit_count() - base
        for w, r in group:
            rank[w + (x,)] = r + c
    ends = {w for w, r in rank.items() if not 0 < r < total}
    if ends != {u, v} or rank[u] != 0 or rank[v] != total:
        raise InternalConsistencyError(
            f"the prefix sets of [{format_perm(u)}, {format_perm(v)}] put "
            f"{sorted(format_perm(w) for w in ends)} at rank 0, {total} or "
            f"beyond, not {format_perm(u)} alone at 0 and {format_perm(v)} "
            f"alone at {total}"
        )
    return TiltedInterval(u=u, v=v, ell=total, d=d, members=frozenset(rank), rank=rank)


def interval_hasse_edges(iv: TiltedInterval) -> list[tuple[Perm, Perm]]:
    """Cover pairs of the interval poset: graph edges between adjacent ranks."""
    out = []
    for x in iv.members:
        for i, j, _ in edges_from(x):
            y = apply_transposition(x, i, j)
            if y in iv.members and iv.rank[y] == iv.rank[x] + 1:
                out.append((x, y))
    return sorted(out, key=lambda e: (iv.rank[e[0]], e[0], e[1]))


# ---------------------------------------------------------------------------
# reflection orderings and label-increasing paths

Root = tuple[int, int]  # (i, j) encodes e_i - e_j, i < j


def reflection_order_from_word(n: int, word: Sequence[int]) -> list[Root]:
    """gamma_j = s_{i_1}...s_{i_{j-1}}(alpha_{i_j}) for a reduced word of w_0."""
    if len(word) != n * (n - 1) // 2 or perm_from_word(n, word) != tuple(
        range(n, 0, -1)
    ):
        raise ValueError("not a reduced word for the longest element")
    order: list[Root] = []
    prefix = tuple(range(1, n + 1))
    for i in word:
        a, b = prefix[i - 1], prefix[i]
        order.append((a, b) if a < b else (b, a))
        prefix = apply_transposition(prefix, i, i + 1)
    return order


def default_reflection_order(n: int) -> list[Root]:
    """All roots e_1 - e_j first, then e_2 - e_j, and so on (lex order): the
    order of the reduced word (1 2 ... n-1)(1 2 ... n-2)...(1) of w_0."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


@functools.lru_cache(maxsize=16)
def _default_order(n: int) -> tuple[Root, ...]:
    """``default_reflection_order(n)``, built once per n."""
    return tuple(default_reflection_order(n))


def is_reflection_order(n: int, order: Sequence[Root]) -> bool:
    """Betweenness test: e_i - e_k lies between e_i - e_j and e_j - e_k."""
    expected = {(i, j) for i in range(1, n) for j in range(i + 1, n + 1)}
    if set(order) != expected or len(order) != len(expected):
        return False
    pos = {root: idx for idx, root in enumerate(order)}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            for k in range(j + 1, n + 1):
                lo, hi = sorted((pos[(i, j)], pos[(j, k)]))
                if not lo < pos[(i, k)] < hi:
                    return False
    return True


def increasing_path(
    u: Perm, v: Perm, order: Optional[Sequence[Root]] = None
) -> list[tuple[Perm, Root, DegreeVec]]:
    """The unique directed path u -> v with strictly increasing edge labels.

    Returns the edge list [(source, (i,j) label root, weight)]; the edge
    w -> w*t_{ij} carries the label (i, j).  For any reflection ordering
    this path is the lexicographically least shortest path (Brenti-Fomin-
    Postnikov, IMRN 1999, Thm 6.4), of length ell(u,v) and weight q^{d(u,v)}.
    So a greedy walk from u finds it: each step takes the first label, after
    the last one taken, that passes ``_keeps`` and whose edge leaves w, and
    ``_advance`` moves the levels on.  ``_keeps`` is tested first, and only
    the edge row of a label that passes is scanned (``_edge_row``), so a
    step costs one O(n) row scan, not the O(n^2) ``edges_from``.
    Labels increase, so the walk ends within n(n-1)/2 steps, or raises
    ``InternalConsistencyError`` when no label qualifies.  The path is unique
    among all paths, so ``_keeps`` only prunes: a faulty test can make the
    walk raise, never return another path.
    """
    check_perms(u, v)
    n = len(u)
    if order is None:
        order = _default_order(n)
    elif not is_reflection_order(n, order):
        raise ValueError("not a valid reflection ordering")
    return _walk(u, v, _levels(u, v), order)


def _walk(
    u: Perm, v: Perm, levels: Levels, order: Sequence[Root]
) -> list[tuple[Perm, Root, DegreeVec]]:
    """``increasing_path``'s walk, for checked u, v, u's levels toward v and
    a valid order.  At each w it tests the labels in order with ``_keeps``
    first, and scans the edge row (``_edge_row``) of a label that passes:
    the label taken is the first that passes and whose row holds its edge.
    """
    w, last, path = u, -1, []
    while w != v:
        for k in range(last + 1, len(order)):
            i, j = order[k]
            if _keeps(w, i, j, levels):
                row: list[tuple[int, int, DegreeVec]] = []
                _edge_row(w, i, row)
                wt = next((e for _, b, e in row if b == j), None)
                if wt is not None:
                    break
        else:
            raise InternalConsistencyError(
                f"no label-increasing path {format_perm(u)} -> {format_perm(v)}: "
                f"the walk stopped at {format_perm(w)}"
            )
        path.append((w, (i, j), wt))
        levels = _advance(w, i, j, levels)
        w, last = apply_transposition(w, i, j), k
    return path


# ---------------------------------------------------------------------------
# export


def graph_dot(n: int) -> str:
    """DOT rendering of Gamma_n; quantum edges dashed and labeled."""
    lines = [f'digraph "qbruhat{n}" {{']
    for w, t, wt in graph_edges(n):
        if any(wt):
            lines.append(
                f'  "{format_perm(w)}" -> "{format_perm(t)}" '
                f'[style=dashed, label="{format_degree(wt)}"];'
            )
        else:
            lines.append(f'  "{format_perm(w)}" -> "{format_perm(t)}";')
    lines.append("}")
    return "\n".join(lines)


def ranked_members(iv: TiltedInterval) -> list[tuple[int, str]]:
    """(rank, formatted member) by rank and then lexicographically, as the
    interval printers list them."""
    ws = sorted(sorted(iv.members), key=iv.rank.__getitem__)
    return [(iv.rank[w], format_perm(w)) for w in ws]


def interval_dot(iv: TiltedInterval) -> str:
    """DOT rendering of the Hasse diagram of a tilted interval."""
    name = f"{format_perm(iv.u)}_{format_perm(iv.v)}"
    lines = [f'digraph "interval_{name}" {{', "  rankdir=BT;"]
    for rank, w in ranked_members(iv):
        lines.append(f'  "{w}" [rank={rank}];')
    for x, y in interval_hasse_edges(iv):
        lines.append(f'  "{format_perm(x)}" -> "{format_perm(y)}";')
    lines.append("}")
    return "\n".join(lines)


def interval_json(iv: TiltedInterval) -> str:
    return json.dumps(
        {
            "u": format_perm(iv.u),
            "v": format_perm(iv.v),
            "ell": iv.ell,
            "d": list(iv.d),
            "members": [w for _, w in ranked_members(iv)],
        }
    )
