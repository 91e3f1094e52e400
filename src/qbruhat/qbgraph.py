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
``InternalConsistencyError``.  ``edges_from`` enumerates the edges of one
vertex in a single O(n^2) scan that keeps, per i, a running cyclic minimum
and a bitmask of the entries passed.  It is the only edge test: every
traversal of the graph reads it, and ``edge_weight`` reads one pair's entry.
It rejects a non-permutation, read off the bitmask of its first row.

No graph query builds a table over S_n.  Minimal degrees d(u,v) come
from the lattice-path depth formula, read off ``lattice_rows`` (all n-1
paths of a pair in one incremental O(n^2) pass), and ell(u,v) = l(v) -
l(u) + 2|d(u,v)| (Postnikov); ``tiltorder`` reads the tilted orders off
the same rows.  An edge w -> t = w*t_{ij} of weight wt lies on a shortest
path to v iff d(t,v) = d(w,v) - wt; only the levels i..j-1 can change, and
each is decided in O(1) by where w's lattice path toward v attains its
minimum (``_keeps``).  ``increasing_path`` walks this test greedily, as
the label-increasing path is the lexicographically least shortest path
(Brenti-Fomin-Postnikov, Thm 6.4); ``min_degree`` checks d against it (ell
steps, weights summing to d), and ``tiltorder.k_tilted_leq`` searches the
same test.  A tilted interval [u,v] scans no edge: lattice-path heights
add, so w lies in [u,v] iff d(u,v)_k = d(u,w)_k + d(w,v)_k at every k, and
``tilted_interval`` builds the members prefix set by prefix set, each
prefix set decided once, in O(n), from ``lattice_rows(u, v)``.  The forward
and reverse BFS (``_bfs``, ``_bfs_reverse``) and the readers over them
(``bfs_ell``, ``shortest_path_weight``) are oracles for tests and
``verify``, which compare them against these routes; no production route
calls them.  Every exporter prints permutations by ``permcore.format_perm``.
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

    The (i, j) entry of ``edges_from(w)``, so the edge test, its
    cross-check and the permutation check are the kernel's.
    """
    n = len(w)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i},{j})")
    return {(a, b): wt for a, b, wt in edges_from(w)}.get((i, j))


@functools.lru_cache(maxsize=16)
def _edge_tables(
    n: int,
) -> tuple[DegreeVec, tuple[tuple[DegreeVec, ...], ...], tuple[tuple[int, ...], ...]]:
    """Per-n tables for ``edges_from``, built on first use.

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


def edges_from(w: Perm) -> list[tuple[int, int, DegreeVec]]:
    """All edges leaving w, as (i, j, weight), i ascending, then j.

    One O(n^2) scan.  For each i it walks j = i+1..n and keeps two running
    values over the entries strictly between positions i and j: ``m``, the
    least cyclic offset (x - w_i) mod n, and ``seen``, the bitmask of those
    entries.  The cyclic criterion is the O(1) test (w_j - w_i) mod n <= m,
    strict for a permutation: offsets lie in 1..n.  The length condition
    counts, by popcount, the entries strictly between w_i and w_j in the
    linear order: none for a strong edge (w_i < w_j), all j-i-1 of them for
    a quantum one.  The two are computed separately and must agree; a
    mismatch raises ``InternalConsistencyError`` (``_mismatch``).

    w is checked on the way: the first row's ``seen``, with w_1 added, must
    be {1, ..., n}, and its 1 must not be ``True``, the one non-int that
    passes every test here; a value out of range or not an int fails a
    table lookup or a shift first.  n = 1 is left to ``check_permutation``.
    A non-permutation raises ``check_permutation``'s ``ValueError``.

    >>> edges_from((3, 2, 1))
    [(1, 2, (1, 0)), (1, 3, (1, 1)), (2, 3, (0, 1))]
    """
    n = len(w)
    zero, quantum, between = _edge_tables(n)
    out, ok = [], False
    try:
        for i in range(n - 1):
            wi = w[i]
            qrow, brow = quantum[i], between[wi]
            m, seen = n, 0
            for j in range(i + 1, n):
                wj = w[j]
                inside = (seen & brow[wj]).bit_count()
                strong = wi < wj
                length_ok = inside == (0 if strong else j - i - 1)
                if (wj - wi) % n <= m:
                    if not length_ok:
                        raise _mismatch(w, i + 1, j + 1, holds=True)
                    out.append((i + 1, j + 1, zero if strong else qrow[j]))
                elif length_ok:
                    raise _mismatch(w, i + 1, j + 1, holds=False)
                d = (wj - wi - 1) % n + 1
                if d < m:
                    m = d
                seen |= 1 << wj
            if not i:
                ok = seen | 1 << wi == (2 << n) - 2 and type(w[w.index(1)]) is int
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


def tilted_interval(u: Perm, v: Perm) -> TiltedInterval:
    """[u,v] = permutations on some shortest path from u to v.

    Built prefix set by prefix set, scanning no edge.  Lattice-path heights
    add, h(u[k],v[k]) = h(u[k],w[k]) + h(w[k],v[k]), so d(u,v)_k <=
    d(u,w)_k + d(w,v)_k, and by the closed form ell(u,w) + ell(w,v) =
    ell(u,v) iff all n-1 are equalities.  Each reads only w[k], so prefixes
    grow level by level by the entries whose new prefix set passes (the last
    entry is forced).  Memos local to the call, keyed by bitmask (at most
    2^n entries each), hold d(u,w)_k of each k-set (-1 if it fails), read
    off ``lattice_rows(u, v)`` in O(n), and the passing extensions of each
    set.  l(w) and the depth sum are carried down, so rank(w) = ell(u,w) =
    l(w) - l(u) + 2|d(u,w)| costs nothing more.  d(u,v) is read off the
    same rows, d_k = -min(row k); u must be alone at rank 0 and v alone at
    rank ell(u,v), or ``InternalConsistencyError``.
    """
    _check_pair(u, v)
    rows = lattice_rows(u, v)
    d = tuple(-min(row) for row in rows)
    total = _ell(u, v, d)
    n = len(u)
    below = [sum(1 << x for x in u[:k]) for k in range(n)]  # u[k] as a bitmask
    memo: dict[int, int] = {}  # a k-set's bitmask -> d(u,w)_k, or -1
    grown: dict[int, list[tuple[int, int, int, int]]] = {}  # a set -> its steps

    def depth(s: int, k: int) -> int:
        """d(u,w)_k if the k-set s = w[k] passes level k, else -1."""
        row, um = rows[k - 1], below[k]
        h = lo_u = lo_v = 0  # h(u[k],s) at abscissa x; h(s,v[k]) = row - h
        for x in range(1, n + 1):
            h += (um >> x & 1) - (s >> x & 1)
            if h < lo_u:
                lo_u = h
            if row[x] - h < lo_v:
                lo_v = row[x] - h
        return -lo_u if lo_u + lo_v == -d[k - 1] else -1

    def steps(s: int, k: int) -> list[tuple[int, int, int, int]]:
        """(x, t = s + {x}, inversions x adds, d(u,w)_k) for every entry x
        that takes a prefix with the (k-1)-set s to a k-set t that passes."""
        out = []
        for x in range(1, n + 1):
            if not s >> x & 1:
                t = s | 1 << x
                dt = memo.get(t)
                if dt is None:
                    dt = memo[t] = depth(t, k)
                if dt >= 0:
                    out.append((x, t, (s >> x).bit_count(), dt))
        return out

    # (prefix, its set as a bitmask, its inversions, its depths summed)
    level: list[tuple[Perm, int, int, int]] = [((), 0, 0, 0)]
    for k in range(1, n):
        nxt = []
        for w, s, inv, dep in level:
            if s not in grown:
                grown[s] = steps(s, k)
            for x, t, more, dt in grown[s]:
                nxt.append((w + (x,), t, inv + more, dep + dt))
        level = nxt
    full, base = (2 << n) - 2, length(u)
    rank = {}
    for w, s, inv, dep in level:
        x = (full ^ s).bit_length() - 1
        rank[w + (x,)] = inv + (s >> x).bit_count() - base + 2 * dep
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
    the last one taken, whose edge leaves w and passes ``_keeps``, and
    ``_advance`` moves the levels on (one ``edges_from`` scan per step).
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
    a valid order."""
    w, last, path = u, -1, []
    while w != v:
        edges = {(i, j): wt for i, j, wt in edges_from(w)}
        for k in range(last + 1, len(order)):
            i, j = order[k]
            wt = edges.get((i, j))
            if wt is not None and _keeps(w, i, j, levels):
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
