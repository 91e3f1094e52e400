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
and a bitmask of the entries passed; every traversal of the graph reads it.
``edge_weight`` is the same test for one pair (i, j), in O(j-i).

Shortest-path lengths ell(u,v) are distances in the forward BFS table
from u; minimal degrees d(u,v) come from the lattice-path depth formula
and are cross-checked against the weight of an actual BFS shortest path.
A tilted interval [u,v] is read off the same forward table by walking
back from v over its shortest-path DAG.  The reverse BFS (``_bfs_reverse``)
is an independent oracle for tests and is not used by production routes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .permcore import (
    InternalConsistencyError,
    Perm,
    all_permutations,
    apply_transposition,
    check_gate,
    compose,
    format_perm,
    gate,
    long_cycle,
    perm_from_word,
    prefix_set,
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


def length_change(w: Perm, i: int, j: int) -> int:
    """length(w*t_{ij}) - length(w), in O(j-i).

    Swapping w_i and w_j changes the inversion count by 1 + 2c, where c
    counts the entries strictly between positions i and j whose values lie
    strictly between w_i and w_j; the sign is + iff w_i < w_j.

    >>> length_change((2, 3, 1, 4), 1, 4)
    3
    """
    wi, wj = w[i - 1], w[j - 1]
    lo, hi = (wi, wj) if wi < wj else (wj, wi)
    inside = sum(1 for x in w[i:j - 1] if lo < x < hi)
    return 1 + 2 * inside if wi < wj else -1 - 2 * inside


def _mismatch(w: Perm, i: int, j: int, holds: bool) -> InternalConsistencyError:
    if holds:
        what = "edge criterion holds but neither length condition does"
    else:
        what = "edge criterion and length condition disagree"
    return InternalConsistencyError(f"{what} at {w}, t_{i}{j}")


def edge_weight(w: Perm, i: int, j: int) -> Optional[DegreeVec]:
    """Weight of the edge w -> w*t_{ij}, or None if absent.

    Uses the uniform cyclic-interval criterion and cross-checks it against
    the two length conditions on ``length_change``; a mismatch is a
    theorem violation.  This is the per-pair test; ``edges_from`` is the
    per-vertex kernel.
    """
    n = len(w)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i},{j})")
    # x in (w_i, w_j)_c iff 0 < (x - w_i) mod n < (w_j - w_i) mod n
    wi, wj = w[i - 1], w[j - 1]
    span = (wj - wi) % n
    ok = all(not 0 < (x - wi) % n < span for x in w[i:j - 1])
    delta = length_change(w, i, j)
    if not ok:
        if delta == 1 or delta == 1 - 2 * (j - i):
            raise _mismatch(w, i, j, holds=False)
        return None
    if delta == 1:
        return deg_zero(n)
    if delta == 1 - 2 * (j - i):
        return tuple(1 if i <= k < j else 0 for k in range(1, n))
    raise _mismatch(w, i, j, holds=True)


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
    entries.  The cyclic criterion is the O(1) test (w_j - w_i) mod n <= m.
    Offsets are taken in 1..n, so that, as in ``edge_weight``, an entry
    equal to w_i (possible only when w is no permutation) blocks nothing;
    for a permutation the test is strict.  The length condition counts, by
    popcount, the entries strictly between w_i and w_j in the linear order:
    none for a strong edge (w_i < w_j), all j-i-1 of them for a quantum
    one.  The two are computed separately and must agree; a mismatch raises
    ``InternalConsistencyError`` with ``edge_weight``'s message.

    >>> edges_from((3, 2, 1))
    [(1, 2, (1, 0)), (1, 3, (1, 1)), (2, 3, (0, 1))]
    """
    n = len(w)
    zero, quantum, between = _edge_tables(n)
    out = []
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
    return out


def graph_edges(n: int) -> Iterator[tuple[Perm, Perm, DegreeVec]]:
    """All edges of Gamma_n as (source, target, weight)."""
    check_gate("QBRUHAT_MAX_N", n)
    for w in all_permutations(n):
        for i, j, wt in edges_from(w):
            yield w, apply_transposition(w, i, j), wt


def rotate(w: Perm) -> Perm:
    """Left-multiply by the long cycle tau; a graph automorphism."""
    return compose(long_cycle(len(w)), w)


# ---------------------------------------------------------------------------
# BFS distances and shortest-path weights


@functools.lru_cache(maxsize=None)
def _bfs(src: Perm) -> dict[Perm, tuple[int, Optional[tuple[Perm, DegreeVec]]]]:
    """BFS table from src: w -> (distance, (predecessor, edge weight)).

    Ungated: a cache hit would skip a check here, so every caller checks
    the graph gate before it asks for a table.
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


@functools.lru_cache(maxsize=None)
def _bfs_reverse(dst: Perm) -> dict[Perm, int]:
    """Distance-to table: w -> length of the shortest path w -> dst.

    An oracle for ``tilted_interval``; no production route calls it.
    Ungated, like ``_bfs``.
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
    if len(u) != len(v):
        raise ValueError("size mismatch")
    check_gate("QBRUHAT_MAX_N", len(u))


def ell(u: Perm, v: Perm) -> int:
    """Length of the shortest directed path from u to v; always finite."""
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


def shortest_path(u: Perm, v: Perm) -> list[Perm]:
    """One BFS shortest path, as the vertex sequence u ... v."""
    _check_pair(u, v)
    table = _bfs(u)
    path = [v]
    w = v
    while table[w][1] is not None:
        w = table[w][1][0]
        path.append(w)
    return path[::-1]


# ---------------------------------------------------------------------------
# lattice paths and minimal degrees


def _lattice_heights(n: int, A: frozenset[int] | set[int], B: frozenset[int] | set[int]) -> list[int]:
    """Heights h_0..h_n of the lattice path of (A, B); h_{x-1} is at abscissa x."""
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
    A, B = set(A), set(B)
    if len(A) != len(B):
        raise ValueError("subset size mismatch")
    return -min(_lattice_heights(n, A, B))


def min_set(n: int, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """All r in [n] where the lattice path attains its minimum.

    These are exactly the r with A <=_r B in the shifted Gale order.

    >>> sorted(min_set(7, {3, 4, 6, 7}, {1, 2, 3, 5}))
    [3, 4, 6]
    """
    A, B = set(A), set(B)
    if len(A) != len(B):
        raise ValueError("subset size mismatch")
    h = _lattice_heights(n, A, B)
    m = min(h)
    return frozenset(r for r in range(1, n + 1) if h[r - 1] == m)


def min_degree(u: Perm, v: Perm, check: Optional[bool] = None) -> DegreeVec:
    """Minimal degree d(u,v): d_k = depth of the lattice path of (u[k], v[k]).

    With check on (the default up to the graph gate) the result is compared
    against the weight of an actual BFS shortest path; disagreement is a
    hard failure.
    """
    if len(u) != len(v):
        raise ValueError("size mismatch")
    n = len(u)
    d = tuple(
        lattice_depth(n, prefix_set(u, k), prefix_set(v, k)) for k in range(1, n)
    )
    if check is None:
        check = n <= gate("QBRUHAT_MAX_N")
    if check:
        bfs_d = shortest_path_weight(u, v)
        if bfs_d != d:
            raise InternalConsistencyError(
                f"depth formula {d} != BFS path weight {bfs_d} for "
                f"{format_perm(u)}, {format_perm(v)}"
            )
    return d


# ---------------------------------------------------------------------------
# tilted Bruhat intervals


@dataclass(frozen=True)
class TiltedInterval:
    u: Perm
    v: Perm
    ell: int
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

    Walks back from v over the shortest-path DAG of the forward BFS table
    from u: p = x*t_{ij} joins when dist(u,p) = dist(u,x) - 1 and p -> x is
    an edge.  Ranks are distances from u.  Costs O(|[u,v]| n^2) edge tests
    once the table exists.
    """
    _check_pair(u, v)
    n = len(u)
    dist_u = _bfs(u)
    total = dist_u[v][0]
    rank = {v: total}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            dp = rank[x] - 1
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    p = apply_transposition(x, i, j)
                    if (
                        p not in rank
                        and dist_u[p][0] == dp
                        and edge_weight(p, i, j) is not None
                    ):
                        rank[p] = dp
                        nxt.append(p)
        frontier = nxt
    return TiltedInterval(u=u, v=v, ell=total, members=frozenset(rank), rank=rank)


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
    """All roots e_1 - e_j first, then e_2 - e_j, and so on (lex order)."""
    word: list[int] = []
    for row in range(1, n):
        word.extend(range(1, n - row + 1))
    order = reflection_order_from_word(n, word)
    assert order == [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return order


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

    Returns the edge list [(source, (i,j) label root, weight)]; it is a
    shortest path, of length ell(u,v) and weight q^{d(u,v)}.
    """
    n = len(u)
    if order is None:
        order = default_reflection_order(n)
    elif not is_reflection_order(n, order):
        raise ValueError("not a valid reflection ordering")

    # labels are roots e_i - e_j indexed by *positions*: the edge w -> w t_{ij}
    # carries label (i, j), so walk the ordering and try each entry as an edge
    def search(w: Perm, start: int) -> Optional[list[tuple[Perm, Root, DegreeVec]]]:
        if w == v:
            return []
        for idx in range(start, len(order)):
            i, j = order[idx]
            wt = edge_weight(w, i, j)
            if wt is None:
                continue
            rest = search(apply_transposition(w, i, j), idx + 1)
            if rest is not None:
                return [(w, (i, j), wt)] + rest
        return None

    path = search(u, 0)
    if path is None:
        raise InternalConsistencyError(
            f"no label-increasing path {format_perm(u)} -> {format_perm(v)}"
        )
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


def interval_dot(iv: TiltedInterval) -> str:
    """DOT rendering of the Hasse diagram of a tilted interval."""
    name = f"{format_perm(iv.u)}_{format_perm(iv.v)}"
    lines = [f'digraph "interval_{name}" {{', "  rankdir=BT;"]
    for w in sorted(iv.members, key=lambda w: (iv.rank[w], w)):
        lines.append(f'  "{format_perm(w)}" [rank={iv.rank[w]}];')
    for x, y in interval_hasse_edges(iv):
        lines.append(f'  "{format_perm(x)}" -> "{format_perm(y)}";')
    lines.append("}")
    return "\n".join(lines)


def interval_json(iv: TiltedInterval) -> str:
    d = min_degree(iv.u, iv.v)
    return json.dumps(
        {
            "u": format_perm(iv.u),
            "v": format_perm(iv.v),
            "ell": iv.ell,
            "d": list(d),
            "members": [
                format_perm(w)
                for w in sorted(iv.members, key=lambda w: (iv.rank[w], w))
            ],
        }
    )
