import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbruhat.permcore import (
    GateError,
    InternalConsistencyError,
    all_permutations,
    apply_transposition,
    bruhat_leq,
    compose,
    format_perm,
    identity,
    length,
    parse_perm,
    prefix_set,
)
from qbruhat import qbgraph, tiltorder, tiltwords
from qbruhat.qbgraph import (
    deg_add,
    deg_leq,
    deg_zero,
    default_reflection_order,
    edge_weight,
    edges_from,
    ell,
    format_degree,
    graph_dot,
    graph_edges,
    increasing_path,
    interval_hasse_edges,
    interval_json,
    is_reflection_order,
    lattice_depth,
    min_degree,
    min_set,
    reflection_order_from_word,
    shortest_path_weight,
    tilted_interval,
)

# Gamma_3 in full: 8 strong edges and 7 quantum edges with their weights
GAMMA3_STRONG = {
    ("123", "132"), ("123", "213"), ("132", "312"), ("132", "231"),
    ("213", "312"), ("213", "231"), ("231", "321"), ("312", "321"),
}
GAMMA3_QUANTUM = {
    ("132", "123", (0, 1)), ("312", "132", (1, 0)), ("321", "312", (0, 1)),
    ("321", "231", (1, 0)), ("231", "213", (0, 1)), ("213", "123", (1, 0)),
    ("321", "123", (1, 1)),
}


def _fmt(w):
    return "".join(map(str, w))


def test_gamma3_edges_exact():
    strong, quantum = set(), set()
    for w, t, wt in graph_edges(3):
        if any(wt):
            quantum.add((_fmt(w), _fmt(t), wt))
        else:
            strong.add((_fmt(w), _fmt(t)))
    assert strong == GAMMA3_STRONG
    assert quantum == GAMMA3_QUANTUM


def test_edge_weight_cases():
    assert edge_weight((1, 3, 2), 1, 2) == (0, 0)  # strong
    assert edge_weight((3, 2, 1), 1, 3) == (1, 1)  # quantum q1 q2
    assert edge_weight((1, 2, 3), 1, 3) is None  # blocked by w_2
    with pytest.raises(ValueError):
        edge_weight((1, 2, 3), 2, 2)


def test_edge_weight_is_exact_indicator():
    for w in all_permutations(4):
        for i, j, wt in edges_from(w):
            if any(wt):
                assert wt == tuple(1 if i <= k < j else 0 for k in range(1, 4))


@pytest.mark.parametrize("n", range(1, 8))
def test_edges_from_matches_edge_weight_exhaustive(n):
    # the kernel against the length definition (Brenti-Fomin-Postnikov),
    # read off ``length``, which shares no code with it: w -> w t_ij is
    # strong iff l(w t_ij) = l(w) + 1, and quantum of weight q_i ... q_{j-1}
    # iff l(w t_ij) = l(w) - 2(j-i) + 1
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    for w in all_permutations(n):
        lw = length(w)
        expected = []
        for i, j in pairs:
            delta = length(apply_transposition(w, i, j)) - lw
            if delta == 1:
                expected.append((i, j, deg_zero(n)))
            elif delta == 1 - 2 * (j - i):
                expected.append((i, j, tuple(1 if i <= k < j else 0 for k in range(1, n))))
        assert edges_from(w) == expected, w


def test_edge_cross_check_is_live_in_the_kernel(monkeypatch):
    # (1,1,1) is no permutation: at t_13 the cyclic criterion holds but
    # neither length condition does; that is bad input, not a kernel fault
    for call in (lambda: edges_from((1, 1, 1)), lambda: edge_weight((1, 1, 1), 1, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            call()
    # one bit of the length condition's table flipped, so that it disagrees
    # with the criterion on a permutation: at (1,2,3), t_13 it drops 2 from
    # the values between 1 and 3 (a non-edge passes), at (2,1,3), t_13 it
    # puts 1 between 2 and 3 (an edge fails); both readers raise
    zero, quantum, between = qbgraph._edge_tables(3)
    cases = [
        ((1, 2, 3), 1, 3, 2, "edge criterion and length condition disagree"),
        ((2, 1, 3), 2, 3, 1, "edge criterion holds but neither length condition does"),
    ]
    for w, a, b, bit, what in cases:
        rows = [list(row) for row in between]
        rows[a][b] ^= 1 << bit
        corrupted = (zero, quantum, tuple(map(tuple, rows)))
        monkeypatch.setattr(qbgraph, "_edge_tables", lambda n: corrupted)
        message = f"{what} at {w}, t_13"
        with pytest.raises(InternalConsistencyError, match=re.escape(message)):
            edges_from(w)
        with pytest.raises(InternalConsistencyError, match=re.escape(message)):
            edge_weight(w, 1, 3)


def test_bfs_reads_only_the_edge_kernel(monkeypatch):
    def forbidden(*args):
        raise AssertionError("edge_weight called")

    monkeypatch.setattr(qbgraph, "edge_weight", forbidden)
    before = qbgraph._bfs.cache_info()
    table = qbgraph._bfs.__wrapped__((3, 1, 6, 2, 5, 4))  # bypasses the cache
    assert len(table) == 720
    assert qbgraph._bfs.cache_info() == before


@pytest.mark.parametrize("fn", [shortest_path_weight])
def test_shortest_path_size_mismatch(fn):
    with pytest.raises(ValueError, match="size mismatch"):
        fn((1, 2), (1, 2, 3))


def test_ell_examples():
    for w in all_permutations(4):
        assert ell(w, w) == 0
    assert ell((3, 2, 1), (2, 1, 3)) == 2
    for u in all_permutations(4):
        for v in all_permutations(4):
            if bruhat_leq(u, v):
                assert ell(u, v) == length(v) - length(u)


def test_min_degree_examples():
    assert min_degree((3, 2, 1), (2, 1, 3)) == (1, 1)
    u = parse_perm("7364152")
    v = parse_perm("2513746")
    assert min_degree(u, v) == (1, 1, 2, 2, 1, 1)
    for w in all_permutations(4):
        assert min_degree(w, w) == (0, 0, 0)


def test_lattice_path_example():
    assert lattice_depth(7, {3, 4, 6, 7}, {1, 2, 3, 5}) == 2
    assert min_set(7, {3, 4, 6, 7}, {1, 2, 3, 5}) == frozenset({3, 4, 6})
    A = {2, 5}
    assert lattice_depth(6, A, A) == 0
    assert min_set(6, A, A) == frozenset(range(1, 7))


def _kernel_pairs():
    """Every pair of S_1..S_5, then seeded pairs at n = 6..8."""
    for n in range(1, 6):
        for u in all_permutations(n):
            for v in all_permutations(n):
                yield u, v
    yield from _seeded_pairs(31, range(6, 9), 200)


def test_lattice_rows_match_the_prefix_set_heights():
    # the incremental kernel against the definition, one path at a time
    for u, v in _kernel_pairs():
        n = len(u)
        assert qbgraph.lattice_rows(u, v) == [
            qbgraph._lattice_heights(n, prefix_set(u, k), prefix_set(v, k))
            for k in range(1, n)
        ], (u, v)


def test_min_degree_is_the_lattice_depth_at_every_level():
    for u, v in _kernel_pairs():
        n = len(u)
        assert min_degree(u, v, check=False) == tuple(
            lattice_depth(n, prefix_set(u, k), prefix_set(v, k)) for k in range(1, n)
        ), (u, v)


def test_depth_vs_bfs_weight_s4():
    for u in all_permutations(4):
        for v in all_permutations(4):
            assert min_degree(u, v) == shortest_path_weight(u, v), (u, v)


def test_sampled_path_weights_dominate_min_degree():
    rng = random.Random(4)
    perms = list(all_permutations(4))
    for _ in range(200):
        u = rng.choice(perms)
        # random walk of random length, then compare accumulated weight
        w = u
        wt = deg_zero(4)
        for _ in range(rng.randint(1, 6)):
            i, j, ewt = rng.choice(edges_from(w))
            w = apply_transposition(w, i, j)
            wt = deg_add(wt, ewt)
        assert deg_leq(min_degree(u, w), wt), (u, w, wt)


def test_tilted_interval_diamond():
    iv = tilted_interval((2, 3, 1), (1, 2, 3))
    assert iv.members == {(2, 3, 1), (2, 1, 3), (3, 2, 1), (1, 2, 3)}
    assert iv.ell == 2
    assert iv.rank[(2, 3, 1)] == 0 and iv.rank[(1, 2, 3)] == 2
    assert len(interval_hasse_edges(iv)) == 4


def test_tilted_interval_trivial_and_classical():
    for w in all_permutations(3):
        assert tilted_interval(w, w).members == {w}
    for u in all_permutations(4):
        for v in all_permutations(4):
            if bruhat_leq(u, v):
                classical = {
                    w for w in all_permutations(4) if bruhat_leq(u, w) and bruhat_leq(w, v)
                }
                assert tilted_interval(u, v).members == classical, (u, v)


def test_subintervals_are_tilted_intervals():
    for u in all_permutations(3):
        for v in all_permutations(3):
            iv = tilted_interval(u, v)
            for x in iv.members:
                for y in iv.members:
                    if iv.poset_leq(x, y):
                        assert tilted_interval(x, y).members <= iv.members


def test_rank2_intervals_are_diamonds():
    for u in all_permutations(4):
        for v in all_permutations(4):
            iv = tilted_interval(u, v)
            if iv.ell == 2:
                assert len(iv.members) == 4, (u, v, iv.members)


def _interval_ranks_oracle(u, v):
    """Ranks of [u,v] from a forward and a reverse BFS over all of S_n."""
    dist_u = qbgraph._bfs(u)
    dist_to_v = qbgraph._bfs_reverse(v)
    total = dist_u[v][0]
    return {
        w: dw for w, (dw, _) in dist_u.items() if dw + dist_to_v[w] == total
    }


@pytest.mark.parametrize("n", [3, 4])
def test_tilted_interval_matches_bfs_oracle_exhaustive(n):
    perms = list(all_permutations(n))
    for u in perms:
        for v in perms:
            iv = tilted_interval(u, v)
            assert iv.rank == _interval_ranks_oracle(u, v), (u, v)
            assert iv.members == frozenset(iv.rank)
            assert ell(u, v) == qbgraph.bfs_ell(u, v) == iv.ell, (u, v)


def test_tilted_interval_matches_bfs_oracle_s6_sample():
    rng = random.Random(6)
    for _ in range(20):
        u = tuple(rng.sample(range(1, 7), 6))
        v = tuple(rng.sample(range(1, 7), 6))
        iv = tilted_interval(u, v)
        assert iv.rank == _interval_ranks_oracle(u, v), (u, v)


def test_rotate():
    # left multiplication by the long cycle tau = 2 3 ... n 1
    def rotate(w):
        return compose(tuple(range(2, len(w) + 1)) + (1,), w)

    assert rotate(identity(4)) == (2, 3, 4, 1)
    w = (3, 1, 4, 2)
    r = w
    for _ in range(4):
        r = rotate(r)
    assert r == w
    edges = {(u, v) for u, v, _ in graph_edges(3)}
    assert {(rotate(u), rotate(v)) for u, v in edges} == edges


def test_reflection_orders():
    order = default_reflection_order(4)
    assert is_reflection_order(4, order)
    assert order[0] == (1, 2) and order[-1] == (3, 4)
    for n in range(1, 8):  # lex order is the order of (1..n-1)(1..n-2)...(1)
        word = [i for row in range(n - 1, 0, -1) for i in range(1, row + 1)]
        assert default_reflection_order(n) == reflection_order_from_word(n, word)
    # the reduced word s3 s1 s2 s1 s3 s2 of the longest element of S_4
    word_order = reflection_order_from_word(4, (3, 1, 2, 1, 3, 2))
    assert word_order == [(3, 4), (1, 2), (1, 4), (2, 4), (1, 3), (2, 3)]
    assert is_reflection_order(4, word_order)
    assert not is_reflection_order(4, list(reversed(order))[:5])
    with pytest.raises(ValueError):
        reflection_order_from_word(4, (1, 2, 1))


def test_increasing_path_examples():
    for w in all_permutations(4):
        assert increasing_path(w, w) == []
    # S_3 example: of the two shortest paths only 321 -> 231 -> 213 increases
    path = increasing_path((3, 2, 1), (2, 1, 3))
    assert [(p[0], p[1]) for p in path] == [((3, 2, 1), (1, 2)), ((2, 3, 1), (2, 3))]
    total = deg_zero(3)
    for _, _, wt in path:
        total = deg_add(total, wt)
    assert total == (1, 1)


def test_increasing_path_is_shortest_everywhere():
    for u in all_permutations(4):
        for v in all_permutations(4):
            path = increasing_path(u, v)
            assert len(path) == ell(u, v), (u, v)
            labels = [p[1] for p in path]
            assert labels == sorted(labels, key=default_reflection_order(4).index)
            total = deg_zero(4)
            for _, _, wt in path:
                total = deg_add(total, wt)
            assert total == min_degree(u, v)


def _increasing_path_oracle(u, v, order):
    """The label-increasing path by exhaustive search over the labels in
    order, backtracking, with no shortest-path test: each edge w -> w*t_ij
    of label (i, j) is tried in turn."""

    def search(w, start):
        if w == v:
            return []
        edges = {(i, j): wt for i, j, wt in edges_from(w)}
        for idx in range(start, len(order)):
            i, j = order[idx]
            if (i, j) in edges:
                rest = search(apply_transposition(w, i, j), idx + 1)
                if rest is not None:
                    return [(w, (i, j), edges[i, j])] + rest
        return None

    return search(u, 0)


def _reflection_orders(n):
    roots = default_reflection_order(n)
    return [list(p) for p in itertools.permutations(roots) if is_reflection_order(n, p)]


def _random_reflection_order(n, rng):
    """The order of a random reduced word of w_0, built by peeling a random
    right descent off w_0 until the identity is left."""
    w, word = tuple(range(n, 0, -1)), []
    while any(w[i] > w[i + 1] for i in range(n - 1)):
        i = rng.choice([i for i in range(n - 1) if w[i] > w[i + 1]])
        w = apply_transposition(w, i + 1, i + 2)
        word.append(i + 1)
    return reflection_order_from_word(n, word[::-1])


@pytest.mark.parametrize("n, count", [(3, 2), (4, 16)])
def test_increasing_path_matches_the_search_oracle_for_every_order(n, count):
    orders = _reflection_orders(n)
    assert len(orders) == count  # one per reduced word of w_0
    perms = list(all_permutations(n))
    for order in orders:
        for u in perms:
            for v in perms:
                expected = _increasing_path_oracle(u, v, order)
                assert increasing_path(u, v, order) == expected, (order, u, v)


def test_increasing_path_matches_the_search_oracle_s5():
    rng = random.Random(36)
    orders = [default_reflection_order(5)]
    orders += [_random_reflection_order(5, rng) for _ in range(3)]
    assert len({tuple(o) for o in orders}) == 4
    for order in orders:
        for u, v in _seeded_pairs(38, (5,), 30):
            expected = _increasing_path_oracle(u, v, order)
            assert increasing_path(u, v, order) == expected, (order, u, v)


def test_increasing_path_scans_once_per_step(monkeypatch):
    scanned = []
    real = qbgraph.edges_from
    monkeypatch.setattr(qbgraph, "edges_from", lambda w: scanned.append(w) or real(w))
    w0, e = tuple(range(8, 0, -1)), identity(8)
    path = increasing_path(w0, e)
    assert scanned == [w for w, _, _ in path] and len(scanned) == 4 == ell(w0, e)


def test_a_refused_edge_is_caught(monkeypatch):
    # refusing the one edge the walk takes at u leaves no increasing path:
    # the path is unique, so no other edge may stand in for it
    pairs = [(u, v) for u, v in _seeded_pairs(37, (3, 4, 5, 6, 7, 8), 6) if u != v]
    assert len(pairs) > 30
    taken = {(u, v): (increasing_path(u, v)[0][1], min_degree(u, v)) for u, v in pairs}
    real = qbgraph._keeps
    for (u, v), ((a, b), d) in taken.items():
        refused = (u, a, b)
        monkeypatch.setattr(
            qbgraph, "_keeps",
            lambda w, i, j, levels, refused=refused: (w, i, j) != refused
            and real(w, i, j, levels))
        with pytest.raises(InternalConsistencyError, match="no label-increasing path"):
            increasing_path(u, v)
        with pytest.raises(InternalConsistencyError):
            min_degree(u, v)
        assert min_degree(u, v, check=False) == d  # the depth formula walks nothing


_pairs_to_8 = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))).map(tuple),
        st.permutations(list(range(1, n + 1))).map(tuple),
    )
)


@settings(max_examples=150, deadline=None)
@given(_pairs_to_8)
def test_increasing_path_is_a_shortest_increasing_path(pair):
    u, v = pair
    path = increasing_path(u, v)
    labels = [label for _, label, _ in path]
    assert labels == sorted(set(labels))  # strictly increasing in lex order
    assert len(path) == ell(u, v)
    total, w = deg_zero(len(u)), u
    for x, (i, j), wt in path:
        assert x == w and (i, j, wt) in edges_from(w)
        total, w = deg_add(total, wt), apply_transposition(w, i, j)
    assert w == v and total == min_degree(u, v, check=False)


@pytest.mark.parametrize(
    "w", [(1, 1, 2), (2, 2, 1), (1, 2, 2, 1), (0, 1, 2), (1, 2, 4), (4, 1, 2),
          (-1, 2, 1), (1, -2, 3), (2,), (0,), (),
          (1.0, 2.0, 3.0), (3, 2, 1.0), (1.5, 2), (True, 2), (2, True, 3), (True,), (1.0,)],
)
def test_edges_from_rejects_non_permutations(w):
    with pytest.raises(ValueError) as err:
        edges_from(w)
    assert str(err.value) == f"not a permutation of [n]: {w!r}"


def test_shortest_path_reconstruction():
    assert qbgraph.bfs_ell((3, 2, 1), (2, 1, 3)) == 2
    assert shortest_path_weight((3, 2, 1), (2, 1, 3)) == (1, 1)


def test_exports():
    dot = graph_dot(3)
    assert dot.count("->") == 15 and dot.count("dashed") == 7
    data = json.loads(interval_json(tilted_interval((2, 3, 1), (1, 2, 3))))
    assert data == {
        "u": "231",
        "v": "123",
        "ell": 2,
        "d": [1, 1],
        "members": ["231", "213", "321", "123"],
    }
    assert format_degree((1, 2)) == "q1*q2^2"
    assert format_degree((0, 0)) == "1"


def test_increasing_path_custom_ordering():
    # a non-default reflection ordering still yields unique shortest paths
    order = reflection_order_from_word(4, (3, 1, 2, 1, 3, 2))
    for u in all_permutations(4):
        for v in [(2, 1, 4, 3), (4, 3, 2, 1), (1, 2, 3, 4)]:
            path = increasing_path(u, v, order)
            assert len(path) == ell(u, v)
            labels = [p[1] for p in path]
            assert labels == sorted(labels, key=order.index)
    with pytest.raises(ValueError):
        increasing_path((1, 2, 3), (1, 2, 3), [(1, 2), (2, 3), (1, 3)])


def test_minimal_weight_paths_are_shortest():
    # a sampled path whose weight equals d(u,v) must be a shortest path
    rng = random.Random(14)
    perms = list(all_permutations(4))
    hits = 0
    for _ in range(400):
        u = rng.choice(perms)
        w = u
        wt = deg_zero(4)
        steps = rng.randint(1, 5)
        for _ in range(steps):
            i, j, ewt = rng.choice(edges_from(w))
            w = apply_transposition(w, i, j)
            wt = deg_add(wt, ewt)
        if wt == min_degree(u, w):
            assert steps == ell(u, w), (u, w)
            hits += 1
    assert hits > 40


def _seeded_pairs(seed, sizes, count):
    rng = random.Random(seed)
    for n in sizes:
        for _ in range(count):
            yield tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, n + 1), n))


def test_ell_equals_the_tilted_word_length_difference():
    # an independent route: reduced tilted words for the witness tilt
    cases = [(u, v) for u in all_permutations(4) for v in all_permutations(4)]
    cases += list(_seeded_pairs(8, range(5, 9), 40))
    for u, v in cases:
        a = tiltorder.witness_a(u, v)
        expected = tiltwords.word_length(a, v) - tiltwords.word_length(a, u)
        assert ell(u, v) == expected, (u, v)


def test_bfs_caches_are_bounded():
    assert qbgraph._bfs.cache_info().maxsize is not None
    assert qbgraph._bfs_reverse.cache_info().maxsize is not None


def test_production_routes_build_no_bfs_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a production route reached a BFS oracle")

    for name in ("_bfs", "_bfs_reverse", "bfs_ell", "shortest_path_weight"):
        monkeypatch.setattr(qbgraph, name, forbidden)
    rng = random.Random(67)
    for u, v in _seeded_pairs(67, (6, 7), 4):
        d = min_degree(u, v)
        assert min_degree(u, v, check=True) == min_degree(u, v, check=False) == d
        total = ell(u, v)
        assert total == length(v) - length(u) + 2 * sum(d)
        iv = tilted_interval(u, v)
        assert iv.ell == total and iv.rank[v] == total and iv.d == d
        assert json.loads(interval_json(iv))["d"] == list(d)
        assert qbgraph.interval_dot(iv).count(" -> ") == len(interval_hasse_edges(iv))
        members = sorted(iv.members)
        probes = [rng.choice(members) for _ in range(5)]
        probes += [tuple(rng.sample(u, len(u))) for _ in range(5)]
        for w in probes:
            inside = tiltorder.in_tilted_interval(u, v, w)
            assert inside == (w in iv), (u, v, w)
        for x in probes[:5]:
            assert iv.poset_leq(u, x) and iv.poset_leq(x, v)
        assert tiltorder.a_lesssim(tiltorder.witness_a(u, v), u, v)
        # these two only have to run without reaching an oracle
        assert all(isinstance(tiltorder.k_tilted_leq(u, v, k), bool) for k in range(1, len(u)))
        assert isinstance(tiltorder.interval_s_invariant(u, v, 1), bool)


def _forward_walk_ranks(u, v):
    """Ranks of [u,v] by a forward walk from u over the edges that keep to a
    shortest path (``_keeps``), rank by rank: a second route that scans
    edges where ``tilted_interval`` reads prefix sets."""
    levels, rank = {u: qbgraph._levels(u, v)}, {u: 0}
    for r in range(1, ell(u, v) + 1):
        nxt = {}
        for w, rows in levels.items():
            for i, j, _ in edges_from(w):
                t = apply_transposition(w, i, j)
                if t not in rank and qbgraph._keeps(w, i, j, rows):
                    rank[t] = r
                    nxt[t] = qbgraph._advance(w, i, j, rows)
        levels = nxt
    return rank


def test_tilted_interval_matches_the_forward_walk():
    rng = random.Random(22)
    inside = outside = 0
    for u, v in _seeded_pairs(22, range(5, 9), 8):
        iv = tilted_interval(u, v)
        assert iv.rank == _forward_walk_ranks(u, v), (u, v)
        members = sorted(iv.members)
        probes = [rng.choice(members) for _ in range(3)]
        probes += [tuple(rng.sample(u, len(u))) for _ in range(3)]
        for w in probes:
            assert tiltorder.in_tilted_interval(u, v, w) == (w in iv), (u, v, w)
            inside, outside = inside + (w in iv), outside + (w not in iv)
    assert inside >= 96 and outside > 60


def test_tilted_interval_scans_no_edge(monkeypatch):
    pairs = list(_seeded_pairs(23, (6, 7, 8), 3))
    expected = [_forward_walk_ranks(u, v) for u, v in pairs]

    def forbidden(w):
        raise AssertionError("tilted_interval scanned an edge")

    monkeypatch.setattr(qbgraph, "edges_from", forbidden)
    for (u, v), rank in zip(pairs, expected):
        assert tilted_interval(u, v).rank == rank, (u, v)
    e, w0 = identity(8), tuple(range(8, 0, -1))
    iv = tilted_interval(e, w0)  # the classical interval: all of S_8, ranked by length
    assert len(iv.members) == 40320 and iv.ell == 28
    assert all(iv.rank[w] == length(w) for w in iv.members)


@pytest.mark.parametrize(
    "fn", [ell, min_degree, tilted_interval, lambda u, v: min_degree(u, v, check=False)]
)
def test_graph_queries_reject_non_permutations(fn):
    for u, v in [((0, 1, 2), (1, 2, 3)), ((1, 2, 3), (1, 3, 3)), ((1, 2, 4), (1, 2, 3))]:
        with pytest.raises(ValueError, match="not a permutation"):
            fn(u, v)
    with pytest.raises(ValueError, match="size mismatch"):
        fn((1, 2), (1, 2, 3))


def _perturbed_depth(monkeypatch, shift):
    """Shift the level-2 depth of every pair by ``shift``: the whole level-2
    row of ``lattice_rows`` is lowered by ``shift``, so its minima stay put."""
    real = qbgraph.lattice_rows

    def rows(u, v):
        out = real(u, v)
        out[1] = [h - shift for h in out[1]]
        return out

    monkeypatch.setattr(qbgraph, "lattice_rows", rows)


@pytest.mark.parametrize("shift", [1, -1])
def test_a_wrong_depth_is_caught(monkeypatch, shift):
    # a shift of -1 needs a level-2 depth of at least 1
    pairs = [(u, v) for u, v in _seeded_pairs(15, (3, 5, 7), 10) if min_degree(u, v)[1] >= 1]
    if shift > 0:
        pairs.append(((2, 1, 3, 4), (2, 1, 3, 4)))
    assert len(pairs) > 10
    right = {pair: min_degree(*pair) for pair in pairs}
    _perturbed_depth(monkeypatch, shift)
    for u, v in pairs:
        assert min_degree(u, v, check=False)[1] == right[u, v][1] + shift  # unchecked
        with pytest.raises(InternalConsistencyError):
            min_degree(u, v)
        with pytest.raises(InternalConsistencyError):
            tilted_interval(u, v)


@pytest.mark.parametrize("shift", [1, -1])
def test_a_wrong_length_is_caught(monkeypatch, shift):
    # the increasing path's weight agrees with d, but its step count then
    # disagrees with ell(u,v) = l(v) - l(u) + 2|d| under a shifted l(v)
    right = {(u, v): min_degree(u, v) for u, v in _seeded_pairs(16, (3, 5, 7), 10) if u != v}
    real = qbgraph.length
    for (u, v), d in right.items():
        monkeypatch.setattr(qbgraph, "length", lambda w, v=v: real(w) + shift * (w == v))
        with pytest.raises(InternalConsistencyError, match="has no path of its length"):
            min_degree(u, v)
        assert min_degree(u, v, check=False) == d  # d reads no length


def test_min_degree_check_modes(monkeypatch):
    u, v = parse_perm("7364152"), parse_perm("2513746")
    steps = []
    real = qbgraph.edges_from
    monkeypatch.setattr(qbgraph, "edges_from", lambda w: steps.append(w) or real(w))
    d = min_degree(u, v, check=False)
    assert steps == []  # no cross-check at all
    assert min_degree(u, v) == d
    assert len(steps) == ell(u, v) == 7  # one scan per step of the greedy walk
    assert steps[0] == u
    monkeypatch.setenv("QBRUHAT_MAX_N", "6")
    assert min_degree(u, v) == min_degree(u, v, check=True) == d  # the walk needs no gate
    with pytest.raises(GateError):
        shortest_path_weight(u, v)  # the BFS oracle does


def test_ranked_members_list_by_rank_then_lexicographically(monkeypatch):
    # the printers' order and format_perm's text, across the n = 9 / 10
    # switch from digits to commas (the graph gate is raised for n = 10)
    monkeypatch.setenv("QBRUHAT_MAX_N", "10")
    pairs = list(_seeded_pairs(24, range(2, 8), 2))
    for n in (9, 10):
        e = identity(n)
        pairs += [(e, e), (e, apply_transposition(e, 1, n)), (apply_transposition(e, 2, n), e)]
    for u, v in pairs:
        iv = tilted_interval(u, v)
        old = [(iv.rank[w], format_perm(w)) for w in sorted(iv.members, key=lambda w: (iv.rank[w], w))]
        assert qbgraph.ranked_members(iv) == old, (u, v)
    assert qbgraph.ranked_members(tilted_interval(identity(10), identity(10))) == [
        (0, "1,2,3,4,5,6,7,8,9,10")
    ]


def test_interval_posets_have_euler_sum_one():
    # sum over x <= y in the poset [u,v] of (-1)^{ell(x,y)} = 1: every
    # upper interval [x,v] is Eulerian, so only x = v is left; every pair
    # of S_3 and a seeded sample of S_4, through poset_leq and the ranks
    pairs = [(u, v) for u in all_permutations(3) for v in all_permutations(3)]
    rng = random.Random(45)
    perms = list(all_permutations(4))
    pairs += [(rng.choice(perms), rng.choice(perms)) for _ in range(200)]
    for u, v in pairs:
        iv = tilted_interval(u, v)
        total = sum(
            (-1) ** (iv.rank[y] - iv.rank[x])
            for x, y in itertools.product(iv.members, repeat=2)
            if iv.poset_leq(x, y)
        )
        assert total == 1, (u, v, total)
