import json
import random

import pytest

from qbruhat.permcore import (
    InternalConsistencyError,
    all_permutations,
    apply_transposition,
    bruhat_leq,
    identity,
    length,
    parse_perm,
)
from qbruhat import qbgraph
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
    length_change,
    min_degree,
    min_set,
    reflection_order_from_word,
    rotate,
    shortest_path,
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
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    for w in all_permutations(n):
        expected = []
        for i, j in pairs:
            wt = edge_weight(w, i, j)
            if wt is not None:
                expected.append((i, j, wt))
        assert edges_from(w) == expected, w


def test_edge_cross_check_is_live_in_the_kernel():
    # (1,1,1) is no permutation: at t_13 the cyclic criterion holds but
    # neither length condition does
    with pytest.raises(InternalConsistencyError):
        edges_from((1, 1, 1))
    with pytest.raises(InternalConsistencyError):
        edge_weight((1, 1, 1), 1, 3)


def test_bfs_reads_only_the_edge_kernel(monkeypatch):
    def forbidden(*args):
        raise AssertionError("edge_weight called")

    monkeypatch.setattr(qbgraph, "edge_weight", forbidden)
    before = qbgraph._bfs.cache_info()
    table = qbgraph._bfs.__wrapped__((3, 1, 6, 2, 5, 4))  # bypasses the cache
    assert len(table) == 720
    assert qbgraph._bfs.cache_info() == before


@pytest.mark.parametrize("fn", [shortest_path_weight, shortest_path])
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


def test_depth_vs_bfs_weight_s4():
    for u in all_permutations(4):
        for v in all_permutations(4):
            min_degree(u, v, check=True)  # raises on mismatch


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


def test_length_change_matches_length_s5():
    for w in all_permutations(5):
        for i in range(1, 5):
            for j in range(i + 1, 6):
                expected = length(apply_transposition(w, i, j)) - length(w)
                assert length_change(w, i, j) == expected, (w, i, j)


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


def test_tilted_interval_matches_bfs_oracle_s6_sample():
    rng = random.Random(6)
    for _ in range(20):
        u = tuple(rng.sample(range(1, 7), 6))
        v = tuple(rng.sample(range(1, 7), 6))
        iv = tilted_interval(u, v)
        assert iv.rank == _interval_ranks_oracle(u, v), (u, v)


def test_rotate():
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


def test_shortest_path_reconstruction():
    path = shortest_path((3, 2, 1), (2, 1, 3))
    assert path[0] == (3, 2, 1) and path[-1] == (2, 1, 3) and len(path) == 3
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
