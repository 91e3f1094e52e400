import itertools
import random

import pytest

from qbruhat import qbgraph
from qbruhat.permcore import (
    InternalConsistencyError,
    all_permutations,
    apply_simple,
    apply_transposition,
    bruhat_leq,
    cyclic_interval,
    length,
    parse_perm,
    prefix_set,
    shifted_gale_leq,
    shifted_less,
)
from qbruhat.qbgraph import bfs_ell, ell, min_set, tilted_interval
from qbruhat.tiltorder import (
    a_descents,
    a_length,
    a_leq,
    a_lesssim,
    a_sim,
    a_step_type,
    adj_increases,
    covers,
    in_tilted_interval,
    interval_s_invariant,
    k_tilted_leq,
    lesssim,
    strong_lifting_witness,
    witness_a,
    witness_a_leq,
)


def all_tilts(n):
    return itertools.product(range(1, n + 1), repeat=n)


def test_ones_reduces_to_bruhat():
    ones = (1, 1, 1, 1)
    for u in all_permutations(4):
        for v in all_permutations(4):
            assert a_leq(ones, u, v) == bruhat_leq(u, v)
            assert a_lesssim(ones, u, v) == bruhat_leq(u, v)


def test_examples():
    assert a_leq((2, 2, 2), (2, 3, 1), (1, 2, 3))
    assert a_lesssim((2, 2, 2), (2, 3, 1), (1, 2, 3))
    for w in all_permutations(3):
        assert a_leq((2, 2, 2), w, w)
        assert a_sim((2, 2, 2), w, w)
    # pinned Hasse edges of <~_a for a = (1,2,3,3)
    a = (1, 2, 3, 3)
    assert a_lesssim(a, parse_perm("3412"), parse_perm("3421"))
    assert a_lesssim(a, parse_perm("2341"), parse_perm("2431"))
    assert a_lesssim(a, parse_perm("2341"), parse_perm("3241"))
    assert a_lesssim(a, parse_perm("2341"), parse_perm("2314"))


def test_witness_examples():
    assert witness_a((2, 3, 1), (1, 2, 3)) == (2, 2, 2)
    assert witness_a((1, 2, 3), (1, 2, 3)) == (1, 1, 1)
    for u in all_permutations(4):
        for v in all_permutations(4):
            a = witness_a(u, v)
            assert a_lesssim(a, u, v), (u, v, a)
            al = witness_a_leq(u, v)
            assert a_leq(al, u, v), (u, v, al)
            if bruhat_leq(u, v):
                assert a_leq((1, 1, 1, 1), u, v)


def _orders_by_definition(a, u, v):
    """(<=_a, ~_a) from the sorted shifted Gale order and the cyclic counts."""
    n = len(u)
    leq = sim = True
    for k in range(1, n):
        A, B = prefix_set(u, k), prefix_set(v, k)
        leq = leq and shifted_gale_leq(n, a[k - 1], A, B)
        lo, hi = a[k - 1], a[k]
        C = cyclic_interval(n, lo, hi)
        sim = sim and len(A & C) == len(B & C)
    return leq, sim


def _witnesses_by_min_set(u, v):
    """(witness_a, witness_a_leq) built from the ``min_set`` of each prefix."""
    n = len(u)
    mins = [min_set(n, prefix_set(u, k), prefix_set(v, k)) for k in range(1, n + 1)]
    lowest = tuple(min(m) for m in mins)
    return (lowest[0],) + tuple(min(mins[k - 1] & mins[k]) for k in range(1, n)), lowest


def _check_against_definitions(a, u, v):
    leq, sim = _orders_by_definition(a, u, v)
    assert (a_leq(a, u, v), a_sim(a, u, v), a_lesssim(a, u, v)) == (
        leq, sim, leq and sim), (a, u, v)


def test_min_set_is_the_shifted_gale_order():
    for n in range(1, 6):
        for size in range(n + 1):
            subsets = list(itertools.combinations(range(1, n + 1), size))
            for A in subsets:
                for B in subsets:
                    expected = {r for r in range(1, n + 1) if shifted_gale_leq(n, r, A, B)}
                    assert min_set(n, A, B) == expected, (n, A, B)


def test_orders_and_witnesses_match_the_definitions():
    perms = list(all_permutations(3))
    for u in perms:
        for v in perms:
            assert (witness_a(u, v), witness_a_leq(u, v)) == _witnesses_by_min_set(u, v)
            for a in all_tilts(3):
                _check_against_definitions(a, u, v)
    rng = random.Random(19)
    for n in range(4, 9):
        for draw in range(600):
            u = tuple(rng.sample(range(1, n + 1), n))
            v = tuple(rng.sample(range(1, n + 1), n))
            witness, lowest = _witnesses_by_min_set(u, v)
            assert (witness_a(u, v), witness_a_leq(u, v)) == (witness, lowest), (u, v)
            if draw % 2:
                a = tuple(rng.randint(1, n) for _ in range(n))
            else:
                a = witness
            _check_against_definitions(a, u, v)
            _check_against_definitions(lowest, u, v)


def _lesssim_cases():
    # every S_3 pair under every tilt, then seeded S_4-S_8 triples, half of
    # them under the pair's witness tilt
    perms = list(all_permutations(3))
    yield from ((a, u, v) for u in perms for v in perms for a in all_tilts(3))
    rng = random.Random(47)
    for n in range(4, 9):
        for draw in range(150):
            u = tuple(rng.sample(range(1, n + 1), n))
            v = tuple(rng.sample(range(1, n + 1), n))
            a = witness_a(u, v) if draw % 2 else tuple(rng.randint(1, n) for _ in range(n))
            yield a, u, v


def test_lesssim_kernel_matches_the_orders():
    for a, u, v in _lesssim_cases():
        leq, sim = _orders_by_definition(a, u, v)
        assert lesssim(a, u, v) == (a_leq(a, u, v) and a_sim(a, u, v)) == (leq and sim), (a, u, v)


def _reads_rows_up_to_the_first_failing_level(monkeypatch, order, holds):
    # order(a, u, v) reads qbgraph._row_updates up to the first level k
    # where holds(a, k, row) fails, and no further
    read = []
    real = qbgraph._row_updates

    def counting(u, v):
        for row in real(u, v):
            read.append(row)
            yield row

    monkeypatch.setattr(qbgraph, "_row_updates", counting)
    stopped = 0
    for a, u, v in _lesssim_cases():
        rows = qbgraph.lattice_rows(u, v)
        fails = [k for k, h in enumerate(rows) if not holds(a, k, h)]
        read.clear()
        assert order(a, u, v) == (not fails), (a, u, v)
        assert len(read) == (fails[0] + 1 if fails else len(u) - 1), (a, u, v)
        stopped += bool(fails) and fails[0] + 1 < len(u) - 1
    assert stopped


def test_lesssim_reads_rows_up_to_the_first_failing_level(monkeypatch):
    _reads_rows_up_to_the_first_failing_level(
        monkeypatch, lesssim, lambda a, k, h: h[a[k] - 1] == h[a[k + 1] - 1] == min(h)
    )


@pytest.mark.parametrize("order, holds", [
    (a_leq, lambda a, k, h: h[a[k] - 1] == min(h)),
    (a_sim, lambda a, k, h: h[a[k] - 1] == h[a[k + 1] - 1]),
], ids=["leq", "sim"])
def test_orders_read_rows_up_to_the_first_failing_level(monkeypatch, order, holds):
    _reads_rows_up_to_the_first_failing_level(monkeypatch, order, holds)


def test_lesssim_implies_leq():
    rng = random.Random(1)
    perms = list(all_permutations(4))
    for _ in range(400):
        a = tuple(rng.randint(1, 4) for _ in range(4))
        u, v = rng.choice(perms), rng.choice(perms)
        if a_lesssim(a, u, v):
            assert a_leq(a, u, v)


def test_interval_membership_examples():
    u, v = (2, 3, 1), (1, 2, 3)
    assert in_tilted_interval(u, v, u) and in_tilted_interval(u, v, v)
    assert in_tilted_interval(u, v, (3, 2, 1))
    assert not in_tilted_interval(u, v, (3, 1, 2))


def test_interval_membership_default_builds_no_bfs_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the default membership test ran BFS")

    monkeypatch.setattr(qbgraph, "_bfs", forbidden)
    rng = random.Random(16)
    for n in (3, 4):
        perms = list(all_permutations(n))
        for _ in range(40):
            u, v, w = (rng.choice(perms) for _ in range(3))
            assert in_tilted_interval(u, v, w) == (w in tilted_interval(u, v)), (u, v, w)


def test_interval_membership_vs_bfs_s3():
    for u in all_permutations(3):
        for v in all_permutations(3):
            for w in all_permutations(3):
                bfs = bfs_ell(u, w) + bfs_ell(w, v) == bfs_ell(u, v)
                assert in_tilted_interval(u, v, w) == bfs, (u, v, w)


def test_all_witnesses_agree_s3():
    # criterion (2)<->(3): one witness decides membership for every witness
    for u in all_permutations(3):
        for v in all_permutations(3):
            members = tilted_interval(u, v).members
            for a in all_tilts(3):
                if not a_lesssim(a, u, v):
                    continue
                for w in all_permutations(3):
                    both = a_lesssim(a, u, w) and a_lesssim(a, w, v)
                    assert both == (w in members), (a, u, v, w)


def _brute_poset(n, a, mode):
    rel = a_leq if mode == "leq" else a_lesssim
    perms = list(all_permutations(n))
    less = {(u, v) for u in perms for v in perms if u != v and rel(a, u, v)}
    hasse = {
        (u, v)
        for (u, v) in less
        if not any((u, w) in less and (w, v) in less for w in perms)
    }
    return less, hasse


@pytest.mark.parametrize("mode", ["leq", "lesssim"])
def test_covers_match_brute_force(mode):
    rng = random.Random(7)
    for _ in range(4):
        n = 4
        a = tuple(rng.randint(1, n) for _ in range(n))
        less, hasse = _brute_poset(n, a, mode)
        for w in all_permutations(n):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    t = apply_transposition(w, i, j)
                    got = covers(a, w, i, j, mode)
                    if got == "cover":
                        assert (w, t) in hasse, (a, w, i, j)
                    elif got == "comparable":
                        assert (w, t) in less and (w, t) not in hasse, (a, w, i, j)
                    else:
                        assert (w, t) not in less, (a, w, i, j)
        # every Hasse edge is a transposition pair recognized as a cover
        for (u, v) in hasse:
            diffs = [p for p in range(n) if u[p] != v[p]]
            assert len(diffs) == 2
            i, j = diffs[0] + 1, diffs[1] + 1
            assert covers(a, u, i, j, mode) == "cover"


@pytest.mark.parametrize("mode", ["lessim", "LEQ", ""])
def test_covers_rejects_an_unknown_mode(mode):
    with pytest.raises(ValueError, match="mode must be 'leq' or 'lesssim'"):
        covers((1, 1, 1), (1, 2, 3), 1, 3, mode)


def test_covers_pinned_edge():
    assert covers((1, 2, 3, 3), parse_perm("2341"), 2, 3, "lesssim") == "cover"
    # classical: a = ones recovers Bruhat covers
    ones = (1, 1, 1, 1)
    for w in all_permutations(4):
        for i in range(1, 4):
            for j in range(i + 1, 5):
                t = apply_transposition(w, i, j)
                is_cover = covers(ones, w, i, j, "leq") == "cover"
                assert is_cover == (
                    w[i - 1] < w[j - 1] and length(t) == length(w) + 1
                )


def test_a_length():
    for w in all_permutations(4):
        assert a_length((1, 1, 1, 1), w) == length(w)
    assert a_length((2, 2, 2), (1, 2, 3)) - a_length((2, 2, 2), (2, 3, 1)) == 2


def test_lesssim_cover_raises_a_length_by_one():
    rng = random.Random(3)
    for _ in range(6):
        a = tuple(rng.randint(1, 4) for _ in range(4))
        for w in all_permutations(4):
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    if covers(a, w, i, j, "lesssim") == "cover":
                        t = apply_transposition(w, i, j)
                        assert a_length(a, t) == a_length(a, w) + 1, (a, w, i, j)


def test_length_rank_on_lesssim_comparable_pairs():
    for u in all_permutations(3):
        for v in all_permutations(3):
            a = witness_a(u, v)
            assert a_length(a, v) - a_length(a, u) == ell(u, v), (u, v, a)


def test_descent_kernel_is_the_shifted_order_s4():
    # descends, which the recursion calls unchecked, against the definition
    # w_{i+1} <_{a_i} w_i when a_i = a_{i+1}, through both checked wrappers
    for a in all_tilts(4):
        for w in all_permutations(4):
            des = {i for i in range(1, 4)
                   if a[i - 1] == a[i] and shifted_less(4, a[i - 1], w[i], w[i - 1])}
            assert a_descents(a, w) == des, (a, w)
            for i in range(1, 4):
                step = a_step_type(a, w, i)
                assert (step == "descent") == (i in des), (a, w, i)
                assert (step is None) == (a[i - 1] != a[i]), (a, w, i)


def test_step_types_partial():
    a = (1, 2, 2)
    assert a_step_type(a, (1, 2, 3), 1) is None
    assert a_step_type(a, (1, 3, 2), 2) == "descent"
    assert a_step_type(a, (1, 2, 3), 2) == "ascent"
    assert a_descents((2, 2, 2), (2, 3, 1)) == set()
    assert a_step_type((2, 2, 2), (2, 3, 1), 1) == "ascent"
    assert a_step_type((2, 2, 2), (2, 3, 1), 2) == "ascent"
    # adjacent pairs are always comparable one way
    rng = random.Random(5)
    for _ in range(100):
        a = tuple(rng.randint(1, 4) for _ in range(4))
        w = rng.choice(list(all_permutations(4)))
        for i in range(1, 4):
            up = adj_increases(a, w, i)
            ws = apply_simple(w, i)
            assert a_leq(a, w, ws) == up
            assert a_leq(a, ws, w) == (not up)


def test_lifting_theorem_s4():
    rng = random.Random(11)
    perms = list(all_permutations(4))
    hits = 0
    for _ in range(4000):
        a = tuple(rng.randint(1, 4) for _ in range(4))
        u, v = rng.choice(perms), rng.choice(perms)
        if not a_lesssim(a, u, v):
            continue
        for i in range(1, 4):
            if a_step_type(a, v, i) == "descent" and a_step_type(a, u, i) == "ascent":
                hits += 1
                assert a_lesssim(a, apply_simple(u, i), v)
                assert a_lesssim(a, u, apply_simple(v, i))
    assert hits > 50  # the sweep actually exercised the hypothesis


def test_corollary_lifting():
    # if w' is a lesssim-cover of w and i in Des_a(w), then i in Des_a(w')
    # or w' = w s_i
    rng = random.Random(13)
    for _ in range(5):
        a = tuple(rng.randint(1, 4) for _ in range(4))
        for w in all_permutations(4):
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    if covers(a, w, i, j, "lesssim") != "cover":
                        continue
                    wt = apply_transposition(w, i, j)
                    for s in a_descents(a, wt):
                        assert s in a_descents(a, w) or w == apply_simple(wt, s), (
                            a, w, wt, s,
                        )


def test_cor_xy_subinterval_comparability():
    # [x,y] inside [u,v] with u <=_a v forces x <=_a y; same for lesssim
    rng = random.Random(17)
    perms = list(all_permutations(4))
    for _ in range(200):
        u, v = rng.choice(perms), rng.choice(perms)
        iv = tilted_interval(u, v)
        a = witness_a(u, v)
        members = list(iv.members)
        x, y = rng.choice(members), rng.choice(members)
        if iv.poset_leq(x, y):
            assert a_lesssim(a, x, y), (u, v, x, y)


def test_interval_edges_are_comparable():
    # w, w t_{ij} both in [u,v] implies comparable within the interval
    rng = random.Random(19)
    perms = list(all_permutations(4))
    for _ in range(100):
        u, v = rng.choice(perms), rng.choice(perms)
        iv = tilted_interval(u, v)
        for w in iv.members:
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    t = apply_transposition(w, i, j)
                    if t in iv.members:
                        assert iv.poset_leq(w, t) or iv.poset_leq(t, w)


def test_interval_s_invariant_examples():
    assert interval_s_invariant((2, 3, 1), (1, 2, 3), 1)
    assert not interval_s_invariant((2, 3, 1), (1, 2, 3), 2)
    for w in all_permutations(3):
        for i in (1, 2):
            assert not interval_s_invariant(w, w, i)


def test_strong_lifting_equivalence():
    # criterion (1) (a witness with i in Des_a(v) n Asc_a(u)) iff (3)
    for u in all_permutations(3):
        for v in all_permutations(3):
            for i in (1, 2):
                got = strong_lifting_witness(u, v, i)
                assert (got is not None) == interval_s_invariant(u, v, i), (u, v, i)
    rng = random.Random(23)
    perms = list(all_permutations(4))
    for _ in range(150):
        u, v = rng.choice(perms), rng.choice(perms)
        i = rng.randint(1, 3)
        got = strong_lifting_witness(u, v, i)
        assert (got is not None) == interval_s_invariant(u, v, i), (u, v, i)


def _k_bruhat_classical(u, v, k):
    """Classical k-Bruhat order by restricted covering-chain enumeration."""
    n = len(u)
    target = length(v) - length(u)
    if target < 0 or not bruhat_leq(u, v):
        return False
    frontier = {u}
    for _ in range(target):
        nxt = set()
        for w in frontier:
            for c in range(1, k + 1):
                for d in range(k + 1, n + 1):
                    t = apply_transposition(w, c, d)
                    if length(t) == length(w) + 1 and bruhat_leq(t, v):
                        nxt.add(t)
        frontier = nxt
    return v in frontier


def test_k_tilted_examples():
    for w in all_permutations(3):
        for k in (1, 2):
            assert k_tilted_leq(w, w, k)
    assert k_tilted_leq((1, 2), (2, 1), 1)
    with pytest.raises(ValueError):
        k_tilted_leq((1, 2, 3), (1, 2, 3), 3)


def test_k_tilted_matches_classical_k_bruhat_s4():
    for u in all_permutations(4):
        for v in all_permutations(4):
            if not bruhat_leq(u, v):
                continue
            for k in (1, 2, 3):
                assert k_tilted_leq(u, v, k) == _k_bruhat_classical(u, v, k), (u, v, k)


def _k_tilted_leq_oracle(u, v, k):
    """u <=^k v by a breadth-first search over the edges t_cd, c <= k < d,
    that keeps distances and stops at the unrestricted distance ell(u, v)."""
    target = ell(u, v)
    dist, frontier = {u: 0}, [u]
    while frontier and dist[frontier[0]] < target:
        nxt = []
        for w in frontier:
            for i, j, _ in qbgraph.edges_from(w):
                t = apply_transposition(w, i, j)
                if i <= k < j and t not in dist:
                    dist[t] = dist[w] + 1
                    nxt.append(t)
        frontier = nxt
    return dist.get(v) == target


@pytest.mark.parametrize("n", [3, 4])
def test_k_tilted_matches_the_bfs_oracle_exhaustive(n):
    perms = list(all_permutations(n))
    held = 0
    for u in perms:
        for v in perms:
            for k in range(1, n):
                got = k_tilted_leq(u, v, k)
                assert got == _k_tilted_leq_oracle(u, v, k), (u, v, k)
                held += got
    assert 0 < held < len(perms) ** 2 * (n - 1)


def test_k_tilted_matches_the_bfs_oracle_s5_to_s7():
    rng = random.Random(36)
    held = total = 0
    for n, count in ((5, 60), (6, 30), (7, 15)):
        for _ in range(count):
            u, v = (tuple(rng.sample(range(1, n + 1), n)) for _ in "uv")
            for k in range(1, n):
                got = k_tilted_leq(u, v, k)
                assert got == _k_tilted_leq_oracle(u, v, k), (u, v, k)
                held, total = held + got, total + 1
    assert 0 < held < total


def test_all_witnesses_agree_s4():
    # every tilt with u <~_a v carves out the same interval as the graph
    tilts = list(itertools.product(range(1, 5), repeat=4))
    perms = list(all_permutations(4))
    for u in perms:
        for v in perms:
            members = tilted_interval(u, v).members
            for a in tilts:
                if not a_lesssim(a, u, v):
                    continue
                got = {
                    w
                    for w in perms
                    if a_lesssim(a, u, w)
                    and a_lesssim(a, w, v)
                }
                assert got == members, (u, v, a)


def test_tilt_1233_poset_shapes():
    # the full Hasse data of both orders for a = (1,2,3,3) on S_4
    a = (1, 2, 3, 3)
    perms = list(all_permutations(4))
    for mode, edges, minimal, maximal in [
        (
            "lesssim", 33,
            {"1234", "1342", "2341", "3412"},
            {"1243", "1423", "2143", "4123", "4213"},
        ),
        ("leq", 48, {"1234", "1342", "2341", "3412"}, {"4123"}),
    ]:
        less, hasse = _brute_poset(4, a, mode)
        from qbruhat.permcore import format_perm

        mins = {format_perm(u) for u in perms if not any((w, u) in less for w in perms)}
        maxs = {format_perm(u) for u in perms if not any((u, w) in less for w in perms)}
        assert len(hasse) == edges, (mode, len(hasse))
        assert mins == minimal and maxs == maximal, mode


def test_lattice_paths_sharing_no_minimum_are_a_fault(monkeypatch):
    # adjacent lattice paths always share a minimum; levels whose minima are
    # one abscissa each, a different one per path, must not yield a tilt
    level = itertools.count()
    monkeypatch.setattr(qbgraph, "_level", lambda row: (row, 1 << next(level)))
    with pytest.raises(InternalConsistencyError, match="share no minimum at k=1"):
        witness_a((2, 3, 1), (1, 2, 3))
