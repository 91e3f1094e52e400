"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact.
"""

import random
from fractions import Fraction

from qbruhat.permcore import (
    all_permutations,
    apply_simple,
    apply_transposition,
    bruhat_leq,
    compose,
    identity,
    inverse,
    length,
    longest,
    parse_perm,
)
from qbruhat.qbgraph import (
    bfs_ell,
    graph_edges,
    lattice_depth,
    min_degree,
    shortest_path_weight,
    tilted_interval,
)
from qbruhat.rpolyhecke import (
    classical_r,
    rtilt_deodhar,
    rtilt_hecke,
    rtilt_recursive,
)
from qbruhat.tiltorder import (
    covers,
    in_tilted_interval,
    interval_s_invariant,
    k_tilted_leq,
    witness_a,
)
from qbruhat.tiltwords import (
    distinguished_subwords,
    format_word,
    positive_distinguished_subword,
    regular_tilted_reduced_word,
    tilted_reduced_word,
    word_length,
)
from qbruhat.varietylab import (
    count_points_fq,
    deodhar_point,
    in_tilted_richardson,
    in_tilted_richardson_plucker,
    tnn_signs,
)
from qbruhat.quantumschub import (
    check_descent_cycling,
    cohomology_class_T,
    path_schubert,
    revlex_leading,
)

from oracles import count_total_flags

GAMMA3_STRONG = {
    ("123", "132"), ("123", "213"), ("132", "312"), ("132", "231"),
    ("213", "312"), ("213", "231"), ("231", "321"), ("312", "321"),
}
GAMMA3_QUANTUM = {
    ("132", "123", (0, 1)), ("312", "132", (1, 0)), ("321", "312", (0, 1)),
    ("321", "231", (1, 0)), ("231", "213", (0, 1)), ("213", "123", (1, 0)),
    ("321", "123", (1, 1)),
}


def _ok(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS  {text}")


def test_c01_gamma3_reconstruction():
    strong, quantum = set(), set()
    for w, t, wt in graph_edges(3):
        key = ("".join(map(str, w)), "".join(map(str, t)))
        if any(wt):
            quantum.add(key + (wt,))
        else:
            strong.add(key)
    assert strong == GAMMA3_STRONG
    assert quantum == GAMMA3_QUANTUM
    assert len(strong) + len(quantum) == 15
    _ok(1, "Gamma_3: 15 edges, 8 strong + 7 quantum, weights edge-for-edge")


def test_c02_minimal_degrees():
    assert min_degree((3, 2, 1), (2, 1, 3)) == (1, 1)
    assert min_degree(parse_perm("7364152"), parse_perm("2513746")) == (
        1, 1, 2, 2, 1, 1,
    )
    perms = list(all_permutations(5))
    pairs = 0
    for u in perms:
        for v in perms:
            assert min_degree(u, v) == shortest_path_weight(u, v), (u, v)
            pairs += 1
    assert pairs == 14_400
    _ok(2, "known minimal degrees + depth/BFS agreement on all 14400 S_5 pairs")


def test_c03_lattice_path_depth():
    assert lattice_depth(7, {3, 4, 6, 7}, {1, 2, 3, 5}) == 2
    _ok(3, "depth({3,4,6,7},{1,2,3,5}) = 2 in n = 7")


def test_c04_tilted_intervals():
    iv = tilted_interval((2, 3, 1), (1, 2, 3))
    assert iv.members == {(2, 3, 1), (2, 1, 3), (3, 2, 1), (1, 2, 3)}
    perms = list(all_permutations(4))
    for u in perms:
        for v in perms:
            if tilted_interval(u, v).ell == 2:
                assert len(tilted_interval(u, v).members) == 4
    triples = 0
    for u in perms:
        for v in perms:
            for w in perms:
                bfs = bfs_ell(u, w) + bfs_ell(w, v) == bfs_ell(u, v)
                assert in_tilted_interval(u, v, w) == bfs, (u, v, w)
                triples += 1
    assert triples == 24 ** 3
    _ok(4, "diamond [231,123]; rank-2 diamonds; criterion = BFS on all S_4 triples")


def test_c05_words():
    assert word_length((4, 4, 2, 2), parse_perm("3142")) == 11
    a = (3, 3, 1, 1, 1, 6)
    w = parse_perm("136254")
    assert format_word(tilted_reduced_word(a, w)) == (
        "s5 s4 s3 s2 s1 | s1 s2 s3 s5 s4 | s2 s1 s4 s3 | s1"
    )
    assert format_word(regular_tilted_reduced_word(a, w)) == (
        "s5 s4 s3 s2 s1 | s5 s1 s2 s3 s4 | s2 s4 s3 s1 | s1"
    )
    rng = random.Random(2026)
    perms = list(all_permutations(4))
    for _ in range(20):
        a4 = tuple(rng.randint(1, 4) for _ in range(4))
        for x in perms:
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    if covers(a4, x, i, j, "lesssim") == "cover":
                        y = apply_transposition(x, i, j)
                        assert word_length(a4, y) == word_length(a4, x) + 1
    _ok(5, "word length 11; both constructions verbatim; rank function, 20 tilts")


def test_c06_distinguished_subwords():
    a = (5, 5, 5, 1, 1, 1)
    v = parse_perm("246513")
    u = parse_perm("512346")
    word = regular_tilted_reduced_word(a, v)
    subs = distinguished_subwords(word, u)
    assert len(subs) == 4
    assert sorted((len(s.jcirc), len(s.jminus)) for s in subs) == [
        (4, 2), (6, 1), (6, 1), (8, 0),
    ]
    _ok(6, "S_6 example: exactly 4 subwords, multiset {(8,0),(6,1),(6,1),(4,2)}")


def _random_perm(rng, n):
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def test_c07_rpoly_three_way():
    from qbruhat.qbgraph import ell

    pairs = [(u, v) for n in (3, 4) for u in all_permutations(n) for v in all_permutations(n)]
    rng = random.Random(7)
    pairs += [(_random_perm(rng, 5), _random_perm(rng, 5)) for _ in range(30)]
    # v = w0 or w0 s_i: the longest tilted words, as in the benchmark's three-route class
    for _ in range(10):
        i = rng.randint(0, 5)
        pairs.append((_random_perm(rng, 6), longest(6) if i == 0 else apply_simple(longest(6), i)))
    pairs.append((identity(7), longest(7)))
    for u, v in pairs:
        d = rtilt_deodhar(u, v)
        assert d == rtilt_recursive(u, v) == rtilt_hecke(u, v), (u, v)
        assert d.degree == ell(u, v)
        assert d.leading_coefficient() == 1
        if u != v:
            assert d(1) == 0
        if bruhat_leq(u, v):
            assert d == classical_r(u, v)
    _ok(7, "three routes agree on all S_3 and S_4 pairs, 30 S_5 pairs, 10 S_6 pairs"
           " near w0 and S_7 e -> w0; classical; deg/monic/R(1)")


def test_c08_fq_oracle():
    assert count_total_flags(3, 2) == 21
    for u in all_permutations(3):
        for v in all_permutations(3):
            r = rtilt_deodhar(u, v)
            for p in (2, 3):
                assert count_points_fq(u, v, p) == r(p), (u, v, p)
    rng = random.Random(8)
    perms = list(all_permutations(4))
    for _ in range(25):
        u, v = rng.choice(perms), rng.choice(perms)
        assert count_points_fq(u, v, 2) == rtilt_deodhar(u, v)(2), (u, v)
    _ok(8, "counts equal R^tilt(p): S_3 x {2,3} exhaustive, 25 S_4 pairs at p=2")


def test_c09_parametrization():
    # the pinned 4x4 reference matrix, entry for entry
    a, v, u = (4, 4, 2, 2), parse_perm("3142"), parse_perm("4231")
    word = tilted_reduced_word(a, v)
    sub = positive_distinguished_subword(word, u)
    pa, pb, pc, pd = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    M = deodhar_point(word, sub, {5: pa, 6: pb, 7: -pc, 11: -pd})
    assert [list(r) for r in M.rows] == [
        [pc, 0, 0, -1],
        [pd, -1, 0, 0],
        [pa * pd, -pa, -1, 0],
        [1, 0, -pb, 0],
    ]
    signs, trace = tnn_signs(word, sub)
    assert [signs[j] for j in sorted(signs)] == [1, 1, -1, -1]
    assert trace == [(1, 1, 1, 1)] * 4 + [(1, 1, 1, -1)] * 6 + [(1, -1, 1, -1)] * 2
    # 500 random rational Deodhar points per S_3 pair, both routes
    rng = random.Random(9)
    for u3 in all_permutations(3):
        for v3 in all_permutations(3):
            a3 = witness_a(u3, v3)
            w3 = regular_tilted_reduced_word(a3, v3)
            s3 = positive_distinguished_subword(w3, u3)
            for _ in range(500):
                p_map = {}
                for j in s3.jcirc:
                    val = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    p_map[j] = val if rng.random() < 0.5 else -val
                pt = deodhar_point(w3, s3, p_map)
                assert in_tilted_richardson(pt, u3, v3, open_flag=True, a=a3)
                assert in_tilted_richardson_plucker(
                    pt, u3, v3, open_flag=True, check=False
                )
    _ok(9, "reference matrix entry-for-entry; signs (+,+,-,-); 12-step trace; 18000 points")


def test_c10_quantum_schubert():
    for u in all_permutations(3):
        for v in all_permutations(3):
            P = path_schubert(u, v)
            d = min_degree(u, v)
            qe, _, c = revlex_leading(P)
            assert c == 1 and qe == d
            weights = P.q_weights()
            assert d in weights
            assert all(all(x >= y for x, y in zip(wt, d)) for wt in weights)
    for u in all_permutations(3):
        assert cohomology_class_T(u, u) == {longest(3): 1}
    assert cohomology_class_T(identity(3), longest(3)) == {identity(3): 1}
    checked = 0
    for u in all_permutations(3):
        for v in all_permutations(3):
            for i in (1, 2):
                if interval_s_invariant(u, v, i):
                    assert check_descent_cycling(u, v, i)["ok"], (u, v, i)
                    checked += 1
    assert checked > 0
    rng = random.Random(2026)
    perms = list(all_permutations(4))
    sampled = 0
    while sampled < 10:
        u, v = rng.choice(perms), rng.choice(perms)
        i = rng.randint(1, 3)
        if not interval_s_invariant(u, v, i):
            continue
        assert check_descent_cycling(u, v, i)["ok"], (u, v, i)
        sampled += 1
    _ok(10, f"coeff-1 leading; minimal weights; point/fundamental classes; "
           f"descent cycling ({checked} S_3 + 10 S_4 triples)")


def test_c11_genuinely_new_variety():
    u, v = parse_perm("512346"), parse_perm("246513")
    members = tilted_interval(u, v).members
    translates = []
    for w in all_permutations(6):
        winv = inverse(w)
        translated = [compose(winv, x) for x in members]
        lens = sorted(length(x) for x in translated)
        if lens[0] == lens[1] or lens[-1] == lens[-2]:
            continue  # a Bruhat interval has a unique bottom and top
        bot = min(translated, key=length)
        top = max(translated, key=length)
        tset = set(translated)
        if not all(bruhat_leq(bot, x) and bruhat_leq(x, top) for x in tset):
            continue
        full = {
            z
            for z in all_permutations(6)
            if bruhat_leq(bot, z) and bruhat_leq(z, top)
        }
        if full == tset:
            translates.append((w, bot, top))
    assert translates == []
    _ok(11, "[512346,246513] is no left translate of any classical interval")


def test_c12_k_tilted_order():
    def k_bruhat_chains(u, v, k):
        n = len(u)
        target = length(v) - length(u)
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

    perms = list(all_permutations(4))
    pairs = 0
    for u in perms:
        for v in perms:
            if not bruhat_leq(u, v):
                continue
            for k in (1, 2, 3):
                assert k_tilted_leq(u, v, k) == k_bruhat_chains(u, v, k), (u, v, k)
            pairs += 1
    assert pairs == 213
    _ok(12, "k-tilted order matches restricted-chain k-Bruhat on all Bruhat pairs of S_4")
