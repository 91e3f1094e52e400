"""Sampled S_5 sweeps: everything below the gates should scale past S_4."""

import random

from qbruhat.permcore import all_permutations, apply_transposition
from qbruhat.qbgraph import bfs_ell, ell, min_degree, tilted_interval
from qbruhat.rpolyhecke import rtilt_deodhar, rtilt_hecke, rtilt_recursive
from qbruhat.tiltorder import covers, in_tilted_interval, witness_a
from qbruhat.tiltwords import word_length

rng = random.Random(55)
PERMS = list(all_permutations(5))


def test_rpoly_three_way_sampled():
    for _ in range(20):
        u, v = rng.choice(PERMS), rng.choice(PERMS)
        d = rtilt_deodhar(u, v)
        assert d == rtilt_recursive(u, v) == rtilt_hecke(u, v), (u, v)
        assert d.degree == ell(u, v) and d.leading_coefficient() == 1
        if u != v:
            assert d(1) == 0


def test_interval_membership_sampled():
    for _ in range(200):
        u, v, w = (rng.choice(PERMS) for _ in range(3))
        bfs = bfs_ell(u, w) + bfs_ell(w, v) == bfs_ell(u, v)
        assert in_tilted_interval(u, v, w) == bfs, (u, v, w)


def test_word_length_rank_sampled():
    for _ in range(3):
        a = tuple(rng.randint(1, 5) for _ in range(5))
        for _ in range(150):
            w = rng.choice(PERMS)
            i = rng.randint(1, 4)
            j = rng.randint(i + 1, 5)
            if covers(a, w, i, j, "lesssim") == "cover":
                t = apply_transposition(w, i, j)
                assert word_length(a, t) == word_length(a, w) + 1, (a, w, i, j)


def test_interval_ranks_consistent():
    for _ in range(10):
        u, v = rng.choice(PERMS), rng.choice(PERMS)
        iv = tilted_interval(u, v)
        a = witness_a(u, v)
        d = min_degree(u, v)
        for w in iv.members:
            assert iv.rank[w] + ell(w, v) == iv.ell
        assert all(x >= 0 for x in d)
