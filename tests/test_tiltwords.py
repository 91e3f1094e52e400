import itertools
import random

import pytest

from qbruhat.permcore import (
    all_permutations,
    identity,
    length,
    parse_perm,
    reduced_word,
)
from qbruhat.qbgraph import ell
from qbruhat.tiltorder import a_lesssim, covers, witness_a
from qbruhat.tiltwords import (
    BAR,
    back_flatten,
    bigrassmannian,
    distinguished_subwords,
    flatten,
    flattenable,
    format_subword,
    format_word,
    is_reduced,
    is_regular,
    is_valid,
    jump_min,
    jumps,
    make_word,
    parse_word,
    positive_distinguished_subword,
    positive_word,
    regular_tilted_reduced_word,
    tilt_sequence,
    tilted_reduced_word,
    word_length,
    word_moves,
)


def all_tilts(n):
    return itertools.product(range(1, n + 1), repeat=n)


def test_jumps_flatten():
    a = (2, 2, 4, 4, 4, 3)
    assert jumps(a) == {2, 5, 6}
    assert jump_min(a) == 2
    assert flatten(a) == (4, 4, 4, 4, 4, 3)
    assert jumps((1, 1, 1)) == frozenset()
    with pytest.raises(ValueError):
        flatten((1, 1, 1))
    # iterating flatten |Jump_a| times lands on the all-ones tilt
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = tuple(rng.randint(1, n) for _ in range(n))
        steps = len(jumps(a))
        for _ in range(steps):
            a = flatten(a)
        assert a == (1,) * n


def test_back_flatten():
    assert back_flatten((2, 2, 4, 4, 4, 3)) == (2, 2, 4, 4, 4, 4)
    assert back_flatten((3, 1, 1)) == (3, 3, 3)
    with pytest.raises(ValueError):
        back_flatten((2, 2, 2))


def test_flattenable():
    assert flattenable((4, 4, 2, 2), (4, 3, 2, 1)) == 1
    # jump_min = 1 splits a single column, always
    rng = random.Random(3)
    for _ in range(100):
        n = 4
        a = [rng.randint(1, n) for _ in range(n)]
        a[0] = 1 if a[1] != 1 else 2  # force a jump at position 1
        if a[0] == a[1]:
            continue
        w = rng.choice(list(all_permutations(n)))
        assert flattenable(tuple(a), w) in (0, 1)


def test_flattenable_descends_with_lesssim():
    # if u <~_a v and v is flattenable then u is flattenable (S_4 sweep)
    for a in all_tilts(3):
        if not jumps(a):
            continue
        for u in all_permutations(3):
            for v in all_permutations(3):
                if a_lesssim(a, u, v) and flattenable(a, v) is not None:
                    assert flattenable(a, u) is not None, (a, u, v)


def test_construction_pinned_outputs():
    a = (3, 3, 1, 1, 1, 6)
    w = parse_perm("136254")
    assert format_word(tilted_reduced_word(a, w)) == (
        "s5 s4 s3 s2 s1 | s1 s2 s3 s5 s4 | s2 s1 s4 s3 | s1"
    )
    assert format_word(regular_tilted_reduced_word(a, w)) == (
        "s5 s4 s3 s2 s1 | s5 s1 s2 s3 s4 | s2 s4 s3 s1 | s1"
    )
    word = tilted_reduced_word((4, 4, 2, 2), parse_perm("3142"))
    assert format_word(word) == "s1 s2 s3 | s1 s2 s3 s2 s1 | s1"
    assert word_length((4, 4, 2, 2), parse_perm("3142")) == 11


def test_classical_specialization():
    ones = (1, 1, 1, 1)
    for w in all_permutations(4):
        word = tilted_reduced_word(ones, w)
        assert word.bar_positions() == []
        assert word.factors == reduced_word(w)
        assert word_length(ones, w) == length(w)
        assert is_regular(word)


def test_construction_outputs_are_valid_and_reduced():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 5)
        a = tuple(rng.randint(1, n) for _ in range(n))
        w = rng.choice(list(all_permutations(n)))
        plain = tilted_reduced_word(a, w)
        reg = regular_tilted_reduced_word(a, w)
        assert is_valid(plain) and is_valid(reg)
        assert is_regular(reg)
        assert len(plain) == len(reg) == word_length(a, w)
        assert is_reduced(plain) and is_reduced(reg)
        assert len(plain.bar_positions()) == len(jumps(a))


def test_word_length_rank_function():
    rng = random.Random(6)
    for _ in range(6):
        a = tuple(rng.randint(1, 4) for _ in range(4))
        for w in all_permutations(4):
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    if covers(a, w, i, j, "lesssim") == "cover":
                        from qbruhat.permcore import apply_transposition

                        t = apply_transposition(w, i, j)
                        assert word_length(a, t) == word_length(a, w) + 1


def test_parse_format_roundtrip():
    word = make_word((2, 2, 2), (1, 2, BAR, 2, 1))
    assert format_word(word) == "s1 s2 | s2 s1"
    assert parse_word((2, 2, 2), format_word(word)) == word
    with pytest.raises(ValueError):
        parse_word((2, 2, 2), "s1 x2")


def test_validity_detects_bad_words():
    a = (2, 2, 2)
    good = parse_word(a, "s1 s2 | s2 s1")
    assert is_valid(good)
    # wrong number of bars
    assert not is_valid(make_word(a, (1, 2, 2, 1)))
    # prefix at the bar not flattenable: 213 splits {2},{1,3}? order 2<3<1
    assert not is_valid(make_word(a, (1, BAR, 2)))


def test_word_property_random_moves():
    # randomized walker: braid and bar moves never change target or length
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(3, 5)
        a = tuple(rng.randint(1, n) for _ in range(n))
        w = rng.choice(list(all_permutations(n)))
        word = tilted_reduced_word(a, w)
        for _ in range(12):
            nbrs = list(word_moves(word))
            if not nbrs:
                break
            word = rng.choice(nbrs)
            assert word.target == w
            assert len(word) == word_length(a, w)
            assert is_valid(word)


def test_bigrassmannian():
    assert bigrassmannian(6, 2, 1) == parse_perm("312456")
    assert bigrassmannian(6, 1, 4) == parse_perm("234516")
    assert bigrassmannian(4, 0, 2) == identity(4)


def test_distinguished_subwords_s6_example():
    a = (5, 5, 5, 1, 1, 1)
    v = parse_perm("246513")
    u = parse_perm("512346")
    word = parse_word(a, "s3 s4 s5 s1 s2 s3 s4 s3 s2 s1 | s1 s2")
    assert is_valid(word) and is_regular(word) and word.target == v
    subs = distinguished_subwords(word, u)
    assert len(subs) == 4
    assert sorted((len(s.jcirc), len(s.jminus)) for s in subs) == [
        (4, 2), (6, 1), (6, 1), (8, 0),
    ]
    shapes = {format_subword(s) for s in subs}
    assert "1 1 1 1 1 1 s4 s3 s2 s1 | 1 1" in shapes
    assert "s3 1 1 s1 1 s3 s4 s3 s2 s1 | 1 s2" in shapes
    for s in subs:
        assert s.target == u
        assert s.jplus | s.jcirc | s.jminus == set(word.generator_positions())
        assert len(s.jcirc) + len(s.jminus) <= ell(u, v)


def test_subword_of_self():
    for w in all_permutations(3):
        a = witness_a(w, w)
        word = regular_tilted_reduced_word(a, w)
        subs = distinguished_subwords(word, w)
        assert len(subs) == 1
        only = subs[0]
        assert not only.jcirc and not only.jminus
        assert only.jplus == set(word.generator_positions())


def test_subword_property_s3():
    # u <~_a v iff a distinguished subword for u exists
    for a in all_tilts(3):
        for v in all_permutations(3):
            word = regular_tilted_reduced_word(a, v)
            for u in all_permutations(3):
                from qbruhat.tiltorder import a_sim

                if not a_sim(a, u, v):
                    with pytest.raises(ValueError):
                        distinguished_subwords(word, u)
                    continue
                subs = distinguished_subwords(word, u)
                assert bool(subs) == a_lesssim(a, u, v), (a, u, v)


def test_subwords_of_regular_words_are_regular():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(3, 4)
        a = tuple(rng.randint(1, n) for _ in range(n))
        perms = list(all_permutations(n))
        v = rng.choice(perms)
        u = rng.choice(perms)
        word = regular_tilted_reduced_word(a, v)
        from qbruhat.tiltorder import a_sim

        if not a_sim(a, u, v):
            continue
        for s in distinguished_subwords(word, u):
            kept = tuple(
                f
                for j, f in enumerate(word.factors, start=1)
                if f is BAR or s.keep[j - 1]
            )
            assert is_regular(make_word(a, kept)), (a, u, v, s)


def test_removing_final_bar():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = tuple(rng.randint(1, n) for _ in range(n))
        if not jumps(a):
            continue
        w = rng.choice(list(all_permutations(n)))
        word = tilted_reduced_word(a, w)
        last_bar = max(word.bar_positions())
        reduced = word.factors[: last_bar - 1] + word.factors[last_bar:]
        assert is_valid(make_word(flatten(a), reduced))


def test_positive_word_is_the_witness_word_and_its_positive_subword():
    u, v = parse_perm("4231"), parse_perm("3142")
    a, word, sub = positive_word(u, v)
    assert a == witness_a(u, v)
    assert word == regular_tilted_reduced_word(a, v)
    assert sub == positive_distinguished_subword(word, u)
    given = (4, 4, 2, 2)
    a, word, sub = positive_word(u, v, given)
    assert a == given and word == regular_tilted_reduced_word(given, v)
    assert sub.target == u and not sub.jminus


def test_positive_distinguished_subword():
    a = (4, 4, 2, 2)
    v = parse_perm("3142")
    u = parse_perm("4231")
    word = tilted_reduced_word(a, v)
    sub = positive_distinguished_subword(word, u)
    assert format_subword(sub) == "s1 s2 s3 | 1 1 1 s2 s1 | 1"
    assert not sub.jminus
    assert len(sub.jcirc) == ell(u, v)
    # self case: the full word
    full = positive_distinguished_subword(word, v)
    assert full.jplus == set(word.generator_positions())
    # incomparable pair raises
    with pytest.raises(ValueError):
        positive_distinguished_subword(
            tilted_reduced_word((1, 1, 1), identity(3)), (2, 1, 3)
        )


def test_positive_subword_sizes_s4():
    for u in all_permutations(4):
        for v in all_permutations(4):
            a = witness_a(u, v)
            word = regular_tilted_reduced_word(a, v)
            sub = positive_distinguished_subword(word, u)
            assert len(sub.jcirc) == ell(u, v), (u, v)
            assert not sub.jminus
    # equality |Jo| + |J-| = l(u,v) holds only for the positive subword
    rng = random.Random(11)
    perms = list(all_permutations(4))
    for _ in range(25):
        u, v = rng.choice(perms), rng.choice(perms)
        a = witness_a(u, v)
        word = regular_tilted_reduced_word(a, v)
        for s in distinguished_subwords(word, u):
            total = len(s.jcirc) + len(s.jminus)
            assert total <= ell(u, v)
            assert (total == ell(u, v)) == (not s.jminus)


def test_tilt_sequence_ends_at_ones():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 5)
        a = tuple(rng.randint(1, n) for _ in range(n))
        w = rng.choice(list(all_permutations(n)))
        word = tilted_reduced_word(a, w)
        seqs = tilt_sequence(word)
        assert seqs[-1] == a and seqs[0] == (1,) * n


def test_positive_subword_is_unique_in_enumeration():
    rng = random.Random(13)
    perms = list(all_permutations(4))
    for _ in range(20):
        u, v = rng.choice(perms), rng.choice(perms)
        a = witness_a(u, v)
        word = regular_tilted_reduced_word(a, v)
        subs = distinguished_subwords(word, u)
        positives = [s for s in subs if not s.jminus]
        assert len(positives) == 1
        assert positives[0] == positive_distinguished_subword(word, u)
