import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbruhat import qbgraph, quantumschub, rpolyhecke, tiltorder, tiltwords, varietylab
from qbruhat.permcore import (
    GATES,
    GateError,
    all_permutations,
    apply_transposition,
    bruhat_leq,
    check_permutation,
    compose,
    cyclic_interval,
    descents,
    format_perm,
    identity,
    inverse,
    length,
    longest,
    parse_perm,
    perm_from_word,
    reduced_word,
    shifted_gale_leq,
    shifted_less,
)

from oracles import reduced_word_by_peeling

perms = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_parse_format_roundtrip():
    assert parse_perm("2314") == (2, 3, 1, 4)
    assert format_perm((2, 3, 1, 4)) == "2314"
    big = tuple([10] + list(range(2, 10)) + [1])
    assert parse_perm(format_perm(big)) == big
    with pytest.raises(ValueError):
        parse_perm("1135")
    assert parse_perm(" 2, 3 ,1 ") == (2, 3, 1)


@pytest.mark.parametrize(
    "text", ["", " ", ",", "1,2,", ",1,2", "1,,2", "１２", "1_0,2,3,4,5,6,7,8,9,1", "+1,2",
             "-1,2", "1.0,2", "1 2", "²1", "0x1,2"],
)
def test_parse_perm_rejects_malformed_text_where_it_enters(text):
    with pytest.raises(ValueError, match="^cannot parse permutation "):
        parse_perm(text)


def test_basics():
    assert length(identity(5)) == 0
    assert length(longest(5)) == 10
    assert length((2, 3, 1, 4)) == 2
    assert descents((2, 3, 1, 4)) == {2}
    assert apply_transposition((2, 3, 1), 1, 3) == (1, 3, 2)


@settings(max_examples=60)
@given(perms)
def test_inverse_involution(w):
    assert inverse(inverse(w)) == w
    assert compose(w, inverse(w)) == identity(len(w))
    assert compose(inverse(w), w) == identity(len(w))


@settings(max_examples=60)
@given(perms)
def test_reduced_word_roundtrip(w):
    word = reduced_word(w)
    assert len(word) == length(w)
    assert perm_from_word(len(w), word) == w


def test_reduced_word_is_the_smallest_left_descent_peel():
    # the sorting scan on inverse(w) against the peel it replaced
    for n in range(1, 8):
        for w in all_permutations(n):
            assert reduced_word(w) == reduced_word_by_peeling(w), w


def test_length_is_the_pairwise_inversion_count():
    for n in range(1, 8):
        for w in all_permutations(n):
            assert length(w) == sum(
                1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j]
            ), w


def test_length_changes_by_one_under_simple():
    for w in all_permutations(4):
        for i in range(1, 4):
            delta = length(apply_transposition(w, i, i + 1)) - length(w)
            assert delta == (-1 if i in descents(w) else 1)


def test_cyclic_interval_cases():
    assert cyclic_interval(4, 3, 2) == frozenset({3, 4, 1})
    # degenerate convention
    assert cyclic_interval(7, 5, 5) == frozenset()
    with pytest.raises(ValueError):
        cyclic_interval(4, 0, 2)


def test_cyclic_interval_sizes():
    for n in (3, 5, 7):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                assert len(cyclic_interval(n, a, b)) == (b - a) % n


def test_shifted_less():
    # r = 1 is the ordinary order
    for x in range(1, 6):
        for y in range(1, 6):
            assert shifted_less(5, 1, x, y) == (x < y)
    assert shifted_less(3, 2, 2, 3) and shifted_less(3, 2, 3, 1)
    assert not shifted_less(3, 2, 1, 2)
    for r in range(1, 6):
        for x in range(1, 6):
            assert not shifted_less(5, r, x, x)


def test_shifted_order_total():
    for n in (4, 5):
        for r in range(1, n + 1):
            chain = sorted(range(1, n + 1), key=lambda x: (x - r) % n)
            for x, y in itertools.combinations(chain, 2):
                assert shifted_less(n, r, x, y)
                assert not shifted_less(n, r, y, x)


def test_shifted_gale():
    assert shifted_gale_leq(4, 1, {1, 3}, {2, 4})
    assert shifted_gale_leq(7, 3, {3, 4, 6, 7}, {1, 2, 3, 5})
    assert shifted_gale_leq(7, 4, {3, 4, 6, 7}, {1, 2, 3, 5})
    assert not shifted_gale_leq(7, 1, {3, 4, 6, 7}, {1, 2, 3, 5})
    for r in range(1, 8):
        assert shifted_gale_leq(7, r, {2, 5}, {2, 5})
    with pytest.raises(ValueError):
        shifted_gale_leq(4, 1, {1}, {1, 2})


def _bruhat_closure(n):
    """Transitive closure of the covering relations w < w t_{ij}."""
    order = {(w, w) for w in all_permutations(n)}
    edges = set()
    for w in all_permutations(n):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                if w[i - 1] < w[j - 1]:
                    edges.add((w, apply_transposition(w, i, j)))
    changed = True
    order |= edges
    while changed:
        changed = False
        for (x, y) in list(order):
            for (y2, z) in edges:
                if y2 == y and (x, z) not in order:
                    order.add((x, z))
                    changed = True
    return order


def test_bruhat_leq_examples():
    assert bruhat_leq((2, 1, 4, 3), (2, 4, 1, 3))
    assert not bruhat_leq((2, 1, 4, 3), (3, 1, 2, 4))
    for w in all_permutations(4):
        assert bruhat_leq(identity(4), w)
        assert bruhat_leq(w, w)


def test_bruhat_leq_matches_closure():
    for n in (3, 4):
        closure = _bruhat_closure(n)
        for u in all_permutations(n):
            for v in all_permutations(n):
                assert bruhat_leq(u, v) == ((u, v) in closure), (u, v)


@pytest.mark.parametrize(
    "var, call, n, name",
    [
        ("QBRUHAT_MAX_N", lambda w: list(qbgraph.graph_edges(len(w))), 4, "graph"),
        pytest.param(
            "QBRUHAT_MAX_N", lambda w: tiltorder.k_tilted_leq(w, w, 1), 4, "graph",
            id="QBRUHAT_MAX_N-k_tilted_leq-4-graph",
        ),
        ("QBRUHAT_MAX_COUNT_N", lambda w: varietylab.count_points_fq(w, w, 2), 3, "counting"),
        ("QBRUHAT_MAX_PATH_N", lambda w: quantumschub.path_schubert(w, w), 3, "path"),
        ("QBRUHAT_MAX_GW_N", lambda w: quantumschub.gw_min_degree(w, w), 3, "expansion"),
    ],
)
def test_each_gate_names_its_variable(monkeypatch, var, call, n, name):
    assert GATES[var][1] == name
    monkeypatch.setenv(var, str(n - 1))
    with pytest.raises(GateError) as err:
        call(identity(n))
    assert str(err.value) == (
        f"n={n} exceeds the {name} gate {n - 1}; set {var} to override"
    )
    monkeypatch.setenv(var, str(n))
    call(identity(n))  # at the gate itself the call runs


BAD = (1, 1, 2)
E3 = (1, 2, 3)
W0 = (3, 2, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: reduced_word(BAD), "not a permutation"),
        (lambda: tiltwords.tilted_reduced_word((1, 1, 1), BAD), "not a permutation"),
        (lambda: tiltwords.regular_tilted_reduced_word((1, 1, 1), BAD), "not a permutation"),
        (lambda: tiltwords.word_length((1, 1, 1), BAD), "not a permutation"),
        (lambda: rpolyhecke.rtilt_deodhar(E3, BAD), "not a permutation"),
        (lambda: rpolyhecke.rtilt_deodhar(BAD, E3), "not a permutation"),
        # a word for another permutation, or a tilt other than the word's:
        # unchecked, the DP answers for the word
        (lambda: rpolyhecke.rtilt_deodhar(
            E3, W0, a=(1, 1, 1), word=tiltwords.regular_tilted_reduced_word((1, 1, 1), (2, 1, 3))),
         "does not multiply to v"),
        (lambda: rpolyhecke.rtilt_deodhar(
            E3, W0, a=(1, 1, 1), word=tiltwords.regular_tilted_reduced_word((2, 2, 2), W0)),
         "not the word's"),
        # words that multiply to v under its tilt but are not reduced tilted
        # words: unchecked, the DP gave q^2 - q + 1, q^2 and q for R~_{v,v} = 1
        (lambda: rpolyhecke.rtilt_deodhar(
            E3, E3, a=(1, 1, 1), word=tiltwords.make_word((1, 1, 1), (1, 1))),
         "not a reduced tilted word"),
        (lambda: rpolyhecke.rtilt_deodhar(
            E3, E3, word=tiltwords.make_word((2, 2, 2), (1, 2, 2, 1))),
         "not a reduced tilted word"),
        # of the reduced length, but its bar splits nothing
        (lambda: rpolyhecke.rtilt_deodhar(
            (2, 1, 3), (2, 1, 3), word=tiltwords.make_word((2, 1, 1), (tiltwords.BAR, 1))),
         "not a reduced tilted word"),
        # ints only: unchecked, a float reached lattice_rows as a TypeError
        (lambda: check_permutation((1.0, 2.0, 3.0)), "not a permutation"),
        (lambda: check_permutation((True, 2)), "not a permutation"),
        (lambda: qbgraph.min_degree((1.0, 2.0, 3.0), W0), "not a permutation"),
        (lambda: qbgraph.ell(E3, (3, 2, 1.0)), "not a permutation"),
        (lambda: tiltorder.a_leq((1, 1, 1), (True, 2, 3), W0), "not a permutation"),
        (lambda: rpolyhecke.rtilt_recursive(E3, BAD), "not a permutation"),
        (lambda: rpolyhecke.rtilt_hecke(E3, BAD), "not a permutation"),
        (lambda: varietylab.count_points_fq(BAD, E3, 2), "not a permutation"),
        (lambda: varietylab.in_tilted_richardson(
            varietylab.permutation_matrix(E3), BAD, E3), "not a permutation"),
        (lambda: quantumschub.path_schubert(BAD, (3, 2, 1)), "not a permutation"),
        (lambda: tiltorder.strong_lifting_witness(E3, (3, 2, 1), 3), "out of range"),
        (lambda: tiltorder.strong_lifting_witness(E3, (3, 2, 1), 0), "out of range"),
        (lambda: tiltorder.witness_a(BAD, E3), "not a permutation"),
        (lambda: tiltorder.witness_a_leq(E3, BAD), "not a permutation"),
        (lambda: tiltorder.a_lesssim((1, 1, 1), BAD, E3), "not a permutation"),
        (lambda: tiltorder.a_leq((1, 1, 1), E3, BAD), "not a permutation"),
        (lambda: tiltorder.in_tilted_interval(E3, (3, 2, 1), BAD), "not a permutation"),
        (lambda: tiltorder.covers((1, 1, 1), (1, 2, 1), 1, 3), "not a permutation"),
        (lambda: tiltorder.covers((1, 1, 1), (1, 1, 1), 1, 2), "not a permutation"),
        (lambda: tiltorder.adj_increases((1, 1, 1), E3, 0), "out of range"),
        (lambda: tiltorder.adj_increases((1, 1, 1), E3, 3), "out of range"),
        (lambda: rpolyhecke.classical_r(BAD, (3, 2, 1)), "not a permutation"),
        (lambda: qbgraph.increasing_path(BAD, E3), "not a permutation"),
        (lambda: tiltorder.a_length((1, 1, 1), BAD), "not a permutation"),
        (lambda: qbgraph.edge_weight(BAD, 1, 3), "not a permutation"),
        (lambda: tiltorder.k_tilted_leq(E3, BAD, 1), "not a permutation"),
        # the recursion checks a given tilt at its entry, not at its first node
        (lambda: rpolyhecke.rtilt_recursive(E3, W0, a=(0, 1, 1)), "tilt must lie in"),
        (lambda: tiltorder.a_step_type((1, 1, 1), BAD, 1), "not a permutation"),
        (lambda: tiltorder.a_descents((1, 1, 1), BAD), "not a permutation"),
        (lambda: tiltorder.a_descents((1, 1), E3), "tilt must lie in"),
        (lambda: tiltwords.positive_distinguished_subword(
            tiltwords.regular_tilted_reduced_word((1, 1, 1), W0), BAD), "not a permutation"),
        (lambda: tiltwords.positive_distinguished_subword(
            tiltwords.regular_tilted_reduced_word((1, 1, 1), W0), (1, 2)), "size mismatch"),
        # unchecked, the cell functions answered for a non-permutation: an
        # empty diagram, a singular "flag", a membership verdict
        (lambda: tiltorder.tilted_rothe((1, 1, 1), BAD), "not a permutation"),
        (lambda: varietylab.tilted_rothe_op((1, 1, 1), BAD), "not a permutation"),
        (lambda: varietylab.permutation_matrix(BAD), "not a permutation"),
        (lambda: varietylab.in_tilted_schubert_cell(
            varietylab.permutation_matrix(E3), BAD, (1, 1, 1)), "not a permutation"),
        (lambda: varietylab.canonical_cell_matrix((1, 1, 1), (3, 3, 1), "cell", {}),
         "not a permutation"),
        # a kind other than the two cells was read as the opposite cell, and
        # a w of the wrong size was answered for
        (lambda: varietylab.canonical_cell_matrix((1, 1, 1), (3, 2, 1), "bogus", {}),
         "or 'opposite', got 'bogus'"),
        (lambda: varietylab.in_tilted_schubert_cell(
            varietylab.permutation_matrix(E3), E3, (1, 1, 1), "Cell"),
         "or 'opposite', got 'Cell'"),
        (lambda: varietylab.in_tilted_schubert_cell(
            varietylab.permutation_matrix(E3), (2, 1), (1, 1, 1)),
         "size mismatch: w has 2 entries"),
    ],
)
def test_library_entry_points_reject_bad_input(call, message):
    # unchecked, a non-permutation never leaves the reduced-word walk, and
    # the counts and memberships answer for it; only the CLI's parse_perm
    # would have caught it
    with pytest.raises(ValueError, match=message):
        call()
