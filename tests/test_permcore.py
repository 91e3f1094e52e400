import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbruhat import qbgraph, quantumschub, varietylab
from qbruhat.permcore import (
    GATES,
    GateError,
    all_permutations,
    apply_transposition,
    bruhat_leq,
    compose,
    cyclic_interval,
    cyclic_interval_contains,
    descents,
    format_perm,
    format_subset,
    gale_leq,
    identity,
    inverse,
    length,
    long_cycle,
    longest,
    parse_perm,
    parse_subset,
    perm_from_word,
    reduced_word,
    shifted_gale_leq,
    shifted_less,
)

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


def test_subset_text():
    assert format_subset({6, 3, 4}) == "{3,4,6}"
    assert parse_subset("{3,4,6,7}") == frozenset({3, 4, 6, 7})


def test_basics():
    assert length(identity(5)) == 0
    assert length(longest(5)) == 10
    assert length((2, 3, 1, 4)) == 2
    assert descents((2, 3, 1, 4)) == {2}
    assert apply_transposition((2, 3, 1), 1, 3) == (1, 3, 2)
    assert long_cycle(4) == (2, 3, 4, 1)


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


def test_length_changes_by_one_under_simple():
    for w in all_permutations(4):
        for i in range(1, 4):
            delta = length(apply_transposition(w, i, i + 1)) - length(w)
            assert delta == (-1 if i in descents(w) else 1)


def test_cyclic_interval_cases():
    assert cyclic_interval_contains(4, 2, 4, 3)
    assert cyclic_interval(4, 3, 2) == frozenset({3, 4, 1})
    assert cyclic_interval_contains(4, 3, 2, 1)
    # degenerate conventions
    assert cyclic_interval(7, 5, 5) == frozenset()
    assert cyclic_interval(7, 5, 5, False, False) == frozenset(range(1, 8)) - {5}
    assert cyclic_interval(7, 5, 5, True, True) == frozenset({5})
    assert not cyclic_interval_contains(7, 5, 5, 5, False, False)
    with pytest.raises(ValueError):
        cyclic_interval(4, 0, 2)


def test_cyclic_interval_contains_matches_the_set():
    closures = [(True, False), (False, False), (True, True), (False, True)]
    for n in range(1, 7):
        for a, b, x in itertools.product(range(1, n + 1), repeat=3):
            for left, right in closures:
                assert cyclic_interval_contains(n, a, b, x, left, right) == (
                    x in cyclic_interval(n, a, b, left, right)
                ), (n, a, b, x, left, right)
    with pytest.raises(ValueError):
        cyclic_interval_contains(4, 0, 2, 1)
    with pytest.raises(ValueError):
        cyclic_interval_contains(4, 1, 2, 5)


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
    assert gale_leq(4, {1, 3}, {2, 4})
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
