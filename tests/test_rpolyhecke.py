import ast
import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbruhat import rpolyhecke, tiltorder
from qbruhat.permcore import (
    InternalConsistencyError,
    all_permutations,
    apply_simple,
    bruhat_leq,
    identity,
    length,
    parse_perm,
    reduced_word,
)
from qbruhat.qbgraph import ell, tilted_interval
from qbruhat.quantumschub import MultiPoly
from qbruhat.rpolyhecke import (
    ONE,
    Q,
    Q_MINUS_1,
    ZERO,
    HeckeElt,
    LaurentPoly,
    as_qpoly,
    classical_r,
    hecke_t,
    rtilt,
    rtilt_deodhar,
    rtilt_hecke,
    rtilt_recursive,
    trace_product,
)
from qbruhat.permcore import cyclic_interval
from qbruhat.tiltorder import adj_increases, witness_a
from qbruhat.tiltwords import (
    BAR,
    band_split,
    bar_band,
    flattenable,
    regular_tilted_reduced_word,
    tilted_reduced_word,
    word_moves,
)

from oracles import (
    LaurentHeckeElt,
    hecke_basis,
    hecke_gen,
    hecke_gen_inverse,
    hecke_t_by_dict,
    hecke_t_inverse,
    trace,
    trace_product_by_dict,
)

lpolys = st.dictionaries(
    st.integers(-4, 6), st.integers(-9, 9), max_size=5
).map(LaurentPoly)


# polynomials in x_1..x_3, q_1, q_2, keyed by (x-exponents, q-exponents)
mpolys = st.dictionaries(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.tuples(*[st.integers(0, 2)] * 2)),
    st.integers(-9, 9),
    max_size=4,
).map(lambda terms: MultiPoly(3, terms))


@settings(max_examples=60)
@given(st.one_of(
    st.tuples(lpolys, lpolys, lpolys, st.just((ZERO, ONE))),
    st.tuples(mpolys, mpolys, mpolys, st.just((MultiPoly(3), MultiPoly.one(3)))),
))
def test_ring_axioms(case):
    p, q, r, (zero, one) = case
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + zero == p and p * one == p
    assert p - p == zero and p - q == p + -q
    assert p ** 2 == p * p and p ** 0 == one


def test_poly_printing_and_parsing():
    p = Q_MINUS_1 ** 2
    assert str(p) == "q^2 - 2q + 1"
    assert str(ZERO) == "0"
    assert str(Q) == "q"
    assert str(LaurentPoly({-1: 1, 2: -3})) == "-3q^2 + q^-1"
    assert str(LaurentPoly({0: -7, 3: 2})) == "2q^3 - 7"


def test_poly_invariants():
    p = LaurentPoly({2: 1, 0: 0, 1: -1})
    assert 0 not in {c for c in p.terms.values()}
    assert p.degree == 2 and p.leading_coefficient() == 1
    assert p(3) == 9 - 3
    assert as_qpoly(p) == p
    with pytest.raises(Exception):
        as_qpoly(LaurentPoly({-2: 3}))
    # a polynomial equals only a polynomial of its own kind, and equal
    # polynomials hash equal
    assert ONE != 1 and 1 not in {ONE} and len({ONE, 1}) == 2
    assert hash(Q_MINUS_1) == hash(Q - ONE) and len({Q_MINUS_1, Q - ONE}) == 1
    x1 = MultiPoly.monomial(3, (1, 0, 0))
    x1q1 = MultiPoly.monomial(3, (1, 0, 0), (1, 0))
    assert hash(x1 * x1q1) == hash(x1q1 * x1) and len({x1 * x1q1, x1q1 * x1}) == 1
    assert MultiPoly(3, {((0, 0, 0), (0, 0)): 1}) != ONE


def test_hecke_relations():
    for n in (3, 4):
        unit = LaurentHeckeElt.identity_elt(n)
        for i in range(1, n):
            Ti = hecke_gen(n, i)
            assert Ti * hecke_gen_inverse(n, i) == unit
            assert hecke_gen_inverse(n, i) * Ti == unit
            assert Ti * Ti == Ti.scale(Q_MINUS_1) + unit.scale(Q)
        for i in range(1, n - 1):
            a, b = hecke_gen(n, i), hecke_gen(n, i + 1)
            assert a * b * a == b * a * b
        for i in range(1, n):
            for j in range(i + 2, n):
                assert hecke_gen(n, i) * hecke_gen(n, j) == hecke_gen(n, j) * hecke_gen(n, i)


def test_t_basis_well_defined():
    # T_w from any reduced word of w is the basis element
    for w in all_permutations(4):
        assert hecke_t_by_dict(reduced_word(w), 4) == hecke_basis(w)
        assert hecke_t_inverse(reduced_word(w), 4) * hecke_t_by_dict(reduced_word(w), 4) == (
            LaurentHeckeElt.identity_elt(4)
        )


def test_trace():
    for w in all_permutations(3):
        expected = ONE if w == identity(3) else ZERO
        assert trace(hecke_basis(w)) == expected
    # invariance under conjugation by T_i on random elements
    rng = random.Random(1)
    perms = list(all_permutations(3))
    for _ in range(25):
        x = LaurentHeckeElt(3)
        for _ in range(3):
            w = rng.choice(perms)
            c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
            x = x + hecke_basis(w).scale(c)
        for i in (1, 2):
            conj = hecke_gen(3, i) * x * hecke_gen_inverse(3, i)
            assert trace(conj) == trace(x), (i,)


def _random_elt(rng, n, perms):
    # a few terms, Laurent coefficients with negative exponents
    return LaurentHeckeElt(n, {
        rng.choice(perms): {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)}
        for _ in range(rng.randint(1, 4))
    })


def test_trace_product_matches_trace_of_product():
    rng = random.Random(17)
    for n in (3, 4):
        perms = list(all_permutations(n))
        for _ in range(15):
            x, y = _random_elt(rng, n, perms), _random_elt(rng, n, perms)
            assert trace_product_by_dict(x, y) == trace(x * y), (x, y)
            assert trace_product_by_dict(y, x) == trace(x * y), (x, y)


def _assert_normal(x):
    assert all(c and all(c.values()) for c in x.terms.values()), x.terms


def test_hecke_kernel_normal_form():
    e3 = identity(3)
    for n in (3, 4):
        for i in range(1, n):
            assert hecke_gen(n, i).times_gen_inverse(i).terms == {identity(n): {0: 1}}
            assert hecke_gen_inverse(n, i).times_gen(i).terms == {identity(n): {0: 1}}
    s1 = (2, 1, 3)
    # ((1 - q) T_e + T_s1) T_1 = q T_e: the T_s1 coefficient cancels to nothing
    x = LaurentHeckeElt(3, {e3: {0: 1, 1: -1}, s1: {0: 1}})
    assert x.times_gen(1).terms == {e3: {1: 1}}
    # (-q T_e + T_s1) T_1: the q term of the T_s1 coefficient cancels
    x = LaurentHeckeElt(3, {e3: {1: -1}, s1: {0: 1}})
    assert x.times_gen(1).terms == {e3: {1: 1}, s1: {0: -1}}
    # (T_e + (1 - q^-1) T_s1) T_1^{-1} = q^-1 T_s1: the T_e coefficient cancels
    x = LaurentHeckeElt(3, {e3: {0: 1}, s1: {0: 1, -1: -1}})
    assert x.times_gen_inverse(1).terms == {s1: {-1: 1}}
    x = hecke_t_inverse((1, 2, 1), 3).times_gen(2)
    assert (x + x.scale(LaurentPoly.const(-1))).terms == {}
    assert LaurentHeckeElt(3, {e3: {0: 0}, s1: {}}).terms == {}
    rng = random.Random(3)
    perms = list(all_permutations(3))
    for _ in range(20):
        y = _random_elt(rng, 3, perms)
        for i in (rng.choice((1, 2)) for _ in range(6)):
            y = y.times_gen(i) if rng.random() < 0.5 else y.times_gen_inverse(i)
            _assert_normal(y)


def test_hecke_str_pinned():
    x = hecke_t_inverse((1, 2, 1), 3).times_gen(2)
    assert str(x) == (
        "(1 - 2q^-1 + q^-2)*T[123] + (-q^-1 + q^-2)*T[132]"
        " + (-q^-1 + q^-2)*T[213] + (q^-2)*T[312]"
    )
    assert str(LaurentHeckeElt(3)) == "0"


def test_classical_r_base_cases():
    for w in all_permutations(3):
        assert classical_r(w, w) == ONE
    assert classical_r(identity(2), (2, 1)) == Q_MINUS_1
    assert classical_r((2, 1), identity(2)) == ZERO


def test_classical_r_trace_identity_s4():
    # R_{u,v} = (-q)^{l(v)-l(u)} eps(T_v^{-1} T_u); the sign comes with the
    # genuine generator inverse
    for u in all_permutations(4):
        for v in all_permutations(4):
            elt = hecke_t_inverse(reduced_word(v), 4)
            for i in reduced_word(u):
                elt = elt.times_gen(i)
            d = length(v) - length(u)
            got = trace(elt).shifted(d)
            if d % 2:
                got = -got
            assert got == classical_r(u, v), (u, v)


def test_rtilt_examples():
    for w in all_permutations(3):
        assert rtilt_deodhar(w, w) == ONE
        assert rtilt_recursive(w, w) == ONE
        assert rtilt_hecke(w, w) == ONE
    assert rtilt_deodhar((2, 3, 1), (1, 2, 3)) == Q_MINUS_1 ** 2
    u6, v6 = parse_perm("512346"), parse_perm("246513")
    expected = Q_MINUS_1 ** 8 + (Q * 2) * Q_MINUS_1 ** 6 + (Q * Q) * Q_MINUS_1 ** 4
    assert rtilt_deodhar(u6, v6) == expected


def test_rtilt_zero_for_incomparable_tilt():
    # an explicit tilt without u <~_a v gives zero in the recursion
    assert rtilt_recursive((2, 1, 3), (1, 3, 2), (1, 1, 1)) == ZERO


def test_three_way_agreement_s3():
    for u in all_permutations(3):
        for v in all_permutations(3):
            d = rtilt_deodhar(u, v)
            assert d == rtilt_recursive(u, v) == rtilt_hecke(u, v), (u, v)
            assert d.degree == ell(u, v)
            assert d.leading_coefficient() == 1
            if u != v:
                assert d(1) == 0
            assert rtilt(u, v, "all") == d


def test_classical_specialization_s4():
    for u in all_permutations(4):
        for v in all_permutations(4):
            if bruhat_leq(u, v):
                assert rtilt_recursive(u, v) == classical_r(u, v), (u, v)


def test_deodhar_word_independence():
    # randomized braid/bar moves leave the Deodhar sum unchanged
    rng = random.Random(5)
    perms = list(all_permutations(4))
    for _ in range(15):
        u, v = rng.choice(perms), rng.choice(perms)
        a = witness_a(u, v)
        word = regular_tilted_reduced_word(a, v)
        base = rtilt_deodhar(u, v, a=a, word=word)
        for _ in range(6):
            nbrs = list(word_moves(word))
            if not nbrs:
                break
            word = rng.choice(nbrs)
            assert rtilt_deodhar(u, v, a=a, word=word) == base, (u, v)


def test_rtilt_dispatch_errors():
    with pytest.raises(ValueError):
        rtilt((1, 2), (2, 1), "nope")


def test_deodhar_dp_matches_explicit_enumeration():
    # the DP and the explicit subword enumeration are independent paths
    from qbruhat.tiltwords import distinguished_subwords

    rng = random.Random(21)
    perms = list(all_permutations(4))
    for _ in range(20):
        u, v = rng.choice(perms), rng.choice(perms)
        a = witness_a(u, v)
        word = regular_tilted_reduced_word(a, v)
        total = ZERO
        for s in distinguished_subwords(word, u):
            total = total + Q_MINUS_1 ** len(s.jcirc) * Q ** len(s.jminus)
        assert total == rtilt_deodhar(u, v, a=a, word=word), (u, v)


def _random_perm(rng, n):
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def test_deodhar_matches_recursion_all_s4_pairs():
    perms = list(all_permutations(4))
    for u in perms:
        for v in perms:
            assert rtilt_deodhar(u, v) == rtilt_recursive(u, v) == rtilt_hecke(u, v), (u, v)


def test_deodhar_matches_recursion_s7_sample():
    rng = random.Random(7)
    for _ in range(30):
        u, v = _random_perm(rng, 7), _random_perm(rng, 7)
        assert rtilt_deodhar(u, v) == rtilt_recursive(u, v), (u, v)


def _near_w0_pair(rng, n):
    # v within one simple reflection of w0: the longest words, the most
    # distinguished subwords
    w0 = tuple(range(n, 0, -1))
    i = rng.randint(0, n - 1)
    v = w0 if i == 0 else w0[: i - 1] + (w0[i], w0[i - 1]) + w0[i + 1:]
    return _random_perm(rng, n), v


def test_three_routes_agree_s6_near_w0():
    rng = random.Random(11)
    for _ in range(10):
        u, v = _near_w0_pair(rng, 6)
        d = rtilt_deodhar(u, v)
        assert d == rtilt_recursive(u, v) == rtilt_hecke(u, v), (u, v)


def _decoded_at_targets(x, targets, m):
    # the packed coefficients of a product scaled by q^m, decoded and scaled
    # back, as exponent maps like the dict oracle's
    return {
        t: rpolyhecke._decode_pairing(x.terms[t], x.bits).shifted(-m).terms
        if t in x.terms else None
        for t in targets
    }


def _packed_t_inverse(gens, n, bits):
    # q^m (T_w)^{-1} on packed coefficients, with no term dropped
    out = HeckeElt(n, bits, {identity(n): 1})
    for i in reversed(gens):
        out = out.mul_gen_inverse(i)
    return out


def _route_words(u, v):
    a = witness_a(u, v)
    return (rpolyhecke._gens_of(tilted_reduced_word(a, u)),
            rpolyhecke._gens_of(tilted_reduced_word(a, v)))


def test_every_split_point_gives_the_same_trace():
    # eps(T_v^{-1} T_u) = eps((T_u A) B) for every split q^m T_v^{-1} = A B:
    # A the factors of gens_v[m-1], ..., gens_v[j], B those of
    # gens_v[j-1], ..., gens_v[0], for j = m, ..., 0, against the dict oracle
    rng = random.Random(49)
    pairs = [(u, v) for n in range(1, 5) for u in all_permutations(n)
             for v in all_permutations(n)]
    pairs += [(_random_perm(rng, 5), _random_perm(rng, 5)) for _ in range(40)]
    for u, v in pairs:
        n = len(u)
        gens_u, gens_v = _route_words(u, v)
        m = len(gens_v)
        want = trace_product_by_dict(hecke_t_inverse(gens_v, n), hecke_t_by_dict(gens_u, n))
        bits = rpolyhecke._trace_bits(len(gens_u), m)
        x = hecke_t(gens_u, n, bits)
        for j in range(m, -1, -1):
            if j < m:
                x = x.mul_gen_inverse(gens_v[j])
            y = _packed_t_inverse(gens_v[:j], n, bits)
            assert trace_product(x, y).shifted(-m) == want, (u, v, j)


def test_inverse_factors_from_the_unit_hold_at_most_two_to_the_r_terms():
    # the size the split is chosen by: q T_i^{-1} sends T_x into the span of
    # T_x and T_{x s_i}, so r factors built from the unit hold <= 2^r terms
    rng = random.Random(52)
    for _ in range(200):
        n = rng.randint(2, 6)
        y = HeckeElt(n, 64, {identity(n): 1})
        for r in range(1, rng.randint(1, 14)):
            y = y.mul_gen_inverse(rng.randint(1, n - 1))
            assert len(y.terms) <= 2 ** r, (n, r)


def test_split_halves_stay_within_the_digit_bound():
    # _trace_bits' proof for the two halves: |T_u A| <= 3^(m_u + m_A) and
    # |B| <= 3^(m_B) at every split point, |.| the sum of the absolute values
    # of all coefficients, read at a digit width far above the bound
    def size(x):
        return sum(abs(c) for packed in x.terms.values()
                   for c in rpolyhecke._decode_pairing(packed, x.bits).terms.values())

    rng = random.Random(53)
    pairs = [(u, v) for u in all_permutations(4) for v in all_permutations(4)]
    pairs += [(_random_perm(rng, 5), _random_perm(rng, 5)) for _ in range(40)]
    for u, v in pairs:
        gens_u, gens_v = _route_words(u, v)
        m_u, m = len(gens_u), len(gens_v)
        x = hecke_t(gens_u, len(u), 64)
        for j in range(m, -1, -1):
            if j < m:
                x = x.mul_gen_inverse(gens_v[j])
            assert size(x) <= 3 ** (m_u + m - j), (u, v, j)
            assert size(_packed_t_inverse(gens_v[:j], len(u), 64)) <= 3 ** j, (u, v, j)


def test_split_route_sends_few_terms_through_the_inverse_steps(monkeypatch):
    # a split that built all of T_v^{-1} would pass every agreement test
    terms_in = [0]
    mul_gen_inverse = HeckeElt.mul_gen_inverse

    def counting(self, i):
        terms_in[0] += len(self.terms)
        return mul_gen_inverse(self, i)

    monkeypatch.setattr(HeckeElt, "mul_gen_inverse", counting)
    rng = random.Random(23)
    split = full = 0
    for _ in range(10):
        u, v = _near_w0_pair(rng, 6)
        terms_in[0] = 0
        rtilt_hecke(u, v)
        split += terms_in[0]
        terms_in[0] = 0
        _packed_t_inverse(_route_words(u, v)[1], 6, 64)
        full += terms_in[0]
    assert 0 < split * 10 <= full, (split, full)


def test_dropping_the_factor_at_the_split_point_is_caught(monkeypatch):
    # B is built from the unit, and for u != e only B's first step sees the
    # unit with coefficient 1: skipping that step drops the factor at the
    # split point, and the three-route check must catch it wherever B has one
    dropped = [False]
    mul_gen_inverse = HeckeElt.mul_gen_inverse

    def faulty(self, i):
        if not dropped[0] and self.terms == {identity(self.n): 1}:
            dropped[0] = True
            return self
        return mul_gen_inverse(self, i)

    monkeypatch.setattr(HeckeElt, "mul_gen_inverse", faulty)
    rng = random.Random(50)
    pairs = [(u, v) for u in all_permutations(4) for v in all_permutations(4)]
    pairs += [(_random_perm(rng, 5), _random_perm(rng, 5)) for _ in range(100)]
    caught = 0
    for u, v in pairs:
        if u == identity(len(u)):
            continue
        dropped[0] = False
        try:
            rtilt(u, v, "all")
        except InternalConsistencyError:
            caught += 1
            continue
        assert not dropped[0], (u, v)
    assert caught >= 500, caught


def test_hecke_matches_deodhar_on_s8_pairs():
    # the trace route at n = 8: uniform pairs and pairs near w0
    rng = random.Random(51)
    pairs = [(_random_perm(rng, 8), _random_perm(rng, 8)) for _ in range(10)]
    pairs += [_near_w0_pair(rng, 8) for _ in range(10)]
    for u, v in pairs:
        assert rtilt_hecke(u, v) == rtilt_deodhar(u, v), (u, v)


# ---------------------------------------------------------------------------
# the trace route on packed coefficients


def _oracle_cases():
    # every S_1-S_4 pair, 200 seeded S_5 pairs, near-w0 S_6 and S_7 pairs
    for n in range(1, 5):
        perms = list(all_permutations(n))
        yield from ((u, v) for u in perms for v in perms)
    rng = random.Random(43)
    yield from ((_random_perm(rng, 5), _random_perm(rng, 5)) for _ in range(200))
    yield from (_near_w0_pair(rng, 6) for _ in range(6))
    yield from (_near_w0_pair(rng, 7) for _ in range(2))


def test_packed_hecke_matches_the_dict_oracle():
    # T_u, the full q^m (T_v)^{-1} and their trace, packed and decoded,
    # against the Laurent-coefficient algebra of the tests; the route's
    # answer against the oracle's and the Deodhar DP's
    for u, v in _oracle_cases():
        n = len(u)
        gens_u, gens_v = _route_words(u, v)
        m_v = len(gens_v)
        bits = rpolyhecke._trace_bits(len(gens_u), m_v)
        tu, tu_dict = hecke_t(gens_u, n, bits), hecke_t_by_dict(gens_u, n)
        assert set(tu.terms) == set(tu_dict.terms), (u, v)
        assert _decoded_at_targets(tu, tu.terms, 0) == tu_dict.terms, (u, v)
        tv, tv_dict = _packed_t_inverse(gens_v, n, bits), hecke_t_inverse(gens_v, n)
        assert set(tv.terms) == set(tv_dict.terms), (u, v)
        assert _decoded_at_targets(tv, tv.terms, m_v) == tv_dict.terms, (u, v)
        pairing = trace_product_by_dict(tv_dict, tu_dict)
        assert trace_product(tv, tu).shifted(-m_v) == pairing, (u, v)
        dist = tiltorder.a_length(witness_a(u, v), v) - tiltorder.a_length(witness_a(u, v), u)
        want = pairing.shifted(dist) * (-1) ** dist
        assert rtilt_hecke(u, v) == want == rtilt_deodhar(u, v), (u, v)


def test_packed_steps_match_the_dict_steps_on_random_elements():
    # arbitrary supports, where a term's partner under s_i may be missing (a
    # product built from the unit keeps its support closed downward, so the
    # route's own products never leave a lower term out)
    rng = random.Random(48)
    for n in (3, 4):
        perms = list(all_permutations(n))
        for _ in range(40):
            x = _random_elt(rng, n, perms)
            shift, bits = 3, 40  # q^3 x has no negative exponent
            y = HeckeElt(n, bits, {
                w: sum(k << (bits * (e + shift)) for e, k in c.items()) for w, c in x.terms.items()
            })
            for _ in range(6):
                i = rng.randint(1, n - 1)
                if rng.random() < 0.5:
                    x, y = x.times_gen(i), y.mul_gen(i)
                else:  # the packed step is scaled by q
                    x, y, shift = x.times_gen_inverse(i), y.mul_gen_inverse(i), shift + 1
                assert _decoded_at_targets(y, y.terms, shift) == x.terms, (x, i)


def test_a_digit_width_below_the_bound_is_caught(monkeypatch):
    # B = floor((m_u + m_v)/2) + 1 is too narrow for the pairing's digits:
    # the trace route then answers wrong on some S_4 pairs, which the other
    # two routes catch, and the decode refuses the pairs where B < 2
    monkeypatch.setattr(rpolyhecke, "_trace_bits", lambda m_u, m_v: (m_u + m_v) // 2 + 1)
    perms = list(all_permutations(4))
    wrong = caught = refused = 0
    for u in perms:
        for v in perms:
            try:
                wrong += rtilt_hecke(u, v) != rtilt_deodhar(u, v)
            except ValueError:
                pass
            try:
                rtilt(u, v, "all")
            except InternalConsistencyError:
                caught += 1
            except ValueError as e:
                assert "at least 2" in str(e)
                refused += 1
    assert wrong and caught == wrong and refused, (wrong, caught, refused)


def _refuses_one_bit_digits(decode):
    # with one bit every digit is -1 or 0, so a positive packed value never
    # shrinks and the decode would loop for ever, its digit dict growing: run
    # it in a child process with a deadline and a capped address space, so
    # that a missing guard fails here instead of hanging or filling memory
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from qbruhat import rpolyhecke\n"
        "for packed in (1, 5, 0):\n"
        "    try:\n"
        f"        rpolyhecke.{decode}(packed, 1)\n"
        "    except ValueError as e:\n"
        "        assert 'at least 2' in str(e)\n"
        "    else:\n"
        f"        raise SystemExit(f'{decode}({{packed}}, 1) returned')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{decode}(packed, 1) did not return")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    with pytest.raises(ValueError, match="at least 2"):
        getattr(rpolyhecke, decode)(0, 0)


def test_decode_pairing_refuses_one_bit_digits():
    _refuses_one_bit_digits("_decode_pairing")


def test_decode_pairing_reads_signed_digits():
    # the trace route's own decode against packed coefficient lists at the
    # ends of the digit range
    rng = random.Random(46)
    for bits in (2, 3, 8, 30, 66):
        top = (1 << (bits - 1)) - 1
        for _ in range(40):
            coeffs = [rng.choice((top, -top, -top - 1, 0, 1, -1, rng.randint(-top, top)))
                      for _ in range(rng.randint(1, 9))]
            packed = sum(c << (bits * e) for e, c in enumerate(coeffs))
            want = LaurentPoly(dict(enumerate(coeffs)))
            assert rpolyhecke._decode_pairing(packed, bits) == want, (bits, coeffs)


def test_the_traced_hecke_names_run_in_the_three_route_check(monkeypatch):
    # the benchmark's tracer wraps HeckeElt.mul_gen, HeckeElt.mul_gen_inverse
    # and rtilt_hecke by name and counts the terms entering the steps; a
    # change that stops calling them would leave those metrics at zero
    calls, terms = Counter(), Counter()

    def counted(name, fn, elt=True):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if elt:
                terms[name] += len(args[0].terms)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("mul_gen", "mul_gen_inverse"):
        monkeypatch.setattr(HeckeElt, name, counted(name, getattr(HeckeElt, name)))
    monkeypatch.setattr(rpolyhecke, "rtilt_hecke", counted("rtilt_hecke", rtilt_hecke, False))
    rng = random.Random(44)
    for _ in range(4):
        u, v = _random_perm(rng, 5), _random_perm(rng, 5)
        assert rtilt(u, v, "all") == rtilt_deodhar(u, v)
    assert set(calls) == {"mul_gen", "mul_gen_inverse", "rtilt_hecke"}, calls
    assert calls["rtilt_hecke"] == 4 and terms["mul_gen"] and terms["mul_gen_inverse"]


# the three R-polynomial routes, by the functions that make each one up
ROUTES = {
    "hecke": {"rtilt_hecke", "hecke_t", "trace_product", "_right_swap", "_trace_bits",
              "_decode_pairing"},
    "deodhar": {"rtilt_deodhar", "_demazure_caps", "_unpack"},
    "recursion": {"rtilt_recursive", "_rtilt_rec"},
}


def _rpolyhecke_tree():
    return ast.parse(Path(rpolyhecke.__file__).read_text())


def test_routes_name_nothing_of_each_other():
    # each route is an independent check on the other two only while it
    # shares none of their code
    defs = {node.name: node for node in _rpolyhecke_tree().body
            if isinstance(node, ast.FunctionDef)}
    assert set().union(*ROUTES.values()) <= set(defs)
    for route, names in ROUTES.items():
        others = set().union(*(v for k, v in ROUTES.items() if k != route))
        for name in names:
            used = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
            used |= {n.attr for n in ast.walk(defs[name]) if isinstance(n, ast.Attribute)}
            assert used & others == set(), (route, name, used & others)


def test_recursion_reads_the_tilted_order_from_tiltorder():
    # rpolyhecke keeps no copy of the <~_a or tilted-descent test: the
    # recursion calls tiltorder's kernels, and nothing in the module reads
    # the lattice rows or shifted keys such a copy would need
    tree = _rpolyhecke_tree()
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "tiltorder"
                for alias in node.names}
    assert {"lesssim", "descends"} <= imported
    rec = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_rtilt_rec")
    assert {"lesssim", "descends"} <= {n.id for n in ast.walk(rec) if isinstance(n, ast.Name)}
    own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    tilt = ast.parse(Path(tiltorder.__file__).read_text())
    assert own & {node.name for node in tilt.body if isinstance(node, ast.FunctionDef)} == set()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    read |= {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names}
    assert read & {"lattice_rows", "_levels", "shifted_key", "shifted_less", "qbgraph"} == set()


def test_deodhar_zero_for_incomparable_tilt():
    # an explicit tilt without u <~_a v: no distinguished subword ends at u
    assert rtilt_deodhar((2, 1, 3), (1, 3, 2), (1, 1, 1)) == ZERO


def test_rtilt_all_output_pinned():
    # str(rtilt(u, v, "all")) over every S_4 pair and 30 seeded S_5/S_6 pairs,
    # pinned before LaurentPoly became a Poly
    perms = list(all_permutations(4))
    rng = random.Random(12)
    pairs = [(u, v) for u in perms for v in perms]
    pairs += [(_random_perm(rng, n), _random_perm(rng, n)) for n in (5, 6) for _ in range(15)]
    text = "\n".join(str(rtilt(u, v, "all")) for u, v in pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "65809825b6e9e2510f0dec628723668a261a4519d0fc993405a66e7ffd12fdae"
    )


def test_recursion_output_pinned_cold_and_warm():
    # str(rtilt_recursive(u, v)) over every S_4 pair and 40 seeded S_5/S_6
    # pairs, pinned before the recursion formed q A + (q-1) B in one pass;
    # a second pass reads every node from the memo, so a node that changed a
    # polynomial held there shows as a second digest
    perms = list(all_permutations(4))
    rng = random.Random(41)
    pairs = [(u, v) for u in perms for v in perms]
    pairs += [(_random_perm(rng, n), _random_perm(rng, n)) for n in (5, 6) for _ in range(20)]
    rpolyhecke._REC_MEMO.clear()
    try:
        for _ in range(2):
            text = "\n".join(str(rtilt_recursive(u, v)) for u, v in pairs)
            assert hashlib.sha256(text.encode()).hexdigest() == (
                "19bfacfb1142d2e627f694500372c38f667e33d9f0793a18fe964185351df568"
            )
    finally:
        rpolyhecke._REC_MEMO.clear()


def test_routes_are_looked_up_at_call_time(monkeypatch):
    u, v = parse_perm("231"), parse_perm("123")
    routes = rpolyhecke.rtilt_routes(u, v)
    assert list(routes) == ["deodhar", "recursive", "hecke"]
    assert set(routes.values()) == {rtilt(u, v, "all")}
    # a rebound route (as a tracer wraps it) is the one that runs
    monkeypatch.setattr(rpolyhecke, "rtilt_hecke", lambda u, v: ONE)
    assert rpolyhecke.rtilt_routes(u, v)["hecke"] == ONE
    with pytest.raises(InternalConsistencyError, match="tilted R-polynomial routes disagree: "):
        rtilt(u, v, "all")


# ---------------------------------------------------------------------------
# the Deodhar DP on packed weights


def test_unpack_reads_signed_digits_up_to_the_bound():
    # coefficients at the ends of the digit range [-2^(B-1), 2^(B-1)), with
    # zero digits between nonzero ones and at the low end
    rng = random.Random(31)
    for bits in (2, 4, 5, 8, 18, 30, 66):
        top = (1 << (bits - 1)) - 1
        cases = [[top], [-top], [top, 0, -top], [-top, 0, 0, top], [0, 0, top, -top],
                 [-top - 1, top], [top, -top - 1, 0, 1], [-1, 0, -1]]
        for _ in range(30):
            picks = (top, -top, -top - 1, 0, 0, 1, -1, rng.randint(-top, top))
            cases.append([rng.choice(picks) for _ in range(rng.randint(1, 9))])
        for coeffs in cases:
            packed = sum(c << (bits * e) for e, c in enumerate(coeffs))
            want = LaurentPoly(dict(enumerate(coeffs)))
            assert rpolyhecke._unpack(packed, bits) == want, (bits, coeffs)
        assert rpolyhecke._unpack(0, bits) == ZERO


def test_unpack_refuses_one_bit_digits():
    _refuses_one_bit_digits("_unpack")


def _near_w0(n):
    w0 = tuple(range(n, 0, -1))
    return [w0] + [w0[:i] + (w0[i + 1], w0[i]) + w0[i + 2:] for i in range(n - 1)]


def test_deodhar_matches_recursion_at_and_near_w0():
    rng = random.Random(32)
    for n, spots in ((7, 7), (8, 2)):
        e, tops = identity(n), _near_w0(n)
        pairs = [(e, tops[0]), (tops[0], e)]
        pairs += [(e, v) for v in rng.sample(tops[1:], spots - 1)]
        pairs += [(_random_perm(rng, n), rng.choice(tops)) for _ in range(spots)]
        for u, v in pairs:
            assert rtilt_deodhar(u, v) == rtilt_recursive(u, v), (u, v)
    # the longest word at n = 9, above the graph gate (no gate bounds rpoly):
    # the recursion takes nearly all of its time
    e, w0 = identity(9), tuple(range(9, 0, -1))
    assert rtilt_deodhar(e, w0) == rtilt_recursive(e, w0)


def test_deodhar_matches_recursion_seeded_n5_to_n8():
    rng = random.Random(33)
    for n, count in ((5, 80), (6, 40), (7, 25), (8, 10)):
        for _ in range(count):
            u, v = _random_perm(rng, n), _random_perm(rng, n)
            assert rtilt_deodhar(u, v) == rtilt_recursive(u, v), (u, v)


# ---------------------------------------------------------------------------
# the Demazure bound of the Deodhar DP


def _deodhar_unpruned(u, v, a, word):
    # the DP without the Demazure bound: every prefix that can still end at
    # u is held, whether or not it can reach the identity
    n = len(u)
    seqs = rpolyhecke.tilt_sequence(word)
    factors = word.factors
    bits = 2 * len(rpolyhecke._gens_of(word)) + 2
    layer = {u: 1}
    for pos in range(len(factors) - 1, -1, -1):
        f = factors[pos]
        if f is BAR:
            jm, low = bar_band(seqs[pos + 1])
            layer = {w: c for w, c in layer.items() if band_split(w, jm, low) is not None}
            continue
        t, i = seqs[pos + 1][f - 1], f - 1
        prev = {}
        for x, c in layer.items():
            sw = list(x)
            sw[i], sw[f] = x[f], x[i]
            p = tuple(sw)
            if 0 < (t - x[i]) % n <= (x[f] - x[i]) % n:
                prev[p] = prev.get(p, 0) + c
            else:
                prev[x] = prev.get(x, 0) + (c << bits) - c
                prev[p] = prev.get(p, 0) + (c << bits)
        layer = prev
    return rpolyhecke._unpack(layer.get(identity(n), 0), bits)


def _bound_cases():
    # every S_4 pair under its witness tilt; the tilts and braid/bar-moved
    # words of test_deodhar_word_independence; a seeded slice of the S_5
    # pairs; seeded pairs at n = 5..8; e <-> w0 at n = 8
    perms = list(all_permutations(4))
    for u in perms:
        for v in perms:
            a = witness_a(u, v)
            yield u, v, a, regular_tilted_reduced_word(a, v)
    rng = random.Random(5)
    for _ in range(15):
        u, v = rng.choice(perms), rng.choice(perms)
        a = witness_a(u, v)
        word = regular_tilted_reduced_word(a, v)
        yield u, v, a, word
        for _ in range(6):
            nbrs = list(word_moves(word))
            if not nbrs:
                break
            word = rng.choice(nbrs)
            yield u, v, a, word
    perms = list(all_permutations(5))
    for u, v in random.Random(38).sample([(u, v) for u in perms for v in perms], 720):
        a = witness_a(u, v)
        yield u, v, a, regular_tilted_reduced_word(a, v)
    rng = random.Random(37)
    for n, count in ((5, 60), (6, 30), (7, 15), (8, 6)):
        for _ in range(count):
            u, v = _random_perm(rng, n), _random_perm(rng, n)
            a = witness_a(u, v)
            yield u, v, a, regular_tilted_reduced_word(a, v)
    e, w0 = identity(8), tuple(range(8, 0, -1))
    for u, v in ((e, w0), (w0, e)):
        a = witness_a(u, v)
        yield u, v, a, regular_tilted_reduced_word(a, v)


def test_demazure_bound_drops_only_what_cannot_reach_the_identity():
    for u, v, a, word in _bound_cases():
        want = _deodhar_unpruned(u, v, a, word)
        assert rtilt_deodhar(u, v, a=a, word=word) == want, (u, v, word.factors)


def _subword_product_caps(n, factors):
    # the caps from their definition: the products of every subword of the
    # generators left of each position, and the largest sum of their first
    # f entries, reached at their Bruhat-largest element
    prods, caps = {identity(n)}, []
    for f in factors:
        if f is BAR:
            caps.append(0)
            continue
        caps.append(max(sum(x[:f]) for x in prods))
        prods |= {apply_simple(x, f) for x in prods}
    return caps


def test_demazure_caps_match_the_subword_products():
    # every word of length <= 6 over the generators of S_4, then the tilted
    # words (bars included) of seeded S_6 pairs
    cases = [(4, w) for k in range(7) for w in itertools.product((1, 2, 3), repeat=k)]
    rng = random.Random(39)
    for _ in range(20):
        u, v = _random_perm(rng, 6), _random_perm(rng, 6)
        cases.append((6, regular_tilted_reduced_word(witness_a(u, v), v).factors))
    for n, factors in cases:
        assert rpolyhecke._demazure_caps(n, factors) == _subword_product_caps(n, factors), factors


@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_cap_one_too_tight_is_caught(monkeypatch, level):
    # the recursion and the Hecke route share none of the bound, so a cap
    # set one too low at any level shows as a disagreement on some S_4 pair
    demazure_caps = rpolyhecke._demazure_caps

    def tight(n, factors):
        return [c - (f == level) for c, f in zip(demazure_caps(n, factors), factors)]

    monkeypatch.setattr(rpolyhecke, "_demazure_caps", tight)
    perms = list(all_permutations(4))
    caught = [(u, v) for u in perms for v in perms if rtilt_deodhar(u, v) != rtilt_recursive(u, v)]
    assert caught
    u, v = caught[0]
    with pytest.raises(InternalConsistencyError):
        rtilt(u, v, "all")


def _flattenable_oracle(a, w):
    # the split read entry by entry, with the band built from the definition
    n = len(w)
    jm = min([j for j in range(1, n) if a[j - 1] != a[j]] + ([n] if a[-1] != 1 else []))
    low = cyclic_interval(n, a[0], a[jm] if jm < n else 1)
    p = sum(1 for i in range(jm) if w[i] in low)
    return p if all((w[i] in low) == (i < p) for i in range(jm)) else None


def _band_cases():
    # S_5: every first jump jm, every a_1 and every value past the jump,
    # against every permutation; then seeded S_6/S_7 tilts and permutations
    rng = random.Random(34)
    perms = list(all_permutations(5))
    for jm in range(1, 6):
        for a1 in range(1, 6):
            for past in range(1, 6) if jm < 5 else (1,):
                if past != a1:
                    rest = tuple(rng.randint(1, 5) for _ in range(4 - jm))
                    yield (a1,) * jm + (past,)[: 5 - jm] + rest, perms
    for n in (6, 7):
        for _ in range(150):
            a = tuple(rng.randint(1, n) for _ in range(n))
            if a != (1,) * n:
                yield a, [_random_perm(rng, n) for _ in range(8)]


def test_hoisted_bar_band_matches_flattenable():
    for a, perms in _band_cases():
        jm, low = bar_band(a)  # once per tilt, as at a bar of the DP
        for w in perms:
            want = _flattenable_oracle(a, w)
            assert band_split(w, jm, low) == flattenable(a, w) == want, (a, w)


def test_modular_ascent_test_matches_adj_increases():
    # the DP's x <_a x s_f: unless 0 < (t - x_f) mod n <= (x_{f+1} - x_f) mod n
    def ascends(t, x, f, n):
        return not 0 < (t - x[f - 1]) % n <= (x[f] - x[f - 1]) % n

    rng = random.Random(35)
    cases = [(5, x) for x in all_permutations(5)]
    cases += [(n, _random_perm(rng, n)) for n in (6, 7) for _ in range(60)]
    for n, x in cases:
        for f in range(1, n):
            for t in range(1, n + 1):
                a = tuple(rng.randint(1, n) for _ in range(f - 1)) + (t,) * (n - f + 1)
                assert ascends(t, x, f, n) == adj_increases(a, x, f), (a, x, f)


def test_deodhar_reads_each_bar_band_once(monkeypatch):
    # the band is a property of the bar's position, not of the states there
    calls = []

    def counting(a):
        calls.append(a)
        return bar_band(a)

    monkeypatch.setattr(rpolyhecke, "bar_band", counting)
    rng = random.Random(36)
    for _ in range(10):
        u, v = _random_perm(rng, 6), _random_perm(rng, 6)
        word = regular_tilted_reduced_word(witness_a(u, v), v)
        calls.clear()
        assert rtilt_deodhar(u, v, word=word) == rtilt_recursive(u, v)
        assert len(calls) == word.factors.count(BAR), (u, v)


def _demazure_product(n, gens):
    # one right step per generator: D s_f when that is longer, D otherwise
    d = identity(n)
    for f in gens:
        ds = apply_simple(d, f)
        if length(ds) > length(d):
            d = ds
    return d


def test_deodhar_states_at_each_bar_lie_under_the_demazure_bound(monkeypatch):
    # the DP tests level f, sum(x[:f]), of each state it forms across s_f
    # against the Demazure product of the generators left of that s_f.  No
    # step between a bar and the nearest s_f right of it changes level f of
    # a state or of that product, so each state a bar reads is bounded at
    # every such level by the Demazure product D of the generators left of
    # the bar.  The other levels are never tested, so they are not checked.
    bars = []

    def reading_bar_band(a):
        bars.append([])  # bars arrive right to left, one call each
        return bar_band(a)

    def reading_band_split(w, jm, low):
        bars[-1].append(w)
        return band_split(w, jm, low)

    monkeypatch.setattr(rpolyhecke, "bar_band", reading_bar_band)
    monkeypatch.setattr(rpolyhecke, "band_split", reading_band_split)
    rng = random.Random(40)
    checked = 0
    for n, count in [(4, 60), (5, 60), (6, 40), (7, 20)]:
        for _ in range(count):
            u, v = _random_perm(rng, n), _random_perm(rng, n)
            word = regular_tilted_reduced_word(witness_a(u, v), v)
            factors = word.factors
            bars.clear()
            rtilt_deodhar(u, v, word=word)
            positions = [p for p, f in enumerate(factors) if f is BAR][::-1]
            assert len(bars) == len(positions), (u, v)
            for p, states in zip(positions, bars):
                d = _demazure_product(n, [f for f in factors[:p] if f is not BAR])
                right = {f for f in factors[p + 1:] if f is not BAR}
                for x in states:
                    for f in right:
                        assert sum(x[:f]) <= sum(d[:f]), (u, v, p, x, f)
                        checked += 1
    assert checked


def test_recursion_past_its_budget_is_a_fault(monkeypatch):
    # each step of the recursion shortens the tilted word of v by one, so
    # l^word_a(v) + 1 calls bound its depth; a recursion that outruns the
    # bound must raise, not loop
    monkeypatch.setattr(rpolyhecke, "_REC_MEMO", {})
    monkeypatch.setattr(rpolyhecke, "word_length", lambda a, w: 0)
    with pytest.raises(InternalConsistencyError, match="failed to terminate"):
        rtilt_recursive((1, 2, 3), (3, 2, 1))


def test_full_recursion_memo_starts_over(monkeypatch):
    # a memo filled to its bound by unrelated keys is cleared, not frozen:
    # e -> w0 at n = 6 then makes exactly the calls of a cold recursion
    real = rpolyhecke._rtilt_rec
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rpolyhecke, "_rtilt_rec", counted)
    e, w0 = tuple(range(1, 7)), tuple(range(6, 0, -1))
    monkeypatch.setattr(rpolyhecke, "_REC_MEMO", {})
    cold = rtilt_recursive(e, w0)
    cold_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(rpolyhecke, "_REC_MEMO", dict.fromkeys(range(1 << 18), ZERO))
    assert rtilt_recursive(e, w0) == cold
    assert len(calls) == cold_calls
    assert len(rpolyhecke._REC_MEMO) < 1 << 18


def test_tilted_r_polynomials_invert_over_the_interval():
    # sum over x in [u,v] of (-1)^{rank x} R~_{u,x} R~_{x,v} = delta_{u,v}:
    # ties the Deodhar route to the interval's members and rank function
    memo = {}

    def r(u, v):
        if (u, v) not in memo:
            memo[u, v] = rtilt(u, v)
        return memo[u, v]

    pairs = 0
    for n in (3, 4):
        perms = list(all_permutations(n))
        for u, v in itertools.product(perms, repeat=2):
            iv = tilted_interval(u, v)
            total = ZERO
            for x in iv.members:
                term = r(u, x) * r(x, v)
                total = total - term if iv.rank[x] % 2 else total + term
            assert total == (ONE if u == v else ZERO), (u, v, str(total))
            pairs += 1
    assert pairs == 612
