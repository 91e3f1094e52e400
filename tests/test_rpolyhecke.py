import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbruhat.permcore import (
    all_permutations,
    bruhat_leq,
    identity,
    length,
    parse_perm,
    reduced_word,
)
from qbruhat.qbgraph import ell
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
    hecke_gen,
    hecke_gen_inverse,
    hecke_mul,
    hecke_t,
    hecke_t_inverse,
    parse_poly,
    rtilt,
    rtilt_deodhar,
    rtilt_hecke,
    rtilt_recursive,
    trace,
    trace_product,
)
from qbruhat.tiltorder import witness_a
from qbruhat.tiltwords import regular_tilted_reduced_word, word_moves

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
    assert parse_poly("q^2 - 2q + 1") == p
    assert str(ZERO) == "0" and parse_poly("0") == ZERO
    assert str(Q) == "q"
    assert str(LaurentPoly({-1: 1, 2: -3})) == "-3q^2 + q^-1"
    assert parse_poly(str(LaurentPoly({0: -7, 3: 2}))) == LaurentPoly({0: -7, 3: 2})


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
        unit = HeckeElt.unit(n)
        for i in range(1, n):
            Ti = hecke_gen(n, i)
            assert hecke_mul(Ti, hecke_gen_inverse(n, i)) == unit
            assert hecke_mul(hecke_gen_inverse(n, i), Ti) == unit
            assert hecke_mul(Ti, Ti) == Ti.scale(Q_MINUS_1) + unit.scale(Q)
        for i in range(1, n - 1):
            a, b = hecke_gen(n, i), hecke_gen(n, i + 1)
            assert a * b * a == b * a * b
        for i in range(1, n):
            for j in range(i + 2, n):
                assert hecke_gen(n, i) * hecke_gen(n, j) == hecke_gen(n, j) * hecke_gen(n, i)


def test_t_basis_well_defined():
    # T_w from any reduced word of w is the basis element
    for w in all_permutations(4):
        assert hecke_t(reduced_word(w), 4) == HeckeElt.basis(w)
        assert hecke_t_inverse(reduced_word(w), 4) * hecke_t(reduced_word(w), 4) == (
            HeckeElt.unit(4)
        )


def test_trace():
    for w in all_permutations(3):
        expected = ONE if w == identity(3) else ZERO
        assert trace(HeckeElt.basis(w)) == expected
    # invariance under conjugation by T_i on random elements
    rng = random.Random(1)
    perms = list(all_permutations(3))
    for _ in range(25):
        x = HeckeElt(3)
        for _ in range(3):
            w = rng.choice(perms)
            c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
            x = x + HeckeElt.basis(w).scale(c)
        for i in (1, 2):
            conj = hecke_gen(3, i) * x * hecke_gen_inverse(3, i)
            assert trace(conj) == trace(x), (i,)


def _random_elt(rng, n, perms):
    # a few terms, Laurent coefficients with negative exponents
    return HeckeElt(n, {
        rng.choice(perms): {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)}
        for _ in range(rng.randint(1, 4))
    })


def test_trace_product_matches_trace_of_product():
    rng = random.Random(17)
    for n in (3, 4):
        perms = list(all_permutations(n))
        for _ in range(15):
            x, y = _random_elt(rng, n, perms), _random_elt(rng, n, perms)
            assert trace_product(x, y) == trace(x * y), (x, y)
            assert trace_product(y, x) == trace(x * y), (x, y)


def _assert_normal(x):
    assert all(c and all(c.values()) for c in x.terms.values()), x.terms


def test_hecke_kernel_normal_form():
    e3 = identity(3)
    for n in (3, 4):
        for i in range(1, n):
            assert hecke_gen(n, i).mul_gen_inverse(i).terms == {identity(n): {0: 1}}
            assert hecke_gen_inverse(n, i).mul_gen(i).terms == {identity(n): {0: 1}}
    s1 = (2, 1, 3)
    # ((1 - q) T_e + T_s1) T_1 = q T_e: the T_s1 coefficient cancels to nothing
    x = HeckeElt(3, {e3: {0: 1, 1: -1}, s1: {0: 1}})
    assert x.mul_gen(1).terms == {e3: {1: 1}}
    # (-q T_e + T_s1) T_1: the q term of the T_s1 coefficient cancels
    x = HeckeElt(3, {e3: {1: -1}, s1: {0: 1}})
    assert x.mul_gen(1).terms == {e3: {1: 1}, s1: {0: -1}}
    # (T_e + (1 - q^-1) T_s1) T_1^{-1} = q^-1 T_s1: the T_e coefficient cancels
    x = HeckeElt(3, {e3: {0: 1}, s1: {0: 1, -1: -1}})
    assert x.mul_gen_inverse(1).terms == {s1: {-1: 1}}
    x = hecke_t_inverse((1, 2, 1), 3).mul_gen(2)
    assert (x + x.scale(LaurentPoly.const(-1))).terms == {}
    assert HeckeElt(3, {e3: {0: 0}, s1: {}}).terms == {}
    rng = random.Random(3)
    perms = list(all_permutations(3))
    for _ in range(20):
        y = _random_elt(rng, 3, perms)
        for i in (rng.choice((1, 2)) for _ in range(6)):
            y = y.mul_gen(i) if rng.random() < 0.5 else y.mul_gen_inverse(i)
            _assert_normal(y)


def test_hecke_str_pinned():
    x = hecke_t_inverse((1, 2, 1), 3).mul_gen(2)
    assert str(x) == (
        "(1 - 2q^-1 + q^-2)*T[123] + (-q^-1 + q^-2)*T[132]"
        " + (-q^-1 + q^-2)*T[213] + (q^-2)*T[312]"
    )
    assert str(HeckeElt(3)) == "0"


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
                elt = elt.mul_gen(i)
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


def test_three_routes_agree_s6_near_w0():
    # v within one simple reflection of w0: the longest words, the most
    # distinguished subwords
    rng = random.Random(11)
    w0 = tuple(range(6, 0, -1))
    for _ in range(10):
        i = rng.randint(0, 5)
        v = w0 if i == 0 else w0[: i - 1] + (w0[i], w0[i - 1]) + w0[i + 1:]
        u = _random_perm(rng, 6)
        d = rtilt_deodhar(u, v)
        assert d == rtilt_recursive(u, v) == rtilt_hecke(u, v), (u, v)


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
