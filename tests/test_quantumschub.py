import hashlib
import random

import pytest

from qbruhat.permcore import (
    all_permutations,
    apply_simple,
    bruhat_leq,
    identity,
    length,
    longest,
)
from qbruhat.qbgraph import deg_zero, ell, min_degree
from qbruhat.quantumschub import (
    MultiPoly,
    check_descent_cycling,
    classical_monk,
    cohomology_class_T,
    divided_difference,
    gw_min_degree,
    path_schubert,
    quantum_chevalley,
    revlex_leading,
    schubert_expand,
    schubert_poly,
)
from qbruhat.tiltorder import interval_s_invariant


def mono(n, xe):
    return MultiPoly.monomial(n, xe)


def test_schubert_polys_s3():
    assert schubert_poly((1, 2, 3)) == MultiPoly.one(3)
    assert schubert_poly((2, 1, 3)) == mono(3, (1, 0, 0))
    assert schubert_poly((1, 3, 2)) == mono(3, (1, 0, 0)) + mono(3, (0, 1, 0))
    assert schubert_poly((2, 3, 1)) == mono(3, (1, 1, 0))
    assert schubert_poly((3, 1, 2)) == mono(3, (2, 0, 0))
    assert schubert_poly((3, 2, 1)) == mono(3, (2, 1, 0))
    assert schubert_poly(longest(4)) == mono(4, (3, 2, 1, 0))


def test_divided_difference_sweep():
    for w in all_permutations(4):
        for i in (1, 2, 3):
            ws = apply_simple(w, i)
            dd = divided_difference(i, schubert_poly(w))
            if length(ws) < length(w):
                assert dd == schubert_poly(ws)
            else:
                assert not dd
    with pytest.raises(ValueError):
        divided_difference(4, schubert_poly(identity(4)))


def test_quantum_chevalley():
    assert quantum_chevalley(1, (2, 1)) == {((1, 2), (1,)): 1}
    assert quantum_chevalley(1, (2, 3, 1)) == {((3, 2, 1), (0, 0)): 1}
    for w in all_permutations(4):
        for k in (1, 2, 3):
            q0 = {
                t: c
                for (t, d), c in quantum_chevalley(k, w).items()
                if not any(d)
            }
            assert q0 == classical_monk(k, w), (w, k)


def test_path_schubert_specializations():
    for u in all_permutations(3):
        assert path_schubert(u, u) == mono(3, (2, 1, 0))
        assert path_schubert(u, longest(3)) == schubert_poly(u)


def test_path_schubert_leading_and_minimal_weight():
    for u in all_permutations(3):
        for v in all_permutations(3):
            P = path_schubert(u, v)
            d = min_degree(u, v)
            qe, xe, c = revlex_leading(P)
            assert c == 1 and qe == d, (u, v)
            weights = P.q_weights()
            assert d in weights
            assert all(all(x >= y for x, y in zip(wt, d)) for wt in weights)


def test_path_schubert_grading():
    # constant total degree |rho| - l(v) + l(u), with deg q_i = 2
    for u in all_permutations(3):
        for v in all_permutations(3):
            expect = 3 + length(u) - length(v)
            for (xe, qe) in path_schubert(u, v).terms:
                assert sum(xe) + 2 * sum(qe) == expect


def test_schubert_expand_roundtrip():
    for z in all_permutations(4):
        assert schubert_expand(schubert_poly(z), length(z)) == {z: 1}


def _embed(w, N):
    return tuple(w) + tuple(range(len(w) + 1, N + 1))


def _lr_oracle(u, w, N=5):
    """Littlewood-Richardson numbers c_{u,w}^z by Schubert polynomial
    multiplication and expansion in S_N."""
    pu = schubert_poly(_embed(u, N))
    pw = schubert_poly(_embed(w, N))
    return schubert_expand(pu * pw, length(u) + length(w))


def test_gw_classical_oracle_s3():
    # u <= v, d = 0: the expansion coefficients are classical LR numbers
    for u in all_permutations(3):
        for v in all_permutations(3):
            if not bruhat_leq(u, v):
                continue
            assert min_degree(u, v) == deg_zero(3)
            got = gw_min_degree(u, v)
            for w in all_permutations(3):
                expected = _lr_oracle(u, w).get(_embed(v, 5), 0)
                assert got.get(w, 0) == expected, (u, v, w)


def test_gw_specializations():
    for u in all_permutations(3):
        assert gw_min_degree(u, u) == {identity(3): 1}
        assert cohomology_class_T(u, u) == {longest(3): 1}
    assert cohomology_class_T(identity(3), longest(3)) == {identity(3): 1}
    # degrees: nonzero coefficients sit at length l(u,v)
    for u in all_permutations(3):
        for v in all_permutations(3):
            for w, c in gw_min_degree(u, v).items():
                assert c > 0 and length(w) == ell(u, v)


def test_descent_cycling_all_admissible_s3():
    for u in all_permutations(3):
        for v in all_permutations(3):
            for i in (1, 2):
                if not interval_s_invariant(u, v, i):
                    with pytest.raises(ValueError):
                        check_descent_cycling(u, v, i)
                    continue
                rep = check_descent_cycling(u, v, i)
                assert rep["ok"], (u, v, i, rep["violations"])


def test_descent_cycling_known_example():
    rep = check_descent_cycling((2, 3, 1), (1, 2, 3), 1)
    assert rep["ok"] and not rep["vacuous"]
    assert min_degree((2, 3, 1), (1, 2, 3)) == (1, 1)
    # vacuous case: the whole flag variety is s_i-invariant and max-graded
    rep = check_descent_cycling(identity(3), longest(3), 1)
    assert rep["ok"] and rep["vacuous"]


def test_descent_cycling_sampled_s4():
    rng = random.Random(42)
    perms = list(all_permutations(4))
    found = 0
    while found < 3:
        u, v = rng.choice(perms), rng.choice(perms)
        i = rng.randint(1, 3)
        if not interval_s_invariant(u, v, i):
            continue
        rep = check_descent_cycling(u, v, i)
        assert rep["ok"], (u, v, i, rep["violations"])
        found += 1


def test_gates():
    from qbruhat.permcore import GateError

    with pytest.raises(GateError):
        path_schubert(identity(6), identity(6))
    with pytest.raises(GateError):
        gw_min_degree(identity(5), identity(5))


def test_monk_against_schubert_products():
    # classical Monk coefficients equal the Schubert-product expansion,
    # restricted to S_3 (the polynomial product keeps terms that vanish
    # in the cohomology of the flag variety)
    for w in all_permutations(3):
        for k in (1, 2):
            sk = (2, 1, 3) if k == 1 else (1, 3, 2)
            prod = _lr_oracle(sk, w)
            monk = classical_monk(k, w)
            for t in all_permutations(3):
                assert prod.get(_embed(t, 5), 0) == monk.get(t, 0), (w, k, t)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_path_schubert_and_gw_outputs_pinned():
    # every S_3 and S_4 pair, pinned before MultiPoly became a Poly
    pairs = [(u, v) for n in (3, 4) for u in all_permutations(n) for v in all_permutations(n)]
    assert _digest(repr(sorted(path_schubert(u, v).terms.items())) for u, v in pairs) == (
        "8bdbe9671278a4ed0e66a3474ee7c7cb64d52bd0921e76139e79db1bc99c8f07"
    )
    assert _digest(repr(sorted(gw_min_degree(u, v).items())) for u, v in pairs) == (
        "2b7bad6d35c6c0dcda771f3dd4689cf2539929af0cfef11a6426b971ad5b76db"
    )
