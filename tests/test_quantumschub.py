import hashlib
import random

import pytest

from qbruhat import qbgraph, quantumschub
from qbruhat.permcore import (
    InternalConsistencyError,
    Perm,
    all_permutations,
    apply_simple,
    apply_transposition,
    bruhat_leq,
    identity,
    length,
    longest,
)
from qbruhat.qbgraph import deg_add, deg_leq, deg_zero, edges_from, ell, min_degree
from qbruhat.quantumschub import (
    MultiPoly,
    check_descent_cycling,
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
from qbruhat.varietylab import solve_exact

from oracles import classical_monk


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


@pytest.mark.parametrize("w", [(1, 1, 2), (0, 1, 2), (2, 3, 4)])
def test_schubert_poly_rejects_non_permutations(w):
    with pytest.raises(ValueError, match="not a permutation"):
        schubert_poly(w)


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


def _code(w):
    return tuple(sum(w[j] < w[i] for j in range(i + 1, len(w))) for i in range(len(w)))


def test_code_monomial_is_the_lex_smallest():
    # what makes the expansion triangular
    for n in (3, 4, 5):
        for w in all_permutations(n):
            assert revlex_leading(schubert_poly(w)) == (deg_zero(n), _code(w), 1), w


def _schubert_expand_oracle(P, grade):
    """The expansion by an exact linear solve over the monomial span of the
    Schubert polynomials of length grade: ``schubert_expand``'s old route."""
    n = P.n
    basis = [z for z in all_permutations(n) if length(z) == grade]
    polys = [schubert_poly(z) for z in basis]
    monomials = sorted({xe for bp in polys for (xe, _) in bp.terms} | {xe for (xe, _) in P.terms})
    zero = deg_zero(n)
    A = [[bp.terms.get((m, zero), 0) for bp in polys] for m in monomials]
    sol = solve_exact(A, [P.terms.get((m, zero), 0) for m in monomials])
    assert sol is not None and all(c.denominator == 1 for c in sol)
    return {z: int(c) for z, c in zip(basis, sol) if c}


def test_triangular_expansion_matches_the_linear_solve():
    for u in all_permutations(4):
        for v in all_permutations(4):
            d = min_degree(u, v)
            P = path_schubert(u, v, d).q_part(d)
            grade = max(sum(xe) for (xe, _) in P.terms)
            assert schubert_expand(P, grade) == _schubert_expand_oracle(P, grade), (u, v)
    rng = random.Random(26)
    by_grade = {}
    for z in all_permutations(5):
        by_grade.setdefault(length(z), []).append(z)
    for _ in range(40):
        grade = rng.randint(0, 10)
        zs = rng.sample(by_grade[grade], min(3, len(by_grade[grade])))
        coeffs = {z: rng.choice([-3, -2, -1, 1, 2, 3]) for z in zs}
        P = MultiPoly(5)
        for z, c in coeffs.items():
            P = P + c * schubert_poly(z)
        assert schubert_expand(P, grade) == _schubert_expand_oracle(P, grade) == coeffs


def test_schubert_expand_rejects_what_is_outside_the_span():
    x4 = mono(4, (0, 0, 0, 1))  # (0,0,0,1) is no Lehmer code of S_4
    mixed = schubert_poly((2, 1, 3)) + schubert_poly((3, 2, 1))
    quantum = MultiPoly.monomial(3, (1, 0, 0), (1, 0))  # q_1 x_1
    for P, grade in ((x4, 1), (mixed, 1), (mixed, 3), (quantum, 1)):
        with pytest.raises(InternalConsistencyError, match="outside the Schubert span"):
            schubert_expand(P, grade)


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


def test_gw_raises_on_a_weight_other_than_d(monkeypatch):
    # gw skips min_degree's check walk, so its own guard must catch a wrong
    # d: a bound above d lets lighter paths through, and its q-part can
    # still expand into a wrong answer (132 -> 123 with d + e_1); a bound
    # below d keeps no path at all
    for u in all_permutations(3):
        for v in all_permutations(3):
            d = min_degree(u, v)
            for k in (0, 1):
                for step in (1, -1) if d[k] else (1,):
                    bound = tuple(x + step * (i == k) for i, x in enumerate(d))

                    def stub(a, b, check=True, bound=bound):
                        assert check is False
                        return bound

                    monkeypatch.setattr(quantumschub, "min_degree", stub)
                    with pytest.raises(InternalConsistencyError, match="under the bound"):
                        gw_min_degree(u, v)


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


@pytest.mark.parametrize(
    "fn, digest",
    [
        (gw_min_degree, "c58070ccb1f25956f22026d6dbf904f1b80381e6d13387ab3fe0ce9a8638b6eb"),
        (cohomology_class_T, "c1fb1cb9cd023142d903b2ab0d2e2512bc4e47ac8e5fdd0c04cdf39701a47c3f"),
    ],
)
def test_gw_and_class_pinned_in_dict_order(fn, digest):
    # every S_3 and S_4 pair, items in the order returned; the digests were
    # taken before gw_min_degree read the class, and the class has no second
    # route to compare against yet
    pairs = [(u, v) for n in (3, 4) for u in all_permutations(n) for v in all_permutations(n)]
    assert _digest(repr(list(fn(u, v).items())) for u, v in pairs) == digest


def _admissible_paths_oracle(u, v):
    """Every x^beta-admissible path u -> v, yielded one by one as (beta,
    weight): the generator walk that ``path_schubert`` once used.  Segment k
    walks edges t_{ab} with nondecreasing a <= k < b and distinct b's."""
    n = len(u)

    def walk(k, w, wt, beta):
        if k == n:
            if w == v:
                yield beta, wt
            return

        def seg(cur, cnt, last_a, used_b, cwt):
            yield from walk(k + 1, cur, cwt, beta + (cnt,))
            for i, j, ewt in edges_from(cur):
                if last_a <= i <= k < j and j not in used_b:
                    yield from seg(
                        apply_transposition(cur, i, j), cnt + 1, i, used_b | {j}, deg_add(cwt, ewt)
                    )

        yield from seg(w, 0, 1, frozenset(), wt)

    yield from walk(1, u, deg_zero(n), ())


def _path_schubert_oracle(u, v):
    n = len(u)
    rho = tuple(range(n - 1, -1, -1))
    out = {}
    for beta, wt in _admissible_paths_oracle(u, v):
        key = (tuple(r - b for r, b in zip(rho, beta + (0,))), wt)
        out[key] = out.get(key, 0) + 1
    return MultiPoly(n, out)


def test_path_schubert_matches_the_path_by_path_walk():
    pairs = [(u, v) for n in (3, 4) for u in all_permutations(n) for v in all_permutations(n)]
    rng = random.Random(23)
    s5 = list(all_permutations(5))
    pairs += [(rng.choice(s5), rng.choice(s5)) for _ in range(12)]
    pairs += [(identity(5), longest(5)), (longest(5), identity(5))]
    for u, v in pairs:
        assert path_schubert(u, v) == _path_schubert_oracle(u, v), (u, v)


def test_degree_bound_keeps_the_paths_below_it():
    # weights only grow along a path, so a bound d keeps exactly the paths
    # of weight <= d, and the q^d part is the full walk's; the bounds d(u,v)
    # + e_k sit one above a path's weight, where a wrong field width or
    # guard mask in the packed weights would show
    pairs = [(u, v) for n in (3, 4) for u in all_permutations(n) for v in all_permutations(n)]
    for u, v in pairs:
        full = path_schubert(u, v)
        m = min_degree(u, v)
        above = {tuple(x + (i == k) for i, x in enumerate(m)) for k in range(len(m))}
        for d in full.q_weights() | above:
            below = {(xe, qe): c for (xe, qe), c in full.terms.items() if deg_leq(qe, d)}
            bounded = path_schubert(u, v, d)
            assert bounded.terms == below, (u, v, d)
            assert bounded.q_part(d) == full.q_part(d)
        assert m in full.q_weights()
        # a bound past every field's width bounds nothing
        assert path_schubert(u, v, (99,) * len(m)) == full


def test_gw_raises_on_a_negative_coefficient(monkeypatch):
    # Gromov-Witten numbers count curves: a negative one is a fault
    real = quantumschub.schubert_expand
    monkeypatch.setattr(
        quantumschub, "schubert_expand",
        lambda P, grade: {z: -c for z, c in real(P, grade).items()},
    )
    with pytest.raises(InternalConsistencyError, match="negative expansion coefficient"):
        gw_min_degree((1, 2, 3), (3, 2, 1))


# ---------------------------------------------------------------------------
# the per-n move table of the path walk


@pytest.fixture
def fresh_moves():
    """The move table, empty before the test and after it, so that a table
    filled under a patched kernel never reaches another test."""
    quantumschub._moves.cache_clear()
    yield quantumschub._moves
    quantumschub._moves.cache_clear()


def _expected_moves(w: Perm):
    """w's moves as the walk packs them: q_k in field k-1 of width
    bit_length(n(n-1)/2) + 1, a quantum t_ij weighing q_i + ... + q_{j-1}."""
    n = len(w)
    width = (n * (n - 1) // 2).bit_length() + 1
    return tuple(
        (i, j, sum(1 << width * k for k in range(i - 1, j - 1)) if any(e) else 0,
         apply_transposition(w, i, j))
        for i, j, e in edges_from(w)
    )


def test_move_table_entries_are_the_edges(fresh_moves):
    for n in range(1, 6):
        perms = list(all_permutations(n))
        for u in perms:
            path_schubert(u, longest(n))
            path_schubert(longest(n), u)
        table = fresh_moves(n)
        assert len(table) <= len(perms)
        assert len(table) == (len(perms) if n > 1 else 0), n
        for w, moves in table.items():
            assert moves == _expected_moves(w), w


def test_move_table_fills_each_entry_once(monkeypatch, fresh_moves):
    # count calls, not seconds: the first walk scans each permutation it
    # reaches once, a repeat of the call scans none
    real = quantumschub.edges_from
    scanned = []
    monkeypatch.setattr(quantumschub, "edges_from", lambda w: scanned.append(w) or real(w))
    u, v = (2, 4, 1, 3), (3, 1, 4, 2)
    first = gw_min_degree(u, v)
    assert scanned and len(scanned) == len(set(scanned)) == len(fresh_moves(4))
    del scanned[:]
    assert gw_min_degree(u, v) == first
    assert scanned == []
    assert fresh_moves.cache_info().currsize == 1


def test_a_faulty_edge_kernel_reaches_the_walk(monkeypatch, fresh_moves):
    # quantum and classical weights swapped in the edge kernel's tables,
    # after a warm-up under the true kernel; the table is dropped first, so
    # every walk reads the faulty kernel.  A few polynomials survive the
    # swap (on (231, 132) the one path's q_1 q_2 maps onto itself), so the
    # test counts: a walk on the stale table would change none of them
    pairs = [(u, v) for n in (3, 4) for u in all_permutations(n) for v in all_permutations(n)
             if u != v]
    want = {(u, v): path_schubert(u, v) for u, v in pairs}
    fresh_moves.cache_clear()
    real = qbgraph._edge_tables

    def swapped(n):
        zero, quantum, between = real(n)
        return (1,) * (n - 1), tuple(tuple(zero for _ in row) for row in quantum), between

    monkeypatch.setattr(qbgraph, "_edge_tables", swapped)
    changed = raised = 0
    for u, v in pairs:
        changed += path_schubert(u, v) != want[u, v]
        try:
            gw_min_degree(u, v)
        except InternalConsistencyError:
            raised += 1
    assert changed > 0.95 * len(pairs) and raised > 0.9 * len(pairs), (changed, raised)


def test_outputs_pinned_with_the_table_cold_and_warm(fresh_moves):
    # digests taken before the move table outlived a call
    pairs = [(u, v) for n in (3, 4) for u in all_permutations(n) for v in all_permutations(n)]
    rng = random.Random(42)
    s5 = list(all_permutations(5))
    pairs5 = [(rng.choice(s5), rng.choice(s5)) for _ in range(30)]
    for _ in ("cold", "warm"):
        assert _digest(repr(list(gw_min_degree(u, v).items())) for u, v in pairs) == (
            "c58070ccb1f25956f22026d6dbf904f1b80381e6d13387ab3fe0ce9a8638b6eb"
        )
        assert _digest(repr(sorted(path_schubert(u, v).terms.items())) for u, v in pairs5) == (
            "4179eb51d143eda002c15cf0497a6129b2e2605e19c13fe1d71f67afc1fb0c57"
        )
        assert _digest(
            repr(sorted(path_schubert(u, v, min_degree(u, v)).terms.items())) for u, v in pairs5
        ) == "a947c237345ead5c33cd8f27f03cd4fb8364af50b578e64a4c0664f09a3f4794"
