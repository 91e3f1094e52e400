import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from qbruhat import tiltwords, varietylab
from qbruhat.permcore import (
    InternalConsistencyError,
    all_permutations,
    cyclic_interval,
    format_perm,
    identity,
    length,
    parse_perm,
    prefix_set,
    sort_shifted,
)
from qbruhat.qbgraph import ell, tilted_interval
from qbruhat.rpolyhecke import rtilt_deodhar
from qbruhat.tiltorder import a_leq, a_length, a_lesssim, witness_a
from qbruhat.tiltwords import (
    BAR,
    Subword,
    distinguished_subwords,
    positive_distinguished_subword,
    positive_word,
    regular_tilted_reduced_word,
    tilted_reduced_word,
)
from qbruhat.varietylab import (
    canonical_cell_matrix,
    count_points_fq,
    count_total_flags,
    deodhar_point,
    det,
    enumerate_flags_fq,
    in_tilted_richardson,
    in_tilted_richardson_plucker,
    in_tilted_schubert_cell,
    interpolate,
    is_invertible,
    is_tnn,
    make_matrix,
    mat_mul,
    matrix_from_json,
    matrix_to_json,
    multi_plucker,
    permutation_matrix,
    plucker,
    plucker_add,
    plucker_drop,
    sdot_inverse_matrix,
    sdot_matrix,
    solve_exact,
    tilted_rothe,
    tilted_rothe_op,
    tnn_signs,
    x_matrix,
    y_matrix,
)

rng = random.Random(0)


def rand_invertible(n, lo=-5, hi=5):
    while True:
        M = make_matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if is_invertible(M):
            return M


def test_det_and_rank():
    M = make_matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert det(M) == 18
    assert det(make_matrix(M.rows, field=5)) == 3
    assert det(make_matrix([[Fraction(1, 2), 1], [1, 2]])) == 0
    assert varietylab._rank([row[:2] for row in M.rows], None) == 2
    assert varietylab._rank([list(M.rows[0])], None) == 1
    assert varietylab._rank([], None) == 0
    with pytest.raises(ValueError):
        make_matrix([[1, 2], [3, 4]], field=4)


def test_plucker_basics():
    E = permutation_matrix(identity(4))
    for k in range(1, 5):
        assert plucker(E, tuple(range(1, k + 1))) == 1
    M = rand_invertible(4)
    assert plucker(M, (2, 1, 3)) == -plucker(M, (1, 2, 3))
    assert plucker(M, (1, 1, 2)) == 0
    assert multi_plucker(permutation_matrix((2, 1, 3)), (2, 1, 3)) != 0


def test_incidence_plucker_relations():
    # the three special cases of the incidence relations on random matrices
    for n in (4, 5):
        M = rand_invertible(n)
        subsets = lambda k: itertools.combinations(range(1, n + 1), k)
        for k in range(2, n + 1):
            for I in subsets(k):
                for J in subsets(k - 1):
                    lhs = plucker(M, I) * plucker(M, J)
                    rhs = sum(
                        plucker_drop(M, I, j) * plucker_add(M, J, I[j - 1])
                        for j in range(1, k + 1)
                    )
                    assert lhs == rhs, (I, J)
        # relation (2): r - s >= 2 gives zero
        for I in subsets(4):
            for J in subsets(2):
                total = sum(
                    plucker_drop(M, I, j) * plucker_add(M, J, I[j - 1])
                    for j in range(1, 5)
                )
                assert total == 0, (I, J)
        # relation (3)
        for I in subsets(3):
            for J in subsets(2):
                for x in range(1, n + 1):
                    lhs = plucker(M, I) * plucker_add(M, J, x)
                    rhs = sum(
                        plucker(M, I[: j - 1] + (x,) + I[j:])
                        * plucker_add(M, J, I[j - 1])
                        for j in range(1, 4)
                    )
                    assert lhs == rhs, (I, J, x)


def test_fixed_points_both_routes():
    for u in all_permutations(3):
        for v in all_permutations(3):
            members = tilted_interval(u, v).members
            for w in all_permutations(3):
                ew = permutation_matrix(w)
                assert in_tilted_richardson(ew, u, v) == (w in members)
                assert in_tilted_richardson_plucker(ew, u, v) == (w in members)
                # e_u open-membership only at u = v = w
                assert in_tilted_richardson(ew, w, w, open_flag=True)


def test_routes_agree_on_random_matrices():
    for _ in range(60):
        M = rand_invertible(3, -2, 2)
        for u in all_permutations(3):
            for v in all_permutations(3):
                # raises InternalConsistencyError on any disagreement
                in_tilted_richardson_plucker(M, u, v, open_flag=False, check=True)


def test_classical_richardson_specialization():
    # u <= v: membership matches the classical Plücker description
    from qbruhat.permcore import bruhat_leq

    for _ in range(25):
        M = rand_invertible(3, -2, 2)
        for u in all_permutations(3):
            for v in all_permutations(3):
                if not bruhat_leq(u, v):
                    continue
                classical = all(
                    multi_plucker(M, w) == 0
                    for w in all_permutations(3)
                    if not (bruhat_leq(u, w) and bruhat_leq(w, v))
                )
                assert in_tilted_richardson(M, u, v) == classical


def all_region_conditions(M, u, v, open_flag=False, a=None):
    """The rank route as defined: all 2n^2 conditions, on every level k and
    both regions [a_k, i)_c and [i, a_k)_c, empty ones and level n included."""
    n = M.n
    if a is None:
        a = witness_a(u, v)
    elif not a_leq(a, u, v):
        return False
    for k in range(1, n + 1):
        uk, vk = prefix_set(u, k), prefix_set(v, k)
        for i in range(1, n + 1):
            lo, hi = cyclic_interval(n, a[k - 1], i), cyclic_interval(n, i, a[k - 1])
            r_lo = varietylab._rank([M.rows[r - 1][:k] for r in lo], M.field)
            r_hi = varietylab._rank([M.rows[r - 1][:k] for r in hi], M.field)
            if open_flag:
                if r_lo != len(uk & lo) or r_hi != len(vk & hi):
                    return False
            elif r_lo > len(uk & lo) or r_hi > len(vk & hi):
                return False
    return True


def test_rank_route_matches_all_region_conditions():
    pick = random.Random(21)

    def agree(M, u, v, tilts):
        for a in tilts:
            for open_flag in (False, True):
                assert in_tilted_richardson(M, u, v, open_flag, a) == all_region_conditions(
                    M, u, v, open_flag, a), (M.rows, u, v, open_flag, a)

    # every flag of Fl_3(F_2) and Fl_3(F_3), every pair, the witness tilt and
    # two seeded tilts, which often have u not <=_a v
    empty = 0
    for p in (2, 3):
        flags = list(enumerate_flags_fq(3, p))
        for u in all_permutations(3):
            for v in all_permutations(3):
                tilts = [None] + [tuple(pick.choices((1, 2, 3), k=3)) for _ in range(2)]
                empty += sum(a is not None and not a_leq(a, u, v) for a in tilts)
                for M in flags:
                    agree(M, u, v, tilts)
    assert empty > 0
    s4 = list(all_permutations(4))
    flags = list(enumerate_flags_fq(4, 2))
    for _ in range(300):
        u, v = pick.choice(s4), pick.choice(s4)
        agree(pick.choice(flags), u, v, [None, tuple(pick.choices(range(1, 5), k=4))])
    # rational Deodhar points of T°_{x,y}, against (x, y), a random pair and
    # the two mixed pairs; and random invertible matrices
    for n, cases in ((4, 30), (5, 10)):
        perms = list(all_permutations(n))
        for _ in range(cases):
            x, y, u, v = (pick.choice(perms) for _ in range(4))
            word = regular_tilted_reduced_word(witness_a(x, y), y)
            sub = positive_distinguished_subword(word, x)
            params = {j: Fraction(pick.choice((-3, -1, 1, 2)), pick.randint(1, 3))
                      for j in sub.jcirc}
            M = deodhar_point(word, sub, params)
            for pair in ((x, y), (u, v), (x, v), (u, y)):
                agree(M, *pair, [None, tuple(pick.choices(range(1, n + 1), k=n))])
            agree(rand_invertible(n, -2, 2), u, v, [None])


def test_rank_route_runs_two_chains_per_tilt_value(monkeypatch):
    # one chain over all n rows for the singular test, then the forward and
    # backward chain of each distinct a_k at most once, n - 1 rows each,
    # and no _rank; a member of T° passes every level, so each chain runs
    pick = random.Random(4)
    cases = []
    for n in (3, 4, 5):
        perms = list(all_permutations(n))
        for _ in range(15):
            u, v = pick.choice(perms), pick.choice(perms)
            word = regular_tilted_reduced_word(witness_a(u, v), v)
            sub = positive_distinguished_subword(word, u)
            member = deodhar_point(word, sub, {j: pick.choice((-2, 1, 3)) for j in sub.jcirc})
            other = make_matrix([[pick.randint(-2, 2) for _ in range(n)] for _ in range(n)], 3)
            if is_invertible(other):
                cases.append((other, u, v, all_region_conditions(other, u, v, True)))
            cases.append((member, u, v, True))
    calls = []
    real = varietylab._echelon_chain

    def counting(rows, p):
        rows = list(rows)
        calls.append(len(rows))
        return real(rows, p)

    def forbidden(*args):
        raise AssertionError("the rank route called _rank")

    monkeypatch.setattr(varietylab, "_echelon_chain", counting)
    monkeypatch.setattr(varietylab, "_rank", forbidden)
    for M, u, v, want in cases:
        n, distinct = M.n, len(set(witness_a(u, v)[:-1]))
        calls.clear()
        assert in_tilted_richardson(M, u, v, open_flag=True) == want, (M.rows, u, v)
        assert calls[0] == n and set(calls[1:]) <= {n - 1}, calls
        assert len(calls) - 1 <= 2 * distinct, (u, v, calls)
        if want:
            assert len(calls) - 1 == 2 * distinct, (u, v, calls)
    assert sum(want for *_, want in cases) > len(cases) / 2


def test_singular_matrix_rejected():
    S = make_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        in_tilted_richardson(S, identity(3), identity(3))


def test_rank_route_error_order():
    # size, then singular, then the tilt: a singular matrix with a bad
    # explicit tilt is reported as singular, over Q and over F_p
    e, w0 = identity(3), (3, 2, 1)
    for S in (make_matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]),
              make_matrix([[1, 1, 0], [0, 1, 1], [1, 2, 1]], 3),
              make_matrix([[0, 0, 0], [0, 1, 0], [1, 0, 0]], 2)):
        for a in ((0, 1, 1), (1, 2), (4, 4, 4)):
            with pytest.raises(ValueError, match="size mismatch"):
                in_tilted_richardson(S, identity(4), w0, a=a)
            with pytest.raises(ValueError, match="singular"):
                in_tilted_richardson(S, e, w0, a=a)
            with pytest.raises(ValueError, match="singular"):
                in_tilted_richardson_plucker(S, e, w0)
            with pytest.raises(ValueError) as bad_tilt:
                in_tilted_richardson(permutation_matrix(w0, S.field), e, w0, a=a)
            assert "singular" not in str(bad_tilt.value)


def test_tilted_rothe_example():
    a, w = (4, 4, 2, 2), parse_perm("4321")
    assert tilted_rothe(a, w) == {(1, 2), (2, 2)}
    assert tilted_rothe_op(a, w) == {(1, 1), (2, 1), (3, 1), (1, 3)}
    for atilt in [(1, 1, 1, 1), (4, 4, 2, 2), (2, 3, 1, 4)]:
        for w in all_permutations(4):
            assert len(tilted_rothe(atilt, w)) == a_length(atilt, w)
            assert len(tilted_rothe_op(atilt, w)) == 6 - a_length(atilt, w)


def test_canonical_cell_matrix():
    a, w = (4, 4, 2, 2), parse_perm("4321")
    params = {(1, 2): Fraction(3), (2, 2): Fraction(-2)}
    M = canonical_cell_matrix(a, w, "cell", params)
    assert M.entry(1, 2) == 3 and M.entry(2, 2) == -2
    assert in_tilted_schubert_cell(M, w, a, "cell")
    with pytest.raises(ValueError):
        canonical_cell_matrix(a, w, "cell", {(1, 2): 1})
    # classical specialization: a = ones gives the classical Schubert cell
    ones = (1, 1, 1, 1)
    for w in all_permutations(4):
        cells = tilted_rothe(ones, w)
        assert len(cells) == length(w)
        M = canonical_cell_matrix(ones, w, "cell", {c: 1 for c in cells})
        assert in_tilted_schubert_cell(M, w, ones, "cell")


def test_deodhar_point_pinned_example():
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
    assert in_tilted_richardson(M, u, v, open_flag=True)
    assert in_tilted_richardson_plucker(M, u, v, open_flag=True)
    with pytest.raises(ValueError):
        deodhar_point(word, sub, {5: 0, 6: pb, 7: pc, 11: pd})
    with pytest.raises(ValueError):
        deodhar_point(word, sub, {5: pa})


def test_deodhar_identity_case():
    for v in all_permutations(3):
        a = witness_a(v, v)
        word = regular_tilted_reduced_word(a, v)
        sub = positive_distinguished_subword(word, v)
        M = deodhar_point(word, sub, {})
        # the flag e_v up to signs
        for k, vk in enumerate(v, start=1):
            assert abs(M.entry(vk, k)) == 1
        assert in_tilted_richardson(M, v, v, open_flag=True)


def test_deodhar_points_land_in_open_variety():
    perms = list(all_permutations(3))
    for u in perms:
        for v in perms:
            a = witness_a(u, v)
            word = regular_tilted_reduced_word(a, v)
            sub = positive_distinguished_subword(word, u)
            for _ in range(10):
                p_map = {}
                for j in sub.jcirc:
                    val = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    p_map[j] = val if rng.random() < 0.5 else -val
                M = deodhar_point(word, sub, p_map)
                assert in_tilted_richardson(M, u, v, open_flag=True, a=a)
                assert in_tilted_richardson_plucker(M, u, v, open_flag=True)


def test_tnn_signs_pinned_trace():
    a, v, u = (4, 4, 2, 2), parse_perm("3142"), parse_perm("4231")
    word = tilted_reduced_word(a, v)
    sub = positive_distinguished_subword(word, u)
    signs, trace = tnn_signs(word, sub)
    assert [signs[j] for j in sorted(signs)] == [1, 1, -1, -1]
    expected = (
        [(1, 1, 1, 1)] * 4
        + [(1, 1, 1, -1)] * 6
        + [(1, -1, 1, -1)] * 2
    )
    assert trace == expected
    assert len(trace) == 12


def test_tnn_signs_pinned_s3_s4():
    h = hashlib.sha256()
    for n in (3, 4):
        for u in all_permutations(n):
            for v in all_permutations(n):
                a, word, sub = positive_word(u, v)
                signs, trace = tnn_signs(word, sub)
                line = f"{format_perm(u)} {format_perm(v)} {sorted(signs.items())} {trace}\n"
                h.update(line.encode())
    assert h.hexdigest() == "fe1ecff0901ecd673a38162424fca1e40f4e536b01e3d72b8267adc9322b61ac"


def _tnn_signs_two_walks(word, sub):
    """tnn_signs as it read its splits before: ``is_regular`` walks the bars,
    then ``bar_splits`` walks them again."""
    if sub.jminus or not tiltwords.is_regular(word):
        raise ValueError("not a positive subword of a regular word")
    splits = tiltwords.bar_splits(word)
    sign = [1] * word.n
    trace, out = [tuple(sign)], {}
    for j, f in enumerate(word.factors, start=1):
        if f is BAR:
            q, p = splits[j]
            if p % 2:
                sign[p:q] = [-s for s in sign[p:q]]
        elif j in sub.jplus:
            sign[f - 1], sign[f] = sign[f], sign[f - 1]
        else:
            out[j] = sign[f - 1] * sign[f]
        trace.append(tuple(sign))
    return out, trace


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


def test_tnn_signs_walks_the_bars_once(monkeypatch):
    calls = []
    real = tiltwords.bar_splits
    monkeypatch.setattr(tiltwords, "bar_splits", lambda word: calls.append(word) or real(word))
    trng = random.Random(41)
    signed = refused = 0
    for n in (4, 4, 5, 5, 6, 6) * 10:
        u, v = (tuple(trng.sample(range(1, n + 1), n)) for _ in range(2))
        a = witness_a(u, v)
        for build in (regular_tilted_reduced_word, tilted_reduced_word):
            word = build(a, v)
            sub = positive_distinguished_subword(word, u)
            calls.clear()
            got = _outcome(tnn_signs, word, sub)
            assert len(calls) == 1, (u, v, build.__name__)
            assert got == _outcome(_tnn_signs_two_walks, word, sub), (u, v, build.__name__)
            signed += got != "ValueError"
            refused += got == "ValueError"
    assert signed >= 60 and refused > 0  # every regular word, and some plain ones that are not
    calls.clear()
    with pytest.raises(ValueError):  # J- nonempty: refused before any walk
        tnn_signs(word, Subword(**{**sub._asdict(), "jminus": frozenset({1})}))
    assert calls == []


def test_tnn_membership_and_flips():
    a, v, u = (4, 4, 2, 2), parse_perm("3142"), parse_perm("4231")
    word = tilted_reduced_word(a, v)
    sub = positive_distinguished_subword(word, u)
    signs, _ = tnn_signs(word, sub)
    for _ in range(20):
        p_map = {
            j: signs[j] * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for j in sub.jcirc
        }
        M = deodhar_point(word, sub, p_map)
        assert is_tnn(M, a)
        flip = rng.choice(sorted(sub.jcirc))
        bad = dict(p_map)
        bad[flip] = -bad[flip]
        assert not is_tnn(deodhar_point(word, sub, bad), a)
    with pytest.raises(ValueError):
        is_tnn(permutation_matrix(identity(3), field=2), (1, 1, 1))


def test_flag_enumeration_counts():
    assert count_total_flags(3, 2) == 21
    assert count_total_flags(3, 3) == 52
    assert sum(1 for _ in enumerate_flags_fq(3, 2)) == 21
    flags = [tuple(map(tuple, M.rows)) for M in enumerate_flags_fq(3, 2)]
    assert len(set(flags)) == 21  # all distinct representatives


def test_count_matches_rpoly():
    assert count_points_fq((2, 3, 1), (1, 2, 3), 2) == 1
    for u in all_permutations(3):
        for v in all_permutations(3):
            r = rtilt_deodhar(u, v)
            assert count_points_fq(u, v, 2) == r(2), (u, v)
            assert count_points_fq(u, v, 3) == r(3), (u, v)


def brute_force_count(u, v, flags):
    """The oracle: every flag of Fl_n(F_p) through the rank route."""
    a = witness_a(u, v)
    return sum(in_tilted_richardson(M, u, v, open_flag=True, a=a) for M in flags)


def test_count_matches_brute_force_s3():
    for p in (2, 3, 5):
        flags = list(enumerate_flags_fq(3, p))
        for u in all_permutations(3):
            for v in all_permutations(3):
                assert count_points_fq(u, v, p) == brute_force_count(u, v, flags), (u, v, p)


def test_count_matches_brute_force_s4_sample():
    pick = random.Random(8)
    s4 = list(all_permutations(4))
    for p, pairs in ((2, 60), (3, 8)):
        flags = list(enumerate_flags_fq(4, p))
        for _ in range(pairs):
            u, v = pick.choice(s4), pick.choice(s4)
            assert count_points_fq(u, v, p) == brute_force_count(u, v, flags), (u, v, p)


def test_count_walks_no_flag_list(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the count went through the brute-force route")

    for name in ("enumerate_flags_fq", "is_invertible", "in_tilted_richardson"):
        monkeypatch.setattr(varietylab, name, forbidden)
    for u, v in [((2, 3, 1), (1, 2, 3)), ((1, 2, 3, 4), (4, 3, 2, 1)),
                 ((4, 2, 3, 1), (3, 1, 4, 2)), ((2, 1, 4, 3), (2, 1, 4, 3))]:
        r = rtilt_deodhar(u, v)
        assert count_points_fq(u, v, 2) == r(2), (u, v)
        assert count_points_fq(u, v, 3) == r(3), (u, v)


def test_plucker_route_computes_each_row_set_once(monkeypatch):
    seen = []
    real = varietylab.plucker

    def counting(M, I):
        seen.append(frozenset(I))
        return real(M, I)

    monkeypatch.setattr(varietylab, "plucker", counting)
    pick = random.Random(3)
    s4 = list(all_permutations(4))
    flags = list(enumerate_flags_fq(4, 2))
    for _ in range(30):
        u, v = pick.choice(s4), pick.choice(s4)
        M = pick.choice(flags)
        seen.clear()
        in_tilted_richardson_plucker(M, u, v, open_flag=True, check=True)
        assert len(seen) == len(set(seen)), (u, v, M.rows)


def test_count_gate():
    from qbruhat.permcore import GateError

    with pytest.raises(GateError):
        count_points_fq(identity(5), identity(5), 2)


def test_count_matches_rpoly_s5(monkeypatch):
    # the column walk at n = 5, with the gate raised: seeded pairs and
    # e -> w0, the largest count, at p = 2 and 3
    monkeypatch.setenv("QBRUHAT_MAX_COUNT_N", "5")
    pick = random.Random(5)
    s5 = list(all_permutations(5))
    e, w0 = identity(5), (5, 4, 3, 2, 1)
    for u, v in [(pick.choice(s5), pick.choice(s5)) for _ in range(6)] + [(e, w0)]:
        r = rtilt_deodhar(u, v)
        for p in (2, 3):
            assert count_points_fq(u, v, p) == r(p), (u, v, p)


def test_witness_tilt_failing_a_leq_is_a_fault(monkeypatch, capsys):
    # the witness tilt gives u <~_a v, so a count of 0 from u not <=_a v under
    # it would hide a fault in witness_a or a_leq
    from qbruhat.cli import run

    u, v = (2, 3, 1), (1, 2, 3)
    monkeypatch.setattr(varietylab, "a_leq", lambda a, u, v: False)
    with pytest.raises(InternalConsistencyError, match="witness tilt"):
        count_points_fq(u, v, 2)
    assert run(["count", "231", "123", "--p", "2"]) == 2
    assert "internal consistency failure: witness tilt" in capsys.readouterr().err
    monkeypatch.undo()
    # an explicit tilt without u <=_a v still cuts out the empty variety
    u, v, a = (2, 1, 3), (1, 3, 2), (1, 1, 1)
    assert not a_leq(a, u, v)
    for M in enumerate_flags_fq(3, 2):
        assert not in_tilted_richardson(M, u, v, a=a), M.rows


def test_stratification_theorem():
    # every flag of Fl_3(F_p) in T_{u,v} lies in exactly one open stratum
    for p in (2, 3):
        flags = list(enumerate_flags_fq(3, p))
        for u in all_permutations(3):
            for v in all_permutations(3):
                iv = tilted_interval(u, v)
                strata = [
                    (x, y)
                    for x in iv.members
                    for y in iv.members
                    if iv.poset_leq(x, y)
                ]
                for M in flags:
                    inside = in_tilted_richardson(M, u, v)
                    hits = sum(
                        1
                        for (x, y) in strata
                        if in_tilted_richardson(M, x, y, open_flag=True)
                    )
                    assert hits == (1 if inside else 0), (p, u, v)


def test_cell_intersection_theorem():
    # T°_{u,v} = X°_{v,a} n Omega°_{u,a} over all flags of Fl_3(F_2)
    flags = list(enumerate_flags_fq(3, 2))
    for u in all_permutations(3):
        for v in all_permutations(3):
            a = witness_a(u, v)
            assert a_lesssim(a, u, v)
            for M in flags:
                lhs = in_tilted_richardson(M, u, v, open_flag=True, a=a)
                rhs = in_tilted_schubert_cell(M, v, a, "cell") and (
                    in_tilted_schubert_cell(M, u, a, "opposite")
                )
                assert lhs == rhs, (u, v)


def test_dimension_by_interpolation():
    # deg of the interpolated count polynomial equals l(u,v) for n = 3
    primes = (2, 3, 5, 7)
    for u in all_permutations(3):
        for v in all_permutations(3):
            counts = [(p, count_points_fq(u, v, p)) for p in primes]
            coeffs = interpolate(counts)
            assert len(coeffs) - 1 == ell(u, v), (u, v, coeffs)
            r = rtilt_deodhar(u, v)
            assert coeffs == [Fraction(r[e]) for e in range(len(coeffs))]


def test_solve_and_interpolate():
    assert solve_exact([[1, 1], [1, -1]], [3, 1]) == [Fraction(2), Fraction(1)]
    assert solve_exact([[1, 0], [0, 1], [1, 1]], [1, 2, 4]) is None
    with pytest.raises(ValueError):
        solve_exact([[1, 1]], [2])
    assert interpolate([(0, 1), (1, 2), (2, 5)]) == [
        Fraction(1), Fraction(0), Fraction(1),
    ]


def test_matrix_json_roundtrip():
    M = make_matrix([[Fraction(3, 2), 1], [0, Fraction(-7, 3)]])
    again = matrix_from_json(matrix_to_json(M))
    assert again == M
    Mp = matrix_from_json('[["1/2","1"],["1","0"]]', field=3)
    assert Mp.rows == ((2, 1), (1, 0))
    with pytest.raises(ValueError):
        matrix_from_json('[["1/2","1"],["1","0"]]', field=2)


def test_pinned_matrices():
    s1 = sdot_matrix(3, 1)
    assert [list(r) for r in s1.rows] == [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    y = y_matrix(3, 2, Fraction(5))
    assert y.entry(3, 2) == 5 and y.entry(2, 2) == 1
    assert det(mat_mul(s1, y)) == 1


def test_membership_independent_of_tilt():
    # any tilt with u <=_a v defines the same variety (n = 3, all tilts)
    for _ in range(12):
        M = rand_invertible(3, -2, 2)
        for u in all_permutations(3):
            for v in all_permutations(3):
                from qbruhat.tiltorder import a_leq

                tilts = [
                    a
                    for a in itertools.product((1, 2, 3), repeat=3)
                    if a_leq(a, u, v)
                ]
                answers = {
                    in_tilted_richardson(M, u, v, open_flag=False, a=a)
                    for a in tilts
                }
                assert len(answers) == 1, (u, v)


def test_deodhar_point_over_prime_field():
    a, v, u = (4, 4, 2, 2), parse_perm("3142"), parse_perm("4231")
    word = tilted_reduced_word(a, v)
    sub = positive_distinguished_subword(word, u)
    for p in (3, 5, 7):
        for vals in [(1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2)]:
            p_map = dict(zip(sorted(sub.jcirc), vals))
            M = deodhar_point(word, sub, p_map, field=p)
            assert M.field == p
            assert in_tilted_richardson(M, u, v, open_flag=True)


# ---------------------------------------------------------------------------
# the elimination kernel against independent oracles

FIELDS = (None, 2, 3, 5)


def leibniz(rows):
    """Determinant over Z or Q as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


def minor_rank(rows, field):
    """The largest size of a nonzero minor."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nr, nc), 0, -1):
        for rs in itertools.combinations(range(nr), k):
            for cs in itertools.combinations(range(nc), k):
                d = leibniz([[rows[i][j] for j in cs] for i in rs])
                if (d if field is None else d % field) != 0:
                    return k
    return 0


def kernel_rows(rng, nr, nc, field):
    """Small entries (rationals over Q), with a zero row, a zero column or a
    repeated row planted often enough to make rank deficiency common."""
    def entry():
        if field is not None:
            return rng.randint(-field, 2 * field)
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if nr and rng.random() < 0.25:
        rows[rng.randrange(nr)] = [0] * nc
    if nc and rng.random() < 0.25:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = 0
    if nr > 1 and rng.random() < 0.3:
        i, k = rng.sample(range(nr), 2)
        rows[i] = list(rows[k])
    return rows


def test_det_matches_leibniz():
    krng = random.Random(11)
    for field in FIELDS:
        for n in range(6):
            for _ in range(25 if n else 1):
                rows = kernel_rows(krng, n, n, field)
                want = leibniz(rows)
                if field is None:
                    assert det(make_matrix(rows)) == want, rows
                    assert varietylab._det_fractions(rows) == want, rows
                else:
                    assert det(make_matrix(rows, field)) == want % field, (field, rows)
                    assert varietylab._det_mod(rows, field) == want % field, (field, rows)


def test_rank_matches_largest_nonzero_minor():
    krng = random.Random(12)
    for field in FIELDS:
        for nr in range(6):
            for nc in range(6):
                for _ in range(6):
                    rows = kernel_rows(krng, nr, nc, field)
                    assert varietylab._rank(rows, field) == minor_rank(rows, field), (
                        field, rows,
                    )
        assert varietylab._rank([], field) == 0
        assert varietylab._rank([[], []], field) == 0


def test_echelon_chain_matches_rank_on_every_prefix():
    # after t insertions, the pivots below column k count the rank of the
    # first t rows on the first k columns; rows planted as zero, repeated,
    # a multiple of an earlier row, or an earlier row shifted one column
    # right (same entries, a later leading column) make ties and drops common
    krng = random.Random(13)
    for field in FIELDS:
        for n in range(1, 7):
            for _ in range(12):
                rows = kernel_rows(krng, n, n, field)
                for i in range(1, n):
                    k, plant = krng.randrange(i), krng.random()
                    if plant < 0.15:
                        rows[i] = [0] * n
                    elif plant < 0.3:
                        rows[i] = [krng.choice((-2, 1, 3)) * x for x in rows[k]]
                    elif plant < 0.45:
                        rows[i] = [0] + rows[k][:-1]
                ints = varietylab._clear(rows)[0] if field is None else [
                    [x % field for x in row] for row in rows]
                before = [list(row) for row in ints]
                pivots = list(varietylab._echelon_chain(ints, field))
                assert ints == before  # no row is modified in place
                assert len(pivots) == n and all(0 <= c <= n for c in pivots)
                for t in range(1, n + 1):
                    for k in range(n + 1):
                        want = varietylab._rank([row[:k] for row in rows[:t]], field)
                        got = sum(c < k for c in pivots[:t])
                        assert got == want, (field, rows, t, k, pivots)


def test_solve_exact_against_rank_oracle():
    krng = random.Random(13)
    outcomes = set()
    # from one row up: a system with no rows does not carry its column count
    for nr in range(1, 6):
        for nc in range(5):
            for _ in range(8):
                A = kernel_rows(krng, nr, nc, None)
                b = [Fraction(krng.randint(-3, 3), krng.choice((1, 2))) for _ in range(nr)]
                r_a = minor_rank(A, None)
                r_ab = minor_rank([row + [y] for row, y in zip(A, b)], None)
                if r_ab > r_a:
                    outcomes.add("inconsistent")
                    assert solve_exact(A, b) is None, (A, b)
                elif r_a < nc:
                    outcomes.add("underdetermined")
                    with pytest.raises(ValueError):
                        solve_exact(A, b)
                else:
                    outcomes.add("unique")
                    x = solve_exact(A, b)
                    assert all(isinstance(t, Fraction) for t in x)
                    assert [sum(a * t for a, t in zip(row, x)) for row in A] == b, (A, b)
    assert outcomes == {"inconsistent", "underdetermined", "unique"}


def test_make_matrix_maps_fractions_into_the_field():
    assert make_matrix([[Fraction(1, 2)]], 3).rows == ((2,),)
    assert make_matrix([[Fraction(-2, 3), 7], [0, -1]], 5).rows == ((1, 2), (0, 4))
    with pytest.raises(ValueError):
        make_matrix([[Fraction(1, 3)]], 3)


def test_deodhar_point_maps_fractions_into_the_field():
    u, v = (1, 2), (2, 1)
    word = regular_tilted_reduced_word(witness_a(u, v), v)
    sub = positive_distinguished_subword(word, u)
    assert sub.jcirc == {1}
    M = deodhar_point(word, sub, {1: Fraction(1, 2)}, field=3)
    assert M.rows == ((1, 0), (2, 1))
    with pytest.raises(ValueError):
        deodhar_point(word, sub, {1: Fraction(1, 3)}, field=3)
    with pytest.raises(ValueError):  # p_1 = 3 is zero in F_3
        deodhar_point(word, sub, {1: 3}, field=3)


# ---------------------------------------------------------------------------
# Deodhar points against the dense product of pinned matrices


def dense_deodhar_point(word, sub, p_map, m_map, field):
    n = word.n
    out = permutation_matrix(identity(n), field)
    for j, f in enumerate(word.factors, start=1):
        if f is BAR:
            continue
        if j in sub.jplus:
            g = sdot_matrix(n, f, field)
        elif j in sub.jcirc:
            g = y_matrix(n, f, p_map[j], field)
        else:
            g = mat_mul(x_matrix(n, f, m_map[j], field), sdot_inverse_matrix(n, f, field))
        out = mat_mul(out, g)
    return out


def test_deodhar_point_matches_dense_product_s4():
    drng = random.Random(14)
    kinds = set()
    for u in all_permutations(4):
        for v in all_permutations(4):
            word = regular_tilted_reduced_word(witness_a(u, v), v)
            for sub in distinguished_subwords(word, u):
                kinds.update(
                    name for name, js in
                    (("+", sub.jplus), ("o", sub.jcirc), ("-", sub.jminus)) if js
                )
                for field in (None, 5):
                    # nonzero in F_5 too: numerators and denominators in 1..4
                    p_map = {
                        j: drng.choice((1, -1)) * Fraction(drng.randint(1, 4), drng.randint(1, 4))
                        for j in sub.jcirc
                    }
                    m_map = {
                        j: Fraction(drng.randint(-4, 4), drng.randint(1, 4))
                        for j in sub.jminus
                    }
                    got = deodhar_point(word, sub, p_map, m_map, field=field)
                    assert got == dense_deodhar_point(word, sub, p_map, m_map, field), (
                        u, v, sub, field,
                    )
    assert kinds == {"+", "o", "-"}


def test_deodhar_point_uses_no_dense_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense product on the Deodhar route")

    monkeypatch.setattr(varietylab, "mat_mul", forbidden)
    monkeypatch.setattr(varietylab, "_phi", forbidden)
    a, v, u = (4, 4, 2, 2), parse_perm("3142"), parse_perm("4231")
    word = tilted_reduced_word(a, v)
    sub = positive_distinguished_subword(word, u)
    M = deodhar_point(word, sub, {5: 2, 6: 3, 7: -5, 11: -7})
    assert M.rows[2] == (14, -2, -1, 0)


def _sign(x):
    return (x > 0) - (x < 0)


def test_minor_table_matches_plucker():
    # the table's Laplace expansion against plucker()'s Bareiss elimination,
    # on every row set: in sign over Q (rows are scaled by positive
    # integers first), exactly over F_p
    trng = random.Random(23)
    for field in (None, 2, 3):
        for n in range(1, 7):
            mats = [make_matrix(kernel_rows(trng, n, n, field), field) for _ in range(4)]
            w = tuple(trng.sample(range(1, n + 1), n))
            mats.append(permutation_matrix(w, field))
            mats.append(make_matrix([[trng.randint(0, 1) for _ in range(n)] for _ in range(n)], field))
            for M in mats:
                minor = varietylab._minor_table(M)
                for mask in range(1 << n):
                    want = plucker(M, [i + 1 for i in range(n) if mask >> i & 1])
                    got = minor[mask]
                    if field is None:
                        assert _sign(got) == _sign(want), (M.rows, mask)
                    else:
                        assert got == want, (M.rows, mask)


def _tnn_by_coordinates(M, a):
    """is_tnn read coordinate by coordinate: plucker() on each row set in
    its shifted-sorted order."""
    n = M.n
    for k in range(1, n + 1):
        signs = {
            _sign(plucker(M, sort_shifted(n, a[k - 1], combo)))
            for combo in itertools.combinations(range(1, n + 1), k)
        }
        if {1, -1} <= signs:
            return False
    return True


def test_is_tnn_matches_the_coordinate_read():
    trng = random.Random(29)
    cases = flipped_tnn = 0
    for n in (2, 3, 3, 4, 4, 4, 5, 5, 5, 6):
        u, v = (tuple(trng.sample(range(1, n + 1), n)) for _ in range(2))
        a, word, sub = positive_word(u, v)
        signs, _ = tnn_signs(word, sub)
        for flips in range(4):
            p_map = {
                j: signs[j] * Fraction(trng.randint(1, 9), trng.randint(1, 9))
                for j in sorted(sub.jcirc)
            }
            for j in trng.sample(sorted(p_map), min(flips, len(p_map))):
                p_map[j] = -p_map[j]
            M = deodhar_point(word, sub, p_map)
            tilts = [a, tuple(trng.randint(1, n) for _ in range(n))]
            for b in tilts:
                assert is_tnn(M, b) == _tnn_by_coordinates(M, b), (u, v, p_map, b)
            cases += 1
            flipped_tnn += bool(flips) and is_tnn(M, a)
            if not flips:
                assert is_tnn(M, a)
        rows = kernel_rows(trng, n, n, None)
        b = tuple(trng.randint(1, n) for _ in range(n))
        assert is_tnn(make_matrix(rows), b) == _tnn_by_coordinates(make_matrix(rows), b)
    assert cases == 40 and flipped_tnn < 10  # most flipped points are not TNN


def test_hot_reads_take_one_minor_table(monkeypatch):
    # the Plücker route and is_tnn read every minor off one table; plucker()
    # stays the Bareiss route for everything else
    tables = []
    real = varietylab._minor_table

    def counted(M):
        tables.append(M)
        return real(M)

    def refuse(*args):
        raise AssertionError("plucker() called")

    monkeypatch.setattr(varietylab, "_minor_table", counted)
    monkeypatch.setattr(varietylab, "plucker", refuse)
    u, v = parse_perm("4231"), parse_perm("3142")
    a, word, sub = positive_word(u, v)
    signs, _ = tnn_signs(word, sub)
    M = deodhar_point(word, sub, {j: signs[j] * Fraction(j, 2) for j in sub.jcirc})
    assert in_tilted_richardson_plucker(M, u, v, open_flag=True, check=False)
    assert is_tnn(M, a)
    assert tables == [M, M]


def test_plucker_route_still_checked_against_the_rank_route(monkeypatch):
    # a table that reads every minor as nonzero puts permutations outside
    # the interval in the support: the route then disagrees with the rank
    # route, which is a consistency failure
    u, v = parse_perm("4231"), parse_perm("3142")
    a, word, sub = positive_word(u, v)
    M = deodhar_point(word, sub, {j: 1 for j in sub.jcirc})
    assert in_tilted_richardson_plucker(M, u, v, open_flag=True)
    monkeypatch.setattr(varietylab, "_minor_table", lambda M: [1] * (1 << M.n))
    assert not in_tilted_richardson_plucker(M, u, v, check=False)
    with pytest.raises(InternalConsistencyError):
        in_tilted_richardson_plucker(M, u, v)


def test_plucker_route_checks_the_gate_before_the_minor_table(monkeypatch):
    from qbruhat.permcore import GateError

    def refuse(M):
        raise AssertionError("2^n table built above the gate")

    monkeypatch.setattr(varietylab, "_minor_table", refuse)
    e = identity(9)
    with pytest.raises(GateError):
        in_tilted_richardson_plucker(permutation_matrix(e), e, e)
