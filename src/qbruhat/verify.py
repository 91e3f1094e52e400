"""The ``verify`` catalogue: identities of the paper checked by independent
routes against each other.

Each property is a row (name, check, exploratory) of ``PROPERTIES``.  A
check takes (n, rng, level) and returns None on success or a
counterexample string; a check that raises fails with the exception as its
detail.  An exploratory check searches for a conjectural statement and only
reports what it found (status "info"); it runs at ``--level full`` only.

A check draws its pairs or triples from ``_cases``: every k-tuple of S_n,
or a seeded sample.  ``_sampled`` picks between them: exhaustive at
``--level full`` or n <= 3, sampled otherwise.  Layer functions are reached
through their modules (``qbgraph.min_degree``, ...), so a wrapper bound on
a module attribute sees the catalogue's calls too.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator, Optional

from .permcore import (
    InternalConsistencyError,
    Perm,
    all_permutations,
    apply_simple,
    apply_transposition,
    format_perm,
)
from . import qbgraph, rpolyhecke, tiltorder, tiltwords, varietylab


def _cases(
    n: int, k: int, rng: random.Random, count: Optional[int] = None
) -> Iterator[tuple[Perm, ...]]:
    """Every k-tuple of S_n if count is None, else count tuples of k seeded
    draws each.  Lazy: a check may draw from rng between two cases."""
    perms = list(all_permutations(n))
    if count is None:
        yield from itertools.product(perms, repeat=k)
        return
    for _ in range(count):
        yield tuple(rng.choice(perms) for _ in range(k))


def _sampled(n: int, level: str, count: int) -> Optional[int]:
    """The sample size for ``_cases``: None (exhaustive) at level full or
    n <= 3, else count."""
    return None if level == "full" or n <= 3 else count


def _prop_graph_reconstruction(n: int, rng: random.Random, level: str) -> Optional[str]:
    edges = list(qbgraph.graph_edges(n))
    strong = sum(1 for *_, wt in edges if not any(wt))
    quantum = len(edges) - strong
    if n == 3 and (strong, quantum) != (8, 7):
        return f"Gamma_3 has {strong} strong / {quantum} quantum edges"
    for w, t, wt in edges:
        if any(wt) and qbgraph.min_degree(w, t) != wt:
            return f"edge weight vs minimal degree mismatch at {w}->{t}"
    return None


def _prop_min_degree(n: int, rng: random.Random, level: str) -> Optional[str]:
    for u, v in _cases(n, 2, rng, _sampled(n, level, 200)):
        qbgraph.min_degree(u, v, check=True)  # raises on disagreement
    return None


def _prop_interval_membership(n: int, rng: random.Random, level: str) -> Optional[str]:
    for u, v, w in _cases(n, 3, rng, _sampled(n, level, 500)):
        tiltorder.in_tilted_interval(u, v, w, check=True)
    return None


def _prop_thin_intervals(n: int, rng: random.Random, level: str) -> Optional[str]:
    for u, v in _cases(n, 2, rng, _sampled(n, level, 200)):
        iv = qbgraph.tilted_interval(u, v)
        if iv.ell == 2 and len(iv.members) != 4:
            return f"rank-2 interval [{format_perm(u)},{format_perm(v)}] is not a diamond"
    return None


def _prop_rpoly_threeway(n: int, rng: random.Random, level: str) -> Optional[str]:
    for u, v in _cases(n, 2, rng, _sampled(n, level, 60)):
        d = rpolyhecke.rtilt_deodhar(u, v)
        if d != rpolyhecke.rtilt_recursive(u, v) or d != rpolyhecke.rtilt_hecke(u, v):
            return f"routes disagree at ({format_perm(u)},{format_perm(v)})"
        if d.degree != qbgraph.ell(u, v) or d.leading_coefficient() != 1:
            return f"degree/monic failure at ({format_perm(u)},{format_perm(v)})"
    return None


def _prop_count_points(n: int, rng: random.Random, level: str) -> Optional[str]:
    for u, v in _cases(min(n, 3), 2, rng):
        c = varietylab.count_points_fq(u, v, 2)
        if c != rpolyhecke.rtilt_deodhar(u, v)(2):
            return f"F_2 count mismatch at ({format_perm(u)},{format_perm(v)})"
    return None


def _prop_deodhar_points(n: int, rng: random.Random, level: str) -> Optional[str]:
    for u, v in _cases(min(n, 4), 2, rng, 20 if level == "fast" else 100):
        a, word, sub = tiltwords.positive_word(u, v)
        p_map = {}
        for j in sub.jcirc:
            val = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            p_map[j] = val if rng.random() < 0.5 else -val
        M = varietylab.deodhar_point(word, sub, p_map)
        if not varietylab.in_tilted_richardson(M, u, v, open_flag=True, a=a):
            return f"Deodhar point escaped T° at ({format_perm(u)},{format_perm(v)})"
    return None


def _prop_tnn(n: int, rng: random.Random, level: str) -> Optional[str]:
    for u, v in _cases(min(n, 4), 2, rng, 15 if level == "fast" else 60):
        a, word, sub = tiltwords.positive_word(u, v)
        signs, _ = varietylab.tnn_signs(word, sub)
        p_map = {
            j: signs[j] * Fraction(rng.randint(1, 7), rng.randint(1, 7))
            for j in sub.jcirc
        }
        M = varietylab.deodhar_point(word, sub, p_map)
        if not varietylab.is_tnn(M, a):
            return f"signed point not TNN at ({format_perm(u)},{format_perm(v)})"
    return None


def _prop_lifting(n: int, rng: random.Random, level: str) -> Optional[str]:
    for u, v in _cases(n, 2, rng, 300 if level == "fast" else 2000):
        a = tuple(rng.randint(1, n) for _ in range(n))
        if not tiltorder.a_lesssim(a, u, v, check=False):
            continue
        for i in range(1, n):
            if (
                tiltorder.a_step_type(a, v, i) == "descent"
                and tiltorder.a_step_type(a, u, i) == "ascent"
            ):
                if not tiltorder.a_lesssim(a, apply_simple(u, i), v, check=False):
                    return f"lifting fails: us_i at a={a}, u={u}, v={v}, i={i}"
                if not tiltorder.a_lesssim(a, u, apply_simple(v, i), check=False):
                    return f"lifting fails: vs_i at a={a}, u={u}, v={v}, i={i}"
    return None


def _prop_word_rank(n: int, rng: random.Random, level: str) -> Optional[str]:
    perms = list(all_permutations(n))
    samples = 5 if level == "fast" else 20
    for _ in range(samples):
        a = tuple(rng.randint(1, n) for _ in range(n))
        for w in perms:
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    if tiltorder.covers(a, w, i, j, "lesssim") == "cover":
                        w2 = apply_transposition(w, i, j)
                        if tiltwords.word_length(a, w2) != tiltwords.word_length(a, w) + 1:
                            return f"word length not a rank function at a={a}, w={w}"
    return None


def _prop_exploratory_leq_ranked(n: int, rng: random.Random, level: str) -> Optional[str]:
    # report-only: search for a non-ranked <=_a poset; never a failure
    found = []
    for _ in range(3):
        a = tuple(rng.randint(1, n) for _ in range(n))
        perms = list(all_permutations(n))
        relation = {
            (u, v)
            for u in perms
            for v in perms
            if u != v and tiltorder.a_leq(a, u, v)
        }
        covers_ct = 0
        for u, v in relation:
            if not any((u, w) in relation and (w, v) in relation for w in perms):
                covers_ct += 1
        found.append((a, covers_ct))
    return "searched " + "; ".join(f"a={a}: {c} covers" for a, c in found)


def _prop_exploratory_nonregular(n: int, rng: random.Random, level: str) -> Optional[str]:
    # report-only: Deodhar sum over non-regular words (conjectured equal)
    tried = agreed = nonregular = 0
    for u, v in _cases(min(n, 4), 2, rng, 25):
        a = tiltorder.witness_a(u, v)
        base = rpolyhecke.rtilt_deodhar(u, v)
        word = tiltwords.regular_tilted_reduced_word(a, v)
        for _ in range(30):
            nbrs = list(tiltwords.word_moves(word))
            if not nbrs:
                break
            word = rng.choice(nbrs)
        tried += 1
        if not tiltwords.is_regular(word):
            nonregular += 1
        if rpolyhecke.rtilt_deodhar(u, v, a=a, word=word) == base:
            agreed += 1
    return f"{agreed}/{tried} words agreed ({nonregular} non-regular); no counterexample"


def _prop_exploratory_increasing_path_formula(
    n: int, rng: random.Random, level: str
) -> Optional[str]:
    # report-only: the conjectural R^tilt formula over label-increasing paths
    # in the tilted interval graph, computed in s with q = s^2
    m = min(n, 3)
    order = qbgraph.default_reflection_order(m)
    matched = checked = 0
    for u, v in _cases(m, 2, rng):
        iv = qbgraph.tilted_interval(u, v)
        total = rpolyhecke.LaurentPoly()
        s = rpolyhecke.LaurentPoly.q_power(1)
        step = s - rpolyhecke.LaurentPoly.q_power(-1)

        def walk(w, start, length_so_far):
            nonlocal total
            if w == v:
                total = total + step ** length_so_far
            for idx in range(start, len(order)):
                i, j = order[idx]
                t = apply_transposition(w, i, j)
                if t in iv.members and t != w and iv.poset_leq(w, t):
                    walk(t, idx + 1, length_so_far + 1)

        walk(u, 0, 0)
        rhs = total.shifted(iv.ell)  # times s^{l(u,v)}
        lhs = rpolyhecke.LaurentPoly(
            {2 * e: c for e, c in rpolyhecke.rtilt_deodhar(u, v).terms.items()}
        )
        checked += 1
        if lhs == rhs:
            matched += 1
    return f"{matched}/{checked} pairs matched the conjectural path formula"


PROPERTIES = [
    ("graph-reconstruction", _prop_graph_reconstruction, False),
    ("min-degree-two-routes", _prop_min_degree, False),
    ("interval-membership-two-routes", _prop_interval_membership, False),
    ("thin-intervals", _prop_thin_intervals, False),
    ("rpoly-three-routes", _prop_rpoly_threeway, False),
    ("fq-count-vs-rpoly", _prop_count_points, False),
    ("deodhar-points-in-variety", _prop_deodhar_points, False),
    ("tnn-parametrization", _prop_tnn, False),
    ("lifting-property", _prop_lifting, False),
    ("word-length-rank-function", _prop_word_rank, False),
    ("exploratory-leq-rankedness", _prop_exploratory_leq_ranked, True),
    ("exploratory-nonregular-deodhar", _prop_exploratory_nonregular, True),
    ("exploratory-increasing-path-rpoly", _prop_exploratory_increasing_path_formula, True),
]


def run_property(item: tuple[str, int, int, str]) -> tuple[dict, bool]:
    """The report of one property, given (name, n, seed, level), and whether
    it failed with an ``InternalConsistencyError``."""
    name, n, seed, level = item
    fn, exploratory = next((fn, ex) for pname, fn, ex in PROPERTIES if pname == name)
    rng = random.Random(seed)
    try:
        detail = fn(n, rng, level)
    except Exception as exc:  # counterexample payloads, not crashes
        report = {"name": name, "status": "fail", "detail": f"{type(exc).__name__}: {exc}"}
        return report, isinstance(exc, InternalConsistencyError)
    if exploratory:
        return {"name": name, "status": "info", "detail": detail or ""}, False
    if detail is None:
        return {"name": name, "status": "pass", "detail": ""}, False
    return {"name": name, "status": "fail", "detail": detail}, False


def run_catalogue(n: int, seed: int, level: str, workers: int) -> tuple[list[dict], bool]:
    """The reports of every property the level runs, sorted by name, and
    whether any of them raised an ``InternalConsistencyError``.  Each
    property gets a fresh ``random.Random(seed)``, so the reports do not
    depend on ``workers``.  The pool starts no more processes than there
    are properties to run."""
    items = [
        (name, n, seed, level)
        for name, _, exploratory in PROPERTIES
        if level == "full" or not exploratory
    ]
    if workers > 1:
        import concurrent.futures

        processes = min(workers, len(items))
        with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(run_property, items))
    else:
        results = [run_property(it) for it in items]
    reports = sorted((report for report, _ in results), key=lambda r: r["name"])
    return reports, any(flag for _, flag in results)
