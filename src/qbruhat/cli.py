"""Command-line front end.

Verbs: graph, mindeg, interval, order, word, subwords, rpoly, member,
count, sample-deodhar, tnn, gw, descent-cycle, verify.  Text output by
default, JSON via --format json, DOT for graphs and interval posets;
mindeg and gw print JSON only, and accept --format json for symmetry.
Exit codes: 0 success, 1 domain error (including argument errors),
2 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from fractions import Fraction
from typing import Optional

from .permcore import (
    InternalConsistencyError,
    all_permutations,
    apply_simple,
    apply_transposition,
    format_perm,
    parse_perm,
)
from . import qbgraph, quantumschub, rpolyhecke, tiltorder, tiltwords, varietylab


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _size(text: str) -> int:
    """argparse type for n: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"n must be at least 1, got {n}")
    return n


def _parse_tilt(text: str, n: int) -> tuple[int, ...]:
    vals = tuple(int(p) for p in text.split(","))
    return tiltorder.check_tilt(vals, n)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_graph(args) -> int:
    n = args.n
    if args.format == "dot":
        print(qbgraph.graph_dot(n))
        return 0
    edges = [
        {
            "source": format_perm(w),
            "target": format_perm(t),
            "weight": list(wt),
        }
        for w, t, wt in qbgraph.graph_edges(n)
    ]
    if args.format == "json":
        print(json.dumps({"n": n, "edges": edges}))
    else:
        for e in edges:
            label = qbgraph.format_degree(tuple(e["weight"]))
            print(f"{e['source']} -> {e['target']}  [{label}]")
    return 0


def _cmd_mindeg(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    d = qbgraph.min_degree(u, v)
    print(json.dumps({"ell": qbgraph.ell(u, v), "d": list(d)}, separators=(",", ":")))
    return 0


def _cmd_interval(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    iv = qbgraph.tilted_interval(u, v)
    if args.format == "dot":
        print(qbgraph.interval_dot(iv))
    elif args.format == "json":
        print(qbgraph.interval_json(iv))
    else:
        print(f"[{format_perm(u)}, {format_perm(v)}]  ell={iv.ell}")
        for w in sorted(iv.members, key=lambda w: (iv.rank[w], w)):
            print(f"  rank {iv.rank[w]}: {format_perm(w)}")
    return 0


def _cmd_order(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    n = len(u)
    if args.a:
        a = _parse_tilt(args.a, n)
        witness = False
    else:
        a = tiltorder.witness_a(u, v)
        witness = True
    rel = {
        "leq": tiltorder.a_leq,
        "sim": tiltorder.a_sim,
        "lesssim": tiltorder.a_lesssim,
    }[args.relation]
    holds = rel(a, u, v)
    payload = {
        "u": format_perm(u),
        "v": format_perm(v),
        "relation": args.relation,
        "a": list(a),
        "a_is_witness": witness,
        "holds": holds,
    }
    _emit(args, payload, [f"a={','.join(map(str, a))}  {args.relation}: {holds}"])
    return 0


def _cmd_word(args) -> int:
    w = parse_perm(args.w)
    a = _parse_tilt(args.a, len(w))
    build = (
        tiltwords.regular_tilted_reduced_word if args.regular else tiltwords.tilted_reduced_word
    )
    word = build(a, w)
    payload = {
        "a": list(a),
        "w": format_perm(w),
        "word": tiltwords.format_word(word),
        "length": len(word),
        "regular": tiltwords.is_regular(word),
    }
    _emit(args, payload, [tiltwords.format_word(word), f"length {len(word)}"])
    return 0


def _cmd_subwords(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    n = len(u)
    a = _parse_tilt(args.a, n) if args.a else tiltorder.witness_a(u, v)
    build = (
        tiltwords.tilted_reduced_word if args.plain_word else tiltwords.regular_tilted_reduced_word
    )
    word = build(a, v)
    regular = tiltwords.is_regular(word)
    subs = tiltwords.distinguished_subwords(word, u)
    payload = {
        "a": list(a),
        "word": tiltwords.format_word(word),
        "regular": regular,
        "count": len(subs),
        "subwords": [
            {
                "factors": tiltwords.format_subword(s),
                "jplus": sorted(s.jplus),
                "jcirc": sorted(s.jcirc),
                "jminus": sorted(s.jminus),
            }
            for s in subs
        ],
    }
    lines = [f"word: {tiltwords.format_word(word)}"]
    if not regular:
        lines.append("note: word is not regular; Deodhar indexing is conjectural here")
    lines.append(f"{len(subs)} distinguished subwords:")
    for s in subs:
        lines.append(
            f"  {tiltwords.format_subword(s)}   |Jo|={len(s.jcirc)} |J-|={len(s.jminus)}"
        )
    _emit(args, payload, lines)
    return 0


def _cmd_rpoly(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    if args.method == "all":
        d = rpolyhecke.rtilt_deodhar(u, v)
        r = rpolyhecke.rtilt_recursive(u, v)
        h = rpolyhecke.rtilt_hecke(u, v)
        agree = d == r == h
        payload = {
            "deodhar": str(d),
            "recursive": str(r),
            "hecke": str(h),
            "agree": agree,
        }
        _emit(
            args,
            payload,
            [f"deodhar:   {d}", f"recursive: {r}", f"hecke:     {h}",
             f"agreement: {'yes' if agree else 'NO'}"],
        )
        if not agree:
            raise InternalConsistencyError("tilted R-polynomial routes disagree")
        return 0
    poly = rpolyhecke.rtilt(u, v, args.method)
    _emit(args, {"method": args.method, "poly": str(poly)}, [str(poly)])
    return 0


def _cmd_member(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    if args.matrix == "-":
        text = sys.stdin.read()
    else:
        with open(args.matrix) as fh:
            text = fh.read()
    M = varietylab.matrix_from_json(text, field=args.p)
    rank_route = varietylab.in_tilted_richardson(M, u, v, open_flag=args.open)
    plucker_route = varietylab.in_tilted_richardson_plucker(
        M, u, v, open_flag=args.open
    )
    payload = {
        "member": rank_route,
        "open": args.open,
        "routes_agree": rank_route == plucker_route,
    }
    _emit(args, payload, [f"member: {rank_route} (rank and Plücker routes agree)"])
    return 0


def _cmd_count(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    c = varietylab.count_points_fq(u, v, args.p)
    _emit(args, {"p": args.p, "count": c}, [str(c)])
    return 0


def _cmd_sample_deodhar(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    rng = random.Random(args.seed)
    a = tiltorder.witness_a(u, v)
    word = tiltwords.regular_tilted_reduced_word(a, v)
    sub = tiltwords.positive_distinguished_subword(word, u)
    signs, _ = varietylab.tnn_signs(word, sub)

    def draw() -> Fraction:
        num = rng.randint(1, 9)
        den = rng.randint(1, 9)
        return Fraction(num, den)

    p_map = {j: signs[j] * draw() for j in sorted(sub.jcirc)}
    M = varietylab.deodhar_point(word, sub, p_map)
    ok = varietylab.in_tilted_richardson(M, u, v, open_flag=True)
    payload = {
        "seed": args.seed,
        "a": list(a),
        "word": tiltwords.format_word(word),
        "params": {str(j): str(p_map[j]) for j in sorted(p_map)},
        "matrix": [[str(x) for x in row] for row in M.rows],
        "in_open_variety": ok,
    }
    lines = [f"seed {args.seed}", varietylab.matrix_to_json(M), f"in T°: {ok}"]
    _emit(args, payload, lines)
    return 0 if ok else 2


def _cmd_tnn(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    a = _parse_tilt(args.a, len(u)) if args.a else tiltorder.witness_a(u, v)
    word = tiltwords.regular_tilted_reduced_word(a, v)
    sub = tiltwords.positive_distinguished_subword(word, u)
    signs, trace = varietylab.tnn_signs(word, sub)
    payload = {
        "a": list(a),
        "word": tiltwords.format_word(word),
        "signs": {str(j): signs[j] for j in sorted(signs)},
        "trace": ["".join("+" if s > 0 else "-" for s in t) for t in trace],
    }
    lines = [f"word: {tiltwords.format_word(word)}"]
    lines.append(
        "signs: " + " ".join(f"p{j}:{'+' if signs[j] > 0 else '-'}" for j in sorted(signs))
    )
    for step, t in enumerate(trace):
        lines.append(f"  sign^({step}) = ({','.join('+' if s > 0 else '-' for s in t)})")
    _emit(args, payload, lines)
    return 0


def _cmd_gw(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    d = qbgraph.min_degree(u, v)
    coeffs = quantumschub.gw_min_degree(u, v)
    payload = {
        "d": list(d),
        "coeffs": {format_perm(w): c for w, c in sorted(coeffs.items())},
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_descent_cycle(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    rep = quantumschub.check_descent_cycling(u, v, args.i)
    payload = {
        "ok": rep["ok"],
        "vacuous": rep["vacuous"],
        "violations": [
            {"kind": k, "w": format_perm(w), "data": str(data)}
            for k, w, data in rep["violations"]
        ],
    }
    _emit(
        args,
        payload,
        [
            f"descent-cycling at i={args.i}: {'pass' if rep['ok'] else 'FAIL'}"
            + (" (vacuous)" if rep["vacuous"] else "")
        ],
    )
    return 0 if rep["ok"] else 2


# ---------------------------------------------------------------------------
# the verify catalogue


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
    perms = list(all_permutations(n))
    pairs = (
        [(u, v) for u in perms for v in perms]
        if level == "full" or n <= 3
        else [(rng.choice(perms), rng.choice(perms)) for _ in range(200)]
    )
    for u, v in pairs:
        qbgraph.min_degree(u, v, check=True)  # raises on disagreement
    return None


def _prop_interval_membership(n: int, rng: random.Random, level: str) -> Optional[str]:
    perms = list(all_permutations(n))
    triples = (
        [(u, v, w) for u in perms for v in perms for w in perms]
        if level == "full" or n <= 3
        else [tuple(rng.choice(perms) for _ in range(3)) for _ in range(500)]
    )
    for u, v, w in triples:
        tiltorder.in_tilted_interval(u, v, w, check=True)
    return None


def _prop_thin_intervals(n: int, rng: random.Random, level: str) -> Optional[str]:
    perms = list(all_permutations(n))
    for u in perms:
        for v in perms:
            iv = qbgraph.tilted_interval(u, v)
            if iv.ell == 2 and len(iv.members) != 4:
                return f"rank-2 interval [{format_perm(u)},{format_perm(v)}] is not a diamond"
    return None


def _prop_rpoly_threeway(n: int, rng: random.Random, level: str) -> Optional[str]:
    perms = list(all_permutations(n))
    pairs = (
        [(u, v) for u in perms for v in perms]
        if level == "full" or n <= 3
        else [(rng.choice(perms), rng.choice(perms)) for _ in range(60)]
    )
    for u, v in pairs:
        d = rpolyhecke.rtilt_deodhar(u, v)
        if d != rpolyhecke.rtilt_recursive(u, v) or d != rpolyhecke.rtilt_hecke(u, v):
            return f"routes disagree at ({format_perm(u)},{format_perm(v)})"
        if d.degree != qbgraph.ell(u, v) or d.leading_coefficient() != 1:
            return f"degree/monic failure at ({format_perm(u)},{format_perm(v)})"
    return None


def _prop_count_points(n: int, rng: random.Random, level: str) -> Optional[str]:
    m = min(n, 3)
    perms = list(all_permutations(m))
    for u in perms:
        for v in perms:
            c = varietylab.count_points_fq(u, v, 2)
            if c != rpolyhecke.rtilt_deodhar(u, v)(2):
                return f"F_2 count mismatch at ({format_perm(u)},{format_perm(v)})"
    return None


def _prop_deodhar_points(n: int, rng: random.Random, level: str) -> Optional[str]:
    m = min(n, 4)
    perms = list(all_permutations(m))
    draws = 20 if level == "fast" else 100
    for _ in range(draws):
        u, v = rng.choice(perms), rng.choice(perms)
        a = tiltorder.witness_a(u, v)
        word = tiltwords.regular_tilted_reduced_word(a, v)
        sub = tiltwords.positive_distinguished_subword(word, u)
        p_map = {}
        for j in sub.jcirc:
            val = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            p_map[j] = val if rng.random() < 0.5 else -val
        M = varietylab.deodhar_point(word, sub, p_map)
        if not varietylab.in_tilted_richardson(M, u, v, open_flag=True, a=a):
            return f"Deodhar point escaped T° at ({format_perm(u)},{format_perm(v)})"
    return None


def _prop_tnn(n: int, rng: random.Random, level: str) -> Optional[str]:
    m = min(n, 4)
    perms = list(all_permutations(m))
    draws = 15 if level == "fast" else 60
    for _ in range(draws):
        u, v = rng.choice(perms), rng.choice(perms)
        a = tiltorder.witness_a(u, v)
        word = tiltwords.regular_tilted_reduced_word(a, v)
        sub = tiltwords.positive_distinguished_subword(word, u)
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
    perms = list(all_permutations(n))
    trials = 300 if level == "fast" else 2000
    for _ in range(trials):
        u, v = rng.choice(perms), rng.choice(perms)
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
    perms = list(all_permutations(min(n, 4)))
    tried = agreed = nonregular = 0
    for _ in range(25):
        u, v = rng.choice(perms), rng.choice(perms)
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
    perms = list(all_permutations(m))
    matched = checked = 0
    for u in perms:
        for v in perms:
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
                {2 * e: c for e, c in rpolyhecke.rtilt_deodhar(u, v).coeffs.items()}
            )
            checked += 1
            if lhs == rhs:
                matched += 1
    return f"{matched}/{checked} pairs matched the conjectural path formula"


_PROPERTIES = [
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


def _run_property(item: tuple[str, int, int, str]) -> tuple[dict, bool]:
    """The report of one property, and whether it failed with an
    ``InternalConsistencyError`` (which sets verify's exit code to 2)."""
    name, n, seed, level = item
    fn, informational = next(
        (fn, info) for pname, fn, info in _PROPERTIES if pname == name
    )
    rng = random.Random(seed)
    try:
        detail = fn(n, rng, level)
    except Exception as exc:  # counterexample payloads, not crashes
        report = {"name": name, "status": "fail", "detail": f"{type(exc).__name__}: {exc}"}
        return report, isinstance(exc, InternalConsistencyError)
    if informational:
        return {"name": name, "status": "info", "detail": detail or ""}, False
    if detail is None:
        return {"name": name, "status": "pass", "detail": ""}, False
    return {"name": name, "status": "fail", "detail": detail}, False


def _cmd_verify(args) -> int:
    n = args.n
    names = [name for name, _, info in _PROPERTIES if args.level == "full" or not info]
    items = [(name, n, args.seed, args.level) for name in names]
    if args.workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_run_property, items))
    else:
        results = [_run_property(it) for it in items]
    reports = [report for report, _ in results]
    inconsistent = any(flag for _, flag in results)
    reports.sort(key=lambda r: r["name"])
    failed = [r for r in reports if r["status"] == "fail"]
    if args.format == "json":
        print(
            json.dumps(
                {"n": n, "seed": args.seed, "level": args.level, "reports": reports},
                sort_keys=True,
            )
        )
    else:
        print(f"verify level={args.level} n={n} seed={args.seed}")
        for r in reports:
            tag = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[r["status"]]
            line = f"[{tag}] {r['name']}"
            if r["detail"]:
                line += f"  {r['detail']}"
            print(line)
    if inconsistent:
        return 2
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> _Parser:
    parser = _Parser(prog="qbruhat")
    parser.add_argument("--config", help="JSON file of gate overrides (flags win)")
    parser.add_argument("--max-n", type=int, help="override the graph gate")
    parser.add_argument("--max-count-n", type=int, help="override the counting gate")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("graph")
    p.add_argument("n", type=_size)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("mindeg")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(fn=_cmd_mindeg)

    p = sub.add_parser("interval")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(fn=_cmd_interval)

    p = sub.add_parser("order")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--a", help="comma-separated tilt; defaults to the witness")
    p.add_argument(
        "--relation", choices=["leq", "sim", "lesssim"], default="lesssim"
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("word")
    p.add_argument("a", help="comma-separated tilt")
    p.add_argument("w")
    p.add_argument("--regular", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_word)

    p = sub.add_parser("subwords")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--a")
    p.add_argument("--plain-word", action="store_true", help="use the non-regular construction")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_subwords)

    p = sub.add_parser("rpoly")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument(
        "--method", choices=["deodhar", "recursive", "hecke", "all"], default="deodhar"
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_rpoly)

    p = sub.add_parser("member")
    p.add_argument("matrix", help="path to matrix JSON, or - for stdin")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--open", action="store_true")
    p.add_argument("--p", type=int, help="prime field; rationals if omitted")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("count")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("sample-deodhar")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_sample_deodhar)

    p = sub.add_parser("tnn")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--a")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_tnn)

    p = sub.add_parser("gw")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(fn=_cmd_gw)

    p = sub.add_parser("descent-cycle")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("i", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_descent_cycle)

    p = sub.add_parser("verify")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.add_argument("--n", type=_size, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_verify)

    return parser


@contextlib.contextmanager
def _gate_overrides(args):
    """Set the gate overrides in os.environ for one call, then restore them.

    Variables already in the environment win over --config; --max-n and
    --max-count-n win over both.
    """
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            for key, val in json.load(fh).items():
                if key not in os.environ:
                    overrides[key] = str(val)
    if args.max_n is not None:
        overrides["QBRUHAT_MAX_N"] = str(args.max_n)
    if args.max_count_n is not None:
        overrides["QBRUHAT_MAX_COUNT_N"] = str(args.max_count_n)
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, old in saved.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _gate_overrides(args):
            return args.fn(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
