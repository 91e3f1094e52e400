"""Command-line front end: argument parsing, dispatch and output formatting.

Verbs: graph, mindeg, interval, order, word, subwords, rpoly, member,
count, sample-deodhar, tnn, gw, descent-cycle, verify.  Text output by
default, JSON via --format json, DOT for graphs and interval posets;
mindeg and gw print JSON only, and accept --format json for symmetry.
Exit codes: 0 success, 1 domain error (including argument errors),
2 internal-consistency failure.

The verify catalogue lives in ``verify``; this module formats its reports.
The size gates (``permcore.GATES``) are read from the environment; --max-n,
--max-count-n and --config set it for one call, and every gate value is
checked before any verb runs.
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

from .permcore import GATES, InternalConsistencyError, format_perm, gate, parse_perm
from . import qbgraph, quantumschub, rpolyhecke, tiltorder, tiltwords, varietylab, verify


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


def _workers(text: str) -> int:
    """argparse type for --workers: an integer >= 1."""
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {workers}")
    return workers


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
    # the Plücker route checks itself against the rank route, raising on
    # disagreement, so the routes agree whenever it returns
    member = varietylab.in_tilted_richardson_plucker(M, u, v, open_flag=args.open)
    payload = {"member": member, "open": args.open, "routes_agree": True}
    _emit(args, payload, [f"member: {member} (rank and Plücker routes agree)"])
    return 0


def _cmd_count(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    c = varietylab.count_points_fq(u, v, args.p)
    _emit(args, {"p": args.p, "count": c}, [str(c)])
    return 0


def _cmd_sample_deodhar(args) -> int:
    u, v = parse_perm(args.u), parse_perm(args.v)
    rng = random.Random(args.seed)
    a, word, sub = tiltwords.positive_word(u, v)
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
    a = _parse_tilt(args.a, len(u)) if args.a else None
    a, word, sub = tiltwords.positive_word(u, v, a)
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


def _cmd_verify(args) -> int:
    n = args.n
    reports, inconsistent = verify.run_catalogue(n, args.seed, args.level, args.workers)
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
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_verify)

    return parser


@contextlib.contextmanager
def _gate_overrides(args):
    """Set the gate overrides in os.environ for one call, then restore them.

    The config is a JSON object whose keys are gate variables and whose
    values are integers; anything else is a ValueError.  Variables already
    in the environment win over --config; --max-n and --max-count-n win
    over both.
    """
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: the config must be a JSON object")
        unknown = sorted(set(config) - set(GATES))
        if unknown:
            raise ValueError(f"{args.config}: not a gate variable: {', '.join(unknown)}")
        for key, val in config.items():
            if isinstance(val, bool) or not isinstance(val, int):
                raise ValueError(f"{args.config}: {key} must be an integer, got {val!r}")
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
            for var in GATES:
                gate(var)  # a value that is not an integer fails here, for any verb
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
