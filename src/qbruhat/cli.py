"""Command-line front end: argument parsing, dispatch and output formatting.

``_VERBS`` is the verb table: each entry gives a verb's handler, its
--format choices (the first is the default) and its arguments, and
``build_parser`` adds one subparser per entry.  Text output by default,
JSON via --format json, DOT for graphs and interval posets; mindeg and gw
print JSON only, and accept --format json for symmetry.  Exit codes: 0
success, 1 domain error (including argument errors), 2 internal-consistency
failure.

Every handler keeps one contract: it takes the parsed arguments, with
``u``, ``v`` and ``w`` already permutations, and returns its report
``(payload, lines, code)``; it prints nothing and never exits.  ``run``
does the rest once for every verb: after the gate check it parses the
permutations, calls the handler, prints ``lines`` for text and dot, or
``payload`` for JSON (a dict sorted by key, a str as it stands), and
returns ``code``.  A code that is an ``InternalConsistencyError`` is
raised after the report is printed, so that report exits 2 with its
stderr line.

Every call is a new process, so each handler imports the layers it calls
when it runs (``from . import qbgraph`` inside the handler) and only
``permcore`` loads with this module: ``mindeg`` compiles and loads
``qbgraph`` alone, while ``verify`` loads every layer but ``quantumschub``.

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
import sys
from typing import Optional

from .permcore import GATES, InternalConsistencyError, format_perm, gate, parse_perm


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _at_least_one(name: str):
    """argparse type for ``name``: an integer >= 1, failing in the words
    argparse uses for ``type=int`` when the text is not an integer."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1, got {value}")
        return value

    return parse


def _parse_tilt(text: str, n: int) -> tuple[int, ...]:
    from . import tiltorder

    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"tilt must be comma-separated integers, got {text!r}") from None
    return tiltorder.check_tilt(vals, n)


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_graph(args):
    from . import qbgraph

    if args.format == "dot":
        return None, [qbgraph.graph_dot(args.n)], 0
    edges = [
        {"source": format_perm(w), "target": format_perm(t), "weight": list(wt)}
        for w, t, wt in qbgraph.graph_edges(args.n)
    ]
    if args.format == "json":
        return json.dumps({"n": args.n, "edges": edges}), None, 0
    label = qbgraph.format_degree
    return None, [f"{e['source']} -> {e['target']}  [{label(e['weight'])}]" for e in edges], 0


def _cmd_mindeg(args):
    from . import qbgraph

    ell = qbgraph.ell(args.u, args.v)  # checks the gate before the cross-checked walk
    d = qbgraph.min_degree(args.u, args.v)
    return json.dumps({"ell": ell, "d": list(d)}, separators=(",", ":")), None, 0


def _cmd_interval(args):
    from . import qbgraph

    iv = qbgraph.tilted_interval(args.u, args.v)
    if args.format == "json":
        return qbgraph.interval_json(iv), None, 0
    if args.format == "dot":
        return None, [qbgraph.interval_dot(iv)], 0
    head = f"[{format_perm(args.u)}, {format_perm(args.v)}]  ell={iv.ell}"
    return None, [head, *(f"  rank {r}: {w}" for r, w in qbgraph.ranked_members(iv))], 0


def _cmd_order(args):
    from . import tiltorder

    u, v = args.u, args.v
    if args.a is not None:
        a = _parse_tilt(args.a, len(u))
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
    return payload, [f"a={','.join(map(str, a))}  {args.relation}: {holds}"], 0


def _cmd_word(args):
    from . import tiltwords

    a = _parse_tilt(args.a, len(args.w))
    build = (
        tiltwords.regular_tilted_reduced_word if args.regular else tiltwords.tilted_reduced_word
    )
    word = build(a, args.w)
    payload = {
        "a": list(a),
        "w": format_perm(args.w),
        "word": tiltwords.format_word(word),
        "length": len(word),
        "regular": tiltwords.is_regular(word),
    }
    return payload, [tiltwords.format_word(word), f"length {len(word)}"], 0


def _cmd_subwords(args):
    from . import tiltorder, tiltwords

    u, v = args.u, args.v
    a = _parse_tilt(args.a, len(u)) if args.a is not None else tiltorder.witness_a(u, v)
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
    return payload, lines, 0


def _cmd_rpoly(args):
    from . import rpolyhecke

    if args.method != "all":
        poly = str(rpolyhecke.rtilt(args.u, args.v, args.method))
        return {"method": args.method, "poly": poly}, [poly], 0
    routes = rpolyhecke.rtilt_routes(args.u, args.v)
    d, r, h = routes.values()
    agree = d == r == h
    payload = {**{name: str(poly) for name, poly in routes.items()}, "agree": agree}
    lines = [f"{name + ':':11}{poly}" for name, poly in routes.items()]
    lines.append(f"agreement: {'yes' if agree else 'NO'}")
    if not agree:
        return payload, lines, InternalConsistencyError("tilted R-polynomial routes disagree")
    return payload, lines, 0


def _cmd_member(args):
    from . import varietylab

    if args.matrix == "-":
        text = sys.stdin.read()
    else:
        with open(args.matrix) as fh:
            text = fh.read()
    M = varietylab.matrix_from_json(text, field=args.p)
    # the Plücker route checks itself against the rank route, raising on
    # disagreement, so the routes agree whenever it returns
    member = varietylab.in_tilted_richardson_plucker(M, args.u, args.v, open_flag=args.open)
    payload = {"member": member, "open": args.open, "routes_agree": True}
    return payload, [f"member: {member} (rank and Plücker routes agree)"], 0


def _cmd_count(args):
    from . import varietylab

    c = varietylab.count_points_fq(args.u, args.v, args.p)
    return {"p": args.p, "count": c}, [str(c)], 0


def _cmd_sample_deodhar(args):
    import random
    from fractions import Fraction

    from . import tiltwords, varietylab

    rng = random.Random(args.seed)
    a, word, sub = tiltwords.positive_word(args.u, args.v)
    signs, _ = varietylab.tnn_signs(word, sub)

    def draw() -> Fraction:
        num = rng.randint(1, 9)
        den = rng.randint(1, 9)
        return Fraction(num, den)

    p_map = {j: signs[j] * draw() for j in sorted(sub.jcirc)}
    M = varietylab.deodhar_point(word, sub, p_map)
    ok = varietylab.in_tilted_richardson(M, args.u, args.v, open_flag=True)
    payload = {
        "seed": args.seed,
        "a": list(a),
        "word": tiltwords.format_word(word),
        "params": {str(j): str(p_map[j]) for j in sorted(p_map)},
        "matrix": [[str(x) for x in row] for row in M.rows],
        "in_open_variety": ok,
    }
    lines = [f"seed {args.seed}", varietylab.matrix_to_json(M), f"in T°: {ok}"]
    return payload, lines, 0 if ok else 2


def _cmd_tnn(args):
    from . import tiltwords, varietylab

    a = _parse_tilt(args.a, len(args.u)) if args.a is not None else None
    a, word, sub = tiltwords.positive_word(args.u, args.v, a)
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
    return payload, lines, 0


def _cmd_gw(args):
    from . import qbgraph, quantumschub

    d = qbgraph.min_degree(args.u, args.v)
    coeffs = quantumschub.gw_min_degree(args.u, args.v)
    payload = {
        "d": list(d),
        "coeffs": {format_perm(w): c for w, c in sorted(coeffs.items())},
    }
    return payload, None, 0


def _cmd_descent_cycle(args):
    from . import quantumschub

    rep = quantumschub.check_descent_cycling(args.u, args.v, args.i)
    payload = {
        "ok": rep["ok"],
        "vacuous": rep["vacuous"],
        "violations": [
            {"kind": k, "w": format_perm(w), "data": str(data)}
            for k, w, data in rep["violations"]
        ],
    }
    line = f"descent-cycling at i={args.i}: {'pass' if rep['ok'] else 'FAIL'}"
    return payload, [line + (" (vacuous)" if rep["vacuous"] else "")], 0 if rep["ok"] else 2


def _cmd_verify(args):
    from . import verify

    reports, inconsistent = verify.run_catalogue(args.n, args.seed, args.level, args.workers)
    payload = {"n": args.n, "seed": args.seed, "level": args.level, "reports": reports}
    lines = [f"verify level={args.level} n={args.n} seed={args.seed}"]
    for r in reports:
        tag = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[r["status"]]
        line = f"[{tag}] {r['name']}"
        if r["detail"]:
            line += f"  {r['detail']}"
        lines.append(line)
    failed = [r for r in reports if r["status"] == "fail"]
    return payload, lines, 2 if inconsistent else 1 if failed else 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _arg(*names: str, **kwargs) -> tuple:
    """One argument of a verb: add_argument's names and keywords."""
    return names, kwargs


_UV = (_arg("u"), _arg("v"))
_TEXT_JSON = ("text", "json")
_ALL_FORMATS = ("text", "json", "dot")

# verb: (handler, --format choices, arguments); the arguments are added in
# order, then --format
_VERBS = {
    "graph": (_cmd_graph, _ALL_FORMATS, [_arg("n", type=_at_least_one("n"))]),
    "mindeg": (_cmd_mindeg, ("json",), _UV),
    "interval": (_cmd_interval, _ALL_FORMATS, _UV),
    "order": (_cmd_order, _TEXT_JSON, [
        *_UV,
        _arg("--a", help="comma-separated tilt; defaults to the witness"),
        _arg("--relation", choices=["leq", "sim", "lesssim"], default="lesssim"),
    ]),
    "word": (_cmd_word, _TEXT_JSON, [
        _arg("a", help="comma-separated tilt"),
        _arg("w"),
        _arg("--regular", action="store_true"),
    ]),
    "subwords": (_cmd_subwords, _TEXT_JSON, [
        *_UV,
        _arg("--a"),
        _arg("--plain-word", action="store_true", help="use the non-regular construction"),
    ]),
    "rpoly": (_cmd_rpoly, _TEXT_JSON, [
        *_UV,
        _arg("--method", choices=["deodhar", "recursive", "hecke", "all"], default="deodhar"),
    ]),
    "member": (_cmd_member, _TEXT_JSON, [
        _arg("matrix", help="path to matrix JSON, or - for stdin"),
        *_UV,
        _arg("--open", action="store_true"),
        _arg("--p", type=int, help="prime field; rationals if omitted"),
    ]),
    "count": (_cmd_count, _TEXT_JSON, [*_UV, _arg("--p", type=int, required=True)]),
    "sample-deodhar": (
        _cmd_sample_deodhar, _TEXT_JSON, [*_UV, _arg("--seed", type=int, default=0)]
    ),
    "tnn": (_cmd_tnn, _TEXT_JSON, [*_UV, _arg("--a")]),
    "gw": (_cmd_gw, ("json",), _UV),
    "descent-cycle": (_cmd_descent_cycle, _TEXT_JSON, [*_UV, _arg("i", type=int)]),
    "verify": (_cmd_verify, _TEXT_JSON, [
        _arg("--level", choices=["fast", "full"], default="fast"),
        _arg("--n", type=_at_least_one("n"), default=3),
        _arg("--seed", type=int, default=0),
        _arg("--workers", type=_at_least_one("workers"), default=1),
    ]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="qbruhat")
    parser.add_argument("--config", help="JSON file of gate overrides (flags win)")
    parser.add_argument("--max-n", type=int, help="override the graph gate")
    parser.add_argument("--max-count-n", type=int, help="override the counting gate")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (fn, formats, arguments) in _VERBS.items():
        p = sub.add_parser(verb)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(fn=fn)
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
            for name in ("u", "v", "w"):
                if hasattr(args, name):
                    setattr(args, name, parse_perm(getattr(args, name)))
            payload, lines, code = args.fn(args)
        if args.format == "json":
            print(payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True))
        else:
            for line in lines:
                print(line)
        if isinstance(code, InternalConsistencyError):
            raise code
        return code
    except SystemExit as exc:  # argparse's --help action: help printed, status 0
        return exc.code
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
