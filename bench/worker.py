"""One repetition of an in-process workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED REP SIZE MODE

``run.py`` starts this with ``src`` on ``PYTHONPATH``.  The worker imports
qbruhat, draws its inputs from (SEED, REP) and prints ``READY <queries>``
(the parent times set-up up to that line).  With MODE ``setup`` it stops
there.  Otherwise it runs its queries in a closed loop and prints one JSON
line: per-query latencies and classes, failures, a digest of the outputs,
host-speed samples and, when MODE is 1, the tracer's spans and counters.

Only the latency of the query itself is timed; each query's correctness
check and the host-speed samples (``hostspeed.samples_after``) follow after
its clock stops.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from fractions import Fraction

import hostspeed
from qbruhat import (
    permcore,
    qbgraph,
    quantumschub,
    rpolyhecke,
    tiltorder,
    tiltwords,
    varietylab,
)

# Query classes and counts per repetition; "tiny" is the self-test size.
# Over the repetitions of a 20 s run the median falls inside the p50 class
# and the tail point (10 samples beyond it) inside the tail class.  Where a
# class costs the same for every input (BFS tables, F_3 counts), the point
# sits in its lower part: host slowdowns only inflate samples, so a low
# order statistic of such a class moves least.
SIZES = {
    "full": {
        # 3 S_7 sources and 1 S_6 source, each visited 3 times round-robin:
        # the median is the middle of the 24 warm S_7 queries (reverse BFS;
        # their cost grows with the tables held), the tail the second-fastest
        # of the 12 cold S_7 queries
        "qbg-sweep": {"sources": (7, 6, 7, 7), "visits": 3},
        # three-route queries are a tenth of the queries, so that nearly all
        # of the top eleven are theirs and not heavy Deodhar ones; the
        # three-route pairs take v of length l(w0) - 1 or l(w0)
        "rpoly-routes": {"deodhar": (7, 130), "all": (6, 15)},
        "variety-q-fp": {"sample4": 140, "sample5": 42, "count_p": (2, 2, 3, 3, 3), "path5": 1},
    },
    "tiny": {
        "qbg-sweep": {"sources": (5, 4), "visits": 2},
        "rpoly-routes": {"deodhar": (5, 4), "all": (4, 2)},
        "variety-q-fp": {"sample4": 2, "sample5": 1, "count_p": (2,), "path5": 1},
    },
}


class CheckFailed(Exception):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def rand_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def fmt(w) -> str:
    return permcore.format_perm(w)


# ---------------------------------------------------------------------------
# qbg-sweep: BFS tables, the edge test and their caches


def qbg_inputs(rng, size):
    sources = [rand_perm(rng, n) for n in size["sources"]]
    queries = []
    for _ in range(size["visits"]):
        for u in sources:
            n = len(u)
            v = rand_perm(rng, n)
            queries.append(("S%d" % n, (u, v, rng.random(), rand_perm(rng, n))))
    return queries


def qbg_query(kind, args):
    u, v, pick, w_random = args
    d = qbgraph.min_degree(u, v)  # default route: runs its own BFS cross-check
    ell = qbgraph.ell(u, v)
    iv = qbgraph.tilted_interval(u, v)
    # half the probes are interval members, half uniform permutations
    members = sorted(iv.members)
    w = members[int(pick * 2 * len(members))] if pick < 0.5 else w_random
    inside = tiltorder.in_tilted_interval(u, v, w)
    return (d, ell, iv, w, inside)


def qbg_check(kind, args, out):
    u, v = args[0], args[1]
    d, ell, iv, w, inside = out
    check(iv.ell == ell and iv.rank[v] == ell, "ell(u,v) differs from v's interval rank")
    check(inside == (w in iv.members), "witness criterion disagrees with the interval")
    check(
        ell == permcore.length(v) - permcore.length(u) + 2 * sum(d),
        "ell != l(v) - l(u) + 2|d|",
    )
    return (fmt(u), fmt(v), d, ell, len(iv.members), fmt(w), inside)


# ---------------------------------------------------------------------------
# rpoly-routes: Deodhar DP (p50) and the three-route cross-check (tail)


def near_longest(n: int) -> list[tuple[int, ...]]:
    """w0 and the n - 1 permutations w0 s_i, the elements of length >= l(w0) - 1."""
    w0 = tuple(range(n, 0, -1))
    return [w0] + [w0[:i] + (w0[i + 1], w0[i]) + w0[i + 2:] for i in range(n - 1)]


def rpoly_inputs(rng, size):
    """Deodhar queries on uniform pairs; three-route queries on (u, v) with u
    uniform and v of length l(w0) - 1 or l(w0).

    Over uniform S_6 pairs the Hecke route's cost spans 15-540 ms with the
    tilted word lengths, so a few draws would decide a run; with v near the
    longest element, five of six pairs not ending in w0, it stays within
    about 110-280 ms (quartiles 180-205 ms) on a 2-vCPU Xeon.
    """
    n, count = size["deodhar"]
    queries = [("deodhar", (rand_perm(rng, n), rand_perm(rng, n))) for _ in range(count)]
    n, count = size["all"]
    tops = near_longest(n)
    queries += [("all", (rand_perm(rng, n), rng.choice(tops))) for _ in range(count)]
    rng.shuffle(queries)
    return queries


def rpoly_query(method, args):
    u, v = args
    return rpolyhecke.rtilt(u, v, method)  # "all" raises if the routes disagree


def rpoly_check(kind, args, poly):
    u, v = args
    check(bool(poly) and poly.leading_coefficient() == 1, "R-polynomial is not monic")
    check(poly(1) == (1 if u == v else 0), "R-polynomial at q=1 is wrong")
    return (fmt(u), fmt(v), str(poly))


# ---------------------------------------------------------------------------
# variety-q-fp: exact algebra over Q (p50) and over F_p (tail)


def variety_inputs(rng, size):
    queries = []
    for n, key in ((4, "sample4"), (5, "sample5")):
        for _ in range(size[key]):
            u, v = rand_perm(rng, n), rand_perm(rng, n)
            draws = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n * n)]
            queries.append((key, (u, v, draws)))
    for p in size["count_p"]:
        queries.append(("count_p%d" % p, (rand_perm(rng, 4), rand_perm(rng, 4), p)))
    for _ in range(size["path5"]):
        queries.append(("path5", (rand_perm(rng, 5), rand_perm(rng, 5))))
    rng.shuffle(queries)
    return queries


def sample_query(args):
    u, v, draws = args
    a = tiltorder.witness_a(u, v)
    word = tiltwords.regular_tilted_reduced_word(a, v)
    sub = tiltwords.positive_distinguished_subword(word, u)
    signs, _ = varietylab.tnn_signs(word, sub)
    p_map = {j: signs[j] * Fraction(*draws[k]) for k, j in enumerate(sorted(sub.jcirc))}
    M = varietylab.deodhar_point(word, sub, p_map)
    by_rank = varietylab.in_tilted_richardson(M, u, v, open_flag=True)
    by_plucker = varietylab.in_tilted_richardson_plucker(M, u, v, open_flag=True, check=False)
    tnn = varietylab.is_tnn(M, a)
    gw = quantumschub.gw_min_degree(u, v) if len(u) == 4 else None
    return (M, by_rank, by_plucker, tnn, gw)


def variety_query(kind, args):
    if kind.startswith("sample"):
        return sample_query(args)
    if kind == "path5":
        return quantumschub.path_schubert(*args)
    return varietylab.count_points_fq(*args)


def variety_check(kind, args, out):
    if kind.startswith("sample"):
        M, by_rank, by_plucker, tnn, gw = out
        check(by_rank and by_plucker, "Deodhar point is not in T° by both routes")
        check(tnn, "signed Deodhar point is not TNN")
        gw_out = sorted(gw.items()) if gw is not None else None
        return (fmt(args[0]), fmt(args[1]), [[str(x) for x in r] for r in M.rows], gw_out)
    if kind == "path5":
        u, v = args
        d = qbgraph.min_degree(u, v)
        weights = out.q_weights()
        check(d in weights, "no admissible path has the minimal degree")
        check(all(qbgraph.deg_leq(d, w) for w in weights), "a path weighs less than d(u,v)")
        return (fmt(u), fmt(v), sorted(out.terms.items()))
    u, v, p = args
    check(out == rpolyhecke.rtilt_deodhar(u, v)(p), "F_p count != R-polynomial at p")
    return (fmt(u), fmt(v), p, out)


# workload -> (inputs(rng, size), query(kind, args), check(kind, args, out));
# a check raises on a wrong answer and returns the output for the digest.
WORKLOADS = {
    "qbg-sweep": (qbg_inputs, qbg_query, qbg_check),
    "rpoly-routes": (rpoly_inputs, rpoly_query, rpoly_check),
    "variety-q-fp": (variety_inputs, variety_query, variety_check),
}


def main(argv: list[str]) -> None:
    workload, seed, rep, size_name, mode = argv
    make_inputs, query, verify = WORKLOADS[workload]
    rng = random.Random(f"{seed}:{workload}:{rep}")
    queries = make_inputs(rng, SIZES[size_name][workload])
    tracer = originals = None
    if mode == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
    print(f"READY {len(queries)}", flush=True)
    if mode == "setup":
        return

    lat, classes, errors, outputs, ref_ms = [], [], [], [], []
    ref_unit = hostspeed.unit_for(workload)
    clock = time.perf_counter
    for kind, args in queries:
        if tracer is not None:
            tracer.begin_query()
        t0 = clock()
        try:
            out = query(kind, args)
        except Exception:
            lat.append((clock() - t0) * 1e3)
            classes.append(kind)
            errors.append(traceback.format_exc(limit=3))
            outputs.append(None)
            continue
        lat.append((clock() - t0) * 1e3)
        classes.append(kind)
        saved = tracer.snapshot() if tracer is not None else None
        try:
            outputs.append(verify(kind, args, out))
        except Exception:
            errors.append(traceback.format_exc(limit=3))
            outputs.append(None)
        if saved is not None:  # checks are not part of the traced work
            tracer.restore(saved)
        ref_ms += hostspeed.samples_after(lat[-1], ref_unit)

    result = {
        "lat_ms": lat,
        "classes": classes,
        "failed": len(errors),
        "errors": errors[:3],
        "digest": hashlib.sha256(repr(outputs).encode()).hexdigest(),
        "ref_ms": ref_ms,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["trace"]["state"] = tracing.layer_state(originals)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
