"""In-memory span tracer for the qbruhat benchmark.

The tracer wraps public functions of the qbruhat modules from the outside;
nothing under ``src/`` changes.  A module that imported a function by name
holds its own binding, so every binding of the original object in every
qbruhat module is replaced.

Spans are aggregated per name as they close: calls, total time and self
time (the span's time minus the time of the spans it caused).  Counters
record work at the same boundaries.  Everything stays in memory until
``snapshot()`` is called at the end of a repetition.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

QBRUHAT_MODULES = (
    "permcore",
    "qbgraph",
    "tiltorder",
    "tiltwords",
    "rpolyhecke",
    "varietylab",
    "quantumschub",
    "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # child time of each open span
        self._built_this_query: set = set()

    def begin_query(self) -> None:
        """Mark a query boundary (for cross-query cache reuse)."""
        self._built_this_query.clear()

    def wrap(self, name, fn, after=None):
        """Time ``fn`` as a span.  ``name`` is a string or a function of the
        call's ``(args, kwargs)``; ``after(args, result)`` records counts."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = spans.get(label)
                if rec is None:
                    rec = spans[label] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def count_calls(self, name, fn):
        """Count calls of ``fn`` without timing them (for very hot callees)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def count_yields(self, name, fn):
        """Count the items a generator function yields."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return functools.update_wrapper(wrapper, fn)

    def wrap_bfs_cache(self, name, cached):
        """Span around an ``lru_cache``-wrapped BFS.  Hits and misses are read
        from the cache's own ``cache_info()``; a hit on a table built by an
        earlier query counts as reuse."""
        counts = self.counts
        built = self._built_this_query

        def after(args, result, before):
            info = cached.cache_info()
            counts["qbgraph.bfs.lookups"] += 1
            key = (name, args)
            if info.misses > before.misses:
                counts["qbgraph.bfs.traversals"] += 1
                counts["qbgraph.bfs.vertices"] += len(result)
                built.add(key)
            else:
                counts["qbgraph.bfs.hits"] += 1
                if key not in built:
                    counts["qbgraph.bfs.reused"] += 1

        timed = self.wrap("qbgraph.bfs", cached)

        def wrapper(*args):
            before = cached.cache_info()
            result = timed(*args)
            after(args, result, before)
            return result

        return functools.update_wrapper(wrapper, cached)

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
        }

    def restore(self, saved: dict) -> None:
        """Drop everything recorded since ``saved`` was taken.  The wrappers
        hold these containers, so they are refilled in place."""
        self.spans.clear()
        self.spans.update({k: list(v) for k, v in saved["spans"].items()})
        self.counts.clear()
        self.counts.update(saved["counts"])


def _modules():
    return [sys.modules[f"qbruhat.{m}"] for m in QBRUHAT_MODULES if f"qbruhat.{m}" in sys.modules]


def _rebind(orig, replacement) -> None:
    for mod in _modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> dict:
    """Wrap the layer boundaries of every imported qbruhat module.

    Returns the original cached BFS functions and the recursion memo, which
    ``layer_state`` reads at the end of a repetition.
    """
    import qbruhat.cli  # noqa: F401  (imports every layer)
    from qbruhat import (
        permcore,
        qbgraph,
        quantumschub,
        rpolyhecke,
        tiltorder,
        tiltwords,
        varietylab,
    )

    counts = tracer.counts

    def add(key, n):
        counts[key] += n

    timed = [
        (permcore, "length", "permcore.length", None),
        (qbgraph, "edge_weight", "qbgraph.edge_weight", None),
        (qbgraph, "edges_from", "qbgraph.edges_from", None),
        (qbgraph, "min_degree", "qbgraph.min_degree", None),
        (qbgraph, "tilted_interval", "qbgraph.tilted_interval",
         lambda a, r: add("qbgraph.interval.members", len(r.members))),
        (tiltorder, "witness_a", "tiltorder.witness_a", None),
        (tiltorder, "a_lesssim", "tiltorder.a_lesssim", None),
        (tiltwords, "tilted_reduced_word", "tiltwords.words", None),
        (tiltwords, "regular_tilted_reduced_word", "tiltwords.words", None),
        (tiltwords, "distinguished_subwords", "tiltwords.subwords",
         lambda a, r: add("tiltwords.subwords.count", len(r))),
        (tiltwords, "positive_distinguished_subword", "tiltwords.subwords",
         lambda a, r: add("tiltwords.subwords.count", 1)),
        (rpolyhecke, "rtilt_deodhar", "rpolyhecke.deodhar", None),
        (rpolyhecke, "rtilt_recursive", "rpolyhecke.recursive", None),
        (rpolyhecke, "rtilt_hecke", "rpolyhecke.hecke", None),
        (varietylab, "_det_fractions", "varietylab.det.q", None),
        (varietylab, "_det_mod", "varietylab.det.fp", None),
        (varietylab, "_rank",  # _rank(rows, field)
         lambda args, kw: "varietylab.rank" + (".q" if args[1] is None else ".fp"), None),
        (varietylab, "mat_mul", "varietylab.mat_mul", None),
        (varietylab, "plucker", "varietylab.plucker", None),
        (varietylab, "deodhar_point", "varietylab.deodhar_point", None),
        (varietylab, "in_tilted_richardson",  # (M, u, v, ...)
         lambda args, kw: "varietylab.membership.rank" + ("" if args[0].field is None else ".fp"),
         None),
        (varietylab, "in_tilted_richardson_plucker", "varietylab.membership.plucker", None),
        (varietylab, "is_tnn", "varietylab.is_tnn", None),
        (varietylab, "solve_exact", "varietylab.solve_exact", None),
        (varietylab, "count_points_fq", "varietylab.count",
         lambda a, r: add("varietylab.flags.accepted", r)),
        (quantumschub, "path_schubert", "quantumschub.path_schubert",
         lambda a, r: add("quantumschub.paths", sum(r.terms.values()))),
        (quantumschub, "schubert_expand", "quantumschub.schubert_expand", None),
        (quantumschub, "gw_min_degree", "quantumschub.gw", None),
    ]
    for mod, attr, name, after in timed:
        orig = getattr(mod, attr)
        _rebind(orig, tracer.wrap(name, orig, after))

    enum = varietylab.enumerate_flags_fq
    _rebind(enum, tracer.count_yields("varietylab.flags.enumerated", enum))

    bfs, bfs_rev = qbgraph._bfs, qbgraph._bfs_reverse
    _rebind(bfs, tracer.wrap_bfs_cache("forward", bfs))
    _rebind(bfs_rev, tracer.wrap_bfs_cache("reverse", bfs_rev))

    hecke = rpolyhecke.HeckeElt
    for attr in ("mul_gen", "mul_gen_inverse"):
        hecke_fn = getattr(hecke, attr)
        setattr(hecke, attr, tracer.wrap(
            "rpolyhecke.mul_gen", hecke_fn,
            lambda a, r: add("rpolyhecke.mul_gen.terms", len(a[0].terms))))
    laurent = rpolyhecke.LaurentPoly
    laurent.__init__ = tracer.count_calls("rpolyhecke.laurent.created", laurent.__init__)

    return {"bfs": (bfs, bfs_rev), "rec_memo": rpolyhecke._REC_MEMO}


def layer_state(originals: dict) -> dict:
    """Sizes of the process-global caches the layers keep."""
    fwd, rev = originals["bfs"]
    return {
        "qbgraph.bfs.tables_held": fwd.cache_info().currsize + rev.cache_info().currsize,
        "rpolyhecke.rec_memo.entries": len(originals["rec_memo"]),
    }
