"""Fixed units of pure-Python work that measure how fast the host runs now.

The shared 2-vCPU hosts the benchmark runs on change speed by up to 1.7x
over seconds to minutes (a plain loop timed 20-35 ms at different times),
and CPU time moves with wall time.  The benchmark takes ``samples_after()``
after each query, one sample per ``EVERY_MS`` of the query's time so that
the samples weigh host states as the queries do, and reports every
end-to-end time at a reference speed: measured time x ``REFERENCE_MS`` /
median sample of the run (see ``run.py``).

Two units: ``loop`` looks up a dict built at import and adds small
integers; ``table`` builds and reads a table of permutations, as a BFS does,
and suits the BFS-heavy qbg-sweep.  Neither leaves an object the garbage
collector tracks, so the caches a qbruhat process holds do not change their
time, and neither runs qbruhat code, so a change to qbruhat moves reported
times in proportion to measured ones.
"""

import gc
import itertools
import time

# Median sample of each unit on a 2-vCPU Xeon while the benchmark was
# defined; they only fix the unit the reported times are given in.
REFERENCE_MS = {"loop": 1.2, "table": 1.1}
EVERY_MS = 40.0

_KEYS = [(i % 7, i % 11, i % 13) for i in range(1001)]
_TABLE = {k: (i * 7919) % 257 for i, k in enumerate(_KEYS)}
_ROUNDS = 10
_PERMS = list(itertools.permutations(range(7)))[::2]


def _loop() -> int:
    """Dict lookups and small-integer arithmetic in cache-sized data."""
    table, keys = _TABLE, _KEYS
    acc = 0
    for r in range(_ROUNDS):
        for k in keys:
            acc = (acc + table[k] + r) & 0xFFFF
    return acc


def _table() -> int:
    """Build and read a fresh table keyed by 2520 permutations of 7, as a
    BFS does, with the collector off so that qbruhat's caches neither see
    these objects nor slow this unit down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        for i, p in enumerate(_PERMS):
            table[p] = (i & 15, (p, i & 7))
        acc = 0
        for p in _PERMS:
            acc += table[p][0]
        del table
    finally:
        if enabled:
            gc.enable()
    return acc


_UNITS = {"loop": _loop, "table": _table}


def unit_for(workload: str) -> str:
    """BFS tables dominate qbg-sweep; the other workloads compute."""
    return "table" if workload == "qbg-sweep" else "loop"


def sample_ms(unit: str = "loop") -> float:
    """Time one unit of fixed work, in ms."""
    work = _UNITS[unit]
    t0 = time.perf_counter()
    work()
    return (time.perf_counter() - t0) * 1e3


def samples_after(busy_ms: float, unit: str = "loop") -> list[float]:
    """One sample per EVERY_MS of ``busy_ms``, at least one."""
    return [sample_ms(unit) for _ in range(max(1, round(busy_ms / EVERY_MS)))]
