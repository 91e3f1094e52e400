"""qbruhat benchmark: end-to-end and per-layer metrics for four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N        # every workload in turn

Workloads (one client, closed loop):
  qbg-sweep      in-process; BFS tables, the edge test and their caches
  rpoly-routes   in-process; Deodhar DP, recursion and Hecke route
  variety-q-fp   in-process; exact algebra over Q and over F_p
  cli-cold       one ``python3 -m qbruhat.cli`` process per query

Each repetition of an in-process workload runs in a fresh interpreter
(``worker.py``), so no cache of the library survives from one to the next.
``--seconds`` sets the number of repetitions (CLI decks for cli-cold); see
NOMINAL_REP_S.  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics, their times given at the reference host speed
of ``hostspeed.py``; with ``--trace 1`` a fixed number of
repetitions runs untraced and then traced, and the JSON carries the
per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The program is only ever given the generated
permutations and the argv; the seed stays here.

Exit codes: 0 when every query passed its check, 1 when some did not (a
process that ends without its result counts as failed queries), 2 when the
benchmark cannot run (no sources, a QBRUHAT_* variable set).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"  # expected output digests for DEFAULT_SEED
DEFAULT_SEED = 1
WORKLOADS = ("qbg-sweep", "rpoly-routes", "variety-q-fp", "cli-cold")

# A run does a fixed amount of work: round(--seconds / NOMINAL_REP_S)
# repetitions (CLI decks for cli-cold), at least MIN_REPS.  NOMINAL_REP_S is
# one repetition's time on a 2-vCPU Xeon at the commit that defined the
# benchmark, so a 20 s run takes about 20 s there, and both sides of a
# comparison run identical work.  With 20 s, each workload's tail class has
# just over ten queries or about twenty (see worker.SIZES and cli_deck).
NOMINAL_REP_S = {"qbg-sweep": 5.0, "rpoly-routes": 6.3, "variety-q-fp": 2.9, "cli-cold": 7.3}
MIN_REPS = 3  # for a median set-up time
# Repetitions of a traced run (and of the untraced pass it is compared with).
TRACE_REPS = {"qbg-sweep": 1, "rpoly-routes": 1, "variety-q-fp": 2, "cli-cold": 1}
TINY_REPS = 1
SETUP_PROBES = 12  # set-up-only children per run, for the median setup_s


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float
    ready_s: float | None = None
    ref_ms: list | None = None


@dataclass
class Outcome:
    """Everything one pass over a workload measured."""

    lat_ms: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    failed: int = 0
    lost: int = 0  # queries of processes that ended without a result
    errors: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    ref_ms: list = field(default_factory=list)  # host-speed samples
    digest: str | None = None
    traces: list = field(default_factory=list)
    wall_s: float = 0.0
    verb_lat: dict = field(default_factory=dict)
    verb_rss: dict = field(default_factory=dict)


def pin_to_one_cpu() -> int | None:
    """Run this process and every child on one CPU, so that the host-speed
    samples and the queries they calibrate share it.  Only one process is
    busy at a time, so the work itself is unchanged."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Runs children through ``spawner.py``, a small process, so that each
    child's peak RSS from ``wait4`` is its own and not this process's."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawner.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], wait_ready: bool = False, ref: str | None = None) -> Child:
        """Run one child to completion; times are taken in the spawner.
        ``ref`` names the host-speed unit to sample after the child."""
        request = {"argv": argv, "ready": wait_ready, "ref": ref}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the spawner process died")
        return Child(**json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


# ---------------------------------------------------------------------------
# in-process workloads


def worker_argv(workload, seed, rep, size, mode) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(rep), size, mode]


def declared_queries(out: str) -> int:
    """The query count from a worker's ``READY <n>`` line (1 without one)."""
    first = out.split("\n", 1)[0].split()
    return int(first[1]) if first[:1] == ["READY"] and len(first) == 2 else 1


def run_inprocess(workload, seed, size, trace, reps, spawner) -> Outcome:
    """Repetitions ``0 .. reps-1``, each in a fresh interpreter."""
    res = Outcome()
    start = time.perf_counter()
    for rep in range(reps):
        child = spawner.run(worker_argv(workload, seed, rep, size, str(trace)), wait_ready=True)
        try:
            data = json.loads(child.out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            res.lost += declared_queries(child.out)
            res.errors.append(f"repetition {rep} exited {child.code} without a result\n"
                              f"{child.err[-1500:]}")
            continue
        res.lat_ms += data["lat_ms"]
        res.classes += data["classes"]
        res.failed += data["failed"]
        res.errors += data["errors"]
        res.ref_ms += data["ref_ms"]
        res.setup_s.append(child.ready_s)
        res.rss_mb.append(child.rss_mb)
        if rep == 0:
            res.digest = data["digest"]
        if "trace" in data:
            res.traces.append(data["trace"])
    res.wall_s = time.perf_counter() - start
    return res


def setup_probes(workload, seed, size, spawner, res: Outcome) -> None:
    """SETUP_PROBES children that only start up: for an in-process workload,
    import qbruhat and draw a repetition's inputs; for cli-cold, import
    qbruhat.cli, the start-up every call pays.  Their times join
    ``res.setup_s``; a probe that fails counts as a failed query."""
    unit = hostspeed.unit_for(workload)
    for k in range(SETUP_PROBES):
        if workload == "cli-cold":
            child = spawner.run([sys.executable, "-c", "import qbruhat.cli"], ref=unit)
            took, ok = child.wall_s, child.code == 0
        else:
            child = spawner.run(worker_argv(workload, seed, k, size, "setup"),
                                wait_ready=True, ref=unit)
            took, ok = child.ready_s, child.code == 0 and child.ready_s is not None
        if not ok:
            res.lost += 1
            res.errors.append(f"set-up probe exited {child.code}\n{child.err[-1500:]}")
            continue
        res.setup_s.append(took)
        res.ref_ms += child.ref_ms


# ---------------------------------------------------------------------------
# cli-cold


def _rand_perm(rng: random.Random, n: int) -> str:
    p = [str(x) for x in range(1, n + 1)]
    rng.shuffle(p)
    return "".join(p)


@functools.cache
def _descent_triples() -> list:
    """(u, v, i) in S_4 with [u,v] s_i-invariant, as ``descent-cycle`` needs.
    Found once with the library, outside any timed phase."""
    sys.path.insert(0, str(SRC))
    from qbruhat import permcore, tiltorder

    perms = list(permcore.all_permutations(4))
    return [
        (permcore.format_perm(u), permcore.format_perm(v), str(i))
        for u in perms
        for v in perms
        for i in range(1, 4)
        if tiltorder.interval_s_invariant(u, v, i)
    ]


def cli_deck(seed: int, deck: int, size: str) -> list[tuple[str, list[str]]]:
    """One shuffled pass over the README verbs.  Nearly three quarters of the
    calls are cheap verbs (start-up dominates; they set p50), four are n = 7
    graph calls (they set the tail), and three medium calls alternate by deck."""
    rng = random.Random(f"{seed}:cli-cold:{deck}")
    P = lambda n: _rand_perm(rng, n)  # noqa: E731
    J = ["--format", "json"]
    seed_arg = lambda: ["--seed", str(rng.randrange(1000))]  # noqa: E731
    if size == "tiny":
        return [
            ("mindeg5", ["mindeg", P(5), P(5)]),
            ("interval5", ["interval", P(5), P(5)] + J),
            ("order5", ["order", P(5), P(5)] + J),
            ("rpoly4", ["rpoly", P(4), P(4), "--method", "all"] + J),
            ("count_p2", ["count", P(3), P(3), "--p", "2"] + J),
            ("gw4", ["gw", P(4), P(4)]),
            ("subwords4", ["subwords", P(4), P(4)] + J),
            ("sample4", ["sample-deodhar", P(4), P(4)] + seed_arg() + J),
            ("tnn4", ["tnn", P(4), P(4)] + J),
            ("descent4", ["descent-cycle", *rng.choice(_descent_triples())] + J),
            ("verify3", ["verify", "--level", "fast", "--n", "3"] + seed_arg() + J),
        ]
    calls = [
        ("mindeg7", ["mindeg", P(7), P(7)]),
        ("mindeg7", ["mindeg", P(7), P(7)]),
        ("interval7", ["interval", P(7), P(7)] + J),
        ("interval7", ["interval", P(7), P(7)] + J),
    ]
    if deck % 2 == 0:
        calls += [
            ("rpoly6", ["rpoly", P(6), P(6), "--method", "all"] + J),
            ("mindeg6", ["mindeg", P(6), P(6)]),
            ("verify3", ["verify", "--level", "fast", "--n", "3"] + seed_arg() + J),
        ]
    else:
        calls += [
            ("verify4", ["verify", "--level", "fast", "--n", "4"] + seed_arg() + J),
            ("interval6", ["interval", P(6), P(6)] + J),
            ("count_p3", ["count", P(4), P(4), "--p", "3"] + J),
        ]
    for _ in range(2):
        calls += [
            ("order6", ["order", P(6), P(6)] + J),
            ("order7", ["order", P(7), P(7)] + J),
            ("count_p2", ["count", P(4), P(4), "--p", "2"] + J),
            ("gw4", ["gw", P(4), P(4)]),
            ("subwords5", ["subwords", P(5), P(5)] + J),
            ("sample5", ["sample-deodhar", P(5), P(5)] + seed_arg() + J),
            ("tnn5", ["tnn", P(5), P(5)] + J),
            ("descent4", ["descent-cycle", *rng.choice(_descent_triples())] + J),
        ]
    calls += [
        ("subwords4", ["subwords", P(4), P(4)] + J),
        ("tnn4", ["tnn", P(4), P(4)] + J),
    ]
    rng.shuffle(calls)
    return calls


def _inversions(w: str) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def check_cli(argv: list[str], code: int, out: str) -> None:
    """Exit code 0, output that parses, and what the output itself asserts."""
    if code != 0:
        raise ValueError(f"exit code {code}")
    data = json.loads(out)
    verb = argv[0]
    if verb in ("mindeg", "interval"):
        # ell(u,v) = l(v) - l(u) + 2|d(u,v)| along shortest paths
        u, v = argv[1], argv[2]
        if data["ell"] != _inversions(v) - _inversions(u) + 2 * sum(data["d"]):
            raise ValueError("ell and d(u,v) are inconsistent")
        if verb == "interval" and (data["members"][0], data["members"][-1]) != (u, v):
            raise ValueError("interval does not run from u to v")
    elif verb == "rpoly" and data["agree"] is not True:
        raise ValueError("rpoly routes disagree")
    elif verb == "order" and not (data["holds"] and data["a_is_witness"]):
        raise ValueError("witness tilt does not order u below v")
    elif verb == "sample-deodhar" and data["in_open_variety"] is not True:
        raise ValueError("sampled point is not in the open variety")
    elif verb == "descent-cycle" and data["ok"] is not True:
        raise ValueError("descent-cycling identities fail")
    elif verb == "verify" and any(r["status"] == "fail" for r in data["reports"]):
        raise ValueError("verify reports a failing property")
    elif verb == "count" and not (isinstance(data["count"], int) and data["count"] >= 0):
        raise ValueError("count is not a natural number")


def run_cli(seed, size, trace, decks, spawner) -> Outcome:
    res = Outcome()
    start = time.perf_counter()
    digest = hashlib.sha256()
    for deck in range(decks):
        for cls, argv in cli_deck(seed, deck, size):
            prog = [str(BENCH / "cli_shim.py")] if trace else ["-m", "qbruhat.cli"]
            child = spawner.run([sys.executable, *prog, *argv],
                                ref=hostspeed.unit_for("cli-cold"))
            res.ref_ms += child.ref_ms
            out = child.out
            if trace:
                out, _, spans = out.rpartition("BENCHSPANS ")
                if spans:
                    res.traces.append(json.loads(spans))
            res.lat_ms.append(child.wall_s * 1e3)
            res.classes.append(cls)
            res.rss_mb.append(child.rss_mb)
            res.verb_lat.setdefault(argv[0], []).append(child.wall_s * 1e3)
            res.verb_rss.setdefault(argv[0], []).append(child.rss_mb)
            try:
                check_cli(argv, child.code, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                res.failed += 1
                res.errors.append(f"{' '.join(argv)}: {exc}\n{child.err[-500:]}")
            if deck == 0:
                digest.update(f"{argv}\n{child.code}\n{out}\n".encode())
    res.wall_s = time.perf_counter() - start
    res.digest = digest.hexdigest()
    return res


# ---------------------------------------------------------------------------
# metrics


def tail_point(lat_ms: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it,
    with that percentile and the sample count (the maximum below 11 samples)."""
    s = sorted(lat_ms)
    k = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def queries_per_s(res: Outcome) -> float:
    return len(res.lat_ms) / (sum(res.lat_ms) / 1e3)


def host_scale(res: Outcome, unit: str) -> float:
    """Reference host speed over this run's: REFERENCE_MS / median sample."""
    return hostspeed.REFERENCE_MS[unit] / statistics.median(res.ref_ms)


def end_to_end(res: Outcome, scale: float) -> dict:
    """The end-to-end metrics, times multiplied by ``scale``."""
    tail, _, _ = tail_point(res.lat_ms)
    return {
        "queries_per_s": queries_per_s(res) / scale,
        "query_p50_ms": statistics.median(res.lat_ms) * scale,
        "query_tail_ms": tail * scale,
        "peak_rss_mb": max(res.rss_mb),
        "setup_s": statistics.median(res.setup_s) * scale,
    }


def _merge(traces: list[dict]) -> tuple[dict, dict, dict]:
    spans: dict = {}
    counts: dict = {}
    state: dict = {}
    for t in traces:
        for name, (calls, total, self_s) in t["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in t["state"].items():
            state[name] = max(state.get(name, 0), n)
    return spans, counts, state


def per_layer(traced: Outcome, plain: Outcome, names: list[str]) -> dict:
    """Every per-layer metric in ``names``; 0 where a layer did no work."""
    spans, counts, state = _merge(traced.traces)
    values = dict(counts)
    values.update(state)
    for name, (calls, _total, self_s) in spans.items():
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_s
    values["cli.self_s"] = spans.get("cli", [0, 0.0, 0.0])[2]
    values["qbgraph.bfs.hit_ratio"] = _ratio(counts, "qbgraph.bfs.reused", "qbgraph.bfs.lookups")
    values["varietylab.flags.accept_ratio"] = _ratio(
        counts, "varietylab.flags.accepted", "varietylab.flags.enumerated")
    startups = [t["startup_s"] for t in traced.traces if "startup_s" in t]
    values["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    for verb, lat in plain.verb_lat.items():
        values[f"cli.verb.{verb}.p50_ms"] = statistics.median(lat)
        values[f"cli.verb.{verb}.peak_rss_mb"] = max(plain.verb_rss[verb])
    values["trace.overhead_ratio"] = queries_per_s(plain) / queries_per_s(traced)
    values["trace.wall_s"] = traced.wall_s
    return {name: values.get(name, 0) for name in names}


def _ratio(counts: dict, num: str, den: str) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


# ---------------------------------------------------------------------------
# provenance and output


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, cpu) -> dict:
    return {
        "pinned_cpu": cpu,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def expected_digest(size: str, workload: str) -> str | None:
    try:
        with open(DIGESTS) as fh:
            return json.load(fh).get(size, {}).get(workload)
    except (OSError, ValueError):
        return None


def run_workload(workload: str, args, spec: dict, spawner: Spawner) -> dict:
    size = "tiny" if args.tiny else "full"
    if args.tiny:
        reps = TINY_REPS
    elif args.trace:
        reps = TRACE_REPS[workload]
    else:
        reps = max(MIN_REPS, round(args.seconds / NOMINAL_REP_S[workload]))

    def one_pass(trace: int) -> Outcome:
        if workload == "cli-cold":
            return run_cli(args.seed, size, trace, reps, spawner)
        return run_inprocess(workload, args.seed, size, trace, reps, spawner)

    plain = one_pass(0)
    passes = [plain]
    if args.trace:
        passes.append(one_pass(1))
        metrics = spec["per_layer"]
    else:
        setup_probes(workload, args.seed, size, spawner, plain)
        metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    units = {m["name"]: m["unit"] for m in metrics}

    attempted = sum(len(p.lat_ms) + p.lost for p in passes)
    failed = sum(p.failed + p.lost for p in passes)
    digest_ok = True
    if args.seed == DEFAULT_SEED:
        want = expected_digest(size, workload)
        digest_ok = all(p.digest == want for p in passes)
        print(f"[{workload}] output digest {plain.digest} "
              f"({'matches' if digest_ok else 'DOES NOT MATCH'} expected {want})")
    for p in passes:
        for err in p.errors:
            print(f"[{workload}] FAILED QUERY: {err.strip()}")
    print(f"[{workload}] attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted} repetitions={reps}")
    result = {"correct": failed == 0 and digest_ok, "attempted": attempted, "failed": failed}
    if not all(p.lat_ms and p.rss_mb and p.ref_ms for p in passes) or (
            not args.trace and not plain.setup_s):
        print(f"[{workload}] no metrics: a process ended without its result")
        return {**result, "metrics": {}}

    if args.trace:
        values = per_layer(passes[1], plain, names)
    else:
        unit = hostspeed.unit_for(workload)
        scale = host_scale(plain, unit)
        values = end_to_end(plain, scale)
        raw = end_to_end(plain, 1.0)
        print(f"[{workload}] host speed: median sample {statistics.median(plain.ref_ms):.3f} ms "
              f"(reference {hostspeed.REFERENCE_MS[unit]} ms, unit {unit}), "
              f"times below x {scale:.4f}; as measured: "
              + ", ".join(f"{k}={raw[k]:.4g}" for k in names if k != "peak_rss_mb"))
    missing = set(names) - set(values)
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this benchmark lacks: {sorted(missing)}")

    tail, pct, n = tail_point(plain.lat_ms)
    by_class: dict = {}
    for cls, lat in zip(plain.classes, plain.lat_ms):
        by_class.setdefault(cls, []).append(lat)
    print(f"[{workload}] class p50 ms as measured: " + ", ".join(
        f"{c}={statistics.median(v):.1f} (n={len(v)})" for c, v in sorted(by_class.items())))
    for name in names:
        note = f"  (p{pct:.1f} of N={n})" if name == "query_tail_ms" else ""
        print(f"[{workload}] {name} = {values[name]} {units[name]}{note}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in names}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (S_4, S_5); not a benchmark")
    args = parser.parse_args(argv)

    try:
        leaked = sorted(k for k in os.environ if k.startswith("QBRUHAT_"))
        if leaked:
            raise BenchError(f"refusing to run with {', '.join(leaked)} set")
        if not (SRC / "qbruhat" / "cli.py").is_file():
            raise BenchError(f"qbruhat sources not found under {SRC}")
        spec = load_spec()
        cpu = pin_to_one_cpu()
        print("provenance " + json.dumps(provenance(args, cpu), sort_keys=True))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        spawner = Spawner(child_env())
        try:
            results = {w: run_workload(w, args, spec, spawner) for w in names}
        finally:
            spawner.close()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
