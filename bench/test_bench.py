"""Self-test of the benchmark in its tiny mode (S_4/S_5 inputs, one repetition).

    python3 -m pytest bench/test_bench.py -q
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, extra_env: dict | None = None) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QBRUHAT_")}
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--tiny", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=170, env=env,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    """Output lines and final JSON of one tiny run per trace mode."""
    runs = {}
    for trace in (0, 1):
        proc = bench("--workload", "all", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        runs[trace] = (lines, json.loads(lines[-1]))
    return runs


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tiny_runs, trace, kind):
    lines, result = tiny_runs[trace]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in WORKLOADS:
        for m in SPEC[kind]:
            assert any(
                line.startswith(f"[{w}] {m['name']} = ") and line.split()[4] == m["unit"]
                for line in lines
            ), (w, m["name"])
            assert result["metrics"][f"{w}.{m['name']}"]["unit"] == m["unit"]


def test_self_times_fit_in_traced_wall_time(tiny_runs):
    _, result = tiny_runs[1]
    for w in WORKLOADS:
        values = {k[len(w) + 1:]: m["value"] for k, m in result["metrics"].items()
                  if k.startswith(w + ".")}
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert 0 < self_total <= values["trace.wall_s"], w


def load_run_module():
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run_in_process(monkeypatch, capsys, *args: str) -> tuple[int, dict]:
    for key in [k for k in os.environ if k.startswith("QBRUHAT_")]:
        monkeypatch.delenv(key)
    code = RUN.main(["--tiny", "--seconds", "1", *args])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


RUN = load_run_module()


def test_corrupted_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    digests = json.loads(RUN.DIGESTS.read_text())
    good = digests["tiny"]["rpoly-routes"]
    digests["tiny"]["rpoly-routes"] = ("0" if good[0] != "0" else "1") + good[1:]
    bad = tmp_path / "digests.json"
    bad.write_text(json.dumps(digests))
    monkeypatch.setattr(RUN, "DIGESTS", bad)
    code, result = run_in_process(monkeypatch, capsys, "--workload", "rpoly-routes")
    assert code == 1 and result["correct"] is False and result["failed"] == 0


def test_crashed_worker_counts_as_failed(monkeypatch, capsys):
    crash = [sys.executable, "-c", "print('READY 7', flush=True); raise SystemExit(3)"]
    monkeypatch.setattr(RUN, "worker_argv", lambda *args: crash)
    code, result = run_in_process(monkeypatch, capsys, "--workload", "qbg-sweep")
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_refuses_qbruhat_environment():
    proc = bench("--workload", "rpoly-routes", extra_env={"QBRUHAT_MAX_N": "8"})
    assert proc.returncode == 2 and '"metrics"' not in proc.stdout
    assert "QBRUHAT_MAX_N" in proc.stderr
