import gc
import hashlib
import json
import os
import random
import warnings

import pytest

from qbruhat import varietylab, verify
from qbruhat.cli import run
from qbruhat.permcore import InternalConsistencyError
from qbruhat.permcore import parse_perm
from qbruhat.rpolyhecke import parse_poly, rtilt_deodhar
from qbruhat.varietylab import matrix_to_json, permutation_matrix


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_mindeg(capsys):
    code, out = invoke(capsys, "mindeg", "321", "213")
    assert code == 0
    assert out.strip() == '{"ell":2,"d":[1,1]}'


def test_interval_formats(capsys):
    code, out = invoke(capsys, "interval", "231", "123", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["members"] == ["231", "213", "321", "123"]
    code, out = invoke(capsys, "interval", "231", "123", "--format", "dot")
    assert code == 0
    assert out.count("->") == 4 and '"321"' in out


def test_graph_dot(capsys):
    code, out = invoke(capsys, "graph", "3", "--format", "dot")
    assert code == 0
    assert out.count("->") == 15
    assert out.count("dashed") == 7
    assert 'label="q1*q2"' in out


def test_rpoly_all(capsys):
    code, out = invoke(capsys, "rpoly", "231", "123", "--method", "all")
    assert code == 0
    assert "q^2 - 2q + 1" in out and "agreement: yes" in out
    code, out = invoke(capsys, "rpoly", "231", "123", "--format", "json")
    poly = json.loads(out)["poly"]
    assert parse_poly(poly) == rtilt_deodhar(parse_perm("231"), parse_perm("123"))


def test_order_witness_echo(capsys):
    code, out = invoke(capsys, "order", "231", "123", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == [2, 2, 2] and data["holds"] and data["a_is_witness"]
    code, out = invoke(
        capsys, "order", "231", "123", "--a", "1,1,1", "--relation", "leq",
        "--format", "json",
    )
    assert not json.loads(out)["holds"]


def test_word_and_subwords(capsys):
    code, out = invoke(capsys, "word", "3,3,1,1,1,6", "136254")
    assert code == 0
    assert out.splitlines()[0] == "s5 s4 s3 s2 s1 | s1 s2 s3 s5 s4 | s2 s1 s4 s3 | s1"
    code, out = invoke(
        capsys, "subwords", "512346", "246513", "--a", "5,5,5,1,1,1",
        "--format", "json",
    )
    data = json.loads(out)
    assert data["count"] == 4
    sizes = sorted((len(s["jcirc"]), len(s["jminus"])) for s in data["subwords"])
    assert sizes == [(4, 2), (6, 1), (6, 1), (8, 0)]


def test_subwords_json_pinned(capsys):
    # 24 seeded pairs of S_5, S_6 and S_7 (131 subwords), pinned before the
    # enumeration pruned by right-to-left sets of live prefixes
    rng = random.Random(13)
    perms = []
    for n in (5, 6, 7):
        for _ in range(16):
            w = list(range(1, n + 1))
            rng.shuffle(w)
            perms.append("".join(map(str, w)))
    outputs = []
    for u, v in zip(perms[::2], perms[1::2]):
        code, out = invoke(capsys, "subwords", u, v, "--format", "json")
        outputs.append(f"{code} {out}")
    assert hashlib.sha256("\n".join(outputs).encode()).hexdigest() == (
        "6e15e2e51e18fced2f1173ed54ce508067453a4235b73c4d6ba7bb6faf16f865"
    )


def test_member(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(permutation_matrix(parse_perm("321"))))
    code, out = invoke(capsys, "member", str(path), "231", "123", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"member": True, "open": False, "routes_agree": True}
    code, out = invoke(
        capsys, "member", str(path), "231", "123", "--open", "--format", "json"
    )
    assert json.loads(out)["member"] is False


def test_member_runs_the_rank_route_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(permutation_matrix(parse_perm("321"))))
    rank_route = varietylab.in_tilted_richardson
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rank_route(*args, **kwargs)

    monkeypatch.setattr(varietylab, "in_tilted_richardson", counted)
    code, out = invoke(capsys, "member", str(path), "231", "123", "--format", "json")
    assert code == 0 and json.loads(out)["routes_agree"]
    assert len(calls) == 1
    # a rank route that disagrees is still a consistency failure
    monkeypatch.setattr(
        varietylab, "in_tilted_richardson", lambda *a, **k: not rank_route(*a, **k)
    )
    code = run(["member", str(path), "231", "123"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "rank and Plücker membership disagree" in captured.err


def test_count(capsys):
    code, out = invoke(capsys, "count", "231", "123", "--p", "2")
    assert code == 0 and out.strip() == "1"


def test_sample_deodhar_deterministic(capsys):
    code, out1 = invoke(capsys, "sample-deodhar", "4231", "3142", "--seed", "5")
    assert code == 0 and "in T°: True" in out1
    _, out2 = invoke(capsys, "sample-deodhar", "4231", "3142", "--seed", "5")
    assert out1 == out2
    _, out3 = invoke(capsys, "sample-deodhar", "4231", "3142", "--seed", "6")
    assert out1 != out3


def test_tnn(capsys):
    code, out = invoke(
        capsys, "tnn", "4231", "3142", "--a", "4,4,2,2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "s1 s2 s3 | s1 s2 s3 s2 s1 | s1"
    assert data["trace"][-1] == "+-+-"
    assert {int(k): v for k, v in data["signs"].items()} == {
        5: 1, 6: 1, 7: -1, 11: -1,
    }
    # a witness tilt of its own produces a consistent signed parametrization
    code, out = invoke(capsys, "tnn", "4231", "3142", "--format", "json")
    assert code == 0 and len(json.loads(out)["signs"]) == 4


def test_gw_and_descent_cycle(capsys):
    code, out = invoke(capsys, "gw", "231", "123")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == [1, 1] and sum(data["coeffs"].values()) >= 1
    code, out = invoke(capsys, "descent-cycle", "231", "123", "1")
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("u, v, i, n", [("231", "123", "5", 3), ("231", "123", "0", 3),
                                        ("1", "1", "1", 1)])
def test_descent_cycle_rejects_i_before_any_work(capsys, monkeypatch, u, v, i, n):
    from qbruhat import qbgraph

    def no_interval(*args):
        raise AssertionError("interval built before i was checked")

    monkeypatch.setattr(qbgraph, "tilted_interval", no_interval)
    code = run(["descent-cycle", u, v, i])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        f"error: descent position i={i} out of range for n={n} (need 1 <= i <= n-1)\n"
    )


def test_verify(capsys):
    code, out = invoke(capsys, "verify", "--level", "fast", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 0
    assert all(r["status"] == "pass" for r in data["reports"])
    # deterministic under a fixed seed
    _, out2 = invoke(capsys, "verify", "--level", "fast", "--n", "3", "--format", "json")
    assert out == out2


def test_verify_full_n2(capsys):
    code, out = invoke(capsys, "verify", "--level", "full", "--n", "2")
    assert code == 0
    assert "[FAIL]" not in out and "[INFO]" in out


@pytest.mark.parametrize("argv", [["mindeg", "321", "213"], ["gw", "231", "123"]])
def test_json_only_verbs_accept_format_json(capsys, argv):
    code, default = invoke(capsys, *argv)
    assert code == 0
    code, explicit = invoke(capsys, *argv, "--format", "json")
    assert code == 0 and explicit == default
    code, out = invoke(capsys, *argv, "--format", "dot")
    assert code == 1 and out == ""


def test_exit_codes(capsys):
    code, _ = invoke(capsys, "mindeg", "321")
    assert code == 1  # missing argument: usage error
    code, _ = invoke(capsys, "mindeg", "321", "2135")
    assert code == 1  # domain error: not a permutation
    code, _ = invoke(capsys, "count", "12345", "12345", "--p", "2")
    assert code == 1  # gate exceeded is a domain error
    with pytest.raises(SystemExit):
        from qbruhat.cli import main

        main()


def test_member_prime_field(capsys, tmp_path):
    path = tmp_path / "m2.json"
    path.write_text('[["1","1","0"],["0","1","0"],["1","0","1"]]')
    code, out = invoke(
        capsys, "member", str(path), "123", "321", "--p", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["routes_agree"]


def test_verify_workers_deterministic(capsys):
    code, out1 = invoke(
        capsys, "verify", "--level", "fast", "--n", "3", "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    code, out2 = invoke(
        capsys, "verify", "--level", "fast", "--n", "3", "--seed", "3",
        "--workers", "2", "--format", "json",
    )
    assert code == 0
    assert out1 == out2


def test_verify_workers_bounded_by_the_properties(capsys, monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    argv = ["verify", "--level", "fast", "--n", "3"]
    code, serial = invoke(capsys, *argv, "--workers", "1")
    assert code == 0 and started == []
    code, pooled = invoke(capsys, *argv, "--workers", "1000")
    assert code == 0 and pooled == serial
    assert serial.count("[PASS]") == 10 and started == [10]
    for bad in ("0", "-3"):
        assert run([*argv, "--workers", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "workers must be at least 1" in captured.err
    assert started == [10]


def test_gate_overrides_do_not_outlive_the_call(capsys, tmp_path, monkeypatch):
    # graph builds no cached table, so every call probes the gate afresh
    monkeypatch.delenv("QBRUHAT_MAX_N", raising=False)
    monkeypatch.setenv("QBRUHAT_MAX_COUNT_N", "4")
    code, _ = invoke(capsys, "--max-n", "3", "graph", "4")
    assert code == 1  # n = 4 is over the lowered gate
    assert "QBRUHAT_MAX_N" not in os.environ
    code, out = invoke(capsys, "graph", "4", "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 4
    config = tmp_path / "gates.json"
    config.write_text('{"QBRUHAT_MAX_N": 3}')
    code, _ = invoke(capsys, "--config", str(config), "--max-count-n", "6", "graph", "4")
    assert code == 1
    assert "QBRUHAT_MAX_N" not in os.environ
    assert os.environ["QBRUHAT_MAX_COUNT_N"] == "4"
    code, _ = invoke(capsys, "graph", "4")
    assert code == 0


@pytest.mark.parametrize(
    "config, message",
    [
        ("[1, 2]", "JSON object"),
        ('{"HOME_X": "1"}', "not a gate variable: HOME_X"),
        ('{"QBRUHAT_MAX_N": 8, "PATH": "/x"}', "not a gate variable: PATH"),
    ],
)
def test_config_holds_only_gate_variables(capsys, tmp_path, monkeypatch, config, message):
    monkeypatch.delenv("HOME_X", raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(config)
    saved_path = os.environ.get("PATH")
    code = run(["--config", str(path), "mindeg", "12", "21"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "HOME_X" not in os.environ
    assert os.environ.get("PATH") == saved_path


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"QBRUHAT_MAX_N": "x"}', "QBRUHAT_MAX_N must be an integer, got 'x'"),
        ('{"QBRUHAT_MAX_N": true}', "QBRUHAT_MAX_N must be an integer, got True"),
        ('{"QBRUHAT_MAX_COUNT_N": 3.5}', "QBRUHAT_MAX_COUNT_N must be an integer, got 3.5"),
        ('{"QBRUHAT_MAX_GW_N": "5"}', "QBRUHAT_MAX_GW_N must be an integer, got '5'"),
    ],
)
def test_config_gate_values_must_be_integers(capsys, tmp_path, monkeypatch, config, message):
    # order reads no gate, so only the check before dispatch can refuse it
    for var in ("QBRUHAT_MAX_N", "QBRUHAT_MAX_COUNT_N", "QBRUHAT_MAX_GW_N"):
        monkeypatch.delenv(var, raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(config)
    code = run(["--config", str(path), "order", "12", "21"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("verb", [["order", "12", "21"], ["mindeg", "12", "21"]])
@pytest.mark.parametrize("value", ["x", "True", "3.5"])
def test_environment_gate_values_must_be_integers(capsys, monkeypatch, verb, value):
    monkeypatch.setenv("QBRUHAT_MAX_PATH_N", value)
    code = run(verb)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: QBRUHAT_MAX_PATH_N must be an integer, got {value!r}\n"


def test_count_rejects_a_composite_p(capsys):
    code = run(["count", "231", "123", "--p", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "not prime" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "0"],
        ["graph", "-1", "--format", "json"],
        ["verify", "--n", "0"],
        ["verify", "--n", "-2", "--format", "json"],
    ],
)
def test_sizes_below_one_are_usage_errors(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "n must be at least 1" in captured.err


def test_graph_gate_checked_on_a_warm_cache(capsys, monkeypatch):
    # the first calls build and cache the BFS table from 1234; the gated
    # calls must still be refused
    monkeypatch.delenv("QBRUHAT_MAX_N", raising=False)
    for verb in ("mindeg", "interval"):
        code, _ = invoke(capsys, verb, "1234", "4321")
        assert code == 0
        code = run(["--max-n", "3", verb, "1234", "4321"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "exceeds the graph gate 3" in captured.err


@pytest.mark.parametrize(
    "outcome, expected",
    [("raise", 2), ("counterexample", 1)],
)
def test_verify_exit_code_names_the_failure(capsys, monkeypatch, outcome, expected):
    # 2 for a consistency failure, as for every other verb; 1 for any other
    def broken(n, rng, level):
        if outcome == "raise":
            raise InternalConsistencyError("routes disagree")
        return "counterexample"

    props = [
        (name, broken if name == "thin-intervals" else fn, info)
        for name, fn, info in verify.PROPERTIES
    ]
    monkeypatch.setattr(verify, "PROPERTIES", props)
    code, out = invoke(capsys, "verify", "--level", "fast", "--n", "3", "--format", "json")
    assert code == expected
    failed = [r for r in json.loads(out)["reports"] if r["status"] == "fail"]
    assert [r["name"] for r in failed] == ["thin-intervals"]
    if outcome == "raise":
        assert failed[0]["detail"] == "InternalConsistencyError: routes disagree"


def test_member_closes_its_matrix_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(permutation_matrix(parse_perm("321"))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = invoke(capsys, "member", str(path), "231", "123")
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
