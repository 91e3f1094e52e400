import ast
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from qbruhat import cli, qbgraph, rpolyhecke, varietylab, verify
from qbruhat.cli import _VERBS, run
from qbruhat.permcore import InternalConsistencyError
from qbruhat.permcore import parse_perm
from qbruhat.rpolyhecke import rtilt_deodhar
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
    assert poly == str(rtilt_deodhar(parse_perm("231"), parse_perm("123")))


def test_rpoly_all_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(rpolyhecke, "rtilt_hecke", lambda u, v: rtilt_deodhar(v, v))
    stderr = "internal consistency failure: tilted R-polynomial routes disagree\n"
    code = run(["rpoly", "231", "123", "--method", "all"])
    captured = capsys.readouterr()
    assert code == 2 and "hecke:     1\nagreement: NO" in captured.out
    assert captured.err == stderr
    code = run(["rpoly", "231", "123", "--method", "all", "--format", "json"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert code == 2 and data["hecke"] == "1" and data["agree"] is False
    assert captured.err == stderr


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


# (u, v, a given tilt) at n = 3, 5, 8; each given tilt makes exactly one of
# leq and sim hold, and the witness makes all three hold
ORDER_PAIRS = [
    ("231", "123", "2,3,3"),
    ("31524", "24153", "1,4,2,1,1"),
    ("58317264", "41872635", "5,5,3,8,3,2,5,6"),
]


def test_order_output_is_pinned(capsys):
    out = []
    for u, v, a in ORDER_PAIRS:
        for relation in ("leq", "sim", "lesssim"):
            for tilt in ([], ["--a", a]):
                for fmt in ("text", "json"):
                    argv = ["order", u, v, *tilt, "--relation", relation, "--format", fmt]
                    code, text = invoke(capsys, *argv)
                    out.append(f"{code}\n{text}")
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "e785d02cd6f44868aa7e7a994fbef5cff039e95e5b3410df4289a7719fb35040"
    code = run(["order", "231", "123", "--a", "1,4,1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: tilt must lie in [3]^3, got (1, 4, 1)\n"


# an empty tilt is an error too, not a request for the witness tilt
@pytest.mark.parametrize(
    "argv, tilt",
    [(["order", "21", "12", "--a", ""], ""), (["subwords", "512346", "246513", "--a", ""], ""),
     (["tnn", "4231", "3142", "--a", ""], ""), (["order", "21", "12", "--a", "1,x"], "1,x"),
     (["order", "21", "12", "--a", "1,,2"], "1,,2"), (["word", "1,x", "12"], "1,x")],
)
def test_a_tilt_must_be_integers(capsys, argv, tilt):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: tilt must be comma-separated integers, got {tilt!r}\n"


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
    # the plain word of (1342, 1324) is not regular, and the report says so
    code, out = invoke(capsys, "subwords", "1342", "1324", "--plain-word")
    assert code == 0
    assert out.splitlines()[:2] == [
        "word: s2 s1 s3 s2 | s2 s1 s3 |",
        "note: word is not regular; Deodhar indexing is conjectural here",
    ]
    code, out = invoke(capsys, "subwords", "1342", "1324")
    assert code == 0 and "note:" not in out


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


def test_member_reads_the_matrix_from_stdin(capsys, tmp_path, monkeypatch):
    text = matrix_to_json(permutation_matrix(parse_perm("321")))
    path = tmp_path / "m.json"
    path.write_text(text)
    for extra in [[], ["--open"]]:
        argv = ["231", "123", *extra, "--format", "json"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert invoke(capsys, "member", "-", *argv) == invoke(capsys, "member", str(path), *argv)


@pytest.mark.parametrize(
    "text, where",
    [
        ("[[0.1,1],[1,0]]", "row 1, column 1 is 0.1"),
        ("[[1,0],[0,1.0]]", "row 2, column 2 is 1.0"),
        ("[[true,false],[false,true]]", "row 1, column 1 is true"),
        ('[["1",null],["0","1"]]', "row 1, column 2 is null"),
        ("[[null]]", "row 1, column 1 is null"),
        ('[["1","x"],["0","1"]]', 'row 1, column 2 is "x"'),
        ('[["1","1/0"],["0","1"]]', 'row 1, column 2 is "1/0"'),
        ('[["1",[0]],["0","1"]]', "row 1, column 2 is [0]"),
        ("[1,2]", "row 1 is 1, not a list"),
        ('{"rows": 1}', "must be a list of rows"),
    ],
)
def test_member_rejects_malformed_matrix_json(capsys, tmp_path, text, where):
    path = tmp_path / "m.json"
    path.write_text(text)
    code = run(["member", str(path), "231", "123"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert where in captured.err


def test_member_reads_exact_entries(capsys, tmp_path):
    assert varietylab.matrix_from_json('[["0.1", 1], [-2, "3/2"]]').rows == (
        (Fraction(1, 10), Fraction(1)),
        (Fraction(-2), Fraction(3, 2)),
    )
    path = tmp_path / "m.json"
    path.write_text('[["0.1", 1, "0"], [1, "0", "0"], ["0", "0", 1]]')
    code, out = invoke(capsys, "member", str(path), "123", "123", "--format", "json")
    assert code == 0 and json.loads(out)["routes_agree"]


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


def test_descent_cycle_reports_a_violation(capsys, monkeypatch):
    # one Gromov-Witten number made nonzero where the vanishing identity
    # needs it to be 0: the report lists it and the verb exits 2
    from qbruhat import quantumschub

    gw = quantumschub.gw_min_degree

    def broken(u, v):
        coeffs = gw(u, v)
        if (u, v) == ((2, 3, 1), (1, 2, 3)):
            coeffs = {**coeffs, (1, 2, 3): coeffs.get((1, 2, 3), 0) + 1}
        return coeffs

    monkeypatch.setattr(quantumschub, "gw_min_degree", broken)
    code, out = invoke(capsys, "descent-cycle", "231", "123", "1", "--format", "json")
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    assert data["violations"] == [{"kind": "vanishing", "w": "123", "data": "1"}]
    code, out = invoke(capsys, "descent-cycle", "231", "123", "1")
    assert code == 2 and out.startswith("descent-cycling at i=1: FAIL")


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


@pytest.mark.parametrize(
    "argv, name",
    [(["verify", "--n", "abc"], "--n"), (["verify", "--workers", "abc"], "--workers"),
     (["graph", "abc"], "n")],
)
def test_non_integer_reads_like_type_int(capsys, argv, name):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"argument {name}: invalid int value: 'abc'\n")


def test_graph_verbs_at_n7_build_no_bfs_table(capsys, monkeypatch):
    u, v = "3172654", "5241736"
    expected_ell = qbgraph.bfs_ell(parse_perm(u), parse_perm(v))
    expected_d = list(qbgraph.shortest_path_weight(parse_perm(u), parse_perm(v)))

    def forbidden(*args):
        raise AssertionError("a production route reached a BFS oracle")

    for name in ("_bfs", "_bfs_reverse", "bfs_ell", "shortest_path_weight"):
        monkeypatch.setattr(qbgraph, name, forbidden)
    code, out = invoke(capsys, "mindeg", u, v)
    assert code == 0 and json.loads(out) == {"ell": expected_ell, "d": expected_d}
    code, out = invoke(capsys, "interval", u, v, "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["ell"] == expected_ell and data["d"] == expected_d
    assert data["members"][0] == u and data["members"][-1] == v
    code, out = invoke(capsys, "order", u, v, "--format", "json")
    assert code == 0 and json.loads(out)["holds"] is True
    code, out = invoke(capsys, "interval", "4231", "1342", "--format", "dot")
    assert code == 0 and out.startswith('digraph "interval_4231_1342"')
    code, out = invoke(capsys, "gw", "4231", "1342")
    assert code == 0 and sum(json.loads(out)["coeffs"].values()) >= 1
    code, out = invoke(capsys, "descent-cycle", "4231", "1342", "3")
    assert code == 0 and "pass" in out


def test_mindeg_checks_the_gate_before_walking(capsys, monkeypatch):
    def forbidden(w, *row):
        raise AssertionError("walked the graph past the gate")

    monkeypatch.setattr(qbgraph, "edges_from", forbidden)
    monkeypatch.setattr(qbgraph, "_edge_row", forbidden)
    assert run(["--max-n", "5", "mindeg", "123456", "654321"]) == 1
    assert "exceeds the graph gate 5" in capsys.readouterr().err


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


# Every word-layer verb, in-process.  The digest is the sha256 of the
# concatenated stdout of these calls, taken before the word constructions
# and the bar walk were rewritten; a change that moves it changes output.
WORD_LAYER_CALLS = [
    [*argv, *regular, "--format", fmt]
    for argv in (["word", "3,3,1,1,1,6", "136254"], ["word", "2,2,4,4,4,3", "635241"])
    for regular in ([], ["--regular"])
    for fmt in ("text", "json")
] + [
    ["subwords", "512346", "246513"],
    ["subwords", "512346", "246513", "--plain-word"],
    ["tnn", "4231", "3142"],
    ["tnn", "4231", "3142", "--a", "4,4,2,2"],
    ["sample-deodhar", "4231", "3142", "--seed", "7"],
    ["rpoly", "231", "123", "--method", "all"],
    ["rpoly", "4231", "3142", "--method", "all", "--format", "json"],
]


def test_word_layer_output_is_pinned(capsys):
    out = []
    for argv in WORD_LAYER_CALLS:
        code, text = invoke(capsys, *argv)
        assert code == 0, argv
        out.append(text)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "de0c147175d56007c5e5f536b0da506a4c9f93e8aeaa26e7317761412895cd1c"


# `interval` (text, JSON, and DOT at n <= 5) and `mindeg` on seeded draws at
# n = 2..8, e -> w0 at n = 5, 6, w0 -> e at n = 5, 8, and three calls each
# that exit 1.  One digest per verb, of the exit codes, stdout and stderr,
# taken before tilted intervals were built from prefix sets; a change that
# moves one changes that verb's output.
def _graph_verb_calls():
    rng = random.Random(22)
    pairs = [
        tuple("".join(map(str, rng.sample(range(1, n + 1), n))) for _ in range(2))
        for n in range(2, 9)
        for _ in range(4)
    ]
    pairs += [("12345", "54321"), ("54321", "12345"), ("123456", "654321")]
    pairs += [("87654321", "12345678")]
    calls = {"interval": [], "mindeg": []}
    for u, v in pairs:
        for fmt in ("text", "json", "dot")[: 3 if len(u) <= 5 else 2]:
            calls["interval"].append(["interval", u, v, "--format", fmt])
        calls["mindeg"].append(["mindeg", u, v])
    for verb in calls:
        for u, v in (("123", "1234"), ("1224", "1234"), ("123456789", "987654321")):
            calls[verb].append([verb, u, v])
    return calls


GRAPH_VERB_DIGESTS = {
    "interval": "648fe998819f103d1e9cb3d42e2a63d437d3c7c00892484d5b7fde31d2cb0a6e",
    "mindeg": "d65f72b56e1674556da33199a8cc03afdde4b3728d056007e7f0d1c1f701dd0d",
}


def test_graph_verb_output_is_pinned(capsys):
    for verb, calls in _graph_verb_calls().items():
        out = []
        for argv in calls:
            code = run(argv)
            captured = capsys.readouterr()
            out.append(f"{code}\n{captured.out}{captured.err}")
        digest = hashlib.sha256("".join(out).encode()).hexdigest()
        assert digest == GRAPH_VERB_DIGESTS[verb], verb


# `gw`, `tnn`, `sample-deodhar`, `member` (open and closed, over Q, F_2 and
# F_3; the Plücker route checked against the rank route), `descent-cycle`
# and `count` on seeded draws at the sizes each verb's gate allows, and
# calls that exit 1.  The member matrices are Deodhar points with positive
# and with flipped parameter signs, permutation matrices and small random
# matrices.  One digest per verb, of the exit codes, stdout and stderr, taken
# before Plücker coordinates were read off one minor table and admissible
# paths were counted per state.
def _variety_verb_calls(tmp_path):
    from qbruhat import tiltorder, tiltwords

    rng = random.Random(23)

    def draw(n):
        return "".join(map(str, rng.sample(range(1, n + 1), n)))

    calls = {v: [] for v in ("gw", "tnn", "sample-deodhar", "member", "descent-cycle", "count")}
    for n in (2, 3, 4, 4, 4):
        for _ in range(2):
            calls["gw"].append(["gw", draw(n), draw(n)])
    calls["gw"] += [["gw", "1234", "4321"], ["gw", "4321", "1234"], ["gw", "12345", "54321"]]
    for n in range(2, 7):
        for fmt in ("text", "json"):
            u, v = draw(n), draw(n)
            calls["tnn"].append(["tnn", u, v, "--format", fmt])
            tilt = ",".join(str(rng.randint(1, n)) for _ in range(n))
            calls["tnn"].append(["tnn", u, v, "--a", tilt, "--format", fmt])
            seed = str(rng.randrange(100))
            calls["sample-deodhar"].append(["sample-deodhar", u, v, "--seed", seed, "--format", fmt])
    files = []

    def matrix(rows):
        path = tmp_path / f"m{len(files)}.json"
        path.write_text(json.dumps([[str(x) for x in row] for row in rows]))
        files.append(path)
        return str(path)

    for n in (2, 3, 3, 4, 4, 4, 5, 5):
        u, v = draw(n), draw(n)
        pu, pv = parse_perm(u), parse_perm(v)
        a, word, sub = tiltwords.positive_word(pu, pv)
        signs, _ = varietylab.tnn_signs(word, sub)
        for flip in (1, -1):
            p_map = {
                j: flip ** (j % 2) * signs[j] * Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for j in sorted(sub.jcirc)
            }
            M = varietylab.deodhar_point(word, sub, p_map)
            path = matrix(M.rows)
            for extra in ([], ["--open"]):
                calls["member"].append(["member", path, u, v, *extra])
        perm = matrix(permutation_matrix(parse_perm(draw(n))).rows)
        noise = matrix([[rng.randint(-1, 2) for _ in range(n)] for _ in range(n)])
        for path, field in ((perm, []), (noise, []), (perm, ["--p", "2"]), (noise, ["--p", "3"])):
            for extra in ([], ["--open"]):
                calls["member"].append(["member", path, u, v, *field, *extra, "--format", "json"])
    calls["member"].append(["member", matrix([[1, 2], [2, 4]]), "12", "21"])
    found = 0
    while found < 6:
        n = rng.choice((3, 4))
        u, v, i = draw(n), draw(n), rng.randint(1, n - 1)
        if tiltorder.interval_s_invariant(parse_perm(u), parse_perm(v), i):
            found += 1
            calls["descent-cycle"].append(["descent-cycle", u, v, str(i), "--format", "json"])
    calls["descent-cycle"] += [["descent-cycle", "2314", "1234", "2"], ["descent-cycle", "231", "123", "3"]]
    for n, p in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3)):
        calls["count"].append(["count", draw(n), draw(n), "--p", str(p)])
    calls["count"] += [["count", "1234", "4321", "--p", "4"], ["count", "12345", "54321", "--p", "2"]]
    return calls


VARIETY_VERB_DIGESTS = {
    "gw": "37ccff78f2a980738bce49d4a10b221586120ca506879029696795f06f9b8f0a",
    "tnn": "51dfd7bead516b701c48f9f91f670f128773edca8405b72b961c820ddfaba437",
    "sample-deodhar": "6ef65ba5968084c4de46d854fbe53b728a2558ba81c7e18a15f328740bee4c38",
    "member": "6b7fc411e75c6d9b0ec41292f464a1a74f28df78179472bf86f80ac214a09ee5",
    "descent-cycle": "6bf8afb4891b8c3d12aaff577643a277219243093021888d112d164294356118",
    "count": "acc86a796296cbc19ad5b43cbf866c7d4e48c29ca22b7a41ef659eb22a6b673a",
}


def test_variety_verb_output_is_pinned(capsys, tmp_path):
    digests = {}
    for verb, calls in _variety_verb_calls(tmp_path).items():
        out = []
        for argv in calls:
            code = run(argv)
            captured = capsys.readouterr()
            out.append(f"{code}\n{captured.out}{captured.err}")
        digests[verb] = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digests == VARIETY_VERB_DIGESTS


# `rpoly` with every --method and format on seeded draws at n = 2..7, e -> w0
# and w0 -> e, and calls that exit 1; `graph` in its three formats at
# n = 1..5 and past the gate.  One digest per verb, of the exit codes, stdout
# and stderr, taken before the Deodhar DP ran on packed integer weights.
def _rpoly_graph_verb_calls():
    rng = random.Random(24)

    def draw(n):
        return "".join(map(str, rng.sample(range(1, n + 1), n)))

    pairs = [(draw(n), draw(n)) for n in range(2, 8) for _ in range(2)]
    pairs += [("12345", "54321"), ("654321", "123456"), ("1234567", "7654321")]
    calls = {"rpoly": [], "graph": []}
    for u, v in pairs:
        for method in ("deodhar", "recursive", "hecke", "all"):
            for fmt in ("text", "json"):
                calls["rpoly"].append(["rpoly", u, v, "--method", method, "--format", fmt])
    for u, v in (("123", "1234"), ("1224", "1234"), ("213", "2x1")):
        calls["rpoly"].append(["rpoly", u, v, "--method", "all"])
    for n in range(1, 6):
        for fmt in ("text", "json", "dot"):
            calls["graph"].append(["graph", str(n), "--format", fmt])
    calls["graph"].append(["graph", "9"])
    return calls


RPOLY_GRAPH_VERB_DIGESTS = {
    "rpoly": "1dc83592f8beca541437b31a1b701561369b24a947c5fe3d8df7f19a1a5a0329",
    "graph": "fa74ba7ca806f1b843c7d6d7dd9b15a3d848327d450f136ea75dadcf8a5e36e1",
}


def test_rpoly_and_graph_output_is_pinned(capsys):
    digests = {}
    for verb, calls in _rpoly_graph_verb_calls().items():
        out = []
        for argv in calls:
            code = run(argv)
            captured = capsys.readouterr()
            out.append(f"{code}\n{captured.out}{captured.err}")
        digests[verb] = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digests == RPOLY_GRAPH_VERB_DIGESTS


# Each verb imports only the layers it calls, so a new `qbruhat` process
# compiles and loads no other module of the package, and none loads
# `dataclasses` (which pulls in inspect, ast, dis and tokenize).
_LAYERS_LOADED = {
    ("graph", "3"): {"permcore", "qbgraph"},
    ("mindeg", "321", "213"): {"permcore", "qbgraph"},
    ("interval", "321", "213"): {"permcore", "qbgraph"},
    ("order", "231", "123"): {"permcore", "qbgraph", "tiltorder"},
    ("word", "1,1,1", "321"): {"permcore", "qbgraph", "tiltorder", "tiltwords"},
    ("subwords", "231", "321"): {"permcore", "qbgraph", "tiltorder", "tiltwords"},
    ("rpoly", "123", "321"): {
        "permcore", "poly", "qbgraph", "rpolyhecke", "tiltorder", "tiltwords",
    },
    # the matrix comes from stdin
    ("member", "-", "123", "321"): {
        "permcore", "qbgraph", "tiltorder", "tiltwords", "varietylab",
    },
    ("count", "123", "321", "--p", "2"): {
        "permcore", "qbgraph", "tiltorder", "tiltwords", "varietylab",
    },
    ("sample-deodhar", "123", "321"): {
        "permcore", "qbgraph", "tiltorder", "tiltwords", "varietylab",
    },
    ("tnn", "123", "321"): {"permcore", "qbgraph", "tiltorder", "tiltwords", "varietylab"},
    ("gw", "231", "123"): {"permcore", "poly", "qbgraph", "quantumschub"},
    ("descent-cycle", "231", "123", "1"): {
        "permcore", "poly", "qbgraph", "quantumschub", "tiltorder",
    },
    # every layer but quantumschub, which no property of the catalogue calls
    ("verify", "--n", "3"): {
        "permcore", "poly", "qbgraph", "rpolyhecke", "tiltorder", "tiltwords", "varietylab",
        "verify",
    },
}

_LOADED_BY_RUN = """
import json, sys
bare = set(sys.modules)
from qbruhat import cli
code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""


def test_each_verb_loads_only_its_layers():
    assert sorted(argv[0] for argv in _LAYERS_LOADED) == sorted(_VERBS)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    children = {
        argv: subprocess.Popen(
            [sys.executable, "-c", _LOADED_BY_RUN, *argv], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for argv in _LAYERS_LOADED
    }
    # reap every child before the first assert, so a failure leaves none running
    matrix = matrix_to_json(permutation_matrix(parse_perm("213")))
    results = {
        argv: child.communicate(matrix, timeout=60) for argv, child in children.items()
    }
    for argv, (out, err) in results.items():
        assert children[argv].returncode == 0, (argv, err)
        code, loaded = json.loads(out.splitlines()[-1])
        assert code == 0, argv
        layers = {m.removeprefix("qbruhat.") for m in loaded if m.startswith("qbruhat.")}
        assert layers == _LAYERS_LOADED[argv] | {"cli"}, argv
        assert "dataclasses" not in loaded, argv


def _help(capsys, argv):
    assert run(argv) == 0, argv
    captured = capsys.readouterr()
    assert captured.err == "", argv
    return captured.out


def test_help_names_every_verb_and_each_verbs_arguments(capsys, monkeypatch):
    # content, not a digest: argparse lays help out differently across
    # versions; a fixed width keeps each help string on one line
    monkeypatch.setenv("COLUMNS", "120")
    out = _help(capsys, ["--help"])
    assert out.startswith("usage: qbruhat ")
    assert "{" + ",".join(_VERBS) + "}" in out
    for verb, (_, formats, arguments) in _VERBS.items():
        out = _help(capsys, [verb, "--help"])
        assert out.startswith(f"usage: qbruhat {verb} "), verb
        assert "--format {" + ",".join(formats) + "}" in out, verb
        for names, kwargs in arguments:
            for name in names:
                assert re.search(rf"^  {re.escape(name)}\b", out, re.M), (verb, name)
            if "help" in kwargs:
                assert kwargs["help"] in out, (verb, names)


def test_readme_shows_one_example_per_verb():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    verbs = [line.split()[1] for line in block.splitlines() if line.startswith("qbruhat ")]
    assert sorted(verbs) == sorted(_VERBS)


def test_only_run_parses_prints_and_exits():
    # the handler contract of cli.py: a handler returns its report, and run
    # alone parses the permutations, prints the report and picks the exit
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    handlers = [fn.__name__ for fn, _, _ in _VERBS.values()]
    assert len(set(handlers)) == len(_VERBS) and set(handlers) <= set(defs)
    for name in handlers:
        for node in ast.walk(defs[name]):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            assert called not in {"print", "parse_perm", "exit"}, (name, called)
