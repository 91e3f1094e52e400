import gc
import json
import os
import warnings

import pytest

from qbruhat import cli
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
        for name, fn, info in cli._PROPERTIES
    ]
    monkeypatch.setattr(cli, "_PROPERTIES", props)
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
