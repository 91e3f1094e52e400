import hashlib
import json
import random

import pytest

from qbruhat import qbgraph, rpolyhecke, tiltorder, tiltwords, varietylab, verify
from qbruhat.cli import run
from qbruhat.permcore import all_permutations

_PASSES = [
    "deodhar-points-in-variety",
    "fq-count-vs-rpoly",
    "graph-reconstruction",
    "interval-membership-two-routes",
    "lifting-property",
    "min-degree-two-routes",
    "rpoly-three-routes",
    "thin-intervals",
    "tnn-parametrization",
    "word-length-rank-function",
]


def _reports(info):
    rows = [(name, "pass", "") for name in _PASSES]
    rows += [(name, "info", detail) for name, detail in info.items()]
    return sorted(rows)


# the full catalogue's reports, seeded; any change to a property's sample
# or to the order of its draws shows up in the exploratory details
PINNED = {
    (4, 1): _reports({
        "exploratory-increasing-path-rpoly": "36/36 pairs matched the conjectural path formula",
        "exploratory-leq-rankedness": "searched a=(2, 1, 3, 1): 47 covers; "
        "a=(4, 4, 4, 4): 58 covers; a=(2, 1, 4, 1): 48 covers",
        "exploratory-nonregular-deodhar": "25/25 words agreed (9 non-regular); no counterexample",
    }),
    (3, 0): _reports({
        "exploratory-increasing-path-rpoly": "36/36 pairs matched the conjectural path formula",
        "exploratory-leq-rankedness": "searched a=(2, 2, 1): 8 covers; "
        "a=(2, 3, 2): 7 covers; a=(2, 2, 2): 8 covers",
        "exploratory-nonregular-deodhar": "25/25 words agreed (2 non-regular); no counterexample",
    }),
}


# sha256 of the whole stdout, so that a change of layout shows up too
DIGESTS = {
    (4, 1): "7c649e712a180fc89c294785cf33d69f7e799cc3c726d1afdc4090ca488e6b7b",
    (3, 0): "cffb1e9058ad401b55765a1509cef1b116a6ef4de8b84490b2727ff2c7f1ac63",
}


@pytest.mark.parametrize("n, seed", sorted(PINNED))
def test_full_catalogue_reports_are_pinned(capsys, n, seed):
    code = run(["verify", "--level", "full", "--n", str(n), "--seed", str(seed),
                "--format", "json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0
    assert [(r["name"], r["status"], r["detail"]) for r in data["reports"]] == PINNED[n, seed]
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[n, seed]


def test_fast_text_report_is_pinned(capsys):
    code = run(["verify", "--level", "fast", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "77e2eab52a18c1bb3ab9be45f47c63302b128d90fd80b01a53e681feaa086795"
    )


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_above_the_graph_gate_runs_nothing(capsys, monkeypatch, workers):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("ran past the gate")

    monkeypatch.setattr(verify, "run_property", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    code = run(["--max-n", "3", "verify", "--n", "4", "--workers", workers])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: n=4 exceeds the graph gate 3; set QBRUHAT_MAX_N to override\n"


def test_cases_enumerate_or_draw_in_seeded_order():
    perms = list(all_permutations(3))
    rng = random.Random(5)
    every = list(verify._cases(3, 2, rng))
    assert every == [(u, v) for u in perms for v in perms]
    assert rng.random() == random.Random(5).random()  # enumeration draws nothing
    ref = random.Random(9)
    drawn = verify._cases(3, 3, random.Random(9), 4)
    assert list(drawn) == [tuple(ref.choice(perms) for _ in range(3)) for _ in range(4)]
    assert verify._sampled(3, "fast", 60) is None
    assert verify._sampled(4, "full", 60) is None
    assert verify._sampled(4, "fast", 60) == 60


def test_cases_are_lazy():
    # a check may draw between cases; the draws then interleave
    perms = list(all_permutations(3))
    rng, ref = random.Random(2), random.Random(2)
    got, want = [], []
    for u, v in verify._cases(3, 2, rng, 3):
        got.append((u, v, rng.randint(1, 9)))
        want.append((ref.choice(perms), ref.choice(perms), ref.randint(1, 9)))
    assert got == want


@pytest.mark.parametrize("level, calls", [("fast", 200), ("full", 24 * 24)])
def test_thin_intervals_samples_at_level_fast(monkeypatch, level, calls):
    seen = []
    real = qbgraph.tilted_interval
    monkeypatch.setattr(qbgraph, "tilted_interval", lambda u, v: seen.append(1) or real(u, v))
    report, _ = verify.run_property(("thin-intervals", 4, 0, level))
    assert report["status"] == "pass" and len(seen) == calls


@pytest.mark.parametrize(
    "oracle, skew, name, detail",
    [
        ("shortest_path_weight", lambda d: (d[0] + 1, *d[1:]), "min-degree-two-routes",
         "InternalConsistencyError: depth formula"),
        ("bfs_ell", lambda e: e + 1, "interval-membership-two-routes",
         "InternalConsistencyError: witness criterion disagrees with BFS membership"),
    ],
)
def test_a_wrong_bfs_oracle_fails_its_property_with_exit_2(
    capsys, monkeypatch, oracle, skew, name, detail
):
    # no production route compares against BFS: these properties must catch it
    real = getattr(qbgraph, oracle)
    monkeypatch.setattr(qbgraph, oracle, lambda u, v: skew(real(u, v)))
    code = run(["verify", "--n", "3", "--format", "json"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    failed = [r for r in reports if r["status"] == "fail"]
    assert code == 2
    assert [r["name"] for r in failed] == [name]
    assert failed[0]["detail"].startswith(detail)


def _skewed(module, name, skew):
    """A fault: module.name with skew applied to each result."""
    real = getattr(module, name)
    return module, name, lambda *args, **kwargs: skew(real(*args, **kwargs), *args)


def _lying_after_apply_simple(monkeypatch, side):
    # the lifting property forms us_i, then vs_i, with apply_simple and tests
    # each at once: a_lesssim answers False for the one just formed on side
    formed = []
    real_simple, real_lesssim = verify.apply_simple, tiltorder.a_lesssim
    monkeypatch.setattr(
        verify, "apply_simple", lambda w, i: formed.append(real_simple(w, i)) or formed[-1]
    )
    monkeypatch.setattr(
        tiltorder, "a_lesssim",
        lambda a, u, v: real_lesssim(a, u, v) and not (formed and (u, v)[side] is formed[-1]),
    )


@pytest.mark.parametrize(
    "fault, name, detail, code",
    [
        (_skewed(qbgraph, "graph_edges", lambda edges, n: list(edges)[:-1]),
         "graph-reconstruction", "Gamma_3 has 8 strong / 6 quantum edges", 1),
        (_skewed(qbgraph, "graph_edges",
                 lambda edges, n: [(w, t, (wt[0] + any(wt), *wt[1:])) for w, t, wt in edges]),
         "graph-reconstruction", "edge weight vs minimal degree mismatch", 1),
        (_skewed(qbgraph, "tilted_interval",
                 lambda iv, u, v: iv._replace(members=frozenset([u, v]))),
         "thin-intervals", "rank-2 interval", 1),
        (_skewed(rpolyhecke, "rtilt_hecke", lambda r, u, v: r + rpolyhecke.ONE),
         "rpoly-three-routes", "InternalConsistencyError: routes disagree", 2),
        (_skewed(qbgraph, "ell", lambda e, u, v: e + 1),
         "rpoly-three-routes", "InternalConsistencyError: degree differs from ell", 2),
        (_skewed(rpolyhecke, "rtilt_routes",
                 lambda routes, u, v: {k: r + r for k, r in routes.items()}),
         "rpoly-three-routes", "monic failure", 1),
        (_skewed(varietylab, "count_points_fq", lambda c, u, v, p: c + 1),
         "fq-count-vs-rpoly", "InternalConsistencyError: F_2 count mismatch", 2),
        (_skewed(varietylab, "in_tilted_richardson", lambda ok, *args: False),
         "deodhar-points-in-variety", "Deodhar point escaped T°", 1),
        (_skewed(varietylab, "is_tnn", lambda ok, M, a: False),
         "tnn-parametrization", "signed point not TNN", 1),
        (lambda mp: _lying_after_apply_simple(mp, 0), "lifting-property", "lifting fails: us_i", 1),
        (lambda mp: _lying_after_apply_simple(mp, 1), "lifting-property", "lifting fails: vs_i", 1),
        (_skewed(tiltwords, "word_length", lambda length, a, w: 0),
         "word-length-rank-function", "word length not a rank function", 1),
    ],
    ids=["edge-count", "edge-weight", "thin", "routes", "degree", "monic", "fq-count",
         "deodhar-point", "tnn", "lift-us", "lift-vs", "word-rank"],
)
def test_each_property_reports_its_fault(capsys, monkeypatch, fault, name, detail, code):
    # a route that disagrees exits 2, as every verb does on a consistency
    # failure (R's degree against ell(u, v) is such a pair of routes); a
    # counterexample to an identity of the paper exits 1
    if callable(fault):
        fault(monkeypatch)
    else:
        monkeypatch.setattr(*fault)
    got = run(["verify", "--n", "3", "--format", "json"])
    failed = {r["name"]: r["detail"] for r in json.loads(capsys.readouterr().out)["reports"]
              if r["status"] == "fail"}
    assert failed[name].startswith(detail), failed
    assert got == code
