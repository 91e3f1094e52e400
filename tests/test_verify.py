import json
import random

import pytest

from qbruhat import verify
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


@pytest.mark.parametrize("n, seed", sorted(PINNED))
def test_full_catalogue_reports_are_pinned(capsys, n, seed):
    code = run(["verify", "--level", "full", "--n", str(n), "--seed", str(seed),
                "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(r["name"], r["status"], r["detail"]) for r in data["reports"]] == PINNED[n, seed]


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
    from qbruhat import qbgraph

    seen = []
    real = qbgraph.tilted_interval
    monkeypatch.setattr(qbgraph, "tilted_interval", lambda u, v: seen.append(1) or real(u, v))
    report, _ = verify.run_property(("thin-intervals", 4, 0, level))
    assert report["status"] == "pass" and len(seen) == calls
