"""The four result records are named tuples: keyword construction, named
fields, immutability, their own ``len`` and ``in``, and a pickle round trip
through worker processes."""

import concurrent.futures
import json
import pickle

import pytest

from qbruhat.cli import run
from qbruhat.permcore import parse_perm
from qbruhat.qbgraph import TiltedInterval, tilted_interval
from qbruhat.tiltwords import (
    BAR,
    Subword,
    TiltedWord,
    distinguished_subwords,
    make_word,
    positive_distinguished_subword,
    regular_tilted_reduced_word,
)
from qbruhat.varietylab import ExactMatrix, make_matrix, permutation_matrix

U, V, A = parse_perm("4231"), parse_perm("3142"), (4, 4, 2, 2)  # A: the witness tilt


def _records():
    iv = tilted_interval(U, V)
    word = regular_tilted_reduced_word(A, V)
    sub = distinguished_subwords(word, U)[0]
    return iv, word, sub, permutation_matrix(V, field=3)


def test_fields_and_keyword_construction():
    iv, word, sub, M = _records()
    assert TiltedInterval._fields == ("u", "v", "ell", "d", "members", "rank")
    assert TiltedWord._fields == ("a", "factors", "target")
    assert Subword._fields == ("word", "keep", "target", "jplus", "jcirc", "jminus")
    assert ExactMatrix._fields == ("n", "field", "rows")
    for rec in (iv, word, sub, M):
        fields = {name: getattr(rec, name) for name in rec._fields}
        again = type(rec)(**fields)
        assert again == rec and tuple(again) == tuple(fields.values())
    assert word == TiltedWord(a=word.a, factors=word.factors, target=word.target)
    assert M == (M.n, M.field, M.rows) and M.entry(3, 1) == 1


def test_len_contains_and_poset_leq():
    iv, word, sub, M = _records()
    assert len(word) == len(word.factors) == 11 and word.n == 4
    assert len(sub) == len(word)
    assert word.bar_positions() == [4, 10] and word.factors[3] is BAR
    assert len(make_word((1, 1, 1), ())) == 0 and not make_word((1, 1, 1), ())
    assert U in iv and V in iv and parse_perm("1423") not in iv
    assert all((w in iv) == (w in iv.members) for w in map(parse_perm, ("1234", "1423", "4312")))
    assert iv.poset_leq(U, V) and not iv.poset_leq(V, U)
    with pytest.raises(ValueError):
        iv.poset_leq(U, parse_perm("1423"))


def test_assignment_raises_attribute_error():
    for rec in _records():
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_hash_follows_the_fields():
    iv, word, sub, M = _records()
    assert hash(word) == hash(tuple(word))
    assert len({sub, Subword(*sub)}) == 1
    assert hash(M) == hash(make_matrix(M.rows, 3))
    with pytest.raises(TypeError):
        hash(iv)  # holds the rank dict


def _built_in_a_worker(_):
    word = regular_tilted_reduced_word(A, V)
    return _records(), positive_distinguished_subword(word, U)


def test_records_round_trip_through_worker_processes(capsys):
    assert pickle.loads(pickle.dumps(_records())) == _records()
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        from_workers = list(pool.map(_built_in_a_worker, range(2)))
    local = _built_in_a_worker(0)
    assert from_workers == [local, local]
    assert type(from_workers[0][0][1]) is TiltedWord
    argv = ["verify", "--level", "fast", "--n", "4", "--seed", "2", "--format", "json"]
    assert run(argv) == 0
    serial = capsys.readouterr().out
    assert run([*argv, "--workers", "2"]) == 0
    pooled = capsys.readouterr().out
    assert pooled == serial
    assert all(r["status"] == "pass" for r in json.loads(serial)["reports"])
