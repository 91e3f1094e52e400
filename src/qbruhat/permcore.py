"""Permutations of [n] = {1, ..., n} and the orders built on them.

A permutation w is a tuple of the n distinct values w_1..w_n (one-line
notation, 1-indexed values; position i is tuple index i-1).  Words act on
the right: w * s_i swaps the entries in positions i and i+1.

This module also houses cyclic intervals [a,b)_c, the shifted linear
orders <_r on [n], the (shifted) Gale orders on k-subsets, and the
Ehresmann criterion for the strong Bruhat order.

It also holds the size gates on exhaustive work (``GATES``), each read
from its environment variable or else its default.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree by theorem disagreed; a bug, not bad input."""


class GateError(ValueError):
    """An exhaustive computation was requested beyond its size gate."""


#: size gates on exhaustive work: variable -> (default, name in the error)
GATES = {
    "QBRUHAT_MAX_N": (8, "graph"),
    "QBRUHAT_MAX_COUNT_N": (4, "counting"),
    "QBRUHAT_MAX_PATH_N": (5, "path"),
    "QBRUHAT_MAX_GW_N": (4, "expansion"),
}


def gate(var: str) -> int:
    """The gate's value: its environment variable if set, else its default."""
    text = os.environ.get(var)
    if text is None:
        return GATES[var][0]
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{var} must be an integer, got {text!r}") from None


def check_gate(var: str, n: int) -> None:
    """Raise ``GateError`` if n exceeds the gate read from var."""
    limit = gate(var)
    if n > limit:
        raise GateError(
            f"n={n} exceeds the {GATES[var][1]} gate {limit}; set {var} to override"
        )


# ---------------------------------------------------------------------------
# basic permutation plumbing


def is_permutation(w: Sequence[int]) -> bool:
    """
    >>> is_permutation((2, 3, 1, 4)), is_permutation((1, 1, 2))
    (True, False)
    """
    n = len(w)
    return n > 0 and sorted(w) == list(range(1, n + 1))


def check_permutation(w: Sequence[int]) -> Perm:
    w = tuple(w)
    if not is_permutation(w):
        raise ValueError(f"not a permutation of [n]: {w!r}")
    return w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    """The longest element w_0 = n ... 2 1."""
    return tuple(range(n, 0, -1))


def long_cycle(n: int) -> Perm:
    """The long cycle tau = 2 3 ... n 1 (tau(i) = i+1 mod n)."""
    return tuple(list(range(2, n + 1)) + [1])


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def compose(w: Perm, x: Perm) -> Perm:
    """(w . x)(i) = w(x(i)); applies x first.

    >>> compose((2, 3, 1), (3, 1, 2))
    (1, 2, 3)
    """
    if len(w) != len(x):
        raise ValueError("size mismatch")
    return tuple(w[v - 1] for v in x)


def apply_transposition(w: Perm, i: int, j: int) -> Perm:
    """Right action w * t_{ij}: swap the entries in positions i and j.

    >>> apply_transposition((2, 3, 1), 1, 3)
    (1, 3, 2)
    """
    n = len(w)
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"bad positions ({i},{j}) for n={n}")
    out = list(w)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def apply_simple(w: Perm, i: int) -> Perm:
    return apply_transposition(w, i, i + 1)


def length(w: Perm) -> int:
    """Number of inversions; O(n^2) is fine at this scale.

    >>> length((2, 3, 1, 4))
    2
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def descents(w: Perm) -> set[int]:
    """Des(w) = {i : w_i > w_{i+1}}.

    >>> sorted(descents((2, 3, 1, 4)))
    [2]
    """
    return {i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]}


def ascents(w: Perm) -> set[int]:
    return {i + 1 for i in range(len(w) - 1) if w[i] < w[i + 1]}


def prefix_set(w: Perm, k: int) -> frozenset[int]:
    """w[k] = {w_1, ..., w_k}."""
    return frozenset(w[:k])


def all_permutations(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(1, n + 1))


def reduced_word(w: Perm) -> tuple[int, ...]:
    """The lexicographically smallest reduced word for w.

    Built greedily by peeling the smallest left descent; this is the
    canonical word used everywhere deterministic output is needed.

    >>> reduced_word((3, 1, 5, 2, 4, 6))
    (2, 1, 4, 3)
    """
    word = []
    cur = list(w)
    n = len(cur)
    pos = [0] * (n + 1)
    while True:
        for i, v in enumerate(cur):
            pos[v] = i
        for i in range(1, n):
            if pos[i] > pos[i + 1]:
                break
        else:
            return tuple(word)
        word.append(i)
        # left-multiply by s_i: swap the values i and i+1
        cur[pos[i]], cur[pos[i + 1]] = cur[pos[i + 1]], cur[pos[i]]


def perm_from_word(n: int, word: Iterable[int]) -> Perm:
    """Product id * s_{i_1} * ... * s_{i_l}."""
    w = identity(n)
    for i in word:
        w = apply_simple(w, i)
    return w


# ---------------------------------------------------------------------------
# cyclic intervals


def cyclic_interval(
    n: int, a: int, b: int, left_closed: bool = True, right_closed: bool = False
) -> frozenset[int]:
    """The cyclic interval from a to b in [n], wrapping when a > b.

    Degenerate endpoints a == b follow the directed-walk convention:
    [a,a)_c is empty, (a,a)_c = [n] minus {a}, [a,a]_c = {a}, (a,a]_c = [n].

    >>> sorted(cyclic_interval(4, 3, 2))
    [1, 3, 4]
    """
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"endpoints ({a},{b}) out of range for n={n}")
    if a == b:
        if left_closed and right_closed:
            return frozenset({a})
        if left_closed:
            return frozenset()
        if right_closed:
            return frozenset(range(1, n + 1))
        return frozenset(range(1, n + 1)) - {a}
    vals = set()
    x = a
    while x != b:
        vals.add(x)
        x = x % n + 1
    vals.add(b)
    if not left_closed:
        vals.discard(a)
    if not right_closed:
        vals.discard(b)
    return frozenset(vals)


def cyclic_interval_contains(
    n: int, a: int, b: int, x: int,
    left_closed: bool = True, right_closed: bool = False,
) -> bool:
    """Membership test for the cyclic interval, without building the set:
    x lies strictly inside iff 0 < (x - a) mod n < (b - a) mod n, with the
    degenerate a == b conventions of ``cyclic_interval``."""
    if not (1 <= a <= n and 1 <= b <= n and 1 <= x <= n):
        raise ValueError(f"values ({a},{b},{x}) out of range for n={n}")
    d, span = (x - a) % n, (b - a) % n
    if span == 0:
        return right_closed if d == 0 else not left_closed
    if d == 0:
        return left_closed
    if d == span:
        return right_closed
    return d < span


# ---------------------------------------------------------------------------
# shifted linear orders and (shifted) Gale orders


def shifted_key(n: int, r: int, x: int) -> int:
    """Rank of x in the total order r <_r r+1 <_r ... <_r n <_r 1 <_r ... """
    if not (1 <= r <= n and 1 <= x <= n):
        raise ValueError(f"values ({r},{x}) out of range for n={n}")
    return (x - r) % n


def shifted_less(n: int, r: int, x: int, y: int) -> bool:
    """x <_r y, strictly.

    >>> shifted_less(3, 2, 3, 1)
    True
    """
    return shifted_key(n, r, x) < shifted_key(n, r, y)


def sort_shifted(n: int, r: int, values: Iterable[int]) -> list[int]:
    return sorted(values, key=lambda x: shifted_key(n, r, x))


def shifted_gale_leq(n: int, r: int, A: Iterable[int], B: Iterable[int]) -> bool:
    """A <=_r B: sort both under <_r and compare componentwise.

    >>> shifted_gale_leq(7, 3, {3, 4, 6, 7}, {1, 2, 3, 5})
    True
    """
    sa = sort_shifted(n, r, A)
    sb = sort_shifted(n, r, B)
    if len(sa) != len(sb):
        raise ValueError("subset size mismatch")
    return all(shifted_key(n, r, x) <= shifted_key(n, r, y) for x, y in zip(sa, sb))


def gale_leq(n: int, A: Iterable[int], B: Iterable[int]) -> bool:
    """Plain Gale order: the r = 1 shifted Gale order."""
    return shifted_gale_leq(n, 1, A, B)


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Ehresmann criterion: u[k] <= v[k] in the Gale order for all k.

    >>> bruhat_leq((2, 1, 4, 3), (2, 4, 1, 3)), bruhat_leq((2, 1, 4, 3), (3, 1, 2, 4))
    (True, False)
    """
    if len(u) != len(v):
        raise ValueError("size mismatch")
    n = len(u)
    su, sv = [], []
    for k in range(n - 1):
        # maintain sorted prefixes incrementally
        su.append(u[k])
        su.sort()
        sv.append(v[k])
        sv.sort()
        if any(x > y for x, y in zip(su, sv)):
            return False
    return True


# ---------------------------------------------------------------------------
# text syntax


def format_perm(w: Perm) -> str:
    """Contiguous digits for n <= 9, comma-separated beyond.

    >>> format_perm((2, 3, 1, 4))
    '2314'
    """
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def parse_perm(text: str) -> Perm:
    """Inverse of :func:`format_perm`.

    >>> parse_perm("2314")
    (2, 3, 1, 4)
    """
    text = text.strip()
    if "," in text:
        vals = tuple(int(p) for p in text.split(","))
    else:
        if not text.isdigit():
            raise ValueError(f"cannot parse permutation {text!r}")
        vals = tuple(int(c) for c in text)
    return check_permutation(vals)


def format_subset(A: Iterable[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(A)) + "}"


def parse_subset(text: str) -> frozenset[int]:
    text = text.strip().lstrip("{").rstrip("}")
    if not text:
        return frozenset()
    return frozenset(int(p) for p in text.split(","))
