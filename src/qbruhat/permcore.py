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
    """Whether w lists 1..n once each, as ints (not floats or bools).

    >>> is_permutation((2, 3, 1, 4)), is_permutation((1, 1, 2)), is_permutation((True, 2))
    (True, False, False)
    """
    n = len(w)
    return n > 0 and all(type(x) is int for x in w) and sorted(w) == list(range(1, n + 1))


def check_permutation(w: Sequence[int]) -> Perm:
    w = tuple(w)
    if not is_permutation(w):
        raise ValueError(f"not a permutation of [n]: {w!r}")
    return w


def check_perms(u: Perm, v: Perm) -> None:
    """Raise ``ValueError`` unless u and v are permutations of one size."""
    if len(u) != len(v):
        raise ValueError("size mismatch")
    check_permutation(u)
    check_permutation(v)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    """The longest element w_0 = n ... 2 1."""
    return tuple(range(n, 0, -1))


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
    """w * s_i: swap the entries in positions i and i + 1."""
    if not 1 <= i < len(w):
        raise ValueError(f"bad positions ({i},{i + 1}) for n={len(w)}")
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def length(w: Perm) -> int:
    """Number of inversions, in one pass: each entry x adds the number of
    larger entries before it, read off a bitmask of the entries seen.

    >>> length((2, 3, 1, 4))
    2
    """
    inv = seen = 0
    for x in w:
        inv += (seen >> x + 1).bit_count()
        seen |= 1 << x
    return inv


def descents(w: Perm) -> set[int]:
    """Des(w) = {i : w_i > w_{i+1}}.

    >>> sorted(descents((2, 3, 1, 4)))
    [2]
    """
    return {i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]}


def prefix_set(w: Perm, k: int) -> frozenset[int]:
    """w[k] = {w_1, ..., w_k}."""
    return frozenset(w[:k])


def all_permutations(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(1, n + 1))


def sorting_word(p: list[int]) -> list[int]:
    """Sort p in place by adjacent swaps and return them: i for each swap
    of positions i and i + 1 (1-based).

    Each swap is at the leftmost descent of p.  Left of it p is sorted, so
    after the swap the next leftmost descent lies at most one place back:
    the scan steps back one place after each swap and forward otherwise,
    so it makes at most n + 2 l comparisons for l swaps.  The swaps are
    the inversions of p, each once, so the word is reduced.

    >>> sorting_word([3, 1, 2])
    [1, 2]
    """
    word = []
    i, last = 0, len(p) - 1
    while i < last:
        x, y = p[i], p[i + 1]
        if x > y:
            p[i], p[i + 1] = y, x
            word.append(i + 1)
            if i:
                i -= 1
        else:
            i += 1
    return word


def reduced_word(w: Perm) -> tuple[int, ...]:
    """The lexicographically smallest reduced word for w.

    The greedy word that peels the smallest left descent of w at each
    step: a left descent i of w is a right descent of w^{-1}, so it is
    ``sorting_word`` on the positions ``inverse(w)``.  This is the
    canonical word used everywhere deterministic output is needed.

    >>> reduced_word((3, 1, 5, 2, 4, 6))
    (2, 1, 4, 3)
    """
    return tuple(sorting_word(list(inverse(check_permutation(w)))))


def perm_from_word(n: int, word: Iterable[int]) -> Perm:
    """Product id * s_{i_1} * ... * s_{i_l}."""
    w = identity(n)
    for i in word:
        w = apply_simple(w, i)
    return w


# ---------------------------------------------------------------------------
# cyclic intervals


def cyclic_interval(n: int, a: int, b: int) -> frozenset[int]:
    """The cyclic interval [a, b)_c in [n], wrapping when a > b; [a, a)_c
    is empty.

    >>> sorted(cyclic_interval(4, 3, 2))
    [1, 3, 4]
    """
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"endpoints ({a},{b}) out of range for n={n}")
    if a <= b:
        return frozenset(range(a, b))
    return frozenset([*range(a, n + 1), *range(1, b)])


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

_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_perm(w: Perm) -> str:
    """Contiguous digits for n <= 9 (a bytes translate), commas beyond.

    >>> format_perm((2, 3, 1, 4))
    '2314'
    """
    if len(w) <= 9:
        return bytes(w).translate(_DIGITS).decode()
    return ",".join(str(v) for v in w)


def parse_perm(text: str) -> Perm:
    """Inverse of :func:`format_perm`: ASCII digits, one per entry or in
    comma-separated tokens; other text raises "cannot parse permutation".

    >>> parse_perm("2314")
    (2, 3, 1, 4)
    """
    text = text.strip()
    parts = [p.strip() for p in text.split(",")] if "," in text else list(text)
    if not parts or not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"cannot parse permutation {text!r}")
    return check_permutation(tuple(map(int, parts)))
