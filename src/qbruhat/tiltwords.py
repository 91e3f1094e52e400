"""Tilted reduced words: words in the generators s_i with bar separators.

A word for w under a tilt a carries exactly |Jump_a| bars.  Reading left
to right, the active tilt starts fully flattened at (1, ..., 1) and each
bar restores one flattening level; equivalently, scanning from the right,
crossing a bar flattens the tilt once.  Validity requires that the prefix
product at each bar splits into the two cyclic bands of the tilt
(flattenability), and that no generator touches a jump position of its
active tilt.

Factors are ints (generator indices) or BAR (None).  Subwords drop
generator factors only; bars are never droppable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .permcore import (
    InternalConsistencyError,
    Perm,
    apply_simple,
    compose,
    cyclic_interval,
    identity,
    inverse,
    length,
    perm_from_word,
    reduced_word,
    sort_shifted,
)
from .tiltorder import Tilt, a_sim, adj_increases, a_step_type, check_tilt, witness_a

BAR = None
Factor = Optional[int]


# ---------------------------------------------------------------------------
# jumps and flattening


def jumps(a: Tilt) -> frozenset[int]:
    """Jump_a = {j : a_j != a_{j+1}}, with a_{n+1} = 1.

    >>> sorted(jumps((2, 2, 4, 4, 4, 3)))
    [2, 5, 6]
    """
    n = len(a)
    a = check_tilt(a, n)
    out = {j for j in range(1, n) if a[j - 1] != a[j]}
    if a[n - 1] != 1:
        out.add(n)
    return frozenset(out)


def jump_min(a: Tilt) -> int:
    js = jumps(a)
    if not js:
        raise ValueError("constant-1 tilt has no jumps")
    return min(js)


def flatten(a: Tilt) -> Tilt:
    """Replace the first jump_min entries by the value just past the jump.

    >>> flatten((2, 2, 4, 4, 4, 3))
    (4, 4, 4, 4, 4, 3)
    """
    n = len(a)
    jm = jump_min(a)
    fill = a[jm] if jm < n else 1
    return (fill,) * jm + a[jm:]


def back_flatten(a: Tilt) -> Tilt:
    """Overwrite the constant tail block with the value just before it."""
    n = len(a)
    a = check_tilt(a, n)
    jmax = 0
    for j in range(n - 1, 0, -1):
        if a[j - 1] != a[j]:
            jmax = j
            break
    if jmax == 0:
        raise ValueError("constant tilt cannot be back-flattened")
    return a[:jmax] + (a[jmax - 1],) * (n - jmax)


def flattenable(a: Tilt, w: Perm) -> Optional[int]:
    """Split index p if the first jump_min entries of w split into the two
    cyclic bands of the tilt; None otherwise.  The split is unique.
    """
    n = len(w)
    a = check_tilt(a, n)
    jm = jump_min(a)
    pivot = a[jm] if jm < n else 1
    low = cyclic_interval(n, a[0], pivot)  # [a_1, a_{jm+1})_c
    p = sum(1 for i in range(jm) if w[i] in low)
    for i in range(jm):
        if (w[i] in low) != (i < p):
            return None
    return p


# ---------------------------------------------------------------------------
# tilted words


@dataclass(frozen=True)
class TiltedWord:
    a: Tilt
    factors: tuple[Factor, ...]
    target: Perm

    @property
    def n(self) -> int:
        return len(self.a)

    def generator_positions(self) -> list[int]:
        return [j for j, f in enumerate(self.factors, start=1) if f is not BAR]

    def bar_positions(self) -> list[int]:
        return [j for j, f in enumerate(self.factors, start=1) if f is BAR]

    def __len__(self) -> int:
        return len(self.factors)


def make_word(a: Sequence[int], factors: Sequence[Factor], n: Optional[int] = None) -> TiltedWord:
    n = n if n is not None else len(a)
    a = check_tilt(a, n)
    target = perm_from_word(n, (f for f in factors if f is not BAR))
    return TiltedWord(a=a, factors=tuple(factors), target=target)


def tilt_sequence(word: TiltedWord) -> list[Tilt]:
    """The active tilts a^(0), ..., a^(l): a^(l) = a, flattened across bars
    scanning right to left."""
    seqs = [word.a]
    for f in reversed(word.factors):
        seqs.append(flatten(seqs[-1]) if f is BAR else seqs[-1])
    return seqs[::-1]


def prefix_products(word: TiltedWord) -> list[Perm]:
    """v^(0) = id, ..., v^(l) = target; bars contribute the identity."""
    out = [identity(word.n)]
    for f in word.factors:
        out.append(out[-1] if f is BAR else apply_simple(out[-1], f))
    return out


def is_valid(word: TiltedWord) -> bool:
    """The recursive bar conditions, checked positionally."""
    n = word.n
    if len(word.bar_positions()) != len(jumps(word.a)):
        return False
    seqs = tilt_sequence(word)
    prods = prefix_products(word)
    for j, f in enumerate(word.factors, start=1):
        if f is BAR:
            if flattenable(seqs[j], prods[j - 1]) is None:
                return False
        else:
            if not 1 <= f <= n - 1 or f in jumps(seqs[j]):
                return False
    return prods[-1] == word.target


def is_reduced(word: TiltedWord) -> bool:
    return is_valid(word) and len(word) == word_length(word.a, word.target)


# ---------------------------------------------------------------------------
# the two constructions


def _sorting_chain(a: Tilt) -> list[int]:
    """Jump positions of a in increasing order jump_1 < ... < jump_t."""
    return sorted(jumps(a))


def _sorted_prefix(w: Perm, count: int, n: int, r: int) -> Perm:
    return tuple(sort_shifted(n, r, w[:count])) + w[count:]


def _segment(src: Perm, dst: Perm) -> tuple[int, ...]:
    """Canonical reduced word for src^{-1} . dst."""
    return reduced_word(compose(inverse(src), dst))


def tilted_reduced_word(a: Tilt, w: Perm) -> TiltedWord:
    """The sorting construction: sort the first jump_k entries of w for each
    jump, largest jump first, and join the step words with bars.
    """
    n = len(w)
    a = check_tilt(a, n)
    chain = [w]
    for jk in _sorting_chain(a):
        chain.append(_sorted_prefix(w, jk, n, a[jk - 1]))
    chain.append(identity(n))
    chain.reverse()  # id = w^(t+1), w^(t), ..., w^(0) = w
    factors: list[Factor] = []
    for idx, (src, dst) in enumerate(zip(chain, chain[1:])):
        if idx:
            factors.append(BAR)
        factors.extend(_segment(src, dst))
    return TiltedWord(a=a, factors=tuple(factors), target=w)


def regular_tilted_reduced_word(a: Tilt, w: Perm) -> TiltedWord:
    """The sorting construction refined so that a reduced word for a
    bi-Grassmannian permutation lands immediately before every bar.
    """
    n = len(w)
    a = check_tilt(a, n)
    chain = [w]
    for jk in _sorting_chain(a):
        chain.append(_sorted_prefix(w, jk, n, a[jk - 1]))
        nxt = a[jk] if jk < n else 1
        chain.append(_sorted_prefix(w, jk, n, nxt))
    chain.append(identity(n))
    chain.reverse()  # id, wtilde^(t), w^(t), ..., wtilde^(1), w^(1), w
    factors: list[Factor] = []
    for idx, (src, dst) in enumerate(zip(chain, chain[1:])):
        factors.extend(_segment(src, dst))
        # a bar follows every second transition, the last group is bar-less
        if idx % 2 == 1:
            factors.append(BAR)
    return TiltedWord(a=a, factors=tuple(factors), target=w)


@functools.lru_cache(maxsize=1 << 16)
def word_length(a: Tilt, w: Perm) -> int:
    """l^word_a(w): factors (bars included) of a reduced tilted word."""
    return len(tilted_reduced_word(a, w))


def bigrassmannian(n: int, a: int, b: int) -> Perm:
    """One-line (a+1) ... (a+b) 1 ... a (a+b+1) ... n."""
    if a + b > n or a < 0 or b < 0:
        raise ValueError(f"s_({a},{b}) does not fit in S_{n}")
    return tuple(list(range(a + 1, a + b + 1)) + list(range(1, a + 1)) + list(range(a + b + 1, n + 1)))


def is_regular(word: TiltedWord) -> bool:
    """Every bar is immediately preceded by a reduced word for the
    bi-Grassmannian s_{q-p,p} attached to that bar."""
    if not is_valid(word):
        return False
    n = word.n
    seqs = tilt_sequence(word)
    prods = prefix_products(word)
    for j in word.bar_positions():
        aj = seqs[j]
        q = jump_min(aj)
        p = flattenable(aj, prods[j - 1])
        if p is None:
            return False
        x = bigrassmannian(n, q - p, p)
        need = length(x)
        block = word.factors[j - 1 - need : j - 1]
        if len(block) != need or any(f is BAR for f in block):
            return False
        if perm_from_word(n, block) != x:
            return False
    return True


# ---------------------------------------------------------------------------
# text format


def format_word(word: TiltedWord) -> str:
    """
    >>> format_word(make_word((2, 2, 2), (1, 2, None, 2, 1)))
    's1 s2 | s2 s1'
    """
    return " ".join("|" if f is BAR else f"s{f}" for f in word.factors)


def parse_word(a: Sequence[int], text: str) -> TiltedWord:
    factors: list[Factor] = []
    for tok in text.split():
        if tok == "|":
            factors.append(BAR)
        elif tok.startswith("s") and tok[1:].isdigit():
            factors.append(int(tok[1:]))
        else:
            raise ValueError(f"bad word token {tok!r}")
    return make_word(a, factors)


# ---------------------------------------------------------------------------
# subwords


@dataclass(frozen=True)
class Subword:
    word: TiltedWord
    keep: tuple[bool, ...]  # aligned with factors; bars always True
    target: Perm
    jplus: frozenset[int]
    jcirc: frozenset[int]
    jminus: frozenset[int]

    def __len__(self) -> int:
        return len(self.word)


def format_subword(sub: Subword) -> str:
    parts = []
    for j, f in enumerate(sub.word.factors, start=1):
        if f is BAR:
            parts.append("|")
        else:
            parts.append(f"s{f}" if sub.keep[j - 1] else "1")
    return " ".join(parts)


def _classify(word: TiltedWord, keep: Sequence[bool]) -> Subword:
    seqs = tilt_sequence(word)
    cur = identity(word.n)
    jplus, jcirc, jminus = set(), set(), set()
    for j, f in enumerate(word.factors, start=1):
        if f is BAR:
            continue
        if keep[j - 1]:
            if adj_increases(seqs[j], cur, f):
                jplus.add(j)
            else:
                jminus.add(j)
            cur = apply_simple(cur, f)
        else:
            jcirc.add(j)
    return Subword(
        word=word,
        keep=tuple(keep),
        target=cur,
        jplus=frozenset(jplus),
        jcirc=frozenset(jcirc),
        jminus=frozenset(jminus),
    )


def distinguished_subwords(word_v: TiltedWord, u: Perm) -> list[Subword]:
    """All tilted distinguished subwords of word_v with product u.

    Enumerated left to right under the forced-keep rule (a generator whose
    right multiplication decreases the running prefix must be kept), with
    bar-flattenability enforced.  Dead branches are pruned by ``live``:
    live[pos] holds the prefixes at position pos that can still end at u,
    built right to left from live[ell] = {u}, so only states on some path to
    u are ever held.
    """
    if not a_sim(word_v.a, u, word_v.target):
        raise ValueError("u is not ~_a equivalent to the word's target")
    seqs = tilt_sequence(word_v)
    factors = word_v.factors
    ell = len(factors)

    live: list[set[Perm]] = [set() for _ in range(ell)] + [{u}]
    for pos in range(ell - 1, -1, -1):
        f = factors[pos]
        aj = seqs[pos + 1]
        after = live[pos + 1]
        if f is BAR:
            live[pos] = {w for w in after if flattenable(aj, w) is not None}
        else:
            # w reaches x in after by skipping f (only if w <_a w s_f) or by
            # keeping it (w = x s_f)
            live[pos] = {x for x in after if adj_increases(aj, x, f)}
            live[pos].update(apply_simple(x, f) for x in after)

    out: list[Subword] = []
    keep: list[bool] = []

    def walk(pos: int, w: Perm) -> None:
        if pos == ell:
            out.append(_classify(word_v, keep))
            return
        f = factors[pos]
        aj = seqs[pos + 1]
        if f is BAR:
            keep.append(True)
            walk(pos + 1, w)
            keep.pop()
            return
        nxt = apply_simple(w, f)
        if adj_increases(aj, w, f) and w in live[pos + 1]:
            keep.append(False)
            walk(pos + 1, w)
            keep.pop()
        if nxt in live[pos + 1]:
            keep.append(True)
            walk(pos + 1, nxt)
            keep.pop()

    if identity(word_v.n) in live[0]:
        walk(0, identity(word_v.n))
    return out


def positive_distinguished_subword(word_v: TiltedWord, u: Perm) -> Subword:
    """The unique distinguished subword for u with no forced keeps,
    built right to left by the descent rule.  Requires u <~_a target.
    """
    seqs = tilt_sequence(word_v)
    cur = u
    keep: list[bool] = []
    for j in range(len(word_v), 0, -1):
        f = word_v.factors[j - 1]
        if f is BAR:
            keep.append(True)
            if flattenable(seqs[j], cur) is None:
                raise ValueError("u is not <~_a below the word's target")
            continue
        if a_step_type(seqs[j], cur, f) == "descent":
            keep.append(True)
            cur = apply_simple(cur, f)
        else:
            keep.append(False)
    if cur != identity(word_v.n):
        raise ValueError("u is not <~_a below the word's target")
    sub = _classify(word_v, keep[::-1])
    if sub.jminus or sub.target != u:
        raise InternalConsistencyError("positive subword construction failed")
    return sub


def positive_word(
    u: Perm, v: Perm, a: Optional[Tilt] = None
) -> tuple[Tilt, TiltedWord, Subword]:
    """The tilt a (the witness tilt of (u, v) unless given), the regular
    tilted reduced word of v under a, and its positive distinguished
    subword for u: the data of one Deodhar parametrization of T°_{u,v}."""
    if a is None:
        a = witness_a(u, v)
    word = regular_tilted_reduced_word(a, v)
    return a, word, positive_distinguished_subword(word, u)


# ---------------------------------------------------------------------------
# word moves (braid and bar relations)


def word_moves(word: TiltedWord) -> Iterator[TiltedWord]:
    """All valid words one move away: commutations, braid moves, and
    bar swaps s_i| = |s_i.  Targets and lengths are preserved."""
    f = word.factors
    for j in range(len(f) - 1):
        x, y = f[j], f[j + 1]
        if x is not BAR and y is not BAR and abs(x - y) > 1:
            cand = f[:j] + (y, x) + f[j + 2 :]
            yield make_word(word.a, cand)
        if (x is BAR) != (y is BAR):
            cand = f[:j] + (y, x) + f[j + 2 :]
            moved = make_word(word.a, cand)
            if is_valid(moved):
                yield moved
    for j in range(len(f) - 2):
        x, y, z = f[j : j + 3]
        if BAR in (x, y, z):
            continue
        if x == z and abs(x - y) == 1:
            cand = f[:j] + (y, x, y) + f[j + 3 :]
            yield make_word(word.a, cand)
