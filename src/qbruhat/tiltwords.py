"""Tilted reduced words: words in the generators s_i with bar separators.

A word for w under a tilt a carries exactly |Jump_a| bars.  Reading left
to right, the active tilt starts fully flattened at (1, ..., 1) and each
bar restores one flattening level; equivalently, scanning from the right,
crossing a bar flattens the tilt once.  Validity requires that the prefix
product at each bar splits into the two cyclic bands of the tilt
(flattenability), and that no generator touches a jump position of its
active tilt.  ``bar_splits`` checks both in one walk, taking the active
tilt's jump set once per bar, and returns each bar's (jump_min, split);
``_regular_splits`` adds the regularity test on
top of that one walk, for ``is_regular`` and the TNN signs.
Both constructions join waypoints id -> ... -> w, one group per jump.
Each step is emitted from positions (``_join``), with the word kernel of
``reduced_word``; w is checked once, at each construction's entry.

Factors are ints (generator indices) or BAR (None).  Subwords drop
generator factors only; bars are never droppable.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .permcore import (
    InternalConsistencyError,
    Perm,
    apply_simple,
    check_permutation,
    cyclic_interval,
    identity,
    length,
    perm_from_word,
    sort_shifted,
    sorting_word,
)
from .tiltorder import Tilt, a_sim, adj_increases, check_tilt, descends, witness_a

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


def bar_band(a: Tilt) -> tuple[int, frozenset[int]]:
    """(jump_min, low band [a_1, a_{jm+1})_c): what a bar under the active
    tilt a tests, the same for every permutation."""
    jm = jump_min(a)
    return jm, cyclic_interval(len(a), a[0], a[jm] if jm < len(a) else 1)


def band_split(w: Perm, jm: int, low: frozenset[int]) -> Optional[int]:
    """Split index p if w's first jm entries are p entries of the low band,
    then jm - p outside it; None otherwise."""
    head = [x in low for x in w[:jm]]
    p = head.count(True)
    return None if any(head[p:]) else p


def flattenable(a: Tilt, w: Perm) -> Optional[int]:
    """Split index p if the first jump_min entries of w split into the two
    cyclic bands of the tilt; None otherwise.  The split is unique.
    """
    return band_split(w, *bar_band(check_tilt(a, len(w))))


# ---------------------------------------------------------------------------
# tilted words


class TiltedWord(NamedTuple):
    """A word under the tilt a, with the permutation it multiplies to.

    ``len`` counts factors, not fields, so the named-tuple helpers that
    check the field count by ``len`` (``_make``, ``_replace``) refuse it;
    build a new record instead.
    """

    a: Tilt
    factors: tuple[Factor, ...]
    target: Perm

    @property
    def n(self) -> int:
        return len(self.a)

    def bar_positions(self) -> list[int]:
        return [j for j, f in enumerate(self.factors, start=1) if f is BAR]

    def __len__(self) -> int:
        return len(self.factors)


def make_word(a: Sequence[int], factors: Sequence[Factor]) -> TiltedWord:
    n = len(a)
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


def bar_splits(word: TiltedWord) -> Optional[dict[int, tuple[int, int]]]:
    """{bar position j: (jump_min of the active tilt, split of the prefix
    product before j)} for a valid word; None for an invalid one.

    The active tilt changes only at bars, so its jump set, which the
    generators must avoid, is taken once for each run of factors between
    two bars, not once per generator.

    >>> bar_splits(make_word((2, 2, 2), (1, 2, None, 2, 1)))
    {3: (3, 2)}
    """
    n = word.n
    if len(word.bar_positions()) != len(jumps(word.a)):
        return None
    seqs = tilt_sequence(word)
    blocked = jumps(seqs[0])
    cur = identity(n)
    out: dict[int, tuple[int, int]] = {}
    for j, f in enumerate(word.factors, start=1):
        if f is BAR:
            jm, low = bar_band(seqs[j])
            p = band_split(cur, jm, low)
            if p is None:
                return None
            out[j] = (jm, p)
            blocked = jumps(seqs[j])
        elif 1 <= f <= n - 1 and f not in blocked:
            cur = apply_simple(cur, f)
        else:
            return None
    return out if cur == word.target else None


def is_valid(word: TiltedWord) -> bool:
    return bar_splits(word) is not None


# ---------------------------------------------------------------------------
# the two constructions


def _sorted_prefix(w: Perm, count: int, n: int, r: int) -> Perm:
    return tuple(sort_shifted(n, r, w[:count])) + w[count:]


def _join(a: Tilt, w: Perm, groups: list[list[Perm]]) -> TiltedWord:
    """Walk from id through each group's waypoints to w, a bar between
    groups.  A step src -> dst is ``sorting_word`` of the positions in dst
    of src's entries: the swaps that carry src to dst, leftmost descent
    first, which is the canonical word ``reduced_word(src^{-1} . dst)``."""
    factors: list[Factor] = []
    src = identity(len(w))
    at = [0] * (len(w) + 1)
    for k, group in enumerate(groups):
        if k:
            factors.append(BAR)
        for dst in group:
            for i, x in enumerate(dst):
                at[x] = i
            factors.extend(sorting_word([at[x] for x in src]))
            src = dst
    return TiltedWord(a=a, factors=tuple(factors), target=w)


def tilted_reduced_word(a: Tilt, w: Perm) -> TiltedWord:
    """The sorting construction id -> w^(t) -> ... -> w^(1) -> w: w^(k)
    sorts the first jump_k entries of w for a_{jump_k}, largest jump first.
    """
    n = len(w)
    a = check_tilt(a, n)
    check_permutation(w)
    js = sorted(jumps(a), reverse=True)
    return _join(a, w, [[_sorted_prefix(w, jk, n, a[jk - 1])] for jk in js] + [[w]])


def regular_tilted_reduced_word(a: Tilt, w: Perm) -> TiltedWord:
    """The sorting construction with wtilde^(k), the prefix sorted for the
    tilt past the jump, in front of each w^(k): a reduced word for a
    bi-Grassmannian then lands immediately before every bar.
    """
    n = len(w)
    a = check_tilt(a, n)
    check_permutation(w)
    js = sorted(jumps(a), reverse=True)
    past = a + (1,)
    groups = [[_sorted_prefix(w, jk, n, r) for r in (past[jk], a[jk - 1])] for jk in js]
    return _join(a, w, groups + [[w]])


def word_length(a: Tilt, w: Perm) -> int:
    """l^word_a(w): factors (bars included) of a reduced tilted word."""
    return len(tilted_reduced_word(a, w))


def bigrassmannian(n: int, a: int, b: int) -> Perm:
    """One-line (a+1) ... (a+b) 1 ... a (a+b+1) ... n."""
    if a + b > n or a < 0 or b < 0:
        raise ValueError(f"s_({a},{b}) does not fit in S_{n}")
    return tuple(list(range(a + 1, a + b + 1)) + list(range(1, a + 1)) + list(range(a + b + 1, n + 1)))


def _regular_splits(word: TiltedWord) -> Optional[dict[int, tuple[int, int]]]:
    """``bar_splits(word)`` if the word is regular, else None: one walk of
    the bars for callers that need both the test and the splits."""
    splits = bar_splits(word)
    if splits is None:
        return None
    n = word.n
    for j, (q, p) in splits.items():
        x = bigrassmannian(n, q - p, p)
        need = length(x)
        block = word.factors[j - 1 - need : j - 1]
        if len(block) != need or BAR in block or perm_from_word(n, block) != x:
            return None
    return splits


def is_regular(word: TiltedWord) -> bool:
    """Every bar is immediately preceded by a reduced word for the
    bi-Grassmannian s_{q-p,p} attached to that bar."""
    return _regular_splits(word) is not None


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


class Subword(NamedTuple):
    """A subword of ``word`` and its positions by kind; ``len`` is the
    word's length, so ``_make`` and ``_replace`` refuse it too."""

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
    bar-flattenability enforced on each bar's band, fixed once per bar.
    Dead branches are pruned by ``live``: live[pos] holds the prefixes at
    position pos that can still end at u, built right to left from
    live[ell] = {u}, so only states on some path to u are ever held.
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
            jm, low = bar_band(aj)
            live[pos] = {w for w in after if band_split(w, jm, low) is not None}
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
    u is checked here, once; each step tests its descent with the
    unchecked ``tiltorder.descends``.
    """
    if len(check_permutation(u)) != word_v.n:
        raise ValueError("size mismatch")
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
        if descends(seqs[j], cur, f):
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
