"""Reference implementations that the tests compare the package against.

Each is the plain definition of something ``qbruhat`` computes by a faster
or sparser route.  Nothing in ``src/qbruhat/`` calls them, and
``tests/test_dead_code.py`` fails if one of them is defined there too or if
a module of the package imports from the tests.
"""

import itertools
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from qbruhat.permcore import (
    Perm,
    all_permutations,
    apply_simple,
    apply_transposition,
    compose,
    format_perm,
    identity,
    inverse,
    length,
    reduced_word,
    shifted_less,
    sort_shifted,
)
from qbruhat.qbgraph import tilted_interval
from qbruhat.rpolyhecke import LaurentPoly
from qbruhat.tiltorder import Tilt
from qbruhat.tiltwords import (
    BAR,
    TiltedWord,
    flattenable,
    jump_min,
    jumps,
    tilt_sequence,
)
from qbruhat.varietylab import ExactMatrix, Scalar, _minor_table, make_matrix, plucker


# ---------------------------------------------------------------------------
# words: the smallest-left-descent peel and the words joined from it


def reduced_word_by_peeling(w: Perm) -> tuple[int, ...]:
    """The lexicographically smallest reduced word of w: peel the smallest
    left descent i of w (i + 1 left of i in w), then swap the values i and
    i + 1, until w is the identity."""
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
        cur[pos[i]], cur[pos[i + 1]] = cur[pos[i + 1]], cur[pos[i]]


def tilted_word_by_peeling(a: Tilt, w: Perm, regular: bool = False) -> tuple:
    """The factors of ``tilted_reduced_word(a, w)`` (``regular=False``) or
    ``regular_tilted_reduced_word(a, w)``: the waypoints id -> ... -> w,
    each step src -> dst the peeled word of src^{-1} . dst, a bar between
    groups."""
    n = len(w)

    def sorted_prefix(count: int, r: int) -> Perm:
        return tuple(sort_shifted(n, r, w[:count])) + w[count:]

    past = tuple(a) + (1,)
    groups = [
        [sorted_prefix(jk, r) for r in ((past[jk], a[jk - 1]) if regular else (a[jk - 1],))]
        for jk in sorted(jumps(a), reverse=True)
    ]
    factors: list = []
    src = identity(n)
    for k, group in enumerate(groups + [[w]]):
        if k:
            factors.append(BAR)
        for dst in group:
            factors.extend(reduced_word_by_peeling(compose(inverse(src), dst)))
            src = dst
    return tuple(factors)


def bar_splits_per_generator(word: TiltedWord) -> Optional[dict[int, tuple[int, int]]]:
    """``bar_splits(word)`` with the active tilt's jump set taken afresh at
    every generator: each factor j is tested against the tilt ``a^(j)`` of
    ``tilt_sequence``, a bar by ``flattenable`` on the prefix product."""
    n = word.n
    if len(word.bar_positions()) != len(jumps(word.a)):
        return None
    seqs = tilt_sequence(word)
    cur = identity(n)
    out: dict[int, tuple[int, int]] = {}
    for j, f in enumerate(word.factors, start=1):
        if f is BAR:
            p = flattenable(seqs[j], cur)
            if p is None:
                return None
            out[j] = (jump_min(seqs[j]), p)
        elif 1 <= f <= n - 1 and f not in jumps(seqs[j]):
            cur = apply_simple(cur, f)
        else:
            return None
    return out if cur == word.target else None


# ---------------------------------------------------------------------------
# tilted intervals: a prefix set's level test by one walk over the abscissae


def prefix_depth_by_walk(row: Sequence[int], below: int, s: int) -> int:
    """d(u,w)_k if the k-set s = w[k] passes level k of [u,v], else -1.

    row is level k of ``lattice_rows(u, v)``, below is u[k] and s is w[k],
    both as bitmasks (bit x for the entry x).  One walk over the abscissae
    x = 1..n keeps h, the height of the path of (u[k], s), and the minima
    of h and of row - h, the path of (s, v[k]); s passes iff the two minima
    sum to min(row), and then d(u,w)_k = -min h.
    """
    h = lo_u = lo_v = 0
    for x in range(1, len(row)):
        h += (below >> x & 1) - (s >> x & 1)
        if h < lo_u:
            lo_u = h
        if row[x] - h < lo_v:
            lo_v = row[x] - h
    return -lo_u if lo_u + lo_v == min(row) else -1


# ---------------------------------------------------------------------------
# tilted Rothe diagrams by their pairwise definitions


def a_length_by_pairs(a: Tilt, w: Perm) -> int:
    """Number of a-inversions: pairs i < j with w_i >_{a_i} w_j."""
    n = len(w)
    return sum(
        1
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if shifted_less(n, a[i - 1], w[j - 1], w[i - 1])
    )


def tilted_rothe_op_by_definition(a: Tilt, w: Perm) -> frozenset[tuple[int, int]]:
    """The opposite diagram {(w_i, k) : i > k, w_i >_{a_k} w_k}."""
    n = len(w)
    return frozenset(
        (w[i - 1], k)
        for k in range(1, n + 1)
        for i in range(k + 1, n + 1)
        if shifted_less(n, a[k - 1], w[k - 1], w[i - 1])
    )


def flags_by_inverse(n: int, p: int) -> Iterator[ExactMatrix]:
    """The classical Schubert-cell matrices of Fl_n(F_p), cell by cell: a 1
    at each (w_k, k), and free entries at the rows i < w_k that a later
    column takes (w^{-1}(i) > k), column by column, each top down."""
    for w in all_permutations(n):
        winv = inverse(w)
        free = [
            (i, k)
            for k in range(1, n + 1)
            for i in range(1, w[k - 1])
            if winv[i - 1] > k
        ]
        base = [[0] * n for _ in range(n)]
        for k, wk in enumerate(w, start=1):
            base[wk - 1][k - 1] = 1
        for vals in itertools.product(range(p), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, k), val in zip(free, vals):
                rows[i - 1][k - 1] = val
            yield make_matrix(rows, p)


# ---------------------------------------------------------------------------
# the Hecke algebra on Laurent coefficients: T_w, T_i, T_i^{-1}, the full
# (T_w)^{-1} and the trace


class LaurentHeckeElt:
    """Element of the Hecke algebra of S_n in the T_w basis, the oracle of
    the trace route's packed ``rpolyhecke.HeckeElt``.

    ``terms`` maps w to the coefficient of T_w, a Laurent polynomial in q
    held as a plain integer map exponent -> coefficient.  Normal form: no
    zero coefficient and no empty map is stored, so equal elements have
    equal ``terms``.  ``LaurentPoly`` appears only at the boundary: ``scale``
    takes one, ``trace_product_by_dict`` returns one, ``__str__`` prints
    through it.  The generator steps are the unscaled T_i and T_i^{-1}.
    """

    __slots__ = ("n", "terms")

    def __init__(
        self, n: int, terms: Optional[Mapping[Perm, Mapping[int, int]]] = None
    ):
        self.n = n
        self.terms: dict[Perm, dict[int, int]] = {}
        for w, c in (terms or {}).items():
            m = {e: k for e, k in c.items() if k}
            if m:
                self.terms[w] = m

    @classmethod
    def _wrap_normal(cls, n: int, terms: dict[Perm, dict[int, int]]) -> "LaurentHeckeElt":
        """Wrap terms already in normal form, without copying them."""
        elt = cls.__new__(cls)
        elt.n, elt.terms = n, terms
        return elt

    @classmethod
    def identity_elt(cls, n: int) -> "LaurentHeckeElt":
        return cls(n, {identity(n): {0: 1}})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentHeckeElt)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other: "LaurentHeckeElt") -> "LaurentHeckeElt":
        out = {w: dict(c) for w, c in self.terms.items()}
        for w, c in other.terms.items():
            acc = out.setdefault(w, {})
            for e, k in c.items():
                acc[e] = acc.get(e, 0) + k
        return LaurentHeckeElt(self.n, out)

    def scale(self, c: LaurentPoly) -> "LaurentHeckeElt":
        return LaurentHeckeElt(
            self.n, {w: (c * LaurentPoly(cw)).terms for w, cw in self.terms.items()}
        )

    def _pair_terms(
        self, i: int
    ) -> Iterator[tuple[Perm, Perm, dict[int, int], dict[int, int]]]:
        """(lo, hi, a, b) once for each pair {w, w s_i} meeting the support.

        hi = lo s_i has one inversion more than lo; a and b are the
        coefficients of T_lo and T_hi (either may be the empty map).
        """
        t = self.terms
        for w, c in t.items():
            ws = apply_simple(w, i)
            if w[i - 1] < w[i]:
                yield w, ws, c, t.get(ws, _EMPTY)
            elif ws not in t:
                yield ws, w, _EMPTY, c

    def times_gen(self, i: int) -> "LaurentHeckeElt":
        """Right multiplication by T_i.

        Pair by pair, a T_lo + b T_hi -> q b T_lo + (a + (q-1) b) T_hi,
        since T_lo T_i = T_hi and T_hi T_i = (q-1) T_hi + q T_lo.
        """
        out: dict[Perm, dict[int, int]] = {}
        for lo, hi, a, b in self._pair_terms(i):
            if b:
                out[lo] = _shifted(b, 1)
            m = _plus_qdiff(a, b, 1)
            if m:
                out[hi] = m
        return LaurentHeckeElt._wrap_normal(self.n, out)

    def times_gen_inverse(self, i: int) -> "LaurentHeckeElt":
        """Right multiplication by T_i^{-1} = q^{-1} T_i - (q-1) q^{-1}.

        Pair by pair, a T_lo + b T_hi -> (b + (q^-1 - 1) a) T_lo + q^-1 a T_hi,
        since T_hi T_i^{-1} = T_lo and T_lo T_i^{-1} = q^-1 T_hi + (q^-1 - 1) T_lo.
        """
        out: dict[Perm, dict[int, int]] = {}
        for lo, hi, a, b in self._pair_terms(i):
            m = _plus_qdiff(b, a, -1)
            if m:
                out[lo] = m
            if a:
                out[hi] = _shifted(a, -1)
        return LaurentHeckeElt._wrap_normal(self.n, out)

    def __mul__(self, other: "LaurentHeckeElt") -> "LaurentHeckeElt":
        if self.n != other.n:
            raise ValueError("size mismatch")
        total = LaurentHeckeElt(self.n)
        for w, c in other.terms.items():
            piece = self
            for i in reduced_word(w):
                piece = piece.times_gen(i)
            total = total + piece.scale(LaurentPoly(c))
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({LaurentPoly(self.terms[w])})*T[{format_perm(w)}]"
            for w in sorted(self.terms)
        )

    __repr__ = __str__


_EMPTY: dict[int, int] = {}


def _shifted(c: Mapping[int, int], s: int) -> dict[int, int]:
    """q^s c."""
    return {e + s: k for e, k in c.items()}


def _plus_qdiff(
    base: Mapping[int, int], c: Mapping[int, int], s: int
) -> dict[int, int]:
    """base + (q^s - 1) c, with zero coefficients dropped."""
    out = dict(base)
    for e, k in c.items():
        out[e] = out.get(e, 0) - k
        out[e + s] = out.get(e + s, 0) + k
    if 0 in out.values():
        return {e: k for e, k in out.items() if k}
    return out


def trace_product_by_dict(x: LaurentHeckeElt, y: LaurentHeckeElt) -> LaurentPoly:
    """eps(x y) = sum_w x_w y_{w^{-1}} q^{l(w)}, without forming x y.

    From eps(T_a T_b) = q^{l(a)} if ab = id, else 0.  The sum is symmetric
    in x and y (l(w) = l(w^{-1})), so it runs over the smaller support.
    """
    if x.n != y.n:
        raise ValueError("size mismatch")
    if len(x.terms) > len(y.terms):
        x, y = y, x
    out: dict[int, int] = {}
    for w, cx in x.terms.items():
        cy = y.terms.get(inverse(w))
        if cy is not None:
            lw = length(w)
            for ex, kx in cx.items():
                for ey, ky in cy.items():
                    e = ex + ey + lw
                    out[e] = out.get(e, 0) + kx * ky
    return LaurentPoly(out)


def hecke_t_by_dict(word_gens: Iterable[int], n: int) -> LaurentHeckeElt:
    """T_w for a word: the product of the T_i over its generator factors."""
    out = LaurentHeckeElt.identity_elt(n)
    for i in word_gens:
        out = out.times_gen(i)
    return out


def hecke_basis(w: Perm) -> LaurentHeckeElt:
    """The basis element T_w."""
    return LaurentHeckeElt(len(w), {w: {0: 1}})


def hecke_gen(n: int, i: int) -> LaurentHeckeElt:
    return hecke_basis(apply_simple(identity(n), i))


def hecke_gen_inverse(n: int, i: int) -> LaurentHeckeElt:
    return LaurentHeckeElt.identity_elt(n).times_gen_inverse(i)


def hecke_t_inverse(word_gens: Iterable[int], n: int) -> LaurentHeckeElt:
    """(T_w)^{-1}: the T_i^{-1} in reverse order, with no term dropped."""
    out = LaurentHeckeElt.identity_elt(n)
    for i in reversed(list(word_gens)):
        out = out.times_gen_inverse(i)
    return out


def trace(x: LaurentHeckeElt) -> LaurentPoly:
    """The trace eps: the coefficient of T_id, read off the product that
    ``trace_product_by_dict`` never forms."""
    return LaurentPoly(x.terms.get(identity(x.n)))


# ---------------------------------------------------------------------------
# classical Monk


def classical_monk(k: int, w: Perm) -> dict[Perm, int]:
    """Classical Monk by direct transposition enumeration."""
    n = len(w)
    out: dict[Perm, int] = {}
    for i in range(1, k + 1):
        for j in range(k + 1, n + 1):
            t = apply_transposition(w, i, j)
            if length(t) == length(w) + 1:
                out[t] = out.get(t, 0) + 1
    return out


# ---------------------------------------------------------------------------
# flags and the pinned matrices of the Deodhar parametrization


def count_total_flags(n: int, p: int) -> int:
    """|Fl_n(F_p)| = sum of p^{l(w)} over S_n."""
    return sum(p ** length(w) for w in all_permutations(n))


def multi_plucker(M: ExactMatrix, w: Perm) -> Scalar:
    """Delta_w = prod_k Delta_{w[k]}, each factor by ``plucker``."""
    total: Scalar = 1
    for k in range(1, M.n + 1):
        total *= plucker(M, w[:k])
    return total if M.field is None else total % M.field


def in_tilted_richardson_by_scan(
    M: ExactMatrix, u: Perm, v: Perm, open_flag: bool = False
) -> bool:
    """The Plücker route by its definition: Delta_w = 0 for every w in S_n
    outside ``tilted_interval(u, v)``, each Delta_w read off ``_minor_table``
    by prefix set; the open variety adds Delta_u Delta_v != 0.  The errors
    come in the route's order: size, u, v and the gate, then singularity."""
    n = M.n
    if len(u) != n or len(v) != n:
        raise ValueError("size mismatch")
    members = tilted_interval(u, v).members
    minor = _minor_table(M)
    if not minor[-1]:
        raise ValueError("matrix does not represent a flag (singular)")

    def multi_nonzero(w: Perm) -> bool:
        mask = 0
        for i in w:
            mask |= 1 << (i - 1)
            if not minor[mask]:
                return False
        return True

    result = all(w in members or not multi_nonzero(w) for w in all_permutations(n))
    return result and (not open_flag or multi_nonzero(u) and multi_nonzero(v))


def _phi(n: int, i: int, block: Sequence[Sequence[Scalar]], field: Optional[int]) -> ExactMatrix:
    """The identity with the 2x2 block on rows and columns i, i + 1."""
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for r in range(2):
        for c in range(2):
            rows[i - 1 + r][i - 1 + c] = block[r][c]
    return make_matrix(rows, field)


def y_matrix(n: int, i: int, p: Scalar, field: Optional[int] = None) -> ExactMatrix:
    return _phi(n, i, [[1, 0], [p, 1]], field)


def x_matrix(n: int, i: int, m: Scalar, field: Optional[int] = None) -> ExactMatrix:
    return _phi(n, i, [[1, m], [0, 1]], field)


def sdot_matrix(n: int, i: int, field: Optional[int] = None) -> ExactMatrix:
    """The signed permutation matrix with -1 above the diagonal."""
    return _phi(n, i, [[0, -1], [1, 0]], field)


def sdot_inverse_matrix(n: int, i: int, field: Optional[int] = None) -> ExactMatrix:
    return _phi(n, i, [[0, 1], [-1, 0]], field)
