"""Laurent polynomials in q, the Hecke algebra of S_n, classical
Kazhdan-Lusztig R-polynomials, and tilted R-polynomials by three routes:

* the Deodhar sum (q-1)^{|Jo|} q^{|J-|} over tilted distinguished subwords,
* the descent/flatten recursion over (u, v, a),
* the trace formula q^{l(u,v)} eps(T_v^{-1} T_u) over tilted words.

The generator inverse is T_i^{-1} = q^{-1} T_i - (q-1) q^{-1}, the unique
element with T_i T_i^{-1} = T_id under T_i^2 = (q-1) T_i + q.

The trace route never forms the product T_v^{-1} T_u.  Since
eps(T_a T_b) = q^{l(a)} when ab = id and 0 otherwise, the trace of a
product is a pairing of the two factors,

    eps(x y) = sum_w x_w y_{w^{-1}} q^{l(w)},

so T_v^{-1} and T_u are built separately (each from the unit, one
generator at a time) and paired by ``trace_product``.  Hecke coefficients
are plain integer maps exponent -> coefficient; ``LaurentPoly`` is used at
the boundary only.

``LaurentPoly`` is the ``poly.Poly`` with int exponents; it adds the
constructors, degree, evaluation at q and the printed form that the CLI
writes and ``parse_poly`` reads.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Union

from .permcore import (
    InternalConsistencyError,
    Perm,
    apply_simple,
    bruhat_leq,
    descents,
    identity,
    inverse,
    length,
    reduced_word,
)
from .poly import Poly
from .tiltorder import (
    Tilt,
    a_descents,
    a_length,
    a_lesssim,
    a_step_type,
    adj_increases,
    witness_a,
)
from .tiltwords import (
    BAR,
    TiltedWord,
    flatten,
    flattenable,
    regular_tilted_reduced_word,
    tilt_sequence,
    tilted_reduced_word,
    word_length,
)

Scalar = Union[int, Fraction]


class LaurentPoly(Poly):
    """Sparse Laurent polynomial in q: ``terms`` maps exponent -> coefficient."""

    __slots__ = ()

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def q_power(cls, e: int, c: int = 1) -> "LaurentPoly":
        return cls({e: c})

    @property
    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def leading_coefficient(self) -> int:
        return self.terms[self.degree]

    def __getitem__(self, e: int) -> int:
        return self.terms.get(e, 0)

    def shifted(self, e: int) -> "LaurentPoly":
        """Multiply by q^e."""
        return LaurentPoly({k + e: c for k, c in self.terms.items()})

    def __call__(self, x: Scalar) -> Scalar:
        if any(e < 0 for e in self.terms) and x == 0:
            raise ZeroDivisionError("negative exponent at 0")
        return sum(
            c * (x ** e if e >= 0 else Fraction(1, x ** -e)) for e, c in self.terms.items()
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            body = "" if e == 0 else "q" if e == 1 else f"q^{e}"
            if abs(c) != 1 or e == 0:
                body = f"{abs(c)}{body}"
            sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
            parts.append(sign + body)
        return " ".join(parts)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
Q = LaurentPoly.q_power(1)
Q_MINUS_1 = Q - ONE


def as_qpoly(p: LaurentPoly) -> LaurentPoly:
    """p, checked to be a genuine polynomial in q."""
    if any(e < 0 for e in p.terms):
        raise InternalConsistencyError(f"expected a polynomial in q, got {p}")
    return p


def parse_poly(text: str) -> LaurentPoly:
    """Inverse of str(); accepts the descending-exponent format."""
    text = text.strip()
    if text == "0":
        return ZERO
    out: dict[int, int] = {}
    for chunk in text.replace("- ", "+ -").split("+"):
        chunk = chunk.strip().replace(" ", "")
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        if "q" not in chunk:
            coeff, exp = int(chunk), 0
        else:
            head, _, tail = chunk.partition("q")
            coeff = int(head) if head else 1
            exp = int(tail[1:]) if tail.startswith("^") else 1
        out[exp] = out.get(exp, 0) + sign * coeff
    return LaurentPoly(out)


# ---------------------------------------------------------------------------
# the Hecke algebra


class HeckeElt:
    """Element of the Hecke algebra of S_n in the T_w basis.

    ``terms`` maps w to the coefficient of T_w, a Laurent polynomial in q
    held as a plain integer map exponent -> coefficient.  Normal form: no
    zero coefficient and no empty map is stored, so equal elements have
    equal ``terms``.  ``LaurentPoly`` appears only at the boundary: ``scale``
    takes one, ``trace`` and ``trace_product`` return one, ``__str__``
    prints through it.
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
    def _from_normal(cls, n: int, terms: dict[Perm, dict[int, int]]) -> "HeckeElt":
        """Wrap terms already in normal form, without copying them."""
        elt = cls.__new__(cls)
        elt.n, elt.terms = n, terms
        return elt

    @classmethod
    def unit(cls, n: int) -> "HeckeElt":
        return cls(n, {identity(n): {0: 1}})

    @classmethod
    def basis(cls, w: Perm) -> "HeckeElt":
        return cls(len(w), {w: {0: 1}})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElt)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        out = {w: dict(c) for w, c in self.terms.items()}
        for w, c in other.terms.items():
            acc = out.setdefault(w, {})
            for e, k in c.items():
                acc[e] = acc.get(e, 0) + k
        return HeckeElt(self.n, out)

    def scale(self, c: LaurentPoly) -> "HeckeElt":
        return HeckeElt(
            self.n, {w: (c * LaurentPoly(cw)).terms for w, cw in self.terms.items()}
        )

    def _pairs(
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

    def mul_gen(self, i: int) -> "HeckeElt":
        """Right multiplication by T_i.

        Pair by pair, a T_lo + b T_hi -> q b T_lo + (a + (q-1) b) T_hi,
        since T_lo T_i = T_hi and T_hi T_i = (q-1) T_hi + q T_lo.
        """
        out: dict[Perm, dict[int, int]] = {}
        for lo, hi, a, b in self._pairs(i):
            if b:
                out[lo] = _shifted(b, 1)
            m = _plus_qdiff(a, b, 1)
            if m:
                out[hi] = m
        return HeckeElt._from_normal(self.n, out)

    def mul_gen_inverse(self, i: int) -> "HeckeElt":
        """Right multiplication by T_i^{-1} = q^{-1} T_i - (q-1) q^{-1}.

        Pair by pair, a T_lo + b T_hi -> (b + (q^-1 - 1) a) T_lo + q^-1 a T_hi,
        since T_hi T_i^{-1} = T_lo and T_lo T_i^{-1} = q^-1 T_hi + (q^-1 - 1) T_lo.
        """
        out: dict[Perm, dict[int, int]] = {}
        for lo, hi, a, b in self._pairs(i):
            m = _plus_qdiff(b, a, -1)
            if m:
                out[lo] = m
            if a:
                out[hi] = _shifted(a, -1)
        return HeckeElt._from_normal(self.n, out)

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        if self.n != other.n:
            raise ValueError("size mismatch")
        total = HeckeElt(self.n)
        for w, c in other.terms.items():
            piece = self
            for i in reduced_word(w):
                piece = piece.mul_gen(i)
            total = total + piece.scale(LaurentPoly(c))
        return total

    def __str__(self) -> str:
        from .permcore import format_perm

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


def hecke_mul(x: HeckeElt, y: HeckeElt) -> HeckeElt:
    return x * y


def hecke_gen(n: int, i: int) -> HeckeElt:
    return HeckeElt.basis(apply_simple(identity(n), i))


def hecke_gen_inverse(n: int, i: int) -> HeckeElt:
    return HeckeElt.unit(n).mul_gen_inverse(i)


def trace(x: HeckeElt) -> LaurentPoly:
    """The trace eps: the coefficient of T_id."""
    return LaurentPoly(x.terms.get(identity(x.n)))


def trace_product(x: HeckeElt, y: HeckeElt) -> LaurentPoly:
    """eps(x y) = sum_w x_w y_{w^{-1}} q^{l(w)}, without forming x y.

    From eps(T_a T_b) = q^{l(a)} if ab = id, else 0.  The sum is symmetric
    in x and y (l(w) = l(w^{-1})), so it runs over the smaller support.
    """
    if x.n != y.n:
        raise ValueError("size mismatch")
    if len(x.terms) > len(y.terms):
        x, y = y, x
    out = ZERO
    for w, cx in x.terms.items():
        cy = y.terms.get(inverse(w))
        if cy is not None:
            out = out + LaurentPoly(cx) * LaurentPoly(_shifted(cy, length(w)))
    return out


def hecke_t(word_gens: Iterable[int], n: int) -> HeckeElt:
    """T_w for a word: the product of the T_i over its generator factors."""
    out = HeckeElt.unit(n)
    for i in word_gens:
        out = out.mul_gen(i)
    return out


def hecke_t_inverse(word_gens: Iterable[int], n: int) -> HeckeElt:
    """(T_w)^{-1}: the T_i^{-1} in reverse order."""
    out = HeckeElt.unit(n)
    for i in reversed(list(word_gens)):
        out = out.mul_gen_inverse(i)
    return out


# ---------------------------------------------------------------------------
# classical R-polynomials


@functools.lru_cache(maxsize=1 << 18)
def classical_r(u: Perm, v: Perm) -> LaurentPoly:
    """Kazhdan-Lusztig R-polynomial by the descent recursion."""
    if len(u) != len(v):
        raise ValueError("size mismatch")
    if u == v:
        return ONE
    if not bruhat_leq(u, v):
        return ZERO
    i = min(descents(v))
    vs = apply_simple(v, i)
    us = apply_simple(u, i)
    if i in descents(u):
        return classical_r(us, vs)
    return Q * classical_r(us, vs) + Q_MINUS_1 * classical_r(u, vs)


# ---------------------------------------------------------------------------
# tilted R-polynomials, three ways


def _gens_of(word: TiltedWord) -> list[int]:
    return [f for f in word.factors if f is not BAR]


def rtilt_deodhar(
    u: Perm, v: Perm, a: Optional[Tilt] = None, word: Optional[TiltedWord] = None
) -> LaurentPoly:
    """Sum of (q-1)^{|Jo|} q^{|J-|} over distinguished subwords for u.

    A DP over the word rather than an explicit enumeration; identical by
    distributivity.  It runs right to left from u: the layer after the last
    factor is {u: 1}, and each factor pulls the layer back one position, so
    only prefixes that can still end at u are held, and nothing is cached
    between calls.  A prefix's weight is a count per (|Jo|, |J-|); the
    polynomial is built once, from the weight of the identity at position 0.
    """
    if len(u) != len(v):
        raise ValueError("size mismatch")
    if a is None:
        a = witness_a(u, v)
    if word is None:
        word = regular_tilted_reduced_word(a, v)
    seqs = tilt_sequence(word)
    layer: dict[Perm, dict[tuple[int, int], int]] = {u: {(0, 0): 1}}
    for pos in range(len(word.factors) - 1, -1, -1):
        f = word.factors[pos]
        aj = seqs[pos + 1]
        if f is BAR:
            layer = {w: c for w, c in layer.items() if flattenable(aj, w) is not None}
            continue
        prev: dict[Perm, dict[tuple[int, int], int]] = {}
        for x, counts in layer.items():
            p = apply_simple(x, f)
            # exactly one of x <_a x*s_f and p <_a p*s_f = x holds
            if adj_increases(aj, x, f):
                _add_shifted(prev, x, counts, 1, 0)  # x kept in Jo: q - 1
                _add_shifted(prev, p, counts, 0, 1)  # p descends into J-: q
            else:
                _add_shifted(prev, p, counts, 0, 0)  # p ascends into J+: 1
        layer = prev
    out: dict[int, int] = {}
    for (jo, jm), k in layer.get(identity(word.n), {}).items():
        # k (q-1)^jo q^jm, expanded binomially
        for e in range(jo + 1):
            c = k * math.comb(jo, e)
            out[e + jm] = out.get(e + jm, 0) + (c if (jo - e) % 2 == 0 else -c)
    return LaurentPoly(out)


def _add_shifted(
    layer: dict[Perm, dict[tuple[int, int], int]],
    w: Perm,
    counts: Mapping[tuple[int, int], int],
    d_jo: int,
    d_jm: int,
) -> None:
    """Add counts, shifted by (d_jo, d_jm), to the weight of w in layer."""
    acc = layer.setdefault(w, {})
    for (jo, jm), k in counts.items():
        key = (jo + d_jo, jm + d_jm)
        acc[key] = acc.get(key, 0) + k


_REC_MEMO: dict[tuple[Perm, Perm, Tilt], LaurentPoly] = {}


def _rtilt_rec(u: Perm, v: Perm, a: Tilt, budget: int) -> LaurentPoly:
    if budget < 0:
        raise InternalConsistencyError("tilted R recursion failed to terminate")
    key = (u, v, a)
    hit = _REC_MEMO.get(key)
    if hit is not None:
        return hit
    if u == v:
        out = ONE
    elif not a_lesssim(a, u, v, check=False):
        out = ZERO
    else:
        des = a_descents(a, v)
        if des:
            i = min(des)
            vs = apply_simple(v, i)
            us = apply_simple(u, i)
            if a_step_type(a, u, i) == "descent":
                out = _rtilt_rec(us, vs, a, budget - 1)
            else:
                out = Q * _rtilt_rec(us, vs, a, budget - 1) + Q_MINUS_1 * _rtilt_rec(
                    u, vs, a, budget - 1
                )
        else:
            out = _rtilt_rec(u, v, flatten(a), budget - 1)
    if len(_REC_MEMO) < (1 << 18):  # bounded memo
        _REC_MEMO[key] = out
    return out


def rtilt_recursive(u: Perm, v: Perm, a: Optional[Tilt] = None) -> LaurentPoly:
    """The descent/flatten recursion for the tilted R-polynomial."""
    if len(u) != len(v):
        raise ValueError("size mismatch")
    if a is None:
        a = witness_a(u, v)
    return _rtilt_rec(u, v, a, word_length(a, v) + 1)


def rtilt_hecke(u: Perm, v: Perm, a: Optional[Tilt] = None) -> LaurentPoly:
    """(-q)^{l(u,v)} times the trace of T_v^{-1} T_u over tilted words.

    T_v^{-1} and T_u are built from the unit over the generators of the
    tilted reduced words of v and u, and the trace of their product is the
    pairing eps(x y) = sum_w x_w y_{w^{-1}} q^{l(w)} (``trace_product``).
    With the genuine generator inverse the trace picks up a sign
    (-1)^{l(u,v)}, absorbed here so that the result is the point count.
    A result with negative exponents is reported as a hard failure.
    """
    if len(u) != len(v):
        raise ValueError("size mismatch")
    n = len(u)
    if a is None:
        a = witness_a(u, v)
    wu = tilted_reduced_word(a, u)
    wv = tilted_reduced_word(a, v)
    pairing = trace_product(hecke_t_inverse(_gens_of(wv), n), hecke_t(_gens_of(wu), n))
    dist = a_length(a, v) - a_length(a, u)
    signed = pairing.shifted(dist)
    return as_qpoly(signed if dist % 2 == 0 else -signed)


def rtilt(u: Perm, v: Perm, method: str = "deodhar") -> LaurentPoly:
    """Dispatch by method name; 'all' cross-checks the three routes."""
    if method == "deodhar":
        return rtilt_deodhar(u, v)
    if method == "recursive":
        return rtilt_recursive(u, v)
    if method == "hecke":
        return rtilt_hecke(u, v)
    if method == "all":
        d = rtilt_deodhar(u, v)
        r = rtilt_recursive(u, v)
        h = rtilt_hecke(u, v)
        if not (d == r == h):
            raise InternalConsistencyError(
                f"tilted R-polynomial routes disagree: {d} / {r} / {h}"
            )
        return d
    raise ValueError(f"unknown method {method!r}")
