"""Laurent polynomials in q, the Hecke algebra of S_n on packed
coefficients, classical Kazhdan-Lusztig R-polynomials, and tilted
R-polynomials by three routes:

* the Deodhar sum (q-1)^{|Jo|} q^{|J-|} over tilted distinguished subwords,
* the descent/flatten recursion over (u, v, a),
* the trace formula q^{l(u,v)} eps(T_v^{-1} T_u) over tilted words.

The Deodhar DP holds each prefix's weight as one int, its polynomial at
q = 2^B with B = 2G + 2 for G generators (exact: see ``rtilt_deodhar``), and
fixes each factor's tilt test once per position.  It drops a prefix as
soon as one of its prefix sums exceeds that of the Demazure product of the
generators left of it: such a prefix is not below that product in Bruhat
order, so it is the product of no subword of them and can no longer reach
the identity.  The test is one prefix sum per prefix and generator, against
a cap fixed per position (``_demazure_caps``).  This bound is the DP's own;
it shares nothing with the recursion or with the trace route.

The generator inverse is T_i^{-1} = q^{-1} T_i - (q-1) q^{-1}, the unique
element with T_i T_i^{-1} = T_id under T_i^2 = (q-1) T_i + q.

The trace route never forms the product T_v^{-1} T_u.  Since
eps(T_a T_b) = q^{l(a)} when ab = id and 0 otherwise, the trace of a
product is a pairing of the two factors,

    eps(x y) = sum_w x_w y_{w^{-1}} q^{l(w)},

and it is symmetric, eps(x y) = eps(y x).  So for any split
T_v^{-1} = A B, eps(T_v^{-1} T_u) = eps((T_u A) B): T_u is built from the
unit, one generator at a time, and multiplied on the right by the leading
factors of T_v^{-1} while it holds fewer than the 2^r terms that the r
factors still left can hold when built from the unit; those are built as
B, and the halves are paired by ``trace_product``.  Every split point
gives the exact answer; this one stops once T_u A is as large as the rest
can grow.  Each Hecke coefficient is one int, its polynomial at q = 2^B
(``HeckeElt``).  T_v^{-1}'s factors are scaled by q each,
q T_i^{-1} = T_i - (q-1), so no exponent goes negative, and the decoded
pairing is shifted back.  Each factor at most triples the sum of the
absolute coefficients, so the pairing's coefficients lie below
3^(m_u + m_v) < 2^(B-1) for B = 2(m_u + m_v) + 2 (``_trace_bits``): its
signed base-2^B digits, read once (``_decode_pairing``), are the
polynomial.  The split and the decode are the trace route's own; they
share nothing with the Deodhar DP or the recursion
(``tests/test_rpolyhecke.py`` checks the AST).  The algebra on Laurent
coefficient maps, with the full (T_w)^{-1}, is the tests' oracle in
``tests/oracles.py``.

The recursion reads u <~_a v and the tilted descents from ``tiltorder``'s
unchecked kernels, not from a copy here.  A node forms q A + (q-1) B in
one pass over its children's maps, into a new map (the memo holds them).

``LaurentPoly`` is the ``poly.Poly`` with int exponents; it adds the
constructors, degree, evaluation at q and the printed form that the CLI
writes.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from .permcore import (
    InternalConsistencyError,
    Perm,
    apply_simple,
    bruhat_leq,
    check_perms,
    descents,
    identity,
    inverse,
    length,
)
from .poly import Poly
from .tiltorder import (
    Tilt,
    a_length,
    check_tilt,
    descends,
    lesssim,
    witness_a,
)
from .tiltwords import (
    BAR,
    TiltedWord,
    band_split,
    bar_band,
    flatten,
    is_valid,
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
    def q_power(cls, e: int) -> "LaurentPoly":
        return cls({e: 1})

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


# ---------------------------------------------------------------------------
# the Hecke algebra on packed coefficients


class HeckeElt:
    """Element of the Hecke algebra of S_n in the T_w basis: ``terms`` maps
    w to the coefficient of T_w, a polynomial in q held as its value at
    q = 2^bits, with no zero stored.  Evaluation at 2^bits is a ring map, so
    the steps are exact; only ``trace_product`` decodes.
    """

    __slots__ = ("n", "bits", "terms")

    def __init__(self, n: int, bits: int, terms: dict[Perm, int]):
        self.n, self.bits, self.terms = n, bits, terms

    def mul_gen(self, i: int) -> "HeckeElt":
        """Right multiplication by T_i.

        Pair by pair, with hi = lo s_i one inversion longer than lo,
        a T_lo + b T_hi -> q b T_lo + (a + (q-1) b) T_hi, since
        T_lo T_i = T_hi and T_hi T_i = (q-1) T_hi + q T_lo.
        """
        bits, t, out, swap = self.bits, self.terms, {}, _right_swap(self.n, i)
        for w, c in t.items():
            ws = swap(w)
            if w[i - 1] < w[i]:  # w = lo, c = a
                b = t.get(ws, 0)
                if b:
                    out[w] = b << bits
                    c += (b << bits) - b
                if c:
                    out[ws] = c
            elif ws not in t:  # w = hi, c = b, a = 0
                out[ws] = c << bits
                out[w] = (c << bits) - c
        return HeckeElt(self.n, bits, out)

    def mul_gen_inverse(self, i: int) -> "HeckeElt":
        """Right multiplication by q T_i^{-1} = T_i - (q-1), the generator
        inverse scaled by q.

        Pair by pair, a T_lo + b T_hi -> (q b - (q-1) a) T_lo + a T_hi,
        since q T_hi T_i^{-1} = q T_lo and q T_lo T_i^{-1} = T_hi - (q-1) T_lo.
        """
        bits, t, out, swap = self.bits, self.terms, {}, _right_swap(self.n, i)
        for w, c in t.items():
            ws = swap(w)
            if w[i - 1] < w[i]:  # w = lo, c = a
                out[ws] = c
                lo = ((t.get(ws, 0) - c) << bits) + c
                if lo:
                    out[w] = lo
            elif ws not in t:  # w = hi, c = b, a = 0
                out[ws] = c << bits
        return HeckeElt(self.n, bits, out)


@functools.lru_cache(maxsize=256)
def _right_swap(n: int, i: int) -> Callable[[Perm], Perm]:
    """w -> w s_i on permutations of size n, as one item getter."""
    order = list(range(n))
    order[i - 1], order[i] = i, i - 1
    return operator.itemgetter(*order)


def _trace_bits(m_u: int, m_v: int) -> int:
    """The digit width B = 2(m_u + m_v) + 2 for a pairing of T_u, built
    over m_u generators, with q^{m_v} (T_v)^{-1}, built over m_v, split
    between the two halves as ``rtilt_hecke`` splits it.

    Let |x| be the sum of the absolute values of all coefficients of all
    terms of x.  One step maps a pair (a, b) to (q b, a + (q-1) b) or to
    (q b - (q-1) a, a), of size at most 3(|a| + |b|), so each factor at most
    triples |x|.  With T_v^{-1} split as A B over m_A + m_B = m_v
    generators, |T_u A| <= 3^{m_u + m_A} and |B| <= 3^{m_B}.  The pairing
    sum_w x_w y_{w^{-1}} q^{l(w)} of the halves then has
    |.| <= |T_u A| |B| <= 3^{m_u + m_v} < 4^{m_u + m_v} = 2^(B - 2), so
    each of its coefficients lies in (-2^(B-1), 2^(B-1)) and is one signed
    base-2^B digit of its value at q = 2^B, wherever the split falls.
    """
    return 2 * (m_u + m_v) + 2


def _decode_pairing(packed: int, bits: int) -> LaurentPoly:
    """The polynomial P with P(2^bits) = packed and every coefficient in
    [-2^(bits-1), 2^(bits-1)), read digit by digit from the low end, a digit
    of 2^(bits-1) or more taken as negative with a carry.  Refuses bits < 2:
    the digits -1 and 0 make up no positive value."""
    if bits < 2:
        raise ValueError(f"bits must be at least 2, got {bits}")
    base, half = 1 << bits, 1 << (bits - 1)
    out: dict[int, int] = {}
    e = 0  # the exponent of the next digit
    while packed:
        packed, digit = divmod(packed, base)
        if digit >= half:
            digit -= base
            packed += 1
        if digit:
            out[e] = digit
        e += 1
    return LaurentPoly(out)


def trace_product(x: HeckeElt, y: HeckeElt) -> LaurentPoly:
    """eps(x y) = sum_w x_w y_{w^{-1}} q^{l(w)}, without forming x y.

    From eps(T_a T_b) = q^{l(a)} if ab = id, else 0.  The sum is symmetric
    in x and y (l(w) = l(w^{-1})), so it runs over the smaller support.  It
    is taken on the packed ints, sum_w x_w y_{w^{-1}} 2^{bits l(w)}, and
    decoded once (``_decode_pairing``).
    """
    if x.n != y.n or x.bits != y.bits:
        raise ValueError("size or digit width mismatch")
    if len(x.terms) > len(y.terms):
        x, y = y, x
    bits, get, total = x.bits, y.terms.get, 0
    for w, cx in x.terms.items():
        cy = get(inverse(w))
        if cy:
            total += (cx * cy) << (bits * length(w))
    return _decode_pairing(total, bits)


def hecke_t(word_gens: Iterable[int], n: int, bits: int) -> HeckeElt:
    """T_w for a word: the product of the T_i over its generator factors."""
    out = HeckeElt(n, bits, {identity(n): 1})
    for i in word_gens:
        out = out.mul_gen(i)
    return out


# ---------------------------------------------------------------------------
# classical R-polynomials


@functools.lru_cache(maxsize=1 << 18)
def classical_r(u: Perm, v: Perm) -> LaurentPoly:
    """Kazhdan-Lusztig R-polynomial by the descent recursion."""
    check_perms(u, v)
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


def _demazure_caps(n: int, factors: tuple) -> list[int]:
    """For each generator f = factors[pos], the sum of the first f entries
    of the Demazure product D of the generators left of pos (0 at a bar).

    D is built one right step per generator: D * s_f is D s_f when
    D_f < D_{f+1}, and D otherwise.
    """
    d = list(range(1, n + 1))
    caps = []
    for f in factors:
        if f is BAR:
            caps.append(0)
            continue
        caps.append(sum(d[:f]))
        if d[f - 1] < d[f]:
            d[f - 1], d[f] = d[f], d[f - 1]
    return caps


def rtilt_deodhar(
    u: Perm, v: Perm, a: Optional[Tilt] = None, word: Optional[TiltedWord] = None
) -> LaurentPoly:
    """Sum of (q-1)^{|Jo|} q^{|J-|} over distinguished subwords for u.

    A DP over the word rather than an explicit enumeration; identical by
    distributivity.  It runs right to left from u: the layer after the last
    factor is {u: 1}, and each factor pulls the layer back one position, so
    only prefixes that can still end at u are held, and nothing is cached
    between calls.  The polynomial is read once, from the weight of the
    identity at position 0.  A given word must be a reduced tilted word for
    v: valid (``is_valid``: its bars split), of ``word_length`` factors and
    multiplying to v; a given tilt must be the word's.

    A state is a prefix product x: pulling back across generator f keeps x
    or moves it to x s_f.  The state held before position pos is the
    product of a subword of the generators left of pos, so it lies below
    their Demazure product D in Bruhat order (the subword property:
    Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.2.2; Demazure
    products of words: Knutson-Miller, Subword complexes in Coxeter groups,
    2004).  Bruhat x <= D bounds every prefix sum of x by D's, so a state
    with a prefix sum above D's cannot reach the identity at position 0; it
    is dropped as soon as it is formed, and the sum is unchanged.  A step
    across s_f changes only level f, the sum of the first f entries, both
    of the state (x and x s_f agree outside positions f, f + 1) and of D
    (one right Demazure step by s_f).  Every other level compares as it did
    one step to the right, so each step tests level f alone: one
    sum(x[:f]) per state, against the cap ``_demazure_caps`` fixes for the
    position.  The start u is not tested: a state that breaks a level no
    step to its left tests keeps that level's sum above the identity's, so
    it is never read.  The bound is the DP's own; the recursion and the
    trace route share none of it.  A bar reads only the first
    jump_min <= n entries of a state.

    A prefix's weight, sum k (q-1)^jo q^jm over its subwords, is one int:
    the polynomial at q = 2^B.  A Jo step maps c to (c << B) - c, a J-
    step to c << B, a J+ step keeps c.  With G generators in the word there
    are at most 2^G subwords, each with coefficients of absolute sum
    2^jo <= 2^G, so every coefficient lies within 4^G < 2^(B-1) for
    B = 2G + 2, and the int's signed base-2^B digits are the coefficients.

    A factor's test depends on its position only: a bar's jump_min and low
    band (``bar_band``), a generator's tilt value t = a_f, with
    x <_a x s_f unless 0 < (t - x_f) mod n <= (x_{f+1} - x_f) mod n.
    """
    check_perms(u, v)
    n = len(u)
    if word is None:
        word = regular_tilted_reduced_word(witness_a(u, v) if a is None else a, v)
    elif word.target != v:
        raise ValueError("the word does not multiply to v")
    elif a is not None and tuple(a) != word.a:
        raise ValueError("the tilt is not the word's")
    elif not is_valid(word) or len(word) != word_length(word.a, v):
        raise ValueError("the word is not a reduced tilted word")
    seqs = tilt_sequence(word)
    factors = word.factors
    bits = 2 * len(_gens_of(word)) + 2
    caps = _demazure_caps(n, factors)
    layer: dict[Perm, int] = {u: 1}
    for pos in range(len(factors) - 1, -1, -1):
        f = factors[pos]
        if f is BAR:
            jm, low = bar_band(seqs[pos + 1])
            layer = {w: c for w, c in layer.items() if band_split(w, jm, low) is not None}
            continue
        t, i, cap = seqs[pos + 1][f - 1], f - 1, caps[pos]
        prev: dict[Perm, int] = {}
        get = prev.get
        for x, c in layer.items():
            xi, xf = x[i], x[f]
            s = sum(x[:f])
            if 0 < (t - xi) % n <= (xf - xi) % n:
                cp = c  # x*s_f <_a x: p ascends into J+, 1
            else:
                cp = c << bits  # p descends into J-: q
                if s <= cap:
                    prev[x] = get(x, 0) + cp - c  # x kept in Jo: q - 1
            if s - xi + xf <= cap:
                sw = list(x)
                sw[i], sw[f] = xf, xi
                p = tuple(sw)
                prev[p] = get(p, 0) + cp
        layer = prev
    return _unpack(layer.get(identity(n), 0), bits)


def _unpack(packed: int, bits: int) -> LaurentPoly:
    """The polynomial P with P(2^bits) = packed and every coefficient in
    [-2^(bits-1), 2^(bits-1)): the signed base-2^bits digits of packed.
    One bit leaves only the digits -1 and 0, which no positive packed
    value is made of, so bits must be at least 2."""
    if bits < 2:
        raise ValueError(f"bits must be at least 2, got {bits}")
    out: dict[int, int] = {}
    mask, half, e = (1 << bits) - 1, 1 << (bits - 1), 0
    while packed:
        digit = ((packed + half) & mask) - half
        if digit:
            out[e] = digit
        packed = (packed - digit) >> bits
        e += 1
    return LaurentPoly(out)


_REC_MEMO: dict[tuple[Perm, Perm, Tilt], LaurentPoly] = {}


def _rtilt_rec(u: Perm, v: Perm, a: Tilt, budget: int) -> LaurentPoly:
    """The recursion at one node, for u, v and a that ``rtilt_recursive``
    checked: each node tests u <~_a v and the tilted descents through
    ``tiltorder``'s unchecked kernels."""
    if budget < 0:
        raise InternalConsistencyError("tilted R recursion failed to terminate")
    key = (u, v, a)
    hit = _REC_MEMO.get(key)
    if hit is not None:
        return hit
    if u == v:
        out = ONE
    elif not lesssim(a, u, v):
        out = ZERO
    else:
        i = next((i for i in range(1, len(v)) if descends(a, v, i)), None)
        if i is not None:
            vs = apply_simple(v, i)
            us = apply_simple(u, i)
            if descends(a, u, i):
                out = _rtilt_rec(us, vs, a, budget - 1)
            else:
                # q A + (q-1) B into a new map: A and B may be in the memo
                terms = {e + 1: c for e, c in _rtilt_rec(us, vs, a, budget - 1).terms.items()}
                for e, c in _rtilt_rec(u, vs, a, budget - 1).terms.items():
                    terms[e + 1] = terms.get(e + 1, 0) + c
                    terms[e] = terms.get(e, 0) - c
                out = LaurentPoly(terms)
        else:
            out = _rtilt_rec(u, v, flatten(a), budget - 1)
    if len(_REC_MEMO) >= 1 << 18:  # bounded memo: start over when full
        _REC_MEMO.clear()
    _REC_MEMO[key] = out
    return out


def rtilt_recursive(u: Perm, v: Perm, a: Optional[Tilt] = None) -> LaurentPoly:
    """The descent/flatten recursion for the tilted R-polynomial.

    u, v and a given tilt are checked here, once; the nodes below test
    nothing of their input again (``_rtilt_rec``).
    """
    check_perms(u, v)
    a = witness_a(u, v) if a is None else check_tilt(a, len(u))
    return _rtilt_rec(u, v, a, word_length(a, v) + 1)


def rtilt_hecke(u: Perm, v: Perm) -> LaurentPoly:
    """(-q)^{l(u,v)} times the trace of T_v^{-1} T_u over tilted words for
    the witness tilt.

    The trace is symmetric, eps(x y) = eps(y x) (Geck-Pfeiffer, Characters
    of Finite Coxeter Groups and Iwahori-Hecke Algebras, 2000, 8.1), so
    eps(T_v^{-1} T_u) = eps((T_u A) B) for any split T_v^{-1} = A B, and
    every split point gives the same answer.  T_u is built from the unit
    over the generators of u's tilted reduced word, then multiplied on the
    right by the leading factors of T_v^{-1} while it holds fewer than 2^r
    terms, r the number of factors still left: built from the unit, those r
    factors hold at most 2^r terms.  They are built from the unit as B, and
    the two halves are paired by eps(x y) = sum_w x_w y_{w^{-1}} q^{l(w)}
    (``trace_product``), so T_v^{-1} T_u is never formed.  Coefficients are
    packed at q = 2^bits (``_trace_bits``), and the factors of T_v^{-1} are
    ``mul_gen_inverse``'s q T_i^{-1}, scaled by q^{m_v} in all for the m_v
    generators of v's word, which the shift of the decoded pairing takes
    back.  With the genuine generator inverse the trace picks up a sign
    (-1)^{l(u,v)}, absorbed here so that the result is the point count.  A
    result with negative exponents is reported as a hard failure.
    """
    check_perms(u, v)
    n = len(u)
    a = witness_a(u, v)
    gens_u = _gens_of(tilted_reduced_word(a, u))
    gens_v = _gens_of(tilted_reduced_word(a, v))
    bits = _trace_bits(len(gens_u), len(gens_v))
    x, r = hecke_t(gens_u, n, bits), len(gens_v)
    while len(x.terms) < 1 << r:  # T_u A, while smaller than B can grow
        r -= 1
        x = x.mul_gen_inverse(gens_v[r])
    y = HeckeElt(n, bits, {identity(n): 1})
    for i in reversed(gens_v[:r]):
        y = y.mul_gen_inverse(i)
    pairing = trace_product(x, y)  # q^{m_v} eps(T_u T_v^{-1})
    dist = a_length(a, v) - a_length(a, u)
    signed = pairing.shifted(dist - len(gens_v))
    return as_qpoly(signed if dist % 2 == 0 else -signed)


def rtilt_routes(u: Perm, v: Perm) -> dict[str, LaurentPoly]:
    """The three routes' R-polynomials, keyed by method name."""
    return {
        "deodhar": rtilt_deodhar(u, v),
        "recursive": rtilt_recursive(u, v),
        "hecke": rtilt_hecke(u, v),
    }


def rtilt(u: Perm, v: Perm, method: str = "deodhar") -> LaurentPoly:
    """Dispatch by method name; 'all' cross-checks the three routes."""
    if method == "deodhar":
        return rtilt_deodhar(u, v)
    if method == "recursive":
        return rtilt_recursive(u, v)
    if method == "hecke":
        return rtilt_hecke(u, v)
    if method == "all":
        d, r, h = rtilt_routes(u, v).values()
        if not (d == r == h):
            raise InternalConsistencyError(
                f"tilted R-polynomial routes disagree: {d} / {r} / {h}"
            )
        return d
    raise ValueError(f"unknown method {method!r}")
