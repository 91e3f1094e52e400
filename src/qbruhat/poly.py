"""One sparse integer polynomial type.

A ``Poly`` maps each exponent key to a nonzero integer coefficient
(``terms``).  An exponent key is an int or a tuple of keys, and keys add
componentwise, so the int exponents of a Laurent polynomial in q and the
(x-exponents, q-exponents) pairs of a multipolynomial share one product:

>>> p = Poly({((1, 0), (0,)): 2, ((0, 1), (1,)): -1})
>>> (p * p).terms
{((2, 0), (0,)): 4, ((1, 1), (1,)): -4, ((0, 2), (2,)): 1}
>>> p - p, Poly({1: 1}) ** 3
(Poly({}), Poly({3: 1}))

No zero coefficient is stored, so equal polynomials have equal ``terms``.
Every operation builds its result through ``_new``, which a subclass that
carries more state overrides, and ``**`` starts from ``_one``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

Key = Union[int, tuple]


def _add_keys(a: Key, b: Key) -> Key:
    return a + b if isinstance(a, int) else tuple(map(_add_keys, a, b))


class Poly:
    """Sparse polynomial {exponent key: nonzero int coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Key, int]] = None):
        out: dict[Key, int] = {}
        for k, c in (terms or {}).items():
            if c:
                out[k] = out.get(k, 0) + c
        self.terms = {k: c for k, c in out.items() if c}

    def _new(self, terms: Mapping[Key, int]) -> "Poly":
        return type(self)(terms)

    def _one(self) -> "Poly":
        """The unit; a subclass whose keys are not ints overrides it."""
        return self._new({0: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._new(out)

    def __neg__(self) -> "Poly":
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        """The product; an int scales every coefficient."""
        if isinstance(other, int):
            return self._new({k: c * other for k, c in self.terms.items()})
        out: dict[Key, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = _add_keys(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = self._one()
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"
