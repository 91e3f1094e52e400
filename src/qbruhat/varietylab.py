"""Exact linear algebra over the rationals and prime fields, and the
desk-scale geometry built on it: Plücker coordinates, tilted Richardson
membership by cyclic rank conditions and by multi-Plücker vanishing,
tilted Schubert cells and their canonical matrices, Deodhar-cell point
samplers, totally nonnegative sign data, and F_q point counting.

A matrix lives over Q (field None; entries Fraction) or over F_p (field
p; entries ints in [0, p)).  No floating point anywhere.

Each route reads one kernel.  The rank route and the count read
``_echelon_chain``: it inserts rows one at a time and gives the rank after
each insertion on every column prefix at once.  The Plücker route and
``is_tnn`` read ``_minor_table``, every row set's leading minor by Laplace
expansion; its full minor is also the route's singularity test, so the two
membership routes share no kernel.  ``_eliminate(rows, p)`` (fraction-free
Bareiss over Z when p is None, modular over F_p otherwise; rational rows
are first scaled to integers by ``_clear``) is the reference behind both:
``plucker`` reads a minor off it, ``_rank`` a rank, and tests compare the
table and the chains against them.  ``solve_exact`` reads it too, and
``in_tilted_schubert_cell`` reads ``plucker``.
Deodhar points are built by two-column updates; the dense reference that
tests compare them against, a product of pinned matrices by ``mat_mul``,
builds those matrices in ``tests/oracles.py``.

``_rank_conditions`` is the one place that forms the cyclic rank
conditions defining T_{u,v}; a level's regions are the first rows of two
chains grown from its tilt value.  It guards the tilt by the shifted-Gale
definition of u <=_a v (``permcore.shifted_gale_leq``), not by the lattice
rows the witness tilt is read from.  ``in_tilted_richardson`` runs the chains
of each distinct tilt value once on one flag; ``count_points_fq`` walks the
Schubert-cell matrices of Fl_n(F_p) column by column and runs each level's
chains on the first column prefix that decides it, so a failing prefix
prunes every flag that extends it.  ``enumerate_flags_fq`` with
``in_tilted_richardson`` on each flag is the brute-force oracle that tests
compare it against.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .permcore import (
    InternalConsistencyError,
    Perm,
    all_permutations,
    check_gate,
    check_permutation,
    check_perms,
    prefix_set,
    shifted_gale_leq,
)
from . import qbgraph
from .tiltorder import Tilt, check_tilt, tilted_rothe, witness_a
from .tiltwords import (
    BAR,
    Subword,
    TiltedWord,
    _regular_splits,
)

Scalar = Union[int, Fraction]

def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# matrices


class ExactMatrix(NamedTuple):
    """n x n matrix over Q (field None) or F_p (field p)."""

    n: int
    field: Optional[int]
    rows: tuple[tuple[Scalar, ...], ...]

    def entry(self, i: int, k: int) -> Scalar:
        """1-indexed (row, column)."""
        return self.rows[i - 1][k - 1]


def make_matrix(rows: Sequence[Sequence[Scalar]], field: Optional[int] = None) -> ExactMatrix:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if field is None:
        norm = tuple(tuple(Fraction(x) for x in r) for r in rows)
    else:
        if not is_prime(field):
            raise ValueError(f"{field} is not prime")
        norm = tuple(tuple(_to_field(x, field) for x in r) for r in rows)
    return ExactMatrix(n=n, field=field, rows=norm)


def _to_field(x: Scalar, p: int) -> int:
    """The image of a rational in F_p: numerator times inverse denominator."""
    d = x.denominator
    if d == 1:
        return x.numerator % p
    if d % p == 0:
        raise ValueError(f"entry {x} has no image in F_{p}")
    return x.numerator * pow(d, -1, p) % p


def _cell_rows(w: Perm, entries: Iterable[tuple[tuple[int, int], Scalar]]) -> list[list[Scalar]]:
    """The rows of the matrix with a 1 at each (w_k, k), the value x at each
    ((i, k), x) of entries, and 0 elsewhere (1-indexed row, column)."""
    n = len(w)
    rows = [[0] * n for _ in range(n)]
    for k, wk in enumerate(w, start=1):
        rows[wk - 1][k - 1] = 1
    for (i, k), x in entries:
        rows[i - 1][k - 1] = x
    return rows


def permutation_matrix(w: Perm, field: Optional[int] = None) -> ExactMatrix:
    """The flag e_w: a 1 in each position (w_k, k)."""
    return make_matrix(_cell_rows(check_permutation(w), ()), field)


def mat_mul(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    if A.n != B.n or A.field != B.field:
        raise ValueError("matrix mismatch")
    n = A.n
    rows = [
        [sum(A.rows[i][t] * B.rows[t][k] for t in range(n)) for k in range(n)]
        for i in range(n)
    ]
    return make_matrix(rows, A.field)


def _clear(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """Scale each rational row to integers by the lcm of its denominators;
    returns the integer rows and the product of the multipliers."""
    out = []
    scale = 1
    for row in rows:
        mult = math.lcm(*[x.denominator for x in row])
        scale *= mult
        out.append([x.numerator * (mult // x.denominator) for x in row])
    return out, scale


def _eliminate(
    rows: Sequence[Sequence[int]], p: Optional[int]
) -> tuple[list[list[int]], list[int], int]:
    """Forward elimination to row echelon form.

    Over Z (p None) this is Bareiss's fraction-free scheme: after the step
    at a pivot, each entry of a lower row right of the pivot column is a
    minor of the input, so every division is exact and the last pivot of
    a nonsingular square matrix is its determinant up to the swap sign.
    Over F_p the entries are reduced mod p first.  Returns the echelon
    rows, the pivot columns and the sign of the row swaps.
    """
    m = [list(r) for r in rows] if p is None else [[x % p for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    sign, prev, r = 1, 1, 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        lead = top[c]
        if p is None:
            # every lower row takes the lead/prev scaling, even where f == 0
            for row in m[r + 1:]:
                f = row[c]
                for j in range(c + 1, nc):
                    row[j] = (row[j] * lead - f * top[j]) // prev
                row[c] = 0
            prev = lead
        elif r + 1 < nr:
            inv = pow(lead, -1, p)
            for row in m[r + 1:]:
                if row[c]:
                    f = row[c] * inv % p
                    for j in range(c + 1, nc):
                        row[j] = (row[j] - f * top[j]) % p
                    row[c] = 0
        pivots.append(c)
        r += 1
    return m, pivots, sign


def _det_fractions(rows: list[list[Fraction]]) -> Fraction:
    ints, scale = _clear(rows)
    m, pivots, sign = _eliminate(ints, None)
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(sign * m[-1][-1], scale) if m else Fraction(1)


def _det_mod(rows: list[list[int]], p: int) -> int:
    m, pivots, sign = _eliminate(rows, p)
    if len(pivots) < len(m):
        return 0
    det = sign % p
    for k, row in enumerate(m):
        det = det * row[k] % p
    return det


def _rank(rows: list[list[Scalar]], field: Optional[int]) -> int:
    """Rank over Q (field None) or F_p.  Over Q, rows that hold a non-int
    entry are first scaled to integers by ``_clear``."""
    if field is None and any(type(x) is not int for row in rows for x in row):
        rows = _clear(rows)[0]
    return len(_eliminate(rows, field)[1])


def _echelon_chain(rows: Iterable[Sequence[int]], p: Optional[int]) -> Iterator[int]:
    """Insert the rows one at a time into an echelon basis whose pivots are
    leftmost nonzero entries; yield after each insertion the pivot column
    it added, or the row length when the row adds none.  Basis rows with a
    pivot left of column k stay independent on the first k columns and the
    others vanish there, so the rank of the first t rows on the first k
    columns is the number of their yields below k.

    Reductions are fraction-free and build new rows; over Z (p None) each
    stored row is divided by its content, and over F_p the entries must lie
    in [0, p).
    """
    basis: dict[int, Sequence[int]] = {}
    for row in rows:
        nc, c = len(row), 0
        while c < nc:  # clear each leftmost nonzero entry that has a pivot
            f = row[c]
            if f:
                b = basis.get(c)
                if b is None:
                    if p is None:
                        g = math.gcd(*row)
                        row = [x // g for x in row]
                    basis[c] = row
                    break
                g = b[c]
                if p is None:
                    h = math.gcd(f, g)
                    f, g = f // h, g // h
                    row = [x * g - f * y for x, y in zip(row, b)]
                else:
                    row = [(x * g - f * y) % p for x, y in zip(row, b)]
            c += 1
        yield c


def _chain_rows(n: int, a: int) -> tuple[list[int], list[int]]:
    """The 0-indexed rows of the two chains at tilt value a, n - 1 each:
    forward a, a+1, ... and backward a-1, a-2, ..., cyclically.  Their
    first t rows are the regions [a, a+t)_c and [a-t, a)_c."""
    return [(a - 1 + t) % n for t in range(n - 1)], [(a - 2 - t) % n for t in range(n - 1)]


def _chain_meets(pivots: Iterable[int], bounds: Sequence[int], k: int, exact: bool) -> bool:
    """Whether the rank on the first k columns after each insertion of a
    chain (its pivot columns below k, counted) is at most its bound, or
    equal to it when exact; stops at the first failure."""
    r = 0
    for c, bound in zip(pivots, bounds):
        r += c < k
        if r > bound or (exact and r < bound):
            return False
    return True


def _minor_table(M: ExactMatrix) -> list[int]:
    """minor[mask]: the minor on the rows in the bitmask ``mask`` (bit i-1
    for row i, rows in increasing order) and the first |mask| columns,
    filled by Laplace expansion along the last column from the minors one
    size smaller.

    Over Q each row is first scaled to integers by ``_clear``.  A positive
    row scale changes no minor's sign or vanishing, which are all the
    callers read; over F_p the entries are exact.
    """
    p = M.field
    rows = _clear(M.rows)[0] if p is None else M.rows
    minor = [1] * (1 << M.n)
    for mask in range(1, len(minor)):
        col = mask.bit_count() - 1
        total, sign, rest = 0, 1, mask
        while rest:  # rows from the last one up; its cofactor sign is +
            i = rest.bit_length() - 1
            rest ^= 1 << i
            total += sign * rows[i][col] * minor[mask ^ (1 << i)]
            sign = -sign
        minor[mask] = total if p is None else total % p
    return minor


# ---------------------------------------------------------------------------
# Plücker coordinates


def plucker(M: ExactMatrix, I: Sequence[int]) -> Scalar:
    """Delta_I: rows I in the listed order against the first |I| columns.

    This is the Bareiss route (``_det_fractions``, ``_det_mod``), the
    reference that tests compare ``_minor_table`` against.
    """
    if len(set(I)) != len(I):
        return 0 if M.field is not None else Fraction(0)
    if any(not 1 <= i <= M.n for i in I):
        raise ValueError(f"row index out of range in {I}")
    rows = [list(M.rows[i - 1][: len(I)]) for i in I]
    if M.field is None:
        return _det_fractions(rows)
    return _det_mod(rows, M.field)


# ---------------------------------------------------------------------------
# membership routes


def _rank_conditions(
    u: Perm, v: Perm, a: Optional[Tilt] = None
) -> Optional[list[tuple[int, list[tuple[list[int], list[int]]]]]]:
    """The cyclic rank conditions that cut T_{u,v} out of Fl_n, for the tilt
    a (the witness tilt when None); None when an explicit a does not give
    u <=_a v, where the variety is empty.  The witness tilt always gives
    u <~_a v, so its failing u <=_a v raises ``InternalConsistencyError``.
    u <=_a v is tested by its definition, ``shifted_gale_leq`` on each
    prefix, not by the lattice rows that ``witness_a`` reads, so the guard
    shares no kernel with the witness.

    Entry k - 1 is level k's (a_k, [(forward rows, bounds), (backward rows,
    bounds)]), the rows of ``_chain_rows(n, a_k)``'s two chains.  The
    regions [a_k, i)_c and [i, a_k)_c, for i != a_k, are the first t rows
    of the forward and backward chain, and their t-th bounds are
    |u[k] n region| and |v[k] n region|: the first k columns of a flag in
    T_{u,v} have rank at most the bound on those rows, and exactly the
    bound on T°_{u,v}.  On an invertible matrix the conditions
    on an empty region (i = a_k) or at level n hold for every u, v, so they
    are left out: 2(n-1)^2 conditions in all, on 2(n-1) chains.
    """
    n = len(u)
    witness = a is None
    a = witness_a(u, v) if witness else check_tilt(a, n)
    if not all(shifted_gale_leq(n, a[k - 1], u[:k], v[:k]) for k in range(1, n)):
        if witness:
            raise InternalConsistencyError(f"witness tilt {a} does not give {u} <=_a {v}")
        return None
    levels = []
    for k in range(1, n):
        ak, chains = a[k - 1], []
        for rows, prefix in zip(_chain_rows(n, ak), (prefix_set(u, k), prefix_set(v, k))):
            seen, bounds = 0, []
            for r in rows:
                seen += r + 1 in prefix
                bounds.append(seen)
            chains.append((rows, bounds))
        levels.append((ak, chains))
    return levels


def in_tilted_richardson(
    M: ExactMatrix,
    u: Perm,
    v: Perm,
    open_flag: bool = False,
    a: Optional[Tilt] = None,
) -> bool:
    """Rank-condition route: the conditions of ``_rank_conditions``, as
    rank <= bound (rank == bound for the open variety).  The two chains of
    each distinct tilt value run once on all columns; level k reads their
    pivots below column k."""
    n = M.n
    if len(u) != n or len(v) != n:
        raise ValueError("size mismatch")
    check_perms(u, v)
    # a positive row scale changes no rank: clear the rows once, not per chain
    entries = _clear(M.rows)[0] if M.field is None else M.rows
    if n in _echelon_chain(entries, M.field):  # some row lies in the span of those above
        raise ValueError("matrix does not represent a flag (singular)")
    levels = _rank_conditions(u, v, a)
    if levels is None:
        return False
    pivots: dict[int, list[list[int]]] = {}  # a_k -> its two chains' pivot columns
    for k, (ak, chains) in enumerate(levels, start=1):
        if ak not in pivots:
            pivots[ak] = [list(_echelon_chain([entries[r] for r in rows], M.field))
                          for rows, _ in chains]
        if not all(_chain_meets(cols, bounds, k, open_flag)
                   for cols, (_, bounds) in zip(pivots[ak], chains)):
            return False
    return True


def in_tilted_richardson_plucker(
    M: ExactMatrix, u: Perm, v: Perm, open_flag: bool = False, check: bool = True
) -> bool:
    """Multi-Plücker route: Delta_w = 0 off the tilted interval; the open
    variety adds Delta_u Delta_v != 0.  Cross-checked against the rank
    route when check is on; disagreement is a hard failure.

    Only whether each factor Delta_{w[k]} vanishes is read, and that does
    not depend on the order of the rows, so it is read off ``_minor_table``
    by prefix-set bitmask.  The same table's full minor tests M for
    singularity, after u, v and the gate are checked.
    """
    n = M.n
    if len(u) != n or len(v) != n:
        raise ValueError("size mismatch")
    members = qbgraph.tilted_interval(u, v).members  # checks the gate before the 2^n table
    minor = _minor_table(M)
    if not minor[-1]:  # det(M), times a positive row scale over Q
        raise ValueError("matrix does not represent a flag (singular)")

    def multi_nonzero(w: Perm) -> bool:
        mask = 0
        for i in w:
            mask |= 1 << (i - 1)
            if not minor[mask]:
                return False
        return True

    result = all(w in members or not multi_nonzero(w) for w in all_permutations(n))
    if result and open_flag:
        result = multi_nonzero(u) and multi_nonzero(v)
    if check:
        other = in_tilted_richardson(M, u, v, open_flag)
        if other != result:
            raise InternalConsistencyError(
                f"rank and Plücker membership disagree for u={u}, v={v}"
            )
    return result


def _check_kind(kind: str) -> None:
    if kind not in ("cell", "opposite"):
        raise ValueError(f"kind must be 'cell' or 'opposite', got {kind!r}")


def in_tilted_schubert_cell(
    M: ExactMatrix, w: Perm, a: Tilt, kind: str = "cell"
) -> bool:
    """Plücker-vanishing membership in X°_{w,a} (kind 'cell') or
    Ω°_{w,a} (kind 'opposite')."""
    _check_kind(kind)
    if len(check_permutation(w)) != M.n:
        raise ValueError(f"size mismatch: w has {len(w)} entries, the matrix {M.n} rows")
    a = check_tilt(a, M.n)
    if any(plucker(M, w[:k]) == 0 for k in range(1, M.n + 1)):  # Delta_w = 0
        return False
    diagram = tilted_rothe_op(a, w) if kind == "cell" else tilted_rothe(a, w)
    for (i, k) in diagram:
        if plucker(M, w[: k - 1] + (i,)) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# tilted Rothe diagrams and canonical cell matrices


def tilted_rothe_op(a: Tilt, w: Perm) -> frozenset[tuple[int, int]]:
    """The complementary diagram: the (w_i, k) with i > k outside
    ``tilted_rothe(a, w)``, i.e. w_i >_{a_k} w_k."""
    diagram = tilted_rothe(a, w)
    pairs = itertools.combinations(range(1, len(w) + 1), 2)
    return frozenset((w[i - 1], k) for k, i in pairs) - diagram


def canonical_cell_matrix(
    a: Tilt,
    w: Perm,
    kind: str = "cell",
    params: Optional[Mapping[tuple[int, int], Scalar]] = None,
) -> ExactMatrix:
    """Canonical representative: 1 at (w_k, k), free entries exactly on the
    tilted Rothe diagram (or its opposite), 0 elsewhere."""
    _check_kind(kind)
    diagram = tilted_rothe(a, w) if kind == "cell" else tilted_rothe_op(a, w)
    params = dict(params or {})
    if set(params) != set(diagram):
        raise ValueError(
            f"params must assign exactly the diagram cells {sorted(diagram)}"
        )
    return make_matrix(_cell_rows(w, params.items()))


# ---------------------------------------------------------------------------
# Deodhar points


def deodhar_point(
    word_v: TiltedWord,
    sub: Subword,
    p_map: Mapping[int, Scalar],
    m_map: Optional[Mapping[int, Scalar]] = None,
    field: Optional[int] = None,
) -> ExactMatrix:
    """The product g_1 ... g_l: sdot at kept ascents, y_i(p_j) at dropped
    positions, x_i(m_j) sdot_i^{-1} at forced keeps; bars contribute the
    identity.  p_j must be nonzero."""
    n = word_v.n
    m_map = dict(m_map or {})
    if set(p_map) != set(sub.jcirc) or set(m_map) != set(sub.jminus):
        raise ValueError("parameter maps must cover J° and J- exactly")
    if field is not None:
        p_map = {j: _to_field(x, field) for j, x in p_map.items()}
        m_map = {j: _to_field(x, field) for j, x in m_map.items()}
    # right-multiply by each factor's 2x2 block on columns (f, f+1) in place
    rows: list[list[Scalar]] = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for j, f in enumerate(word_v.factors, start=1):
        if f is BAR:
            continue
        if j in sub.jplus:  # sdot = [[0, -1], [1, 0]]
            for row in rows:
                row[f - 1], row[f] = row[f], -row[f - 1]
        elif j in sub.jcirc:  # y(p) = [[1, 0], [p, 1]]
            p = p_map[j]
            if p == 0:
                raise ValueError(f"Deodhar parameter p_{j} must be nonzero")
            for row in rows:
                row[f - 1] += p * row[f]
        else:  # x(m) sdot^{-1} = [[-m, 1], [-1, 0]]
            m = m_map[j]
            for row in rows:
                row[f - 1], row[f] = -m * row[f - 1] - row[f], row[f - 1]
    return make_matrix(rows, field)


# ---------------------------------------------------------------------------
# total nonnegativity


def tnn_signs(
    word_v: TiltedWord, positive_sub: Subword
) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """Signs for the positive parametrization, with the full sign-vector
    trace sign^(0), ..., sign^(l).

    Kept generators swap the two tracked entries; a bar flips the block
    (p, q] by (-1)^p for its flattening split p; dropped positions read
    off the parameter sign as the product of the two adjacent entries.
    """
    if positive_sub.jminus:
        raise ValueError("sign data is defined for the positive subword only")
    n = word_v.n
    splits = _regular_splits(word_v)
    if splits is None:
        raise ValueError("sign data requires a regular word")
    sign = [1] * n
    trace: list[tuple[int, ...]] = [tuple(sign)]
    out: dict[int, int] = {}
    for j, f in enumerate(word_v.factors, start=1):
        if f is BAR:
            q, p = splits[j]
            if p % 2:
                for t in range(p, q):
                    sign[t] = -sign[t]
        elif j in positive_sub.jplus:
            sign[f - 1], sign[f] = sign[f], sign[f - 1]
        else:
            out[j] = sign[f - 1] * sign[f]
        trace.append(tuple(sign))
    return out, trace


def is_tnn(M: ExactMatrix, a: Tilt) -> bool:
    """Whether all shifted-sorted Plücker coordinates share a sign in each
    degree k (rational matrices only)."""
    if M.field is not None:
        raise ValueError("total nonnegativity is a real/rational notion")
    n = M.n
    a = check_tilt(a, n)
    minor = _minor_table(M)
    seen = [0] * (n + 1)  # per degree: bit 1 a positive, bit 2 a negative coordinate
    for mask in range(1, len(minor)):
        if minor[mask]:
            k = mask.bit_count()
            # the shifted order lists the m rows below a_k after the k - m
            # others: sorting them back to increasing order is (-1)^{m(k-m)}
            m = (mask & ((1 << (a[k - 1] - 1)) - 1)).bit_count()
            seen[k] |= 1 if (minor[mask] > 0) == (m * (k - m) % 2 == 0) else 2
            if seen[k] == 3:
                return False
    return True


# ---------------------------------------------------------------------------
# F_q point counting


def enumerate_flags_fq(n: int, p: int) -> Iterator[ExactMatrix]:
    """Every flag of Fl_n(F_p) exactly once, via the canonical classical
    Schubert-cell matrices: p^{l(w)} per cell, free on D_{(1,...,1)}(w)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ones = (1,) * n
    for w in all_permutations(n):
        free = sorted(tilted_rothe(ones, w), key=lambda cell: (cell[1], cell[0]))
        for vals in itertools.product(range(p), repeat=len(free)):
            yield make_matrix(_cell_rows(w, zip(free, vals)), p)


def count_points_fq(u: Perm, v: Perm, p: int) -> int:
    """#T°_{u,v}(F_p) by a column-by-column walk over the Schubert-cell
    matrices of ``enumerate_flags_fq``, pruned at the first failing rank
    condition.

    Column k holds a 1 in row w_k and free entries in the rows i < w_k
    not used by w_1..w_{k-1}, so the first k columns depend only on
    w_1..w_k.  The level-k conditions of ``_rank_conditions`` (open,
    witness tilt) read only those columns: the level's two chains run on
    them and stop at the first rank off its bound, and the prefix is then
    dropped with every flag that extends it; a flag is counted when it
    passes every level.  The walked matrices have a permutation pivot
    pattern, so they are invertible and the conditions that
    ``_rank_conditions`` leaves out hold on them.
    """
    n = len(u)
    check_gate("QBRUHAT_MAX_COUNT_N", n)
    check_perms(u, v)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # level k's two (chain rows, bounds) pairs; level n has no condition
    levels = [chains for _, chains in _rank_conditions(u, v)]
    levels.append([])

    rows = [[0] * n for _ in range(n)]
    used = [False] * n  # rows holding the pivot of an earlier column

    def walk(k: int) -> int:
        """Flags that extend the placed columns 1..k-1 and pass levels k..n."""
        if k > n:
            return 1
        c, chains, total = k - 1, levels[k - 1], 0
        for pivot in range(n):
            if used[pivot]:
                continue
            free = [r for r in range(pivot) if not used[r]]
            for row in rows:
                row[c] = 0
            rows[pivot][c] = 1
            used[pivot] = True
            for vals in itertools.product(range(p), repeat=len(free)):
                for r, x in zip(free, vals):
                    rows[r][c] = x
                if all(_chain_meets(_echelon_chain((rows[r][:k] for r in chain), p),
                                    bounds, k, True)
                       for chain, bounds in chains):
                    total += walk(k + 1)
            used[pivot] = False
        return total

    return walk(1)


# ---------------------------------------------------------------------------
# generic exact solving and interpolation


def solve_exact(
    A: Sequence[Sequence[Scalar]], b: Sequence[Scalar]
) -> Optional[list[Fraction]]:
    """Unique exact solution of a (possibly overdetermined) consistent
    system over Q; None if inconsistent; raises if underdetermined."""
    nc = len(A[0]) if A else 0
    aug, _ = _clear([[*row, b[r]] for r, row in enumerate(A)])
    m, pivots, _ = _eliminate(aug, None)
    if nc in pivots:
        return None
    if len(pivots) < nc:
        raise ValueError("underdetermined system")
    # back-substitution on the upper triangle of the echelon rows
    sol = [Fraction(0)] * nc
    for k in reversed(range(nc)):
        row = m[k]
        rest = sum(row[j] * sol[j] for j in range(k + 1, nc))
        sol[k] = Fraction(row[nc] - rest) / row[k]
    return sol


def interpolate(points: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the unique polynomial through the points."""
    k = len(points)
    A = [[Fraction(x) ** e for e in range(k)] for x, _ in points]
    sol = solve_exact(A, [y for _, y in points])
    if sol is None:
        raise ValueError("interpolation points are inconsistent")
    while sol and sol[-1] == 0:
        sol.pop()
    return sol


# ---------------------------------------------------------------------------
# matrix JSON


def matrix_to_json(M: ExactMatrix) -> str:
    return json.dumps([[str(x) for x in row] for row in M.rows])


def matrix_from_json(text: str, field: Optional[int] = None) -> ExactMatrix:
    """A JSON list of rows whose entries are integers or exact rational
    strings ("3/2", "0.1" = 1/10).  Floats, booleans, null and nested
    lists are refused, naming the row and column (1-indexed)."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("matrix JSON must be a list of rows")
    rows = []
    for i, row in enumerate(data, start=1):
        if not isinstance(row, list):
            raise ValueError(f"matrix row {i} is {json.dumps(row)}, not a list")
        rows.append([])
        for k, cell in enumerate(row, start=1):
            try:
                if isinstance(cell, bool) or not isinstance(cell, (int, str)):
                    raise TypeError
                rows[-1].append(Fraction(cell))
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(
                    f"matrix entry at row {i}, column {k} is {json.dumps(cell)}: "
                    'expected an integer or a string such as "3/2"'
                ) from None
    return make_matrix(rows, field)
