"""Dense exact linear algebra over GF(q).

Matrices hold integer encodings and carry their field.  The canonical
subspace representation everywhere is the reduced row echelon basis, so
subspace comparisons are literal row comparisons.  Gaussian elimination
picks the first nonzero entry as pivot; in exact arithmetic there is no
scaling ambiguity.

Each matrix A is reduced once, as [A | I] over all of its columns.  That
one reduction gives the rank, the rref basis of the row space and the
rref basis of the left kernel {v : v A = 0}, and ``Mat`` caches it.  It
jumps from one pivot column to the next, past the columns that are zero
in the rows still free, and a pivot updates only the columns from its
own on.  Entries are stored and reduced in ``field.dtype`` (``GF.array``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .field import GF


def _row_reduce(field: GF, m: np.ndarray) -> list[int]:
    """In-place full reduction; returns the pivot columns.

    Rows r and below are zero left of the current column c, so a pivot
    updates columns c and later only: nothing left of c changes.  A
    column with no nonzero entry there is skipped together with every
    such column after it, looked for in windows of columns that double
    from 64.  One scan of all the columns left would cost a pass over
    the rest of the matrix per jump, more than visiting each column
    when the pivots are many and spread out, as in G(3,8) over F_2.
    """
    rows, cols = m.shape
    pivots = []
    r = c = 0
    while r < rows and c < cols:
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            width = 64
            while c < cols and not (ahead := np.flatnonzero(m[r:, c : c + width].any(axis=0))).size:
                c += width
                width *= 2
            if c >= cols:
                break
            c += int(ahead[0])
            nz = np.flatnonzero(m[r:, c])
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        pivval = int(m[r, c])
        if pivval != 1:
            m[r, c:] = field.mul_arr(m[r, c:], field.inv(pivval))
        col = np.array(m[:, c])
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask, c:] = field.sub_arr(m[mask, c:], field.mul_arr(col[mask, None], m[r, c:][None, :]))
        pivots.append(c)
        r += 1
        c += 1
    return pivots


class Mat:
    """Immutable dense matrix over a finite field."""

    __slots__ = ("field", "a", "_rref")

    def __init__(self, field: GF, a):
        arr = field.array(a, copy=True)
        if arr.ndim != 2:
            raise ValueError("Mat requires a 2-D array")
        arr.flags.writeable = False
        self.field = field
        self.a = arr
        self._rref = None

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self):
        return f"Mat({self.field!r}, {self.rows}x{self.cols})"

    def _reduced(self) -> tuple["Mat", "Mat"]:
        """(rref basis, left kernel basis), both read off one reduction of [A | I].

        The rows with a pivot in A come first, and their A-part is rref(A).
        The other rows are zero in A, so their I-part spans the left kernel,
        and full reduction over the identity columns leaves it in rref.
        """
        if self._rref is None:
            rows, cols = self.shape
            m = np.concatenate([self.a, np.eye(rows, dtype=self.a.dtype)], axis=1)
            rank = sum(c < cols for c in _row_reduce(self.field, m))
            self._rref = (Mat(self.field, m[:rank, :cols]), Mat(self.field, m[rank:, cols:]))
        return self._rref

    def rank(self) -> int:
        return self._reduced()[0].rows

    def rref_basis(self) -> "Mat":
        """Nonzero rows of the rref: the canonical basis of the row space."""
        return self._reduced()[0]

    def left_kernel(self) -> "Mat":
        """Canonical (rref) basis of {v : v @ self = 0}."""
        return self._reduced()[1]

    def right_kernel(self) -> "Mat":
        """Canonical basis (rows) of {x : self @ x^T = 0}."""
        return Mat(self.field, self.a.T).left_kernel()


def zeros(field: GF, rows: int, cols: int) -> Mat:
    return Mat(field, np.zeros((rows, cols), dtype=field.dtype))


def vstack(mats: list[Mat]) -> Mat:
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise ValueError("mixed-field stack")
        if m.cols != mats[0].cols:
            raise ValueError("column-count mismatch")
    return Mat(field, np.concatenate([m.a for m in mats], axis=0))


def intersect_row_spaces(a: Mat, b: Mat) -> Mat:
    """Canonical basis of rowspace(a) ∩ rowspace(b)."""
    if a.field != b.field:
        raise ValueError("mixed-field intersection")
    if a.cols != b.cols:
        raise ValueError("column-count mismatch")
    if a.rows == 0 or b.rows == 0:
        return zeros(a.field, 0, a.cols)
    # u a + v b = 0 puts u a = -v b in both row spaces
    pairs = vstack([a, b]).left_kernel()
    u = pairs.a[:, : a.rows]
    inter = a.field.matmul(u, a.a)
    return Mat(a.field, inter).rref_basis()


@lru_cache(maxsize=None)
def _laplace_plan(ell: int, m: int) -> tuple:
    """Gather indices of the Laplace pass, per j = 2..l and term t < j.

    Column subsets are indexed in lex order.  For each j-subset S, ``cols``
    holds its t-th column c and ``sub`` the index of S - {c} among the
    (j-1)-subsets.
    """
    plan = []
    for j in range(2, ell + 1):
        index = {s: i for i, s in enumerate(combinations(range(m), j - 1))}
        subsets = list(combinations(range(m), j))
        plan.append(
            [
                (np.array([s[t] for s in subsets]), np.array([index[s[:t] + s[t + 1 :]] for s in subsets]))
                for t in range(j)
            ]
        )
    return tuple(plan)


def maximal_minors(field: GF, bases: np.ndarray) -> np.ndarray:
    """All C(m, l) maximal minors of an (N, l, m) stack, column subsets in lex order.

    The minors of the bottom j rows on every j-subset of columns come from
    those of the bottom j - 1 rows, by expansion along row l - j, one
    signed term at a time.
    """
    ell = bases.shape[1]
    minors = np.array(bases[:, ell - 1, :])
    for j, terms in enumerate(_laplace_plan(ell, bases.shape[2]), start=2):
        row = bases[:, ell - j, :]
        acc = field.mul_arr(row[:, terms[0][0]], minors[:, terms[0][1]])
        for t, (cols, sub) in enumerate(terms[1:], start=1):
            term = field.mul_arr(row[:, cols], minors[:, sub])
            acc = field.sub_arr(acc, term) if t % 2 else field.add_arr(acc, term)
        minors = acc
    return minors


# -- enumeration of canonical rref representatives of subspaces -------------
#
# Full-rank r x k matrices in rref, pivot column sets in lexicographic
# order, free entries cycling like an odometer (row-major positions, last
# position fastest).  This ordering is the global canonical order for
# Grassmannian points and for every code scan.


def rref_free_positions(pivots: tuple[int, ...], k: int) -> list[tuple[int, int]]:
    pivot_set = set(pivots)
    return [
        (i, j)
        for i in range(len(pivots))
        for j in range(pivots[i] + 1, k)
        if j not in pivot_set
    ]


def rref_chunks(q: int, r: int, k: int, chunk: int):
    """Yield (pivots, start, stop) covering every r-dim subspace of F_q^k once, in canonical order."""
    for pivots in combinations(range(k), r):
        total = q ** len(rref_free_positions(pivots, k))
        for start in range(0, total, chunk):
            yield pivots, start, min(start + chunk, total)


def rref_batch(field: GF, k: int, pivots: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """(N, r, k) stack in ``field.dtype`` of the rref matrices start..stop-1 of one pivot set."""
    out = np.zeros((stop - start, len(pivots), k), dtype=field.dtype)
    for i, c in enumerate(pivots):
        out[:, i, c] = 1
    idx = np.arange(start, stop, dtype=np.int64)
    for i, j in reversed(rref_free_positions(pivots, k)):
        out[:, i, j] = idx % field.q
        idx //= field.q
    return out
