"""Dense exact linear algebra over GF(q).

Matrices hold integer encodings and carry their field.  The canonical
subspace representation everywhere is the reduced row echelon basis, so
subspace comparisons are literal row comparisons.  Gaussian elimination
picks the first nonzero entry as pivot; in exact arithmetic there is no
scaling ambiguity.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .field import GF


def _row_reduce(field: GF, m: np.ndarray, pivot_col_limit: int):
    """In-place full reduction; pivots searched in columns < pivot_col_limit."""
    rows = m.shape[0]
    pivots = []
    r = 0
    for c in range(pivot_col_limit):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        pivval = int(m[r, c])
        if pivval != 1:
            m[r] = field.mul_arr(m[r], field.inv(pivval))
        col = np.array(m[:, c])
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask] = field.sub_arr(m[mask], field.mul_arr(col[mask, None], m[r][None, :]))
        pivots.append(c)
        r += 1
    return m, r, tuple(pivots)


class Mat:
    """Immutable dense matrix over a finite field."""

    __slots__ = ("field", "a", "_rref")

    def __init__(self, field: GF, a):
        arr = np.array(a, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("Mat requires a 2-D array")
        field.check_elements(arr)
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

    def __hash__(self):
        return hash((self.field, self.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Mat({self.field!r}, {self.rows}x{self.cols})"

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise ValueError("mixed-field matrix product")
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        return Mat(self.field, self.field.matmul(self.a, other.a))

    def _reduced(self):
        if self._rref is None:
            m, rank, pivots = _row_reduce(self.field, np.array(self.a), self.cols)
            self._rref = (Mat(self.field, m), rank, pivots)
        return self._rref

    def rref(self) -> tuple["Mat", int, tuple[int, ...]]:
        """Reduced row echelon form, rank, pivot column indices."""
        return self._reduced()

    def rank(self) -> int:
        return self._reduced()[1]

    def rref_basis(self) -> "Mat":
        """Nonzero rows of the rref: the canonical basis of the row space."""
        echelon, rank, _ = self._reduced()
        return Mat(self.field, echelon.a[:rank])

    def left_kernel(self) -> "Mat":
        """Canonical (rref) basis of {v : v @ self = 0}."""
        aug = np.concatenate(
            [np.array(self.a), np.eye(self.rows, dtype=np.int64)], axis=1
        )
        _, rank, _ = _row_reduce(self.field, aug, self.cols)
        ker = aug[rank:, self.cols :]
        m, krank, _ = _row_reduce(self.field, np.array(ker), ker.shape[1])
        return Mat(self.field, m[:krank])

    def right_kernel(self) -> "Mat":
        """Canonical basis (rows) of {x : self @ x^T = 0}."""
        return Mat(self.field, self.a.T).left_kernel()

    def transpose(self) -> "Mat":
        return Mat(self.field, self.a.T)

    def neg(self) -> "Mat":
        return Mat(self.field, self.field.neg_arr(self.a))

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        F = self.field
        m = np.array(self.a)
        n = self.rows
        d = 1
        for c in range(n):
            nz = np.nonzero(m[c:, c])[0]
            if nz.size == 0:
                return 0
            piv = c + int(nz[0])
            if piv != c:
                m[[c, piv]] = m[[piv, c]]
                d = F.neg(d)
            pv = int(m[c, c])
            d = F.mul(d, pv)
            inv = F.inv(pv)
            below = m[c + 1 :, c]
            mask = below != 0
            if mask.any():
                factors = F.mul_arr(below[mask], inv)
                m[c + 1 :][mask] = F.sub_arr(
                    m[c + 1 :][mask], F.mul_arr(factors[:, None], m[c][None, :])
                )
        return d


def zeros(field: GF, rows: int, cols: int) -> Mat:
    return Mat(field, np.zeros((rows, cols), dtype=np.int64))


def identity(field: GF, n: int) -> Mat:
    return Mat(field, np.eye(n, dtype=np.int64))


def from_rows(field: GF, rows, cols: int | None = None) -> Mat:
    rows = list(rows)
    if not rows:
        if cols is None:
            raise ValueError("empty matrix needs explicit column count")
        return zeros(field, 0, cols)
    return Mat(field, np.array(rows, dtype=np.int64))


def vstack(mats: list[Mat]) -> Mat:
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise ValueError("mixed-field stack")
        if m.cols != mats[0].cols:
            raise ValueError("column-count mismatch")
    return Mat(field, np.concatenate([m.a for m in mats], axis=0))


def row_space_equal(a: Mat, b: Mat) -> bool:
    if a.field != b.field:
        raise ValueError("mixed-field comparison")
    if a.cols != b.cols:
        raise ValueError("column-count mismatch")
    return np.array_equal(a.rref_basis().a, b.rref_basis().a)


def solve_membership(v, a: Mat) -> bool:
    """True iff row vector v lies in the row space of a."""
    varr = np.asarray(v, dtype=np.int64).reshape(1, -1)
    if varr.shape[1] != a.cols:
        raise ValueError("width mismatch")
    stacked = Mat(a.field, np.concatenate([a.a, varr], axis=0))
    return stacked.rank() == a.rank()


def intersect_row_spaces(a: Mat, b: Mat) -> Mat:
    """Canonical basis of rowspace(a) ∩ rowspace(b)."""
    if a.field != b.field:
        raise ValueError("mixed-field intersection")
    if a.cols != b.cols:
        raise ValueError("column-count mismatch")
    if a.rows == 0 or b.rows == 0:
        return zeros(a.field, 0, a.cols)
    stacked = vstack([a, b.neg()])
    pairs = stacked.left_kernel()
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
# position fastest).  This ordering is the global canonical order for both
# Grassmannian points and subcode scans.


def rref_free_positions(pivots: tuple[int, ...], k: int) -> list[tuple[int, int]]:
    pivot_set = set(pivots)
    return [
        (i, j)
        for i in range(len(pivots))
        for j in range(pivots[i] + 1, k)
        if j not in pivot_set
    ]


def digit_block(q: int, nfree: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the odometer over nfree base-q digits."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, nfree), dtype=np.int64)
    for t in range(nfree):
        out[:, t] = (idx // q ** (nfree - 1 - t)) % q
    return out


def build_rref_batch(
    pivots: tuple[int, ...], k: int, digits: np.ndarray
) -> np.ndarray:
    """(N, r, k) stack of rref matrices for one pivot set and a digit block."""
    r = len(pivots)
    n = digits.shape[0]
    out = np.zeros((n, r, k), dtype=np.int64)
    for i, c in enumerate(pivots):
        out[:, i, c] = 1
    for t, (i, j) in enumerate(rref_free_positions(pivots, k)):
        out[:, i, j] = digits[:, t]
    return out


def iter_rref_batches(field: GF, r: int, k: int, chunk: int = 4096):
    """Yield (N, r, k) batches covering every r-dim subspace of F_q^k once."""
    q = field.q
    for pivots in combinations(range(k), r):
        nfree = len(rref_free_positions(pivots, k))
        total = q**nfree
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            yield build_rref_batch(pivots, k, digit_block(q, nfree, start, stop))
