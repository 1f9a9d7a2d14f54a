"""Rational points of G(l, m) over GF(q).

Subspaces are enumerated through their canonical reduced-row-echelon
bases: pivot column sets in lexicographic order, free entries cycling in
odometer order.  Plücker coordinates are maximal minors in the global
lexicographic index order, all computed in one Laplace pass per batch of
bases (``linalg.maximal_minors``) and normalized so the first nonzero
coordinate is 1.  For a canonical basis the first nonzero coordinate sits
at the pivot tuple and already equals 1, so the enumeration order is also
the canonical point order.

A point set is one read-only ``(N, K)`` int64 array, K = C(m, l), rows in
canonical order.  Enumerations write each batch into a single array
allocated at the upstream point count (``stack_rows``), never into a
list of tuples or of chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import GF
from .linalg import Mat, maximal_minors, rref_batch, rref_chunks

DEFAULT_POINT_BUDGET = 10**6


@dataclass(eq=False)
class ProjSystem:
    """A finite set of projective points plus the linear forms known to kill them.

    ``points`` is a read-only (N, ambient_dim) int64 array, one point per
    row; any array-like of rows is accepted and converted.
    """

    field: GF
    ambient_dim: int
    points: np.ndarray
    defining_forms: Mat
    ell: int | None = None
    m: int | None = None
    source: object = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.int64)
        if points.size == 0:
            points = points.reshape(0, self.ambient_dim)
        if points.ndim != 2 or points.shape[1] != self.ambient_dim:
            raise ValueError(f"points must have shape (N, {self.ambient_dim}), got {points.shape}")
        # a read-only view, so the caller's array keeps its own flags
        self.points = points.view()
        self.points.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)

    def point_matrix(self) -> Mat:
        """ambient_dim x n matrix whose columns are the points, in order."""
        return Mat(self.field, self.points.T)

    def validate(self) -> None:
        # each row as one fixed-size byte string; sorted, equal rows are adjacent
        packed = np.ascontiguousarray(self.points, dtype=np.uint8 if self.field.q <= 256 else np.uint16)
        rows = np.sort(packed.view(np.dtype((np.void, packed.itemsize * self.ambient_dim))).ravel())
        if (rows[1:] == rows[:-1]).any():
            raise ValueError("duplicate points in projective system")


def stack_rows(parts, capacity: int, width: int) -> np.ndarray:
    """The row blocks of ``parts`` in order, written into one array allocated at ``capacity`` rows."""
    out = np.empty((capacity, width), dtype=np.int64)
    n = 0
    for part in parts:
        if n + len(part) > capacity:
            raise RuntimeError(f"more than the expected {capacity} rows")
        out[n : n + len(part)] = part
        n += len(part)
    # shrinks the buffer in place: nothing else refers to it yet
    out.resize((n, width), refcheck=False)
    return out


def iter_grassmann_cells(ell: int, m: int, field: GF, chunk: int = 2048):
    """Yield (pivot tuple, bases (N,l,m), coords (N,K)) batches in canonical order."""
    for pivots, start, stop in rref_chunks(field.q, ell, m, chunk):
        bases = rref_batch(field.q, m, pivots, start, stop)
        yield tuple(p + 1 for p in pivots), bases, maximal_minors(field, bases)
