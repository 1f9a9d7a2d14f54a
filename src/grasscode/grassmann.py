"""Rational points of G(l, m) over GF(q).

Subspaces are enumerated through their canonical reduced-row-echelon
bases: pivot column sets in lexicographic order, free entries cycling in
odometer order.  Plücker coordinates are maximal minors in the global
lexicographic index order, all computed in one Laplace pass per batch of
bases (``linalg.maximal_minors``) and normalized so the first nonzero
coordinate is 1.  For a canonical basis the first nonzero coordinate sits
at the pivot tuple and already equals 1, so the enumeration order is also
the canonical point order.

Each generated batch is read back before it is used: every coordinate
before the pivot tuple is 0, the pivot coordinate is 1, and each free
entry of the basis is ± one coordinate (``_read_back``).  A point thus
determines its basis, so the stream has no repeated point, and no sort
over a point set is needed to show it.

A point set is one read-only ``(N, K)`` array, K = C(m, l), rows in
canonical order.  Enumerations write each batch into a single array
allocated at the upstream point count (``stack_rows``), never into a
list of tuples or of chunks.

Bases, minors and points are carried in ``field.dtype``, as every field
element is (``field``), so the F_2 Laplace pass moves one byte per
entry, not eight.

The stream yields ``(bases, coords, memo)`` batches.  It is kept only
when the caller passes a ``store``: ``bounds.run_suite`` passes one per
visit to a Grassmannian, so every spec on that G(l, m) replays one list
of blocks instead of generating them again, and the list is dropped when
the visit ends.  A stored block joins consecutive generated chunks, across
cells, up to ``chunk`` (2048) candidates, so a replay filters a few large
blocks, not one small batch per cell.  ``count`` and ``build`` pass no
store and stream, holding one generated chunk at a time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import GF
from .indices import index_positions
from .linalg import Mat, maximal_minors, rref_batch, rref_chunks, rref_free_positions

DEFAULT_POINT_BUDGET = 10**6


@dataclass(eq=False)
class ProjSystem:
    """A finite set of projective points plus the linear forms known to kill them.

    ``points`` is a read-only (N, ambient_dim) array in ``field.dtype``,
    one point per row; any array-like of rows is accepted (``GF.array``).
    """

    field: GF
    ambient_dim: int
    points: np.ndarray
    defining_forms: Mat
    ell: int | None = None
    m: int | None = None
    source: object = None
    _point_matrix: Mat | None = dataclasses.field(default=None, init=False, repr=False)

    def __post_init__(self):
        points = self.field.array(self.points)
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
        """ambient_dim x n matrix whose columns are the points, in order.

        Built once per system, so the hull (``sections.verify_ffn``) and the
        code (``codes.build_code``) read one reduction of it.
        """
        if self._point_matrix is None:
            self._point_matrix = Mat(self.field, self.points.T)
        return self._point_matrix


def stack_rows(parts, capacity: int, width: int, dtype) -> np.ndarray:
    """The row blocks of ``parts`` in order, written into one ``dtype`` array allocated at ``capacity`` rows."""
    out = np.empty((capacity, width), dtype=dtype)
    n = 0
    for part in parts:
        if n + len(part) > capacity:
            raise RuntimeError(f"more than the expected {capacity} rows")
        out[n : n + len(part)] = part
        n += len(part)
    # shrinks the buffer in place: nothing else refers to it yet
    out.resize((n, width), refcheck=False)
    return out


@lru_cache(maxsize=None)
def _read_back_plan(pivots: tuple[int, ...], m: int) -> tuple:
    """Where the canonical bases of pivot set P sit among their Plücker coordinates.

    Returns i_P, the lex index of P, and per sign the flat positions
    i * m + j of the free entries (i, j) of ``rref_free_positions`` next to
    the lex indices of sorted(P - {p_i} | {j}).  That minor is the basis
    with column p_i replaced by column j, moved past the s pivots strictly
    between p_i and j: it equals (-1)^s times entry (i, j).
    """
    pos = index_positions(len(pivots), m)
    signed = {1: ([], []), -1: ([], [])}
    for i, j in rref_free_positions(pivots, m):
        s = sum(pivots[i] < p < j for p in pivots)
        beta = sorted({*pivots} - {pivots[i]} | {j})
        flat, at = signed[(-1) ** s]
        flat.append(i * m + j)
        at.append(pos[tuple(c + 1 for c in beta)])
    head = pos[tuple(p + 1 for p in pivots)]
    return head, [(sign, np.array(flat), np.array(at)) for sign, (flat, at) in signed.items() if flat]


def _read_back(field: GF, pivots: tuple[int, ...], bases: np.ndarray, coords: np.ndarray) -> None:
    """Raise unless the Plücker coordinates of each basis of one pivot set give that basis back.

    A canonical basis with pivots P has every coordinate before P zero,
    coordinate P equal to 1, and each free entry equal, up to a sign, to
    one coordinate (``_read_back_plan``).  So the point determines its
    basis, and distinct canonical bases give distinct points: this proves
    the point set has no repeats.  It also checks every candidate's
    coordinates up to P and one per free entry against the basis, with
    no arithmetic shared with ``maximal_minors``.
    """
    m = bases.shape[2]
    head, signed = _read_back_plan(pivots, m)
    flat_bases = bases.reshape(len(bases), -1)
    ok = not coords[:, :head].any() and bool((coords[:, head] == 1).all())
    for sign, flat, at in signed:
        entries = flat_bases[:, flat]
        ok = ok and np.array_equal(coords[:, at], entries if sign > 0 else field.sub_arr(0, entries))
    if not ok:
        cell = tuple(p + 1 for p in pivots)
        raise RuntimeError(f"Plücker coordinates do not read back the canonical bases of cell {cell}")


def _generated(ell: int, m: int, field: GF, chunk: int):
    """(bases, coords) per chunk of one pivot set, in canonical order, each read back."""
    for pivots, start, stop in rref_chunks(field.q, ell, m, chunk):
        bases = rref_batch(field, m, pivots, start, stop)
        coords = maximal_minors(field, bases)
        _read_back(field, pivots, bases, coords)
        yield bases, coords


def _blocks(batches, chunk: int):
    """Consecutive (bases, coords) batches joined into blocks of at most ``chunk`` rows."""
    held, size = [], 0
    for batch in batches:
        if held and size + len(batch[0]) > chunk:
            yield tuple(np.concatenate(part) for part in zip(*held))
            held, size = [], 0
        held.append(batch)
        size += len(batch[0])
    if held:
        yield tuple(np.concatenate(part) for part in zip(*held))


def iter_grassmann_cells(ell: int, m: int, field: GF, chunk: int = 2048, store: dict | None = None):
    """Yield (bases (N,l,m), coords (N,K), memo) batches in canonical order.

    Cells are generated one pivot-set chunk of at most ``chunk`` bases at
    a time, and each chunk is read back (``_read_back``) before it is
    used.  Without a ``store`` each chunk is yielded as it comes, so one
    is held at a time.  With one, consecutive chunks are joined into
    blocks of at most ``chunk`` candidates, which may span cells; the
    first call for (l, m) that runs to the end keeps its blocks, memos
    included, under that key, and later calls replay them with nothing
    read back again.  ``memo`` is a dict per batch in which a consumer
    keeps what it derives from that batch alone.
    """
    if store is not None and (ell, m) in store:
        yield from store[ell, m]
        return
    batches = _generated(ell, m, field, chunk)
    if store is not None:
        batches = _blocks(batches, chunk)
    blocks = []
    for bases, coords in batches:
        # replayed batches are shared by every consumer: none may write to them
        bases.flags.writeable = coords.flags.writeable = False
        batch = (bases, coords, {})
        if store is not None:
            blocks.append(batch)
        yield batch
    if store is not None:
        store[ell, m] = blocks
