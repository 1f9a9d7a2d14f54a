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

from .errors import BudgetExceededError, SpecParseError
from .field import GF, parse_field_header
from .indices import enumerate_index_tuples, gaussian_binomial, index_positions
from .linalg import Mat, maximal_minors, rref_batch, rref_chunks, zeros

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
        if self.defining_forms.rows and len(self):
            prods = self.field.matmul(self.defining_forms.a, self.point_matrix().a)
            if prods.any():
                raise ValueError("a defining form does not vanish on all points")


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


def normalize_point(field: GF, coords) -> tuple[int, ...]:
    coords = [int(c) for c in coords]
    first = next((c for c in coords if c), None)
    if first is None:
        raise ValueError("zero vector is not a projective point")
    if first == 1:
        return tuple(coords)
    scale = field.inv(first)
    return tuple(field.mul(c, scale) for c in coords)


def plucker_embed(basis: Mat) -> tuple[int, ...]:
    """Normalized vector of maximal minors of a full-rank l x m basis."""
    if basis.rank() != basis.rows:
        raise ValueError("basis rows are linearly dependent")
    return normalize_point(basis.field, maximal_minors(basis.field, basis.a[None])[0])


def iter_grassmann_cells(ell: int, m: int, field: GF, chunk: int = 2048):
    """Yield (pivot tuple, bases (N,l,m), coords (N,K)) batches in canonical order."""
    for pivots, start, stop in rref_chunks(field.q, ell, m, chunk):
        bases = rref_batch(field.q, m, pivots, start, stop)
        yield tuple(p + 1 for p in pivots), bases, maximal_minors(field, bases)


def enumerate_grassmann_points(
    ell: int, m: int, field: GF, budget: int = DEFAULT_POINT_BUDGET
) -> ProjSystem:
    """All gaussian_binomial(m, ell, q) points of G(l, m)(F_q)."""
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    expected = gaussian_binomial(m, ell, field.q)
    if expected > budget:
        raise BudgetExceededError(f"G({ell},{m})(F_{field.q}) point count", expected, budget)
    ambient = len(enumerate_index_tuples(ell, m))
    cells = iter_grassmann_cells(ell, m, field)
    points = stack_rows((coords for _, _, coords in cells), expected, ambient)
    if len(points) != expected:
        raise RuntimeError(f"enumerated {len(points)} points of G({ell},{m}), expected {expected}")
    return ProjSystem(field, ambient, points, zeros(field, 0, ambient), ell=ell, m=m)


def subspace_of_point(coords, ell: int, m: int, field: GF) -> Mat:
    """Canonical rref basis of the subspace with the given Plücker vector."""
    tuples = enumerate_index_tuples(ell, m)
    pos = index_positions(ell, m)
    coords = [int(c) for c in coords]
    if len(coords) != len(tuples):
        raise ValueError("coordinate length mismatch")
    first = next((i for i, c in enumerate(coords) if c), None)
    if first is None:
        raise ValueError("zero vector is not a projective point")
    piv = tuples[first]
    scale = field.inv(coords[first])
    basis = np.zeros((ell, m), dtype=np.int64)
    pivset = set(piv)
    for i1, c in enumerate(piv, start=1):
        basis[i1 - 1, c - 1] = 1
        for j in range(1, m + 1):
            if j in pivset:
                continue
            beta = tuple(sorted((pivset - {c}) | {j}))
            val = field.mul(coords[pos[beta]], scale)
            if (i1 + beta.index(j) + 1) % 2 == 1:
                val = field.neg(val)
            basis[i1 - 1, j - 1] = val
    mat = Mat(field, basis)
    if plucker_embed(mat) != normalize_point(field, coords):
        raise ValueError("coordinates do not describe a point of the Grassmannian")
    return mat


# -- point list files --------------------------------------------------------


def write_points_file(sys: ProjSystem, path: str) -> None:
    if sys.ell is None or sys.m is None:
        raise ValueError("system does not record (l, m)")
    with open(path, "w") as fh:
        fh.write(sys.field.header() + "\n")
        fh.write(f"# plucker l={sys.ell} m={sys.m}\n")
        np.savetxt(fh, sys.points, fmt="%d", delimiter=",")


def read_points_file(path: str) -> ProjSystem:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if len(lines) < 2 or not lines[0].startswith("# gf") or not lines[1].startswith("# plucker"):
        raise SpecParseError(f"{path}: missing field/plucker headers")
    field = parse_field_header(lines[0])
    try:
        kv = dict(item.split("=", 1) for item in lines[1].lstrip("#").split()[1:])
        ell, m = int(kv["l"]), int(kv["m"])
        ambient = len(enumerate_index_tuples(ell, m))
    except (KeyError, ValueError) as exc:
        raise SpecParseError(f"{path}: bad plucker header") from exc
    points = []
    for line in lines[2:]:
        try:
            point = tuple(int(c) for c in line.split(","))
        except ValueError as exc:
            raise SpecParseError(f"{path}: bad point entry") from exc
        if len(point) != ambient:
            raise SpecParseError(f"{path}: point of wrong length")
        if any(not 0 <= c < field.q for c in point):
            raise SpecParseError(f"{path}: point entries outside [0, {field.q})")
        points.append(point)
    return ProjSystem(field, ambient, points, zeros(field, 0, ambient), ell=ell, m=m)
