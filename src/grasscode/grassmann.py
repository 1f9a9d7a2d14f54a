"""Rational points of G(l, m) over GF(q).

Subspaces are enumerated through their canonical reduced-row-echelon
bases: pivot column sets in lexicographic order, free entries cycling in
odometer order.  Plücker coordinates are maximal minors in the global
lexicographic index order, all computed in one Laplace pass per batch of
bases (``linalg.maximal_minors``) and normalized so the first nonzero
coordinate is 1.  For a canonical basis the first nonzero coordinate sits
at the pivot tuple and already equals 1, so the enumeration order is also
the canonical point order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .field import GF
from .indices import enumerate_index_tuples, gaussian_binomial, index_positions
from .linalg import Mat, build_rref_batch, digit_block, maximal_minors, rref_free_positions, zeros

from itertools import combinations

ProjPoint = tuple[int, ...]

DEFAULT_POINT_BUDGET = 10**6


@dataclass
class ProjSystem:
    """A finite set of projective points plus the linear forms known to kill them."""

    field: GF
    ambient_dim: int
    points: list[ProjPoint]
    defining_forms: Mat
    ell: int | None = None
    m: int | None = None
    source: object = None

    def __len__(self) -> int:
        return len(self.points)

    def point_matrix(self) -> Mat:
        """ambient_dim x n matrix whose columns are the points, in order."""
        arr = np.array(self.points, dtype=np.int64).reshape(len(self.points), self.ambient_dim)
        return Mat(self.field, arr.T)

    def validate(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points in projective system")
        if self.defining_forms.rows and self.points:
            prods = self.field.matmul(self.defining_forms.a, self.point_matrix().a)
            if prods.any():
                raise ValueError("a defining form does not vanish on all points")


def normalize_point(field: GF, coords) -> ProjPoint:
    coords = [int(c) for c in coords]
    first = next((c for c in coords if c), None)
    if first is None:
        raise ValueError("zero vector is not a projective point")
    if first == 1:
        return tuple(coords)
    scale = field.inv(first)
    return tuple(field.mul(c, scale) for c in coords)


def plucker_embed(basis: Mat) -> ProjPoint:
    """Normalized vector of maximal minors of a full-rank l x m basis."""
    if basis.rank() != basis.rows:
        raise ValueError("basis rows are linearly dependent")
    return normalize_point(basis.field, maximal_minors(basis.field, basis.a[None])[0])


def iter_grassmann_cells(ell: int, m: int, field: GF, chunk: int = 2048):
    """Yield (pivot tuple, bases (N,l,m), coords (N,K)) batches in canonical order."""
    q = field.q
    for pivots0 in combinations(range(m), ell):
        nfree = len(rref_free_positions(pivots0, m))
        total = q**nfree
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            bases = build_rref_batch(pivots0, m, digit_block(q, nfree, start, stop))
            coords = maximal_minors(field, bases)
            yield tuple(p + 1 for p in pivots0), bases, coords


def enumerate_grassmann_points(
    ell: int, m: int, field: GF, budget: int = DEFAULT_POINT_BUDGET
) -> ProjSystem:
    """All gaussian_binomial(m, ell, q) points of G(l, m)(F_q)."""
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    expected = gaussian_binomial(m, ell, field.q)
    if expected > budget:
        raise BudgetExceededError(f"G({ell},{m})(F_{field.q}) point count", expected, budget)
    points: list[ProjPoint] = []
    for _, _, coords in iter_grassmann_cells(ell, m, field):
        points.extend(map(tuple, coords.tolist()))
    if len(points) != expected:
        raise RuntimeError(f"enumerated {len(points)} points of G({ell},{m}), expected {expected}")
    ambient = len(enumerate_index_tuples(ell, m))
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
        for point in sys.points:
            fh.write(",".join(str(c) for c in point) + "\n")


def read_points_file(path: str) -> ProjSystem:
    from .errors import SpecParseError
    from .field import parse_field_header

    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if len(lines) < 2 or not lines[0].startswith("# gf") or not lines[1].startswith("# plucker"):
        raise SpecParseError(f"{path}: missing field/plucker headers")
    field = parse_field_header(lines[0])
    try:
        kv = dict(item.split("=", 1) for item in lines[1].lstrip("#").split()[1:])
        ell, m = int(kv["l"]), int(kv["m"])
    except (KeyError, ValueError) as exc:
        raise SpecParseError(f"{path}: bad plucker header") from exc
    ambient = len(enumerate_index_tuples(ell, m))
    points = []
    for line in lines[2:]:
        point = tuple(int(c) for c in line.split(","))
        if len(point) != ambient:
            raise SpecParseError(f"{path}: point of wrong length")
        field.check_elements(np.array(point))
        points.append(point)
    return ProjSystem(field, ambient, points, zeros(field, 0, ambient), ell=ell, m=m)
