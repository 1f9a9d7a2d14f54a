"""Linear sections of the Grassmannian as projective systems.

Covers Schubert varieties and their unions, coordinate-vanishing sections
(one vanishing Plücker coordinate per index tuple), the symplectic
contraction machinery with its coordinate-sum linear forms, Lagrangian and
isotropic Grassmannians, and Schubert sections of the Lagrangian
Grassmannian.  Every enumerated system carries the linear forms known to
vanish on it; ``verify_ffn`` checks that those forms span *all* linear
forms vanishing on the rational points.

Schubert membership is always computed twice, by Plücker-coordinate
vanishing and by intersection dimensions against the standard flag
span{e_1..e_t}; a disagreement raises immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import BudgetExceededError, SpecParseError
from .field import GF
from .grassmann import (
    DEFAULT_POINT_BUDGET,
    ProjSystem,
    iter_grassmann_cells,
    subspace_of_point,
)
from .indices import (
    IndexTuple,
    bruhat_leq,
    delete_pair,
    enumerate_index_tuples,
    format_tuple,
    gaussian_binomial,
    index_positions,
    parse_tuple,
    schubert_cell_dimension,
    validate_tuple,
)
from .linalg import Mat, intersect_row_spaces, vstack, zeros

SYMPLECTIC_KINDS = ("lagrangian", "isotropic", "lag-schubert", "lag-union")
ALL_KINDS = ("grassmann", "schubert", "union", "elambda") + SYMPLECTIC_KINDS


@dataclass(frozen=True)
class VarietySpec:
    """Which linear section to build; tuples are sorted and deduplicated."""

    kind: str
    ell: int
    m: int
    tuples: tuple[IndexTuple, ...] = ()

    @property
    def n(self) -> int:
        """Half-dimension of the symplectic space (kinds with m = 2n)."""
        return self.m // 2

    def serialize(self) -> str:
        lams = ";".join(format_tuple(t) for t in self.tuples)
        if self.kind == "grassmann":
            return f"grassmann:{self.ell},{self.m}"
        if self.kind in ("schubert", "union", "elambda"):
            return f"{self.kind}:{self.ell},{self.m}:{lams}"
        if self.kind == "lagrangian":
            return f"lagrangian:{self.n}"
        if self.kind == "isotropic":
            return f"isotropic:{self.ell},{self.n}"
        if self.kind == "lag-schubert":
            return f"lag-schubert:{self.n}:{lams}"
        if self.kind == "lag-union":
            return f"lag-union:{self.n}:{lams}"
        raise ValueError(f"unknown kind {self.kind!r}")


def make_spec(kind: str, ell: int, m: int, tuples=()) -> VarietySpec:
    if kind not in ALL_KINDS:
        raise SpecParseError(f"unknown variety kind {kind!r}")
    if not 1 <= ell <= m:
        raise SpecParseError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    if kind in SYMPLECTIC_KINDS and m % 2:
        raise SpecParseError(f"{kind} needs an even ambient dimension, got m={m}")
    if kind in ("lagrangian", "lag-schubert", "lag-union") and ell != m // 2:
        raise SpecParseError(f"{kind} needs ell = m/2")
    tuples = tuple(sorted({validate_tuple(t, ell, m) for t in tuples}))
    if kind in ("schubert", "union", "elambda", "lag-schubert", "lag-union") and not tuples:
        raise SpecParseError(f"{kind} needs at least one index tuple")
    if kind in ("schubert", "lag-schubert") and len(tuples) != 1:
        raise SpecParseError(f"{kind} takes exactly one index tuple")
    return VarietySpec(kind, ell, m, tuples)


def parse_variety_spec(text: str) -> VarietySpec:
    parts = text.strip().split(":")
    kind = parts[0]
    try:
        if kind == "grassmann" and len(parts) == 2:
            ell, m = (int(x) for x in parts[1].split(","))
            return make_spec(kind, ell, m)
        if kind in ("schubert", "union", "elambda") and len(parts) == 3:
            ell, m = (int(x) for x in parts[1].split(","))
            tuples = [parse_tuple(t) for t in parts[2].split(";")]
            return make_spec(kind, ell, m, tuples)
        if kind == "lagrangian" and len(parts) == 2:
            n = int(parts[1])
            return make_spec(kind, n, 2 * n)
        if kind == "isotropic" and len(parts) == 2:
            ell, n = (int(x) for x in parts[1].split(","))
            return make_spec(kind, ell, 2 * n)
        if kind in ("lag-schubert", "lag-union") and len(parts) == 3:
            n = int(parts[1])
            tuples = [parse_tuple(t) for t in parts[2].split(";")]
            return make_spec(kind, n, 2 * n, tuples)
    except (ValueError, SpecParseError) as exc:
        raise SpecParseError(f"bad variety spec {text!r}: {exc}") from exc
    raise SpecParseError(f"bad variety spec {text!r}")


# -- symplectic machinery -----------------------------------------------------


@dataclass(frozen=True)
class SymplecticForm:
    n: int
    field: GF
    gram: Mat


def symplectic_form(n: int, field: GF) -> SymplecticForm:
    """Standard form: <e_i, e_{2n-i+1}> = 1 for i <= n, skew below the antidiagonal."""
    m = 2 * n
    gram = np.zeros((m, m), dtype=np.int64)
    for i in range(1, n + 1):
        gram[i - 1, m - i] = 1
        gram[m - i, i - 1] = field.from_int(-1)
    return SymplecticForm(n, field, Mat(field, gram))


def is_isotropic(basis: Mat, form: SymplecticForm) -> bool:
    """True iff basis . gram . basis^T = 0."""
    if basis.cols != form.gram.rows:
        raise ValueError("basis width does not match the form")
    prod_ = basis.field.matmul(basis.field.matmul(basis.a, form.gram.a), basis.a.T)
    return not prod_.any()


def _isotropic_mask(field: GF, bases: np.ndarray, form: SymplecticForm) -> np.ndarray:
    bg = field.matmul(bases, form.gram.a)
    bgb = field.matmul(bg, np.swapaxes(bases, 1, 2))
    return ~bgb.any(axis=(1, 2))


def contraction_matrix(n: int, field: GF, ell: int | None = None) -> Mat:
    """Matrix of the symplectic contraction from l-vectors to (l-2)-vectors.

    Columns are indexed by I(l, 2n), rows by I(l-2, 2n), both lexicographic.
    The entry for deleting the pair at positions (r, s) carries the sign
    (-1)^(r+s-1) of moving that pair to the front.
    """
    if ell is None:
        ell = n
    if ell < 2:
        raise ValueError(f"contraction needs ell >= 2, got {ell}")
    m = 2 * n
    cols = enumerate_index_tuples(ell, m)
    row_pos = index_positions(ell - 2, m)
    a = np.zeros((len(row_pos), len(cols)), dtype=np.int64)
    for ci, alpha in enumerate(cols):
        for r in range(1, ell + 1):
            for s in range(r + 1, ell + 1):
                if alpha[r - 1] + alpha[s - 1] != m + 1:
                    continue
                ri = row_pos[delete_pair(alpha, r, s)]
                coeff = field.from_int(1 if (r + s - 1) % 2 == 0 else -1)
                a[ri, ci] = field.add(int(a[ri, ci]), coeff)
    return Mat(field, a)


def _sort_sign(seq) -> int:
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def pi_forms(n: int, field: GF) -> Mat:
    """Coordinate-sum forms cutting out the contraction kernel.

    One row per a_rs in I(n-2, 2n); the i-th summand lands on the sorted
    coordinate of (i, a_rs, 2n-i+1) when those n indices are distinct.  The
    coefficient is the sign of the sorting permutation of the written
    sequence, which is 1 for every term in characteristic 2.
    """
    if n < 2:
        raise ValueError(f"pi_forms needs n >= 2, got {n}")
    m = 2 * n
    rows = enumerate_index_tuples(n - 2, m)
    col_pos = index_positions(n, m)
    a = np.zeros((len(rows), len(col_pos)), dtype=np.int64)
    for ri, ars in enumerate(rows):
        for i in range(1, n + 1):
            seq = (i,) + ars + (m - i + 1,)
            if len(set(seq)) != n:
                continue
            coeff = field.from_int(_sort_sign(seq))
            ci = col_pos[tuple(sorted(seq))]
            a[ri, ci] = field.add(int(a[ri, ci]), coeff)
    return Mat(field, a)


# -- Schubert membership ------------------------------------------------------


def schubert_member_plucker(coords, lam: IndexTuple, ell: int, m: int) -> bool:
    """Vanishing of every coordinate whose index is not Bruhat-below lam."""
    pos = index_positions(ell, m)
    return all(
        coords[pos[beta]] == 0
        for beta in enumerate_index_tuples(ell, m)
        if not bruhat_leq(beta, lam)
    )


def schubert_member_flag(basis: Mat, lam: IndexTuple) -> bool:
    """Intersection-dimension conditions dim(W ∩ span{e_1..e_t}) >= i at t = lam_i."""
    ell = basis.rows
    for i, t in enumerate(lam, start=1):
        tail = Mat(basis.field, basis.a[:, t:])
        if ell - tail.rank() < i:
            return False
    return True


def bruhat_cell_of(basis: Mat) -> IndexTuple:
    """The cell index: positions where dim(W ∩ span{e_1..e_t}) jumps."""
    ell, m = basis.shape
    jumps = []
    prev = 0
    for t in range(1, m + 1):
        tail = Mat(basis.field, basis.a[:, t:])
        dim = ell - tail.rank()
        if dim > prev:
            jumps.append(t)
            prev = dim
    return tuple(jumps)


def _non_downset_positions(lams, ell: int, m: int) -> list[int]:
    pos = index_positions(ell, m)
    return [
        pos[beta]
        for beta in enumerate_index_tuples(ell, m)
        if not any(bruhat_leq(beta, lam) for lam in lams)
    ]


def _coordinate_forms(field: GF, positions, ambient: int) -> Mat:
    a = np.zeros((len(positions), ambient), dtype=np.int64)
    for r, c in enumerate(sorted(positions)):
        a[r, c] = 1
    return Mat(field, a)


# -- variety enumeration ------------------------------------------------------


def _defining_forms(spec: VarietySpec, field: GF) -> Mat:
    ambient = len(enumerate_index_tuples(spec.ell, spec.m))
    pos = index_positions(spec.ell, spec.m)
    if spec.kind == "grassmann":
        return zeros(field, 0, ambient)
    if spec.kind in ("schubert", "union"):
        return _coordinate_forms(field, _non_downset_positions(spec.tuples, spec.ell, spec.m), ambient)
    if spec.kind == "elambda":
        return _coordinate_forms(field, [pos[t] for t in spec.tuples], ambient)
    if spec.kind == "lagrangian":
        return pi_forms(spec.n, field)
    if spec.kind == "isotropic":
        if spec.ell < 2:
            return zeros(field, 0, ambient)
        return contraction_matrix(spec.n, field, spec.ell)
    if spec.kind == "lag-schubert":
        coord = _coordinate_forms(field, _non_downset_positions(spec.tuples, spec.ell, spec.m), ambient)
        return vstack([pi_forms(spec.n, field), coord])
    if spec.kind == "lag-union":
        pi = pi_forms(spec.n, field)
        inter = None
        for lam in spec.tuples:
            coord = _coordinate_forms(field, _non_downset_positions([lam], spec.ell, spec.m), ambient)
            member = vstack([pi, coord]).rref_basis()
            inter = member if inter is None else intersect_row_spaces(inter, member)
        return inter
    raise ValueError(f"unknown kind {spec.kind!r}")


def _schubert_mask(spec, field, bases, coords) -> np.ndarray:
    """Union-of-Schubert membership, double-checked per point and per cell."""
    pos = index_positions(spec.ell, spec.m)
    member = np.zeros(coords.shape[0], dtype=bool)
    for lam in spec.tuples:
        bad = _non_downset_positions([lam], spec.ell, spec.m)
        mask = ~coords[:, bad].any(axis=1) if bad else np.ones(coords.shape[0], dtype=bool)
        for i in range(coords.shape[0]):
            flag = schubert_member_flag(Mat(field, bases[i]), lam)
            if flag != bool(mask[i]):
                raise RuntimeError(
                    f"Schubert membership oracles disagree at lam={lam}, point {i}"
                )
        member |= mask
    return member


def enumerate_variety(
    spec: VarietySpec, field: GF, budget: int = DEFAULT_POINT_BUDGET
) -> ProjSystem:
    """Filter the Grassmannian point stream by the kind's membership predicate."""
    ell, m = spec.ell, spec.m
    upstream = gaussian_binomial(m, ell, field.q)
    if upstream > budget:
        raise BudgetExceededError(f"G({ell},{m})(F_{field.q}) point count", upstream, budget)
    form = symplectic_form(spec.n, field) if spec.kind in SYMPLECTIC_KINDS else None
    pos = index_positions(ell, m)
    points = []
    for _, bases, coords in iter_grassmann_cells(ell, m, field):
        if spec.kind == "grassmann":
            mask = np.ones(coords.shape[0], dtype=bool)
        elif spec.kind == "elambda":
            cols = [pos[t] for t in spec.tuples]
            mask = ~coords[:, cols].any(axis=1)
        elif spec.kind in ("schubert", "union"):
            mask = _schubert_mask(spec, field, bases, coords)
        elif spec.kind in ("lagrangian", "isotropic"):
            mask = _isotropic_mask(field, bases, form)
        elif spec.kind in ("lag-schubert", "lag-union"):
            mask = _isotropic_mask(field, bases, form)
            mask &= _schubert_mask(spec, field, bases, coords)
        else:
            raise ValueError(f"unknown kind {spec.kind!r}")
        points.extend(map(tuple, coords[mask].tolist()))
    system = ProjSystem(
        field,
        len(pos),
        points,
        _defining_forms(spec, field),
        ell=ell,
        m=m,
        source=spec,
    )
    system.validate()
    return system


# -- linear hull and the forms-vs-kernel check --------------------------------


def linear_hull(system: ProjSystem) -> tuple[int, Mat]:
    """Vector dimension of the span of the points, and the forms cutting it out."""
    if not system.points:
        raise ValueError("empty projective system has no hull")
    forms = system.point_matrix().left_kernel()
    return system.ambient_dim - forms.rows, forms


def verify_ffn(system: ProjSystem) -> bool:
    """True iff the declared forms span every linear form vanishing on the points."""
    if not system.points:
        raise ValueError("empty projective system")
    kernel = system.point_matrix().left_kernel()
    return np.array_equal(kernel.a, system.defining_forms.rref_basis().a)


# -- closed-form point counts -------------------------------------------------


def lagrangian_count(n: int, q: int) -> int:
    return prod(1 + q**i for i in range(1, n + 1))


def isotropic_count(ell: int, n: int, q: int) -> int:
    num = prod(q ** (2 * n - 2 * i) - 1 for i in range(ell))
    den = prod(q ** (i + 1) - 1 for i in range(ell))
    if num % den:
        raise RuntimeError(f"isotropic count {num}/{den} is not an integer")
    return num // den


def schubert_union_count(lams, m: int, q: int) -> int:
    """Cell sum over the union of the Bruhat down-sets of the given tuples."""
    lams = [tuple(lam) for lam in lams]
    ell = len(lams[0])
    cells = {
        beta
        for beta in enumerate_index_tuples(ell, m)
        if any(bruhat_leq(beta, lam) for lam in lams)
    }
    return sum(q ** schubert_cell_dimension(beta) for beta in cells)


def schubert_count(lam, m: int, q: int) -> int:
    return schubert_union_count([lam], m, q)


def cell_histogram(system: ProjSystem) -> dict[IndexTuple, int]:
    """Point count of each Bruhat cell met by the system."""
    out: dict[IndexTuple, int] = {}
    for point in system.points:
        basis = subspace_of_point(point, system.ell, system.m, system.field)
        gamma = bruhat_cell_of(basis)
        out[gamma] = out.get(gamma, 0) + 1
    return dict(sorted(out.items()))


def combinatorial_dimension(system: ProjSystem) -> int:
    """Largest e with q^e points in one cell; every cell count must be a q power."""
    q = system.field.q
    best = 0
    for gamma, count in cell_histogram(system).items():
        e = 0
        c = count
        while c % q == 0:
            c //= q
            e += 1
        if c != 1:
            raise ValueError(f"cell {gamma} holds {count} points, not a power of q={q}")
        best = max(best, e)
    return best
