"""Linear sections of the Grassmannian as projective systems.

Covers Schubert varieties and their unions, coordinate-vanishing sections
(one vanishing Plücker coordinate per index tuple), the symplectic
contraction machinery with its coordinate-sum linear forms, Lagrangian and
isotropic Grassmannians, and Schubert sections of the Lagrangian
Grassmannian.  Every enumerated system carries the linear forms known to
vanish on it; ``verify_ffn`` checks that those forms span *all* linear
forms vanishing on the rational points.

Each kind is stated here once: ``KINDS`` gives the shape of its spec
text, which ``parse_variety_spec``, ``VarietySpec.serialize`` and
``make_spec`` all read, and ``closed_form_count`` gives its closed-form
point count where the kind has one.

Point sets are the (N, K) arrays of ``grassmann.ProjSystem``, filtered
one batch of the Grassmannian stream at a time with array masks.

Every kind is a linear section, so one rule decides membership: a point
is kept iff every form of ``_defining_forms`` vanishes on its Plücker
vector (``grassmann`` has no forms and keeps every point).  The bases
check that rule on every batch, in arithmetic that uses no minor: the
symplectic kinds by the Gram test B J B^T = 0, the Schubert kinds
(``schubert``, ``union``, ``lag-*``) by the flag condition
dim(W ∩ span{e_1..e_t}) >= i at t = lam_i for some lam, read off the jump
positions that ``flag_cells`` finds by elimination on the bases.  A
disagreement raises immediately.  A point's Bruhat cell is the lex-last
index in the support of its Plücker vector (Fulton, *Young Tableaux*,
ch. 9), which is how ``cell_histogram`` counts cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import BudgetExceededError, SpecParseError
from .field import GF
from .grassmann import DEFAULT_POINT_BUDGET, ProjSystem, iter_grassmann_cells, stack_rows
from .indices import (
    IndexTuple,
    delete_pair,
    downset,
    enumerate_index_tuples,
    format_tuple,
    gaussian_binomial,
    index_positions,
    is_close_family,
    parse_tuple,
    schubert_cell_dimension,
    validate_tuple,
)
from .linalg import Mat, intersect_row_spaces, vstack, zeros

# The spec text of each kind is "kind:HEAD" or "kind:HEAD:TUPLES".  HEAD
# gives the Grassmannian: "{l},{m}" for G(l, m), "{n}" for G(n, 2n), "{l},{n}"
# for G(l, 2n).  TUPLES, ';'-separated index tuples, are absent ("none"),
# exactly one ("one") or one or more ("some").
KINDS = {
    "grassmann": ("{l},{m}", "none"),
    "schubert": ("{l},{m}", "one"),
    "union": ("{l},{m}", "some"),
    "elambda": ("{l},{m}", "some"),
    "lagrangian": ("{n}", "none"),
    "isotropic": ("{l},{n}", "none"),
    "lag-schubert": ("{n}", "one"),
    "lag-union": ("{n}", "some"),
}


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
        head, rule = KINDS[self.kind]
        text = f"{self.kind}:" + head.format(l=self.ell, m=self.m, n=self.n)
        if rule == "none":
            return text
        return text + ":" + ";".join(format_tuple(t) for t in self.tuples)


def make_spec(kind: str, ell: int, m: int, tuples=()) -> VarietySpec:
    if kind not in KINDS:
        raise SpecParseError(f"unknown variety kind {kind!r}")
    head, rule = KINDS[kind]
    if not 1 <= ell <= m:
        raise SpecParseError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    if head != "{l},{m}" and m % 2:
        raise SpecParseError(f"{kind} needs an even ambient dimension, got m={m}")
    if head == "{n}" and ell != m // 2:
        raise SpecParseError(f"{kind} needs ell = m/2")
    tuples = tuple(sorted({validate_tuple(t, ell, m) for t in tuples}))
    if rule == "none" and tuples:
        raise SpecParseError(f"{kind} takes no index tuples")
    if rule != "none" and not tuples:
        raise SpecParseError(f"{kind} needs at least one index tuple")
    if rule == "one" and len(tuples) != 1:
        raise SpecParseError(f"{kind} takes exactly one index tuple")
    return VarietySpec(kind, ell, m, tuples)


def parse_variety_spec(text: str) -> VarietySpec:
    parts = text.strip().split(":")
    kind = parts[0]
    try:
        if kind in KINDS and len(parts) == 2 + (KINDS[kind][1] != "none"):
            head = KINDS[kind][0]
            if head == "{n}":
                ell = b = int(parts[1])
            else:
                ell, b = (int(x) for x in parts[1].split(","))
            m = b if head == "{l},{m}" else 2 * b
            tuples = [parse_tuple(t) for t in parts[2].split(";")] if len(parts) == 3 else ()
            return make_spec(kind, ell, m, tuples)
    except (ValueError, SpecParseError) as exc:
        raise SpecParseError(f"bad variety spec {text!r}: {exc}") from exc
    raise SpecParseError(f"bad variety spec {text!r}")


# -- symplectic machinery -----------------------------------------------------


def _isotropic_mask(field: GF, bases: np.ndarray) -> np.ndarray:
    """Which bases of an (N, l, 2n) stack span isotropic subspaces: B J B^T = 0.

    The standard form pairs e_i with e_{2n+1-i}, +1 for i <= n and -1
    below the antidiagonal, so B J is B with its columns reversed and its
    first n columns negated.
    """
    bj = bases[..., ::-1].copy()
    n = bj.shape[-1] // 2
    bj[..., :n] = field.sub_arr(0, bj[..., :n])
    return ~field.matmul(bj, np.swapaxes(bases, 1, 2)).any(axis=(1, 2))


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
    sequence, which is 1 for every term in characteristic 2.  For n = 1
    there are no forms: every line of a symplectic plane is Lagrangian.
    """
    m = 2 * n
    rows = enumerate_index_tuples(n - 2, m) if n >= 2 else ()
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


def flag_cells(field: GF, bases: np.ndarray) -> np.ndarray:
    """(N, l) positions t where dim(W ∩ span{e_1..e_t}) jumps, for an (N, l, m) stack of bases.

    Fraction-free elimination from the last column: the first row still
    free with a nonzero entry in column c becomes that column's pivot and
    clears column c from the other free rows.  Free rows stay zero right
    of the current column, so the pivot columns are the last nonzero
    columns of an echelon basis, and W ∩ span{e_1..e_t} is spanned by
    the rows whose pivot is at most t.
    """
    a = np.array(bases)
    n, ell, m = a.shape
    rows = np.arange(n)
    free = np.ones((n, ell), dtype=bool)
    pivot = np.zeros((n, m), dtype=bool)
    for c in range(m - 1, -1, -1):
        col = a[:, :, c]
        cand = free & (col != 0)
        found = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        scale = np.where(found, col[rows, piv], 1)
        # row <- scale * row - row[c] * pivot row; free rows with row[c] = 0 only scale
        a = field.sub_arr(
            field.mul_arr(scale[:, None, None], a),
            field.mul_arr(col[:, :, None], a[rows, piv][:, None, :]),
        )
        free[rows[found], piv[found]] = False
        pivot[:, c] = found
    if (pivot.sum(axis=1) != ell).any():
        raise ValueError("basis rows are linearly dependent")
    return np.nonzero(pivot)[1].reshape(n, ell) + 1


def _non_downset_positions(lams, ell: int, m: int) -> list[int]:
    below = {beta for lam in lams for beta in downset(lam, m)}
    return [i for i, beta in enumerate(enumerate_index_tuples(ell, m)) if beta not in below]


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
    if spec.kind in ("lag-schubert", "lag-union"):
        pi = pi_forms(spec.n, field)
        inter = None
        for lam in spec.tuples:
            coord = _coordinate_forms(field, _non_downset_positions([lam], spec.ell, spec.m), ambient)
            member = vstack([pi, coord]).rref_basis()
            inter = member if inter is None else intersect_row_spaces(inter, member)
        return inter
    raise ValueError(f"unknown kind {spec.kind!r}")


def _oracle(spec: VarietySpec, field: GF, bases: np.ndarray) -> np.ndarray | None:
    """Membership read off the bases alone, never the minors; None for kinds with no such test."""
    mask = None
    if spec.kind in ("lagrangian", "isotropic", "lag-schubert", "lag-union"):
        mask = _isotropic_mask(field, bases)
    if spec.kind in ("schubert", "union", "lag-schubert", "lag-union"):
        lams = np.array(spec.tuples)[:, None]
        flag = (flag_cells(field, bases)[None] <= lams).all(axis=2).any(axis=0)
        mask = flag if mask is None else mask & flag
    return mask


def _kept(spec: VarietySpec, field: GF, forms: Mat):
    """The points of each batch of the Grassmannian stream on which every form vanishes.

    The kind's oracle on the bases must agree on every candidate.
    """
    for pivots, bases, coords in iter_grassmann_cells(spec.ell, spec.m, field):
        mask = ~field.matmul(coords, forms.a.T).any(axis=1)
        oracle = _oracle(spec, field, bases)
        if oracle is not None:
            wrong = np.flatnonzero(mask != oracle)
            if wrong.size:
                raise RuntimeError(
                    f"{spec.kind} membership oracles disagree in cell {pivots}, point {wrong[0]}"
                )
        yield coords[mask]


def enumerate_variety(
    spec: VarietySpec, field: GF, budget: int = DEFAULT_POINT_BUDGET
) -> ProjSystem:
    """Filter the Grassmannian point stream by the vanishing of the kind's forms."""
    ell, m = spec.ell, spec.m
    upstream = gaussian_binomial(m, ell, field.q)
    if upstream > budget:
        raise BudgetExceededError(f"G({ell},{m})(F_{field.q}) point count", upstream, budget)
    ambient = len(enumerate_index_tuples(ell, m))
    forms = _defining_forms(spec, field)
    system = ProjSystem(
        field,
        ambient,
        stack_rows(_kept(spec, field, forms), upstream, ambient),
        forms,
        ell=ell,
        m=m,
        source=spec,
    )
    system.validate()
    return system


# -- linear hull and the forms-vs-kernel check --------------------------------


def linear_hull(system: ProjSystem) -> tuple[int, Mat]:
    """Vector dimension of the span of the points, and the forms cutting it out."""
    if not len(system):
        raise ValueError("empty projective system has no hull")
    forms = system.point_matrix().left_kernel()
    return system.ambient_dim - forms.rows, forms


def verify_ffn(system: ProjSystem) -> bool:
    """True iff the declared forms span every linear form vanishing on the points."""
    if not len(system):
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
    cells = {beta for lam in lams for beta in downset(tuple(lam), m)}
    return sum(q ** schubert_cell_dimension(beta) for beta in cells)


def schubert_count(lam, m: int, q: int) -> int:
    return schubert_union_count([lam], m, q)


def elambda_length_formula(ell: int, m: int, q: int, r: int) -> int:
    """Gaussian binomial minus the top r powers of q (close coordinate families)."""
    delta = ell * (m - ell)
    if not 1 <= r <= delta + 1:
        raise ValueError(f"need 1 <= r <= delta+1={delta + 1}, got r={r}")
    return gaussian_binomial(m, ell, q) - sum(q ** (delta - i) for i in range(r))


def closed_form_count(spec: VarietySpec, q: int) -> tuple[int | None, dict]:
    """Closed-form point count if one is stated for the kind, plus extras."""
    if spec.kind == "grassmann":
        return gaussian_binomial(spec.m, spec.ell, q), {}
    if spec.kind in ("schubert", "union"):
        return schubert_union_count(spec.tuples, spec.m, q), {}
    if spec.kind == "elambda":
        if is_close_family(spec.tuples):
            return elambda_length_formula(spec.ell, spec.m, q, len(spec.tuples)), {}
        return None, {}
    if spec.kind == "lagrangian":
        return lagrangian_count(spec.n, q), {}
    if spec.kind == "isotropic":
        return isotropic_count(spec.ell, spec.n, q), {}
    if spec.kind in ("lag-schubert", "lag-union"):
        # no trusted closed form; the Schubert cell sum is reported for comparison only
        return None, {"cellsum": schubert_union_count(spec.tuples, spec.m, q)}
    raise ValueError(f"unknown kind {spec.kind!r}")


def cell_histogram(system: ProjSystem) -> dict[IndexTuple, int]:
    """Point count of each Bruhat cell met by the system.

    A point's cell is the index of its last nonzero Plücker coordinate;
    positions ascend with the lexicographic index order.
    """
    last = system.ambient_dim - 1 - (system.points[:, ::-1] != 0).argmax(axis=1)
    positions, counts = np.unique(last, return_counts=True)
    tuples = enumerate_index_tuples(system.ell, system.m)
    return {tuples[p]: c for p, c in zip(positions.tolist(), counts.tolist())}


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
