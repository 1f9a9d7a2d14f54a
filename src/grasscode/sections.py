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
one ``(bases, coords, memo)`` batch of the Grassmannian stream at a time
with array masks.  Given a ``store`` (``bounds.run_suite`` passes one per
visit to a Grassmannian), the stream of G(l, m) is generated once, kept
as blocks of up to 2048 candidates that may span cells, and replayed for
every later spec on it, through the same generator and the same filter.

Every kind is a linear section, so one rule decides membership: a point
is kept iff every form of ``_defining_forms`` vanishes on its Plücker
vector.  A kind with no forms (``grassmann``, ``isotropic:1,n``,
``lagrangian:1``) keeps every point with no product taken.  The stream
has no repeated point, because ``grassmann`` reads each generated batch
back from its coordinates, so a filtered set has none either.  The bases
check that rule on every batch, in arithmetic that uses no minor: the
symplectic kinds by the Gram test B J B^T = 0, the Schubert kinds
(``schubert``, ``union``, ``lag-*``) by the flag condition
dim(W ∩ span{e_1..e_t}) >= i at t = lam_i for some lam, read off the jump
positions that ``flag_cells`` finds by elimination on the bases.  Those
positions and the Gram mask depend on the batch alone, so each is
computed at most once per batch, also across the specs replaying it.  A
disagreement raises immediately.
"""

from __future__ import annotations

import sys
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


def contraction_matrix(n: int, field: GF, ell: int) -> Mat:
    """Matrix of the symplectic contraction from l-vectors to (l-2)-vectors.

    Columns are indexed by I(l, 2n), rows by I(l-2, 2n), both lexicographic.
    The entry for deleting the pair at positions (r, s) carries the sign
    (-1)^(r+s-1) of moving that pair to the front.
    """
    if ell < 2:
        raise ValueError(f"contraction needs ell >= 2, got {ell}")
    m = 2 * n
    cols = enumerate_index_tuples(ell, m)
    row_pos = index_positions(ell - 2, m)
    a = np.zeros((len(row_pos), len(cols)), dtype=field.dtype)
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
    a = np.zeros((len(rows), len(col_pos)), dtype=field.dtype)
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
    a = np.zeros((len(positions), ambient), dtype=field.dtype)
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


def _oracle(spec: VarietySpec, field: GF, bases: np.ndarray, memo: dict) -> np.ndarray | None:
    """Membership read off the bases alone, never the minors; None for kinds with no such test.

    The Gram mask and the flag cells depend on the batch alone, not on the
    kind or λ, so each is computed on first use and kept in the batch's memo.
    """
    mask = None
    if spec.kind in ("lagrangian", "isotropic", "lag-schubert", "lag-union"):
        if "gram" not in memo:
            memo["gram"] = _isotropic_mask(field, bases)
        mask = memo["gram"]
    if spec.kind in ("schubert", "union", "lag-schubert", "lag-union"):
        if "flag" not in memo:
            memo["flag"] = flag_cells(field, bases)
        lams = np.array(spec.tuples)[:, None]
        flag = (memo["flag"][None] <= lams).all(axis=2).any(axis=0)
        mask = flag if mask is None else mask & flag
    return mask


def _kept(spec: VarietySpec, field: GF, forms: Mat, store: dict | None):
    """The points of each batch of the Grassmannian stream on which every form vanishes.

    The kind's oracle on the bases must agree on every candidate, replayed
    blocks of a ``store`` included.  A block may span cells, so a
    disagreement names the cell of the first basis it is found on, by the
    pivot columns of that canonical basis.
    """
    for bases, coords, memo in iter_grassmann_cells(spec.ell, spec.m, field, store=store):
        # None keeps every candidate: with no forms the product would only cast the batch
        mask = ~field.matmul(coords, forms.a.T).any(axis=1) if forms.rows else None
        oracle = _oracle(spec, field, bases, memo)
        if oracle is not None:
            wrong = np.flatnonzero(~oracle if mask is None else mask != oracle)
            if wrong.size:
                cell = tuple(int(np.flatnonzero(row)[0]) + 1 for row in bases[wrong[0]])
                raise RuntimeError(
                    f"{spec.kind} membership oracles disagree in cell {cell}, point {wrong[0]}"
                )
        yield coords if mask is None else coords[mask]


def budget_grassmannian(ell: int, m: int, field: GF, budget: int) -> int:
    """[m, l]_q, the candidates of G(l, m) over field; raises BudgetExceededError over the point budget."""
    what = f"G({ell},{m})(F_{field.q}) point count"
    # [m, l]_q >= q^(l(m-l)) >= 2^B, so B >= budget.bit_length() is over the
    # budget.  A 2^B with more digits than str() allows would print as "at
    # least 2^B" anyway, so it is refused by B alone, before 2^B or the
    # exact count is built: for a huge m neither could be
    bits = ell * (m - ell) * (field.q.bit_length() - 1)
    if bits >= budget.bit_length():
        digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if bits >= (10**digits).bit_length():
            raise BudgetExceededError(what, f"at least 2^{bits}", budget)
    upstream = gaussian_binomial(m, ell, field.q)
    if upstream > budget:
        raise BudgetExceededError(what, upstream, budget)
    return upstream


def enumerate_variety(
    spec: VarietySpec, field: GF, budget: int = DEFAULT_POINT_BUDGET, store: dict | None = None
) -> ProjSystem:
    """Filter the Grassmannian point stream by the vanishing of the kind's forms.

    ``store`` is handed to ``iter_grassmann_cells``: specs on the same
    G(l, m) over ``field`` then share one generated list of blocks.  The
    budget is checked first, so a refused spec builds and stores nothing.
    """
    ell, m = spec.ell, spec.m
    upstream = budget_grassmannian(ell, m, field, budget)
    ambient = len(enumerate_index_tuples(ell, m))
    forms = _defining_forms(spec, field)
    return ProjSystem(
        field,
        ambient,
        stack_rows(_kept(spec, field, forms, store), upstream, ambient, field.dtype),
        forms,
        ell=ell,
        m=m,
        source=spec,
    )


# -- linear hull and the forms-vs-kernel check --------------------------------


def linear_hull(system: ProjSystem) -> tuple[int, Mat]:
    """Vector dimension of the span of the points, and the forms cutting it out."""
    if not len(system):
        raise ValueError("empty projective system has no hull")
    forms = system.point_matrix().left_kernel()
    return system.ambient_dim - forms.rows, forms


def verify_ffn(system: ProjSystem) -> bool:
    """True iff the declared forms span every linear form vanishing on the points."""
    _, forms = linear_hull(system)
    return np.array_equal(forms.a, system.defining_forms.rref_basis().a)


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
