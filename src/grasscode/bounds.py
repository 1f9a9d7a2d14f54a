"""Exact verification of every closed-form count, formula, and inequality.

Each check produces a BoundReport with integer sides and a literal
pass/fail; nothing is assumed.  Claims whose literal range is wider than
what their derivation supports are marked disputed so a literal failure is
flagged instead of failing a verification run.

``run_suite`` works one field at a time.  It keeps the field's
enumerated systems by spec string, one ``store`` of G(l, m) batches that
every spec on that Grassmannian filters (``sections.enumerate_variety``),
and each G(l, m) code with its d_r, which the Grassmann and the
Lagrangian claims share.  All of it is dropped before the next field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .codes import DEFAULT_SCAN_BUDGET, build_code, higher_weight, min_distance
from .errors import BudgetExceededError
from .field import GF
from .grassmann import DEFAULT_POINT_BUDGET
from .indices import (
    enumerate_index_tuples,
    format_tuple,
    gaussian_binomial,
    index_positions,
    is_close_family,
    schubert_cell_dimension,
)
from .sections import (
    VarietySpec,
    combinatorial_dimension,
    elambda_length_formula,
    enumerate_variety,
    isotropic_count,
    lagrangian_count,
    linear_hull,
    make_spec,
    parse_variety_spec,
    schubert_count,
    schubert_union_count,
    verify_ffn,
)

_RELATIONS = {
    "==": lambda a, b: a == b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
}


@dataclass
class BoundReport:
    claim: str
    params: dict
    lhs: int | None
    rhs: int | None
    relation: str
    holds: bool | None
    citation: str
    disputed: bool = False
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "holds": self.holds,
            "citation": self.citation,
        }
        if self.disputed:
            out["disputed"] = True
        if self.note:
            out["note"] = self.note
        return out


def _report(claim, params, lhs, rhs, relation, citation, disputed=False, note=""):
    holds = None
    if lhs is not None and rhs is not None:
        holds = _RELATIONS[relation](lhs, rhs)
    return BoundReport(claim, params, lhs, rhs, relation, holds, citation, disputed, note)


def _unevaluated(claim, params, relation, citation, note):
    return _report(claim, params, None, None, relation, citation, note=note)


def _scanned(scan):
    """scan(), or None when codes refuses it as over the scan budget."""
    try:
        return scan()
    except BudgetExceededError:
        return None


# -- closed forms ---------------------------------------------------------------


def grassmann_dr_formula(ell: int, m: int, q: int, r: int) -> int:
    """q^delta + ... + q^(delta-r+1) with delta = ell(m - ell)."""
    delta = ell * (m - ell)
    if not 1 <= r <= delta + 1:
        raise ValueError(f"need 1 <= r <= delta+1={delta + 1}, got r={r}")
    return sum(q ** (delta - i) for i in range(r))


def dr_equality_max(ell: int, m: int) -> int:
    """Largest r for which the higher-weight formula is an equality."""
    return max(ell, m - ell + 1)


# -- individual checks -----------------------------------------------------------


def lagrangian_dr_sandwich(
    n: int, q: int, r: int, *, L: int, G: int, dim_v: int, d_r_L: int, d_rp_G: int
) -> list[BoundReport]:
    """Two-sided bound on d_r of the Lagrangian code from exhaustive inputs.

    L and G are the Lagrangian and Grassmann point counts, dim_v the
    dimension of the Lagrangian's linear hull, and d_rp_G is d_{r'} of the
    ambient Grassmann code at r' = C(2n,n) - dim_v + r.
    """
    rprime = comb(2 * n, n) - dim_v + r
    params = {"n": n, "q": q, "r": r, "rprime": rprime}
    cite = "two-sided bound on Lagrangian higher weights via ambient Grassmann sections"
    return [
        _report(
            f"lagrangian-sandwich-lower[n={n},q={q},r={r}]",
            params,
            L - G + d_rp_G,
            d_r_L,
            "<=",
            cite,
        ),
        _report(
            f"lagrangian-sandwich-upper[n={n},q={q},r={r}]",
            params,
            d_r_L,
            L - dim_v + r,
            "<=",
            cite + " (generalized Singleton)",
        ),
    ]


def grassmann_dr_cap_check(n: int, q: int, r: int, dr_value: int, counts: dict) -> BoundReport:
    """d_r(C(n,2n)) <= |G| - |L|; derivation-supported only for r <= C(2n,n) - dimV."""
    cap = counts["G"] - counts["L"]
    supported = r <= comb(2 * n, n) - counts["dimV"]
    return _report(
        f"grassmann-dr-cap[n={n},q={q},r={r}]",
        {"n": n, "q": q, "r": r, "derivation_supported": supported},
        dr_value,
        cap,
        "<=",
        "Grassmann higher weights capped by the Grassmann/Lagrangian count gap",
        disputed=not supported,
        note="" if supported else "literal claim outside the derivation-supported range",
    )


def close_family_section_bound(n: int, field: GF, lam_set, variety) -> BoundReport:
    """Points of the Lagrangian with all family coordinates zero, vs. the count bound.

    variety maps a spec string to its enumerated system over field.
    """
    lam_set = tuple(sorted({tuple(t) for t in lam_set}))
    if not is_close_family(lam_set):
        raise ValueError(f"{lam_set} is not a close family")
    q = field.q
    k = len(lam_set)
    system = variety(make_spec("lagrangian", n, 2 * n).serialize())
    pos = index_positions(n, 2 * n)
    cols = [pos[t] for t in lam_set]
    count = int((~system.points[:, cols].any(axis=1)).sum())
    bound = gaussian_binomial(2 * n, n, q) - sum(q ** (n * n - i) for i in range(k))
    lams = "|".join(format_tuple(t) for t in lam_set)
    return _report(
        f"close-family-section[n={n},q={q},fam={lams}]",
        {"n": n, "q": q, "family": [format_tuple(t) for t in lam_set]},
        count,
        bound,
        "<=",
        "count bound for Lagrangian points on a close coordinate section",
    )


def section_code_params_check(
    ell: int,
    m: int,
    field: GF,
    lam_set,
    variety,
) -> list[BoundReport]:
    """Length formula and dimension check for a coordinate-vanishing section code.

    variety maps a spec string to its enumerated system over field.
    """
    lam_set = tuple(sorted({tuple(t) for t in lam_set}))
    if not lam_set:
        raise ValueError("need at least one index tuple")
    q = field.q
    spec = make_spec("elambda", ell, m, lam_set)
    system = variety(spec.serialize())
    lams = "|".join(format_tuple(t) for t in lam_set)
    close = is_close_family(lam_set)
    params = {
        "l": ell,
        "m": m,
        "q": q,
        "family": [format_tuple(t) for t in lam_set],
        "close": close,
    }
    if not len(system):
        return [
            _unevaluated(
                f"elambda-length[l={ell},m={m},q={q},fam={lams}]",
                params,
                "==",
                "linear-section code length formula",
                "degenerate: empty section",
            )
        ]
    reports = []
    r = len(lam_set)
    if r >= 2:
        reports.append(
            _report(
                f"elambda-length[l={ell},m={m},q={q},fam={lams}]",
                params,
                len(system.points),
                elambda_length_formula(ell, m, q, r),
                "==",
                "linear-section code length formula",
                disputed=not close,
                note="" if close else "formula presupposes a close family",
            )
        )
    code = build_code(system)
    reports.append(
        _report(
            f"elambda-dimension[l={ell},m={m},q={q},fam={lams}]",
            params,
            code.k,
            comb(m, ell) - system.defining_forms.rank(),
            "==",
            "code dimension = ambient dimension minus rank of the coordinate forms",
        )
    )
    return reports


def mindist_bound_checks(system, d: int) -> list[BoundReport]:
    """The minimum distance d of the system's code against the bound stated for its kind."""
    spec = system.source
    if not isinstance(spec, VarietySpec):
        raise ValueError(f"unknown provenance {spec!r}")
    if spec.kind == "isotropic":
        return []
    if spec.kind == "grassmann":
        relation, expo = "==", spec.ell * (spec.m - spec.ell)
        cite = "Grassmann code distance q^delta"
    elif spec.kind in ("schubert", "union"):
        relation, expo = "<=", max(schubert_cell_dimension(lam) for lam in spec.tuples)
        cite = "distance bounded by q^dim of the Schubert union"
    elif spec.kind == "lagrangian":
        relation, expo = "<", spec.n * (spec.n + 1) // 2
        cite = "Lagrangian code distance strictly below q^(n(n+1)/2)"
    elif spec.kind in ("lag-schubert", "lag-union"):
        relation, expo = "<=", combinatorial_dimension(system)
        cite = "distance bounded by q^dim of the Lagrangian Schubert section"
    else:
        raise ValueError(f"unknown provenance kind {spec.kind!r}")
    q, tag = system.field.q, spec.serialize()
    params = {"spec": tag, "q": q, "d": d}
    return [_report(f"mindist[{tag},q={q}]", params, d, q**expo, relation, cite)]


# -- the full verification suite --------------------------------------------------


def _bool_report(claim, params, value: bool, citation, note=""):
    return _report(claim, params, 1 if value else 0, 1, "==", citation, note=note)


def _close_families(ell: int, m: int, max_size: int = 3):
    tuples = enumerate_index_tuples(ell, m)
    families = (fam for size in range(1, max_size + 1) for fam in combinations(tuples, size))
    return [fam for fam in families if is_close_family(fam)]


def run_suite(
    fields,
    grassmann_pairs=(),
    lagrangian_ns=(),
    budget_points: int = DEFAULT_POINT_BUDGET,
    budget_scans: int = DEFAULT_SCAN_BUDGET,
) -> list[BoundReport]:
    """Every desk-scale claim for the requested grid of fields, sorted by claim id.

    Per field, each spec is enumerated once, every spec on one G(l, m)
    filters one stored stream of its batches, and each G(l, m) code and
    its d_r are computed once.  A pair's batches and code are dropped
    after its claims unless a Lagrangian claim reads that G(l, m) again.
    """
    reports: list[BoundReport] = []
    # the Grassmannians G(l, 2n), l <= n, that the Lagrangian claims read again
    lagrangian_reads = {(ell, 2 * n) for n in lagrangian_ns for ell in range(1, n + 1)}
    for field in fields:
        store: dict = {}
        systems: dict[str, object] = {}
        codes: dict[tuple[int, int], object] = {}
        drs: dict[tuple[int, int, int], int | None] = {}

        def variety(spec_str: str):
            if spec_str not in systems:
                systems[spec_str] = enumerate_variety(
                    parse_variety_spec(spec_str), field, budget_points, store
                )
            return systems[spec_str]

        def grassmann_dr(ell: int, m: int, r: int) -> int | None:
            """d_r of the G(l, m) code; None when r > k or the scan is over budget."""
            if (ell, m, r) not in drs:
                if (ell, m) not in codes:
                    codes[ell, m] = build_code(variety(f"grassmann:{ell},{m}"))
                code = codes[ell, m]
                drs[ell, m, r] = (
                    _scanned(lambda: higher_weight(code, r, budget=budget_scans)) if r <= code.k else None
                )
            return drs[ell, m, r]

        for ell, m in grassmann_pairs:
            reports.extend(_grassmann_claims(field, ell, m, variety, grassmann_dr))
            if (ell, m) not in lagrangian_reads:
                # free the batches and the r = 1 tables of G(l, m) now, so the
                # peak holds one pair's, not the whole grid's
                store.pop((ell, m), None)
                codes.pop((ell, m), None)
        for n in lagrangian_ns:
            reports.extend(_lagrangian_claims(field, n, variety, grassmann_dr, budget_scans))
    reports.sort(key=lambda rep: rep.claim)
    return reports


def _grassmann_claims(field, ell, m, variety, grassmann_dr):
    q = field.q
    out = []
    gsys = variety(f"grassmann:{ell},{m}")
    out.append(
        _report(
            f"grassmann-count[l={ell},m={m},q={q}]",
            {"l": ell, "m": m, "q": q},
            len(gsys.points),
            gaussian_binomial(m, ell, q),
            "==",
            "Gaussian binomial point count",
        )
    )
    out.append(
        _bool_report(
            f"grassmann-nondegenerate[l={ell},m={m},q={q}]",
            {"l": ell, "m": m, "q": q},
            verify_ffn(gsys),
            "no linear form vanishes on all rational points",
        )
    )
    for r in range(1, dr_equality_max(ell, m) + 1):
        claim = f"grassmann-dr[l={ell},m={m},q={q},r={r}]"
        params = {"l": ell, "m": m, "q": q, "r": r}
        cite = "Grassmann higher-weight formula"
        dr = grassmann_dr(ell, m, r)
        if dr is None:
            note = "not evaluated: subcode scan over budget"
            out.append(_unevaluated(claim, params, "==", cite, note))
        else:
            out.append(_report(claim, params, dr, grassmann_dr_formula(ell, m, q, r), "==", cite))
    for lam in enumerate_index_tuples(ell, m):
        ssys = variety(f"schubert:{ell},{m}:{format_tuple(lam)}")
        out.append(
            _report(
                f"schubert-count[l={ell},m={m},q={q},lam={format_tuple(lam)}]",
                {"l": ell, "m": m, "q": q, "lam": format_tuple(lam)},
                len(ssys.points),
                schubert_count(lam, m, q),
                "==",
                "Bruhat cell sum",
            )
        )
        out.append(
            _bool_report(
                f"schubert-membership[l={ell},m={m},q={q},lam={format_tuple(lam)}]",
                {"l": ell, "m": m, "q": q, "lam": format_tuple(lam)},
                True,
                "coordinate-vanishing and flag-dimension membership agree on every point",
            )
        )
    for lam1, lam2 in combinations(enumerate_index_tuples(ell, m), 2):
        lams = f"{format_tuple(lam1)};{format_tuple(lam2)}"
        usys = variety(f"union:{ell},{m}:{lams}")
        out.append(
            _report(
                f"schubert-union-count[l={ell},m={m},q={q},lams={lams}]",
                {"l": ell, "m": m, "q": q, "lams": lams},
                len(usys.points),
                schubert_union_count([lam1, lam2], m, q),
                "==",
                "Bruhat cell sum over a union of down-sets",
            )
        )
    for fam in _close_families(ell, m):
        fam_str = ";".join(format_tuple(t) for t in fam)
        esys = variety(f"elambda:{ell},{m}:{fam_str}")
        claim = f"elambda-ffn[l={ell},m={m},q={q},fam={fam_str}]"
        params = {"l": ell, "m": m, "q": q, "family": fam_str}
        cite = "coordinate forms span all forms vanishing on the section"
        if len(esys):
            out.append(_bool_report(claim, params, verify_ffn(esys), cite))
        else:
            out.append(_unevaluated(claim, params, "==", cite, "degenerate: empty section"))
        out.extend(section_code_params_check(ell, m, field, fam, variety))
        if m == 2 * ell:
            out.append(close_family_section_bound(ell, field, fam, variety))
    return out


def _lagrangian_claims(field, n, variety, grassmann_dr, budget_scans):
    q = field.q
    out = []
    lsys = variety(f"lagrangian:{n}")
    gsys = variety(f"grassmann:{n},{2 * n}")
    out.append(
        _report(
            f"lagrangian-count[n={n},q={q}]",
            {"n": n, "q": q},
            len(lsys.points),
            lagrangian_count(n, q),
            "==",
            "Lagrangian point-count product",
        )
    )
    for ell in range(1, n + 1):
        isys = variety(f"isotropic:{ell},{n}")
        out.append(
            _report(
                f"isotropic-count[l={ell},n={n},q={q}]",
                {"l": ell, "n": n, "q": q},
                len(isys.points),
                isotropic_count(ell, n, q),
                "==",
                "isotropic point-count product",
            )
        )
        if ell >= 2:
            out.append(
                _report(
                    f"contraction-rank[l={ell},n={n},q={q}]",
                    {"l": ell, "n": n, "q": q},
                    isys.defining_forms.rank(),
                    comb(2 * n, ell - 2),
                    "==",
                    "section codimension equals the contraction form count",
                )
            )
    out.append(
        _bool_report(
            f"isotropic-lagrangian-match[n={n},q={q}]",
            {"n": n, "q": q},
            # both are filtered from the canonical stream, so equal sets are equal arrays
            np.array_equal(variety(f"isotropic:{n},{n}").points, lsys.points),
            "maximal isotropic subspaces are exactly the Lagrangian points",
        )
    )
    cmat = variety(f"isotropic:{n},{n}").defining_forms
    pimat = lsys.defining_forms
    out.append(
        _bool_report(
            f"contraction-kernel-identity[n={n},q={q}]",
            {"n": n, "q": q},
            cmat.right_kernel() == pimat.right_kernel(),
            "contraction kernel equals the coordinate-sum form kernel",
        )
    )
    out.append(
        _bool_report(
            f"lagrangian-ffn[n={n},q={q}]",
            {"n": n, "q": q},
            verify_ffn(lsys),
            "coordinate-sum forms span all forms vanishing on the Lagrangian points",
        )
    )
    hull_dim, _ = linear_hull(lsys)
    out.append(
        _report(
            f"lagrangian-hull[n={n},q={q}]",
            {"n": n, "q": q},
            hull_dim,
            comb(2 * n, n) - comb(2 * n, n - 2),
            "==",
            "linear hull dimension = ambient minus contraction rank",
        )
    )
    code = build_code(lsys)
    out.append(
        _report(
            f"lagrangian-k[n={n},q={q}]",
            {"n": n, "q": q},
            code.k,
            comb(2 * n, n) - pimat.rank(),
            "==",
            "code dimension = ambient dimension minus rank of the forms",
        )
    )
    d = _scanned(lambda: min_distance(code, budget=budget_scans))
    if d is None:
        out.append(
            _unevaluated(
                f"mindist[lagrangian:{n},q={q}]",
                {"n": n, "q": q},
                "<",
                "Lagrangian code distance strictly below q^(n(n+1)/2)",
                "not evaluated: codeword scan over budget",
            )
        )
        return out
    out.extend(mindist_bound_checks(lsys, d))
    sizes = {"L": len(lsys.points), "G": len(gsys.points), "dim_v": hull_dim}
    for r in (1, 2):
        rprime = comb(2 * n, n) - hull_dim + r
        # d_{r'} of the ambient code: closed form inside its equality
        # range, exhaustive scan otherwise
        d_rp_G = d_r_L = None
        if 1 <= rprime <= dr_equality_max(n, 2 * n):
            d_rp_G = grassmann_dr_formula(n, 2 * n, q, rprime)
        else:
            d_rp_G = grassmann_dr(n, 2 * n, rprime)
        if d_rp_G is not None and r <= code.k:
            d_r_L = _scanned(lambda: higher_weight(code, r, budget=budget_scans))
        if d_r_L is None:
            out.append(
                _unevaluated(
                    f"lagrangian-sandwich[n={n},q={q},r={r}]",
                    {"n": n, "q": q, "r": r},
                    "<=",
                    "two-sided bound on Lagrangian higher weights",
                    "not evaluated: scans over budget",
                )
            )
        else:
            out.extend(lagrangian_dr_sandwich(n, q, r, **sizes, d_r_L=d_r_L, d_rp_G=d_rp_G))
    counts = {"L": len(lsys.points), "G": len(gsys.points), "dimV": hull_dim}
    for r in (1, 2, 3):
        dr = grassmann_dr(n, 2 * n, r)
        if dr is None:
            out.append(
                _unevaluated(
                    f"grassmann-dr-cap[n={n},q={q},r={r}]",
                    {"n": n, "q": q, "r": r},
                    "<=",
                    "Grassmann higher weights capped by the count gap",
                    "not evaluated: subcode scan over budget",
                )
            )
        else:
            out.append(grassmann_dr_cap_check(n, q, r, dr, counts))
    return out
