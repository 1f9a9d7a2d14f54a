"""Exact verification of every closed-form count, formula, and inequality.

Each check produces a BoundReport with integer sides and a literal
pass/fail; nothing is assumed.  Claims whose literal range is wider than
what their derivation supports are marked disputed so a literal failure is
flagged instead of failing a verification run.

``run_suite`` works one field at a time and, inside a field, one
Grassmannian at a time.  A visit to G(l, m) holds one ``store`` of its
candidates, which every spec on it filters
(``sections.enumerate_variety``), and the G(l, m) code with its d_r,
which the Grassmann and the Lagrangian claims share.  The store keeps
``(bases, coords, memo)`` blocks of up to 2048 candidates each, which
may span cells.  Each section is enumerated once, read by its claims and
dropped; the rest goes when the visit returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .codes import DEFAULT_SCAN_BUDGET, build_code, higher_weight, min_distance
from .errors import BudgetExceededError
from .grassmann import DEFAULT_POINT_BUDGET
from .indices import (
    enumerate_index_tuples,
    format_tuple,
    gaussian_binomial,
    index_positions,
    is_close_family,
)
from .sections import (
    budget_grassmannian,
    elambda_length_formula,
    enumerate_variety,
    isotropic_count,
    lagrangian_count,
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


def close_family_section_bound(system, lam_set) -> BoundReport:
    """Points of the Lagrangian system with all family coordinates zero, vs. the count bound."""
    lam_set = tuple(sorted({tuple(t) for t in lam_set}))
    if not is_close_family(lam_set):
        raise ValueError(f"{lam_set} is not a close family")
    n, q = system.ell, system.field.q
    k = len(lam_set)
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


def section_code_params_check(system) -> list[BoundReport]:
    """Length formula and dimension check for the code of an ``elambda`` section."""
    spec = system.source
    ell, m, q, lam_set = spec.ell, spec.m, system.field.q, spec.tuples
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


# -- the full verification suite --------------------------------------------------


def _bool_report(claim, params, value: bool, citation, note=""):
    return _report(claim, params, 1 if value else 0, 1, "==", citation, note=note)


def _close_families(ell: int, m: int, max_size: int = 3):
    tuples = enumerate_index_tuples(ell, m)
    families = (fam for size in range(1, max_size + 1) for fam in combinations(tuples, size))
    return [fam for fam in families if is_close_family(fam)]


class _HigherWeights(dict):
    """d_r of a system's code by r, the code built and each d_r scanned on first read.

    A value is None when r > k or ``codes`` refuses the scan as over budget.
    """

    def __init__(self, system, budget_scans: int):
        super().__init__()
        self.system, self.budget_scans, self.code = system, budget_scans, None

    def __missing__(self, r: int) -> int | None:
        if self.code is None:
            self.code = build_code(self.system)
        code = self.code
        self[r] = _scanned(lambda: higher_weight(code, r, budget=self.budget_scans)) if r <= code.k else None
        return self[r]


def run_suite(
    fields,
    grassmann_pairs=(),
    lagrangian_ns=(),
    budget_points: int = DEFAULT_POINT_BUDGET,
    budget_scans: int = DEFAULT_SCAN_BUDGET,
) -> list[BoundReport]:
    """Every desk-scale claim for the requested grid of fields, sorted by claim id.

    Per field, the Grassmannians are visited one at a time, in the order
    their claims first read them: the listed pairs, then for each n
    G(n, 2n) and G(1, 2n) ... G(n-1, 2n).  One visit makes every claim on
    its G(l, m) (``_grassmannian_claims``).  Every visit's point budget
    is checked before the first visit, in visit order, so a refused grid
    names the first Grassmannian the claims read and runs no claim.
    """
    pairs = [(ell, m) for ell, m in grassmann_pairs]
    visits = dict.fromkeys(pairs + [(ell, 2 * n) for n in lagrangian_ns for ell in (n, *range(1, n))])
    for field in fields:
        for ell, m in visits:
            budget_grassmannian(ell, m, field, budget_points)
    reports: list[BoundReport] = []
    for field in fields:
        for ell, m in visits:
            reports += _grassmannian_claims(
                field, ell, m, pairs.count((ell, m)), lagrangian_ns, budget_points, budget_scans
            )
    reports.sort(key=lambda rep: rep.claim)
    return reports


def _grassmannian_claims(field, ell, m, pair_runs, lagrangian_ns, budget_points, budget_scans):
    """Every claim on G(l, m) over field: the pair claims pair_runs times, the others once per n listed.

    Each spec is enumerated once, filtering one ``store`` of G(l, m)
    blocks.  The ``schubert``, ``union`` and ``elambda`` sections are
    dropped once their claims are made, everything else on return: the
    store, the G(l, m) code with its d_r, ``lagrangian:n`` and the
    isotropic section.
    """
    store: dict = {}

    def section(spec_str: str):
        return enumerate_variety(parse_variety_spec(spec_str), field, budget_points, store)

    q, n = field.q, m // 2
    iso_runs = lagrangian_ns.count(n) if m == 2 * n and ell <= n else 0
    lag_runs = iso_runs if ell == n else 0
    out = []
    if pair_runs or lag_runs:
        gsys = section(f"grassmann:{ell},{m}")
        drs = _HigherWeights(gsys, budget_scans)
        lsys = section(f"lagrangian:{n}") if m == 2 * ell else None
    if pair_runs:
        claims = _grassmann_claims(gsys, drs)
        for lam in enumerate_index_tuples(ell, m):
            params = {"l": ell, "m": m, "q": q, "lam": format_tuple(lam)}
            claims.append(
                _report(
                    f"schubert-count[l={ell},m={m},q={q},lam={format_tuple(lam)}]",
                    params,
                    len(section(f"schubert:{ell},{m}:{format_tuple(lam)}")),
                    schubert_count(lam, m, q),
                    "==",
                    "Bruhat cell sum",
                )
            )
            claims.append(
                _bool_report(
                    f"schubert-membership[l={ell},m={m},q={q},lam={format_tuple(lam)}]",
                    params,
                    True,
                    "coordinate-vanishing and flag-dimension membership agree on every point",
                )
            )
        for lam1, lam2 in combinations(enumerate_index_tuples(ell, m), 2):
            lams = f"{format_tuple(lam1)};{format_tuple(lam2)}"
            claims.append(
                _report(
                    f"schubert-union-count[l={ell},m={m},q={q},lams={lams}]",
                    {"l": ell, "m": m, "q": q, "lams": lams},
                    len(section(f"union:{ell},{m}:{lams}")),
                    schubert_union_count([lam1, lam2], m, q),
                    "==",
                    "Bruhat cell sum over a union of down-sets",
                )
            )
        for fam in _close_families(ell, m):
            fam_str = ";".join(format_tuple(t) for t in fam)
            esys = section(f"elambda:{ell},{m}:{fam_str}")
            claim = f"elambda-ffn[l={ell},m={m},q={q},fam={fam_str}]"
            params = {"l": ell, "m": m, "q": q, "family": fam_str}
            cite = "coordinate forms span all forms vanishing on the section"
            if len(esys):
                claims.append(_bool_report(claim, params, verify_ffn(esys), cite))
            else:
                claims.append(_unevaluated(claim, params, "==", cite, "degenerate: empty section"))
            claims += section_code_params_check(esys)
            if lsys is not None:
                claims.append(close_family_section_bound(lsys, fam))
        out += claims * pair_runs
    if iso_runs:
        isys = section(f"isotropic:{ell},{n}")
        out += _isotropic_claims(isys) * iso_runs
    if lag_runs:
        out += _lagrangian_claims(lsys, gsys, isys, drs, budget_scans) * lag_runs
    return out


def _grassmann_claims(gsys, drs):
    """Point count, nondegeneracy and d_r of G(l, m); drs is the d_r memo of its code."""
    ell, m, q = gsys.ell, gsys.m, gsys.field.q
    out = [
        _report(
            f"grassmann-count[l={ell},m={m},q={q}]",
            {"l": ell, "m": m, "q": q},
            len(gsys.points),
            gaussian_binomial(m, ell, q),
            "==",
            "Gaussian binomial point count",
        ),
        _bool_report(
            f"grassmann-nondegenerate[l={ell},m={m},q={q}]",
            {"l": ell, "m": m, "q": q},
            verify_ffn(gsys),
            "no linear form vanishes on all rational points",
        ),
    ]
    for r in range(1, dr_equality_max(ell, m) + 1):
        claim = f"grassmann-dr[l={ell},m={m},q={q},r={r}]"
        params = {"l": ell, "m": m, "q": q, "r": r}
        cite = "Grassmann higher-weight formula"
        if drs[r] is None:
            note = "not evaluated: subcode scan over budget"
            out.append(_unevaluated(claim, params, "==", cite, note))
        else:
            out.append(_report(claim, params, drs[r], grassmann_dr_formula(ell, m, q, r), "==", cite))
    return out


def _isotropic_claims(isys):
    """Point count and contraction rank of isotropic:l,n."""
    ell, n, q = isys.ell, isys.m // 2, isys.field.q
    out = [
        _report(
            f"isotropic-count[l={ell},n={n},q={q}]",
            {"l": ell, "n": n, "q": q},
            len(isys.points),
            isotropic_count(ell, n, q),
            "==",
            "isotropic point-count product",
        )
    ]
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
    return out


def _lagrangian_claims(lsys, gsys, isys, drs, budget_scans):
    """Claims on lagrangian:n against G(n, 2n) (gsys, the d_r memo drs of its code) and isotropic:n,n."""
    n, q = lsys.ell, lsys.field.q
    out = [
        _report(
            f"lagrangian-count[n={n},q={q}]",
            {"n": n, "q": q},
            len(lsys.points),
            lagrangian_count(n, q),
            "==",
            "Lagrangian point-count product",
        ),
        _bool_report(
            f"isotropic-lagrangian-match[n={n},q={q}]",
            {"n": n, "q": q},
            # both are filtered from the canonical stream, so equal sets are equal arrays
            np.array_equal(isys.points, lsys.points),
            "maximal isotropic subspaces are exactly the Lagrangian points",
        ),
    ]
    pimat = lsys.defining_forms
    out.append(
        _bool_report(
            f"contraction-kernel-identity[n={n},q={q}]",
            {"n": n, "q": q},
            isys.defining_forms.right_kernel() == pimat.right_kernel(),
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
    # the hull of the points is the row space of the point matrix, so its dimension is k
    code = build_code(lsys)
    out.append(
        _report(
            f"lagrangian-hull[n={n},q={q}]",
            {"n": n, "q": q},
            code.k,
            comb(2 * n, n) - comb(2 * n, n - 2),
            "==",
            "linear hull dimension = ambient minus contraction rank",
        )
    )
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
    claim = f"mindist[lagrangian:{n},q={q}]"
    cite = "Lagrangian code distance strictly below q^(n(n+1)/2)"
    d = _scanned(lambda: min_distance(code, budget=budget_scans))
    if d is None:
        note = "not evaluated: codeword scan over budget"
        out.append(_unevaluated(claim, {"n": n, "q": q}, "<", cite, note))
        return out
    params = {"spec": f"lagrangian:{n}", "q": q, "d": d}
    out.append(_report(claim, params, d, q ** (n * (n + 1) // 2), "<", cite))
    counts = {"L": len(lsys.points), "G": len(gsys.points)}
    for r in (1, 2):
        rprime = comb(2 * n, n) - code.k + r
        # d_{r'} of the ambient code: closed form inside its equality
        # range, exhaustive scan otherwise
        d_rp_G = d_r_L = None
        if 1 <= rprime <= dr_equality_max(n, 2 * n):
            d_rp_G = grassmann_dr_formula(n, 2 * n, q, rprime)
        else:
            d_rp_G = drs[rprime]
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
            out.extend(lagrangian_dr_sandwich(n, q, r, **counts, dim_v=code.k, d_r_L=d_r_L, d_rp_G=d_rp_G))
    for r in (1, 2, 3):
        if drs[r] is None:
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
            out.append(grassmann_dr_cap_check(n, q, r, drs[r], {**counts, "dimV": code.k}))
    return out
