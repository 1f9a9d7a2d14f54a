import gc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from conftest import elambda, field, variety
from grasscode import bounds, grassmann, linalg
from grasscode.bounds import (
    BoundReport,
    close_family_section_bound,
    dr_equality_max,
    elambda_length_formula,
    grassmann_dr_cap_check,
    grassmann_dr_formula,
    lagrangian_dr_sandwich,
    run_suite,
    section_code_params_check,
)
from grasscode.codes import LinearCode, build_code, higher_weight
from grasscode.grassmann import ProjSystem, iter_grassmann_cells
from grasscode.indices import enumerate_index_tuples, is_close_family
from grasscode.sections import linear_hull


def test_dr_formula_examples():
    assert grassmann_dr_formula(2, 4, 2, 1) == 16
    assert grassmann_dr_formula(2, 4, 2, 2) == 24
    assert grassmann_dr_formula(2, 4, 2, 3) == 28
    assert dr_equality_max(2, 4) == 3
    with pytest.raises(ValueError):
        grassmann_dr_formula(2, 4, 2, 0)
    with pytest.raises(ValueError):
        grassmann_dr_formula(2, 4, 2, 6)


@pytest.mark.parametrize("q", [2, 3])
def test_dr_formula_matches_exhaustive(q):
    code = build_code(variety("grassmann:2,4", q))
    for r in (1, 2, 3):
        assert higher_weight(code, r) == grassmann_dr_formula(2, 4, q, r)


def test_elambda_length_formula():
    assert elambda_length_formula(2, 4, 2, 2) == 35 - 16 - 8 == 11
    assert elambda_length_formula(2, 4, 2, 1) == 35 - 16 == 19


@pytest.mark.parametrize("q", [2, 3])
def test_sandwich_all_inputs_exhaustive(q):
    lsys = variety("lagrangian:2", q)
    gsys = variety("grassmann:2,4", q)
    lcode = build_code(lsys)
    gcode = build_code(gsys)
    dim_v, _ = linear_hull(lsys)
    # run_suite reads the hull dimension as k: both are the rank of the point matrix
    assert dim_v == lcode.k == 5
    for r in (1, 2):
        rprime = 6 - dim_v + r
        reports = lagrangian_dr_sandwich(
            2,
            q,
            r,
            L=len(lsys.points),
            G=len(gsys.points),
            dim_v=dim_v,
            d_r_L=higher_weight(lcode, r),
            d_rp_G=higher_weight(gcode, rprime),
        )
        assert len(reports) == 2
        assert all(rep.holds for rep in reports)


def test_sandwich_spec_example_numbers():
    # n=2, q=2, r=1: 15 - 35 + 24 = 4 <= 6 <= 15 - 5 + 1 = 11
    lower, upper = lagrangian_dr_sandwich(2, 2, 1, L=15, G=35, dim_v=5, d_r_L=6, d_rp_G=24)
    assert (lower.lhs, lower.rhs) == (4, 6) and lower.holds
    assert (upper.lhs, upper.rhs) == (6, 11) and upper.holds
    assert lower.params == upper.params == {"n": 2, "q": 2, "r": 1, "rprime": 2}


def test_cap_check():
    counts = {"G": 35, "L": 15, "dimV": 5}
    r1 = grassmann_dr_cap_check(2, 2, 1, 16, counts)
    assert r1.holds and not r1.disputed
    assert r1.params["derivation_supported"]
    r3 = grassmann_dr_cap_check(2, 2, 3, 28, counts)
    assert r3.holds is False and r3.disputed
    assert (r3.lhs, r3.rhs) == (28, 20)


def _close_families(ell, m, max_size=3):
    out = []
    for size in range(1, max_size + 1):
        for fam in combinations(enumerate_index_tuples(ell, m), size):
            if is_close_family(fam):
                out.append(fam)
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_close_family_section_bound_sweep(q):
    families = _close_families(2, 4)
    assert len(families) == 26  # 6 singletons, 12 intersecting pairs, 4 stars + 4 triangles
    for fam in families:
        report = close_family_section_bound(variety("lagrangian:2", q), fam)
        assert report.holds, (fam, report.lhs, report.rhs)


def test_close_family_section_bound_examples():
    lsys = variety("lagrangian:2", 2)
    rep = close_family_section_bound(lsys, [(1, 2), (1, 3)])
    assert rep.rhs == 35 - 16 - 8 == 11 and rep.holds
    rep1 = close_family_section_bound(lsys, [(1, 2)])
    assert rep1.rhs == 35 - 16 == 19
    with pytest.raises(ValueError):
        close_family_section_bound(lsys, [(1, 2), (3, 4)])


def test_section_code_params_close_example():
    reports = section_code_params_check(elambda(2, 4, [(1, 2), (1, 3)], 2))
    by_claim = {r.claim.split("[")[0]: r for r in reports}
    length = by_claim["elambda-length"]
    assert (length.lhs, length.rhs) == (11, 11) and length.holds
    dim = by_claim["elambda-dimension"]
    assert (dim.lhs, dim.rhs) == (4, 4) and dim.holds


def test_section_code_params_all_close_families_q2():
    for fam in _close_families(2, 4):
        for report in section_code_params_check(elambda(2, 4, fam, 2)):
            assert report.holds, (fam, report.claim)


def test_section_code_dimension_for_non_close_families():
    # the k check holds for every family of size <= 3, close or not
    for size in (1, 2, 3):
        for fam in combinations(enumerate_index_tuples(2, 4), size):
            reports = section_code_params_check(elambda(2, 4, fam, 2))
            dim = [r for r in reports if r.claim.startswith("elambda-dimension")][0]
            assert dim.holds, fam
            if size >= 2 and not is_close_family(fam):
                length = [r for r in reports if r.claim.startswith("elambda-length")][0]
                assert length.disputed


def test_section_code_params_degenerate():
    every = enumerate_index_tuples(2, 4)
    reports = section_code_params_check(elambda(2, 4, every, 2))
    assert len(reports) == 1
    assert reports[0].holds is None and "degenerate" in reports[0].note


def test_mindist_bound_checks():
    # the Lagrangian code's distance against its strict bound, as run_suite reports it
    (rep,) = [rep for rep in run_suite([field(2)], lagrangian_ns=[2]) if rep.claim.startswith("mindist")]
    assert rep.claim == "mindist[lagrangian:2,q=2]"
    assert rep.params == {"spec": "lagrangian:2", "q": 2, "d": 6}
    assert (rep.lhs, rep.relation, rep.rhs) == (6, "<", 8) and rep.holds


def test_run_suite_small_grid(monkeypatch):
    enumerated, built, scanned = [], [], []
    generated = Counter()
    enumerate_variety, build_code_, higher_weight_ = (
        bounds.enumerate_variety, bounds.build_code, bounds.higher_weight
    )
    minors = grassmann.maximal_minors
    # batches of one streaming pass over each Grassmannian the grid touches
    stream = {
        (q, ell, m): sum(1 for _ in iter_grassmann_cells(ell, m, field(q)))
        for q in (2, 3)
        for ell, m in [(2, 4), (1, 4)]
    }

    def counted(spec, field, budget, store):
        enumerated.append((spec.serialize(), field.q))
        return enumerate_variety(spec, field, budget, store)

    def counted_minors(f, bases):
        generated[(f.q, *bases.shape[1:])] += 1
        return minors(f, bases)

    def counted_build(system):
        built.append((system.source.serialize(), system.field.q))
        return build_code_(system)

    def counted_scan(code, r, **kwargs):
        scanned.append((code.source_string(), code.field.q, r))
        return higher_weight_(code, r, **kwargs)

    monkeypatch.setattr(bounds, "enumerate_variety", counted)
    monkeypatch.setattr(grassmann, "maximal_minors", counted_minors)
    monkeypatch.setattr(bounds, "build_code", counted_build)
    monkeypatch.setattr(bounds, "higher_weight", counted_scan)
    reports = run_suite([field(2), field(3)], grassmann_pairs=[(2, 4)], lagrangian_ns=[2])
    # one variety cache serves every claim, the close-family sections included
    assert len(enumerated) == len(set(enumerated))
    assert ("lagrangian:2", 2) in enumerated
    # every spec on one G(l, m) replays one generated stream per field
    assert generated == stream
    # the Grassmann and Lagrangian claims share one G(2,4) code and each of its d_r
    assert built.count(("grassmann:2,4", 2)) == built.count(("grassmann:2,4", 3)) == 1
    assert len(scanned) == len(set(scanned))
    assert reports == sorted(reports, key=lambda rep: rep.claim)
    failures = [r for r in reports if r.holds is False and not r.disputed]
    assert failures == []
    disputed = [r for r in reports if r.disputed]
    assert {r.claim for r in disputed} >= {
        "grassmann-dr-cap[n=2,q=2,r=2]",
        "grassmann-dr-cap[n=2,q=2,r=3]",
    }
    cap1 = [r for r in reports if r.claim == "grassmann-dr-cap[n=2,q=2,r=1]"][0]
    assert cap1.holds and not cap1.disputed


def test_stored_enumerations_match_streaming(monkeypatch):
    # the grid of the benchmark's suite job; scans are refused, enumerations are not
    compared, visits, alive, stores = [], [], [], set()
    enumerate_variety = bounds.enumerate_variety
    before = {id(o) for o in gc.get_objects() if isinstance(o, (ProjSystem, LinearCode))}

    def leftovers(f, earlier):
        """Systems, codes and store entries of the run that belong to earlier Grassmannians over f."""
        gc.collect()
        found = []
        for o in gc.get_objects():
            if isinstance(o, ProjSystem) and id(o) not in before and o.field is f and (o.ell, o.m) in earlier:
                found.append(o.source.serialize())
            elif isinstance(o, LinearCode) and id(o) not in before and o.field is f:
                if (o.provenance.ell, o.provenance.m) in earlier:
                    found.append(f"code of {o.source_string()}")
            elif isinstance(o, dict) and id(o) in stores:
                found += [f"store {key}" for key in earlier if isinstance(o.get(key), list)]
        return found

    def recorded(spec, f, budget, store):
        assert store is not None
        stores.add(id(store))
        if (f.q, spec.ell, spec.m) not in visits:
            # the first read of a Grassmannian: nothing of the field's earlier ones may be left
            earlier = {(ell, m) for q, ell, m in visits if q == f.q}
            alive.append(((f.q, spec.ell, spec.m), leftovers(f, earlier)))
            visits.append((f.q, spec.ell, spec.m))
        system = enumerate_variety(spec, f, budget, store)
        fresh = enumerate_variety(spec, f)
        assert np.array_equal(system.points, fresh.points), spec
        assert np.array_equal(system.defining_forms.a, fresh.defining_forms.a), spec
        compared.append(spec.serialize())
        return system

    monkeypatch.setattr(bounds, "enumerate_variety", recorded)
    run_suite([field(2), field(3)], grassmann_pairs=[(2, 4), (2, 5)], lagrangian_ns=[2], budget_scans=1)
    assert len(compared) == 354
    assert visits == [(q, ell, m) for q in (2, 3) for ell, m in [(2, 4), (2, 5), (1, 4)]]
    assert alive == [(visit, []) for visit in visits]


def test_run_suite_reduces_each_point_matrix_once(monkeypatch):
    # verify_ffn's left kernel and build_code's rref basis read one reduction of [A | I]
    systems, reduced = [], Counter()
    row_reduce, point_matrix = linalg._row_reduce, ProjSystem.point_matrix

    def recorded_reduce(f, m):
        a = m[:, : m.shape[1] - m.shape[0]]
        reduced[a.shape, a.tobytes()] += 1
        return row_reduce(f, m)

    def recorded_matrix(system):
        if all(system is not s for s in systems):
            systems.append(system)
        return point_matrix(system)

    monkeypatch.setattr(linalg, "_row_reduce", recorded_reduce)
    monkeypatch.setattr(ProjSystem, "point_matrix", recorded_matrix)
    run_suite([field(2)], [(2, 4)], ())
    assert {s.source.kind for s in systems} == {"grassmann", "elambda"}
    # points and the matrices _row_reduce sees are both in field.dtype
    matrices = Counter((s.points.T.shape, np.ascontiguousarray(s.points.T).tobytes()) for s in systems)
    assert {key: reduced[key] for key in matrices} == matrices


def test_run_suite_empty_grid():
    assert run_suite([]) == []


def test_report_json_fields():
    rep = BoundReport("x", {"q": 2}, 1, 2, "<=", True, "why")
    payload = rep.to_json_dict()
    assert set(payload) == {"claim", "params", "lhs", "rhs", "relation", "holds", "citation"}
    rep_d = BoundReport("y", {}, 3, 2, "<=", False, "why", disputed=True, note="n")
    payload_d = rep_d.to_json_dict()
    assert payload_d["disputed"] is True and payload_d["note"] == "n"
