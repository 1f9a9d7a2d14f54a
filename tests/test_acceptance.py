"""Acceptance suite: every criterion checked exactly, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import random
from itertools import combinations

from conftest import (
    dr_reference,
    elambda,
    field,
    point_set,
    schubert_member_flag,
    schubert_member_plucker,
    subspace_of_point,
    variety,
)
from grasscode.bounds import (
    close_family_section_bound,
    grassmann_dr_cap_check,
    grassmann_dr_formula,
    lagrangian_dr_sandwich,
    run_suite,
    section_code_params_check,
)
from grasscode.cli import main as cli_main
from grasscode.codes import (
    build_code,
    higher_weight,
    min_distance,
)
from grasscode.field import field_for_order
from grasscode.indices import (
    enumerate_index_tuples,
    gaussian_binomial,
    is_close_family,
)
from grasscode.linalg import Mat
from grasscode.sections import (
    contraction_matrix,
    enumerate_variety,
    lagrangian_count,
    linear_hull,
    parse_variety_spec,
    pi_forms,
    schubert_count,
    schubert_union_count,
    verify_ffn,
)


def check(criterion, description, problems):
    ok = not problems
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {description}")
    assert ok, f"{criterion}: {description}: {problems[:5]}"


def _close_families(ell, m, max_size=3):
    return [
        fam
        for size in range(1, max_size + 1)
        for fam in combinations(enumerate_index_tuples(ell, m), size)
        if is_close_family(fam)
    ]


def test_criterion_01_grassmann_point_counts():
    problems = []
    for q in (2, 3, 4):
        f = field_for_order(q)
        for m in range(1, 6):
            for ell in range(1, m + 1):
                system = enumerate_variety(parse_variety_spec(f"grassmann:{ell},{m}"), f)
                expected = gaussian_binomial(m, ell, q)
                if len(system) != expected or len(point_set(system)) != expected:
                    problems.append((ell, m, q, len(system), expected))
    check("criterion-1", "|G(l,m)(F_q)| matches the Gaussian binomial on the full grid", problems)


def test_criterion_02_lagrangian_counts():
    expected = {(2, 2): 15, (2, 3): 40, (3, 2): 135, (3, 3): 1120}
    problems = []
    for n in (2, 3):
        for q in (2, 3):
            got = len(variety(f"lagrangian:{n}", q).points)
            formula = lagrangian_count(n, q)
            if got != formula or got != expected[(n, q)]:
                problems.append((n, q, got, formula))
    check("criterion-2", "|L(n,2n)(F_q)| matches the product formula", problems)


def test_criterion_03_grassmann_code_24():
    problems = []
    code = build_code(variety("grassmann:2,4", 2))
    if (code.n, code.k) != (35, 6):
        problems.append(("params", code.n, code.k))
    d_cw = min_distance(code, "codewords")
    d_hp = min_distance(code, "hyperplanes")
    if not (d_cw == d_hp == 16 == 2**4):
        problems.append(("d", d_cw, d_hp))
    for r, want in ((1, 16), (2, 24), (3, 28)):
        dr = higher_weight(code, r)
        ref = dr_reference(code, r)
        if not (dr == ref == want == grassmann_dr_formula(2, 4, 2, r)):
            problems.append(("dr", r, dr, ref, want))
    check("criterion-3", "C(2,4)/GF(2) is [35,6], d=16, (d1,d2,d3)=(16,24,28), oracles agree", problems)


def test_criterion_04_lagrangian_code_24():
    problems = []
    code = build_code(variety("lagrangian:2", 2))
    if (code.n, code.k) != (15, 5):
        problems.append(("params", code.n, code.k))
    if code.k != 6 - pi_forms(2, field(2)).rank():
        problems.append(("k-vs-rank", code.k))
    d_cw = min_distance(code, "codewords")
    d_hp = min_distance(code, "hyperplanes")
    if d_cw != d_hp:
        problems.append(("oracles", d_cw, d_hp))
    if not d_cw < 2**3:
        problems.append(("bound", d_cw))
    check("criterion-4", "C_L(2,4)/GF(2) is [15,5], k=6-rank(Pi), d<8, oracles agree", problems)


def test_criterion_05_lagrangian_code_36():
    problems = []
    code = build_code(variety("lagrangian:3", 2))
    if code.n != 135:
        problems.append(("n", code.n))
    if code.k != 20 - contraction_matrix(3, field(2), 3).rank():
        problems.append(("k", code.k))
    d = min_distance(code, "codewords")  # scans all 2^14 messages via classes
    if not d < 2**6:
        problems.append(("bound", d))
    check("criterion-5", "C_L(3,6)/GF(2): n=135, k=20-rank(forms), exhaustive d<64", problems)


def test_criterion_06_ffn_verification():
    problems = []
    for q in (2, 3):
        for fam in _close_families(2, 4):
            spec = "elambda:2,4:" + ";".join(",".join(map(str, t)) for t in fam)
            if not verify_ffn(variety(spec, q)):
                problems.append(("elambda", q, fam))
        for n in (2, 3):
            if not verify_ffn(variety(f"lagrangian:{n}", q)):
                problems.append(("lagrangian", n, q))
    check("criterion-6", "FFN holds for close-family sections and L(2,4), L(3,6) over GF(2), GF(3)", problems)


def test_criterion_07_kernel_identity():
    problems = []
    for n in (2, 3):
        for q in (2, 3):
            f = field(q)
            cker = contraction_matrix(n, f, n).right_kernel()
            piker = pi_forms(n, f).right_kernel()
            if cker != piker:
                problems.append((n, q))
    check("criterion-7", "nullspace(contraction) equals the common zero space of the Pi forms", problems)


def test_criterion_08_schubert_membership_and_counts():
    problems = []
    for q in (2, 3):
        f = field(q)
        gsys = variety("grassmann:2,4", q)
        for lam in enumerate_index_tuples(2, 4):
            members = 0
            for point in gsys.points:
                basis = subspace_of_point(point, 2, 4, f)
                a = schubert_member_plucker(point, lam, 2, 4)
                b = schubert_member_flag(basis, lam)
                if a != b:
                    problems.append(("disagree", q, lam, point))
                members += a
            if members != schubert_count(lam, 4, q):
                problems.append(("count", q, lam, members))
    check("criterion-8", "Schubert membership oracles agree and counts match cell sums", problems)


def test_criterion_09_schubert_unions():
    problems = []
    for q in (2, 3):
        for lam1, lam2 in combinations(enumerate_index_tuples(2, 4), 2):
            spec = (
                "union:2,4:"
                + ",".join(map(str, lam1))
                + ";"
                + ",".join(map(str, lam2))
            )
            system = variety(spec, q)
            if len(point_set(system)) != len(system.points):
                problems.append(("dup", q, lam1, lam2))
            if len(system.points) != schubert_union_count([lam1, lam2], 4, q):
                problems.append(("count", q, lam1, lam2, len(system.points)))
    check("criterion-9", "union counts equal deduplicated enumeration for all pairs", problems)


def test_criterion_10_sandwich_and_section_bounds():
    problems = []
    for q in (2, 3):
        lsys = variety("lagrangian:2", q)
        gsys = variety("grassmann:2,4", q)
        lcode, gcode = build_code(lsys), build_code(gsys)
        dim_v, _ = linear_hull(lsys)
        for r in (1, 2):
            computed = {
                "L": len(lsys.points),
                "G": len(gsys.points),
                "dim_v": dim_v,
                "d_r_L": higher_weight(lcode, r),
                "d_rp_G": higher_weight(gcode, 6 - dim_v + r),
            }
            for rep in lagrangian_dr_sandwich(2, q, r, **computed):
                if not rep.holds:
                    problems.append(("sandwich", q, r, rep.claim))
        for fam in _close_families(2, 4):
            rep = close_family_section_bound(lsys, fam)
            if not rep.holds:
                problems.append(("section-bound", q, fam))
    for fam in _close_families(2, 4):
        if len(fam) < 2:
            continue
        for rep in section_code_params_check(elambda(2, 4, fam, 2)):
            if rep.claim.startswith("elambda-length") and not rep.holds:
                problems.append(("length-formula", fam))
    check("criterion-10", "sandwich r=1,2; close-family section bound; section length formula", problems)


def test_criterion_11_cap_check_disputed():
    problems = []
    lsys = variety("lagrangian:2", 2)
    gcode = build_code(variety("grassmann:2,4", 2))
    counts = {"G": 35, "L": 15, "dimV": linear_hull(lsys)[0]}
    reports = {
        r: grassmann_dr_cap_check(2, 2, r, higher_weight(gcode, r), counts)
        for r in (1, 2, 3)
    }
    if not (reports[1].holds and not reports[1].disputed):
        problems.append(("r1", reports[1].holds))
    if not reports[3].disputed:
        problems.append(("r3-not-disputed",))
    if reports[3].holds is None:
        problems.append(("r3-not-recorded",))
    suite = run_suite([field(2)], lagrangian_ns=[2])
    hard_failures = [r.claim for r in suite if r.holds is False and not r.disputed]
    if hard_failures:
        problems.append(("suite", hard_failures))
    if "grassmann-dr-cap[n=2,q=2,r=3]" not in {r.claim for r in suite if r.disputed}:
        problems.append(("suite-missing-disputed",))
    check("criterion-11", "cap check: r=1 holds, r=3 literal outcome recorded as disputed", problems)


def test_criterion_12a_field_axioms():
    problems = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        f = field_for_order(q)
        els = range(q)
        for a in els:
            if sum(1 for b in els if f.add(a, b) == 0) != 1:
                problems.append(("add-inverse", q, a))
            if a and sum(1 for b in els if f.mul(a, b) == 1) != 1:
                problems.append(("mul-inverse", q, a))
            for b in els:
                if f.add(a, b) != f.add(b, a) or f.mul(a, b) != f.mul(b, a):
                    problems.append(("commute", q, a, b))
                for c in els:
                    if f.add(f.add(a, b), c) != f.add(a, f.add(b, c)):
                        problems.append(("add-assoc", q, a, b, c))
                    if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
                        problems.append(("mul-assoc", q, a, b, c))
                    if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                        problems.append(("distrib", q, a, b, c))
    check("criterion-12a", "field axioms exhaustive for q <= 16", problems)


def test_criterion_12b_random_matrix_properties():
    problems = []
    for q in (2, 3, 4):
        f = field_for_order(q)
        rng = random.Random(2024 + q)
        for _ in range(1000):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            mat = Mat(f, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
            echelon = mat.rref_basis()
            if echelon.rref_basis() != echelon:
                problems.append(("idempotence", q))
            if mat.rank() + mat.left_kernel().rows != rows:
                problems.append(("rank-nullity", q))
    check("criterion-12b", "rref idempotence and rank-nullity on 1000 random matrices per field", problems)


def test_criterion_12c_weight_chains():
    problems = []
    chain_budget = 1 << 20
    for spec, q in (("grassmann:2,4", 2), ("lagrangian:2", 2), ("lagrangian:3", 2)):
        code = build_code(variety(spec, q))
        chain = []
        for r in range(1, code.k + 1):
            if gaussian_binomial(code.k, r, q) > chain_budget:
                break
            chain.append(higher_weight(code, r))
        if chain and chain[0] != min_distance(code):
            problems.append((spec, "d1"))
        if any(a >= b for a, b in zip(chain, chain[1:])):
            problems.append((spec, "monotonicity", chain))
        if any(dr > code.n - code.k + r for r, dr in enumerate(chain, start=1)):
            problems.append((spec, "singleton", chain))
        delta = 4 if spec == "grassmann:2,4" else None
        if delta:
            for r, dr in enumerate(chain[:3], start=1):
                if dr < grassmann_dr_formula(2, 4, q, r):
                    problems.append((spec, "lower-bound", r))
    check("criterion-12c", "d_r strictly increases and meets generalized Singleton on built codes", problems)


def test_criterion_12d_worker_independence(tmp_path, capsys):
    code_file = tmp_path / "l24.code"
    assert cli_main(["build", "lagrangian:2", "--q", "2", "--out", str(code_file)]) == 0
    capsys.readouterr()
    assert cli_main(["weights", str(code_file), "--r-max", "2", "--workers", "1"]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(["weights", str(code_file), "--r-max", "2", "--workers", "4"]) == 0
    out4 = capsys.readouterr().out
    problems = [] if out1 == out4 and json.loads(out1)["d"] == 6 else [("mismatch",)]
    check("criterion-12d", "identical weights JSON for 1 and 4 workers", problems)
