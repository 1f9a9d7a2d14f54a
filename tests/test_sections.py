from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import grasscode.grassmann as grassmann
from conftest import (
    SPEC_CASES,
    bruhat_cell_of,
    field,
    is_isotropic,
    point_set,
    reference_points,
    schubert_member_flag,
    schubert_member_plucker,
    subspace_of_point,
    symplectic_form,
    variety,
)
from grasscode.errors import SpecParseError
from grasscode.grassmann import ProjSystem
from grasscode.indices import enumerate_index_tuples, index_positions
from grasscode.linalg import Mat, maximal_minors, rref_batch, rref_free_positions, zeros
from grasscode.sections import (
    KINDS,
    _isotropic_mask,
    cell_histogram,
    closed_form_count,
    combinatorial_dimension,
    contraction_matrix,
    enumerate_variety,
    flag_cells,
    isotropic_count,
    lagrangian_count,
    linear_hull,
    make_spec,
    parse_variety_spec,
    pi_forms,
    schubert_count,
    schubert_union_count,
    verify_ffn,
)


def test_spec_cases_cover_every_kind():
    assert sorted(SPEC_CASES) == sorted(KINDS)


@pytest.mark.parametrize("kind", sorted(SPEC_CASES))
def test_spec_parse_and_serialize(kind):
    spec = parse_variety_spec(SPEC_CASES[kind])
    assert spec.kind == kind
    assert parse_variety_spec(spec.serialize()) == spec
    assert make_spec(kind, spec.ell, spec.m, spec.tuples) == spec


def test_spec_parse_rejects_bad_text():
    for bad in ["nope:1", "schubert:2,4", "lagrangian:2,4", "grassmann:0,4", "schubert:2,4:4,5"]:
        with pytest.raises(SpecParseError):
            parse_variety_spec(bad)
    # serialize writes no tuples for these kinds, so a spec holding some would not round-trip
    for kind in ("grassmann", "lagrangian", "isotropic"):
        with pytest.raises(SpecParseError, match="takes no index tuples"):
            make_spec(kind, 2, 4, [(1, 2)])


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("text", [*SPEC_CASES.values(), "elambda:2,4:1,2;3,4"])
def test_closed_form_count_matches_enumeration(text, q):
    spec = parse_variety_spec(text)
    count, extras = closed_form_count(spec, q)
    if spec.kind.startswith("lag-"):
        assert count is None and extras == {"cellsum": schubert_union_count(spec.tuples, spec.m, q)}
    elif text == "elambda:2,4:1,2;3,4":  # not a close family: no closed form
        assert count is None and extras == {}
    else:
        assert count == len(variety(text, q).points) and extras == {}


def test_symplectic_form_shape():
    for q in (2, 3):
        f = field(q)
        for n in (2, 3):
            form = symplectic_form(n, f)
            gram = form.gram.a
            assert gram.shape == (2 * n, 2 * n)
            assert form.gram.rank() == 2 * n
            assert not gram.diagonal().any()
            assert not f.add_arr(gram, gram.T).any()
            for i in range(1, n + 1):
                assert gram[i - 1, 2 * n - i] == 1


def test_is_isotropic_examples():
    f3 = field(3)
    for n in (2, 3):
        form = symplectic_form(n, f3)
        eye = np.eye(2 * n, dtype=np.int64)
        assert is_isotropic(Mat(f3, eye[:n]), form)
        assert not is_isotropic(Mat(f3, eye[[0, 2 * n - 1]]), form)
        for v in ([1] * 2 * n, [2, 1] + [0] * (2 * n - 2)):
            assert is_isotropic(Mat(f3, [v]), form)


def test_contraction_n2():
    for q in (2, 3):
        c = contraction_matrix(2, field(q))
        assert c.a.tolist() == [[0, 0, 1, 1, 0, 0]]  # X14 + X23


def test_contraction_n3_columns():
    pos3 = index_positions(3, 6)
    pos1 = index_positions(1, 6)
    for q in (2, 3):
        c = contraction_matrix(3, field(q)).a
        assert c.shape == (6, 20)
        # no symplectic pair inside (1,2,3): the column vanishes
        assert not c[:, pos3[(1, 2, 3)]].any()
        # (1,2,6) contracts onto e_2 with the sign of moving (1,6) to the front
        col = c[:, pos3[(1, 2, 6)]]
        assert col[pos1[(2,)]] == field(q).from_int(-1)
        assert np.count_nonzero(col) == 1


def test_pi_forms_n2():
    for q in (2, 3):
        assert pi_forms(2, field(q)).a.tolist() == [[0, 0, 1, 1, 0, 0]]


def test_pi_forms_n3():
    f2 = field(2)
    pi = pi_forms(3, f2)
    assert pi.shape == (6, 20)
    pos3 = index_positions(3, 6)
    pos1 = index_positions(1, 6)
    row = pi.a[pos1[(2,)]]
    expected = np.zeros(20, dtype=np.int64)
    expected[pos3[(1, 2, 6)]] = 1  # i=1 term
    expected[pos3[(2, 3, 4)]] = 1  # i=3 term; the i=2 term dies on a repeated index
    assert np.array_equal(row, expected)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_contraction_kernel_equals_pi_zero_set(n, q):
    f = field(q)
    cmat = contraction_matrix(n, f)
    pimat = pi_forms(n, f)
    assert cmat.right_kernel() == pimat.right_kernel()


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_lagrangian_counts(n, q):
    system = variety(f"lagrangian:{n}", q)
    assert len(system.points) == lagrangian_count(n, q)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_isotropic_counts_and_lagrangian_match(n, q):
    for ell in range(1, n + 1):
        system = variety(f"isotropic:{ell},{n}", q)
        assert len(system.points) == isotropic_count(ell, n, q)
    assert point_set(variety(f"isotropic:{n},{n}", q)) == point_set(variety(f"lagrangian:{n}", q))


def test_isotropic_form_count_matches_codimension():
    # the contraction provides C(2n, l-2) forms for the section
    from math import comb

    for q in (2, 3):
        for n, ell in [(2, 2), (3, 2), (3, 3)]:
            system = variety(f"isotropic:{ell},{n}", q)
            assert system.defining_forms.rows == comb(2 * n, ell - 2)
            assert system.defining_forms.rank() == comb(2 * n, ell - 2)


@pytest.mark.parametrize("q", [2, 3])
def test_schubert_membership_agreement_and_cell_sums(q):
    f = field(q)
    gsys = variety("grassmann:2,4", q)
    for lam in enumerate_index_tuples(2, 4):
        members = 0
        for point in gsys.points:
            basis = subspace_of_point(point, 2, 4, f)
            by_plucker = schubert_member_plucker(point, lam, 2, 4)
            by_flag = schubert_member_flag(basis, lam)
            assert by_plucker == by_flag
            members += by_plucker
        assert members == schubert_count(lam, 4, q)
        assert len(variety(f"schubert:2,4:{','.join(map(str, lam))}", q).points) == members


def test_schubert_examples():
    assert len(variety("schubert:2,4:2,4", 2).points) == 19
    assert schubert_count((2, 4), 4, 2) == 19
    # maximal lambda: the whole Grassmannian
    assert len(variety("schubert:2,4:3,4", 2).points) == 35
    assert len(variety("schubert:2,4:1,2", 2).points) == 1


@pytest.mark.parametrize("q", [2, 3])
def test_schubert_union_counts(q):
    from itertools import combinations

    tuples = enumerate_index_tuples(2, 4)
    for lam1, lam2 in combinations(tuples, 2):
        spec = f"union:2,4:{','.join(map(str, lam1))};{','.join(map(str, lam2))}"
        system = variety(spec, q)
        assert len(point_set(system)) == len(system.points)
        assert len(system.points) == schubert_union_count([lam1, lam2], 4, q)


def test_schubert_union_count_examples():
    assert schubert_union_count([(1, 4), (2, 3)], 4, 2) == 11
    assert schubert_union_count([(3, 4)], 4, 2) == 35
    assert schubert_union_count([(2, 4)], 4, 2) == 19


def test_elambda_example():
    system = variety("elambda:2,4:1,2;1,3", 2)
    assert len(system.points) == 11
    assert verify_ffn(system)
    pos = index_positions(2, 4)
    for point in system.points:
        assert point[pos[(1, 2)]] == 0 and point[pos[(1, 3)]] == 0


def test_elambda_all_coordinates_is_empty():
    all_tuples = enumerate_index_tuples(2, 4)
    system = enumerate_variety(make_spec("elambda", 2, 4, all_tuples), field(2))
    assert len(system.points) == 0


def test_linear_hull_examples():
    f2 = field(2)
    gsys = variety("grassmann:2,4", 2)
    dim, forms = linear_hull(gsys)
    assert dim == 6 and forms.rows == 0

    lsys = variety("lagrangian:2", 2)
    dim, forms = linear_hull(lsys)
    assert dim == 5
    assert forms.rref_basis() == pi_forms(2, f2).rref_basis()

    single = ProjSystem(f2, 6, [gsys.points[0]], zeros(f2, 0, 6), ell=2, m=4)
    assert linear_hull(single)[0] == 1

    with pytest.raises(ValueError):
        linear_hull(ProjSystem(f2, 6, [], zeros(f2, 0, 6)))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_ffn_lagrangian(n, q):
    assert verify_ffn(variety(f"lagrangian:{n}", q))


def test_ffn_grassmann_trivial():
    assert verify_ffn(variety("grassmann:2,4", 2))


def test_lag_schubert():
    # hand count for lam=(2,4) over GF(2): cells (1,2), (1,3), (2,4) meet the
    # Lagrangian with 1 + 2 + 4 points; cells (1,4) and (2,3) never do
    system = variety("lag-schubert:2:2,4", 2)
    assert len(system.points) == 7
    lag = point_set(variety("lagrangian:2", 2))
    sch = point_set(variety("schubert:2,4:2,4", 2))
    assert point_set(system) == lag & sch
    assert combinatorial_dimension(system) == 2


@pytest.mark.parametrize("q", [2, 3])
def test_lag_schubert_is_lagrangian_cap_schubert(q):
    lag = point_set(variety("lagrangian:2", q))
    for lam in enumerate_index_tuples(2, 4):
        lam_str = ",".join(map(str, lam))
        got = point_set(variety(f"lag-schubert:2:{lam_str}", q))
        sch = point_set(variety(f"schubert:2,4:{lam_str}", q))
        assert got == lag & sch


def test_lag_union_is_set_union():
    union = variety("lag-union:2:2,4;1,4", 2)
    a = point_set(variety("lag-schubert:2:2,4", 2))
    b = point_set(variety("lag-schubert:2:1,4", 2))
    assert point_set(union) == a | b
    # every declared form vanishes on the union (the filter keeps no other point)
    prods = union.field.matmul(union.defining_forms.a, union.point_matrix().a)
    assert not prods.any()


@pytest.mark.parametrize("q", [2, 3])
def test_lagrangian_cell_histogram(q):
    system = variety("lagrangian:2", q)
    hist = cell_histogram(system)
    assert hist == {(1, 2): 1, (1, 3): q, (2, 4): q**2, (3, 4): q**3}
    assert combinatorial_dimension(system) == 3


def test_bruhat_cell_of_matches_pivots():
    f2 = field(2)
    for rows, cell in (([[1, 0, 0, 0], [0, 1, 0, 0]], (1, 2)), ([[1, 1, 0, 0], [0, 0, 1, 1]], (2, 4))):
        assert bruhat_cell_of(Mat(f2, rows)) == cell
        assert flag_cells(f2, np.array([rows])).tolist() == [list(cell)]


# one Grassmannian per field class: prime, 2^e, odd p^e <= 256, above 256
FIELD_CLASSES = [(2, 4, 2, 1), (3, 5, 3, 1), (2, 4, 2, 2), (3, 6, 2, 3), (2, 4, 3, 2), (2, 4, 17, 2), (2, 5, 2, 9)]


@pytest.mark.parametrize("ell,m,p,e", FIELD_CLASSES)
def test_flag_cells_match_per_point_reference(ell, m, p, e):
    # the first 64 canonical bases of every pivot set; all of them for the smaller fields
    f = field(p, e)
    tuples = enumerate_index_tuples(ell, m)
    for pivots in combinations(range(m), ell):
        bases = rref_batch(f.q, m, pivots, 0, min(64, f.q ** len(rref_free_positions(pivots, m))))
        cells = flag_cells(f, bases)
        last = [max(np.flatnonzero(row)) for row in maximal_minors(f, bases)]
        for basis, cell, pos in zip(bases, cells.tolist(), last):
            assert tuple(cell) == bruhat_cell_of(Mat(f, basis)) == tuples[pos]


def test_flag_cells_reject_dependent_rows():
    with pytest.raises(ValueError):
        flag_cells(field(3), np.array([[[1, 2, 0], [2, 1, 0]]]))


@pytest.mark.parametrize(
    "spec,p,e",
    [("grassmann:2,4", 2, 1), ("lag-union:2:2,4;1,4", 3, 1), ("grassmann:2,4", 2, 2), ("grassmann:2,3", 3, 2), ("grassmann:1,2", 17, 2)],
)
def test_cell_histogram_matches_flag_reference(spec, p, e):
    system = variety(spec, p, e)
    reference = Counter(
        bruhat_cell_of(subspace_of_point(point, system.ell, system.m, system.field))
        for point in system.points
    )
    assert cell_histogram(system) == dict(sorted(reference.items()))


@pytest.mark.parametrize("spec", ["schubert:2,4:2,4", "union:2,4:2,4;1,4", "lag-schubert:2:2,4", "lag-union:2:2,4;1,4"])
def test_flag_oracle_catches_corrupted_minors(monkeypatch, spec):
    # p_34 = 1 on the first point, span{e_1, e_2}: outside every Schubert
    # variety above by Plücker vanishing, inside all of them by its flag
    minors = grassmann.maximal_minors

    def corrupted(f, bases):
        out = minors(f, bases)
        out[0, -1] = 1
        return out

    enumerate_variety(parse_variety_spec(spec), field(2))
    monkeypatch.setattr(grassmann, "maximal_minors", corrupted)
    with pytest.raises(RuntimeError, match="oracles disagree"):
        enumerate_variety(parse_variety_spec(spec), field(2))


@pytest.mark.parametrize("spec,m,coord", [("lagrangian:2", 4, (1, 4)), ("isotropic:2,3", 6, (1, 6))])
def test_gram_oracle_catches_corrupted_minors(monkeypatch, spec, m, coord):
    # the first point is span{e_1, e_2}, isotropic by its Gram test; with
    # p_coord = 1 the one form through that coordinate (p_14 + p_23 for
    # lagrangian:2, the contraction onto I(0, 6) for isotropic:2,3) does not vanish
    minors = grassmann.maximal_minors
    col = index_positions(2, m)[coord]

    def corrupted(f, bases):
        out = minors(f, bases)
        out[0, col] = 1
        return out

    enumerate_variety(parse_variety_spec(spec), field(3))
    monkeypatch.setattr(grassmann, "maximal_minors", corrupted)
    with pytest.raises(RuntimeError, match="oracles disagree"):
        enumerate_variety(parse_variety_spec(spec), field(3))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_isotropic_mask_matches_gram_reference(p, e):
    # random full-rank bases, and isotropic ones: span{e_1..e_l} moved by
    # random symplectic transvections x -> x + c <x, v> v, then by a random
    # change of basis; odd characteristic catches a sign slip
    f = field(p, e)
    rng = np.random.default_rng(100 * p + e)
    seen = set()
    for n in (1, 2, 3):
        form = symplectic_form(n, f)
        for ell in range(1, n + 1):
            bases = [rng.integers(0, f.q, size=(ell, 2 * n)) for _ in range(60)]
            for _ in range(20):
                basis = np.eye(2 * n, dtype=np.int64)[:ell]
                for _ in range(4):
                    v = rng.integers(0, f.q, size=(2 * n, 1))
                    pairing = f.matmul(f.matmul(basis, form.gram.a), v)
                    basis = f.add_arr(basis, f.mul_arr(f.mul_arr(pairing, int(rng.integers(1, f.q))), v.T))
                bases.append(f.matmul(rng.integers(0, f.q, size=(ell, ell)), basis))
            bases = np.array([b for b in bases if Mat(f, b).rank() == ell])
            expected = [is_isotropic(Mat(f, b), form) for b in bases]
            assert _isotropic_mask(f, bases).tolist() == expected
            seen.update(expected)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "spec,q",
    [(text, q) for text in SPEC_CASES.values() for q in (2, 3)]
    + [("isotropic:3,4", 2), ("lag-union:3:1,4,6;2,3,6", 2), ("schubert:3,6:2,4,6", 2)],
)
def test_forms_rule_matches_per_point_reference(spec, q):
    assert np.array_equal(variety(spec, q).points, reference_points(spec, q))


def test_defining_forms_annihilate_points():
    for spec, q in [
        ("schubert:2,4:2,4", 3),
        ("union:2,4:1,4;2,3", 3),
        ("elambda:2,4:1,2;1,3", 3),
        ("lagrangian:3", 3),
        ("isotropic:2,3", 3),
        ("lag-schubert:2:2,4", 3),
    ]:
        system = variety(spec, q)
        if system.defining_forms.rows and len(system):
            prods = system.field.matmul(system.defining_forms.a, system.point_matrix().a)
            assert not prods.any()
