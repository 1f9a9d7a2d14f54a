import random
from itertools import combinations, permutations, product

import numpy as np
import pytest

from grasscode.field import make_field
from grasscode.linalg import (
    Mat,
    from_rows,
    identity,
    intersect_row_spaces,
    iter_rref_batches,
    maximal_minors,
    row_space_equal,
    solve_membership,
    vstack,
    zeros,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_rref_examples():
    eye = identity(F2, 3)
    echelon, rank, pivots = eye.rref()
    assert echelon == eye and rank == 3 and pivots == (0, 1, 2)

    zero = zeros(F2, 2, 4)
    echelon, rank, pivots = zero.rref()
    assert echelon == zero and rank == 0 and pivots == ()

    ones = Mat(F2, [[1, 1], [1, 1]])
    echelon, rank, _ = ones.rref()
    assert echelon.a.tolist() == [[1, 1], [0, 0]] and rank == 1


def _random_mat(field, rng, rows, cols):
    return Mat(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_rref_idempotent_and_rank_nullity(field):
    rng = random.Random(12345 + field.q)
    for _ in range(100):
        m = _random_mat(field, rng, rng.randrange(1, 6), rng.randrange(1, 6))
        echelon = m.rref()[0]
        assert echelon.rref()[0] == echelon
        assert m.rank() + m.left_kernel().rows == m.rows


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_left_kernel_annihilates(field):
    rng = random.Random(999 + field.q)
    for _ in range(50):
        m = _random_mat(field, rng, rng.randrange(1, 6), rng.randrange(1, 6))
        ker = m.left_kernel()
        if ker.rows:
            assert not field.matmul(ker.a, m.a).any()


def test_left_kernel_examples():
    assert identity(F3, 4).left_kernel().rows == 0
    # column of three ones: oracle enumerates the 4 annihilating vectors
    col = Mat(F2, [[1], [1], [1]])
    kernel_vectors = [v for v in product(range(2), repeat=3) if sum(v) % 2 == 0]
    assert len(kernel_vectors) == 4
    assert col.left_kernel().rows == 2


def test_row_space_equal():
    a = Mat(F3, [[1, 2, 0], [0, 1, 1]])
    assert row_space_equal(a, a)
    scaled = Mat(F3, F3.mul_arr(a.a, 2))
    assert row_space_equal(a, scaled)
    assert not row_space_equal(Mat(F2, [[1, 0]]), Mat(F2, [[0, 1]]))
    with pytest.raises(ValueError):
        row_space_equal(Mat(F2, [[1, 0]]), Mat(F2, [[1, 0, 0]]))


def test_solve_membership():
    a = Mat(F2, [[1, 0], [0, 0]])
    assert solve_membership([0, 0], a)
    assert solve_membership([1, 0], a)
    assert not solve_membership([0, 1], a)
    with pytest.raises(ValueError):
        solve_membership([1, 0, 0], a)


def _det_oracle(field, rows):
    """Permutation expansion, independent of elimination."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = 1
        for i in range(n):
            term = field.mul(term, rows[i][perm[i]])
        term = field.mul(term, field.from_int((-1) ** inversions))
        total = field.add(total, term)
    return total


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_det_matches_permutation_expansion(field):
    rng = random.Random(77 + field.q)
    for _ in range(30):
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
        mat = Mat(field, rows)
        expected = _det_oracle(field, rows)
        assert mat.det() == expected
        assert maximal_minors(field, np.array([rows], dtype=np.int64)).tolist() == [[expected]]


@pytest.mark.parametrize(
    "field",
    [F3, make_field(7, 1), F4, make_field(2, 3), make_field(3, 2), make_field(17, 2), make_field(2, 9)],
    ids=repr,
)
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_maximal_minors_match_elimination_det(field, ell):
    rng = np.random.default_rng(field.q * 10 + ell)
    m = ell + 3
    bases = rng.integers(0, field.q, size=(20, ell, m))
    bases[0, :, :] = 0  # a zero basis: every minor vanishes
    bases[1, -1] = bases[1, 0]  # repeated rows: every minor vanishes for ell > 1
    minors = maximal_minors(field, bases)
    subsets = list(combinations(range(m), ell))
    assert minors.shape == (20, len(subsets))
    for basis, row in zip(bases, minors):
        assert row.tolist() == [Mat(field, basis[:, list(s)]).det() for s in subsets]
    assert not minors[0].any()


def _span_set(field, mat):
    vecs = set()
    for coeffs in product(range(field.q), repeat=mat.rows):
        v = np.zeros(mat.cols, dtype=np.int64)
        for c, row in zip(coeffs, mat.a):
            v = field.add_arr(v, field.mul_arr(np.int64(c), row))
        vecs.add(tuple(v.tolist()))
    return vecs


@pytest.mark.parametrize("field", [F2, F3])
def test_intersect_row_spaces_against_enumeration(field):
    rng = random.Random(31 + field.q)
    for _ in range(20):
        a = _random_mat(field, rng, rng.randrange(1, 4), 4)
        b = _random_mat(field, rng, rng.randrange(1, 4), 4)
        inter = intersect_row_spaces(a, b)
        expected = _span_set(field, a) & _span_set(field, b)
        assert _span_set(field, inter) == expected


def test_vstack_and_mixed_field_errors():
    with pytest.raises(ValueError):
        vstack([identity(F2, 2), identity(F3, 2)])
    with pytest.raises(ValueError):
        _ = identity(F2, 2) @ identity(F3, 2)
    stacked = vstack([identity(F2, 2), zeros(F2, 1, 2)])
    assert stacked.shape == (3, 2)
    assert from_rows(F2, [], cols=4).shape == (0, 4)


def test_iter_rref_batches_counts_subspaces():
    # 2-dim subspaces of F_2^4: 35 canonical representatives
    total = sum(batch.shape[0] for batch in iter_rref_batches(F2, 2, 4))
    assert total == 35
    seen = set()
    for batch in iter_rref_batches(F2, 2, 4):
        for mat in batch:
            m = Mat(F2, mat)
            assert m.rank() == 2
            assert m.rref()[0] == m
            seen.add(m.a.tobytes())
    assert len(seen) == 35
