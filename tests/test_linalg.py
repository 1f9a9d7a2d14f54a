import random
from itertools import combinations, permutations, product

import numpy as np
import pytest

from conftest import det
from grasscode.field import GF
from grasscode.linalg import Mat, intersect_row_spaces, maximal_minors, rref_batch, rref_chunks, vstack, zeros

F2 = GF(2, 1)
F3 = GF(3, 1)
F4 = GF(2, 2)


def identity(field, n):
    return Mat(field, np.eye(n, dtype=np.int64))


def test_rref_examples():
    eye = identity(F2, 3)
    echelon, rank, pivots = eye._reduced()
    assert echelon == eye and rank == 3 and pivots == (0, 1, 2)

    zero = zeros(F2, 2, 4)
    echelon, rank, pivots = zero._reduced()
    assert echelon == zero and rank == 0 and pivots == ()

    ones = Mat(F2, [[1, 1], [1, 1]])
    echelon, rank, _ = ones._reduced()
    assert echelon.a.tolist() == [[1, 1], [0, 0]] and rank == 1


def _random_mat(field, rng, rows, cols):
    return Mat(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_rref_idempotent_and_rank_nullity(field):
    rng = random.Random(12345 + field.q)
    for _ in range(100):
        m = _random_mat(field, rng, rng.randrange(1, 6), rng.randrange(1, 6))
        echelon = m._reduced()[0]
        assert echelon._reduced()[0] == echelon
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
    # row spaces are equal exactly when their canonical rref bases are
    a = Mat(F3, [[1, 2, 0], [0, 1, 1]])
    scaled = Mat(F3, F3.mul_arr(a.a, 2))
    assert a.rref_basis() == scaled.rref_basis()
    assert Mat(F2, [[1, 1], [0, 1]]).rref_basis() == Mat(F2, [[0, 1], [1, 0]]).rref_basis()
    assert Mat(F2, [[1, 0]]).rref_basis() != Mat(F2, [[0, 1]]).rref_basis()


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
        assert det(mat) == expected
        assert maximal_minors(field, np.array([rows], dtype=np.int64)).tolist() == [[expected]]


@pytest.mark.parametrize(
    "field",
    [F3, GF(7, 1), F4, GF(2, 3), GF(3, 2), GF(17, 2), GF(2, 9)],
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
        assert row.tolist() == [det(Mat(field, basis[:, list(s)])) for s in subsets]
    assert not minors[0].any()


def _span_set(field, mat):
    vecs = set()
    for coeffs in product(range(field.q), repeat=mat.rows):
        v = np.zeros(mat.cols, dtype=np.int64)
        for c, row in zip(coeffs, mat.a):
            v = field.add_arr(v, field.mul_arr(np.int64(c), row))
        vecs.add(tuple(v.tolist()))
    return vecs


@pytest.mark.parametrize("field", [F2, F3, GF(3, 2), GF(5, 1)])
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


@pytest.mark.parametrize("field,r,k,total", [(F2, 2, 4, 35), (F3, 2, 4, 130), (F4, 1, 3, 21), (F3, 3, 5, 1210)])
def test_rref_chunks_count_subspaces(field, r, k, total):
    # every r-dim subspace of F_q^k once, in canonical order, whatever the chunk size
    stacks = [
        np.concatenate([rref_batch(field.q, k, *c) for c in rref_chunks(field.q, r, k, chunk)])
        for chunk in (7, 4096)
    ]
    assert np.array_equal(stacks[0], stacks[1])
    keys = []
    for mat in stacks[0]:
        m = Mat(field, mat)
        echelon, rank, pivots = m._reduced()
        assert rank == r and echelon == m
        # pivot sets in lex order, then the free entries as a row-major odometer
        keys.append((pivots, tuple(mat.ravel().tolist())))
    assert len(keys) == total
    assert all(a < b for a, b in zip(keys, keys[1:]))
