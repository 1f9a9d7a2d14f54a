import random
from itertools import combinations, permutations, product

import numpy as np
import pytest

from conftest import det
from grasscode import linalg
from grasscode.field import GF, field_for_order
from grasscode.linalg import Mat, intersect_row_spaces, maximal_minors, rref_batch, rref_chunks, vstack, zeros

F2 = GF(2, 1)
F3 = GF(3, 1)
F4 = GF(2, 2)


def identity(field, n):
    return Mat(field, np.eye(n, dtype=np.int64))


def _pivots(basis):
    """Pivot column of each row of an rref basis."""
    return tuple(int(np.flatnonzero(row)[0]) for row in basis.a)


def test_rref_examples():
    eye = identity(F2, 3)
    basis, kernel = eye._reduced()
    assert basis == eye and eye.rank() == 3 and _pivots(basis) == (0, 1, 2)
    assert kernel == zeros(F2, 0, 3)

    zero = zeros(F2, 2, 4)
    basis, kernel = zero._reduced()
    assert basis == zeros(F2, 0, 4) and zero.rank() == 0 and _pivots(basis) == ()
    assert kernel == identity(F2, 2)

    ones = Mat(F2, [[1, 1], [1, 1]])
    assert ones.rref_basis().a.tolist() == [[1, 1]] and ones.rank() == 1
    assert ones.left_kernel().a.tolist() == [[1, 1]]


def _random_mat(field, rng, rows, cols):
    return Mat(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_rref_idempotent_and_rank_nullity(field):
    rng = random.Random(12345 + field.q)
    for _ in range(100):
        m = _random_mat(field, rng, rng.randrange(1, 6), rng.randrange(1, 6))
        echelon = m.rref_basis()
        assert echelon.rref_basis() == echelon
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


def test_one_reduction_serves_rank_basis_and_kernel(monkeypatch):
    calls = []
    reduce = linalg._row_reduce
    monkeypatch.setattr(linalg, "_row_reduce", lambda field, m: calls.append(m.shape) or reduce(field, m))
    m = Mat(F3, [[1, 2, 0, 1], [2, 1, 0, 2], [0, 1, 1, 0]])
    assert (m.rank(), m.rref_basis().rows, m.left_kernel().rows, m.rank()) == (2, 2, 1, 2)
    # one pass, over [A | I]
    assert calls == [(3, 7)]


def test_out_of_range_entries_raise_instead_of_wrapping():
    # GF(3) entries are int8: 257 would wrap to 1, and -1 is no field element
    for bad in ([[1, 257]], [[1, -1]], np.array([[1, 257]])):
        with pytest.raises(ValueError, match="outside"):
            Mat(F3, bad)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 11, 13, 181, 191, 289])
def test_reduction_in_field_dtype_matches_int64(q):
    # field.dtype is int8 up to 11, int16 up to 181, int32 from 191, intp for e > 1;
    # Mat stores its entries, rref basis and left kernel in it
    f = field_for_order(q)
    rng = np.random.default_rng(q)
    for rows, cols, rank in ((4, 7, 4), (6, 5, 3), (5, 9, 2), (3, 3, 0)):
        a = f.matmul(rng.integers(0, q, (rows, rank)), rng.integers(0, q, (rank, cols)))
        m = np.concatenate([a, np.eye(rows, dtype=np.int64)], axis=1)
        r = sum(c < cols for c in linalg._row_reduce(f, m))
        mat = Mat(f, a)
        assert mat.rref_basis().a.tolist() == m[:r, :cols].tolist()
        assert mat.left_kernel().a.tolist() == m[r:, cols:].tolist()
        assert mat.rref_basis().a.dtype == mat.left_kernel().a.dtype == f.dtype


def _reduce_every_column(f, m):
    """The reduction visiting every column in turn, in int64 row by row: (pivot columns, reduced copy)."""
    m = np.array(m, dtype=np.int64)
    rows, pivots = m.shape[0], []
    for c in range(m.shape[1]):
        r = len(pivots)
        below = [i for i in range(r, rows) if m[i, c]]
        if not below:
            continue
        m[[r, below[0]]] = m[[below[0], r]]
        m[r] = f.mul_arr(m[r], f.inv(int(m[r, c])))
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = f.sub_arr(m[i], f.mul_arr(int(m[i, c]), m[r]))
        pivots.append(c)
    return pivots, m


def _sparse_low_rank(f, rng, rows, cols, rank):
    """A rows x cols matrix of rank at most ``rank``, with runs of zero columns and some zero rows."""
    left = rng.integers(0, f.q, (rows, rank))
    left[rng.random(rows) < 0.3] = 0
    right = rng.integers(0, f.q, (rank, cols))
    for start in rng.integers(0, cols, 3):
        right[:, start : start + int(rng.integers(1, cols // 2 + 2))] = 0
    # a few nonzero columns far apart, so that the jumps between them cross several windows
    right[:, rng.random(cols) < 0.9] = 0
    return f.matmul(left, right)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 289])
def test_reduction_jumping_to_pivots_matches_every_column_reference(q):
    f = field_for_order(q)
    rng = np.random.default_rng(1000 + q)
    sizes = ((3, 40), (6, 25), (5, 5), (8, 60), (4, 700), (9, 1500))
    shapes = [(rows, cols, rank) for rows, cols in sizes for rank in (0, 1, 2, 4)]
    for rows, cols, rank in shapes:
        a = _sparse_low_rank(f, rng, rows, cols, min(rank, rows))
        reference, reduced = _reduce_every_column(f, np.concatenate([a, np.eye(rows, dtype=np.int64)], axis=1))
        m = np.concatenate([a, np.eye(rows, dtype=f.dtype)], axis=1)
        assert linalg._row_reduce(f, m) == reference
        assert m.tolist() == reduced.tolist()
        r = sum(c < cols for c in reference)
        mat = Mat(f, a)
        assert mat.rank() == r <= rank
        assert mat.rref_basis().a.tolist() == reduced[:r, :cols].tolist()
        assert mat.left_kernel().a.tolist() == reduced[r:, cols:].tolist()
    # the all-zero matrix: no pivot in A, and the whole identity is its left kernel
    zero = Mat(f, np.zeros((4, 30), dtype=np.int64))
    assert zero.rank() == 0 and zero.left_kernel().a.tolist() == np.eye(4, dtype=int).tolist()


def _combinations(field, mat):
    """Every coefficient vector v in F_q^rows, and v @ mat, by elementwise field arithmetic."""
    rows, cols = mat.shape
    coeffs = np.array(list(product(range(field.q), repeat=rows)), dtype=np.int64).reshape(field.q**rows, rows)
    words = np.zeros((len(coeffs), cols), dtype=np.int64)
    for i, row in enumerate(mat):
        words = field.add_arr(words, field.mul_arr(coeffs[:, i, None], row[None, :]))
    return coeffs, words


def _assert_rref(basis):
    pivots = _pivots(basis)
    assert list(pivots) == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert basis.a[i, c] == 1 and np.count_nonzero(basis.a[:, c]) == 1


def _kernel_cases(field, rng):
    """Random (rows, cols) matrices: full rank, rank-deficient, no rows, no columns."""
    q = field.q
    cases = []
    while len(cases) < 4:
        rows, cols = rng.integers(1, 4, size=2)
        a = rng.integers(0, q, size=(rows, cols))
        _, words = _combinations(field, a)
        if np.count_nonzero(~words.any(axis=1)) == q ** (rows - min(rows, cols)):
            cases.append(a)
    for _ in range(4):
        rows, cols = rng.integers(2, 4, size=2)
        inner = rng.integers(1, min(rows, cols))
        cases.append(field.matmul(rng.integers(0, q, size=(rows, inner)), rng.integers(0, q, size=(inner, cols))))
    cases += [np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)]
    return cases


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_left_kernel_matches_brute_force(q):
    field = field_for_order(q)
    rng = np.random.default_rng(404 + q)
    for a in _kernel_cases(field, rng):
        mat = Mat(field, a)
        coeffs, words = _combinations(field, mat.a)
        expected = {tuple(v) for v in coeffs[~words.any(axis=1)].tolist()}
        ker = mat.left_kernel()
        _assert_rref(ker)
        assert ker.cols == mat.rows and len(expected) == q**ker.rows
        assert {tuple(v) for v in _combinations(field, ker.a)[1].tolist()} == expected
        # the same reduction's basis spans the row space
        basis = mat.rref_basis()
        _assert_rref(basis)
        assert basis.rows == mat.rank() == mat.rows - ker.rows
        row_space = {tuple(v) for v in words.tolist()}
        assert {tuple(v) for v in _combinations(field, basis.a)[1].tolist()} == row_space


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
    stacked = vstack([identity(F2, 2), zeros(F2, 1, 2)])
    assert stacked.shape == (3, 2)


@pytest.mark.parametrize("field,r,k,total", [(F2, 2, 4, 35), (F3, 2, 4, 130), (F4, 1, 3, 21), (F3, 3, 5, 1210)])
def test_rref_chunks_count_subspaces(field, r, k, total):
    # every r-dim subspace of F_q^k once, in canonical order, whatever the chunk size
    stacks = [
        np.concatenate([rref_batch(field, k, *c) for c in rref_chunks(field.q, r, k, chunk)])
        for chunk in (7, 4096)
    ]
    assert np.array_equal(stacks[0], stacks[1])
    keys = []
    for mat in stacks[0]:
        m = Mat(field, mat)
        basis = m.rref_basis()
        pivots = _pivots(basis)
        assert m.rank() == r and basis == m
        # pivot sets in lex order, then the free entries as a row-major odometer
        keys.append((pivots, tuple(mat.ravel().tolist())))
    assert len(keys) == total
    assert all(a < b for a, b in zip(keys, keys[1:]))
