from itertools import product

import numpy as np
import pytest

from grasscode.field import GF
from grasscode.indices import (
    bruhat_leq,
    delete_pair,
    downset,
    enumerate_index_tuples,
    format_tuple,
    gaussian_binomial,
    is_close_family,
    parse_tuple,
    schubert_cell_dimension,
)


def test_enumeration_examples():
    assert list(enumerate_index_tuples(2, 4)) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert list(enumerate_index_tuples(0, 5)) == [()]
    assert list(enumerate_index_tuples(3, 3)) == [(1, 2, 3)]
    with pytest.raises(ValueError):
        enumerate_index_tuples(4, 3)


def test_bruhat_examples():
    assert bruhat_leq((1, 2), (2, 4))
    assert not bruhat_leq((1, 4), (2, 3))
    assert bruhat_leq((2, 4), (2, 4))
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_bruhat_is_partial_order(m):
    for ell in range(1, m + 1):
        tuples = enumerate_index_tuples(ell, m)
        for a in tuples:
            assert bruhat_leq(a, a)
            for b in tuples:
                if bruhat_leq(a, b) and bruhat_leq(b, a):
                    assert a == b
                for c in tuples:
                    if bruhat_leq(a, b) and bruhat_leq(b, c):
                        assert bruhat_leq(a, c)


def _count_subspaces_bruteforce(m, ell, q):
    """Row spaces of all full-rank ell x m matrices, deduplicated by span."""
    field = GF(q, 1)
    spans = set()
    for entries in product(range(q), repeat=ell * m):
        rows = np.array(entries, dtype=np.int64).reshape(ell, m)
        from grasscode.linalg import Mat

        mat = Mat(field, rows)
        if mat.rank() != ell:
            continue
        spans.add(mat.rref_basis().a.tobytes())
    return len(spans)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(4, 2, 2) == 35
    assert _count_subspaces_bruteforce(4, 2, 2) == 35
    assert gaussian_binomial(7, 0, 3) == 1
    assert gaussian_binomial(4, 1, 3) == 40 == (3**4 - 1) // (3 - 1)
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)


def test_gaussian_binomial_symmetry():
    for m in range(7):
        for ell in range(m + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(m, ell, q) == gaussian_binomial(m, m - ell, q)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_cell_decomposition_identity(m, q):
    for ell in range(m + 1):
        total = sum(
            q ** schubert_cell_dimension(beta) for beta in enumerate_index_tuples(ell, m)
        )
        assert total == gaussian_binomial(m, ell, q)


def test_close_family_examples():
    assert is_close_family([(1, 2), (1, 3)])
    assert not is_close_family([(1, 2), (3, 4)])
    assert is_close_family([(2, 4)])
    with pytest.raises(ValueError):
        is_close_family([])
    with pytest.raises(ValueError):
        is_close_family([(1, 2), (1, 2, 3)])


def test_delete_pair():
    assert delete_pair((1, 2, 3, 4), 1, 2) == (3, 4)
    assert delete_pair((1, 3, 5), 1, 3) == (3,)
    assert delete_pair((1, 2), 1, 2) == ()
    with pytest.raises(ValueError):
        delete_pair((1, 2, 3), 2, 2)
    with pytest.raises(ValueError):
        delete_pair((1, 2, 3), 0, 2)


def test_cell_dimension():
    assert schubert_cell_dimension((1, 2, 3)) == 0
    assert schubert_cell_dimension((3, 4)) == 4  # big cell of I(2,4): l(m-l)
    assert schubert_cell_dimension((2, 4)) == 3
    assert schubert_cell_dimension(()) == 0


def test_downset():
    assert downset((2, 4), 4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
    assert downset((1, 2), 4) == ((1, 2),)


def test_tuple_serialization():
    assert format_tuple((1, 3, 4)) == "1,3,4"
    assert parse_tuple("1,3,4") == (1, 3, 4)
    assert parse_tuple("") == ()
