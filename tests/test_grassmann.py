import random
import re
from itertools import combinations, product

import numpy as np
import pytest

import grasscode.grassmann as grassmann
from conftest import field, has_repeated_rows, plucker_embed, point_set, subspace_of_point, variety
from grasscode.errors import BudgetExceededError
from grasscode.grassmann import ProjSystem, iter_grassmann_cells
from grasscode.indices import gaussian_binomial
from grasscode.linalg import Mat, rref_chunks, rref_free_positions, zeros
from grasscode.sections import enumerate_variety, parse_variety_spec


def test_plucker_examples():
    f2 = field(2)
    e12 = Mat(f2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert plucker_embed(e12) == (1, 0, 0, 0, 0, 0)

    mixed = Mat(f2, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert plucker_embed(mixed) == (1, 0, 1, 1, 0, 1)

    echelon = mixed.rref_basis()
    assert plucker_embed(echelon) == plucker_embed(mixed)


def test_plucker_row_operation_invariance():
    f3 = field(3)
    rng = random.Random(42)
    base = Mat(f3, [[1, 0, 2, 1], [0, 1, 1, 2]])
    reference = plucker_embed(base)
    for _ in range(20):
        rows = np.array(base.a)
        # random invertible row operation
        c = rng.randrange(1, 3)
        rows[0] = f3.add_arr(rows[0], f3.mul_arr(np.int64(c), rows[1]))
        if rng.random() < 0.5:
            rows = rows[::-1]
        scale = rng.randrange(1, 3)
        rows[0] = f3.mul_arr(np.int64(scale), rows[0])
        assert plucker_embed(Mat(f3, rows)) == reference


def test_plucker_rejects_dependent_rows():
    f2 = field(2)
    with pytest.raises(ValueError):
        plucker_embed(Mat(f2, [[1, 0, 1, 0], [1, 0, 1, 0]]))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_counts_injectivity_nondegeneracy(m, q):
    for ell in range(1, m + 1):
        system = variety(f"grassmann:{ell},{m}", q)
        expected = gaussian_binomial(m, ell, q)
        assert len(system.points) == expected
        assert len(point_set(system)) == expected
        assert system.point_matrix().left_kernel().rows == 0


def test_points_are_one_read_only_array():
    f3 = field(3)
    system = variety("grassmann:2,4", 3)
    assert system.points.shape == (130, 6) and system.points.dtype == f3.dtype
    with pytest.raises(ValueError):
        system.points[0, 0] = 2
    # lists of rows are converted; the caller's array stays writable
    rows = system.points[:2].copy()
    built = ProjSystem(f3, 6, rows, zeros(f3, 0, 6))
    assert not built.points.flags.writeable and rows.flags.writeable
    assert ProjSystem(f3, 6, rows.tolist(), zeros(f3, 0, 6)).points.shape == (2, 6)
    assert ProjSystem(f3, 6, [], zeros(f3, 0, 6)).points.shape == (0, 6)
    with pytest.raises(ValueError):
        ProjSystem(f3, 6, [(1, 0, 0)], zeros(f3, 0, 6))
    assert not has_repeated_rows(system.points)
    assert has_repeated_rows(ProjSystem(f3, 6, system.points[[0, 5, 0]], zeros(f3, 0, 6)).points)


def test_out_of_range_points_raise_instead_of_wrapping():
    # GF(3) points are int8: 257 would wrap to 1 and -255 to 1
    f3 = field(3)
    assert f3.dtype == np.int8
    for bad in (3, 257, -255, -1):
        with pytest.raises(ValueError, match="outside"):
            ProjSystem(f3, 2, [[1, bad]], zeros(f3, 0, 2))
    assert ProjSystem(f3, 2, np.array([[1, 2]]), zeros(f3, 0, 2)).points.tolist() == [[1, 2]]


def test_projective_line_example():
    system = variety("grassmann:1,2", 2)
    assert len(system.points) == 3


def test_roundtrip_g24_f2():
    f2 = field(2)
    system = variety("grassmann:2,4", 2)
    for point in system.points:
        basis = subspace_of_point(point, 2, 4, f2)
        assert basis.rref_basis() == basis
        assert plucker_embed(basis) == tuple(point)


def test_roundtrip_g13_f3():
    f3 = field(3)
    system = variety("grassmann:1,3", 3)
    for point in system.points:
        assert plucker_embed(subspace_of_point(point, 1, 3, f3)) == tuple(point)


def test_subspace_of_point_rejects_non_points():
    # violates the quadratic relation p12*p34 - p13*p24 + p14*p23 = 0
    with pytest.raises(ValueError):
        subspace_of_point((1, 0, 0, 0, 0, 1), 2, 4, field(2))
    with pytest.raises(ValueError):
        subspace_of_point((0, 0, 0, 0, 0, 0), 2, 4, field(2))


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_variety(parse_variety_spec("grassmann:2,4"), field(2), 10)


# G(2,3) streams cells (1,2), (1,3), (2,3), one batch each in chunks of q^2.  In
# cell (1,2) the last basis is [[1, 0, -1], [0, 1, -1]]: p_13 = b_23 and
# p_23 = -b_13, one pivot lying between.  In cell (1,3) p_12 = 0 comes
# before the pivot coordinate p_13 = 1.
CORRUPTIONS = {
    "free": (0, 1, lambda f, x: f.add_arr(x, 1)),
    "sign": (0, 2, lambda f, x: f.sub_arr(0, x)),
    "pivot": (1, 1, lambda f, x: 0),
    "prefix": (1, 0, lambda f, x: 1),
}


@pytest.mark.parametrize(
    "q,where",
    [(q, where) for q in (2, 3, 4, 289) for where in CORRUPTIONS if where != "sign" or q % 2],
)
def test_read_back_catches_a_corrupted_minor(monkeypatch, q, where):
    f = field(*{2: (2,), 3: (3,), 4: (2, 2), 289: (17, 2)}[q])
    minors = grassmann.maximal_minors
    batch, col, corrupt = CORRUPTIONS[where]
    calls = []

    def corrupted(f, bases):
        out = minors(f, bases)
        if len(calls) == batch:
            out[-1, col] = corrupt(f, out[-1, col])
        calls.append(len(bases))
        return out

    assert len(list(iter_grassmann_cells(2, 3, f, chunk=q * q))) == 3
    monkeypatch.setattr(grassmann, "maximal_minors", corrupted)
    cell = ("(1, 2)", "(1, 3)")[batch]
    with pytest.raises(RuntimeError, match=f"read back the canonical bases of cell {re.escape(cell)}"):
        list(iter_grassmann_cells(2, 3, f, chunk=q * q))
    assert len(calls) == batch + 1


def test_read_back_runs_once_per_generated_batch(monkeypatch):
    read = []
    monkeypatch.setattr(grassmann, "_read_back", lambda f, pivots, bases, coords: read.append(len(bases)))
    store = {}
    for _ in range(2):
        assert sum(len(b) for b, _, _ in iter_grassmann_cells(2, 4, field(3), chunk=32, store=store)) == 130
    # once per generated pivot-set chunk, and the replay reads nothing back
    assert sum(read) == 130 and len(read) == len(list(rref_chunks(3, 2, 4, 32)))
    # the stored blocks join those chunks, each block at most one chunk long
    blocks = [len(bases) for bases, _, _ in store[2, 4]]
    assert sum(blocks) == 130 and max(blocks) <= 32 and len(blocks) < len(read)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2)])
def test_stored_blocks_concatenate_to_the_stream(p, e):
    f, q = field(p, e), p**e
    streamed = list(iter_grassmann_cells(2, 4, f, chunk=32))
    store = {}
    generated = list(iter_grassmann_cells(2, 4, f, chunk=32, store=store))
    replayed = list(iter_grassmann_cells(2, 4, f, chunk=32, store=store))
    # the replay yields the stored blocks themselves, memos included
    assert len(replayed) == len(generated) and all(g is r for g, r in zip(generated, replayed))
    for part in (0, 1):
        whole = np.concatenate([batch[part] for batch in streamed])
        assert np.array_equal(np.concatenate([block[part] for block in replayed]), whole)
        assert all(not block[part].flags.writeable for block in replayed)
    # canonical order: pivot sets in lex order, free entries as an odometer, last entry fastest
    canonical = []
    for pivots in combinations(range(4), 2):
        free = rref_free_positions(pivots, 4)
        for digits in product(range(q), repeat=len(free)):
            basis = [[int(j == p) for j in range(4)] for p in pivots]
            for (i, j), digit in zip(free, digits):
                basis[i][j] = digit
            canonical.append(basis)
    assert np.concatenate([block[0] for block in replayed]).tolist() == canonical
    assert len(canonical) == gaussian_binomial(4, 2, q)
