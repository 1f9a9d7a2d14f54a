import random

import numpy as np
import pytest

from conftest import field
from grasscode.errors import BudgetExceededError, SpecParseError
from grasscode.grassmann import (
    enumerate_grassmann_points,
    plucker_embed,
    read_points_file,
    subspace_of_point,
    write_points_file,
)
from grasscode.indices import gaussian_binomial
from grasscode.linalg import Mat


def test_plucker_examples():
    f2 = field(2)
    e12 = Mat(f2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert plucker_embed(e12) == (1, 0, 0, 0, 0, 0)

    mixed = Mat(f2, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert plucker_embed(mixed) == (1, 0, 1, 1, 0, 1)

    echelon = mixed.rref()[0]
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
    f = field(q)
    for ell in range(1, m + 1):
        system = enumerate_grassmann_points(ell, m, f)
        expected = gaussian_binomial(m, ell, q)
        assert len(system.points) == expected
        assert len(set(system.points)) == expected
        assert system.point_matrix().left_kernel().rows == 0


def test_projective_line_example():
    system = enumerate_grassmann_points(1, 2, field(2))
    assert len(system.points) == 3


def test_roundtrip_g24_f2():
    f2 = field(2)
    system = enumerate_grassmann_points(2, 4, f2)
    for point in system.points:
        basis = subspace_of_point(point, 2, 4, f2)
        assert basis.rref()[0] == basis
        assert plucker_embed(basis) == point


def test_roundtrip_g13_f3():
    f3 = field(3)
    system = enumerate_grassmann_points(1, 3, f3)
    for point in system.points:
        assert plucker_embed(subspace_of_point(point, 1, 3, f3)) == point


def test_subspace_of_point_rejects_non_points():
    # violates the quadratic relation p12*p34 - p13*p24 + p14*p23 = 0
    with pytest.raises(ValueError):
        subspace_of_point((1, 0, 0, 0, 0, 1), 2, 4, field(2))
    with pytest.raises(ValueError):
        subspace_of_point((0, 0, 0, 0, 0, 0), 2, 4, field(2))


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_grassmann_points(2, 4, field(2), budget=10)


def test_points_file_roundtrip(tmp_path):
    f3 = field(3)
    system = enumerate_grassmann_points(2, 4, f3)
    path = tmp_path / "points.txt"
    write_points_file(system, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "# gf p=3 e=1 modulus=0,1"
    assert text[1] == "# plucker l=2 m=4"
    back = read_points_file(str(path))
    assert back.field == f3
    assert back.points == system.points

    with pytest.raises(SpecParseError):
        bad = tmp_path / "bad.txt"
        bad.write_text("# nope\n")
        read_points_file(str(bad))
    bad = tmp_path / "bad_plucker.txt"
    for header in ("# plucker l=2 m", "# gf p=3 e=1 modulus"):
        lines = text[:2]
        lines[1 if "plucker" in header else 0] = header
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecParseError):
            read_points_file(str(bad))
