import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscode.field import GF, _is_irreducible, field_for_order, is_prime, make_field, parse_field_header

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
PRIME_POWERS_256 = [
    q
    for q in range(2, 257)
    if any(q == p**e for p in range(2, 257) if is_prime(p) for e in range(1, 9))
]


def test_prime_field_modulus_is_x():
    assert make_field(2, 1).modulus == (0, 1)
    assert make_field(3, 1).modulus == (0, 1)


def test_gf4_modulus_matches_brute_force():
    # oracle: of the four monic quadratics over GF(2), keep those with no root
    # and no factorization into two monic linear terms
    candidates = []
    for c0 in range(2):
        for c1 in range(2):
            poly = (c0, c1, 1)
            has_root = any((c0 + c1 * x + x * x) % 2 == 0 for x in range(2))
            if not has_root:
                candidates.append(poly)
    assert candidates == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_moduli_are_irreducible_by_construction():
    for p, e in [(2, 3), (2, 4), (3, 2), (5, 2), (2, 8)]:
        f = make_field(p, e)
        assert _is_irreducible(list(f.modulus), p)
        assert f.modulus[-1] == 1


def test_arith_examples():
    f2, f3, f4 = make_field(2, 1), make_field(3, 1), make_field(2, 2)
    assert f2.add(1, 1) == 0
    # x * x reduced mod x^2+x+1 is x+1, encoding 3
    assert f4.mul(2, 2) == 3
    assert f3.inv(2) == 2
    assert f3.mul(2, f3.inv(2)) == 1
    assert f4.arith("sub", 0, 1) == f4.neg(1)


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(5, 1).inv(0)


def test_bad_field_parameters():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 17)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        GF(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)


def test_enumerate_elements():
    assert list(make_field(2, 1).elements()) == [0, 1]
    assert list(make_field(3, 1).elements()) == [0, 1, 2]
    f4 = make_field(2, 2)
    assert list(f4.elements()) == [0, 1, 2, 3]
    # 2 and 3 encode the two roots of x^2 + x + 1
    for a in (2, 3):
        assert f4.add(f4.mul(a, a), f4.add(a, 1)) == 0


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_field_axioms_exhaustive(q):
    f = field_for_order(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert sum(1 for b in els if f.add(a, b) == 0) == 1
        if a:
            assert sum(1 for b in els if f.mul(a, b) == 1) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", PRIME_POWERS_256)
def test_frobenius_fixed_points(q):
    f = field_for_order(q)
    for a in f.elements():
        assert f.pow(a, q) == a


@pytest.mark.parametrize("q", PRIME_POWERS_256)
def test_multiplicative_group_cyclic(q):
    f = field_for_order(q)
    g = f.multiplicative_generator()
    x, order = g, 1
    while x != 1:
        x = f.mul(x, g)
        order += 1
    assert order == q - 1


def test_pow_handles_negative_exponents():
    f = make_field(3, 2)
    for a in range(1, f.q):
        assert f.mul(f.pow(a, -1), a) == 1
        assert f.pow(a, 0) == 1


def test_header_roundtrip():
    for f in (make_field(2, 1), make_field(2, 2), make_field(3, 2)):
        assert parse_field_header(f.header()) == f


def test_field_for_order():
    assert field_for_order(8).p == 2 and field_for_order(8).e == 3
    assert field_for_order(9).p == 3
    with pytest.raises(ValueError):
        field_for_order(6)


def test_large_field_scalar_path():
    # beyond the q x q table limit: log/exp tables
    f = make_field(2, 10)
    assert f.q == 1024
    a, b = 513, 700
    assert f.mul(a, f.inv(a)) == 1
    assert f.add(a, b) == a ^ b
    assert f.pow(a, f.q) == a


def _reducible_monics(p, e):
    """Every product of two monic polynomials of positive degree, as coefficient tuples."""
    monics = {d: [c + (1,) for c in product(range(p), repeat=d)] for d in range(1, e)}
    out = set()
    for d in range(1, e // 2 + 1):
        for f, g in product(monics[d], monics[e - d]):
            prod = [0] * (e + 1)
            for i, x in enumerate(f):
                for j, y in enumerate(g):
                    prod[i + j] = (prod[i + j] + x * y) % p
            out.add(tuple(prod))
    return out


@pytest.mark.parametrize("p,e", [(2, 2), (2, 5), (2, 8), (3, 3), (3, 4), (5, 2), (5, 3)])
def test_irreducibility_matches_product_sieve(p, e):
    # oracle: a monic polynomial is reducible iff it is a product of two
    # monic polynomials of lower degree
    reducible = _reducible_monics(p, e)
    for c in product(range(p), repeat=e):
        poly = c + (1,)
        assert _is_irreducible(list(poly), p) == (poly not in reducible)


# -- the vectorized paths against the polynomial reference ---------------------

LARGE_FIELDS = [
    make_field(17, 2),
    make_field(2, 9),
    make_field(3, 6),
    make_field(2, 16),
    make_field(3, 10),
    # x^2 - 3 is irreducible over GF(17) but not the default modulus x^2 + 3
    parse_field_header("# gf p=17 e=2 modulus=14,0,1"),
]


def test_non_default_modulus_header():
    f = LARGE_FIELDS[-1]
    assert f.modulus == (14, 0, 1) and f.modulus != make_field(17, 2).modulus
    # x * x = 3 under this modulus; the default one gives -3 = 14
    assert f.mul(17, 17) == 3 and make_field(17, 2).mul(17, 17) == 14


@pytest.mark.parametrize("f", LARGE_FIELDS, ids=repr)
def test_large_field_array_ops_match_polynomials(f):
    rng = random.Random(f.q + sum(f.modulus))
    # all edge elements, then random ones
    xs = [0, 1, f.q - 1] * 3 + [rng.randrange(f.q) for _ in range(300)]
    ys = [0, 0, 0, 1, 1, 1, f.q - 1, f.q - 1, f.q - 1] + [rng.randrange(f.q) for _ in range(300)]
    x = np.array(xs, dtype=np.int64)
    y = np.array(ys, dtype=np.int64)
    assert f.mul_arr(x, y).tolist() == [f._scalar_mul_poly(a, b) for a, b in zip(xs, ys)]
    assert f.add_arr(x, y).tolist() == [f._scalar_add_poly(a, b) for a, b in zip(xs, ys)]
    neg = f.neg_arr(x).tolist()
    assert all(f._scalar_add_poly(a, n) == 0 for a, n in zip(xs, neg))
    diff = f.sub_arr(x, y).tolist()
    assert all(f._scalar_add_poly(d, b) == a for a, b, d in zip(xs, ys, diff))
    # the scalar operations use the same tables
    assert [f.mul(a, b) for a, b in zip(xs, ys)] == f.mul_arr(x, y).tolist()
    assert [f.add(a, b) for a, b in zip(xs, ys)] == f.add_arr(x, y).tolist()
    assert [f.neg(a) for a in xs] == neg
    for a in xs:
        if a:
            assert f._scalar_mul_poly(a, f.inv(a)) == 1


@pytest.mark.parametrize("f", LARGE_FIELDS, ids=repr)
def test_large_field_matmul_matches_polynomials(f):
    rng = np.random.default_rng(f.q)
    A = rng.integers(0, f.q, size=(3, 4))
    B = rng.integers(0, f.q, size=(4, 5))
    expected = np.zeros((3, 5), dtype=np.int64)
    for i, j, k in product(range(3), range(5), range(4)):
        term = f._scalar_mul_poly(int(A[i, k]), int(B[k, j]))
        expected[i, j] = f._scalar_add_poly(int(expected[i, j]), term)
    assert np.array_equal(f.matmul(A, B), expected)
    # batched left operand
    stack = np.stack([A, A[::-1]])
    assert np.array_equal(f.matmul(stack, B)[0], expected)


# -- field axioms as properties, for both table layouts --------------------------

SMALL_EXTENSIONS = [make_field(p, e) for p, e in [(2, 2), (2, 8), (3, 2), (3, 5), (5, 3), (13, 2)]]


def _check_axioms(f, a, b, c):
    assert f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0 and f.sub(f.add(a, b), b) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1
    # the array operations agree with the scalar ones
    arr = np.array([a, b, c], dtype=np.int64)
    assert f.mul_arr(arr, arr[::-1]).tolist() == [f.mul(a, c), f.mul(b, b), f.mul(c, a)]
    assert f.sub_arr(arr, arr[::-1]).tolist() == [f.sub(a, c), 0, f.sub(c, a)]


def _field_and_elements(fields):
    return st.sampled_from(fields).flatmap(
        lambda f: st.tuples(st.just(f), *[st.integers(0, f.q - 1)] * 3)
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_field_and_elements(LARGE_FIELDS))
def test_field_axioms_large_fields(args):
    _check_axioms(*args)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_field_and_elements(SMALL_EXTENSIONS))
def test_field_axioms_small_extensions(args):
    _check_axioms(*args)
