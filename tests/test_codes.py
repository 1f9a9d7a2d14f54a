import io
import json
import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from conftest import add_digits, class_words_reference, dr_product_reference, dr_reference, field, variety
from grasscode import codes
from grasscode.bounds import dr_equality_max, grassmann_dr_formula
from grasscode.codes import (
    CHUNK,
    _check_macwilliams,
    _class_starts,
    build_code,
    higher_weight,
    min_distance,
    read_code_file,
    weight_enumerator,
    weight_profile,
    write_code_file,
)
from grasscode.errors import BudgetExceededError, SpecParseError
from grasscode.field import GF, digit_adder, field_for_order
from grasscode.grassmann import ProjSystem
from grasscode.indices import gaussian_binomial
from grasscode.linalg import Mat, rref_batch, rref_chunks, zeros
from grasscode.sections import enumerate_variety, parse_variety_spec, pi_forms


def test_build_code_examples():
    gcode = build_code(variety("grassmann:2,4", 2))
    assert (gcode.n, gcode.k) == (35, 6)

    lcode = build_code(variety("lagrangian:2", 2))
    assert (lcode.n, lcode.k) == (15, 5)
    assert lcode.k == 6 - pi_forms(2, field(2)).rank()

    f2 = field(2)
    single = ProjSystem(f2, 6, [variety("grassmann:2,4", 2).points[0]], zeros(f2, 0, 6))
    scode = build_code(single)
    assert (scode.n, scode.k) == (1, 1)

    with pytest.raises(ValueError):
        build_code(ProjSystem(f2, 6, [], zeros(f2, 0, 6)))


def test_min_distance_examples():
    gcode = build_code(variety("grassmann:2,4", 2))
    assert min_distance(gcode, "codewords") == 16  # q^delta at delta=4
    assert min_distance(gcode, "hyperplanes") == 16

    lcode = build_code(variety("lagrangian:2", 2))
    assert min_distance(lcode, "codewords") == 6
    assert min_distance(lcode, "hyperplanes") == 6

    f2 = field(2)
    single = ProjSystem(f2, 6, [variety("grassmann:2,4", 2).points[0]], zeros(f2, 0, 6))
    assert min_distance(build_code(single)) == 1

    with pytest.raises(ValueError):
        min_distance(gcode, "nonsense")


@pytest.mark.parametrize("method", ["codewords", "hyperplanes"])
@pytest.mark.parametrize("q,kernel", [(2, "_transform_weights"), (3, "_span_weights")], ids=["q2", "q3"])
def test_weight_profile_makes_one_r1_pass(q, kernel, method, monkeypatch):
    # n minus the most zeros of a codeword is its least weight: both methods read the memoized pass,
    # which is the transform over F_2 and the span-table chunks otherwise
    passes, scans = [], []
    for name in ("_transform_weights", "_span_weights"):
        run = getattr(codes, name)
        monkeypatch.setattr(codes, name, lambda *args, name=name, run=run: passes.append(name) or run(*args))
    scan = codes._least_subcodes
    monkeypatch.setattr(codes, "_least_subcodes", lambda code, r, *rest: scans.append(r) or scan(code, r, *rest))
    profile = weight_profile(build_code(variety("grassmann:2,4", q)), r_max=1, method=method)
    assert passes == [kernel] and scans == [] and profile.d == profile.higher_weights[0] == q**4


def test_min_distance_budget():
    gcode = build_code(variety("grassmann:2,4", 2))
    with pytest.raises(BudgetExceededError):
        min_distance(gcode, "codewords", budget=10)
    with pytest.raises(BudgetExceededError):
        min_distance(gcode, "hyperplanes", budget=10)


def test_higher_weight_examples():
    gcode = build_code(variety("grassmann:2,4", 2))
    assert higher_weight(gcode, 1) == min_distance(gcode)
    assert [higher_weight(gcode, r) for r in (1, 2, 3)] == [16, 24, 28]
    with pytest.raises(ValueError):
        higher_weight(gcode, 0)
    with pytest.raises(ValueError):
        higher_weight(gcode, 7)
    with pytest.raises(BudgetExceededError):
        higher_weight(gcode, 3, budget=100)

    # r = k on a generator with no zero column: full support
    lcode = build_code(variety("lagrangian:2", 2))
    assert (lcode.generator.a != 0).any(axis=0).all()
    assert higher_weight(lcode, lcode.k) == lcode.n


@pytest.mark.parametrize("spec,q", [("grassmann:2,4", 2), ("lagrangian:2", 2), ("lagrangian:2", 3)])
def test_oracle_agreement_exhaustive(spec, q):
    code = build_code(variety(spec, q))
    assert q**code.k <= 2**12
    assert min_distance(code, "codewords") == min_distance(code, "hyperplanes") == dr_reference(code, 1)
    # the pure-Python reference is exponential in r; these sizes take well under a second
    for r in range(1, {2: 3, 3: 2}[q] + 1):
        assert higher_weight(code, r) == dr_reference(code, r)


@pytest.mark.parametrize("q", [2, 3])
def test_grassmann_24_oracle_agreement(q):
    code = build_code(variety("grassmann:2,4", q))
    for r in (1, 2, 3):
        assert higher_weight(code, r) == grassmann_dr_formula(2, 4, q, r)


def test_weight_enumerator_examples():
    f2 = field(2)
    single = ProjSystem(f2, 6, [variety("grassmann:2,4", 2).points[0]], zeros(f2, 0, 6))
    assert weight_enumerator(build_code(single)) == {0: 1, 1: 1}

    gcode = build_code(variety("grassmann:2,4", 2))
    enum = weight_enumerator(gcode)
    assert min(w for w in enum if w > 0) == 16
    assert sum(enum.values()) == 2**6
    assert enum[0] == 1

    lcode = build_code(variety("lagrangian:2", 2))
    assert sum(weight_enumerator(lcode).values()) == 32


@pytest.mark.parametrize("spec,q", [("grassmann:2,4", 2), ("lagrangian:2", 2)])
def test_weight_chain_monotone_and_singleton(spec, q):
    code = build_code(variety(spec, q))
    chain = [higher_weight(code, r) for r in range(1, code.k + 1)]
    assert all(a < b for a, b in zip(chain, chain[1:]))
    assert all(dr <= code.n - code.k + r for r, dr in enumerate(chain, start=1))
    assert chain[-1] == code.n  # no identically-zero position


@pytest.mark.parametrize(
    "spec,q",
    [
        ("grassmann:2,4", 2),
        ("grassmann:2,4", 3),
        ("schubert:2,5:2,5", 2),
        ("schubert:2,4:2,4", 3),
        ("lagrangian:3", 2),
        ("lagrangian:2", 3),
        ("isotropic:2,3", 2),
        ("isotropic:1,2", 3),
    ],
)
def test_macwilliams_dual_distribution(spec, q):
    # B_j = q^-k sum_i A_i K_j(i) counts dual codewords of weight j; a
    # projective system has no zero column (B_1 = 0) and no two
    # proportional columns (B_2 = 0)
    code = build_code(variety(spec, q))
    enum, n = weight_enumerator(code), code.n
    dual = []
    for j in range(n + 1):
        total = sum(
            a * sum((-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s) for s in range(j + 1))
            for i, a in enum.items()
        )
        assert total >= 0 and total % q**code.k == 0
        dual.append(total // q**code.k)
    assert dual[:3] == [1, 0, 0]
    assert sum(dual) == q ** (n - code.k)


def test_scale_invariance():
    rng = random.Random(7)
    f3 = field(3)
    base = variety("lagrangian:2", 3)
    scaled_points = []
    for point in base.points:
        c = rng.randrange(1, 3)
        scaled_points.append(tuple(f3.mul(c, x) for x in point))
    scaled = ProjSystem(f3, base.ambient_dim, scaled_points, zeros(f3, 0, base.ambient_dim))
    code0 = build_code(base)
    code1 = build_code(scaled)
    assert (code0.n, code0.k) == (code1.n, code1.k)
    assert min_distance(code0) == min_distance(code1)
    assert higher_weight(code0, 2) == higher_weight(code1, 2)


def test_worker_count_independence():
    code = build_code(variety("lagrangian:3", 2))
    assert min_distance(code, workers=1) == min_distance(code, workers=4)
    assert weight_enumerator(code, workers=1) == weight_enumerator(code, workers=4)
    small = build_code(variety("lagrangian:2", 2))
    assert higher_weight(small, 2, workers=1) == higher_weight(small, 2, workers=4)
    p1 = weight_profile(small, r_max=2, workers=1).to_json_dict()
    p4 = weight_profile(small, r_max=2, workers=4).to_json_dict()
    assert json.dumps(p1) == json.dumps(p4)


def test_code_file_roundtrip(tmp_path):
    code = build_code(variety("lagrangian:2", 2))
    path = tmp_path / "l24.code"
    write_code_file(code, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# gf p=2 e=1 modulus=0,1"
    assert lines[1] == "# code n=15 k=5 source=lagrangian:2"
    assert lines[2:] == [" ".join(map(str, row)) for row in code.generator.a.tolist()]
    back = read_code_file(str(path))
    assert back.generator == code.generator
    assert (back.n, back.k) == (code.n, code.k)
    assert back.source_string() == "lagrangian:2"
    assert min_distance(back) == min_distance(code)


def test_code_file_is_savetxt_bytes_with_multidigit_entries(tmp_path):
    # entries up to 288, and the body byte for byte as np.savetxt(fmt="%d") writes it
    code = build_code(variety("grassmann:1,2", 17, 2))
    path = tmp_path / "g12.code"
    write_code_file(code, str(path))
    body = io.BytesIO()
    np.savetxt(body, code.generator.a, fmt="%d")
    header = b"# gf p=17 e=2 modulus=3,0,1\n# code n=290 k=2 source=grassmann:1,2\n"
    assert code.generator.a.max() >= 100
    assert path.read_bytes() == header + body.getvalue()
    assert read_code_file(str(path)).generator == code.generator


@pytest.mark.parametrize("q", [2, 3, 11, 13, 181, 191, 4, 9, 289])
def test_field_elements_are_held_in_field_dtype(q, tmp_path):
    # one dtype from the odometer to the generator: int8, int16, int32 and intp
    F = field_for_order(q)
    a = np.random.default_rng(q).integers(0, q, (5, 3))
    mat = Mat(F, a)
    assert mat.left_kernel().rows == 5 - mat.rank() > 0
    assert mat.a.dtype == mat.rref_basis().a.dtype == mat.left_kernel().a.dtype == F.dtype
    assert rref_batch(F, 4, (0, 2), 0, q**3).dtype == F.dtype
    assert F.matmul(a, a.T).dtype == F.matmul(mat.a[:, :0], mat.a[:0]).dtype == F.dtype
    system = enumerate_variety(parse_variety_spec("grassmann:1,2"), F)
    code = build_code(system)
    path = tmp_path / "g12.code"
    write_code_file(code, str(path))
    assert system.points.dtype == code.generator.a.dtype == read_code_file(str(path)).generator.a.dtype == F.dtype


def test_read_code_file_errors(tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("# gf p=2 e=1 modulus=0,1\n# code n=2 k=2 source=unknown\n1 1\n1 1\n")
    with pytest.raises(SpecParseError):
        read_code_file(str(bad))  # dependent rows
    bad.write_text("not a header\n")
    with pytest.raises(SpecParseError):
        read_code_file(str(bad))
    bad.write_text("# gf p=2 e=1 modulus=0,1\n# code n=3 k=1 source=unknown\n1 1\n")
    with pytest.raises(SpecParseError):
        read_code_file(str(bad))  # shape mismatch
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(SpecParseError, match="not a text file"):
        read_code_file(str(bad))


def test_weight_profile_consistency():
    code = build_code(variety("lagrangian:2", 2))
    profile = weight_profile(code, r_max=code.k)
    assert profile.d == profile.higher_weights[0] == 6
    assert profile.higher_weights[-1] == code.n
    payload = profile.to_json_dict()
    assert payload["n"] == 15 and payload["k"] == 5
    assert list(payload["enumerator"]) == sorted(payload["enumerator"], key=int)


def test_subcode_scan_counts():
    # the scan chunks cover exactly gaussian_binomial(k, r, q) representatives
    code = build_code(variety("grassmann:2,4", 2))
    for r in range(1, code.k + 1):
        total = sum(stop - start for _, start, stop in rref_chunks(2, r, code.k, CHUNK))
        assert total == gaussian_binomial(code.k, r, 2)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 6), (3, 4), (4, 3), (5, 2), (9, 2)])
def test_class_index_of_r1_batches_is_arange(q, k):
    # the r = 1 pass lays the class weights out in this order, and the r >= 2
    # kernel reads class i of pivot p at starts[p] + (its digits after p, base q)
    F = field_for_order(q)
    rows = np.concatenate([rref_batch(F, k, *c)[:, 0] for c in rref_chunks(q, 1, k, 7)])
    pivot = (rows != 0).argmax(axis=1)
    tail = rows @ q ** np.arange(k - 1, -1, -1) - q ** (k - 1 - pivot)
    starts = _class_starts(q, k)
    assert starts[k] == len(rows)
    assert np.array_equal(np.array(starts)[pivot] + tail, np.arange(len(rows)))


def _random_code_file(tmp_path, q, k, n, seed):
    """A code file over field(q) (q = p^e) with a random full-rank k x n generator."""
    rng = random.Random(seed)
    p, e = {4: (2, 2), 9: (3, 2), 289: (17, 2)}.get(q, (q, 1))
    path = tmp_path / f"q{q}.code"
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        text = f"{field(p, e).header()}\n# code n={n} k={k} source=unknown\n"
        path.write_text(text + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        try:
            return read_code_file(str(path))
        except SpecParseError:  # dependent rows: draw again
            continue


@pytest.mark.parametrize("chunk", [4, 16, CHUNK])
@pytest.mark.parametrize("q,k,n", [(2, 6, 9), (3, 4, 7), (4, 4, 6), (9, 3, 7), (289, 2, 5)])
def test_class_pass_matches_scalar_reference(q, k, n, chunk, tmp_path, monkeypatch):
    # small chunks give many chunks per pivot and pivots with fewer free
    # digits than the span table has rows; at 289 only the default chunk
    # builds a span table of more than the zero word
    monkeypatch.setattr(codes, "CHUNK", chunk)
    code = _random_code_file(tmp_path, q, k, n, seed=q + chunk)
    classes = codes._classes(code, workers=1)
    weights = [sum(x != 0 for x in word) for word in class_words_reference(code)]
    assert classes.weights.tolist() == weights
    assert classes.tally.tolist() == np.bincount(weights, minlength=n + 1).tolist()


@pytest.mark.parametrize("q,k,n", [(2, 8, 11), (3, 5, 7)])
def test_class_pass_in_small_blocks_matches_scalar_reference(q, k, n, tmp_path, monkeypatch):
    # a chunk compared a few rows at a time, and the tally in several blocks
    monkeypatch.setattr(codes, "COMPARED", 3)
    monkeypatch.setattr(codes, "TALLY", 5)
    code = _random_code_file(tmp_path, q, k, n, seed=q)
    classes = codes._classes(code, workers=1)
    weights = [sum(x != 0 for x in word) for word in class_words_reference(code)]
    assert classes.weights.tolist() == weights
    assert classes.tally.tolist() == np.bincount(weights, minlength=n + 1).tolist()


def test_class_pass_peaks_under_7_bytes_per_class():
    # G(3,6) q=2 has 2^20 - 1 classes: the transform runs in place in their
    # int32 weights, 4 bytes each; an intp copy of every weight for the
    # tally would take 8
    code = build_code(variety("grassmann:3,6", 2))
    tracemalloc.start()
    try:
        classes = codes._classes(code, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes.weights) == 2**20 - 1
    assert peak <= 7 * len(classes.weights)


def test_corrupted_span_table_fails_least_weight_check(monkeypatch):
    code = build_code(variety("grassmann:2,4", 3))
    span_table = codes._span_table

    def corrupt(code, b):
        # row 1 of the span table is the last generator row g_k; made e_1 - g_1,
        # it turns the class of g_1 + g_k into the word e_1: weight 1, below d = 27
        table = span_table(code, b)
        table[1] = code.field.sub_arr(0, code.generator.a[0])
        table[1, 0] = (int(table[1, 0]) + 1) % 3
        return table

    monkeypatch.setattr(codes, "_span_table", corrupt)
    with pytest.raises(RuntimeError, match="least class weight 1 in the pass"):
        min_distance(code)


def test_corrupted_transform_fails_least_weight_check(monkeypatch):
    code = build_code(variety("grassmann:2,4", 2))
    butterflies = codes._butterflies

    def corrupt(region, h):
        # the last level of the block of pivot 0 leaves its transform outputs;
        # n - 2 there makes the class of e_1 weight 1, below d = 16
        butterflies(region, h)
        if len(region) == 2 * h:
            region[0] = code.n - 2

    monkeypatch.setattr(codes, "_butterflies", corrupt)
    with pytest.raises(RuntimeError, match="least class weight 1 in the pass"):
        min_distance(code)


def test_class_weights_sum_to_support_check(monkeypatch):
    # one class weight one too high, above the least: only the sum over all classes sees it
    code = build_code(variety("grassmann:2,4", 3))
    span_weights = codes._span_weights

    def corrupt(code, workers):
        weights = span_weights(code, workers)
        weights[weights.argmax()] += 1
        return weights

    monkeypatch.setattr(codes, "_span_weights", corrupt)
    with pytest.raises(RuntimeError, match="class weights sum to 31591, support 130 needs 31590"):
        min_distance(code)


def _binary_code_file(tmp_path, k, n, seed):
    """A code file over F_2 with a random rank-k generator whose column 0 is zero and columns 1, 2 are equal."""
    rng = random.Random(seed)
    path = tmp_path / f"k{k}.code"
    while True:
        columns = [[0] * k] + 2 * [[rng.randrange(2) for _ in range(k)]] + [
            [rng.randrange(2) for _ in range(k)] for _ in range(n - 3)
        ]
        rows = [" ".join(str(col[i]) for col in columns) for i in range(k)]
        path.write_text(f"{field(2).header()}\n# code n={n} k={k} source=unknown\n" + "\n".join(rows) + "\n")
        try:
            return read_code_file(str(path))
        except SpecParseError:  # dependent rows: draw again
            continue


@pytest.mark.parametrize(
    "source",
    [
        "grassmann:2,4",
        "grassmann:2,5",
        "grassmann:2,6",
        "lagrangian:2",
        "lagrangian:3",
        "isotropic:2,3",
        "schubert:2,5:2,5",
        "elambda:2,4:1,2;1,3",
        pytest.param((1, 4), id="file-k1"),
        pytest.param((2, 5), id="file-k2"),
        pytest.param((8, 24), id="file-k8"),
    ],
)
def test_transform_matches_span_table_pass_at_q2(source, tmp_path):
    # every class weight and the whole tally, against the kernel that runs for q > 2
    if isinstance(source, str):
        code = build_code(variety(source, 2))
    else:
        code = _binary_code_file(tmp_path, *source, seed=sum(source))
        assert not code.generator.a[:, 0].any() and np.array_equal(code.generator.a[:, 1], code.generator.a[:, 2])
    classes = codes._classes(code, workers=1)
    reference = codes._span_weights(code, workers=1)
    assert classes.weights.dtype == reference.dtype == np.int32
    assert np.array_equal(classes.weights, reference)
    assert classes.tally.tolist() == np.bincount(reference, minlength=code.n + 1).tolist()


@pytest.mark.parametrize(
    "source,ref_r",
    [
        (("grassmann:2,4", 2), 3),  # GF(2)
        (("lagrangian:2", 3), 2),  # GF(3)
        (("grassmann:1,3", 2, 2), 3),  # GF(2^2)
        ((9, 3, 7), 2),  # GF(3^2), a random code file
        ((289, 3, 6), 0),  # GF(17^2), above the q x q tables; no reference at 289^3 words
        (("lagrangian:2", 5), 0),  # k = 5 over GF(5): two digit groups in the vector sum
    ],
    ids=["gf2", "gf3", "gf4", "gf9-file", "gf289-file", "lagrangian2-gf5"],
)
def test_table_path_matches_fallback_and_reference(source, ref_r, tmp_path):
    # the class-weight kernel against the product scan that was its fallback
    # (now conftest.dr_product_reference) at every r < k, the closed form, and
    # the pure-Python dr_reference, which tries every r-set of codewords and
    # so runs only up to the r shown
    if isinstance(source[0], str):
        code = build_code(variety(*source))
    else:
        code = _random_code_file(tmp_path, *source, seed=5)
    weights = [higher_weight(code, r) for r in range(1, code.k + 1)]
    assert weights[-1] == int((code.generator.a != 0).any(axis=0).sum())  # r = k
    assert weights[:-1] == [dr_product_reference(code, r) for r in range(1, code.k)]
    assert weights[:ref_r] == [dr_reference(code, r) for r in range(1, ref_r + 1)]
    if isinstance(source[0], str) and source[0].startswith("grassmann:"):
        ell, m = map(int, source[0].split(":")[1].split(","))
        top, q = dr_equality_max(ell, m), code.field.q
        assert weights[:top] == [grassmann_dr_formula(ell, m, q, r) for r in range(1, top + 1)]


def test_products_only_in_checks_and_none_at_r_equal_k(monkeypatch):
    # once the r = 1 pass is done, r < k needs field products only to
    # rebuild the attaining subcode (two products), and d_k is read off the
    # generator's nonzero columns
    calls = []
    matmul = GF.matmul
    monkeypatch.setattr(GF, "matmul", lambda self, a, b: calls.append(1) or matmul(self, a, b))
    code = build_code(variety("grassmann:2,4", 2))
    higher_weight(code, 1)
    for r, products in ((2, 2), (3, 2), (code.k, 0)):
        calls.clear()
        higher_weight(code, r)
        assert len(calls) == products


@pytest.mark.parametrize("q,k", [(3, 14), (5, 5), (9, 7), (4, 5), (289, 3), (1031, 3)])
def test_vector_add_matches_field_addition(q, k):
    # the scans' vector sum on base-q values of F_q^k, k e base-p digits each:
    # several digit groups at 3^14, 5^5 and 9^7, and single digits at 1031;
    # checked against digit-by-digit polynomial addition, not against the field
    F = field_for_order(q)
    digits = k * F.e
    rng = np.random.default_rng(q)
    a = [0, q**k - 1, q**k - 1] + rng.integers(0, q**k, 500).tolist()
    b = [q**k - 1, 0, q**k - 1] + rng.integers(0, q**k, 500).tolist()
    add = digit_adder(F.p, digits, np.int32)
    got = add(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert got.tolist() == [add_digits(F.p, digits, x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("q", [2, 3])
def test_zero_column_is_outside_the_support(q, tmp_path):
    # d_k = |supp C|: every generator column but the zero one
    path = tmp_path / "zero.code"
    rows = "1 0 0 1 0 1\n0 1 0 1 0 1\n0 0 1 1 0 2\n".replace("2", str(q - 1))
    path.write_text(f"{field(q).header()}\n# code n=6 k=3 source=unknown\n{rows}")
    code = read_code_file(str(path))
    assert higher_weight(code, code.k) == code.n - 1
    assert [higher_weight(code, r) for r in (1, 2)] == [dr_reference(code, r) for r in (1, 2)]


@pytest.mark.parametrize("spec,q", [("grassmann:2,4", 3), ("lagrangian:2", 2)])
def test_profiles_identical_for_one_and_two_workers(spec, q, monkeypatch):
    # small chunks, so both the r = 1 pass and the r >= 2 scans split many ways
    monkeypatch.setattr(codes, "CHUNK", 16)
    monkeypatch.setattr(codes, "SUBCODES", 16)
    profiles = [
        weight_profile(build_code(variety(spec, q)), r_max=3, workers=w).to_json_dict()
        for w in (1, 2)
    ]
    assert json.dumps(profiles[0]) == json.dumps(profiles[1])


def test_corrupted_table_row_fails_support_identity():
    code = build_code(variety("grassmann:2,4", 2))
    assert higher_weight(code, 2) == 24
    weights = code._class_memo.weights
    least = int(weights.argmin())
    # lowered by q^(r-1) = 2, the class makes every subcode holding it report one
    # less support; the first of them, rebuilt by products, has the true support
    weights[least] -= 2
    with pytest.raises(RuntimeError, match="least subcode support 23 in the scan, 24 as message times G"):
        higher_weight(code, 2)
    # lowered by 1, the class weights of those subcodes no longer sum to a multiple of 2
    weights[least] += 1
    with pytest.raises(RuntimeError, match="not divisible by 2"):
        higher_weight(code, 2)


def test_macwilliams_check():
    _check_macwilliams({0: 1, 2: 1}, n=2, q=2, k=1)  # repetition code
    _check_macwilliams(weight_enumerator(build_code(variety("lagrangian:2", 3))), n=40, q=3, k=5)
    with pytest.raises(RuntimeError, match="MacWilliams"):
        _check_macwilliams({0: 1, 1: 3}, n=2, q=2, k=2)  # B_1 = 1/2
