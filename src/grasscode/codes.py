"""Linear codes from projective systems and their exhaustive invariants.

The code of a system is the row space of the matrix whose columns are the
points; the generator is canonicalized by rref.  Every scan walks
r-dimensional subcodes as canonical rref bases in the order of
``linalg.rref_chunks``, in fixed blocks, so results are identical for
any worker count (the transform over F_2 runs on no pool).

For r = 1 there is one normalized message per projective class of
codewords, and one pass over them (memoized on the ``LinearCode``)
keeps the weight of every class in canonical order, and their tally,
hence ``d``, ``d_1`` and the weight enumerator.  The pass multiplies no
field elements per class.  Over F_2 it is one in-place Walsh-Hadamard
transform of the column counts f(x), since wt(cG) = (n - sum_x f(x)
(-1)^(c.x)) / 2 (the codeword cG is zero on the columns in c^perp;
Tsfasman-Vladut): k 2^k additions in one int32 array, written in
canonical class order, with no dependence on n.  For q > 2 the span
table T of the last b generator rows (q^b <= ``CHUNK``) is built once by
doubling, a chunk of classes sharing its pivot and higher digits is
s + T[:size] for the word s of its first message, and s + T[i] is zero
exactly where T[i] = -s, so one comparison per entry and a popcount give
the chunk's weights (Bouyukliev-Bakoev 2008 build codewords by such
additions); the tests run it at q = 2 as the transform's reference.
The first class of least weight is rebuilt as message times G with
``field.matmul`` and checked against the pass, and the class weights
must sum to q^(k-1) |supp C|, as each nonzero column is nonzero on
q^(k-1) classes.

Each position in the support of an r-dim subcode D is nonzero on exactly
q^(r-1) of its (q^r - 1)/(q - 1) classes, so |supp D| = q^-(r-1) times
the sum of their weights (Wei 1991), and ``d_r`` for 2 <= r < k needs
only the class weights.  The classes of D with canonical basis
u_1..u_r are u_i + s, s in the span of the rows below u_i; each is
already normalized, and its index is the start of the pivot of u_i plus
the base-q value of its digits after that pivot.  Row i's digits are a
contiguous slice of the odometer value, so a per-pivot-set table gives
the base-q value of every multiple of every row, and the sum of two
vectors adds the base-p digits of their base-q values mod p, as field
sums do (``field.digit_adder``).  No codeword is formed and no field
product is taken; every sum of class weights must be divisible by
q^(r-1).  The first subcode attaining ``d_r`` is rebuilt from its
codewords with ``field.matmul``: the union of their supports must be
``d_r``, and
sum_{c in D} wt(c) = (q^r - q^(r-1)) |supp D| must hold.  The one
subcode of dimension k is the code itself, so ``d_k`` is |supp C|, the
number of nonzero generator columns, with no scan.

``weight_profile`` checks that the MacWilliams transform of the
enumerator is a distribution.  A hyperplane c^perp holds exactly the
zero positions of the codeword c G, so n minus the most points on a
hyperplane is the least weight: both ``min_distance`` methods read the
same pass and differ only in the scan size they budget.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .errors import BudgetExceededError, SpecParseError
from .field import GF, digit_adder, parse_field_header
from .grassmann import ProjSystem
from .indices import gaussian_binomial
from .linalg import Mat, rref_batch, rref_chunks

DEFAULT_SCAN_BUDGET = 1 << 26
CHUNK = 1024
# subcodes per block of an r >= 2 scan
SUBCODES = 1 << 14
# codeword entries per block of the attaining-subcode rebuild
WORDS = 1 << 20
# span-table rows per comparison of the r = 1 pass, so its boolean block stays small
COMPARED = 256
# pair distance from which a transform level runs on whole rows, not one strided view per offset
STRIDED = 8
# class weights per block of the r = 1 tally; bincount casts each block to intp
TALLY = 1 << 16


@dataclass
class LinearCode:
    field: GF
    n: int
    k: int
    generator: Mat
    provenance: object = None
    _class_memo: _Classes | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def source_string(self) -> str:
        if self.provenance is None:
            return "unknown"
        if isinstance(self.provenance, str):
            return self.provenance
        return self.provenance.serialize()


def build_code(system: ProjSystem) -> LinearCode:
    """Code of the projective system; columns follow the system's point order.

    The generator is the rref basis of the row space of the point matrix,
    so k is its rank.  ``bounds`` checks k against the rank of the
    defining forms, which is other arithmetic than this elimination.
    """
    if not len(system):
        raise ValueError("empty projective system defines no code")
    gen = system.point_matrix().rref_basis()
    return LinearCode(system.field, len(system), gen.rows, gen, provenance=system.source)


# -- scans over r-dimensional subcodes -------------------------------------------


def _pool_map(run, chunks, workers: int) -> list:
    """[run(c) for c in chunks], on a thread pool when workers > 1; results keep chunk order."""
    if workers <= 1:
        return [run(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, chunks))


def _support(code: LinearCode) -> int:
    """|supp C|, the number of nonzero generator columns."""
    return int(np.count_nonzero(code.generator.a.any(axis=0)))


def _class_starts(q: int, k: int) -> list[int]:
    """starts[p]: the canonical r = 1 index of the first class with its leading 1 at p; starts[k] counts all.

    A normalized message with its leading 1 at p is the t-th class of its
    pivot, t the base-q value of its digits after p, and the
    q^(k-1) + ... + q^(k-p) classes with an earlier pivot come before it.
    """
    return [(q**k - q ** (k - p)) // (q - 1) for p in range(k + 1)]


@dataclass
class _Classes:
    """The r = 1 pass: weights[i] the weight of class i in canonical order, tally[w] the classes of weight w.

    ``add`` is the vector sum on base-q values that the r >= 2 scans use,
    built on their first call (``field.digit_adder``).
    """

    tally: np.ndarray
    weights: np.ndarray
    add: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def _span_table(code: LinearCode, b: int) -> np.ndarray:
    """(q^b, n) words of every combination of the last b generator rows, in odometer order.

    Built by doubling: the words whose coefficient on the next row up is
    c are the words so far plus c times that row, so every prefix of
    q^j rows is the span of the last j rows.
    """
    F = code.field
    table = np.zeros((F.q**b, code.n), dtype=np.uint8 if F.q <= 256 else np.uint16)
    size = 1
    for row in code.generator.a[::-1][:b]:
        for c in range(1, F.q):
            table[c * size : (c + 1) * size] = F.add_arr(table[:size], F.mul_arr(c, row))
        size *= F.q
    return table


def _span_weights(code: LinearCode, workers: int) -> np.ndarray:
    """The weight of every class in canonical order, by span-table chunks: the pass for q > 2.

    Chunks of up to q^b classes share their pivot and the digits above the last
    b, so a chunk's words are s + T[:size], s the word of its first message.
    It runs at any q; at q = 2 it is the tests' reference for the transform.
    """
    F, k, n = code.field, code.k, code.n
    q = F.q
    b = 0
    while b < k - 1 and q ** (b + 1) <= CHUNK:
        b += 1
    span = _span_table(code, b)
    starts = _class_starts(q, k)
    weights = np.empty(starts[k], dtype=np.int32)

    def run(chunk):
        pivots, start, stop = chunk
        message = rref_batch(F, k, pivots, start, start + 1)[:, 0]
        minus_s = F.sub_arr(0, F.matmul(message, code.generator.a)[0]).astype(span.dtype)
        support = np.zeros((stop - start, -(-n // 64)), dtype=np.uint64)
        bits = support.view(np.uint8)[:, : -(-n // 8)]
        for lo in range(0, stop - start, COMPARED):
            hi = min(lo + COMPARED, stop - start)
            bits[lo:hi] = np.packbits(span[lo:hi] != minus_s, axis=1, bitorder="little")
        first = starts[pivots[0]] + start
        weights[first : first + len(support)] = np.bitwise_count(support).sum(axis=1)

    _pool_map(run, rref_chunks(q, 1, k, q**b), workers)
    return weights


def _butterflies(region: np.ndarray, h: int) -> None:
    """One Walsh-Hadamard level in place: each pair (a, b) at distance h in a block of 2h becomes (a + b, a - b).

    No temporary: a += b, then b = a - 2b.  Below ``STRIDED`` each offset in
    the pair is its own strided view, as numpy runs short inner rows slowly.
    """
    pairs = region.reshape(-1, 2, h)
    if h < STRIDED:
        halves = [(pairs[:, 0, i], pairs[:, 1, i]) for i in range(h)]
    else:
        halves = [(pairs[:, 0], pairs[:, 1])]
    for a, b in halves:
        a += b
        b *= -2
        b += a


def _transform_weights(code: LinearCode) -> np.ndarray:
    """The weight of every class in canonical order over F_2, by one in-place Walsh-Hadamard transform.

    f[x] counts the columns equal to x, row 0 of G the top bit, and
    wt(cG) = (n - sum_x f[x] (-1)^(c.x)) / 2 (the projective-system view:
    cG is zero exactly at the columns on c^perp).  Split the fold of the
    classes left, f[lo : lo + 2^(j+1)], on its top bit into f0 and f1:
    f0 - f1, transformed, gives the classes with their leading 1 on that
    bit, and f0 + f1 the fold of those after it.  So with f0 - f1 written
    in the low half, block B_j lands at its canonical start 2^k - 2^(j+1),
    and the last entry is the zero message.  The blocks B_j with j > l fill
    f[: 2^k - 2^(l+1)] and are aligned to their size, so transform level
    2^l of all of them is one pass over that prefix: k 2^k additions, none
    depending on n, in one int32 array.  Every partial sum is at most n in
    absolute value and a butterfly forms 2b, so int32 is exact for n < 2^30.
    """
    k, n = code.k, code.n
    f = np.zeros(1 << k, dtype=np.int32)
    np.add.at(f, (1 << np.arange(k - 1, -1, -1)) @ code.generator.a, 1)
    lo = 0
    for j in range(k - 1, -1, -1):
        f0, f1 = f[lo : lo + (1 << j)], f[lo + (1 << j) : lo + (2 << j)]
        f1 += f0
        f0 *= 2
        f0 -= f1
        lo += 1 << j
    for l in range(k - 1):
        _butterflies(f[: (1 << k) - (2 << l)], 1 << l)
    weights = f[:-1]
    np.subtract(n, weights, out=weights)
    weights >>= 1
    return weights


def _classes(code: LinearCode, workers: int) -> _Classes:
    """The r = 1 pass, run once per code; callers have budgeted (q^k - 1)/(q - 1) classes.

    Over F_2 the weights come from one transform, otherwise from span-table chunks.
    """
    if code._class_memo is not None:
        return code._class_memo
    F, k, n = code.field, code.k, code.n
    weights = _transform_weights(code) if F.q == 2 else _span_weights(code, workers)
    # argmin takes the first of the least, so the class checked is the canonical first
    least = int(weights.argmin())
    starts = _class_starts(F.q, k)
    p = int(np.searchsorted(starts, least, side="right")) - 1
    message = rref_batch(F, k, (p,), least - starts[p], least - starts[p] + 1)[:, 0]
    rebuilt = int(np.count_nonzero(F.matmul(message, code.generator.a)))
    if rebuilt != weights[least]:
        raise RuntimeError(f"least class weight {weights[least]} in the pass, {rebuilt} as message times G")
    # a nonzero column is nonzero on q^(k-1) classes, a zero column on none
    total, support = int(weights.sum(dtype=np.int64)), _support(code)
    if total != F.q ** (k - 1) * support:
        raise RuntimeError(f"class weights sum to {total}, support {support} needs {F.q ** (k - 1) * support}")
    tally = np.zeros(n + 1, dtype=np.intp)
    for lo in range(0, len(weights), TALLY):
        tally += np.bincount(weights[lo : lo + TALLY], minlength=n + 1)
    code._class_memo = _Classes(tally, weights)
    return code._class_memo


def _row_tables(q: int, k: int, pivots: tuple[int, ...], products: np.ndarray) -> list:
    """(tail, multiples) of each row of the canonical bases with these pivots, over its free digits t.

    tail[t] is the base-q value of the row with its leading 1 dropped, and
    multiples[c - 1, t] the base-q value of c times the row.  A row's free
    columns hold the digits of t, its first free column the most
    significant; products is the q x q multiplication table.
    """
    out = []
    for p in pivots:
        values = np.arange(q, dtype=np.int64)[:, None] * q ** (k - 1 - p)
        for j in (j for j in range(p + 1, k) if j not in pivots):
            values = (values[:, :, None] + products[:, None, :] * q ** (k - 1 - j)).reshape(q, -1)
        out.append((values[1] - q ** (k - 1 - p), values[1:]))
    return out


def _lower_rows(rows: list, led: list, add, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums, span) over the odometer values start..stop-1 of the given rows, the last fastest.

    sums[j] adds the weights of the classes those rows lead; span (q^len(rows), N)
    holds the base-q values of their span, zero first.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    sums, span = 0, np.zeros((1, stop - start), dtype=np.int64)
    for (tail, multiples), weights in zip(rows[::-1], led[::-1]):
        t = idx % len(tail)
        idx //= len(tail)
        sums = sums + weights[add(tail[t], span)].sum(axis=0)
        span = np.concatenate([span, add(multiples[:, None, t], span[None]).reshape(-1, len(t))])
    return sums, span


def _least_subcodes(code: LinearCode, r: int, classes: _Classes, workers: int) -> list:
    """(least support, pivots, odometer index of the first subcode attaining it) per block of r-dim subcodes.

    The normalized messages of the subcode with canonical rref basis
    u_1..u_r are u_i + s, s in the span of the rows below u_i, and the
    digits of u_i, which are 0 at every other pivot, are one contiguous
    slice of the odometer value.  So every class index is a table lookup,
    a vector sum and the start of the pivot of u_i, and
    |supp D| = q^-(r-1) sum_{P in D} wt(P) (Wei 1991) needs no codeword.
    A block is a range of top-row digits times a range of the digits of
    the rows below, whose sums and span it shares.
    """
    F, k = code.field, code.k
    q, scale = F.q, F.q ** (r - 1)
    els = np.arange(q, dtype=np.int64)
    products = F.mul_arr(els[:, None], els[None, :]).astype(np.int64)
    starts, add = _class_starts(q, k), classes.add
    parts = []
    for pivots in combinations(range(k), r):
        rows = _row_tables(q, k, pivots, products)
        # the weights of the classes led by each row, indexed by tail value
        led = [classes.weights[starts[p] :] for p in pivots]
        tail, top = rows[0][0], len(rows[0][0])
        low = prod(len(t) for t, _ in rows[1:])
        width = min(low, SUBCODES)
        height = max(1, SUBCODES // width)
        for l0 in range(0, low, width):
            low_sums, span = _lower_rows(rows[1:], led[1:], add, l0, min(l0 + width, low))

            def run(t0):
                sums = led[0][add(tail[t0 : t0 + height, None, None], span)].sum(axis=1) + low_sums
                if (sums % scale).any():
                    raise RuntimeError(f"class weights of a subcode sum to a value not divisible by {scale}")
                i, j = np.unravel_index(sums.argmin(), sums.shape)
                return int(sums[i, j]) // scale, pivots, (t0 + int(i)) * low + l0 + int(j)

            parts += _pool_map(run, range(0, top, height), workers)
    return parts


def _check_attaining_subcode(code: LinearCode, basis: np.ndarray, support: int) -> None:
    """Rebuild the subcode D spanned by basis as one word per class, by message times G, and check
    that |supp D| = support, and sum_{c in D} wt(c) = (q^r - q^(r-1)) support."""
    F, r = code.field, len(basis)
    coeffs = np.concatenate([rref_batch(F, r, *c) for c in rref_chunks(F.q, 1, r, F.q**r)])
    messages = F.matmul(coeffs, basis)
    # the words of a block of classes at a time, so about WORDS entries are held
    block = max(1, WORDS // code.n)
    covered, total = np.zeros(code.n, dtype=bool), 0
    for lo in range(0, len(messages), block):
        words = F.matmul(messages[lo : lo + block], code.generator.a)
        covered |= words.any(axis=(0, 1))
        total += int(np.count_nonzero(words))
    union = int(np.count_nonzero(covered))
    if union != support:
        raise RuntimeError(f"least subcode support {support} in the scan, {union} as message times G")
    if total != F.q ** (r - 1) * support:
        raise RuntimeError(
            f"subcode weights sum to {total}, support {support} needs {F.q ** (r - 1) * support}"
        )


# -- budgets: (scan name, scan size), checked before a scan starts -------------


def _check(scan: tuple[str, int], budget: int) -> None:
    what, needed = scan
    if needed > budget:
        raise BudgetExceededError(what, needed, budget)


def _distance_scan(code: LinearCode, method: str) -> tuple[str, int]:
    q, k = code.field.q, code.k
    if method == "codewords":
        return "codeword scan", q**k
    if method == "hyperplanes":
        return "hyperplane scan", (q**k - 1) // (q - 1)
    raise ValueError(f"unknown method {method!r}")


def _subcode_scan(code: LinearCode, r: int) -> tuple[str, int]:
    if not 1 <= r <= code.k:
        raise ValueError(f"need 1 <= r <= k={code.k}, got r={r}")
    return f"subcode scan (r={r})", gaussian_binomial(code.k, r, code.field.q)


def _enumerator_scan(code: LinearCode) -> tuple[str, int]:
    return "weight enumerator scan", code.field.q**code.k


def _least_weight(code: LinearCode, workers: int) -> int:
    return int(np.flatnonzero(_classes(code, workers).tally[1:])[0]) + 1


def min_distance(
    code: LinearCode,
    method: str = "codewords",
    workers: int = 1,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> int:
    """Exhaustive minimum distance, the least weight of the r = 1 pass; method names the scan budgeted."""
    _check(_distance_scan(code, method), budget)
    return _least_weight(code, workers)


def higher_weight(
    code: LinearCode, r: int, workers: int = 1, budget: int = DEFAULT_SCAN_BUDGET
) -> int:
    """Minimum support size over r-dimensional subcodes, scanned exhaustively."""
    _check(_subcode_scan(code, r), budget)
    F, k = code.field, code.k
    if r == 1:
        return _least_weight(code, workers)
    if r == k:
        return _support(code)
    # for r < k the r = 1 pass costs [k, 1]_q <= [k, r]_q, inside the budget
    classes = _classes(code, workers)
    if classes.add is None:
        # int32 holds every digit-group sum, and keeps the table at 4 bytes an entry
        classes.add = digit_adder(F.p, k * F.e, np.int32)
    # ties go to the least (pivots, index), so the subcode checked is the canonical first
    d_r, pivots, index = min(_least_subcodes(code, r, classes, workers))
    _check_attaining_subcode(code, rref_batch(F, k, pivots, index, index + 1)[0], d_r)
    return d_r


def weight_enumerator(
    code: LinearCode, workers: int = 1, budget: int = DEFAULT_SCAN_BUDGET
) -> dict[int, int]:
    """Weight -> count over all q^k codewords, including the zero word."""
    _check(_enumerator_scan(code), budget)
    q, k = code.field.q, code.k
    tally = _classes(code, workers).tally
    out = {0: 1}
    for w in np.flatnonzero(tally).tolist():
        out[w] = out.get(w, 0) + int(tally[w]) * (q - 1)
    if sum(out.values()) != q**k:
        raise RuntimeError(f"weight enumerator counts {sum(out.values())} words, expected {q**k}")
    return out


def _check_macwilliams(enum: dict[int, int], n: int, q: int, k: int) -> None:
    """The dual distribution B_j = q^-k sum_i A_i K_j(i) must be nonnegative integers with B_0 = 1.

    K_j(i) runs by the Krawtchouk recurrence (j+1) K_{j+1} =
    ((n-j)(q-1) + j - q i) K_j - (q-1)(n-j+1) K_{j-1}, for the weights i
    that occur only, one list of Python ints per step: n + 1 steps, each a
    few operations per weight on integers of about n log2(q) bits.
    """
    weights, counts = list(enum), list(enum.values())
    prev, cur = [0] * len(weights), [1] * len(weights)
    size = q**k
    for j in range(n + 1):
        # each q^k B_j is checked as it comes, so none is kept
        b = sum(a * c for a, c in zip(counts, cur))
        if b < 0 or b % size or (j == 0 and b != size):
            raise RuntimeError("MacWilliams transform of the weight enumerator is not a distribution")
        step, back = (n - j) * (q - 1) + j, (q - 1) * (n - j + 1)
        prev, cur = cur, [((step - q * i) * c - back * p) // (j + 1) for i, c, p in zip(weights, cur, prev)]


@dataclass
class WeightProfile:
    n: int
    k: int
    d: int
    higher_weights: list[int]
    enumerator: dict[int, int]
    field: GF | None = None

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "higher_weights": list(self.higher_weights),
            "enumerator": {str(w): c for w, c in sorted(self.enumerator.items())},
        }
        if self.field is not None:
            out["field"] = self.field.header()
        return out


def weight_profile(
    code: LinearCode,
    r_max: int,
    method: str = "codewords",
    workers: int = 1,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> WeightProfile:
    # every budget is checked before the first scan, in the order the scans run
    _check(_distance_scan(code, method), budget)
    for r in range(1, r_max + 1):
        _check(_subcode_scan(code, r), budget)
    _check(_enumerator_scan(code), budget)
    d = min_distance(code, method=method, workers=workers, budget=budget)
    hw = [higher_weight(code, r, workers=workers, budget=budget) for r in range(1, r_max + 1)]
    enum = weight_enumerator(code, workers=workers, budget=budget)
    _check_macwilliams(enum, code.n, code.field.q, code.k)
    return WeightProfile(code.n, code.k, d, hw, enum, field=code.field)


# -- generator matrix files -----------------------------------------------------


def write_code_file(code: LinearCode, path: str) -> None:
    # one decimal word per field element, joined row by row: the bytes np.savetxt(fmt="%d") writes
    words = np.array([str(x) for x in range(code.field.q)], dtype=object)
    with open(path, "w") as fh:
        fh.write(code.field.header() + "\n")
        fh.write(f"# code n={code.n} k={code.k} source={code.source_string()}\n")
        fh.writelines(" ".join(words[row]) + "\n" for row in code.generator.a)


def read_code_file(path: str) -> LinearCode:
    try:
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{path}: not a text file ({exc.reason})") from exc
    if len(lines) < 2 or not lines[0].startswith("# gf") or not lines[1].startswith("# code"):
        raise SpecParseError(f"{path}: missing field/code headers")
    field = parse_field_header(lines[0])
    try:
        kv = dict(item.split("=", 1) for item in lines[1].lstrip("#").split()[1:])
        n, k = int(kv["n"]), int(kv["k"])
    except (KeyError, ValueError) as exc:
        raise SpecParseError(f"{path}: bad code header") from exc
    try:
        rows = [[int(x) for x in line.split()] for line in lines[2:]]
    except ValueError as exc:
        raise SpecParseError(f"{path}: bad generator entry") from exc
    if len(rows) != k or any(len(row) != n for row in rows):
        raise SpecParseError(f"{path}: generator shape does not match header")
    try:
        gen = Mat(field, rows)
    except ValueError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc
    if gen.rank() != k:
        raise SpecParseError(f"{path}: generator rows are dependent")
    return LinearCode(field, n, k, gen, provenance=kv.get("source", "unknown"))
