"""Linear codes from projective systems and their exhaustive invariants.

The code of a system is the row space of the matrix whose columns are the
points; the generator is canonicalized by rref.  Every scan walks
r-dimensional subcodes as canonical rref bases in the order of
``linalg.rref_chunks``, in fixed contiguous chunks, so results are
identical for any worker count.

For r = 1 there is one normalized message per projective class of
codewords, and one pass over them (memoized on the ``LinearCode``)
gives the tally of class weights, hence ``d``, ``d_1`` and the weight
enumerator, and while it fits in ``TABLE_BYTES`` a table of packed
support bitmasks, one row per class in canonical order.  The pass
multiplies no field elements per class: the span table T of the last b
generator rows (q^b <= ``CHUNK``) is built once by doubling, a chunk of
classes sharing its pivot and higher digits is s + T[:size] for the word
s of its first message, and s + T[i] is zero exactly where T[i] = -s,
so one comparison per entry gives the chunk's supports
(Bouyukliev-Bakoev 2008 build codewords by such additions).  The first
class of least weight is rebuilt as message times G with
``field.matmul`` and checked against the pass.  The support of
a subcode is the union of the supports of its basis rows (Wei 1991), and
each row of a canonical rref basis is itself a normalized message, so
``d_r`` for 2 <= r < k is the least popcount of the OR of r table rows:
no field products.  Over ``TABLE_BYTES`` (a cap on memory, not a speed
trade: the OR is the faster path wherever it runs), r >= 2 skips the
table and multiplies the subcodes' bases by the generator instead.  The
one subcode of dimension k is the code itself, so ``d_k`` is |supp C|,
the number of nonzero generator columns, with no scan.
The subcode attaining ``d_r`` (r < k) is rebuilt from its codewords with
``field.matmul`` and checked against
sum_{c in D} wt(c) = (q^r - q^(r-1)) |supp D|, and ``weight_profile``
checks that the MacWilliams transform of the enumerator is a
distribution.  A hyperplane c^perp holds exactly the zero positions of
the codeword c G, so n minus the most points on a hyperplane is the least
weight: both ``min_distance`` methods read the same pass and differ only
in the scan size they budget.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, SpecParseError
from .field import GF, parse_field_header
from .grassmann import ProjSystem
from .indices import gaussian_binomial
from .linalg import Mat, rref_batch, rref_chunks

DEFAULT_SCAN_BUDGET = 1 << 26
CHUNK = 1024
# memory cap on the support table; over it, r >= 2 falls back to products with G
TABLE_BYTES = 1 << 27


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


def _scan(code: LinearCode, r: int, work, workers: int) -> list:
    """work(bases) per chunk of r-dim subcodes, bases the (N, r, k) canonical rref stack."""
    q, k = code.field.q, code.k
    chunks = rref_chunks(q, r, k, CHUNK)
    return _pool_map(lambda chunk: work(rref_batch(q, k, *chunk)), chunks, workers)


def _words(code: LinearCode, bases: np.ndarray) -> np.ndarray:
    """(N, r, n) codewords of the rows of an (N, r, k) stack of messages."""
    return code.field.matmul(bases, code.generator.a)


def _class_index(q: int, k: int, rows: np.ndarray) -> np.ndarray:
    """Canonical r = 1 index of each normalized message in rows (..., k).

    A message with its leading 1 at p is the (V - q^(k-1-p))-th of its
    pivot, V its base-q value, after the q^(k-1) + ... + q^(k-p) with an
    earlier pivot.
    """
    powers = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    p = np.arange(k)
    base = (q**k - q ** (k - p)) // (q - 1) - powers
    return rows @ powers + base[(rows != 0).argmax(axis=-1)]


@dataclass
class _Classes:
    """The r = 1 pass: tally[w] classes of weight w; table[i] the support bits of class i, or None."""

    tally: np.ndarray
    table: np.ndarray | None


def _table_shape(code: LinearCode) -> tuple[int, int] | None:
    """(classes, uint64 words per class) of the support table, or None over TABLE_BYTES."""
    q, k = code.field.q, code.k
    classes, width = (q**k - 1) // (q - 1), -(-code.n // 64)
    return (classes, width) if classes * width * 8 <= TABLE_BYTES else None


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


def _classes(code: LinearCode, workers: int) -> _Classes:
    """The r = 1 pass, run once per code; callers have budgeted (q^k - 1)/(q - 1) classes.

    Chunks of up to q^b classes share their pivot and the digits above the last
    b, so a chunk's words are s + T[:size], s the word of its first message.
    """
    if code._class_memo is not None:
        return code._class_memo
    F, k, n = code.field, code.k, code.n
    q = F.q
    b = 0
    while b < k - 1 and q ** (b + 1) <= CHUNK:
        b += 1
    span = _span_table(code, b)
    shape = _table_shape(code)
    table = None if shape is None else np.zeros(shape, dtype=np.uint64)

    def run(chunk):
        pivots, start, stop = chunk
        message = rref_batch(q, k, pivots, start, start + 1)[:, 0]
        minus_s = F.sub_arr(0, F.matmul(message, code.generator.a)[0]).astype(span.dtype)
        packed = np.packbits(span[: stop - start] != minus_s, axis=1, bitorder="little")
        if table is None:
            support = np.zeros((len(packed), -(-n // 64)), dtype=np.uint64)
        else:
            first = (q**k - q ** (k - pivots[0])) // (q - 1) + start
            support = table[first : first + len(packed)]
        support.view(np.uint8)[:, : packed.shape[1]] = packed
        weights = np.bitwise_count(support).sum(axis=1, dtype=np.int64)
        i = int(weights.argmin())
        return np.bincount(weights, minlength=n + 1), int(weights[i]), (pivots, start + i)

    parts = _pool_map(run, list(rref_chunks(q, 1, k, q**b)), workers)
    # the first chunk's least wins ties, so the class checked is the canonical first
    _, least, (pivots, index) = min(parts, key=lambda part: part[1])
    message = rref_batch(q, k, pivots, index, index + 1)[:, 0]
    rebuilt = int(np.count_nonzero(F.matmul(message, code.generator.a)))
    if rebuilt != least:
        raise RuntimeError(f"least class weight {least} in the pass, {rebuilt} as message times G")
    code._class_memo = _Classes(sum(part[0] for part in parts), table)
    return code._class_memo


def _least_support(supports: np.ndarray, bases: np.ndarray) -> tuple[int, np.ndarray]:
    i = int(supports.argmin())
    # a copy, so the chunk's whole basis stack is freed once the chunk is done
    return int(supports[i]), bases[i].copy()


def _check_support_identity(code: LinearCode, basis: np.ndarray, support: int) -> None:
    """Rebuild the subcode D spanned by basis from its codewords and check
    sum_{c in D} wt(c) = (q^r - q^(r-1)) |supp D|, summed over one word per class."""
    q, r = code.field.q, len(basis)
    coeffs = np.concatenate([rref_batch(q, r, *c) for c in rref_chunks(q, 1, r, q**r)])
    total = int((_words(code, code.field.matmul(coeffs, basis)) != 0).sum())
    if total != q ** (r - 1) * support:
        raise RuntimeError(
            f"subcode weights sum to {total}, support {support} needs {q ** (r - 1) * support}"
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
    q, k = code.field.q, code.k
    if r == 1:
        return _least_weight(code, workers)
    if r == k:
        return int(np.count_nonzero(code.generator.a.any(axis=0)))
    # for r < k the r = 1 pass costs [k, 1]_q <= [k, r]_q, inside the budget
    table = _classes(code, workers).table if _table_shape(code) else None
    if table is None:

        def work(bases):
            return _least_support((_words(code, bases) != 0).any(axis=1).sum(axis=1), bases)

    else:

        def work(bases):
            union = np.bitwise_or.reduce(table[_class_index(q, k, bases)], axis=1)
            return _least_support(np.bitwise_count(union).sum(axis=1, dtype=np.int64), bases)

    # the first chunk's least wins ties, so the subcode checked is the canonical first
    d_r, basis = min(_scan(code, r, work, workers), key=lambda part: part[0])
    _check_support_identity(code, basis, d_r)
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
    that occur only, all at once in an object array: n + 1 steps, each a
    few operations per weight on integers of about n log2(q) bits.
    """
    i = np.array(list(enum), dtype=object)
    a = np.array(list(enum.values()), dtype=object)
    prev, cur = np.zeros_like(i), np.ones_like(i)
    dual = []
    for j in range(n + 1):
        dual.append(a.dot(cur))
        nxt = ((n - j) * (q - 1) + j - q * i) * cur - (q - 1) * (n - j + 1) * prev
        prev, cur = cur, nxt // (j + 1)
    if dual[0] != q**k or any(b < 0 or b % q**k for b in dual):
        raise RuntimeError("MacWilliams transform of the weight enumerator is not a distribution")


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
    with open(path, "w") as fh:
        fh.write(code.field.header() + "\n")
        fh.write(f"# code n={code.n} k={code.k} source={code.source_string()}\n")
        np.savetxt(fh, code.generator.a, fmt="%d")


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
        gen = Mat(field, np.array(rows, dtype=np.int64))
    except (ValueError, OverflowError) as exc:
        raise SpecParseError(f"{path}: {exc}") from exc
    if gen.rank() != k:
        raise SpecParseError(f"{path}: generator rows are dependent")
    return LinearCode(field, n, k, gen, provenance=kv.get("source", "unknown"))
