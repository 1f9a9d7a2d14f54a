"""Linear codes from projective systems and their exhaustive invariants.

The code of a system is the row space of the matrix whose columns are the
points; the generator is canonicalized by rref.  Minimum distance and
higher weights come from exhaustive scans with two independently coded
routes (codeword weights vs. zero-counts of dual sections) that must
agree.  Scans run over deterministic contiguous chunks so results are
identical for any worker count.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceededError, SpecParseError
from .field import GF, parse_field_header
from .grassmann import ProjSystem
from .indices import gaussian_binomial
from .linalg import Mat, build_rref_batch, digit_block, rref_free_positions

DEFAULT_SCAN_BUDGET = 1 << 26
CHUNK = 4096


@dataclass
class LinearCode:
    field: GF
    n: int
    k: int
    generator: Mat
    provenance: object = None

    def source_string(self) -> str:
        if self.provenance is None:
            return "unknown"
        if isinstance(self.provenance, str):
            return self.provenance
        return self.provenance.serialize()


def build_code(system: ProjSystem) -> LinearCode:
    """Code of the projective system; columns follow the system's point order."""
    if not system.points:
        raise ValueError("empty projective system defines no code")
    pmat = system.point_matrix()
    gen = pmat.rref_basis()
    k = gen.rows
    if k != system.ambient_dim - pmat.left_kernel().rows:
        raise RuntimeError("rank/kernel mismatch in code construction")
    return LinearCode(system.field, len(system.points), k, gen, provenance=system.source)


def _map_chunks(fn, chunks, workers: int):
    if workers <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


# -- codeword route: one representative per projective message class ---------


def _codeword_chunks(q: int, k: int):
    """Chunk descriptors (first_nonzero, start, stop) covering every class once."""
    out = []
    for i in range(k):
        total = q ** (k - 1 - i)
        for start in range(0, total, CHUNK):
            out.append((i, start, min(start + CHUNK, total)))
    return out


def _class_weights(field: GF, gen_arr: np.ndarray, chunk) -> np.ndarray:
    i, start, stop = chunk
    k = gen_arr.shape[0]
    nfree = k - 1 - i
    msgs = np.zeros((stop - start, k), dtype=np.int64)
    msgs[:, i] = 1
    if nfree:
        msgs[:, i + 1 :] = digit_block(field.q, nfree, start, stop)
    words = field.matmul(msgs, gen_arr)
    return np.count_nonzero(words, axis=1)


# -- dual route: hyperplanes / codimension-r sections -------------------------


def _hyperplane_chunks(q: int, k: int):
    """Chunk descriptors (last_nonzero, start, stop), one normal per class."""
    out = []
    for j in range(k):
        total = q**j
        for start in range(0, total, CHUNK):
            out.append((j, start, min(start + CHUNK, total)))
    return out


def _section_zero_counts(field: GF, gen_arr: np.ndarray, chunk) -> np.ndarray:
    j, start, stop = chunk
    k = gen_arr.shape[0]
    hs = np.zeros((stop - start, k), dtype=np.int64)
    hs[:, j] = 1
    if j:
        idx = np.unravel_index(np.arange(start, stop), (field.q,) * j)
        for t in range(j):
            hs[:, t] = idx[t]
    vals = field.matmul(hs, gen_arr)
    return (vals == 0).sum(axis=1)


def min_distance(
    code: LinearCode,
    method: str = "codewords",
    workers: int = 1,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> int:
    """Exhaustive minimum distance by the chosen route."""
    q, k = code.field.q, code.k
    gen_arr = code.generator.a
    if method == "codewords":
        if q**k > budget:
            raise BudgetExceededError("codeword scan", q**k, budget)
        chunks = _codeword_chunks(q, k)
        mins = _map_chunks(lambda c: int(_class_weights(code.field, gen_arr, c).min()), chunks, workers)
        return min(mins)
    if method == "hyperplanes":
        classes = (q**k - 1) // (q - 1)
        if classes > budget:
            raise BudgetExceededError("hyperplane scan", classes, budget)
        chunks = _hyperplane_chunks(q, k)
        maxima = _map_chunks(
            lambda c: int(_section_zero_counts(code.field, gen_arr, c).max()), chunks, workers
        )
        return code.n - max(maxima)
    raise ValueError(f"unknown method {method!r}")


# -- higher weights -----------------------------------------------------------


def _subcode_chunks(q: int, r: int, k: int):
    out = []
    for pivots in combinations(range(k), r):
        total = q ** len(rref_free_positions(pivots, k))
        for start in range(0, total, CHUNK):
            out.append((pivots, start, min(start + CHUNK, total)))
    return out


def _subcode_supports(field: GF, gen_arr: np.ndarray, chunk) -> np.ndarray:
    pivots, start, stop = chunk
    k = gen_arr.shape[0]
    nfree = len(rref_free_positions(pivots, k))
    mats = build_rref_batch(pivots, k, digit_block(field.q, nfree, start, stop))
    words = field.matmul(mats, gen_arr)
    return (words != 0).any(axis=1).sum(axis=1)


def higher_weight(
    code: LinearCode, r: int, workers: int = 1, budget: int = DEFAULT_SCAN_BUDGET
) -> int:
    """Minimum support size over r-dimensional subcodes, scanned exhaustively."""
    q, k = code.field.q, code.k
    if not 1 <= r <= k:
        raise ValueError(f"need 1 <= r <= k={k}, got r={r}")
    count = gaussian_binomial(k, r, q)
    if count > budget:
        raise BudgetExceededError(f"subcode scan (r={r})", count, budget)
    gen_arr = code.generator.a
    chunks = _subcode_chunks(q, r, k)
    mins = _map_chunks(lambda c: int(_subcode_supports(code.field, gen_arr, c).min()), chunks, workers)
    return min(mins)


def _iter_sections(q: int, r: int, k: int):
    """Every full-rank r x k rref matrix, built column-recursively."""

    def rec(col: int, rows: list[list[int]]):
        t = len(rows)
        if r - t > k - col:
            return
        if col == k:
            if t == r:
                yield [row[:] for row in rows]
            return
        if t < r:
            yield from rec(col + 1, [row + [0] for row in rows] + [[0] * col + [1]])
        for vals in product(range(q), repeat=t):
            yield from rec(col + 1, [row + [v] for row, v in zip(rows, vals)])

    yield from rec(0, [])


def higher_weight_geometric(
    code: LinearCode, r: int, budget: int = DEFAULT_SCAN_BUDGET
) -> int:
    """Independent oracle: n minus the best point count of a codimension-r section."""
    q, k = code.field.q, code.k
    if not 1 <= r <= k:
        raise ValueError(f"need 1 <= r <= k={k}, got r={r}")
    count = gaussian_binomial(k, r, q)
    if count > budget:
        raise BudgetExceededError(f"section scan (r={r})", count, budget)
    gen_arr = code.generator.a
    best = -1
    for rows in _iter_sections(q, r, k):
        vals = code.field.matmul(np.array(rows, dtype=np.int64), gen_arr)
        best = max(best, int((~vals.any(axis=0)).sum()))
    return code.n - best


# -- weight enumerator ---------------------------------------------------------


def weight_enumerator(
    code: LinearCode, workers: int = 1, budget: int = DEFAULT_SCAN_BUDGET
) -> dict[int, int]:
    """Weight -> count over all q^k codewords, including the zero word."""
    q, k = code.field.q, code.k
    if q**k > budget:
        raise BudgetExceededError("weight enumerator scan", q**k, budget)
    gen_arr = code.generator.a
    chunks = _codeword_chunks(q, k)

    def tally(chunk):
        weights = _class_weights(code.field, gen_arr, chunk)
        vals, counts = np.unique(weights, return_counts=True)
        return Counter(dict(zip(vals.tolist(), counts.tolist())))

    total: Counter = Counter()
    for part in _map_chunks(tally, chunks, workers):
        total.update(part)
    out = {0: 1}
    for w, c in total.items():
        out[w] = out.get(w, 0) + c * (q - 1)
    if sum(out.values()) != q**k:
        raise RuntimeError(f"weight enumerator counts {sum(out.values())} words, expected {q**k}")
    return dict(sorted(out.items()))


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
    d = min_distance(code, method=method, workers=workers, budget=budget)
    hw = [higher_weight(code, r, workers=workers, budget=budget) for r in range(1, r_max + 1)]
    if hw and hw[0] != d:
        raise RuntimeError(f"d={d} disagrees with d_1={hw[0]}")
    enum = weight_enumerator(code, workers=workers, budget=budget)
    return WeightProfile(code.n, code.k, d, hw, enum, field=code.field)


# -- generator matrix files -----------------------------------------------------


def write_code_file(code: LinearCode, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(code.field.header() + "\n")
        fh.write(f"# code n={code.n} k={code.k} source={code.source_string()}\n")
        for row in code.generator.a:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def read_code_file(path: str) -> LinearCode:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if len(lines) < 2 or not lines[0].startswith("# gf") or not lines[1].startswith("# code"):
        raise SpecParseError(f"{path}: missing field/code headers")
    field = parse_field_header(lines[0])
    kv = dict(item.split("=", 1) for item in lines[1].lstrip("#").split()[1:])
    try:
        n, k = int(kv["n"]), int(kv["k"])
        source = kv.get("source", "unknown")
    except (KeyError, ValueError) as exc:
        raise SpecParseError(f"{path}: bad code header") from exc
    rows = [[int(x) for x in line.split()] for line in lines[2:]]
    if len(rows) != k or any(len(row) != n for row in rows):
        raise SpecParseError(f"{path}: generator shape does not match header")
    try:
        gen = Mat(field, np.array(rows, dtype=np.int64))
    except ValueError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc
    if gen.rank() != k:
        raise SpecParseError(f"{path}: generator rows are dependent")
    return LinearCode(field, n, k, gen, provenance=source)
