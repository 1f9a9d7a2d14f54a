"""Linear codes from projective systems and their exhaustive invariants.

The code of a system is the row space of the matrix whose columns are the
points; the generator is canonicalized by rref.  Every invariant is one
exhaustive scan over r-dimensional subcodes, walked as canonical rref
bases in the order of ``linalg.rref_chunks`` (for r = 1, one normalized
message per projective class of codewords).  A scan multiplies each chunk
of bases by the generator and reduces the products: ``d_r`` is the least
support size of an r-dim subcode (Wei 1991), ``d`` and the weight
enumerator come from the r = 1 supports, and the hyperplane route to ``d``
is n minus the largest zero count.  Chunks are fixed and contiguous, so
results are identical for any worker count.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, SpecParseError
from .field import GF, parse_field_header
from .grassmann import ProjSystem
from .indices import gaussian_binomial
from .linalg import Mat, rref_batch, rref_chunks

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
    if not len(system):
        raise ValueError("empty projective system defines no code")
    pmat = system.point_matrix()
    gen = pmat.rref_basis()
    k = gen.rows
    if k != system.ambient_dim - pmat.left_kernel().rows:
        raise RuntimeError("rank/kernel mismatch in code construction")
    return LinearCode(system.field, len(system), k, gen, provenance=system.source)


# -- scans over r-dimensional subcodes -------------------------------------------


def _scan(code: LinearCode, r: int, reduce, workers: int) -> list:
    """reduce(words) per chunk of r-dim subcodes, words the (N, r, n) products of their bases and G."""
    q, k = code.field.q, code.k
    gen_arr = code.generator.a

    def run(chunk):
        pivots, start, stop = chunk
        return reduce(code.field.matmul(rref_batch(q, k, pivots, start, stop), gen_arr))

    chunks = rref_chunks(q, r, k, CHUNK)
    if workers <= 1:
        return [run(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, chunks))


def _supports(words: np.ndarray) -> np.ndarray:
    """Support size of each subcode of an (N, r, n) stack: columns where some row is nonzero."""
    return (words != 0).any(axis=1).sum(axis=1)


def _min_support(words: np.ndarray) -> int:
    return int(_supports(words).min())


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


def min_distance(
    code: LinearCode,
    method: str = "codewords",
    workers: int = 1,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> int:
    """Exhaustive minimum distance: least codeword weight, or n minus the most points on a hyperplane."""
    _check(_distance_scan(code, method), budget)
    if method == "codewords":
        return min(_scan(code, 1, _min_support, workers))
    maxima = _scan(code, 1, lambda words: int((words[:, 0] == 0).sum(axis=1).max()), workers)
    return code.n - max(maxima)


def higher_weight(
    code: LinearCode, r: int, workers: int = 1, budget: int = DEFAULT_SCAN_BUDGET
) -> int:
    """Minimum support size over r-dimensional subcodes, scanned exhaustively."""
    _check(_subcode_scan(code, r), budget)
    return min(_scan(code, r, _min_support, workers))


def weight_enumerator(
    code: LinearCode, workers: int = 1, budget: int = DEFAULT_SCAN_BUDGET
) -> dict[int, int]:
    """Weight -> count over all q^k codewords, including the zero word."""
    _check(_enumerator_scan(code), budget)
    q, k = code.field.q, code.k

    def tally(words):
        vals, counts = np.unique(_supports(words), return_counts=True)
        return Counter(dict(zip(vals.tolist(), counts.tolist())))

    total: Counter = Counter()
    for part in _scan(code, 1, tally, workers):
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
    # every budget is checked before the first scan, in the order the scans run
    _check(_distance_scan(code, method), budget)
    for r in range(1, r_max + 1):
        _check(_subcode_scan(code, r), budget)
    _check(_enumerator_scan(code), budget)
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
