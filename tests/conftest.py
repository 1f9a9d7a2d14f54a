from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from grasscode.field import GF
from grasscode.indices import downset, enumerate_index_tuples, format_tuple, index_positions
from grasscode.linalg import Mat, maximal_minors, rref_batch, rref_chunks
from grasscode.sections import KINDS, enumerate_variety, parse_variety_spec


# one spec of each kind in sections.KINDS
SPEC_CASES = {
    "grassmann": "grassmann:2,4",
    "schubert": "schubert:2,4:2,4",
    "union": "union:2,4:1,4;2,3",
    "elambda": "elambda:2,4:1,2;1,3",
    "lagrangian": "lagrangian:2",
    "isotropic": "isotropic:2,3",
    "lag-schubert": "lag-schubert:2:2,4",
    "lag-union": "lag-union:2:2,4;1,4",
}


@lru_cache(maxsize=None)
def field(p, e=1):
    """GF(p^e) with the lexicographically smallest irreducible modulus."""
    return GF(p, e)


@lru_cache(maxsize=None)
def variety(spec_str, p, e=1):
    """Cached enumeration; callers must treat the result as read-only."""
    return enumerate_variety(parse_variety_spec(spec_str), field(p, e))


def elambda(ell, m, fam, p, e=1):
    """The cached coordinate-vanishing section of G(l, m) for the index tuples in fam."""
    return variety(f"elambda:{ell},{m}:" + ";".join(format_tuple(t) for t in fam), p, e)


def point_set(system):
    """The points of a system as a set of tuples."""
    return set(map(tuple, system.points.tolist()))


def has_repeated_rows(points):
    """True iff two rows of a 2-D array are equal: each row as one fixed-size byte string, sorted."""
    packed = np.ascontiguousarray(points, dtype=np.uint16)
    rows = np.sort(packed.view(np.dtype((np.void, packed.itemsize * packed.shape[1]))).ravel())
    return bool((rows[1:] == rows[:-1]).any())


# -- per-point references for the batched flag oracle (sections.flag_cells) ----


def schubert_member_flag(basis, lam):
    """Intersection-dimension conditions dim(W ∩ span{e_1..e_t}) >= i at t = lam_i, one rank each."""
    ell = basis.rows
    for i, t in enumerate(lam, start=1):
        tail = Mat(basis.field, basis.a[:, t:])
        if ell - tail.rank() < i:
            return False
    return True


def bruhat_cell_of(basis):
    """The cell index: positions where dim(W ∩ span{e_1..e_t}) jumps, one rank per t."""
    ell, m = basis.shape
    jumps = []
    prev = 0
    for t in range(1, m + 1):
        tail = Mat(basis.field, basis.a[:, t:])
        dim = ell - tail.rank()
        if dim > prev:
            jumps.append(t)
            prev = dim
    return tuple(jumps)


def dr_reference(code, r):
    """d_r of a tiny code from the list of all its q^k codewords, scalar arithmetic only.

    The least size of the union of supports over r codewords that span an
    r-dimensional space (Wei 1991).  Words are built with F.add/F.mul and
    independence is tested against the span of the words chosen so far, so
    nothing here shares code with field.matmul or the rref enumerator.
    """
    F, rows, n = code.field, code.generator.a.tolist(), code.n
    words = []
    for msg in product(range(F.q), repeat=code.k):
        word = [0] * n
        for coef, row in zip(msg, rows):
            word = [F.add(w, F.mul(coef, g)) for w, g in zip(word, row)]
        if any(word):
            words.append(tuple(word))
    support = {w: sum(1 << j for j, x in enumerate(w) if x) for w in words}

    def extend(span, w):
        return {tuple(F.add(s, F.mul(c, x)) for s, x in zip(v, w)) for v in span for c in range(F.q)}

    def best(start, span, mask, depth):
        if depth == r:
            return bin(mask).count("1")
        out = n
        for i in range(start, len(words)):
            w = words[i]
            if w not in span:
                grown = extend(span, w) if depth + 1 < r else span
                out = min(out, best(i + 1, grown, mask | support[w], depth + 1))
        return out

    return best(0, {(0,) * n}, 0, 0)


def dr_product_reference(code, r):
    """d_r as the least number of columns on which some row of a basis is nonzero, over the
    canonical rref bases of all r-dim message spaces, each multiplied by the generator.

    Supports are unions of the basis rows' supports (Wei 1991), not sums of
    class weights, so this shares no table or identity with ``codes``.
    """
    F, k = code.field, code.k
    best = code.n
    for chunk in rref_chunks(F.q, r, k, 1024):
        words = F.matmul(rref_batch(F, k, *chunk), code.generator.a)
        best = min(best, int((words != 0).any(axis=1).sum(axis=1).min()))
    return best


def class_words_reference(code):
    """The codeword of each normalized message, in canonical r = 1 order, scalar arithmetic only.

    Messages run by the position of their leading 1, then by their later
    digits as a base-q number, last digit fastest.  Words are summed with
    F.add/F.mul, so nothing here shares code with field.matmul or the
    span table of the r = 1 pass.
    """
    F, rows, k = code.field, code.generator.a.tolist(), code.k
    words = []
    for p in range(k):
        for tail in product(range(F.q), repeat=k - 1 - p):
            word = rows[p]
            for coef, row in zip(tail, rows[p + 1 :]):
                word = [F.add(w, F.mul(coef, g)) for w, g in zip(word, row)]
            words.append(word)
    return words


# -- polynomial arithmetic on base-p digits, the reference for the field tables --


def _digits(v, p, n):
    """n base-p digits of v, least significant first."""
    out = []
    for _ in range(n):
        v, r = divmod(v, p)
        out.append(r)
    return out


def _encode(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def add_digits(p, n, a, b):
    """The sum mod p, digit by digit, of the n base-p digits of a and of b."""
    return _encode([(x + y) % p for x, y in zip(_digits(a, p, n), _digits(b, p, n))], p)


def scalar_add_poly(f, a, b):
    return add_digits(f.p, f.e, a, b)


def scalar_mul_poly(f, a, b):
    p, e = f.p, f.e
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(a, p, e)):
        for j, y in enumerate(_digits(b, p, e)):
            prod[i + j] += x * y
    # long division by the monic modulus, top coefficient first
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k] % p
        for i, m in enumerate(f.modulus):
            prod[k - e + i] -= c * m
    return _encode([c % p for c in prod[:e]], p)


def det(mat):
    """Determinant of a square Mat by elimination, one scalar pivot at a time."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of non-square matrix")
    F = mat.field
    m = np.array(mat.a)
    d = 1
    for c in range(mat.rows):
        nz = np.nonzero(m[c:, c])[0]
        if nz.size == 0:
            return 0
        piv = c + int(nz[0])
        if piv != c:
            m[[c, piv]] = m[[piv, c]]
            d = F.neg(d)
        pv = int(m[c, c])
        d = F.mul(d, pv)
        inv = F.inv(pv)
        below = m[c + 1 :, c]
        mask = below != 0
        if mask.any():
            factors = F.mul_arr(below[mask], inv)
            m[c + 1 :][mask] = F.sub_arr(m[c + 1 :][mask], F.mul_arr(factors[:, None], m[c][None, :]))
    return d


# -- one point at a time: the Plücker embedding, its inverse and membership ----


def normalize_point(f, coords):
    coords = [int(c) for c in coords]
    first = next((c for c in coords if c), None)
    if first is None:
        raise ValueError("zero vector is not a projective point")
    if first == 1:
        return tuple(coords)
    scale = f.inv(first)
    return tuple(f.mul(c, scale) for c in coords)


def plucker_embed(basis):
    """Normalized vector of maximal minors of a full-rank l x m basis."""
    if basis.rank() != basis.rows:
        raise ValueError("basis rows are linearly dependent")
    return normalize_point(basis.field, maximal_minors(basis.field, basis.a[None])[0])


def subspace_of_point(coords, ell, m, f):
    """Canonical rref basis of the subspace with the given Plücker vector."""
    tuples = enumerate_index_tuples(ell, m)
    pos = index_positions(ell, m)
    coords = [int(c) for c in coords]
    if len(coords) != len(tuples):
        raise ValueError("coordinate length mismatch")
    first = next((i for i, c in enumerate(coords) if c), None)
    if first is None:
        raise ValueError("zero vector is not a projective point")
    piv = tuples[first]
    scale = f.inv(coords[first])
    basis = np.zeros((ell, m), dtype=np.int64)
    pivset = set(piv)
    for i1, c in enumerate(piv, start=1):
        basis[i1 - 1, c - 1] = 1
        for j in range(1, m + 1):
            if j in pivset:
                continue
            beta = tuple(sorted((pivset - {c}) | {j}))
            val = f.mul(coords[pos[beta]], scale)
            if (i1 + beta.index(j) + 1) % 2 == 1:
                val = f.neg(val)
            basis[i1 - 1, j - 1] = val
    mat = Mat(f, basis)
    if plucker_embed(mat) != normalize_point(f, coords):
        raise ValueError("coordinates do not describe a point of the Grassmannian")
    return mat


def schubert_member_plucker(coords, lam, ell, m):
    """Vanishing of every coordinate whose index is not Bruhat-below lam."""
    below = set(downset(lam, m))
    return not any(c for c, beta in zip(coords, enumerate_index_tuples(ell, m)) if beta not in below)


@dataclass(frozen=True)
class SymplecticForm:
    n: int
    field: GF
    gram: Mat


def symplectic_form(n, field):
    """Standard form: <e_i, e_{2n-i+1}> = 1 for i <= n, skew below the antidiagonal."""
    m = 2 * n
    gram = np.zeros((m, m), dtype=np.int64)
    for i in range(1, n + 1):
        gram[i - 1, m - i] = 1
        gram[m - i, i - 1] = field.from_int(-1)
    return SymplecticForm(n, field, Mat(field, gram))


def is_isotropic(basis, form):
    """True iff basis . gram . basis^T = 0."""
    if basis.cols != form.gram.rows:
        raise ValueError("basis width does not match the form")
    prod_ = basis.field.matmul(basis.field.matmul(basis.a, form.gram.a), basis.a.T)
    return not prod_.any()


def reference_points(spec_str, p, e=1):
    """The points of a variety by filtering the points of G(l, m) one at a time, with no forms.

    A symplectic kind keeps a basis that ``is_isotropic`` accepts (the
    Gram matrix product); a Schubert kind keeps it if ``schubert_member_flag``
    (one rank per condition) holds for some tuple; ``elambda`` reads its
    coordinates.  The bases come in the canonical order of the points.
    """
    spec = parse_variety_spec(spec_str)
    f = field(p, e)
    points = variety(f"grassmann:{spec.ell},{spec.m}", p, e).points
    form = symplectic_form(spec.n, f) if KINDS[spec.kind][0] != "{l},{m}" else None
    flag = spec.kind in ("schubert", "union", "lag-schubert", "lag-union")
    cols = [index_positions(spec.ell, spec.m)[t] for t in spec.tuples] if spec.kind == "elambda" else []
    keep = []
    for pivots, start, stop in rref_chunks(f.q, spec.ell, spec.m, 4096):
        for basis in rref_batch(f, spec.m, pivots, start, stop):
            point = points[len(keep)]
            basis = Mat(f, basis)
            keep.append(
                not point[cols].any()
                and (form is None or is_isotropic(basis, form))
                and (not flag or any(schubert_member_flag(basis, lam) for lam in spec.tuples))
            )
    return points[np.array(keep, dtype=bool)]


# -- per-cell counts of an enumeration ----------------------------------------


def cell_histogram(system):
    """Point count of each Bruhat cell met by the system.

    A point's cell is the index of its last nonzero Plücker coordinate
    (Fulton, *Young Tableaux*, ch. 9); positions ascend with the
    lexicographic index order.
    """
    last = system.ambient_dim - 1 - (system.points[:, ::-1] != 0).argmax(axis=1)
    positions, counts = np.unique(last, return_counts=True)
    tuples = enumerate_index_tuples(system.ell, system.m)
    return {tuples[p]: c for p, c in zip(positions.tolist(), counts.tolist())}


def combinatorial_dimension(system):
    """Largest e with q^e points in one cell; every cell count must be a q power."""
    q = system.field.q
    best = 0
    for gamma, count in cell_histogram(system).items():
        e = 0
        c = count
        while c % q == 0:
            c //= q
            e += 1
        if c != 1:
            raise ValueError(f"cell {gamma} holds {count} points, not a power of q={q}")
        best = max(best, e)
    return best
