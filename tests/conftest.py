from functools import lru_cache
from itertools import product

from grasscode.field import make_field
from grasscode.linalg import Mat
from grasscode.sections import enumerate_variety, parse_variety_spec


@lru_cache(maxsize=None)
def field(p, e=1):
    return make_field(p, e)


@lru_cache(maxsize=None)
def variety(spec_str, p, e=1):
    """Cached enumeration; callers must treat the result as read-only."""
    return enumerate_variety(parse_variety_spec(spec_str), field(p, e))


def varieties(p, e=1):
    """Spec string -> cached system over GF(p^e), the lookup bounds' section checks take."""
    return lambda spec_str: variety(spec_str, p, e)


def point_set(system):
    """The points of a system as a set of tuples."""
    return set(map(tuple, system.points.tolist()))


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
