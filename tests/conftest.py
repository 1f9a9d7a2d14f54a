from functools import lru_cache
from itertools import product

from grasscode.field import make_field
from grasscode.sections import enumerate_variety, parse_variety_spec


@lru_cache(maxsize=None)
def field(p, e=1):
    return make_field(p, e)


@lru_cache(maxsize=None)
def variety(spec_str, p, e=1):
    """Cached enumeration; callers must treat the result as read-only."""
    return enumerate_variety(parse_variety_spec(spec_str), field(p, e))


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
