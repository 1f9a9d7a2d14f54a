"""Combinatorics of strictly increasing index tuples.

Tuples alpha = (a_1 < ... < a_l) with entries in 1..m index Plücker
coordinates; the lexicographic enumeration fixes the global coordinate
order for every Plücker vector in the package.  Unordered tuples are
represented by their sorted form, so support equality is tuple equality.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

IndexTuple = tuple[int, ...]


@lru_cache(maxsize=None)
def enumerate_index_tuples(ell: int, m: int) -> tuple[IndexTuple, ...]:
    """All C(m, ell) tuples in lexicographic order."""
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    return tuple(combinations(range(1, m + 1), ell))


@lru_cache(maxsize=None)
def index_positions(ell: int, m: int) -> dict[IndexTuple, int]:
    """Position of each tuple within the lexicographic coordinate order."""
    return {alpha: i for i, alpha in enumerate(enumerate_index_tuples(ell, m))}


def validate_tuple(alpha: IndexTuple, ell: int, m: int) -> IndexTuple:
    alpha = tuple(alpha)
    if len(alpha) != ell or any(not 1 <= a <= m for a in alpha):
        raise ValueError(f"{alpha} is not a valid {ell}-tuple in 1..{m}")
    if any(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValueError(f"{alpha} is not strictly increasing")
    return alpha


def bruhat_leq(alpha: IndexTuple, beta: IndexTuple) -> bool:
    """Componentwise order on same-shape tuples."""
    if len(alpha) != len(beta):
        raise ValueError("tuple shape mismatch")
    return all(a <= b for a, b in zip(alpha, beta))


def gaussian_binomial(m: int, ell: int, q: int) -> int:
    """Number of ell-dimensional subspaces of F_q^m, exact integer."""
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    num = 1
    den = 1
    for i in range(ell):
        num *= q**m - q**i
        den *= q**ell - q**i
    if num % den:
        raise RuntimeError(f"gaussian binomial {num}/{den} is not an integer")
    return num // den


def is_close_family(tuples) -> bool:
    """True iff every pair of distinct supports meets in exactly l-1 elements."""
    members = [tuple(t) for t in tuples]
    if not members:
        raise ValueError("empty family")
    ell = len(members[0])
    if any(len(t) != ell for t in members):
        raise ValueError("tuple shape mismatch")
    for a, b in combinations(members, 2):
        if a != b and len(set(a) & set(b)) != ell - 1:
            return False
    return True


def delete_pair(alpha: IndexTuple, r: int, s: int) -> IndexTuple:
    """Remove the entries at 1-based positions r < s."""
    if not 1 <= r < s <= len(alpha):
        raise ValueError(f"positions r={r}, s={s} out of range for {alpha}")
    return tuple(a for i, a in enumerate(alpha, start=1) if i not in (r, s))


def schubert_cell_dimension(beta: IndexTuple) -> int:
    """Sum of beta_j - j over 1-based positions."""
    return sum(b - j for j, b in enumerate(beta, start=1))


@lru_cache(maxsize=None)
def downset(lam: IndexTuple, m: int) -> tuple[IndexTuple, ...]:
    """All beta <= lam in Bruhat order, lexicographically listed."""
    return tuple(
        beta for beta in enumerate_index_tuples(len(lam), m) if bruhat_leq(beta, lam)
    )


def format_tuple(alpha: IndexTuple) -> str:
    return ",".join(str(a) for a in alpha)


def parse_tuple(text: str) -> IndexTuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))
