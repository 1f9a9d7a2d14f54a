"""Exact arithmetic in GF(p^e).

Field elements are plain integers in [0, q): the base-p digits of the
encoding are the coefficients of the residue polynomial, constant term
first.  A ``GF`` instance owns the modulus polynomial and provides both
scalar and numpy-vectorized operations.

Prime fields compute modulo p.  Every field with e > 1 gets log/exp
tables over a multiplicative generator (Lidl-Niederreiter, *Finite
Fields*), so a product is the single gather ``exp[log x + log y]``;
sums are XOR for p = 2 and digit-wise mod p for odd p.  Fields with
q <= 256 also keep a q x q multiplication table (and, for odd p, a q x q
addition table), derived from those: one 2-D gather is the fastest
product for the small fields that the scans run on.

Instances are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

Q_LIMIT = 1 << 16
TABLE_LIMIT = 256
BATCH = 16  # candidates tested per vectorized step


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _digits(v: int, p: int, n: int) -> list[int]:
    """n base-p digits of v, least significant first."""
    out = []
    for _ in range(n):
        v, r = divmod(v, p)
        out.append(r)
    return out


def _encode(digits, p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _irreducible_rows(polys: np.ndarray, p: int) -> np.ndarray:
    """Which rows of a (K, e+1) array of monic polynomials are irreducible over GF(p).

    Trial division by every monic polynomial of degree <= e/2, all divisors
    of one degree at once; a row drops out at the first divisor found.
    """
    e = polys.shape[1] - 1
    alive = np.ones(len(polys), dtype=bool)
    for d in range(1, e // 2 + 1):
        rows = np.flatnonzero(alive)
        # row v: the monic divisor whose lower coefficients are the digits of v
        divisors = np.ones((p**d, d + 1), dtype=np.int64)
        divisors[:, :d] = np.arange(p**d)[:, None] // p ** np.arange(d) % p
        rem = np.repeat(polys[rows, None, :], p**d, axis=1)
        for k in range(e, d - 1, -1):
            top = rem[:, :, k : k + 1]
            rem[:, :, k - d : k + 1] = (rem[:, :, k - d : k + 1] - top * divisors) % p
        alive[rows] = rem[:, :, :d].any(axis=2).all(axis=1)
    return alive


def _is_irreducible(modulus: list[int], p: int) -> bool:
    return bool(_irreducible_rows(np.array([modulus], dtype=np.int64), p)[0])


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e (integer encoding order)."""
    for lo in range(0, p**e, BATCH):
        polys = np.ones((min(BATCH, p**e - lo), e + 1), dtype=np.int64)
        polys[:, :e] = np.arange(lo, lo + len(polys))[:, None] // p ** np.arange(e) % p
        found = np.flatnonzero(_irreducible_rows(polys, p))
        if found.size:
            return tuple(int(c) for c in polys[found[0]])
    raise AssertionError("no irreducible polynomial found")


class GF:
    """The finite field GF(p^e) acting on integer-encoded elements."""

    def __init__(self, p: int, e: int, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if e < 1:
            raise ValueError(f"e={e} must be >= 1")
        q = p**e
        if q > Q_LIMIT:
            raise ValueError(f"q={q} exceeds supported limit {Q_LIMIT}")
        self.p = p
        self.e = e
        self.q = q
        if modulus is None:
            modulus = _smallest_irreducible(p, e)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not _is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._generator = None
        self._add_tab = self._mul_tab = None
        if e > 1:
            self._init_tables()

    # -- construction of log/exp tables (e > 1) -----------------------------
    #
    # Multiplication by a fixed element a is GF(p)-linear on digit vectors:
    # digits(y * a) = digits(y) @ M_a, with M_a = sum_i a_i C^i for the
    # companion matrix C of the modulus.

    def _init_tables(self):
        p, q = self.p, self.q
        g = self.multiplicative_generator()
        # digits of g^i in row i, filled in doubling blocks: rows n..2n-1 are
        # rows 0..n-1 times g^n.  The products run on float32 BLAS and stay
        # exact: every entry x is below e * (p - 1)^2 < 2^17, so x / p rounds
        # by less than 1 / p and x - p * floor(x / p) is x mod p
        digits = np.zeros((q - 1, self.e), dtype=np.float32)
        digits[0, 0] = 1
        n, g_n = 1, self._mul_matrices(np.array([g]))[0]
        while n < q - 1:
            take = min(n, q - 1 - n)
            x, out = digits[:take] @ g_n.astype(np.float32), digits[n : n + take]
            np.floor(np.divide(x, p, out=out), out=out)
            out *= -p
            out += x
            g_n = g_n @ g_n % p
            n += take
        exp = (digits @ (p ** np.arange(self.e, dtype=np.float32))).astype(np.int64)
        log = np.empty(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        # log(0) + log(y) lands in the zero tail for every y, so products
        # with 0 need no mask
        log[0] = 2 * (q - 1)
        self._log = log
        self._exp = np.zeros(4 * q - 3, dtype=np.int64)
        self._exp[: q - 1] = self._exp[q - 1 : 2 * (q - 1)] = exp
        if q <= TABLE_LIMIT:
            els = np.arange(q, dtype=np.int64)
            self._mul_tab = self.mul_arr(els[:, None], els[None, :])
            if p > 2:
                self._add_tab = self.add_arr(els[:, None], els[None, :])

    def _mul_matrices(self, a: np.ndarray) -> np.ndarray:
        """(len(a), e, e) stack: the matrix of multiplication by each element of a."""
        p, e = self.p, self.e
        companion = np.zeros((e, e), dtype=np.int64)
        companion[:-1, 1:] = np.eye(e - 1, dtype=np.int64)
        companion[-1] = [(-c) % p for c in self.modulus[:e]]
        c_powers = [np.eye(e, dtype=np.int64)]
        for _ in range(e - 1):
            c_powers.append(c_powers[-1] @ companion % p)
        return np.tensordot(a[:, None] // p ** np.arange(e) % p, np.array(c_powers), 1) % p

    def _find_generator(self) -> int:
        """Smallest g with g^((q-1)/r) != 1 for every prime r dividing q - 1."""
        p, q, e = self.p, self.q, self.e
        n = q - 1
        # a prime factor of n is either at most sqrt(n) or n over such a divisor
        primes = {r for d in range(1, isqrt(n) + 1) if n % d == 0 for r in (d, n // d) if is_prime(r)}
        exponents = [n // r for r in sorted(primes)]
        bits = [[x >> k & 1 == 1 for x in exponents] for k in range(n.bit_length())]
        # for e > 1 the elements below p form the prime field, of order p - 1
        for lo in range(p if e > 1 else 1, q, BATCH):
            candidates = np.arange(lo, min(lo + BATCH, q))
            # row (c, j) of powers gathers digits(c^n_j) by square-and-multiply
            # with the squares M_c^(2^k), which all exponents share
            square = self._mul_matrices(candidates)
            powers = np.zeros((len(candidates), len(exponents), e), dtype=np.int64)
            powers[..., 0] = 1
            for bit in bits:
                powers[:, bit] = powers[:, bit] @ square % p
                square = square @ square % p
            is_one = (powers[..., 0] == 1) & (powers[..., 1:] == 0).all(axis=2)
            primitive = ~is_one.any(axis=1)
            if primitive.any():
                return int(candidates[np.argmax(primitive)])
        raise AssertionError("no multiplicative generator found")

    # -- polynomial reference arithmetic --------------------------------------
    # Independent of the tables: the tests compare the tables against it.

    def _scalar_add_poly(self, a: int, b: int) -> int:
        p = self.p
        da, db = _digits(a, p, self.e), _digits(b, p, self.e)
        return _encode([(x + y) % p for x, y in zip(da, db)], p)

    def _scalar_mul_poly(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(_digits(a, p, e)):
            for j, y in enumerate(_digits(b, p, e)):
                prod[i + j] += x * y
        # long division by the monic modulus, top coefficient first
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            for i, m in enumerate(self.modulus):
                prod[k - e + i] -= c * m
        return _encode([c % p for c in prod[:e]], p)

    def _digitwise(self, x, y, sign: int):
        """x + sign * y, base-p digit by digit mod p; on ints or arrays (odd p, e > 1)."""
        p, out, w = self.p, 0, 1
        for _ in range(self.e):
            out = out + (x // w + sign * (y // w)) % p * w
            w *= p
        return out

    # -- scalar field operations --------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(a, b, 1)

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._digitwise(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.e == 1:
            return pow(a, -1, self.p)
        return int(self._exp[self.q - 1 - self._log[a]])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def arith(self, op: str, a: int, b: int) -> int:
        if op == "add":
            return self.add(a, b)
        if op == "sub":
            return self.sub(a, b)
        if op == "mul":
            return self.mul(a, b)
        if op == "neg":
            return self.neg(a)
        raise ValueError(f"unknown op {op!r}")

    def from_int(self, c: int) -> int:
        """The element c * 1 (image of an ordinary integer, e.g. -1)."""
        return c % self.p

    def elements(self) -> range:
        return range(self.q)

    def multiplicative_generator(self) -> int:
        """The smallest element of order q - 1."""
        if self._generator is None:
            self._generator = self._find_generator()
        return self._generator

    # -- vectorized operations on numpy encoding arrays ----------------------

    def add_arr(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        if self.e == 1:
            return (x + y) % self.p
        if self._add_tab is not None:
            return self._add_tab[x, y]
        return self._digitwise(np.asarray(x), np.asarray(y), 1)

    def sub_arr(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        if self.e == 1:
            return (x - y) % self.p
        return self._digitwise(np.asarray(x), np.asarray(y), -1)

    def neg_arr(self, x):
        if self.p == 2:
            return np.array(x, dtype=np.int64, copy=True)
        if self.e == 1:
            return (-np.asarray(x)) % self.p
        return self._digitwise(0, np.asarray(x), -1)

    def mul_arr(self, x, y):
        if self.q == 2:
            return np.bitwise_and(x, y)
        if self.e == 1:
            return (np.asarray(x) * y) % self.p
        if self._mul_tab is not None:
            return self._mul_tab[x, y]
        return self._exp[self._log[x] + self._log[y]]

    def matmul(self, A, B):
        """Product of encoded matrices: A (..., r, k) times B (k, c) or (..., k, c)."""
        A = np.asarray(A)
        B = np.asarray(B)
        if self.e == 1:
            # float64 BLAS path: sums of k products of values < p stay exact
            # integers below 2^53
            k = A.shape[-1]
            if k * (self.p - 1) ** 2 < 2**53:
                af = A.astype(np.float64)
                bf = B.astype(np.float64)
                if A.ndim > 2 and B.ndim == 2:
                    prod = (af.reshape(-1, k) @ bf).reshape(A.shape[:-1] + (B.shape[1],))
                else:
                    prod = af @ bf
                return np.rint(prod).astype(np.int64) % self.p
            return (A @ B) % self.p
        k = A.shape[-1]
        out = None
        for i in range(k):
            a_col = A[..., :, i : i + 1]
            b_row = B[..., i : i + 1, :] if B.ndim > 2 else B[i : i + 1, :]
            term = self.mul_arr(a_col, b_row)
            out = term if out is None else self.add_arr(out, term)
        if out is None:
            shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
            out = np.zeros(shape, dtype=np.int64)
        return out

    def check_elements(self, arr) -> None:
        arr = np.asarray(arr)
        if arr.size and (arr.min() < 0 or arr.max() >= self.q):
            raise ValueError(f"entries outside [0, {self.q})")

    # -- identity / serialization --------------------------------------------

    def header(self) -> str:
        mods = ",".join(str(c) for c in self.modulus)
        return f"# gf p={self.p} e={self.e} modulus={mods}"

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


def make_field(p: int, e: int) -> GF:
    """GF(p^e) with the lexicographically smallest irreducible modulus."""
    return GF(p, e)


def field_for_order(q: int) -> GF:
    """GF(q) for a prime power q, deterministic modulus choice."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            v = q
            while v % p == 0:
                v //= p
                e += 1
            if v != 1:
                raise ValueError(f"q={q} is not a prime power")
            return GF(p, e)
    raise ValueError(f"q={q} is not a prime power")


def parse_field_header(line: str) -> GF:
    """Inverse of GF.header()."""
    from .errors import SpecParseError

    parts = line.strip().lstrip("#").split()
    if not parts or parts[0] != "gf":
        raise SpecParseError(f"bad field header: {line!r}")
    try:
        kv = dict(item.split("=", 1) for item in parts[1:])
        p = int(kv["p"])
        e = int(kv["e"])
        modulus = tuple(int(c) for c in kv["modulus"].split(","))
        return GF(p, e, modulus)
    except (KeyError, ValueError) as exc:
        raise SpecParseError(f"bad field header: {line!r}: {exc}") from exc
