"""Finite fields F_{p^k}: prime fields and (possibly towered) extensions.

Every field element is an integer code in [0, q).  For a prime field the
code is the residue itself.  For an extension of degree k over a base field
of size Q, the code sum(d_i * Q**i) stands for the coefficient vector
(d_0, ..., d_{k-1}) on the monomial basis of F_Q[t]/<m(t)>; the base field
therefore embeds as the codes below Q.

Scalar operations take and return Python ints.  The v*-operations act
elementwise on int64 numpy arrays and are where the numeric backends plug
in.  conv() is the full polynomial-coefficient convolution used by upoly,
with the strategy schoolbook / Karatsuba / NTT chosen by size and by
whether the field carries suitable roots of unity.
"""

from __future__ import annotations

import random

import numpy as np

from . import _backend

_MR_ROUNDS = 40
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)

# Crossovers for the multiplication strategy (coefficient counts).
SCHOOLBOOK_CUTOFF = 64

_MAX_PRIME = 1 << 31  # single products must fit in int64
_MAX_CARD = 1 << 62  # codes must fit in int64


class FieldError(ValueError):
    pass


def is_probable_prime(n: int, rounds: int = _MR_ROUNDS) -> bool:
    """Miller-Rabin with a fixed round count and deterministic base stream."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    gen = random.Random(n ^ 0x5DEECE66D)
    for _ in range(rounds):
        a = gen.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _as_codes(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64)


class FieldCtx:
    """Shared interface of PrimeField and ExtField."""

    p: int
    k: int
    q: int

    def element(self, i: int) -> int:
        """i-th element in the fixed enumeration (identity on codes)."""
        if not 0 <= i < self.q:
            raise FieldError(f"element index {i} out of range for field of size {self.q}")
        return i

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def rand_array(self, rng: random.Random, n: int) -> np.ndarray:
        return np.fromiter((rng.randrange(self.q) for _ in range(n)), dtype=np.int64, count=n)

    def pow_(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(x), -e)
        acc, base = 1, x
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    # scalar ops defined from the vector ops; subclasses may override for speed
    def add(self, x: int, y: int) -> int:
        return int(self.vadd(_as_codes(x), _as_codes(y)))

    def sub(self, x: int, y: int) -> int:
        return int(self.vsub(_as_codes(x), _as_codes(y)))

    def neg(self, x: int) -> int:
        return int(self.vneg(_as_codes(x)))

    def mul(self, x: int, y: int) -> int:
        return int(self.vmul(_as_codes(x), _as_codes(y)))

    def inv(self, x: int) -> int:
        return int(self.vinv(_as_codes(x)))

    def vsum(self, a) -> np.ndarray:
        """Sum over the last axis, folding halves pairwise with vadd, so
        O(log n) vector calls are exact in every field."""
        a = _as_codes(a)
        while a.shape[-1] > 1:
            h = a.shape[-1] // 2
            a = np.concatenate([self.vadd(a[..., :h], a[..., h : 2 * h]), a[..., 2 * h :]], axis=-1)
        return a[..., 0] if a.shape[-1] else np.zeros(a.shape[:-1], dtype=np.int64)

    def eval_many(self, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(pts), dtype=np.int64)
        for c in coeffs[::-1]:
            acc = self.vadd(self.vmul(acc, pts), np.int64(c))
        return acc

    def __ne__(self, other):
        return not self.__eq__(other)


class PrimeField(FieldCtx):
    def __init__(self, p: int):
        if p >= _MAX_PRIME:
            raise FieldError(f"modulus {p} too large (need p < 2**31)")
        if not is_probable_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.k = 1
        self.q = p
        self._two_adicity = ((p - 1) & -(p - 1)).bit_length() - 1
        self._nonresidue = None
        self._tw_cache: dict[tuple[int, bool], np.ndarray] = {}
        self._bitrev_cache: dict[int, np.ndarray] = {}

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    # scalar fast paths
    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    def pow_(self, x, e):
        if e < 0:
            return pow(self.inv(x), -e, self.p)
        return pow(x, e, self.p)

    # vector ops
    def vadd(self, a, b):
        return (a + b) % self.p

    def vsub(self, a, b):
        return (a - b) % self.p

    def vneg(self, a):
        return (-a) % self.p

    def vmul(self, a, b):
        return (a * b) % self.p

    def vinv(self, a):
        a = _as_codes(a)
        if np.any(a % self.p == 0):
            raise ZeroDivisionError("inverse of zero")
        acc = np.ones_like(a)
        base = a % self.p
        e = self.p - 2
        while e:
            if e & 1:
                acc = (acc * base) % self.p
            base = (base * base) % self.p
            e >>= 1
        return acc

    def eval_many(self, coeffs, pts):
        return _backend.eval_many_mod(_as_codes(coeffs), _as_codes(pts), self.p)

    # polynomial-coefficient convolution
    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            return np.zeros(0, dtype=np.int64)
        if min(la, lb) <= SCHOOLBOOK_CUTOFF:
            return _backend.conv_mod(a, b, self.p)
        n = la + lb - 1
        if self._ntt_len(n) is not None:
            return self._ntt_mul(a, b)
        return self._karatsuba(a, b)

    def _ntt_len(self, n: int) -> int | None:
        m = 1 << (n - 1).bit_length()
        return m if m <= (1 << self._two_adicity) else None

    def _twiddles(self, n: int, inverse: bool) -> np.ndarray:
        key = (n, inverse)
        tw = self._tw_cache.get(key)
        if tw is None:
            p = self.p
            if self._nonresidue is None:
                g = 2
                while pow(g, (p - 1) // 2, p) != p - 1:
                    g += 1
                self._nonresidue = g
            tw = np.empty(n - 1, dtype=np.int64)
            m = 1
            while m < n:
                w = pow(self._nonresidue, (p - 1) // (2 * m), p)
                if inverse:
                    w = pow(w, p - 2, p)
                acc = 1
                for j in range(m):
                    tw[m - 1 + j] = acc
                    acc = (acc * w) % p
                m *= 2
            self._tw_cache[key] = tw
        return tw

    def _bitrev(self, n: int) -> np.ndarray:
        br = self._bitrev_cache.get(n)
        if br is None:
            bits = n.bit_length() - 1
            br = np.zeros(n, dtype=np.int64)
            for i in range(1, n):
                br[i] = (br[i >> 1] >> 1) | ((i & 1) << (bits - 1))
            self._bitrev_cache[n] = br
        return br

    def _ntt_mul(self, a, b):
        nout = len(a) + len(b) - 1
        n = self._ntt_len(nout)
        fa = np.zeros(n, dtype=np.int64)
        fb = np.zeros(n, dtype=np.int64)
        fa[: len(a)] = a
        fb[: len(b)] = b
        br = self._bitrev(n)
        fa = _backend.ntt_mod(fa, self.p, self._twiddles(n, False), br)
        fb = _backend.ntt_mod(fb, self.p, self._twiddles(n, False), br)
        fc = (fa * fb) % self.p
        fc = _backend.ntt_mod(fc, self.p, self._twiddles(n, True), br)
        fc = (fc * pow(n, self.p - 2, self.p)) % self.p
        return fc[:nout]

    def _karatsuba(self, a, b):
        n = max(len(a), len(b))
        m = (n + 1) // 2
        a0, a1 = a[:m], a[m:]
        b0, b1 = b[:m], b[m:]
        z0 = self.conv(a0, b0)
        z2 = self.conv(a1, b1) if len(a1) and len(b1) else np.zeros(0, dtype=np.int64)
        sa = self._padd(a0, a1)
        sb = self._padd(b0, b1)
        z1 = self._psub(self._psub(self.conv(sa, sb), z0), z2)
        # z1 = a0 b1 + a1 b0 up to trailing zeros; trim so it fits at offset m
        nz = np.flatnonzero(z1)
        z1 = z1[: int(nz[-1]) + 1] if len(nz) else z1[:0]
        out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
        out[: len(z0)] += z0
        out[m : m + len(z1)] += z1
        if len(z2):
            out[2 * m : 2 * m + len(z2)] += z2
        return out % self.p

    def _padd(self, a, b):
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=np.int64)
        out[: len(a)] += a
        out[: len(b)] += b
        return out % self.p

    def _psub(self, a, b):
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=np.int64)
        out[: len(a)] += a
        out[: len(b)] -= b
        return out % self.p


_LOG_TABLE_LIMIT = 8192  # build multiplicative log/antilog tables below this size


class ExtField(FieldCtx):
    """Degree-k extension of an arbitrary base FieldCtx (towers allowed).

    Small fields get discrete log/antilog tables so multiplicative scalar
    and vector ops are table gathers; characteristic 2 addition is xor."""

    def __init__(self, base: FieldCtx, modulus: np.ndarray, check: bool = True):
        modulus = _as_codes(modulus)
        k = len(modulus) - 1
        if k < 2:
            raise FieldError("extension degree must be at least 2")
        if int(modulus[-1]) != 1:
            raise FieldError("modulus polynomial must be monic")
        if base.q**k > _MAX_CARD:
            raise FieldError("extension field too large for int64 codes")
        if check and not _is_irreducible(base, modulus):
            raise FieldError("modulus polynomial is not irreducible")
        self.base = base
        self.modulus = modulus
        self.p = base.p
        self.k = base.k * k
        self.deg = k
        self.q = base.q**k
        # reduction rows: t^(k+i) mod m as coefficient rows, i = 0..k-2
        self._red = _reduction_rows(base, modulus)
        self._exp = None
        self._log = None
        if self.q <= _LOG_TABLE_LIMIT:
            self._build_log_tables()

    def _build_log_tables(self):
        q = self.q
        for g in range(2, q):
            exp = np.zeros(2 * (q - 1), dtype=np.int64)
            log = np.full(q, -1, dtype=np.int64)
            acc, ok = 1, True
            for i in range(q - 1):
                exp[i] = acc
                if log[acc] >= 0:
                    ok = False  # g has smaller order
                    break
                log[acc] = i
                acc = self._mul_polybasis(acc, g)
            if ok:
                exp[q - 1 :] = exp[: q - 1]  # wraparound so sums of logs index directly
                self._exp, self._log = exp, log
                return
        raise FieldError("no multiplicative generator found (not a field?)")

    def _mul_polybasis(self, x: int, y: int) -> int:
        return int(self._vmul_planes(_as_codes(x), _as_codes(y)))

    def __repr__(self):
        return f"F_{self.p}^{self.k}"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and np.array_equal(other.modulus, self.modulus)
        )

    def __hash__(self):
        return hash(("ext", hash(self.base), self.modulus.tobytes()))

    def decode(self, a) -> np.ndarray:
        a = _as_codes(a)
        digits = np.empty(a.shape + (self.deg,), dtype=np.int64)
        t = a.copy()
        for i in range(self.deg):
            digits[..., i] = t % self.base.q
            t //= self.base.q
        return digits

    def encode(self, digits: np.ndarray) -> np.ndarray:
        acc = np.zeros(digits.shape[:-1], dtype=np.int64)
        for i in range(self.deg - 1, -1, -1):
            acc = acc * self.base.q + digits[..., i]
        return acc

    def in_base(self, x: int) -> bool:
        return 0 <= x < self.base.q

    # scalar fast paths
    def add(self, x, y):
        if self.p == 2:
            return x ^ y
        return int(self.vadd(np.int64(x), np.int64(y)))

    def sub(self, x, y):
        if self.p == 2:
            return x ^ y
        return int(self.vsub(np.int64(x), np.int64(y)))

    def neg(self, x):
        if self.p == 2:
            return x
        return int(self.vneg(np.int64(x)))

    def mul(self, x, y):
        if self._exp is not None:
            if x == 0 or y == 0:
                return 0
            return int(self._exp[self._log[x] + self._log[y]])
        return self._mul_polybasis(x, y)

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return int(self._exp[(self.q - 1 - self._log[x]) % (self.q - 1)])
        return int(self.vinv(_as_codes(x)))

    def vadd(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(_as_codes(a), _as_codes(b))
        A, B = self.decode(a), self.decode(b)
        return self.encode(self.base.vadd(A, B))

    def vsub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(_as_codes(a), _as_codes(b))
        A, B = self.decode(a), self.decode(b)
        return self.encode(self.base.vsub(A, B))

    def vneg(self, a):
        if self.p == 2:
            return _as_codes(a).copy()
        return self.encode(self.base.vneg(self.decode(a)))

    def _reduce_planes(self, C: np.ndarray) -> np.ndarray:
        # C has 2k-1 coefficient planes on the last axis; fold the high ones.
        k = self.deg
        out = C[..., :k].copy()
        for i in range(2 * k - 2, k - 1, -1):
            hi = C[..., i]
            row = self._red[i - k]
            for j in range(k):
                if row[j]:
                    out[..., j] = self.base.vadd(out[..., j], self.base.vmul(hi, np.int64(row[j])))
        return out

    def _vmul_planes(self, a, b):
        A, B = self.decode(a), self.decode(b)
        k = self.deg
        C = np.zeros(np.broadcast_shapes(A.shape[:-1], B.shape[:-1]) + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                C[..., i + j] = self.base.vadd(C[..., i + j], self.base.vmul(A[..., i], B[..., j]))
        return self.encode(self._reduce_planes(C))

    def vmul(self, a, b):
        if self._exp is None:
            return self._vmul_planes(a, b)
        a, b = _as_codes(a), _as_codes(b)
        out = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def vinv(self, a):
        a = _as_codes(a)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        acc = np.ones_like(a)
        base = a.copy()
        e = self.q - 2
        while e:
            if e & 1:
                acc = self._vmul_planes(acc, base)
            base = self._vmul_planes(base, base)
            e >>= 1
        return acc

    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            return np.zeros(0, dtype=np.int64)
        if self._exp is not None and min(la, lb) <= 64:
            # schoolbook on codes: table multiplies, one row per short-side term
            if la > lb:
                a, b, la, lb = b, a, lb, la
            out = np.zeros(la + lb - 1, dtype=np.int64)
            for i in range(la):
                if a[i]:
                    out[i : i + lb] = self.vadd(out[i : i + lb], self.vmul(np.int64(a[i]), b))
            return out
        A, B = self.decode(a), self.decode(b)
        k = self.deg
        C = np.zeros((la + lb - 1, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                C[:, i + j] = self.base.vadd(C[:, i + j], self.base.conv(A[:, i], B[:, j]))
        return self.encode(self._reduce_planes(C))


# ---------------------------------------------------------------------------
# raw coefficient-array helpers over a base ctx (enough for irreducibility)


def _ptrim(c: np.ndarray) -> np.ndarray:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _pdivmod(ctx: FieldCtx, f: np.ndarray, g: np.ndarray):
    g = _ptrim(g)
    if len(g) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = f.copy()
    dg = len(g) - 1
    lg_inv = ctx.inv(int(g[-1]))
    q = np.zeros(max(len(f) - dg, 0), dtype=np.int64)
    for i in range(len(f) - 1, dg - 1, -1):
        r = _ptrim(r)
        if len(r) - 1 < i:
            continue
        c = ctx.mul(int(r[i]), lg_inv)
        if c == 0:
            continue
        q[i - dg] = c
        sub = ctx.vmul(g, np.int64(c))
        r[i - dg : i + 1] = ctx.vsub(r[i - dg : i + 1], sub)
    return q, _ptrim(r)


def _pmulmod(ctx: FieldCtx, a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    return _pdivmod(ctx, ctx.conv(a, b), m)[1]


def _ppowmod(ctx: FieldCtx, a: np.ndarray, e: int, m: np.ndarray) -> np.ndarray:
    acc = np.array([1], dtype=np.int64)
    base = _pdivmod(ctx, a, m)[1]
    while e:
        if e & 1:
            acc = _pmulmod(ctx, acc, base, m)
        base = _pmulmod(ctx, base, base, m)
        e >>= 1
    return acc


def _pgcd(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _ptrim(a), _ptrim(b)
    while len(b):
        a, b = b, _pdivmod(ctx, a, b)[1]
    return a


def _psub_arrays(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    aa = np.zeros(n, dtype=np.int64)
    bb = np.zeros(n, dtype=np.int64)
    aa[: len(a)] = a
    bb[: len(b)] = b
    return _ptrim(ctx.vsub(aa, bb))


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(base: FieldCtx, m: np.ndarray) -> bool:
    """Monic m over base is irreducible iff t^(Q^d) = t mod m and
    gcd(t^(Q^(d/l)) - t, m) = 1 for every prime l dividing d."""
    d = len(m) - 1
    if d < 1:
        return False
    t = np.array([0, 1], dtype=np.int64)
    h = t.copy()
    powers = {}
    for i in range(1, d + 1):
        h = _ppowmod(base, h, base.q, m)
        powers[i] = h
    if not np.array_equal(_ptrim(h), _ptrim(_pdivmod(base, t, m)[1])):
        return False
    for ell in _prime_factors(d):
        g = _pgcd(base, _psub_arrays(base, powers[d // ell], t), m)
        if len(g) != 1:
            return False
    return True


def _reduction_rows(base: FieldCtx, m: np.ndarray) -> list[np.ndarray]:
    k = len(m) - 1
    rows = []
    prev = base.vneg(m[:k].copy())  # t^k mod m
    rows.append(prev)
    for _ in range(k - 2):
        # multiply previous row by t and reduce once
        nxt = np.zeros(k, dtype=np.int64)
        nxt[1:] = prev[: k - 1]
        hi = int(prev[k - 1])
        if hi:
            nxt = base.vadd(nxt, base.vmul(rows[0], np.int64(hi)))
        rows.append(nxt)
        prev = nxt
    return rows


def random_irreducible(base: FieldCtx, degree: int, rng: random.Random) -> np.ndarray:
    """Random monic irreducible of the given degree over base, by search."""
    if degree < 1:
        raise FieldError("degree must be positive")
    while True:
        cand = np.empty(degree + 1, dtype=np.int64)
        cand[degree] = 1
        for i in range(degree):
            cand[i] = base.sample(rng)
        if _is_irreducible(base, cand):
            return cand


def build_extension(p: int, min_cardinality: int, rng: random.Random) -> FieldCtx:
    """Smallest-degree field F_{p^k} with p**k >= min_cardinality."""
    if min_cardinality < 2:
        raise FieldError("min_cardinality must be at least 2")
    base = PrimeField(p)
    k, card = 1, p
    while card < min_cardinality:
        k += 1
        card *= p
    if k == 1:
        return base
    return ExtField(base, random_irreducible(base, k, rng), check=False)


def extend_field(ctx: FieldCtx, min_cardinality: int, rng: random.Random) -> FieldCtx:
    """Extension of an arbitrary ctx reaching at least min_cardinality."""
    if ctx.q >= min_cardinality:
        return ctx
    if isinstance(ctx, PrimeField):
        return build_extension(ctx.p, min_cardinality, rng)
    m, card = 2, ctx.q**2
    while card < min_cardinality:
        m += 1
        card *= ctx.q
    return ExtField(ctx, random_irreducible(ctx, m, rng), check=False)


def sample_uniform(ctx: FieldCtx, rng: random.Random) -> int:
    """Uniform field element, deterministic given the RNG state."""
    return ctx.sample(rng)
