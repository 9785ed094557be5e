"""Finite fields F_{p^k}: prime fields and (possibly towered) extensions.

Every field element is an integer code in [0, q).  For a prime field the
code is the residue itself.  For an extension of degree k over a base field
of size Q, the code sum(d_i * Q**i) stands for the coefficient vector
(d_0, ..., d_{k-1}) on the monomial basis of F_Q[t]/<m(t)>; the base field
therefore embeds as the codes below Q.

Scalar operations take and return Python ints.  The v*-operations act
elementwise on int64 numpy arrays; horner() evaluates along the first
axis of a coefficient array at broadcast points, and power() is the one
square-and-multiply, for any associative product.  The prime-field
convolution kernels (schoolbook and float FFT) live in _backend.  conv() is
the full polynomial-coefficient convolution used by upoly, exact on both of
its paths: schoolbook when the shorter operand has at most
SCHOOLBOOK_CUTOFF coefficients, else a float FFT on small limbs whose
count an a priori rounding bound fixes.  An extension field packs its
digits into one base-field convolution (Kronecker substitution) and
inverts without log tables by the Itoh-Tsujii norm.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from . import _backend

_MR_ROUNDS = 40
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)

# Shorter-operand length up to which conv() is schoolbook (measured crossover).
SCHOOLBOOK_CUTOFF = 128

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


def power(x, e: int, mul, one):
    """x**e for e >= 0 under an associative product mul, by left-to-right
    square-and-multiply: bit_length(e) - 1 squarings and popcount(e) - 1
    further products, none past the top bit; one is returned only for e = 0."""
    if e == 0:
        return one
    acc = x
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def _horner(C, z, step) -> np.ndarray:
    # FieldCtx.horner with the step acc <- acc * z + c given by the field
    C, z = _as_codes(C), _as_codes(z)
    shape = np.broadcast_shapes(C.shape[1:], z.shape)
    if len(C) == 0:
        return np.zeros(shape, dtype=np.int64)
    acc = np.broadcast_to(C[-1], shape)
    for c in C[-2::-1]:
        acc = step(acc, z, c)
    return acc if len(C) > 1 else acc.copy()


class FieldCtx:
    """Shared interface of PrimeField and ExtField."""

    p: int
    k: int
    q: int

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def rand_array(self, rng: random.Random, n: int) -> np.ndarray:
        return np.fromiter((rng.randrange(self.q) for _ in range(n)), dtype=np.int64, count=n)

    def pow_(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(x), -e)
        return power(x, e, self.mul, 1)

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

    def vdot(self, A, x) -> np.ndarray:
        """Sum over the last axis of A * x for a 1-D x, exact in every field."""
        return self.vsum(self.vmul(A, x))

    def dot_map(self, A):
        """x -> vdot(A, x) for a fixed A, for applying one A to many x;
        fields that can prepare A once do so here."""
        return functools.partial(self.vdot, A)

    def horner(self, C, z) -> np.ndarray:
        """sum_k C[k] z**k over the first axis of C, with z broadcast against
        C[0]: Horner from C[-1], one vmul and one vadd per coefficient."""
        return _horner(C, z, lambda acc, z, c: self.vadd(self.vmul(acc, z), c))

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
        a = _as_codes(a) % self.p
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        return power(a, self.p - 2, self.vmul, np.ones_like(a))

    def vsum(self, a):
        # exact in int64: codes are below 2**31 and no sum has 2**32 terms
        return _as_codes(a).sum(axis=-1) % self.p

    def horner(self, C, z):
        # one reduction per step: acc * z + c < 2**62 + 2**31 for codes below 2**31
        return _horner(C, z, lambda acc, z, c: (acc * z + c) % self.p)

    def vdot(self, A, x):
        # exact int64 products (on 16-bit limbs of x near 2**31); past that
        # gate, the pairwise vsum
        A, x = _as_codes(A), _as_codes(x)
        out = _backend.limb_mod(A.__matmul__, x, x.shape[-1], self.p)
        return super().vdot(A, x) if out is None else out

    # polynomial-coefficient convolution: exact on both paths
    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if min(len(a), len(b)) <= SCHOOLBOOK_CUTOFF:
            return _backend.conv_mod(a, b, self.p)
        return _backend.fft_conv_mod(a, b, self.p)


_LOG_TABLE_LIMIT = 8192  # build multiplicative log/antilog tables below this size


class ExtField(FieldCtx):
    """Degree-k extension of an arbitrary base FieldCtx (towers allowed).

    Small fields get discrete log/antilog tables, so multiplicative scalar
    and vector ops are table gathers, and a digit table, so decode is one
    gather; characteristic 2 addition is xor."""

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
        # reduction matrix: row i holds t^(k+i) mod m, i = 0..k-2
        self._red = np.array(_reduction_rows(base, modulus))
        self._place = base.q ** np.arange(k, dtype=np.int64)
        self._digits = None
        self._exp = None
        self._log = None
        if self.q <= _LOG_TABLE_LIMIT:
            self._digits = self.decode(np.arange(self.q, dtype=np.int64))
            self._build_log_tables()
        else:
            # Frobenius x -> x^Q is base-linear: row i holds t^(Q i) mod m
            tq = self.pow_(int(self._place[1]), base.q)
            self._frob = self.decode(np.array([self.pow_(tq, i) for i in range(k)]))

    def _build_log_tables(self):
        q = self.q
        for g in range(2, q):
            exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
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
                # wraparound so sums of logs index directly; log 0 is past
                # every sum of two nonzero logs, where exp reads 0
                exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
                log[0] = 2 * (q - 1)
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
        """Base-field digits of codes, on a new last axis: one gather from
        the digit table when the field is small enough to keep one."""
        a = _as_codes(a)
        if self._digits is not None:
            return self._digits.take(a, axis=0)
        digits = np.empty(a.shape + (self.deg,), dtype=np.int64)
        t = a.copy()
        for i in range(self.deg):
            digits[..., i] = t % self.base.q
            t //= self.base.q
        return digits

    def encode(self, digits: np.ndarray) -> np.ndarray:
        return digits @ self._place

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

    def _digit_map(self, D: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Digits D (last axis r) times a base-field matrix M (r, c): one
        exact base product, broadcast over every row of D."""
        return self.base.vsum(self.base.vmul(D[..., None, :], M.T))

    def _reduce_planes(self, C: np.ndarray) -> np.ndarray:
        # C has 2k-1 coefficient planes on the last axis; fold the high ones.
        k = self.deg
        return self.base.vadd(C[..., :k], self._digit_map(C[..., k:], self._red))

    def _mul_digits(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        k = self.deg
        C = np.zeros(np.broadcast_shapes(A.shape[:-1], B.shape[:-1]) + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                C[..., i + j] = self.base.vadd(C[..., i + j], self.base.vmul(A[..., i], B[..., j]))
        return self._reduce_planes(C)

    def _vmul_planes(self, a, b):
        return self.encode(self._mul_digits(self.decode(a), self.decode(b)))

    def dot_map(self, A):
        # without log tables, vmul and vsum decode and re-encode A on every
        # call; here A is decoded once into digit planes A_i, and x -> A x
        # sums base products A_i x_j into plane i + j, reducing only the
        # (rows, 2k - 1) result
        if self._exp is not None:
            return super().dot_map(A)
        digits = np.moveaxis(self.decode(A), -1, 0)
        planes = [self.base.dot_map(np.ascontiguousarray(P)) for P in digits]
        return functools.partial(self._dot_planes, planes, _as_codes(A).shape[:-1])

    def _dot_planes(self, planes, rows, x):
        k = self.deg
        xd = self.decode(x)
        C = np.zeros(rows + (2 * k - 1,), dtype=np.int64)
        for i, Ai in enumerate(planes):
            for j in range(k):
                C[..., i + j] = self.base.vadd(C[..., i + j], Ai(xd[:, j]))
        return self.encode(self._reduce_planes(C))

    def vmul(self, a, b):
        if self._exp is None:
            return self._vmul_planes(a, b)
        return self._exp.take(self._log.take(a) + self._log.take(b))

    def vinv(self, a):
        a = _as_codes(a)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        # Itoh-Tsujii: a^-1 = r / N(a), where r is the product of the
        # conjugates a^(Q^i), i = 1..k-1, and the norm N(a) = a r is in the base
        D = self.decode(a)
        conj = r = self._digit_map(D, self._frob)
        for _ in range(self.deg - 2):
            conj = self._digit_map(conj, self._frob)
            r = self._mul_digits(r, conj)
        norm = self._mul_digits(D, r)[..., 0]
        return self.encode(self.base.vmul(r, self.base.vinv(norm)[..., None]))

    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            return np.zeros(0, dtype=np.int64)
        # Kronecker substitution: digits packed into rows of stride 2k - 1,
        # so one base convolution yields every coefficient plane, no overlap
        s = 2 * self.deg - 1
        A = np.zeros((la, s), dtype=np.int64)
        B = np.zeros((lb, s), dtype=np.int64)
        A[:, : self.deg] = self.decode(a)
        B[:, : self.deg] = self.decode(b)
        C = self.base.conv(A.ravel(), B.ravel())[: (la + lb - 1) * s]
        return self.encode(self._reduce_planes(C.reshape(-1, s)))


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
    from .upoly import FixedDivisor, UPoly, pgcd  # upoly imports this module

    d = len(m) - 1
    if d < 1:
        return False
    mod = FixedDivisor(UPoly(base, m))
    t = mod.rem(UPoly.x(base))
    powers = [t]  # powers[i] = t^(Q^i) mod m
    for _ in range(d):
        powers.append(power(powers[-1], base.q, lambda f, g: mod.rem(f * g), UPoly.one(base)))
    if powers[d] != t:
        return False
    return all(pgcd(powers[d // ell] - t, mod.g).deg == 0 for ell in _prime_factors(d))


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
    """Random monic irreducible of the given degree over base, by search.

    About one candidate in `degree` is irreducible, so the search gives up
    with FieldError after max(64, 32 * degree) rejections instead of looping
    forever on an irreducibility test that accepts nothing."""
    if degree < 1:
        raise FieldError("degree must be positive")
    for _ in range(max(64, 32 * degree)):
        cand = np.empty(degree + 1, dtype=np.int64)
        cand[degree] = 1
        for i in range(degree):
            cand[i] = base.sample(rng)
        if _is_irreducible(base, cand):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {degree} found over {base!r}")


def build_extension(p: int, min_cardinality: int, rng: random.Random) -> FieldCtx:
    """Smallest-degree field F_{p^k} with p**k >= min_cardinality."""
    if min_cardinality < 2:
        raise FieldError("min_cardinality must be at least 2")
    return extend_field(PrimeField(p), min_cardinality, rng)


def extend_field(ctx: FieldCtx, min_cardinality: int, rng: random.Random) -> FieldCtx:
    """Smallest-degree extension of ctx with at least min_cardinality
    elements (ctx itself when it is large enough)."""
    if ctx.q >= min_cardinality:
        return ctx
    m, card = 2, ctx.q**2
    while card < min_cardinality:
        m += 1
        card *= ctx.q
    return ExtField(ctx, random_irreducible(ctx, m, rng), check=False)
