"""Finite fields F_{p^k}: prime fields and (possibly towered) extensions.

Every field element is an integer code in [0, q).  For a prime field the
code is the residue itself.  For an extension of degree k over a base field
of size Q, the code sum(d_i * Q**i) stands for the coefficient vector
(d_0, ..., d_{k-1}) on the monomial basis of F_Q[t]/<m(t)>; the base field
therefore embeds as the codes below Q.

Scalar operations take and return Python ints.  The v*-operations act
elementwise on int64 numpy arrays, vsubmul(a, c, b) = a - c b among them
(one reduction over F_p, vsub of vmul elsewhere); horner() evaluates
along the first axis of a coefficient array at broadcast points, and
power() is the one square-and-multiply, for any associative product.
The prime-field convolution kernels (schoolbook and float FFT) live in
_backend.  conv_sum() is the sum of K full polynomial-coefficient
convolutions, and conv(), used by upoly, its one-pair case; over F_p both
are exact on both paths: schoolbook for each pair whose shorter operand
has at most SCHOOLBOOK_CUTOFF coefficients, else one float FFT product of
all the longer pairs, on small centred sign-magnitude limbs whose count an
a priori rounding bound for K pairs fixes.  dot_map(A) is x -> A @ x for a
fixed A; over F_p it is one float64 BLAS product and vdot one int64 dot,
both behind the exactness gate of _backend.Gate (K-term sums of residue
products are exact while K (p-1)**2 is at most the accumulator's exact
range, else computed on limbs that keep each limb sum inside it).
grid_mul() is the package's one Kronecker substitution: the sum of products
of bivariate code grids as one conv_sum() of their rows laid end to end.
An extension field's conv_sum() decodes its pairs into digit grids, makes
them one base grid_mul(), and folds the 2k - 1 coefficient planes by one
base product with the powers table (row i the digits of t^i mod m,
i < 2k - 1, by UPoly.rem); it inverts without log tables by the
Itoh-Tsujii norm.  One plane product (_sum_planes: one base product of the
k^2 digit pairs with the prepared pair-fold map, whose column i k + j holds
t^(i+j) mod m, from the same table) serves vmul without tables, that inverse,
digit_map and the log tables, which start from the smallest primitive code
(by the order test).  dot_map is digit_map between to_digits and
from_digits: a digit vector holds decode's k digits per code, or the code
(width 1) over F_p and in characteristic 2 with log tables (vsum of vmul).
Elsewhere digit_map is one base map, R(A) (the restriction of scalars) up
to DIGIT_MAP_MAX codes, else A's digit planes and the pair fold.  vsum is
one base vsum of the digit planes (xor in characteristic 2); scalar add,
sub and neg come from the vector ops.  working_field() is the one cached,
fixed-seed extension that the drivers and the oracles lift to.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from . import _backend

_MR_ROUNDS = 40
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)

# Shorter-operand length up to which a conv_sum() pair is schoolbook (measured
# end to end on the benchmark's workloads; 96, 192 and 256 were no faster).
SCHOOLBOOK_CUTOFF = 128

_MAX_PRIME = 1 << 31  # single products must fit in int64
_MAX_CARD = 1 << 62  # codes must fit in int64


class FieldError(ValueError):
    pass


def is_probable_prime(n: int) -> bool:
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
    for _ in range(_MR_ROUNDS):
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


def _pack(F: np.ndarray, stride: int) -> np.ndarray:
    # rows of F laid end to end at the given stride, trailing padding trimmed
    # so conv sizes stay tight
    a, s = F.shape
    out = np.zeros(a * stride, dtype=np.int64)
    out.reshape(a, stride)[:, :s] = F
    return out[: (a - 1) * stride + s]


def grid_mul(ctx: FieldCtx, pairs, rows: int | None = None, memo: dict | None = None, keys=None) -> np.ndarray:
    """sum_k F_k G_k over pairs of code grids ([i, j] the coefficient of
    u^i v^j) by one ctx.conv_sum under v -> t, u -> t**stride, stride the
    widest product's v-width: shape (max rows of F_k G_k, stride), or only
    the first `rows` rows (mod u^rows), from operands truncated alike.  A
    product of two grids is the one-pair case.  keys[k], when given, names
    G_k for ctx.conv_sum's memo (None leaves it unkeyed); the packed operand
    is keyed with its rows and the stride, so one memo serves every
    truncation of a grid."""
    if rows is not None:
        pairs = [(F[:rows], G[:rows]) for F, G in pairs]
    stride = max(0, max(F.shape[1] + G.shape[1] for F, G in pairs) - 1)
    out = np.zeros((max(0, max(len(F) + len(G) for F, G in pairs) - 1), stride), dtype=np.int64)
    packed, tags = [], []
    for k, (F, G) in enumerate(pairs):
        if F.size and G.size:
            packed.append((_pack(F, stride), _pack(G, stride)))
            tags.append(None if keys is None or keys[k] is None else (keys[k], len(G), stride))
    if packed:
        prod = ctx.conv_sum(packed, memo, tags)
        out.reshape(-1)[: len(prod)] = prod
    return out if rows is None else out[:rows]


class FieldCtx:
    """Shared interface of PrimeField and ExtField."""

    p: int
    k: int
    q: int
    width = 1  # base codes per code in a digit vector (see digit_map)

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

    def vdot(self, A, x) -> np.ndarray:
        """Sum over the last axis of A * x for a 1-D x, exact in every field."""
        return self.vsum(self.vmul(A, x))

    def vsubmul(self, a, c, b) -> np.ndarray:
        """a - c * b elementwise, c broadcast against b: one elimination
        step (Berlekamp-Massey, Euclid, division, Horner, Gauss)."""
        return self.vsub(a, self.vmul(c, b))

    def dot_map(self, A):
        """x -> A @ x over the field for a fixed A (..., K) and x (K,) or
        (K, c): digit_map of A's rows between to_digits and from_digits."""
        A = _as_codes(A)
        apply = self.digit_map(A.reshape(math.prod(A.shape[:-1]), A.shape[-1]))
        return lambda x: self.from_digits(apply(self.to_digits(x))).reshape(A.shape[:-1] + x.shape[1:])

    def digit_map(self, A):
        """dot_map on digit vectors: x (K width,) or (K width, c) -> A @ x as
        (m width,) or (m width, c), for a fixed A (m, K); here vsum of vmul."""
        A = _as_codes(A)
        return lambda x: self.vsum(self.vmul(A[..., None, :], x.T)).reshape(A.shape[:-1] + x.shape[1:])

    def to_digits(self, X) -> np.ndarray:
        """Codes (L, ...) as digit vectors (L width, ...), entry i's digits
        (decode's) in rows i width .. i width + width - 1; at width 1 codes."""
        if self.width == 1:
            return X
        return np.moveaxis(self.decode(X), -1, 1).reshape((len(X) * self.width,) + np.shape(X)[1:])

    def from_digits(self, D) -> np.ndarray:
        if self.width == 1:
            return D
        return self.encode(np.moveaxis(D.reshape((len(D) // self.width, self.width) + D.shape[1:]), 1, -1))

    def horner(self, C, z) -> np.ndarray:
        """sum_k C[k] z**k over the first axis of C, with z broadcast against
        C[0]: Horner from C[-1], one vmul and one vadd per coefficient."""
        return _horner(C, z, lambda acc, z, c: self.vadd(self.vmul(acc, z), c))


class PrimeField(FieldCtx):
    def __init__(self, p: int):
        if p >= _MAX_PRIME:
            raise FieldError(f"modulus {p} too large (need p < 2**31)")
        if not is_probable_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.k = 1
        self.q = p
        self._int_gate = _backend.gate(p, _backend.INT64_EXACT)

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

    def vsubmul(self, a, c, b):
        # one reduction: a - c * b lies in [-(p-1)**2, p-1], inside int64
        return (a - c * b) % self.p

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
        # numpy's int64 dot under the int64 gate: for a one-off product, as
        # in a Berlekamp-Massey step, it beats converting both to float64;
        # one dot and one reduction while the sum is exact, limbs past that
        A, x = _as_codes(A), _as_codes(x)
        K = x.shape[-1]
        if K <= self._int_gate.single:
            return A @ x % self.p
        return self._int_gate.limb_mod(A.__matmul__, x, K)

    def digit_map(self, A):
        # A converted to float64 (and split into limbs past the float gate)
        # once; each call is one BLAS product
        return _backend.matmul_map(A, self.p)

    dot_map = digit_map

    # polynomial-coefficient convolution: exact on both paths
    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # conv_sum's one-pair case; a schoolbook pair skips its bookkeeping,
        # which costs about a microsecond on each of the hundreds of short
        # products in a normal form
        if len(a) <= SCHOOLBOOK_CUTOFF or len(b) <= SCHOOLBOOK_CUTOFF:
            return _backend.conv_mod(a, b, self.p)
        return self.conv_sum(((a, b),))

    def conv_sum(self, pairs, memo=None, keys=None):
        # schoolbook per pair whose shorter operand has at most
        # SCHOOLBOOK_CUTOFF coefficients, one spectral product for the rest
        # (see _backend.fft_conv_mod for memo and keys)
        parts, long = [], []
        for k, (a, b) in enumerate(pairs):
            if len(a) <= SCHOOLBOOK_CUTOFF or len(b) <= SCHOOLBOOK_CUTOFF:
                parts.append(_backend.conv_mod(a, b, self.p))
            else:
                long.append(k)
        if long:
            keys = keys and [keys[k] for k in long]
            parts.append(_backend.fft_conv_mod([pairs[k] for k in long], self.p, memo, keys))
        # the parts are fresh products, so the longest one takes the sum
        out = max(parts, key=len)
        for part in parts:
            if part is not out:
                out[: len(part)] = self.vadd(out[: len(part)], part)
        return out


_LOG_TABLE_LIMIT = 8192  # build multiplicative log/antilog tables below this size
# Largest R(A), (m k) x (K k) base codes, that digit_map prepares; past it
# A's digit planes and the pair fold win (measured; sweep in BENCH_26.json).
DIGIT_MAP_MAX = 1 << 17


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
        # plane fold: column i holds the digits of t^i mod m, i < 2k - 1;
        # pair-fold map: column i k + j those of t^(i+j);
        # pair map: row i k + j, column a holds digit i of t^(a+j)
        powers = _reduction_rows(base, modulus)
        self._fold = base.dot_map(powers.T)
        pairs = powers[np.add.outer(np.arange(k), np.arange(k))]
        self._pair_fold = base.dot_map(pairs.reshape(k * k, k).T)
        self._pair_map = base.dot_map(pairs.transpose(2, 1, 0).reshape(k * k, k))
        self._place = base.q ** np.arange(k, dtype=np.int64)
        self._digits = None
        self._exp = None
        self._log = None
        if self.q <= _LOG_TABLE_LIMIT:
            self._digits = self.decode(np.arange(self.q, dtype=np.int64))
            self._build_log_tables()
        # characteristic 2 with log tables keeps codes: gathers and xor win
        self.width = 1 if self.p == 2 and self._exp is not None else k
        # Frobenius x -> x^Q is base-linear: row i holds t^(Q i) mod m
        tq = self.pow_(int(self._place[1]), base.q)
        self._frob = base.dot_map(self.decode(np.array([self.pow_(tq, i) for i in range(k)])).T)

    def _build_log_tables(self):
        # g is the smallest primitive code: g^((q-1)/l) != 1 for every prime
        # l | q - 1; exp[n : 2n] = exp[:n] g^n doubles the filled prefix
        q = self.q
        ells = _prime_factors(q - 1)
        g = next((g for g in range(2, q) if all(self.pow_(g, (q - 1) // l) != 1 for l in ells)), None)
        exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        exp[0] = n = 1
        while g is not None and n < q - 1:
            m = min(n, q - 1 - n)
            exp[n : n + m] = self.vmul(exp[:m], self.mul(int(exp[n - 1]), g))
            n += m
        log = np.full(q, -1, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        if np.any(log[1:] < 0):  # no g passed, or a zero divisor did
            raise FieldError("no multiplicative generator found (not a field?)")
        # wraparound so sums of logs index directly; log 0 is past every sum
        # of two nonzero logs, where exp reads 0
        exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
        log[0] = 2 * (q - 1)
        self._exp, self._log = exp, log

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

    # log-table scalar fast paths; the rest are FieldCtx's, from the vector ops
    def mul(self, x, y):
        if self._exp is not None:
            return int(self._exp[self._log[x] + self._log[y]])
        return super().mul(x, y)

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return int(self._exp[(self.q - 1 - self._log[x]) % (self.q - 1)])
        return super().inv(x)

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

    def vsum(self, a):
        # xor in characteristic 2; else one base vsum of every digit plane,
        # each plane moved onto the summed last axis
        if self.p == 2:
            return np.bitwise_xor.reduce(_as_codes(a), axis=-1)
        return self.encode(self.base.vsum(np.swapaxes(self.decode(a), -1, -2)))

    @staticmethod
    def _times(D: np.ndarray, MT) -> np.ndarray:
        """Digits D (last axis r) times a base-field matrix M (r, c), given
        as MT = base.dot_map(M.T): one base product for every row of D."""
        out = MT(D.reshape(-1, D.shape[-1]).T)
        return out.T.reshape(D.shape[:-1] + out.shape[:1])

    def _sum_planes(self, P: np.ndarray) -> np.ndarray:
        """Digit-pair products P[..., i, j] summed into the k digits of
        sum_ij P_ij t^(i+j) mod m: one base product of the k^2 pairs with the
        prepared pair-fold map, which sums and folds at once."""
        return self._times(P.reshape(P.shape[:-2] + (self.deg**2,)), self._pair_fold)

    def _mul_digits(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self._sum_planes(self.base.vmul(A[..., :, None], B[..., None, :]))

    def _vmul_planes(self, a, b):
        return self.encode(self._mul_digits(self.decode(a), self.decode(b)))

    def digit_map(self, A):
        # one base map: R(A), block (r, c) column j the digits of A[r, c] t^j,
        # up to DIGIT_MAP_MAX codes, else planes A_i giving A_i x_j, then the pair fold
        if self.width == 1:
            return super().digit_map(A)
        (M, K), k, D = np.shape(A), self.deg, self.decode(A)
        if M * K * k * k <= DIGIT_MAP_MAX:
            R = self._pair_map(D.reshape(M * K, k).T).reshape(k, k, M, K)
            return self.base.dot_map(R.transpose(2, 0, 3, 1).reshape(M * k, K * k))
        planes = self.base.dot_map(np.ascontiguousarray(np.swapaxes(D, 1, 2)))

        def apply(x):
            c = math.prod(x.shape[1:])
            P = planes(x.reshape(K, k * c)).reshape(M, k, k, c)  # (A_i x_j)[r, c]
            return np.moveaxis(self._sum_planes(np.moveaxis(P, -1, 1)), -1, 1).reshape((M * k,) + x.shape[1:])

        return apply

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
        conj = r = self._times(D, self._frob)
        for _ in range(self.deg - 2):
            conj = self._times(conj, self._frob)
            r = self._mul_digits(r, conj)
        norm = self._mul_digits(D, r)[..., 0]
        return self.encode(self.base.vmul(r, self.base.vinv(norm)[..., None]))

    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.conv_sum(((a, b),))

    def conv_sum(self, pairs, memo=None, keys=None):
        # Kronecker substitution on digit grids ([i, j] digit j of
        # coefficient i): the pairs' products are one base grid_mul (keys
        # name its spectra in memo), whose 2k - 1 planes one base product
        # folds; pairs with an empty operand add nothing
        live = [n for n, (a, b) in enumerate(pairs) if len(a) and len(b)]
        if not live:
            return np.zeros(0, dtype=np.int64)
        grids = [(self.decode(pairs[n][0]), self.decode(pairs[n][1])) for n in live]
        P = grid_mul(self.base, grids, None, memo, keys and [keys[n] for n in live])
        return self.encode(self._times(P, self._fold))


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


def _reduction_rows(base: FieldCtx, m: np.ndarray) -> np.ndarray:
    """Row i holds the digits of t^i mod m, i < 2k - 1 (k = deg m)."""
    from .upoly import UPoly  # upoly imports this module

    k, g = len(m) - 1, UPoly(base, m)
    return np.array([UPoly.monomial(base, i).rem(g).padded(k) for i in range(2 * k - 1)])


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


@functools.lru_cache(maxsize=32)
def working_field(ctx: FieldCtx, min_card: int) -> FieldCtx:
    """extend_field(ctx, min_card) from a seed fixed by (p, k, min_card), so
    every call gets the same field; built once per (ctx, min_card) and
    keyed on the field itself, so unequal fields never share an entry."""
    return extend_field(ctx, min_card, random.Random(f"sylres-ext-{ctx.p}-{ctx.k}-{min_card}"))
