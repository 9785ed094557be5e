"""Dense univariate polynomials over a FieldCtx.

Coefficients are int64 code arrays in ascending degree order; the zero
polynomial is the empty array, so deg = len - 1 (-1 for zero).
Multiplication is the field context's exact conv() (schoolbook for short
operands, a limb-split float FFT for long ones).  xgcd and pgcd run one
Euclid on stacked (remainder, cofactor) code rows, and inverse_series one
Newton loop on code arrays; only results become UPolys.  Evaluation at
many points is Horner across all points at once, and interpolation
(interpolate_rows, many value rows through the same points) is one product
of the value rows with the Lagrange matrix of the points (lagrange_rows,
every quotient by (x - point) formed at once by synthetic division and
scaled as it is formed); both are O(n^2) array passes, which beat a
subproduct tree at every size this package reaches.  The Taylor shift
(taylor_shift_rows) is array Horner on short blocks of every row, joined
by one grid_mul per doubling level.  The update steps of division, Euclid,
Horner and Berlekamp-Massey are one ctx.vsubmul each, a single reduction
over F_p.
"""

from __future__ import annotations

import random

import numpy as np

from .field import FieldCtx, grid_mul, power


class UPoly:
    __slots__ = ("ctx", "c")

    def __init__(self, ctx: FieldCtx, coeffs):
        c = np.asarray(coeffs, dtype=np.int64)
        nz = np.flatnonzero(c)
        n = int(nz[-1]) + 1 if len(nz) else 0
        self.ctx = ctx
        self.c = np.ascontiguousarray(c[:n])

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, [])

    @classmethod
    def one(cls, ctx):
        return cls(ctx, [1])

    @classmethod
    def const(cls, ctx, code: int):
        return cls(ctx, [code])

    @classmethod
    def x(cls, ctx):
        return cls(ctx, [0, 1])

    @classmethod
    def monomial(cls, ctx, k: int, code: int = 1):
        c = np.zeros(k + 1, dtype=np.int64)
        c[k] = code
        return cls(ctx, c)

    @classmethod
    def random(cls, ctx, deg: int, rng: random.Random, monic: bool = False):
        """Random polynomial of exact degree deg (zero for deg < 0)."""
        if deg < 0:
            return cls.zero(ctx)
        c = ctx.rand_array(rng, deg + 1)
        if monic:
            c[deg] = 1
        else:
            while c[deg] == 0:
                c[deg] = ctx.sample(rng)
        return cls(ctx, c)

    # -- basics ------------------------------------------------------------

    @property
    def deg(self) -> int:
        return len(self.c) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.c) == 0

    def __eq__(self, other):
        return (
            isinstance(other, UPoly)
            and self.ctx == other.ctx
            and np.array_equal(self.c, other.c)
        )

    def __hash__(self):
        return hash((hash(self.ctx), self.c.tobytes()))

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.deg, -1, -1):
            v = int(self.c[i])
            if v == 0:
                continue
            if i == 0:
                terms.append(str(v))
            elif i == 1:
                terms.append(f"{v}*x" if v != 1 else "x")
            else:
                terms.append(f"{v}*x^{i}" if v != 1 else f"x^{i}")
        return " + ".join(terms)

    def coeff(self, i: int) -> int:
        return int(self.c[i]) if 0 <= i <= self.deg else 0

    def padded(self, n: int) -> np.ndarray:
        """First n coefficients, zero-padded (or truncated) to length n."""
        out = np.zeros(n, dtype=np.int64)
        m = min(n, len(self.c))
        out[:m] = self.c[:m]
        return out

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        return UPoly(self.ctx, self.ctx.vadd(self.padded(n), other.padded(n)))

    def __sub__(self, other):
        n = max(len(self.c), len(other.c))
        return UPoly(self.ctx, self.ctx.vsub(self.padded(n), other.padded(n)))

    def __neg__(self):
        return UPoly(self.ctx, self.ctx.vneg(self.c))

    def __mul__(self, other):
        if isinstance(other, UPoly):
            return UPoly(self.ctx, self.ctx.conv(self.c, other.c))
        return self.scale(other)

    def scale(self, code: int):
        if code == 0 or self.is_zero:
            return UPoly.zero(self.ctx)
        return UPoly(self.ctx, self.ctx.vmul(self.c, np.int64(code)))

    def shift(self, k: int):
        """Multiply by x**k (k < 0 drops the low coefficients)."""
        if self.is_zero or k == 0:
            return self
        if k < 0:
            return self.trunc_low(-k)
        c = np.zeros(len(self.c) + k, dtype=np.int64)
        c[k:] = self.c
        return UPoly(self.ctx, c)

    def trunc(self, n: int):
        """Coefficients of degree < n."""
        return UPoly(self.ctx, self.c[:n])

    def trunc_low(self, k: int):
        """Drop the k lowest coefficients (exact division by x**k not checked)."""
        return UPoly(self.ctx, self.c[k:])

    def valuation(self) -> int:
        """Largest k with x**k dividing self (0 for zero by convention)."""
        if self.is_zero:
            return 0
        return int(np.argmax(self.c != 0))

    def monic(self):
        if self.is_zero:
            return self
        lead = int(self.c[-1])
        if lead == 1:
            return self
        return self.scale(self.ctx.inv(lead))

    def divrem(self, g: "UPoly"):
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self
        if f.deg < g.deg:
            return UPoly.zero(self.ctx), f
        ctx = self.ctx
        r = f.padded(f.deg + 1)
        q = np.zeros(f.deg - g.deg + 1, dtype=np.int64)
        ginv = ctx.inv(int(g.c[-1]))
        gc = g.c
        dg = g.deg
        for i in range(f.deg, dg - 1, -1):
            lead = int(r[i])
            if lead == 0:
                continue
            coef = ctx.mul(lead, ginv)
            q[i - dg] = coef
            r[i - dg : i + 1] = ctx.vsubmul(r[i - dg : i + 1], coef, gc)
        return UPoly(ctx, q), UPoly(ctx, r[:dg])

    def rem(self, g):
        return self.divrem(g)[1]

    def exact_div(self, g):
        q, r = self.divrem(g)
        if not r.is_zero:
            raise ArithmeticError("division was not exact")
        return q

    def rev(self, k: int | None = None) -> "UPoly":
        """x**k * f(1/x); k defaults to deg f and must not be smaller."""
        if k is None:
            k = max(self.deg, 0)
        if k < self.deg:
            raise ValueError(f"reversal degree {k} below polynomial degree {self.deg}")
        return UPoly(self.ctx, self.padded(k + 1)[::-1])

    def deriv(self):
        if self.deg < 1:
            return UPoly.zero(self.ctx)
        mult = np.arange(1, self.deg + 1, dtype=np.int64) % self.ctx.p
        return UPoly(self.ctx, self.ctx.vmul(self.c[1:], mult))

    def taylor_shift(self, alpha: int) -> "UPoly":
        """f(x + alpha): taylor_shift_rows on the one row f."""
        if alpha == 0 or self.deg < 1:
            return self
        return UPoly(self.ctx, taylor_shift_rows(self.ctx, self.c[None, :], alpha)[0])

    def eval_at(self, x0: int) -> int:
        """f(x0) by scalar Horner: the reference for multipoint_eval."""
        acc = 0
        for c in self.c[::-1]:
            acc = self.ctx.add(self.ctx.mul(acc, x0), int(c))
        return acc


# Block length up to which taylor_shift_rows is array Horner alone; longer
# rows are cut into blocks of at most this length.  Medians of 15
# interleaved rounds in one process (2-vCPU host), blocks of 8 / 16 / 32 /
# 64 against Horner alone: F_65537, n = 289: 0.61 / 0.54 / 0.63 / 0.81 vs
# 3.3 ms; n = 1025: 1.71 / 1.51 / 1.59 / 1.79 vs 17.4 ms; p = 2**31 - 1,
# n = 289: 1.02 / 0.92 / 0.98 / 1.08 vs 3.1 ms; F_{7^3}, n = 65:
# 1.09 / 1.00 / 1.06 / 1.32 vs 1.49 ms, n = 33: 0.60 ms at 16 vs 0.64 ms.
_SHIFT_BLOCK = 16


def taylor_shift_rows(ctx: FieldCtx, G: np.ndarray, alpha: int) -> np.ndarray:
    """Every row of the code grid G, read as ascending coefficients in x,
    shifted x -> x + alpha, by the divide-and-conquer Taylor shift (von zur
    Gathen-Gerhard, "Fast algorithms for Taylor shifts and certain
    difference equations", ISSAC 1997) on every row at once.

    Each row of length n is zero-padded to b 2**k coefficients, k the fewest
    halvings with b = ceil(n / 2**k) <= _SHIFT_BLOCK, and cut into 2**k
    blocks.  Array Horner shifts every block of every row at once:
    acc <- acc (x + alpha) + c_i is one vsubmul per coefficient.  Then k
    doubling levels join neighbouring blocks, lo + (x + alpha)**s hi for
    the block length s: the high blocks' products with (x + alpha)**s are
    one grid_mul of their grid with the one-row grid of (x + alpha)**s, so
    a level is one product and one vadd.  (x + alpha)**b comes from one
    power() and is squared from level to level.  For n <= _SHIFT_BLOCK this
    is Horner alone.  Horner on whole rows makes n vector steps of length n; here
    there are b steps and k levels, each one product of length b 2**k."""
    G = np.asarray(G, dtype=np.int64)
    rows, n = G.shape
    k = max(-(-n // _SHIFT_BLOCK) - 1, 0).bit_length()
    b = -(-n >> k)
    blocks = np.zeros((rows << k, b), dtype=np.int64)
    blocks.reshape(rows, b << k)[:, :n] = G
    acc = np.zeros_like(blocks)
    neg = ctx.neg(alpha)
    for i in range(b - 1, -1, -1):
        # acc has degree < b - 1 - i here, so its top coefficient is zero
        nxt = np.empty_like(acc)
        nxt[:, 0] = blocks[:, i]
        nxt[:, 1:] = acc[:, :-1]
        acc = ctx.vsubmul(nxt, neg, acc)
    for level in range(k):
        s = b << level
        # (x + alpha)**s: one power() on the first level, squared after that
        pw = ctx.conv(pw, pw) if level else power(np.array([alpha, 1], dtype=np.int64), b, ctx.conv, None)
        out = grid_mul(ctx, [(acc[1::2], pw[None, :])])
        out[:, :s] = ctx.vadd(out[:, :s], acc[0::2])
        acc = out
    return acc[:, :n]


def inverse_series(f: UPoly, prec: int) -> UPoly:
    """1/f mod x^prec by Newton iteration on code arrays,
    h <- 2h - h (f h) mod x^k with k doubling; needs f(0) != 0."""
    if f.is_zero or f.coeff(0) == 0:
        raise ZeroDivisionError("series inverse needs a unit constant term")
    ctx = f.ctx
    h = np.array([ctx.inv(f.coeff(0))], dtype=np.int64)
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        e = ctx.conv(f.c[:k], h)[:k]
        he = ctx.conv(h, e)[:k]
        h = ctx.vsub(np.pad(ctx.vadd(h, h), (0, k - len(h))), np.pad(he, (0, k - len(he))))
    return UPoly(ctx, h[:prec])


class FixedDivisor:
    """Repeated division with remainder by one fixed divisor, through the
    reversal trick with a cached Newton inverse of the reversed divisor."""

    def __init__(self, g: UPoly):
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        self.g = g
        self.grev = g.rev()
        self.inv = None
        self.prec = 0

    def _inverse(self, prec: int) -> UPoly:
        if prec > self.prec:
            self.inv = inverse_series(self.grev, prec)
            self.prec = prec
        return self.inv.trunc(prec)

    def divrem(self, f: UPoly):
        dg = self.g.deg
        if f.deg < dg:
            return UPoly.zero(f.ctx), f
        if dg == 0:
            return f.scale(f.ctx.inv(self.g.coeff(0))), UPoly.zero(f.ctx)
        ctx, k = f.ctx, f.deg - dg
        q = ctx.conv(f.c[::-1][: k + 1], self._inverse(k + 1).padded(k + 1))[: k + 1][::-1]
        r = ctx.vsub(f.c[:dg], ctx.conv(q, self.g.c)[:dg])
        return UPoly(ctx, q), UPoly(ctx, r)

    def rem(self, f: UPoly) -> UPoly:
        return self.divrem(f)[1]

    def exact_div(self, f: UPoly) -> UPoly:
        q, r = self.divrem(f)
        if not r.is_zero:
            raise ArithmeticError("division was not exact")
        return q


def _euclid(f: UPoly, g: UPoly, rows: int):
    """The classical remainder sequence of (f, g) on one (rows, W) code
    block, W = max(len f, len g): row 0 the remainder and, for rows = 3, the
    cofactors u, v (r = u f + v g) sharing each update (von zur Gathen-
    Gerhard, Modern Computer Algebra, 3.2).  A quotient term c x^s is one
    vsubmul, M0[:, s:] -= c M1[:, :W - s]; W columns suffice, as
    deg u <= deg g and deg v <= deg f throughout.  Returns the block of the
    last nonzero remainder made monic by one vmul (zero if f = g = 0)."""
    ctx = f.ctx
    W = max(len(f.c), len(g.c))
    M0 = np.zeros((rows, W), dtype=np.int64)
    M1 = np.zeros((rows, W), dtype=np.int64)
    M0[0, : len(f.c)] = f.c
    M1[0, : len(g.c)] = g.c
    if rows == 3 and W:
        M0[1, 0] = M1[2, 0] = 1
    d0, d1 = f.deg, g.deg
    while d1 >= 0:
        linv = ctx.inv(int(M1[0, d1]))
        while d0 >= d1:
            s = d0 - d1
            c = ctx.mul(int(M0[0, d0]), linv)
            M0[:, s:] = ctx.vsubmul(M0[:, s:], c, M1[:, : W - s])
            d0 -= 1  # the top coefficient is cancelled; trim the rest
            while d0 >= 0 and M0[0, d0] == 0:
                d0 -= 1
        M0, M1, d0, d1 = M1, M0, d1, d0
    if d0 < 0:
        return M0
    return ctx.vmul(M0, np.int64(ctx.inv(int(M0[0, d0]))))


def xgcd(f: UPoly, g: UPoly):
    """Monic gcd d with d = u*f + v*g.  For nonzero f, g that are not
    associates, deg u < deg g - deg d and deg v < deg f - deg d; for
    associates, u = 0."""
    if f.is_zero and g.is_zero:
        raise ValueError("xgcd(0, 0) undefined")
    return tuple(UPoly(f.ctx, row) for row in _euclid(f, g, 3))


def pgcd(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd (zero for f = g = 0): the remainder row of xgcd's Euclid."""
    return UPoly(f.ctx, _euclid(f, g, 1)[0])


def plcm(f: UPoly, g: UPoly) -> UPoly:
    if f.is_zero or g.is_zero:
        return UPoly.zero(f.ctx)
    return (f * g).exact_div(pgcd(f, g)).monic()


# ---------------------------------------------------------------------------
# multipoint evaluation / interpolation (arrays across all points at once)


def multipoint_eval(f: UPoly, pts) -> np.ndarray:
    """f at every point: ctx.horner across all points at once."""
    return f.ctx.horner(f.c, pts)


def interpolate(ctx: FieldCtx, pts, vals) -> UPoly:
    """Unique polynomial of degree < len(pts) through the given points."""
    return UPoly(ctx, interpolate_rows(ctx, pts, np.asarray(vals, dtype=np.int64)[None, :])[0])


def interpolate_rows(ctx: FieldCtx, pts, V) -> np.ndarray:
    """Row i of the (m, n) result holds the ascending coefficients of the
    unique polynomial of degree < n through (pts[j], V[i, j]): the one
    product V L with the Lagrange matrix L = lagrange_rows(ctx, pts)."""
    return block_dot(ctx, V, lagrange_rows(ctx, pts))


def lagrange_rows(ctx: FieldCtx, pts) -> np.ndarray:
    """The (n, n) Lagrange matrix of n distinct points: row j holds the
    ascending coefficients of M / ((x - pts[j]) M'(pts[j])), with M the
    master polynomial prod_j (x - pts[j]) (von zur Gathen-Gerhard, Modern
    Computer Algebra, 5.2).  The quotients for all j come at once, top
    coefficient first, by synthetic division q <- pts * q + M_k, each row
    already scaled by w_j = 1 / M'(pts[j]): w q <- pts * (w q) + w M_k.
    Coefficient k of every row is written into row k of one C-ordered
    buffer, and L is its transpose, a view: one n x n array, no copy."""
    pts = np.asarray(pts, dtype=np.int64)
    n = len(pts)
    if len(np.unique(pts)) != n:
        raise ValueError("interpolation points must be pairwise distinct")
    T = np.empty((n, n), dtype=np.int64)
    if n == 0:
        return T.T
    M = np.zeros(n + 1, dtype=np.int64)
    M[0] = 1
    for u in pts:
        # M <- M * (x - u); the top slot stays zero until the last point
        M = ctx.vsubmul(np.concatenate(([0], M[:-1])), u, M)
    w = ctx.vinv(ctx.horner(UPoly(ctx, M).deriv().c, pts))
    T[n - 1] = w  # w times the monic top coefficient of M / (x - u)
    for k in range(n - 1, 0, -1):
        T[k - 1] = ctx.vadd(ctx.vmul(pts, T[k]), ctx.vmul(w, M[k]))
    return T.T


# multiply-adds of one block_dot block (m rows times K terms times a block of
# b columns), which bounds every field's working arrays for it: the
# vsum-of-vmul fallback holds all of them at once.  At compose_rem's largest
# grids (451 and 931 nodes, d = e = 16) blocks are 9 columns wide: its two
# interpolation passes take about 55 ms over F_65537 on a 2-vCPU host,
# against 20 ms in one block of all columns, which held copies of L and of
# the output planes.
_BLOCK_WORK = 1 << 22


def block_dot(ctx: FieldCtx, A, X: np.ndarray) -> np.ndarray:
    """A X for A (m, K) and X (K, c): A is prepared once by ctx.dot_map and
    applied to blocks of X's columns, so no product holds a second copy of
    X or more than _BLOCK_WORK multiply-adds (interpolate_rows, the power
    projections)."""
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2 or A.shape[1] != len(X):
        raise ValueError(f"inner dimension mismatch: {A.shape} times {X.shape}")
    m, K = A.shape
    c = X.shape[1]
    out = np.empty((m, c), dtype=np.int64)
    if m == 0 or c == 0:
        return out
    rows = ctx.dot_map(A)
    b = max(1, _BLOCK_WORK // max(m * K, 1))
    for s in range(0, c, b):
        out[:, s : s + b] = rows(X[:, s : s + b])
    return out


# ---------------------------------------------------------------------------
# Berlekamp-Massey


def berlekamp_massey(ctx: FieldCtx, seq) -> UPoly:
    """Monic minimal generating polynomial of the given sequence prefix.

    The connection polynomial C is an int64 array of length n + 2 (degree
    <= L <= n), B the copy of C[: L + 1] saved at the last length change
    and binv the inverse of that change's discrepancy b: b changes only
    there, so it is inverted once per length change.  Each step's
    discrepancy is one ctx.vdot of C[: L + 1] against the reversed sequence,
    which over F_p is one int64 dot and one reduction under the gate of
    _backend.Gate: its at most L + 1 terms and every partial sum are
    integers in [0, (L + 1)(p-1)**2], exact while that is at most
    2**63 - 1, else summed on limbs of the sequence window that keep each
    limb sum below it.  Each update is one vsubmul over B's support,
    C[m : m + len(B)] -= coef B, which over F_p is one reduction: the
    difference lies in [-(p-1)**2, p-1]."""
    s = np.fromiter(seq, dtype=np.int64)
    n = len(s)
    s_rev = s[::-1]
    C = np.zeros(n + 2, dtype=np.int64)  # connection polynomial C(D), ascending
    C[0] = 1
    B = C[:1].copy()
    L, m, binv = 0, 1, 1
    for i in range(n):
        # d = sum_{j=0..L} C_j s_{i-j}, C_0 = 1; s_rev[n - 1 - i + j] = s_{i-j}
        d = int(ctx.vdot(C[: L + 1], s_rev[n - 1 - i : n - i + L]))
        if d == 0:
            m += 1
            continue
        coef = ctx.mul(d, binv)
        T = C[: L + 1].copy() if 2 * L <= i else None
        C[m : m + len(B)] = ctx.vsubmul(C[m : m + len(B)], coef, B)
        if T is None:
            m += 1
        else:
            L, B, binv, m = i + 1 - L, T, ctx.inv(d), 1
    # minimal polynomial: x^L * C(1/x), i.e. reversed connection coefficients
    return UPoly(ctx, C[L::-1])


def common_generator(ctx: FieldCtx, seqs) -> UPoly:
    """lcm of berlekamp_massey(ctx, s) over the rows s of seqs, with one
    Berlekamp-Massey run for the first row and, mostly, one product for each
    further row: if the current lcm acc (monic, degree D, 2D <= N = len s)
    annihilates the prefix, i.e. coefficients D..N-1 of s * rev(acc) vanish,
    then BM(s) divides acc.  Proof by Massey's lemma ("Shift-register
    synthesis and BCH decoding", IEEE Trans. IT 1969): an LFSR of length L
    that generates s_0..s_{n-1} but not s_n forces length >= n + 1 - L on
    every LFSR generating s_0..s_n.  BM(s) has degree L_s <= D, so the
    sequences BM(s) and acc extend the prefix to cannot first differ at an
    n >= N >= L_s + D (that would force L_s >= n + 1 - D > L_s): they are
    one sequence u, and its monic generator divides acc and, being of degree
    >= L_s and dividing BM(s), equals BM(s).  Otherwise (the check fails, or
    2D > N) acc becomes plcm(acc, BM(s))."""
    acc = None
    for s in seqs:
        s = np.asarray(s, dtype=np.int64)
        if acc is not None and 2 * acc.deg <= len(s):
            if not np.any(ctx.conv(s, acc.c[::-1])[acc.deg : len(s)]):
                continue
        g = berlekamp_massey(ctx, s)
        acc = g if acc is None else plcm(acc, g)
    return UPoly.one(ctx) if acc is None else acc
