"""Dense univariate polynomials over a FieldCtx.

Coefficients are int64 code arrays in ascending degree order; the zero
polynomial is the empty array, so deg = len - 1 (-1 for zero).
Multiplication is the field context's exact conv() (schoolbook for short
operands, a limb-split float FFT for long ones).  xgcd and pgcd run one
Euclid on stacked (remainder, cofactor) code rows, and inverse_series one
Newton loop on code arrays; only results become UPolys.  Evaluation at
many points is Horner across all points at once, and interpolation is the
Lagrange form with every quotient by (x - point) formed at once
(interpolate_rows, many value rows through the same points); both are
O(n^2) array passes, which beat a subproduct tree at every size this
package reaches.
"""

from __future__ import annotations

import random

import numpy as np

from .field import FieldCtx, power


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
            r[i - dg : i + 1] = ctx.vsub(r[i - dg : i + 1], ctx.vmul(gc, np.int64(coef)))
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
        """f(x + alpha): array Horner, divide and conquer on halves above
        _HORNER_MAX_DEG."""
        if alpha == 0 or self.deg < 1:
            return self
        return _taylor_shift_rec(self, alpha)

    def eval_at(self, x0: int) -> int:
        """f(x0) by scalar Horner: the reference for multipoint_eval."""
        acc = 0
        for c in self.c[::-1]:
            acc = self.ctx.add(self.ctx.mul(acc, x0), int(c))
        return acc


def taylor_shift_rows(ctx: FieldCtx, G: np.ndarray, alpha: int) -> np.ndarray:
    """Every row of the code grid G, read as ascending coefficients in x,
    shifted x -> x + alpha, by Horner on all rows at once:
    acc <- acc * (x + alpha) + c_i is one vmul and one vadd per coefficient."""
    G = np.asarray(G, dtype=np.int64)
    acc = np.zeros_like(G)
    alpha = np.int64(alpha)
    for i in range(G.shape[1] - 1, -1, -1):
        # acc has degree < n - 1 - i here, so its top coefficient is zero
        nxt = np.empty_like(acc)
        nxt[:, 0] = G[:, i]
        nxt[:, 1:] = acc[:, :-1]
        acc = ctx.vadd(nxt, ctx.vmul(acc, alpha))
    return acc


# Array Horner costs O(n) vector ops of length n; halving pays off only
# beyond about this degree (F_65537 on a 2-vCPU host, degree 288: 4 ms by
# Horner against 14 ms by halving down to degree 16; break-even near 3000).
_HORNER_MAX_DEG = 1024


def _taylor_shift_rec(f: UPoly, alpha: int) -> UPoly:
    if f.deg <= _HORNER_MAX_DEG:
        return UPoly(f.ctx, taylor_shift_rows(f.ctx, f.c[None, :], alpha)[0])
    m = (f.deg + 1) // 2
    lo = UPoly(f.ctx, f.c[:m])
    hi = UPoly(f.ctx, f.c[m:])
    pw = power(UPoly(f.ctx, [alpha, 1]), m, UPoly.__mul__, UPoly.one(f.ctx))
    return _taylor_shift_rec(lo, alpha) + pw * _taylor_shift_rec(hi, alpha)


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
    vmul and one vsub, M0[:, s:] -= c M1[:, :W - s]; W columns suffice, as
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
            c = np.int64(ctx.mul(int(M0[0, d0]), linv))
            M0[:, s:] = ctx.vsub(M0[:, s:], ctx.vmul(M1[:, : W - s], c))
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
    unique polynomial of degree < n through (pts[j], V[i, j]), in Lagrange
    form sum_j V[i, j] / M'(pts[j]) * M / (x - pts[j]) with M the master
    polynomial prod_j (x - pts[j]).  The quotients for all j are formed at
    once, top coefficient first, by synthetic division q <- pts * q + M_k,
    and each of their coefficient vectors meets the weights in one exact
    product prepared by ctx.dot_map."""
    pts = np.asarray(pts, dtype=np.int64)
    V = np.asarray(V, dtype=np.int64)
    n = len(pts)
    if V.ndim != 2 or V.shape[1] != n:
        raise ValueError("points/values length mismatch")
    if len(np.unique(pts)) != n:
        raise ValueError("interpolation points must be pairwise distinct")
    out = np.zeros(V.shape, dtype=np.int64)
    if n == 0:
        return out
    M = np.zeros(n + 1, dtype=np.int64)
    M[0] = 1
    for u in pts:
        # M <- M * (x - u); the top slot stays zero until the last point
        M = ctx.vsub(np.concatenate(([0], M[:-1])), ctx.vmul(M, u))
    dM = UPoly(ctx, M).deriv()
    weights = ctx.dot_map(ctx.vmul(V, ctx.vinv(ctx.horner(dM.c, pts))))
    q = np.ones(n, dtype=np.int64)  # the monic top coefficient of M / (x - u)
    out[:, n - 1] = weights(q)
    for k in range(n - 1, 0, -1):
        q = ctx.vadd(ctx.vmul(pts, q), M[k])
        out[:, k - 1] = weights(q)
    return out


# ---------------------------------------------------------------------------
# Berlekamp-Massey


def berlekamp_massey(ctx: FieldCtx, seq) -> UPoly:
    """Monic minimal generating polynomial of the given sequence prefix.

    The connection polynomial C is an int64 array of length n + 2 (degree
    <= L <= n), B the copy of C[: L + 1] saved at the last length change;
    each step's discrepancy is one vdot against the reversed sequence and
    each update one vsub over B's support, C[m : m + len(B)]."""
    s = np.fromiter(seq, dtype=np.int64)
    n = len(s)
    s_rev = s[::-1]
    s_list = s.tolist()
    C = np.zeros(n + 2, dtype=np.int64)  # connection polynomial C(D), ascending
    C[0] = 1
    B = C[:1].copy()
    L, m, b = 0, 1, 1
    for i in range(n):
        # d = s_i + sum_{j=1..L} C_j s_{i-j}
        d = ctx.add(s_list[i], int(ctx.vdot(C[1 : L + 1], s_rev[n - i : n - i + L])))
        if d == 0:
            m += 1
            continue
        coef = np.int64(ctx.mul(d, ctx.inv(b)))
        T = C[: L + 1].copy() if 2 * L <= i else None
        C[m : m + len(B)] = ctx.vsub(C[m : m + len(B)], ctx.vmul(coef, B))
        if T is None:
            m += 1
        else:
            L, B, b, m = i + 1 - L, T, d, 1
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
