"""Dense univariate polynomials over a FieldCtx.

Coefficients are int64 code arrays in ascending degree order; the zero
polynomial is the empty array, so deg = len - 1 (-1 for zero).
Multiplication is the field context's exact conv() (schoolbook for short
operands, a limb-split float FFT for long ones).
"""

from __future__ import annotations

import random

import numpy as np

from .field import FieldCtx


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
        acc = 0
        for c in self.c[::-1]:
            acc = self.ctx.add(self.ctx.mul(acc, x0), int(c))
        return acc

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.int64)
        return self.ctx.eval_many(self.c, pts)


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
    xam = UPoly(f.ctx, [alpha, 1])
    pw = _pow_poly(xam, m)
    return _taylor_shift_rec(lo, alpha) + pw * _taylor_shift_rec(hi, alpha)


def _pow_poly(f: UPoly, e: int) -> UPoly:
    acc = UPoly.one(f.ctx)
    base = f
    while e:
        if e & 1:
            acc = acc * base
        base = base * base
        e >>= 1
    return acc


def inverse_series(f: UPoly, prec: int) -> UPoly:
    """1/f mod x^prec (Newton iteration); needs f(0) != 0."""
    if f.is_zero or f.coeff(0) == 0:
        raise ZeroDivisionError("series inverse needs a unit constant term")
    ctx = f.ctx
    h = UPoly.const(ctx, ctx.inv(f.coeff(0)))
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        e = (f.trunc(k) * h).trunc(k)
        h = (h + h - (h * e).trunc(k)).trunc(k)
    return h.trunc(prec)


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
        k = f.deg - dg
        qrev = (f.rev() * self._inverse(k + 1)).trunc(k + 1)
        q = qrev.rev(k)
        r = UPoly(f.ctx, f.ctx.vsub(f.padded(dg), (q * self.g).padded(dg)))
        return q, r

    def rem(self, f: UPoly) -> UPoly:
        return self.divrem(f)[1]

    def exact_div(self, f: UPoly) -> UPoly:
        q, r = self.divrem(f)
        if not r.is_zero:
            raise ArithmeticError("division was not exact")
        return q


def xgcd(f: UPoly, g: UPoly):
    """Monic gcd d with d = u*f + v*g."""
    ctx = f.ctx
    if f.is_zero and g.is_zero:
        raise ValueError("xgcd(0, 0) undefined")
    r0, r1 = f, g
    u0, u1 = UPoly.one(ctx), UPoly.zero(ctx)
    v0, v1 = UPoly.zero(ctx), UPoly.one(ctx)
    while not r1.is_zero:
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lead = int(r0.c[-1])
    if lead != 1:
        s = ctx.inv(lead)
        r0, u0, v0 = r0.scale(s), u0.scale(s), v0.scale(s)
    return r0, u0, v0


def pgcd(f: UPoly, g: UPoly) -> UPoly:
    r0, r1 = f, g
    while not r1.is_zero:
        r0, r1 = r1, r0.rem(r1)
    return r0.monic() if not r0.is_zero else r0


def plcm(f: UPoly, g: UPoly) -> UPoly:
    if f.is_zero or g.is_zero:
        return UPoly.zero(f.ctx)
    return (f * g).exact_div(pgcd(f, g)).monic()


# ---------------------------------------------------------------------------
# multipoint evaluation / interpolation (subproduct tree, naive below 16 pts)

_NAIVE_POINTS = 16


def _subproduct_tree(ctx, pts):
    level = [UPoly(ctx, [ctx.neg(int(u)), 1]) for u in pts]
    tree = [level]
    while len(level) > 1:
        nxt = [level[i] * level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        tree.append(nxt)
        level = nxt
    return tree


def multipoint_eval(f: UPoly, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.int64)
    if len(pts) == 0:
        return np.zeros(0, dtype=np.int64)
    if len(pts) <= _NAIVE_POINTS or f.deg <= _NAIVE_POINTS:
        return f.eval_many(pts)
    tree = _subproduct_tree(f.ctx, pts)
    rems = [f.rem(tree[-1][0])]
    for level in reversed(tree[:-1]):
        nxt = []
        for j, r in enumerate(rems):
            if 2 * j + 1 < len(level):
                nxt.append(r.rem(level[2 * j]))
                nxt.append(r.rem(level[2 * j + 1]))
            else:
                nxt.append(r)  # odd leftover: same node one level down
        rems = nxt
    return np.array([r.coeff(0) for r in rems], dtype=np.int64)


def interpolate(ctx: FieldCtx, pts, vals) -> UPoly:
    """Unique polynomial of degree < len(pts) through the given points."""
    pts = np.asarray(pts, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.int64)
    if len(pts) != len(vals):
        raise ValueError("points/values length mismatch")
    if len(np.unique(pts)) != len(pts):
        raise ValueError("interpolation points must be pairwise distinct")
    if len(pts) == 0:
        return UPoly.zero(ctx)
    tree = _subproduct_tree(ctx, pts)
    master = tree[-1][0]
    dvals = multipoint_eval(master.deriv(), pts)
    weights = ctx.vmul(vals, ctx.vinv(dvals))
    # combine up the tree: leaf i carries the constant weights[i]
    level = [UPoly.const(ctx, int(w)) for w in weights]
    for depth in range(len(tree) - 1):
        polys = tree[depth]
        nxt = []
        for j in range(0, len(level) - 1, 2):
            nxt.append(level[j] * polys[j + 1] + level[j + 1] * polys[j])
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# ---------------------------------------------------------------------------
# Berlekamp-Massey


def berlekamp_massey(ctx: FieldCtx, seq) -> UPoly:
    """Monic minimal generating polynomial of the given sequence prefix.

    The connection polynomials C and B are int64 arrays of length n + 2
    (their degrees never exceed L <= n); each step's discrepancy is one
    vmul + vsum against the reversed sequence and each update one vsub."""
    s = np.fromiter(seq, dtype=np.int64)
    n = len(s)
    s_rev = s[::-1]
    C = np.zeros(n + 2, dtype=np.int64)  # connection polynomial C(D), ascending
    C[0] = 1
    B = C.copy()
    L, m, b = 0, 1, 1
    for i in range(n):
        # d = s_i + sum_{j=1..L} C_j s_{i-j}
        d = ctx.add(int(s[i]), int(ctx.vsum(ctx.vmul(C[1 : L + 1], s_rev[n - i : n - i + L]))))
        if d == 0:
            m += 1
            continue
        coef = np.int64(ctx.mul(d, ctx.inv(b)))
        T = C.copy() if 2 * L <= i else None
        C[m:] = ctx.vsub(C[m:], ctx.vmul(coef, B[: n + 2 - m]))
        if T is None:
            m += 1
        else:
            L, B, b, m = i + 1 - L, T, d, 1
    # minimal polynomial: x^L * C(1/x), i.e. reversed connection coefficients
    return UPoly(ctx, C[L::-1])
