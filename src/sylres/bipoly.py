"""Dense bivariate polynomials, the ideal basis pair (a, b), and the
vectorizations between K[x,y] and polynomial vectors.

A BiPoly stores the full coefficient grid g with g[i, j] the coefficient of
x^i y^j; the grid is trimmed so the top row and top column carry the exact
degrees.

A polynomial vector of length n over K[t] is one (n, width) int64 array:
row i holds entry i's ascending coefficients in t, zero-padded to the
common width.  vec(f, "y", n) stacks the y-coefficients of f as such a
vector over K[x], zero-padded on top and ordered from highest y-power
down, matching the column convention of the Sylvester matrices; it is a
flip and transpose of f.g.  vec(f, "x", n) exchanges the variable roles
and unvec inverts both.  The public vec_y/vec_x/unvec_y/unvec_x speak
list[UPoly] and convert once through the to_array/to_list pair.
"""

from __future__ import annotations

import random

import numpy as np

from .field import FieldCtx
from .upoly import UPoly, taylor_shift_rows


class BiPoly:
    __slots__ = ("ctx", "g")

    def __init__(self, ctx: FieldCtx, grid):
        g = np.asarray(grid, dtype=np.int64)
        if g.ndim != 2:
            raise ValueError("coefficient grid must be 2-dimensional")
        nx, ny = g.shape
        while nx > 1 and not g[nx - 1, :ny].any():
            nx -= 1
        while ny > 1 and not g[:nx, ny - 1].any():
            ny -= 1
        self.ctx = ctx
        self.g = np.ascontiguousarray(g[:nx, :ny])

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, np.zeros((1, 1), dtype=np.int64))

    @classmethod
    def const(cls, ctx, code: int):
        return cls(ctx, np.array([[code]], dtype=np.int64))

    @classmethod
    def one(cls, ctx):
        return cls.const(ctx, 1)

    @classmethod
    def x(cls, ctx):
        return cls(ctx, np.array([[0], [1]], dtype=np.int64))

    @classmethod
    def y(cls, ctx):
        return cls(ctx, np.array([[0, 1]], dtype=np.int64))

    @classmethod
    def monomial(cls, ctx, i: int, j: int, code: int = 1):
        g = np.zeros((i + 1, j + 1), dtype=np.int64)
        g[i, j] = code
        return cls(ctx, g)

    @classmethod
    def from_terms(cls, ctx, terms):
        """terms: iterable of (code, i, j); repeated monomials are summed."""
        terms = list(terms)
        if not terms:
            return cls.zero(ctx)
        nx = max(t[1] for t in terms) + 1
        ny = max(t[2] for t in terms) + 1
        g = np.zeros((nx, ny), dtype=np.int64)
        for c, i, j in terms:
            g[i, j] = ctx.add(int(g[i, j]), c)
        return cls(ctx, g)

    @classmethod
    def from_upoly(cls, f: UPoly, var: str):
        if var == "x":
            return cls(f.ctx, f.padded(max(f.deg + 1, 1)).reshape(-1, 1))
        if var == "y":
            return cls(f.ctx, f.padded(max(f.deg + 1, 1)).reshape(1, -1))
        raise ValueError("var must be 'x' or 'y'")

    @classmethod
    def random(cls, ctx, dx: int, dy: int, rng: random.Random):
        """Random polynomial with exact degrees (dx, dy)."""
        g = ctx.rand_array(rng, (dx + 1) * (dy + 1)).reshape(dx + 1, dy + 1)
        while not g[dx, :].any():
            g[dx, :] = ctx.rand_array(rng, dy + 1)
        while not g[:, dy].any():
            g[:, dy] = ctx.rand_array(rng, dx + 1)
        return cls(ctx, g)

    # -- basics --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.g.any()

    @property
    def deg_x(self) -> int:
        return -1 if self.is_zero else self.g.shape[0] - 1

    @property
    def deg_y(self) -> int:
        return -1 if self.is_zero else self.g.shape[1] - 1

    def deg(self, var: str) -> int:
        return self.deg_x if var == "x" else self.deg_y

    def coeff(self, i: int, j: int) -> int:
        nx, ny = self.g.shape
        return int(self.g[i, j]) if i < nx and j < ny else 0

    def __eq__(self, other):
        return (
            isinstance(other, BiPoly)
            and self.ctx == other.ctx
            and self.g.shape == other.g.shape
            and np.array_equal(self.g, other.g)
        )

    def __hash__(self):
        return hash((hash(self.ctx), self.g.shape, self.g.tobytes()))

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for j in range(self.deg_y, -1, -1):
            for i in range(self.deg_x, -1, -1):
                v = self.coeff(i, j)
                if v == 0:
                    continue
                mono = "".join(
                    (
                        f"x^{i}" if i > 1 else "x" if i == 1 else "",
                        f"y^{j}" if j > 1 else "y" if j == 1 else "",
                    )
                )
                if not mono:
                    terms.append(str(v))
                else:
                    terms.append(mono if v == 1 else f"{v}*{mono}")
        return " + ".join(terms)

    def padded(self, nx: int, ny: int) -> np.ndarray:
        out = np.zeros((nx, ny), dtype=np.int64)
        sx, sy = self.g.shape
        out[:sx, :sy] = self.g
        return out

    # -- ring ops --------------------------------------------------------------

    def __add__(self, other):
        nx = max(self.g.shape[0], other.g.shape[0])
        ny = max(self.g.shape[1], other.g.shape[1])
        return BiPoly(self.ctx, self.ctx.vadd(self.padded(nx, ny), other.padded(nx, ny)))

    def __sub__(self, other):
        nx = max(self.g.shape[0], other.g.shape[0])
        ny = max(self.g.shape[1], other.g.shape[1])
        return BiPoly(self.ctx, self.ctx.vsub(self.padded(nx, ny), other.padded(nx, ny)))

    def __neg__(self):
        return BiPoly(self.ctx, self.ctx.vneg(self.g))

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            return bimul(self, other)
        return self.scale(other)

    def scale(self, code: int):
        if code == 0 or self.is_zero:
            return BiPoly.zero(self.ctx)
        return BiPoly(self.ctx, self.ctx.vmul(self.g, np.int64(code)))

    def mul_monomial(self, i: int, j: int):
        """Multiply by x^i y^j."""
        if self.is_zero:
            return self
        nx, ny = self.g.shape
        out = np.zeros((nx + i, ny + j), dtype=np.int64)
        out[i:, j:] = self.g
        return BiPoly(self.ctx, out)

    # -- slices and evaluations -----------------------------------------------

    def upoly_coeff(self, var: str, k: int) -> UPoly:
        """Coefficient of var**k, as a polynomial in the other variable."""
        if var == "x":
            if k > self.deg_x:
                return UPoly.zero(self.ctx)
            return UPoly(self.ctx, self.g[k, :])
        if k > self.deg_y:
            return UPoly.zero(self.ctx)
        return UPoly(self.ctx, self.g[:, k])

    def lead_coeff(self, var: str) -> UPoly:
        """Leading coefficient with respect to var (polynomial in the other)."""
        return self.upoly_coeff(var, self.deg(var))

    def as_univariate(self, var: str) -> UPoly:
        """View as univariate in var; the other variable must not occur."""
        other = "y" if var == "x" else "x"
        if self.deg(other) > 0:
            raise ValueError(f"polynomial is not univariate in {var}")
        return UPoly(self.ctx, self.g[:, 0] if var == "x" else self.g[0, :])

    def eval_xy(self, x0: int, y0: int) -> int:
        acc = 0
        for i in range(self.deg_x, -1, -1):
            row = self.upoly_coeff("x", i).eval_at(y0)
            acc = self.ctx.add(self.ctx.mul(acc, x0), row)
        return acc

    def subs_shift(self, var: str, alpha: int) -> "BiPoly":
        """Substitute var -> var + alpha."""
        if alpha == 0:
            return self
        g = self.g if var == "y" else self.g.T  # rows are polynomials in var
        out = taylor_shift_rows(self.ctx, g, alpha)
        return BiPoly(self.ctx, out if var == "y" else out.T)

    def rev(self, var: str, k: int) -> "BiPoly":
        """Reverse in var at formal degree k (k >= deg in var required)."""
        if k < self.deg(var):
            raise ValueError("reversal degree below actual degree")
        if var == "x":
            return BiPoly(self.ctx, self.padded(k + 1, self.g.shape[1])[::-1, :])
        return BiPoly(self.ctx, self.padded(self.g.shape[0], k + 1)[:, ::-1])


def bimul(f: BiPoly, g: BiPoly) -> BiPoly:
    """Product of two bivariate polynomials (grid_mul on their grids)."""
    if f.is_zero or g.is_zero:
        return BiPoly.zero(f.ctx)
    return BiPoly(f.ctx, grid_mul(f.ctx, [(f.g, g.g)]))


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
    G_k for ctx.conv_sum's memo; the packed operand is keyed with its rows
    and the stride, so one memo serves every truncation of a grid."""
    if rows is not None:
        pairs = [(F[:rows], G[:rows]) for F, G in pairs]
    stride = max(0, max(F.shape[1] + G.shape[1] for F, G in pairs) - 1)
    out = np.zeros((max(0, max(len(F) + len(G) for F, G in pairs) - 1), stride), dtype=np.int64)
    packed, tags = [], []
    for k, (F, G) in enumerate(pairs):
        if F.size and G.size:
            packed.append((_pack(F, stride), _pack(G, stride)))
            tags.append(keys and (keys[k], len(G), stride))
    if packed:
        prod = ctx.conv_sum(packed, memo, tags)
        out.reshape(-1)[: len(prod)] = prod
    return out if rows is None else out[:rows]


# ---------------------------------------------------------------------------
# vectorizations


def to_array(v: list[UPoly]) -> np.ndarray:
    """Array whose row i holds v[i]'s ascending coefficients, as wide as the
    longest entry (at least 1)."""
    out = np.zeros((len(v), max([len(e.c) for e in v] + [1])), dtype=np.int64)
    for i, e in enumerate(v):
        out[i, : len(e.c)] = e.c
    return out


def to_list(ctx: FieldCtx, V: np.ndarray) -> list[UPoly]:
    """Inverse of to_array: one UPoly per row."""
    return [UPoly(ctx, row) for row in V]


def fit(V: np.ndarray, width: int) -> np.ndarray:
    """V zero-padded or truncated to `width` columns."""
    if V.shape[1] >= width:
        return V[:, :width]
    out = np.zeros((V.shape[0], width), dtype=np.int64)
    out[:, : V.shape[1]] = V
    return out


def vec(f: BiPoly, var: str, n: int) -> np.ndarray:
    """Row i holds the var^(n-1-i) coefficient of f, ascending in the other
    variable."""
    if n <= f.deg(var):
        raise ValueError(f"vector length {n} too small for {var}-degree {f.deg(var)}")
    g = f.g if var == "x" else f.g.T
    k = min(g.shape[0], n)  # k < g.shape[0] only for f = 0
    out = np.zeros((n, g.shape[1]), dtype=np.int64)
    out[n - k :] = g[:k][::-1]
    return out


def unvec(ctx: FieldCtx, V: np.ndarray, var: str) -> BiPoly:
    """Inverse of vec: sum_i V[i](outer) * var^(n-1-i)."""
    if V.size == 0:
        return BiPoly.zero(ctx)
    return BiPoly(ctx, V[::-1] if var == "x" else V[::-1].T)


def vec_y(f: BiPoly, n: int) -> list[UPoly]:
    """[0 ... 0  f_d ... f_0]^T with f_j the y^j coefficient, length n."""
    return to_list(f.ctx, vec(f, "y", n))


def vec_x(f: BiPoly, n: int) -> list[UPoly]:
    return to_list(f.ctx, vec(f, "x", n))


def _unvec_list(v: list[UPoly], var: str, n: int | None) -> BiPoly:
    if n is not None and n != len(v):
        raise ValueError("length mismatch")
    return unvec(v[0].ctx, to_array(v), var)


def unvec_y(v: list[UPoly], n: int | None = None) -> BiPoly:
    return _unvec_list(v, "y", n)


def unvec_x(v: list[UPoly], n: int | None = None) -> BiPoly:
    return _unvec_list(v, "x", n)


# ---------------------------------------------------------------------------
# ideal basis


class IdealBasis:
    """The pair (a, b) generating the ideal, with cached degree data."""

    __slots__ = ("a", "b", "da", "db", "ea", "eb", "d", "e", "nx", "ny", "_cache")

    def __init__(self, a: BiPoly, b: BiPoly):
        if a.is_zero or b.is_zero:
            raise ValueError("ideal basis polynomials must be nonzero")
        if a.ctx != b.ctx:
            raise ValueError("ideal basis polynomials over different fields")
        self.a = a
        self.b = b
        self.da = a.deg_x
        self.db = b.deg_x
        self.ea = a.deg_y
        self.eb = b.deg_y
        self.d = max(self.da, self.db)
        self.e = max(self.ea, self.eb)
        self.nx = self.da + self.db
        self.ny = self.ea + self.eb
        self._cache = {}

    @property
    def ctx(self):
        return self.a.ctx

    def degree_vector(self):
        return (self.da, self.db, self.ea, self.eb)

    def lift(self, ctx) -> "IdealBasis":
        """Reinterpret the coefficients in an extension field (codes embed)."""
        return IdealBasis(BiPoly(ctx, self.a.g), BiPoly(ctx, self.b.g))

    def __repr__(self):
        return f"IdealBasis(a={self.a!r}, b={self.b!r})"
