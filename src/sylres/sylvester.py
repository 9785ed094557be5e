"""Implicit Sylvester matrices and the structured operations on them.

A SylvMat never materialises its entries: it is the pair of generator
polynomials plus the orientation.  For orientation 'y' the matrix is the
classical Sylvester matrix of (g1, g2) with respect to y, an n x n matrix
over K[x] with n = deg_y g1 + deg_y g2; its first deg_y(g2) columns are the
vectors vec_y(y^s * g1) and the remaining deg_y(g1) columns vec_y(y^s * g2),
shifts s decreasing.  Orientation 'x' exchanges the variable roles.

Throughout, the orientation variable is called "inner" (it fixes the
dimension) and the other one "outer" (matrix entries live in K[outer]).

Vectors over K[outer] are (n, width) int64 arrays, row i holding entry i's
ascending outer coefficients (see bipoly).  The structured products
(matvec_window, matvec_window_T) and the truncated solves (solve_window,
solve_window_T) work on such arrays only; matvec, matvec_T,
trunc_inv_apply and trunc_inv_apply_T are their list[UPoly] adapters,
converting once at entry and once at exit.
S @ W is one field.grid_mul of two pairs (one spectral product when FFT
sized); its transpose is one grid_mul per generator.  A truncated solve
transforms each generator grid once per (rows, FFT length) in a memo it
owns and drops on return.
The truncated solves halve the window, each residual formed from the low
half's last deg S columns only, down to leaves of at most
LEAF_INNER_MAX // n columns.  A leaf is lifted column by column, u_c from
v_c and the k previous columns, through one dense map
[A | -A S_1 | ... | -A S_k] with A = S(0)^{-1} (S_j^T and S(0)^{-T} when
transposed), prepared by ctx.digit_map once per solve, or once per dict
of maps that a caller hands to its solves (a normalform division program
hands its own to every solve it makes); the map is dropped with the solve
or with the dict, so nothing of it stays on S.  A leaf runs on base-field
digits (one decode in, one encode out), a column one base product.  A
leaf of width 1 (a width-1 solve, or n above LEAF_INNER_MAX / 2) is the
k = 0 map [A].  A window of at least n (deg S + 1) columns whose leaf map
holds at most ONE_LEAF_MAP_MAX codes is one leaf, with no halving.  Every
S(0)^{-1}, in either direction, comes from one Bezout route on code arrays
(_inverse_T): the unit vectors' solves in one O(n^2) recurrence seeded by
the Bezout triple of S's outer-constant slices, read into the leaf map and
dropped.  That triple is cached on S (const_xgcd); is_column_reduced(S)
reads S.reversed_matrix()'s, whose constant slices are S's leading
coefficients, so solves against the reversed matrix run no xgcd of their own.
require_reduced and require_both_reduced are the package's one gate on
column reducedness.
"""

from __future__ import annotations

import numpy as np

from ._dense import SingularMatrixError
from .bipoly import BiPoly, IdealBasis, fit, to_array, to_list
from .field import grid_mul
from .upoly import UPoly, xgcd


class NotColumnReducedError(ValueError):
    pass


class SylvMat:
    __slots__ = ("wrt", "g1", "g2", "m1", "m2", "n", "c1", "c2", "_cache")

    def __init__(self, wrt: str, g1: BiPoly, g2: BiPoly):
        if wrt not in ("x", "y"):
            raise ValueError("orientation must be 'x' or 'y'")
        if g1.is_zero or g2.is_zero:
            raise ValueError("generators must be nonzero")
        self.wrt = wrt
        self.g1 = g1
        self.g2 = g2
        self.m1 = g1.deg(wrt)
        self.m2 = g2.deg(wrt)
        self.n = self.m1 + self.m2
        outer = self.outer
        self.c1 = g1.deg(outer)  # degree of the first m2 columns
        self.c2 = g2.deg(outer)  # degree of the last m1 columns
        self._cache = {}

    @property
    def outer(self) -> str:
        return "y" if self.wrt == "x" else "x"

    @property
    def ctx(self):
        return self.g1.ctx

    @property
    def column_degrees(self) -> list[int]:
        return [self.c1] * self.m2 + [self.c2] * self.m1

    @property
    def degree(self) -> int:
        return max(self.c1, self.c2)

    def __repr__(self):
        return f"SylvMat(wrt={self.wrt!r}, n={self.n}, coldeg=({self.c1},{self.c2}))"

    def reversed_matrix(self) -> "SylvMat":
        """Generators reversed in the outer variable at the column degrees;
        its constant matrix is this matrix's column leading matrix."""
        if "rev" not in self._cache:
            g1, g2 = self.g1.rev(self.outer, self.c1), self.g2.rev(self.outer, self.c2)
            self._cache["rev"] = SylvMat(self.wrt, g1, g2)
        return self._cache["rev"]

    def const_xgcd(self):
        """The Bezout triple (g, u, v) of the generators' outer-constant
        slices p, q (u p + v q = g), computed once; with g = 1 it is the
        solve of R = 1 that seeds _inverse_T."""
        if "const_xgcd" not in self._cache:
            p0, q0 = (gen.upoly_coeff(self.outer, 0) for gen in (self.g1, self.g2))
            self._cache["const_xgcd"] = xgcd(p0, q0)
        return self._cache["const_xgcd"]

    def at(self, x0: int) -> np.ndarray:
        """S evaluated at outer = x0, as a scalar matrix: each generator is
        evaluated in the outer variable (ctx.horner over its grid)."""
        return self._banded([self.ctx.horner(G, x0)[None] for G in self.grids()])[0]

    def layers(self, k: int) -> np.ndarray:
        """S_0, ..., S_k, the coefficients of outer^0, ..., outer^k, as a
        (k + 1, n, n) array of scalar matrices."""
        return self._banded([fit(G[: k + 1].T, k + 1).T for G in self.grids()])

    def _banded(self, rows) -> np.ndarray:
        """Scalar matrices, one per row of rows[0] (inner coefficients of g1,
        ascending) and rows[1] (of g2): column j of a generator's block holds
        its coefficients, highest first, from row j on."""
        M = np.zeros((len(rows[0]), self.n, self.n), dtype=np.int64)
        col = 0
        for C, deg, count in zip(rows, (self.m1, self.m2), (self.m2, self.m1)):
            j = np.arange(count)[:, None]
            M[:, j + np.arange(deg + 1), col + j] = C[:, None, ::-1]
            col += count
        return M

    def constant_matrix(self) -> np.ndarray:
        """S(0): the outer-variable constant coefficient, as a scalar matrix."""
        return self.at(0)

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        """The generators' code grids indexed [outer, inner], built once."""
        if "grids" not in self._cache:
            self._cache["grids"] = tuple(g.g if self.wrt == "y" else g.g.T for g in (self.g1, self.g2))
        return self._cache["grids"]


def build_Sy(basis: IdealBasis) -> SylvMat:
    if "Sy" not in basis._cache:
        basis._cache["Sy"] = SylvMat("y", basis.a, basis.b)
    return basis._cache["Sy"]


def build_Sx(basis: IdealBasis) -> SylvMat:
    if "Sx" not in basis._cache:
        basis._cache["Sx"] = SylvMat("x", basis.a, basis.b)
    return basis._cache["Sx"]


def build_Tx(basis: IdealBasis, delta: int) -> SylvMat:
    """Sylvester matrix in x large enough to divide vectors of length delta+1.

    For delta >= n_x one generator is multiplied by x^m, m = delta - n_x + 1,
    choosing the one whose y-leading coefficient is divisible by x (b when
    neither is); the result stays column reduced.
    """
    Sx = build_Sx(basis)
    require_reduced(Sx, "S_x")
    if delta < basis.nx:
        return Sx
    m = delta - basis.nx + 1
    key = ("Tx", m)
    if key not in basis._cache:
        s = basis.a.lead_coeff("y")
        if s.coeff(0) == 0:  # x | s, so x does not divide the y-lead of b
            basis._cache[key] = SylvMat("x", basis.a.mul_monomial(m, 0), basis.b)
        else:
            basis._cache[key] = SylvMat("x", basis.a, basis.b.mul_monomial(m, 0))
    return basis._cache[key]


def is_column_reduced(S: SylvMat) -> bool:
    """Leading-coefficient criterion: the outer-variable leading coefficients
    of the generators are coprime and at least one has full inner degree.
    They are the outer-constant slices of S.reversed_matrix(), so their
    Bezout triple is that matrix's const_xgcd(), which seeds its S(0)^{-1}."""
    if "reduced" not in S._cache:
        full = S.g1.lead_coeff(S.outer).deg == S.m1 or S.g2.lead_coeff(S.outer).deg == S.m2
        S._cache["reduced"] = full and S.reversed_matrix().const_xgcd()[0].deg == 0
    return S._cache["reduced"]


def require_reduced(S: SylvMat, name: str) -> None:
    """NotColumnReducedError naming S unless S is column reduced."""
    if not is_column_reduced(S):
        raise NotColumnReducedError(f"{name} is not column reduced")


def require_both_reduced(basis: IdealBasis) -> None:
    """The normal form's precondition: S_y, then S_x, column reduced."""
    require_reduced(build_Sy(basis), "S_y")
    require_reduced(build_Sx(basis), "S_x")


def dense_form(S: SylvMat) -> list[list[UPoly]]:
    """Explicit n x n materialisation (testing/oracle bridge), read from
    the layers: entry (i, j) has outer coefficients S_0[i, j], ..., S_k[i, j]."""
    L = S.layers(S.degree)
    return [[UPoly(S.ctx, L[:, i, j]) for j in range(S.n)] for i in range(S.n)]


def _check_len(S: SylvMat, v) -> None:
    if len(v) != S.n:
        raise ValueError(f"vector length {len(v)} does not match dimension {S.n}")


def matvec(S: SylvMat, w: list[UPoly]) -> list[UPoly]:
    """S @ w via two bivariate products, never materialising S."""
    _check_len(S, w)
    return to_list(S.ctx, matvec_window(S, to_array(w)))


def matvec_window(S: SylvMat, W: np.ndarray, l: int | None = None, memo: dict | None = None) -> np.ndarray:
    """(S @ W) mod outer^l as an (n, l) array (the whole product, of width
    width(W) + degree, when l is None): one two-pair grid_mul, truncated to
    outer^l, which keeps deep solve nodes proportional to their window.
    memo, owned by one solve against S, keeps the generators' spectra."""
    if l is not None:
        W = W[:, :l]
    # a block's rows, reversed and transposed, are the [outer, inner] grid
    # of sum_i W[i] inner^(count-1-i); both block products have n inner
    # coefficients, so they share one stride and sum in one product, whose
    # inner coefficients, read highest first, are the product vector
    pairs = [(B[::-1].T, G) for B, G in zip((W[: S.m2], W[S.m2 :]), S.grids())]
    V = grid_mul(S.ctx, pairs, l, memo, (0, 1)).T[::-1]
    return V if l is None else fit(V, l)


def matvec_T(S: SylvMat, ell: list[UPoly], out_len: int) -> list[UPoly]:
    """Transpose of matvec on coefficient spaces (list adapter of matvec_window_T)."""
    _check_len(S, ell)
    return to_list(S.ctx, matvec_window_T(S, to_array(ell), out_len))


def matvec_window_T(S: SylvMat, L: np.ndarray, out_len: int) -> np.ndarray:
    """Transpose of matvec restricted to outer windows of width out_len: the
    two products become middle products (outer-variable correlations
    against the generators)."""
    return _transposed_product(S, L, S.reversed_matrix().grids(), S.c1, S.c2, out_len)


def _matvec_semiT(S: SylvMat, U: np.ndarray, out_len: int, memo: dict | None = None) -> np.ndarray:
    """(sum_k S_k^T outer^k) @ U: transposed layers, ordinary convolution."""
    return _transposed_product(S, U, S.grids(), 0, 0, out_len, memo)


def _transposed_product(S, L, grids, off1, off2, out_len, memo=None) -> np.ndarray:
    """Rows m1.. of g1 * Lambda and m2.. of g2 * Lambda (in the inner
    variable; grids of g1, g2 given), outer window [off, off + out_len),
    where Lambda = sum_i L[i] * inner^i (ascending, unlike vec/unvec).  The
    two products keep different inner rows, so each is its own grid_mul;
    memo, owned by one solve against S, keeps the generators' spectra."""
    out = np.zeros((S.n, out_len), dtype=np.int64)
    blocks = ((0, S.m2, S.m1, off1), (S.m2, S.m1, S.m2, off2))
    for key, (G, (top, count, lo, off)) in enumerate(zip(grids, blocks)):
        P = grid_mul(S.ctx, [(L.T, G)], off + out_len, memo, (key,))
        block = P[off:, lo : lo + count].T
        out[top : top + block.shape[0], : block.shape[1]] = block
    return out


# ---------------------------------------------------------------------------
# truncated inverse application (x-adic Hensel solves against S(0))

# Largest inner dimension n (k + 1) of a truncated solve's dense leaf map,
# which fixes the leaf width at LEAF_INNER_MAX // n columns (measured; see
# the leaf sweep in BENCH_19.json); past n = LEAF_INNER_MAX the leaf is the
# k = 0 map, of inner dimension n.
LEAF_INNER_MAX = 512


# Largest leaf map, n^2 (deg S + 1) codes, for which a window of at least
# n (deg S + 1) columns is solved as one leaf: below it the column-by-column
# lift beats halving, above it halving down to LEAF_INNER_MAX wins (measured
# on one-column solves at l = 4de; see the leaf-rule sweep in BENCH_22.json).
ONE_LEAF_MAP_MAX = 1 << 18


def _leaf_width(S: SylvMat, l: int) -> int:
    """Leaf width of a truncated solve of width l against S: the whole
    window when it is long against a small leaf map, else the cap (at
    least one column)."""
    n, k = S.n, S.degree
    if l >= n * (k + 1) and n * n * (k + 1) <= ONE_LEAF_MAP_MAX:
        return l
    return min(l, max(LEAF_INNER_MAX // max(n, 1), 1))


def _inverse_T(S: SylvMat) -> np.ndarray:
    """S(0)^{-T} through the scalar Sylvester system: with p, q the
    outer-constant generator slices, S(0) z = r when z encodes (A, B) with
    A p + B q = R and deg A < m2, deg B < m1.  Nonsingularity of S(0)
    forces gcd(p, q) = 1 and full formal degree for p or q, so one Bezout
    route is total: (a) q has degree m2, A = (R u) rem q and
    B = (R - A p) / q, where u p + v q = 1; (b) p has degree m1 and the
    roles swap.  (X, Y) is (A, B) on route (a) and (B, A) on route (b).
    Row n - 1 - m of the result solves R = t^m.  R = 1 has (X, Y) = (u, v)
    on route (a) and (v, u) on route (b), read from S.const_xgcd() (which
    is_column_reduced() has already computed when S is a reversed matrix);
    t^(m+1) continues t^m's (X, Y) as t X - c divisor and t Y + c other,
    where c cancels t X's coefficient at t^dd, dd = deg divisor: n steps
    of O(n) codes, with no division."""
    ctx, n = S.ctx, S.n
    p0, q0 = (G[0] for G in S.grids())
    if not (p0.any() or q0.any()):
        raise SingularMatrixError("constant coefficient matrix is singular")
    g, u, v = S.const_xgcd()
    route_a = q0[-1] != 0
    div, other, X0, Y0 = (q0, p0, u, v) if route_a else (p0, q0, v, u)
    if g.deg != 0 or div[-1] == 0:
        raise SingularMatrixError("constant coefficient matrix is singular")
    dd = len(div) - 1
    # row m holds t^m's X and Y after one leading zero, so row m up to
    # its last code is t X (or t Y) with the top coefficient dropped; xgcd's
    # degree bounds give deg X0 < dd and deg Y0 < n - dd, and a constant
    # divisor has X0 empty and Y0 = 1 / div
    X = np.zeros((n, dd + 1), dtype=np.int64)
    Y = np.zeros((n, n - dd + 1), dtype=np.int64)
    lead = ctx.inv(int(div[dd]))
    if dd:
        X[:1, 1:], Y[:1, 1:] = X0.padded(dd), Y0.padded(n - dd)
    else:  # xgcd gives u = 0 for two constants
        Y[:1, 1:2] = lead
    for m in range(n - 1):
        c = ctx.mul(int(X[m, dd]), lead)
        X[m + 1, 1:] = ctx.vsubmul(X[m, :dd], c, div[:dd])
        Y[m + 1, 1:] = ctx.vsubmul(Y[m, :-1], ctx.neg(c), other[:-1])
    # (A, B) in route order, each reversed
    A, B = (X, Y) if route_a else (Y, X)
    return np.concatenate([A[:, :0:-1], B[:, :0:-1]], axis=1)[::-1]


def _leaf_map(S: SylvMat, transposed: bool, k: int):
    """x -> A [x_0 - S_1 x_1 - ... - S_k x_k] for x = [x_0; ...; x_k] of
    n(k + 1) codes, A = S(0)^{-1}: the map [A | -A S_1 | ... | -A S_k],
    filled in place and prepared by one ctx.digit_map, so x and the result
    are digit vectors (see _lift).  Transposed, S_j^T and A = S(0)^{-T}
    take their places.  The caller owns it for one solve."""
    ctx, n = S.ctx, S.n
    A = _inverse_T(S)
    A = A if transposed else A.T
    layers = S.layers(k)
    M = np.empty((n, n * (k + 1)), dtype=np.int64)
    M[:, :n] = A
    apply_A = ctx.dot_map(A)
    for j in range(1, k + 1):
        M[:, n * j : n * (j + 1)] = ctx.vneg(apply_A(layers[j].T if transposed else layers[j]))
    return ctx.digit_map(M)


def _lift(ctx, leaf, k: int, V: np.ndarray) -> np.ndarray:
    """U (n, w, ...) with u_c = leaf([v_c; u_{c-1}; ...; u_{c-k}]), u_c = 0
    for c < 0: one leaf product per column (x-adic lifting), on every
    right-hand side along V's trailing axes at once, on ctx's digit vectors
    (one to_digits, one from_digits).  Row w - 1 - c of the buffer holds
    v_c, then u_c, so each argument is a contiguous slice."""
    n, w = V.shape[:2]
    rhs = V.shape[2:]
    T = np.zeros((w + k, n * ctx.width) + rhs, dtype=np.int64)
    T[:w] = np.swapaxes(ctx.to_digits(V[:, ::-1]), 0, 1)
    arg = (-1,) + rhs
    for r in range(w - 1, -1, -1):
        T[r] = leaf(T[r : r + k + 1].reshape(arg))
    return ctx.from_digits(np.swapaxes(T[w - 1 :: -1], 0, 1))


def _check_order(l: int) -> None:
    if l <= 0:
        raise ValueError("truncation order must be positive")


def trunc_inv_apply(S: SylvMat, v: list[UPoly], l: int) -> list[UPoly]:
    """u with S u = v (mod outer^l) (list adapter of solve_window)."""
    _check_len(S, v)
    _check_order(l)
    return to_list(S.ctx, solve_window(S, fit(to_array(v), l), l))


def solve_window(S: SylvMat, V: np.ndarray, l: int, maps: dict | None = None) -> np.ndarray:
    """U (n, l) with S U = V (mod outer^l), V of width l; requires S(0)
    nonsingular.  maps, when given, keeps the leaf maps for the next solve
    against S (see _solve_series)."""
    return _solve_series(S, False, V, l, maps)


def _solve_series(S: SylvMat, transposed: bool, V: np.ndarray, l: int, maps: dict | None) -> np.ndarray:
    """U (n, l) with S U = V (mod outer^l), V of width l, or, transposed,
    with (sum_j S_j^T outer^j) U = V (mod outer^l).  The window is halved,
    the low half solved first and the high half against the residual that
    the low half's last deg S columns leave, down to leaves of width at most
    b = _leaf_width(S, l), each lifted column by column on base digits
    (_lift) through one ctx.digit_map of inner dimension n (k + 1),
    k = min(b - 1, deg S); at b = 1 that is the k = 0 map [A], one
    application of S(0)^{-1} per column.  The leaf
    map is read from maps[(transposed, k)], or built and stored there:
    whoever passes maps owns the maps in it and their lifetime (a
    _DivisionProgram, for every solve it makes against S).  Without maps,
    the leaf map belongs to this solve, as the memo of the generators'
    spectra always does; both are dropped with it, never kept on S, which a
    caller may hold long after.  An empty window (l = 0) solves to an empty
    window, with no leaf map."""
    if l == 0:
        return np.zeros((S.n, 0), dtype=np.int64)
    mv = _matvec_semiT if transposed else matvec_window
    b = _leaf_width(S, l)
    k = min(b - 1, S.degree)
    maps = {} if maps is None else maps
    if (transposed, k) not in maps:
        maps[transposed, k] = _leaf_map(S, transposed, k)
    leaf_map = maps[transposed, k]
    return _halve(S, mv, lambda R: _lift(S.ctx, leaf_map, k, R), b, {}, V, l)


def _halve(S, mv, leaf, b, memo, V, l) -> np.ndarray:
    # _solve_series's recursion, a module function so that no reference
    # cycle keeps the leaf map or the memo alive after the solve
    if l <= b:
        return leaf(V)
    d, h = S.degree, l // 2
    U_lo = _halve(S, mv, leaf, b, memo, V[:, :h], h)
    R = V[:, h:l]
    if d:
        s = max(h - d, 0)
        prod = mv(S, U_lo[:, s:], min(l, h + d) - s, memo)
        R = S.ctx.vsub(R, fit(prod[:, h - s :], l - h))
    return np.concatenate([U_lo, _halve(S, mv, leaf, b, memo, R, l - h)], axis=1)


def trunc_inv_apply_T(S: SylvMat, ell: list[UPoly], l: int) -> list[UPoly]:
    """Transpose of trunc_inv_apply (list adapter of solve_window_T)."""
    _check_len(S, ell)
    _check_order(l)
    return to_list(S.ctx, solve_window_T(S, to_array(ell), l))


def solve_window_T(S: SylvMat, L: np.ndarray, l: int, maps: dict | None = None) -> np.ndarray:
    """Transpose of solve_window as a linear map on the coefficient window
    of width l: reverse, solve against the transposed layers, reverse back.
    maps as for solve_window."""
    return _solve_series(S, True, fit(L, l)[:, ::-1], l, maps)[:, ::-1]
