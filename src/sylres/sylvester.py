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
S @ W is one bipoly.grid_mul of two pairs (one spectral product when FFT
sized); its transpose is one grid_mul per generator.  A truncated solve
transforms each generator grid once per (rows, FFT length) in a memo it
owns and drops on return.
The truncated solves halve the window down to solves against S(0): a
Bezout solve on code arrays (forward) or a dense inverse (transposed).
The Bezout triple of a matrix's outer-constant slices is cached on it
(const_xgcd); is_column_reduced(S) reads S.reversed_matrix()'s, whose
constant slices are S's leading coefficients, and whose solver reuses it.
"""

from __future__ import annotations

import numpy as np

from ._dense import SingularMatrixError, gauss_inverse
from .bipoly import BiPoly, IdealBasis, fit, grid_mul, to_array, to_list, vec
from .upoly import UPoly, inverse_series, xgcd


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
        slices p, q (u p + v q = g), computed once."""
        if "const_xgcd" not in self._cache:
            p0, q0 = (gen.upoly_coeff(self.outer, 0) for gen in (self.g1, self.g2))
            self._cache["const_xgcd"] = xgcd(p0, q0)
        return self._cache["const_xgcd"]

    def at(self, x0: int) -> np.ndarray:
        """S evaluated at outer = x0, as a scalar matrix: each generator is
        evaluated in the outer variable (ctx.horner over its grid), and its
        inner coefficients, highest first, fill the columns' bands."""
        M = np.zeros((self.n, self.n), dtype=np.int64)
        col = 0
        for gen, deg, count in ((self.g1, self.m1, self.m2), (self.g2, self.m2, self.m1)):
            # row i of the grid: coefficient of outer^i
            coeffs = self.ctx.horner(gen.g if self.wrt == "y" else gen.g.T, x0)
            for j in range(count):
                M[j : j + deg + 1, col + j] = coeffs[::-1]
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


def _columns(S: SylvMat):
    """The columns of S in order, each an (n, width) polynomial vector."""
    for gen, count in ((S.g1, S.m2), (S.g2, S.m1)):
        for s in range(count - 1, -1, -1):
            yield vec(gen.mul_monomial(s, 0) if S.wrt == "x" else gen.mul_monomial(0, s), S.wrt, S.n)


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
    if not is_column_reduced(Sx):
        raise NotColumnReducedError("S_x is not column reduced")
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
    Bezout triple is that matrix's const_xgcd(), which its base solver reuses."""
    if "reduced" not in S._cache:
        full = S.g1.lead_coeff(S.outer).deg == S.m1 or S.g2.lead_coeff(S.outer).deg == S.m2
        S._cache["reduced"] = full and S.reversed_matrix().const_xgcd()[0].deg == 0
    return S._cache["reduced"]


def dense_form(S: SylvMat) -> list[list[UPoly]]:
    """Explicit n x n materialisation (testing/oracle bridge)."""
    cols = [to_list(S.ctx, col) for col in _columns(S)]
    return [[col[i] for col in cols] for i in range(S.n)]


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


class _BaseSolver:
    """Solves S(0) z = r through the scalar Sylvester system: with p, q the
    outer-constant generator slices, z encodes (A, B) with A p + B q = R and
    deg A < m2, deg B < m1.  Nonsingularity of S(0) forces gcd(p, q) = 1 and
    full formal degree for p or q, so one Bezout route is total: (a) q has
    degree m2, A = (R u) rem q and B = (R - A p) / q, where u p + v q = 1;
    (b) p has degree m1 and the roles swap.  It keeps O(n) codes: u (or v),
    of lower degree than the divisor, the slices, and the reversed divisor's
    inverse series to precision n; each division is the reversal trick on
    code arrays.  The Bezout triple of (p, q) is S.const_xgcd(), which
    is_column_reduced() has already computed when S is a reversed matrix."""

    def __init__(self, S: SylvMat):
        p0 = S.g1.upoly_coeff(S.outer, 0)
        q0 = S.g2.upoly_coeff(S.outer, 0)
        if p0.is_zero and q0.is_zero:
            raise SingularMatrixError("constant coefficient matrix is singular")
        g, u0, v0 = S.const_xgcd()
        if g.deg != 0:
            raise SingularMatrixError("constant coefficient matrix is singular")
        self.route_a = q0.deg == S.m2
        if not self.route_a and p0.deg != S.m1:
            raise SingularMatrixError("constant coefficient matrix is singular")
        div, other, mult = (q0, p0, u0) if self.route_a else (p0, q0, v0)
        self.ctx, self.dd, self.div = S.ctx, div.deg, div.c
        self.other = other.padded(S.n - self.dd + 1)
        # xgcd's degree bounds give deg(mult) < dd, which keeps every
        # quotient below precision n
        self.mult = mult.padded(self.dd)
        self.inv = inverse_series(div.rev(), S.n).padded(S.n)

    def _quo(self, f: np.ndarray) -> np.ndarray:
        """Quotient of f (formal degree len(f) - 1 >= dd - 1) by the divisor."""
        k = len(f) - self.dd
        return self.ctx.conv(f[::-1][:k], self.inv[:k])[:k][::-1]

    def solve(self, r: np.ndarray) -> np.ndarray:
        ctx, dd = self.ctx, self.dd
        R = r[::-1]
        X = R[:0]  # (R mult) rem divisor, dd codes
        if dd:
            t = ctx.conv(R, self.mult)
            Q, X = self._quo(t), t[:dd]
            if len(Q):
                X = ctx.vsub(X, ctx.conv(Q, self.div)[:dd])
            R = ctx.vsub(R, ctx.conv(X, self.other))
        Y = self._quo(R)  # exact: R - X other is divisible
        A, B = (X, Y) if self.route_a else (Y, X)
        return np.concatenate([A[::-1], B[::-1]])


class _BaseSolverT:
    """Dense inverse of S(0) (n^2 codes), applied transposed; the projection
    window program needs it only when the column degrees differ."""

    def __init__(self, S: SylvMat):
        self.ctx = S.ctx
        self.MinvT = gauss_inverse(S.ctx, S.constant_matrix()).T

    def solve(self, r: np.ndarray) -> np.ndarray:
        return self.ctx.vsum(self.ctx.vmul(self.MinvT, r))


def _solver(S: SylvMat, kind: type):
    """The base solver of the given kind for S(0), built once per S."""
    if kind not in S._cache:
        S._cache[kind] = kind(S)
    return S._cache[kind]


def trunc_inv_apply(S: SylvMat, v: list[UPoly], l: int) -> list[UPoly]:
    """u with S u = v (mod outer^l) (list adapter of solve_window)."""
    _check_len(S, v)
    if l <= 0:
        raise ValueError("truncation order must be positive")
    return to_list(S.ctx, solve_window(S, fit(to_array(v), l), l))


def solve_window(S: SylvMat, V: np.ndarray, l: int) -> np.ndarray:
    """U (n, l) with S U = V (mod outer^l), V of width l; requires S(0)
    nonsingular."""
    return _solve_series(S, _solver(S, _BaseSolver).solve, matvec_window, V, l, {})


def _solve_series(S, base_solve, mv, V, l, memo) -> np.ndarray:
    """U (n, l) with mv-products S U = V (mod outer^l), V of width l; the
    low half is solved first and the high half against its residual.  memo
    holds the generators' spectra for every mv-product of this solve and is
    dropped with it: never on S, which a caller may hold long after."""
    if l == 1:
        return base_solve(V[:, 0]).reshape(-1, 1)
    h = l // 2
    U_lo = _solve_series(S, base_solve, mv, V[:, :h], h, memo)
    prod = mv(S, U_lo, l, memo)
    R = S.ctx.vsub(V[:, h:l], prod[:, h:l])
    U_hi = _solve_series(S, base_solve, mv, R, l - h, memo)
    return np.concatenate([U_lo, U_hi], axis=1)


def trunc_inv_apply_T(S: SylvMat, ell: list[UPoly], l: int) -> list[UPoly]:
    """Transpose of trunc_inv_apply (list adapter of solve_window_T)."""
    _check_len(S, ell)
    return to_list(S.ctx, solve_window_T(S, to_array(ell), l))


def solve_window_T(S: SylvMat, L: np.ndarray, l: int) -> np.ndarray:
    """Transpose of solve_window as a linear map on the coefficient window
    of width l: reverse, solve against the transposed layers, reverse back."""
    U = _solve_series(S, _solver(S, _BaseSolverT).solve, _matvec_semiT, fit(L, l)[:, ::-1], l, {})
    return U[:, ::-1]
