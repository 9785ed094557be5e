"""Matrix division with remainder, y-degree reduction, the normal form
modulo <a, b>, quotient multiplication and powers, and the transposed
normal form.

The division v = S w + v_hat picks the unique remainder with S^{-1} v_hat
strictly proper.  It is computed through the reversal trick: reversing the
generators at their column degrees turns the quotient into a truncated
power-series solve against a Sylvester matrix with invertible constant
term.  Unequal column degrees are balanced by an implicit diag(t^delta, 1)
scaling; only the quotient split changes.  _DivisionProgram derives this
setup once for a divisor and an input degree; every division and its
transpose run through it and share the leaf maps of its series solves.
power_projections reads ell(phi(x^i)) for every i < N off one such
quotient: the series solve of S_y's reversal against vec_y(1), of width
N + delta, is the strictly proper part of S_y^{-1} x^i vec_y(1) for every
i at once.

The normal form phi(f) reduces deg_y below n_y with a division against an
enlarged x-Sylvester matrix, then reduces deg_x below d against S_y.  For
fixed degree windows (delta, eta) the whole map is a linear program whose
stages are reindexings, structured products, and truncated solves;
transposing them stage by stage (middle products, transposed truncated
solves with the precomputed inverses as parameters) yields the bivariate
power projections ell(phi(x^i y^j)).
"""

from __future__ import annotations

import random

import numpy as np

from .bipoly import BiPoly, IdealBasis, bimul, fit, to_array, to_list, unvec, vec
from .field import power
from .sylvester import (
    SylvMat,
    _check_len,
    build_Sy,
    build_Tx,
    matvec_window,
    matvec_window_T,
    require_both_reduced,
    require_reduced,
    solve_window,
    solve_window_T,
)
from .upoly import UPoly, block_dot


# ---------------------------------------------------------------------------
# division with remainder


def _degree(V: np.ndarray) -> int:
    """Largest entry degree of a polynomial vector (-1 when zero)."""
    nz = np.flatnonzero(V.any(axis=0))
    return int(nz[-1]) if len(nz) else -1


def _shift_rows(V: np.ndarray, rows: slice, k: int) -> np.ndarray:
    """Copy of V with the given rows multiplied by outer^k (k < 0 drops the
    -k lowest coefficients), keeping the width."""
    out = V.copy()
    width = V.shape[1]
    out[rows] = 0
    if k >= 0:
        out[rows, k:] = V[rows, : max(width - k, 0)]
    else:
        out[rows, : max(width + k, 0)] = V[rows, -k:]
    return out


def _high_block(S: SylvMat) -> slice:
    """Rows of the block with the larger column degree (empty if equal)."""
    if S.c1 > S.c2:
        return slice(0, S.m2)
    return slice(S.m2, S.n) if S.c2 > S.c1 else slice(0, 0)


def matrix_divrem(S: SylvMat, v: list[UPoly]):
    """Unique (w, vhat) with v = S w + vhat and S^{-1} vhat strictly proper.

    deg vhat < max column degree of S; re-dividing vhat gives a zero
    quotient.  Requires S column reduced.
    """
    _check_len(S, v)
    require_reduced(S, "divisor matrix")
    V = to_array(v)
    W, Vhat = _DivisionProgram(S, _degree(V)).divide(V)
    return to_list(S.ctx, W), to_list(S.ctx, Vhat)


# ---------------------------------------------------------------------------
# normal form


def reduce_ydeg(basis: IdealBasis, f: BiPoly) -> BiPoly:
    """f' with deg_y f' < e, deg_x f' <= max(n_x - 1, deg_x f), f - f' in I:
    the remainder of vec_x(f) divided by T_x (build_Tx, which requires S_x
    column reduced)."""
    Tx = build_Tx(basis, max(f.deg_x, 0))
    if f.deg_y < basis.e:
        return f
    V = vec(f, "x", Tx.n)
    return unvec(f.ctx, _DivisionProgram(Tx, _degree(V)).divide(V)[1], "x")


def normal_form(basis: IdealBasis, f: BiPoly) -> BiPoly:
    """The canonical representative of f + I in K[x,y]_{<(d, n_y)}: the
    forward map of f's own NormalFormProgram.

    Requires both Sylvester matrices column reduced; linear in f, zero on
    the ideal, and idempotent.
    """
    return NormalFormProgram(basis, f.deg_x, f.deg_y).forward(f)


def mul_mod(basis: IdealBasis, f: BiPoly, g: BiPoly) -> BiPoly:
    """phi(f * g)."""
    return normal_form(basis, bimul(f, g))


def pow_mod(basis: IdealBasis, f: BiPoly, e: int) -> BiPoly:
    """phi(f**e) for e >= 0, by field.power over the products phi(g h), each
    product of one bidegree reduced by one NormalFormProgram (the one
    normal_form would build for it), so the squarings of full window
    elements share their leaf maps."""
    programs = {}

    def mul(g: BiPoly, h: BiPoly) -> BiPoly:
        gh = bimul(g, h)
        key = (gh.deg_x, gh.deg_y)
        if key not in programs:
            programs[key] = NormalFormProgram(basis, *key)
        return programs[key].forward(gh)

    if e == 0:
        return normal_form(basis, BiPoly.one(basis.ctx))
    return power(normal_form(basis, f), e, mul, None)


# ---------------------------------------------------------------------------
# the embedding space K[x,y]_{<(d, n_y)} and linear forms on it


def embed(basis: IdealBasis, f: BiPoly) -> np.ndarray:
    """Coefficients of f on {y^{ny-1}, y^{ny-1}x, ..., y^{ny-2}, ..., x^{d-1}}."""
    if f.deg_x >= basis.d or f.deg_y >= basis.ny:
        raise ValueError("polynomial is outside the embedding space")
    grid = f.padded(basis.d, basis.ny)
    return grid[:, ::-1].T.reshape(-1).copy()


def unembed(basis: IdealBasis, vec_codes: np.ndarray) -> BiPoly:
    grid = np.asarray(vec_codes, dtype=np.int64).reshape(basis.ny, basis.d).T[:, ::-1]
    return BiPoly(basis.ctx, grid)


class LinearForm:
    """Linear form on K[x,y]_{<(d, n_y)}, given on the embedding basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: IdealBasis, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.shape != (basis.d * basis.ny,):
            raise ValueError(f"linear form needs {basis.d * basis.ny} coefficients")
        self.basis = basis
        self.coeffs = coeffs

    @classmethod
    def random(cls, basis: IdealBasis, rng: random.Random):
        return cls(basis, basis.ctx.rand_array(rng, basis.d * basis.ny))

    @classmethod
    def coordinate(cls, basis: IdealBasis, i: int, j: int):
        """Dual basis form picking the coefficient of x^i y^j."""
        c = np.zeros(basis.d * basis.ny, dtype=np.int64)
        c[(basis.ny - 1 - j) * basis.d + i] = 1
        return cls(basis, c)

    def apply_embedded(self, emb: np.ndarray) -> int:
        """sum_i coeffs[i] * emb[i], by ctx.vdot."""
        return int(self.basis.ctx.vdot(self.coeffs, emb))

    def apply(self, f: BiPoly) -> int:
        return self.apply_embedded(embed(self.basis, f))


# ---------------------------------------------------------------------------
# fixed-window linear program for phi and its transpose


class _DivisionProgram:
    """The division against S restricted to inputs of entry degree <= lin,
    as a linear map between coefficient windows, with its transpose.

    divide(V) is V = S W + Vhat with S^{-1} Vhat strictly proper, through
    the reversal trick: the quotient is a truncated series solve of width
    l - d + 1 against the reversed matrix, where l = lin + delta and the
    block of larger column degree carries the implicit t^delta.  Nothing
    depends on lin beyond lin >= deg V.  Every solve of the program, forward
    or transposed, reads its leaf map from the program's maps, so each map is
    built once per program and dropped with it."""

    def __init__(self, S: SylvMat, lin: int):
        self.S = S
        self.maps = {}
        self.V = lin + 1
        self.d = S.degree
        self.delta = abs(S.c1 - S.c2)
        l = lin + self.delta
        self.active = l >= self.d
        if self.active:
            self.W = l - self.d + 1
            self.Srev = S.reversed_matrix()

    def divide(self, V: np.ndarray):
        """(W, Vhat) for an (n, width) vector V of entry degree <= lin."""
        S = self.S
        if not self.active:
            return np.zeros((S.n, 1), dtype=np.int64), V
        U = solve_window(self.Srev, fit(V, self.V)[:, ::-1][:, : self.W], self.W, self.maps)
        W = _shift_rows(U[:, ::-1], _high_block(S), -self.delta)
        # deg Vhat < d because S^{-1} Vhat is strictly proper, so S W is only
        # needed mod outer^d
        return W, S.ctx.vsub(fit(V, self.d), matvec_window(S, W, self.d))

    def transpose(self, Lam: np.ndarray) -> np.ndarray:
        """Dual windows of width d -> dual windows of width lin + 1."""
        padded = fit(Lam, min(self.d, self.V))
        if not self.active:
            return padded
        # Q^T (S^T lambda), stage by stage in reverse order
        mu = matvec_window_T(self.S, padded, self.W)
        # transpose of the quotient split: high block multiplied by t^delta
        mu = _shift_rows(mu, _high_block(self.S), self.delta)
        # transpose of the output reversal, then of the truncated solve (window W)
        mu = solve_window_T(self.Srev, mu[:, ::-1], self.W, self.maps)
        # transpose of the resize V -> W, then of the input reversal (window V)
        return self.S.ctx.vsub(fit(padded, self.V), fit(mu, self.V)[:, ::-1])


def power_projections(basis: IdealBasis, forms: list[LinearForm], N: int) -> np.ndarray:
    """Row t holds forms[t](phi(x^i)) for i < N, from one x-adic series
    solve against S_y's reversed matrix, shared by every form (power
    projections as in Shoup, J. Symb. Comp. 1994).  The callers gate on
    sylvester.require_both_reduced.

    S_rev(t) = S_y(1/t) diag(t^c_j) has S_rev(0) invertible, since S_y is
    column reduced.  Let u_j be the coefficients of S_rev(t)^{-1} e, with
    e = vec_y(1), and u~_j the vector whose rows in the block of larger
    column degree (_high_block) are those of u_j and whose other rows are
    those of u_{j + delta}, delta = |c1 - c2|; u~_j = 0 below j = -delta.
    The x^{-m} coefficient of S_y^{-1} x^i e is u~_{i+m-d}, and phi(x^i) is
    S_y times the strictly proper part of S_y^{-1} x^i e, so
        s_i = ell(phi(x^i)) = sum_{m=1..d} lambda_m . u~_{i+m-d},
        lambda_m = sum_{c <= d-m} ell_c S_{c+m},
    with ell_c the form's row on the x^c column.  Each sum over m is one
    product and d shifted vadds: the stacked forms times S_y's layers give
    every ell_c S_p, and the stacked lambda_m times the solve's window give
    every lambda_m . u~_p."""
    ctx = basis.ctx
    d, ny, k = basis.d, basis.ny, len(forms)
    seqs = np.zeros((k, N), dtype=np.int64)
    if N == 0 or d == 0 or ny == 0:
        return seqs  # nothing asked for, or the window is {0}
    S = build_Sy(basis)
    delta = abs(S.c1 - S.c2)
    l = N + delta
    # the right-hand side is a temporary, freed once the solve returns
    U = solve_window(S.reversed_matrix(), fit(vec(BiPoly.one(ctx), "y", ny), l), l)
    U = _shift_rows(U, _high_block(S), delta)  # column p holds u~_{p - delta}
    # P[t, c, p] = ell_{t,c} S_p, from the layers S_0 .. S_d side by side
    ell = np.stack([f.coeffs.reshape(ny, d).T for f in forms]).reshape(k * d, ny)
    layers = S.layers(d).transpose(1, 0, 2).reshape(ny, (d + 1) * ny)
    P = block_dot(ctx, ell, layers).reshape(k, d, d + 1, ny)
    lam = np.zeros((k, d, ny), dtype=np.int64)  # lam[:, m - 1] = lambda_m
    for c in range(d):
        lam[:, : d - c] = ctx.vadd(lam[:, : d - c], P[:, c, c + 1 :])
    Q = block_dot(ctx, lam.reshape(k * d, ny), U).reshape(k, d, l)
    for m in range(1, d + 1):
        # s_i gains Q[:, m - 1, i + off]; columns before 0 are zero
        off = m - d + delta
        lo = max(-off, 0)
        if lo < N:
            seqs[:, lo:] = ctx.vadd(seqs[:, lo:], Q[:, m - 1, lo + off : N + off])
    return seqs


class NormalFormProgram:
    """phi restricted to K[x,y]_{<=(delta, eta)} as a fixed linear program:
    when eta >= n_y, a division against T_x (div1) reduces deg_y below e,
    then one against S_y (div2) reduces deg_x below d.

    forward() is phi on that space, through div1 and div2; transpose()
    runs their transposes in reverse order and computes ell o phi on the
    monomial basis {x^i y^j : i <= delta, j <= eta}.
    """

    def __init__(self, basis: IdealBasis, delta: int, eta: int):
        require_both_reduced(basis)
        self.basis = basis
        self.delta = delta
        self.eta = eta
        self.two_stage = eta >= basis.ny
        lin2 = delta
        if self.two_stage:
            self.Tx = build_Tx(basis, delta)
            self.div1 = _DivisionProgram(self.Tx, eta)
            lin2 = max(self.Tx.n - 1, delta)  # the x-degree div1 leaves
        self.div2 = _DivisionProgram(build_Sy(basis), lin2)

    def forward(self, f: BiPoly) -> BiPoly:
        if f.deg_x > self.delta or f.deg_y > self.eta:
            raise ValueError("input outside the program's degree window")
        if self.two_stage:
            f = unvec(f.ctx, self.div1.divide(vec(f, "x", self.Tx.n))[1], "x")
        return unvec(f.ctx, self.div2.divide(vec(f, "y", self.basis.ny))[1], "y")

    def transpose(self, ell: LinearForm) -> np.ndarray:
        basis = self.basis
        # row t of mu is the dual of the y^t coefficient (vec_y order reversed)
        mu = self.div2.transpose(ell.coeffs.reshape(basis.ny, basis.d))[::-1]
        if self.two_stage:
            # reindex transpose between the y-division and the x-division
            nT = self.Tx.n
            lam1 = fit(mu[: self.div1.d], nT)[:, ::-1].T
            mu = fit(self.div1.transpose(lam1)[::-1][: self.delta + 1], self.eta + 1).T
        return fit(mu[: self.eta + 1], self.delta + 1).reshape(-1)


def transposed_normal_form(basis: IdealBasis, ell: LinearForm, delta: int, eta: int) -> np.ndarray:
    """The projections ell(phi(x^i y^j)) for 0 <= i <= delta, 0 <= j <= eta,
    flattened with i fastest (the basis 1, x, ..., x^delta, y, xy, ...)."""
    return NormalFormProgram(basis, delta, eta).transpose(ell)
