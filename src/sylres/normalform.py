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
transpose run through it.

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
    NotColumnReducedError,
    SylvMat,
    build_Sx,
    build_Sy,
    build_Tx,
    is_column_reduced,
    matvec_window,
    matvec_window_T,
    solve_window,
    solve_window_T,
)
from .upoly import UPoly


def _require_reduced(S: SylvMat, name: str) -> None:
    if not is_column_reduced(S):
        raise NotColumnReducedError(f"{name} is not column reduced")


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
    if len(v) != S.n:
        raise ValueError(f"vector length {len(v)} does not match dimension {S.n}")
    V = to_array(v)
    W, Vhat = _DivisionProgram(S, _degree(V)).divide(V)
    return to_list(S.ctx, W), to_list(S.ctx, Vhat)


# ---------------------------------------------------------------------------
# normal form


def reduce_ydeg(basis: IdealBasis, f: BiPoly, with_witness: bool = False):
    """f' with deg_y f' < e, deg_x f' <= max(n_x - 1, deg_x f), f - f' in I.

    The witness (T_x, w) replays the membership: v_x(f) = T_x w + v_x(f').
    """
    _require_reduced(build_Sx(basis), "S_x")
    if f.deg_y < basis.e:
        return (f, None, None) if with_witness else f
    Tx = build_Tx(basis, max(f.deg_x, 0))
    V = vec(f, "x", Tx.n)
    W, Vhat = _DivisionProgram(Tx, _degree(V)).divide(V)
    fp = unvec(f.ctx, Vhat, "x")
    return (fp, Tx, to_list(f.ctx, W)) if with_witness else fp


def normal_form(basis: IdealBasis, f: BiPoly) -> BiPoly:
    """The canonical representative of f + I in K[x,y]_{<(d, n_y)}.

    Requires both Sylvester matrices column reduced; linear in f, zero on
    the ideal, and idempotent.
    """
    Sy = build_Sy(basis)
    _require_reduced(Sy, "S_y")
    _require_reduced(build_Sx(basis), "S_x")
    if f.is_zero:
        return f
    if f.deg_y >= basis.ny:
        f = reduce_ydeg(basis, f)
    V = vec(f, "y", basis.ny)
    return unvec(f.ctx, _DivisionProgram(Sy, _degree(V)).divide(V)[1], "y")


def mul_mod(basis: IdealBasis, f: BiPoly, g: BiPoly) -> BiPoly:
    """phi(f * g)."""
    return normal_form(basis, bimul(f, g))


def pow_mod(basis: IdealBasis, f: BiPoly, e: int) -> BiPoly:
    """phi(f**e) for e >= 0, by field.power over mul_mod."""
    one = normal_form(basis, BiPoly.one(basis.ctx))
    return power(normal_form(basis, f), e, lambda g, h: mul_mod(basis, g, h), one)


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
        """sum_i coeffs[i] * emb[i], summed by ctx.vsum."""
        ctx = self.basis.ctx
        return int(ctx.vsum(ctx.vmul(self.coeffs, emb)))

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
    depends on lin beyond lin >= deg V."""

    def __init__(self, S: SylvMat, lin: int):
        _require_reduced(S, "divisor matrix")
        self.S = S
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
        U = solve_window(self.Srev, fit(V, self.V)[:, ::-1][:, : self.W], self.W)
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
        mu = solve_window_T(self.Srev, mu[:, ::-1], self.W)
        # transpose of the resize V -> W, then of the input reversal (window V)
        return self.S.ctx.vsub(fit(padded, self.V), fit(mu, self.V)[:, ::-1])


class NormalFormProgram:
    """phi restricted to K[x,y]_{<=(delta, eta)} as a fixed linear program.

    forward() agrees with normal_form on that space; transpose() computes
    ell o phi on the monomial basis {x^i y^j : i <= delta, j <= eta}.
    """

    def __init__(self, basis: IdealBasis, delta: int, eta: int):
        _require_reduced(build_Sy(basis), "S_y")
        _require_reduced(build_Sx(basis), "S_x")
        self.basis = basis
        self.delta = delta
        self.eta = eta
        self.two_stage = eta >= basis.ny
        if self.two_stage:
            self.Tx = build_Tx(basis, delta)
            self.div1 = _DivisionProgram(self.Tx, eta)
            lin2 = max(self.Tx.n - 1, delta)
            self.div2 = _DivisionProgram(build_Sy(basis), lin2)
        else:
            self.Tx = None
            self.div1 = None
            self.div2 = _DivisionProgram(build_Sy(basis), delta)

    def forward(self, f: BiPoly) -> BiPoly:
        if f.deg_x > self.delta or f.deg_y > self.eta:
            raise ValueError("input outside the program's degree window")
        return normal_form(self.basis, f)

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
