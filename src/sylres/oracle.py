"""Dense brute-force references: Smith normal form over K[x], resultant by
evaluation-interpolation, and the minimal polynomial of the multiplication
map on the quotient embedding.

These are O(n^3)-class ground-truth routines, gated to dimension 64; the
production pipeline never calls them except through explicit verification
flags.
"""

from __future__ import annotations

import numpy as np

from ._dense import SingularMatrixError, _reduce, gauss_det
from .bipoly import BiPoly, IdealBasis
from .field import working_field
from .normalform import embed, normal_form
from .sylvester import build_Sy, require_both_reduced
from .upoly import UPoly, interpolate

_ORACLE_DIM_GATE = 64


class OracleGateError(ValueError):
    """The dense oracles refuse matrices above their dimension gate."""


def _check_gate(n: int) -> None:
    if n > _ORACLE_DIM_GATE:
        raise OracleGateError(f"oracle gated to dimension {_ORACLE_DIM_GATE}, got {n}")


def dense_smith(M: list[list[UPoly]]) -> list[UPoly]:
    """Monic invariant factors s_1 | s_2 | ... | s_n of a nonsingular
    polynomial matrix, by elementary row/column reduction over K[x]; none
    for a 0 x 0 matrix."""
    n = len(M)
    _check_gate(n)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    A = [[M[i][j] for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    for k in range(n):
        while True:
            piv = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if not A[i][j].is_zero and (best is None or A[i][j].deg < best):
                        best = A[i][j].deg
                        piv = (i, j)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            swap_rows(k, piv[0])
            swap_cols(k, piv[1])
            pivot = A[k][k]
            dirty = False
            for i in range(k + 1, n):
                if A[i][k].is_zero:
                    continue
                q = A[i][k].divrem(pivot)[0]
                for j in range(k, n):
                    A[i][j] = A[i][j] - q * A[k][j]
                if not A[i][k].is_zero:
                    dirty = True
            if dirty:
                continue
            for j in range(k + 1, n):
                if A[k][j].is_zero:
                    continue
                q = A[k][j].divrem(pivot)[0]
                for i in range(k, n):
                    A[i][j] = A[i][j] - q * A[i][k]
                if not A[k][j].is_zero:
                    dirty = True
            if dirty:
                continue
            # divisibility of the remaining block by the pivot
            bad = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if not A[i][j].rem(pivot).is_zero:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(k, n):
                A[k][j] = A[k][j] + A[bad][j]
    return [A[k][k].monic() for k in range(n)]


def dense_resultant(a: BiPoly, b: BiPoly) -> UPoly:
    """Res_y(a, b) = det S_y, by Gaussian determinants at enough points and
    interpolation (degree bound d_a e_b + d_b e_a).  A field with too few
    points is lifted to field.working_field, and the result is checked to
    descend to the base field."""
    basis = IdealBasis(a, b)
    _check_gate(basis.ny)
    ctx = basis.ctx
    if basis.ny == 0:
        return UPoly.one(ctx)
    npts = basis.da * basis.eb + basis.db * basis.ea + 1
    ev = working_field(ctx, npts)
    Sy = build_Sy(basis.lift(ev))
    pts = np.arange(npts, dtype=np.int64)
    vals = np.array([gauss_det(ev, Sy.at(int(x0))) for x0 in pts], dtype=np.int64)
    res = interpolate(ev, pts, vals)
    if ev is not ctx and np.any(res.c >= ctx.q):
        raise ArithmeticError("resultant did not descend to the base field")
    return UPoly(ctx, res.c)


def mult_x_matrix(basis: IdealBasis) -> np.ndarray:
    """Matrix of f -> phi(x f) on the embedding basis (columns)."""
    dim = basis.d * basis.ny
    _check_gate(dim)
    cols = np.zeros((dim, dim), dtype=np.int64)
    for flat in range(dim):
        row, i = divmod(flat, basis.d)
        j = basis.ny - 1 - row
        mono = BiPoly.monomial(basis.ctx, i, j)
        cols[:, flat] = embed(basis, normal_form(basis, mono.mul_monomial(1, 0)))
    return cols


def dense_minpoly_mult_x(basis: IdealBasis) -> UPoly:
    """Minimal polynomial of the start vector phi(1) under the
    multiplication-by-x map, by one row reduction of the Krylov matrix
    [u, M u, ..., M^dim u]: its rank t is the degree, and the reduced
    column t holds M^t u on u, ..., M^(t-1) u."""
    require_both_reduced(basis)
    ctx = basis.ctx
    M = mult_x_matrix(basis)
    dim = M.shape[0]
    K = np.zeros((dim, dim + 1), dtype=np.int64)
    K[:, 0] = embed(basis, normal_form(basis, BiPoly.one(ctx)))
    step = ctx.dot_map(M)
    for i in range(dim):
        K[:, i + 1] = step(K[:, i])
    R, t, _ = _reduce(ctx, K, dim + 1)
    return UPoly(ctx, np.append(ctx.vneg(R[:t, t]), 1))
