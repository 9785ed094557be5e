"""Dense scalar linear algebra over a FieldCtx: one Gauss-Jordan row
reduction, read as a rank, a determinant or an inverse.

Matrices are int64 code arrays of shape (n, m).  Each pivot step clears
its column in every other row with one outer-product update, so a
reduction costs O(m) vector calls whatever the field.  Used for
determinants of S_y at a point and of its column-leading matrix, and by
the oracles and tests (gauss_inverse is the tests' reference inverse).
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx


class SingularMatrixError(ValueError):
    pass


def _reduce(ctx: FieldCtx, M: np.ndarray, ncols: int):
    """Reduced row echelon form of M, pivoting on its first ncols columns.

    Returns (R, rank, det) where det is the product of the pivots, negated
    once per row swap; it is det M[:, :ncols] when that block is square
    and rank == ncols."""
    A = np.array(M, dtype=np.int64)
    n = A.shape[0]
    rank, det = 0, 1
    for col in range(ncols):
        if rank == n:
            break
        nz = np.flatnonzero(A[rank:, col])
        if not len(nz):
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
            det = ctx.neg(det)
        pivval = int(A[rank, col])
        det = ctx.mul(det, pivval)
        A[rank] = ctx.vmul(A[rank], np.int64(ctx.inv(pivval)))
        f = A[:, col].copy()
        f[rank] = 0
        A = ctx.vsubmul(A, f[:, None], A[rank][None, :])
        rank += 1
    return A, rank, det


def gauss_rank(ctx: FieldCtx, M: np.ndarray) -> int:
    M = np.asarray(M)
    return _reduce(ctx, M, M.shape[1])[1]


def gauss_det(ctx: FieldCtx, M: np.ndarray) -> int:
    n = len(M)
    _, rank, det = _reduce(ctx, M, n)
    return det if rank == n else 0


def gauss_inverse(ctx: FieldCtx, M: np.ndarray) -> np.ndarray:
    n = len(M)
    R, rank, _ = _reduce(ctx, np.hstack([np.asarray(M, dtype=np.int64), np.eye(n, dtype=np.int64)]), n)
    if rank < n:
        raise SingularMatrixError("matrix is singular")
    return R[:, n:]
