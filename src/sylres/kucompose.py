"""Reduction of a univariate polynomial modulo the ideal through the
six-step composition pipeline: inverse Kronecker substitution, a tower of
reduced powers of x, bivariate grid evaluation, multivariate multipoint
evaluation, grid interpolation, and a final normal form.

The multivariate multipoint evaluation is the naive per-point scheme,
in chunks of points that bound its working array; the asymptotically fast
evaluation this pipeline was designed around is out of scope, so the
pipeline here is a correctness vehicle: compose_rem(f) must equal
normal_form(f) exactly.  Grid interpolation is two batched Lagrange passes
(upoly.interpolate_rows), and the Kronecker maps are Fortran-order reshapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipoly import BiPoly, IdealBasis
from .normalform import normal_form, pow_mod
from .upoly import UPoly, interpolate_rows

# entries of the working array of mv_multipoint_eval (grid size times the
# points of one chunk): 32 MB of int64
_MV_CHUNK_ENTRIES = 1 << 22


class FieldTooSmallError(ValueError):
    pass


@dataclass(frozen=True)
class KUParams:
    """Radix d_eps, input degree bound delta, number of variables l
    (smallest l with d_eps**l >= delta)."""

    d_eps: int
    delta: int
    l: int

    @classmethod
    def choose(cls, delta: int, d_eps: int | None = None) -> "KUParams":
        if delta < 3:
            raise ValueError("degree bound must be at least 3 for the pipeline")
        if d_eps is None:
            d_eps = max(2, int(np.ceil(delta ** (1 / 3))))
        if not 2 <= d_eps < delta:
            raise ValueError(f"need 2 <= d_eps < delta, got d_eps={d_eps}, delta={delta}")
        l, power = 1, d_eps
        while power < delta:
            l += 1
            power *= d_eps
        return cls(d_eps=d_eps, delta=delta, l=l)

    def grid_sizes(self, basis: IdealBasis) -> tuple[int, int]:
        dp = self.l * (self.d_eps - 1) * (basis.d - 1)
        ep = self.l * (self.d_eps - 1) * (basis.ny - 1)
        return dp, ep

    def check_cardinality(self, basis: IdealBasis) -> None:
        need = self.l * (self.d_eps - 1) * max(basis.d - 1, basis.ny - 1)
        if basis.ctx.q <= need:
            raise FieldTooSmallError(
                f"field of size {basis.ctx.q} too small for the evaluation grids; "
                f"need more than {need} elements"
            )


def inv_kronecker(f: UPoly, params: KUParams) -> np.ndarray:
    """x^k -> z_0^{k_0} ... z_{l-1}^{k_{l-1}} with (k_i) the base-d_eps digits
    of k (least significant first); returns the (d_eps,)*l coefficient grid.
    Those digits index the grid in Fortran order, so this is a reshape."""
    if f.deg >= params.delta:
        raise ValueError(f"degree {f.deg} exceeds the bound {params.delta}")
    return f.padded(params.d_eps**params.l).reshape((params.d_eps,) * params.l, order="F")


def kronecker_restore(ctx, grid: np.ndarray, params: KUParams) -> UPoly:
    """Substitute z_i = x^(d_eps**i): the inverse of inv_kronecker."""
    return UPoly(ctx, np.asarray(grid, dtype=np.int64).reshape(-1, order="F"))


def power_tower(basis: IdealBasis, params: KUParams) -> list[BiPoly]:
    """chi_i = phi(x^(d_eps**i)) for i = 0 .. l-1."""
    chis = [normal_form(basis, BiPoly.x(basis.ctx))]
    for _ in range(params.l - 1):
        chis.append(pow_mod(basis, chis[-1], params.d_eps))
    return chis


def grid_eval(ctx, polys: list[BiPoly], K1: np.ndarray, K2: np.ndarray) -> np.ndarray:
    """Values polys[i](K1[j], K2[k]) as an array of shape (len(polys), |K1|, |K2|)."""
    K1 = np.asarray(K1, dtype=np.int64)
    K2 = np.asarray(K2, dtype=np.int64)
    out = np.zeros((len(polys), len(K1), len(K2)), dtype=np.int64)
    for i, f in enumerate(polys):
        # Horner in x across K1 (columns stay y-coefficients), then in y across K2
        V = ctx.horner(f.g[:, None, :], K1[:, None])
        out[i] = ctx.horner(V.T[:, :, None], K2[None, :])
    return out


def grid_interp(ctx, values: np.ndarray, K1: np.ndarray, K2: np.ndarray) -> BiPoly:
    """Bivariate interpolation on the grid K1 x K2 (inverse of grid_eval for
    bidegree < (|K1|, |K2|)): along y for every x-node, then along x for
    every y-coefficient."""
    ycoeffs = interpolate_rows(ctx, K2, values)
    return BiPoly(ctx, interpolate_rows(ctx, K1, ycoeffs.T).T)


def mv_multipoint_eval(ctx, grid: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the l-variate coefficient grid at each row of points (naive
    nested Horner, vectorised across the points), in chunks of points whose
    working array holds at most _MV_CHUNK_ENTRIES entries."""
    points = np.asarray(points, dtype=np.int64)
    if points.ndim == 1:
        points = points[:, None]
    if grid.ndim != points.shape[1]:
        raise ValueError("point arity does not match the grid")
    chunk = max(1, _MV_CHUNK_ENTRIES // grid.size)
    out = np.zeros(len(points), dtype=np.int64)
    for s in range(0, len(points), chunk):
        out[s : s + chunk] = _nested_horner(ctx, grid, points[s : s + chunk])
    return out


def _nested_horner(ctx, grid: np.ndarray, points: np.ndarray) -> np.ndarray:
    # the points run along a new last axis; each Horner removes the last
    # grid axis, starting from a broadcast view of its top slice
    vals = grid[..., None]
    for axis in range(grid.ndim - 1, -1, -1):
        vals = ctx.horner(np.moveaxis(vals, axis, 0), points[:, axis])
    return vals


def compose_rem(
    basis: IdealBasis, f: UPoly, params: KUParams | None = None, d_eps: int | None = None
) -> BiPoly:
    """phi(f(x)): the normal form of a univariate f of degree < delta,
    computed by the composition pipeline.  Equals normal_form exactly."""
    ctx = basis.ctx
    if params is None:
        bound = max(f.deg + 1, 3)
        params = KUParams.choose(bound, d_eps=d_eps)
    params.check_cardinality(basis)
    if f.is_zero:
        return BiPoly.zero(ctx)

    grid = inv_kronecker(f, params)  # step 1
    chis = power_tower(basis, params)  # step 2

    dp, ep = params.grid_sizes(basis)
    K1 = np.arange(dp + 1, dtype=np.int64)  # fixed enumeration of the field
    K2 = np.arange(ep + 1, dtype=np.int64)
    mu = grid_eval(ctx, chis, K1, K2)  # step 3

    pts = mu.reshape(params.l, -1).T  # step 4
    vals = mv_multipoint_eval(ctx, grid, pts).reshape(len(K1), len(K2))

    composite = grid_interp(ctx, vals, K1, K2)  # step 5
    return normal_form(basis, composite)  # step 6
