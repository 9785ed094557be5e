"""Random shifts and reversals that make both Sylvester matrices column
reduced, and exact recovery of the original last invariant factor.

Conditioning for S_x substitutes y -> y + alpha and reverses in y at the
formal degrees; this preserves the Smith normal form of S_y entirely.  The
second stage substitutes x -> x + beta and reverses in x, after which the
last invariant factor of the new S_y is, up to a unit and a power of x,
the reversal of sigma(x + beta); recovery strips the x-power, reverses,
shifts back and normalises monic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import IdealBasis
from .upoly import UPoly


@dataclass(frozen=True)
class ConditioningRecord:
    alpha: int
    beta: int


def condition_for_Sx(basis: IdealBasis, alpha: int) -> IdealBasis:
    """y-shift by alpha then y-reversal at the formal degrees (e_a, e_b).

    For alpha avoiding the roots of Res_x(a, b) the new S_x is column
    reduced, and the Smith normal form of S_y is unchanged either way.
    """
    a1 = basis.a.subs_shift("y", alpha).rev("y", basis.ea)
    b1 = basis.b.subs_shift("y", alpha).rev("y", basis.eb)
    return IdealBasis(a1, b1)


def condition_for_both(basis: IdealBasis, alpha: int, beta: int):
    """condition_for_Sx(alpha), then x-shift by beta and x-reversal at
    (d_a, d_b).  For good (alpha, beta) both new matrices are column
    reduced; the record carries what recovery needs."""
    mid = condition_for_Sx(basis, alpha)
    a2 = mid.a.subs_shift("x", beta).rev("x", basis.da)
    b2 = mid.b.subs_shift("x", beta).rev("x", basis.db)
    record = ConditioningRecord(alpha=alpha, beta=beta)
    return IdealBasis(a2, b2), record


def recover_last_invariant(sigma2: UPoly, record: ConditioningRecord) -> UPoly:
    """Map the last invariant factor of the conditioned S_y back to the one
    of the original S_y: strip the maximal power of x, reverse, shift by
    -beta, normalise monic."""
    if sigma2.is_zero:
        raise ValueError("invariant factor must be nonzero")
    t = sigma2.trunc_low(sigma2.valuation())
    t = t.rev()
    t = t.taylor_shift(t.ctx.neg(record.beta))
    return t.monic()
