"""Randomized drivers: power-projection sequences, the Wiedemann-style
minimal polynomial of multiplication by x, the last invariant factor of the
Sylvester matrix, the elimination-ideal generator, and the certified
resultant.

The pipeline is Monte Carlo: a returned sigma always divides the true last
invariant factor, equals it with probability 1 - O(de/q), and the resultant
path upgrades to Las Vegas through the column-degree certificate.

The minimal polynomial is read off power projections ell(phi(x^i)),
i < 4de.  The `trials` random linear forms are drawn first; their sequences
then come from normalform.power_projections: one x-adic series solve
against S_y's reversed matrix gives the quotient side of every division of
x^i by S_y at once, and two products with the forms turn it into all the
sequences, with no normal form computed.  upoly.common_generator then runs
Berlekamp-Massey on the first sequence only and certifies each other one
with one annihilation product.  Every retry of last_invariant_factor is
counted under a named reason in InvariantReport.rejections.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from ._dense import gauss_det
from .bipoly import BiPoly, IdealBasis
from .condition import ConditioningRecord, condition_for_both, recover_last_invariant
from .field import working_field
from .normalform import LinearForm, power_projections
from .sylvester import NotColumnReducedError, build_Sx, build_Sy, is_column_reduced, require_both_reduced
from .upoly import UPoly, common_generator, pgcd

STATUS_CERTIFIED = "certified-resultant"
STATUS_PROBABLE = "invariant-factor-probable"
STATUS_DIVISOR = "divisor-or-failure"
STATUS_FAILURE = "failure"


class RootsAtInfinityError(ValueError):
    pass


# Why last_invariant_factor discarded an attempt, one name per retry point.
REJECTION_REASONS = (
    "degree-drop",
    "sx-not-reduced",
    "sy-not-reduced",
    "sigma-too-large",
    "sigma-not-in-base",
)


@dataclass
class InvariantOptions:
    trials: int = 3
    max_attempts: int = 16

    def __post_init__(self):
        for name in ("trials", "max_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"InvariantOptions.{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class InvariantReport:
    sigma: UPoly | None
    status: str
    record: ConditioningRecord | None = None
    trials: int = 0
    scale: int = 1
    attempts: int = 0
    timings_ns: dict = field(default_factory=dict)
    rejections: dict[str, int] = field(default_factory=lambda: dict.fromkeys(REJECTION_REASONS, 0))

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_CERTIFIED, STATUS_PROBABLE)


def projection_sequence(basis: IdealBasis, ell: LinearForm, N: int) -> list[int]:
    """The power projections ell(phi(x^i)) for i = 0 .. N-1."""
    if N < 0:
        raise ValueError(f"N must be at least 0, got {N}")
    require_both_reduced(basis)  # even when no projection is asked for
    return [int(s) for s in power_projections(basis, [ell], N)[0]]


def min_poly_mult_x(basis: IdealBasis, rng: random.Random, trials: int = 3) -> UPoly:
    """Monte Carlo minimal polynomial of multiplication by x: the lcm of the
    generators of the power projections under random linear forms, by one
    Berlekamp-Massey run plus one annihilation check per further form
    (upoly.common_generator).  Always a divisor of the true minimal
    polynomial; equal with high probability."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    require_both_reduced(basis)
    forms = [LinearForm.random(basis, rng) for _ in range(trials)]
    return common_generator(basis.ctx, power_projections(basis, forms, 4 * basis.d * basis.e))


_EPSILON = 0.1  # the working field has at least (12 d e)^(1 + _EPSILON) elements


def last_invariant_factor(
    a: BiPoly, b: BiPoly, rng: random.Random, opts: InvariantOptions | None = None
) -> InvariantReport:
    """Last invariant factor of S_y(a, b), Monte Carlo.

    Lifts to an extension field when q < (12 d e)^(1+eps), conditions with
    random shifts/reversals until both Sylvester matrices are column
    reduced, runs the projection pipeline, and maps the result back."""
    opts = opts or InvariantOptions()
    basis = IdealBasis(a, b)
    ctx = basis.ctx
    timings: dict[str, int] = {}
    t_total = time.perf_counter_ns()

    if basis.ny == 0:
        return InvariantReport(UPoly.one(ctx), STATUS_PROBABLE, trials=0, timings_ns=timings)

    de = max(basis.d * basis.e, 1)
    min_card = int(np.ceil((12 * de) ** (1.0 + _EPSILON)))
    work_ctx = working_field(ctx, min_card)
    wbasis = basis.lift(work_ctx) if work_ctx is not ctx else basis

    attempts = 0
    rejections = dict.fromkeys(REJECTION_REASONS, 0)
    for attempt in range(opts.max_attempts):
        attempts = attempt + 1
        alpha = work_ctx.sample(rng)
        beta = work_ctx.sample(rng)
        t0 = time.perf_counter_ns()
        cond, record = condition_for_both(wbasis, alpha, beta)
        timings["condition"] = timings.get("condition", 0) + time.perf_counter_ns() - t0
        if cond.degree_vector() != wbasis.degree_vector():
            rejections["degree-drop"] += 1
            continue
        if not is_column_reduced(build_Sx(cond)):
            rejections["sx-not-reduced"] += 1
            continue
        if not is_column_reduced(build_Sy(cond)):
            rejections["sy-not-reduced"] += 1
            continue
        t0 = time.perf_counter_ns()
        mu2 = min_poly_mult_x(cond, rng, opts.trials)
        timings["minpoly"] = timings.get("minpoly", 0) + time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        sigma = recover_last_invariant(mu2, record)
        timings["recover"] = timings.get("recover", 0) + time.perf_counter_ns() - t0
        if sigma.deg > 2 * de:
            rejections["sigma-too-large"] += 1  # cannot divide the invariant factor
            continue
        if work_ctx is not ctx:
            if any(int(c) >= ctx.q for c in sigma.c):
                rejections["sigma-not-in-base"] += 1  # sigma must live in the base field
                continue
            sigma = UPoly(ctx, sigma.c)
        timings["total"] = time.perf_counter_ns() - t_total
        return InvariantReport(
            sigma,
            STATUS_PROBABLE,
            record=record,
            trials=opts.trials,
            attempts=attempts,
            timings_ns=timings,
            rejections=rejections,
        )
    timings["total"] = time.perf_counter_ns() - t_total
    return InvariantReport(
        None, STATUS_FAILURE, attempts=attempts, timings_ns=timings, rejections=rejections
    )


def elimination_generator(
    a: BiPoly, b: BiPoly, rng: random.Random, opts: InvariantOptions | None = None
) -> InvariantReport:
    """Generator of <a, b> intersected with K[x]; requires the y-leading
    coefficients of a and b to be coprime (no roots at infinity)."""
    g = pgcd(a.lead_coeff("y"), b.lead_coeff("y"))
    if g.deg != 0:
        raise RootsAtInfinityError(
            f"roots at infinity: y-leading coefficients share the factor {g!r}"
        )
    return last_invariant_factor(a, b, rng, opts)


def resultant_certified(
    a: BiPoly, b: BiPoly, rng: random.Random, opts: InvariantOptions | None = None
) -> InvariantReport:
    """Res_y(a, b) through the degree certificate.  S_y is column reduced,
    so det S_y has degree D (the sum of the column degrees) and leading
    coefficient det L, L the column-leading matrix (the constant matrix of
    S_y.reversed_matrix()).  The monic sigma divides det S_y, so
    deg sigma = D gives Res_y = det L * sigma, with no further draws."""
    basis = IdealBasis(a, b)
    Sy = build_Sy(basis)
    if not is_column_reduced(Sy):
        raise NotColumnReducedError("S_y not column reduced: degree certificate unavailable")
    report = last_invariant_factor(a, b, rng, opts)
    if report.status == STATUS_FAILURE:
        return report
    target = Sy.m2 * Sy.c1 + Sy.m1 * Sy.c2  # sum of the column degrees
    if report.sigma.deg != target:
        report.status = STATUS_DIVISOR
        return report
    report.scale = gauss_det(basis.ctx, Sy.reversed_matrix().constant_matrix())
    report.status = STATUS_CERTIFIED
    return report
