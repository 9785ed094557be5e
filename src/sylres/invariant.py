"""Randomized drivers: power-projection sequences, the Wiedemann-style
minimal polynomial of multiplication by x, the last invariant factor of the
Sylvester matrix, the elimination-ideal generator, and the certified
resultant.

The pipeline is Monte Carlo: a returned sigma always divides the true last
invariant factor, equals it with probability 1 - O(de/q), and the resultant
path upgrades to Las Vegas through the column-degree certificate.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from ._dense import gauss_det
from .bipoly import BiPoly, IdealBasis
from .condition import ConditioningRecord, condition_for_both, recover_last_invariant
from .field import FieldCtx, extend_field
from .normalform import LinearForm, embed, normal_form
from .oracle import scalar_sylvester_at
from .sylvester import NotColumnReducedError, build_Sx, build_Sy, is_column_reduced
from .upoly import UPoly, berlekamp_massey, plcm, xgcd

STATUS_CERTIFIED = "certified-resultant"
STATUS_PROBABLE = "invariant-factor-probable"
STATUS_DIVISOR = "divisor-or-failure"
STATUS_FAILURE = "failure"


class RootsAtInfinityError(ValueError):
    pass


@dataclass
class InvariantOptions:
    trials: int = 3
    epsilon: float = 0.1
    max_attempts: int = 16


@dataclass
class InvariantReport:
    sigma: UPoly | None
    status: str
    record: ConditioningRecord | None = None
    trials: int = 0
    seed: int | None = None
    scale: int = 1
    attempts: int = 0
    timings_ns: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_CERTIFIED, STATUS_PROBABLE)


def projection_sequence(
    basis: IdealBasis, ell: LinearForm, N: int, strategy: str = "baseline"
) -> list[int]:
    """The power projections ell(phi(x^i)) for i = 0 .. N-1, by iterating
    f -> phi(x f) from phi(1)."""
    if strategy != "baseline":
        raise ValueError(f"unknown projection strategy {strategy!r}")
    embeds = _projection_embeds(basis, N)
    return [ell.apply_embedded(e) for e in embeds]


def _projection_embeds(basis: IdealBasis, N: int) -> list[np.ndarray]:
    if not (is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis))):
        raise NotColumnReducedError("both Sylvester matrices must be column reduced")
    out = []
    f = normal_form(basis, BiPoly.one(basis.ctx))
    for _ in range(N):
        out.append(embed(basis, f))
        f = normal_form(basis, f.mul_monomial(1, 0))
    return out


def min_poly_mult_x(basis: IdealBasis, rng: random.Random, trials: int = 3) -> UPoly:
    """Monte Carlo minimal polynomial of multiplication by x: lcm of the
    Berlekamp-Massey outputs over random linear forms.  Always a divisor of
    the true minimal polynomial; equal with high probability."""
    ctx = basis.ctx
    N = 4 * basis.d * basis.e
    embeds = _projection_embeds(basis, N)
    acc = UPoly.one(ctx)
    for _ in range(max(trials, 1)):
        ell = LinearForm.random(basis, rng)
        seq = [ell.apply_embedded(e) for e in embeds]
        acc = plcm(acc, berlekamp_massey(ctx, seq))
    return acc


_EXT_CACHE: dict[tuple, FieldCtx] = {}
_EXT_CACHE_SIZE = 32


def _working_field(ctx: FieldCtx, min_card: int) -> FieldCtx:
    """Deterministic cached extension reaching min_card (identity if large
    enough already).  Keyed on the field itself, so unequal fields never
    share an entry; the oldest entry goes when the cache is full."""
    if ctx.q >= min_card:
        return ctx
    key = (ctx, min_card)
    if key not in _EXT_CACHE:
        if len(_EXT_CACHE) >= _EXT_CACHE_SIZE:
            del _EXT_CACHE[next(iter(_EXT_CACHE))]
        rng = random.Random(f"sylres-ext-{ctx.p}-{ctx.k}-{min_card}")
        _EXT_CACHE[key] = extend_field(ctx, min_card, rng)
    return _EXT_CACHE[key]


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
    min_card = int(np.ceil((12 * de) ** (1.0 + opts.epsilon)))
    work_ctx = _working_field(ctx, min_card)
    wbasis = basis.lift(work_ctx) if work_ctx is not ctx else basis

    attempts = 0
    for attempt in range(opts.max_attempts):
        attempts = attempt + 1
        alpha = work_ctx.sample(rng)
        beta = work_ctx.sample(rng)
        t0 = time.perf_counter_ns()
        cond, record = condition_for_both(wbasis, alpha, beta)
        timings["condition"] = timings.get("condition", 0) + time.perf_counter_ns() - t0
        if cond.degree_vector() != wbasis.degree_vector():
            continue
        if not (is_column_reduced(build_Sx(cond)) and is_column_reduced(build_Sy(cond))):
            continue
        t0 = time.perf_counter_ns()
        mu2 = min_poly_mult_x(cond, rng, opts.trials)
        timings["minpoly"] = timings.get("minpoly", 0) + time.perf_counter_ns() - t0
        if mu2.is_zero:
            continue
        t0 = time.perf_counter_ns()
        sigma = recover_last_invariant(mu2, record)
        timings["recover"] = timings.get("recover", 0) + time.perf_counter_ns() - t0
        if sigma.deg > 2 * de:
            continue  # cannot be an invariant-factor divisor; randomness artifact
        if work_ctx is not ctx:
            if any(int(c) >= ctx.q for c in sigma.c):
                continue  # randomness artifact: sigma must live in the base field
            sigma = UPoly(ctx, sigma.c)
        timings["total"] = time.perf_counter_ns() - t_total
        return InvariantReport(
            sigma,
            STATUS_PROBABLE,
            record=record,
            trials=opts.trials,
            attempts=attempts,
            timings_ns=timings,
        )
    timings["total"] = time.perf_counter_ns() - t_total
    return InvariantReport(None, STATUS_FAILURE, attempts=attempts, timings_ns=timings)


def elimination_generator(
    a: BiPoly, b: BiPoly, rng: random.Random, opts: InvariantOptions | None = None
) -> InvariantReport:
    """Generator of <a, b> intersected with K[x]; requires the y-leading
    coefficients of a and b to be coprime (no roots at infinity)."""
    g, _, _ = xgcd(a.lead_coeff("y"), b.lead_coeff("y"))
    if g.deg != 0:
        raise RootsAtInfinityError(
            f"roots at infinity: y-leading coefficients share the factor {g!r}"
        )
    return last_invariant_factor(a, b, rng, opts)


def resultant_certified(
    a: BiPoly, b: BiPoly, rng: random.Random, opts: InvariantOptions | None = None
) -> InvariantReport:
    """Res_y(a, b) through the degree certificate: when deg sigma equals the
    sum of the column degrees of S_y, the resultant is scale * sigma with the
    scale fixed by one determinant evaluation."""
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
    report.scale = _determinant_scale(basis, report.sigma, rng)
    report.status = STATUS_CERTIFIED
    return report


def _determinant_scale(basis: IdealBasis, sigma: UPoly, rng: random.Random) -> int:
    """c with det S_y = c * sigma, by evaluation at a point avoiding the
    roots of sigma (over a small extension when the base field is tiny)."""
    ctx = basis.ctx
    ev_ctx = _working_field(ctx, 2 * max(sigma.deg, 1) + 2) if ctx.q <= 2 * sigma.deg else ctx
    lifted = basis.lift(ev_ctx) if ev_ctx is not ctx else basis
    sig = UPoly(ev_ctx, sigma.c) if ev_ctx is not ctx else sigma
    for _ in range(64):
        x0 = ev_ctx.sample(rng)
        sv = sig.eval_at(x0)
        if sv == 0:
            continue
        det = gauss_det(ev_ctx, scalar_sylvester_at(lifted, x0, ev_ctx))
        c = ev_ctx.mul(det, ev_ctx.inv(sv))
        if ev_ctx is not ctx and c >= ctx.q:
            raise ArithmeticError("determinant scale did not descend to the base field")
        return c
    raise ArithmeticError("could not find an evaluation point avoiding the roots of sigma")
