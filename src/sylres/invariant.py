"""Randomized drivers: power-projection sequences, the Wiedemann-style
minimal polynomial of multiplication by x, the last invariant factor of the
Sylvester matrix, the elimination-ideal generator, and the certified
resultant.

The pipeline is Monte Carlo: a returned sigma always divides the true last
invariant factor, equals it with probability 1 - O(de/q), and the resultant
path upgrades to Las Vegas through the column-degree certificate.

The minimal polynomial is read off power projections ell(phi(x^i)),
i < 4de.  The `trials` random linear forms are drawn first; their sequences
then come from one recurrence on the normal-form window, where
multiplication by x is a shift plus a rank-n_y update: n_y + 1 normal forms
and one transposed normal form per form set it up, and each power of x is
one exact product of a fixed (n_y + trials, d n_y) matrix with the last d
update vectors (see _power_projections).  upoly.common_generator then runs
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
from .field import FieldCtx, extend_field
from .normalform import LinearForm, NormalFormProgram, normal_form
from .sylvester import NotColumnReducedError, build_Sx, build_Sy, is_column_reduced
from .upoly import UPoly, common_generator, xgcd

STATUS_CERTIFIED = "certified-resultant"
STATUS_PROBABLE = "invariant-factor-probable"
STATUS_DIVISOR = "divisor-or-failure"
STATUS_FAILURE = "failure"


class RootsAtInfinityError(ValueError):
    pass


class DeterminantScaleError(ArithmeticError):
    """The determinant scale of a certified resultant could not be fixed."""


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
    rejections: dict[str, int] = field(default_factory=lambda: dict.fromkeys(REJECTION_REASONS, 0))

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_CERTIFIED, STATUS_PROBABLE)


def projection_sequence(basis: IdealBasis, ell: LinearForm, N: int) -> list[int]:
    """The power projections ell(phi(x^i)) for i = 0 .. N-1."""
    _require_both_reduced(basis)
    return [int(s) for s in _power_projections(basis, [ell], N)[0]]


def _require_both_reduced(basis: IdealBasis) -> None:
    """The column-reducedness precondition, checked at the call even when
    no projection is asked for."""
    if not (is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis))):
        raise NotColumnReducedError("both Sylvester matrices must be column reduced")


def _power_projections(basis: IdealBasis, forms: list[LinearForm], N: int) -> np.ndarray:
    """Row t holds forms[t](phi(x^i)) for i < N, by the shift-plus-rank-n_y
    recurrence on the window W = K[x,y]_{<(d, n_y)}.

    A window element g is held as d columns g_0 .. g_{d-1} (the coefficients
    of x^c, vectors in y).  With h(g) = g_{d-1} and C_c the n_y x n_y matrix
    whose column j is column c of phi(x^d y^j),
        x g = T g + x^d h(g) = T g + C h(g)  (mod I),
    where T shifts column c to c + 1 and drops column d - 1.  So from
    g_0 = phi(1), the window representatives g_{i+1} = T g_i + C h_i of x^i
    satisfy, with h_i = h(g_i) and h_i = 0 for i < 0,
        h_i = [i < d] phi(1)_{d-1-i} + sum_{m<d} C_{d-1-m} h_{i-1-m},
        s_i = ell'(T^i phi(1)) + sum_{m<d} A_m h_{i-1-m},
    where ell' = ell o phi on W (one transposed normal form: W is not fixed
    by phi when the column degrees differ) and A_m = ell' o T^m o C.  Each
    step is then one exact product of M = [C_0 .. C_{d-1}; A_{d-1} .. A_0]
    with the last d h's, read as a slice of one flat history buffer.
    """
    ctx = basis.ctx
    d, ny, k = basis.d, basis.ny, len(forms)
    seqs = np.zeros((k, N), dtype=np.int64)
    if N == 0 or d == 0 or ny == 0:
        return seqs  # nothing asked for, or the window is {0}
    # P[0] = phi(1), P[1 + j] = phi(x^d y^j); P[p, c] is column c of P[p]
    polys = [BiPoly.one(ctx)] + [BiPoly.monomial(ctx, d, j) for j in range(ny)]
    P = np.stack([normal_form(basis, f).padded(d, ny) for f in polys])
    prog = NormalFormProgram(basis, d - 1, ny - 1)
    # L[t, c] is the row vector of ell'_t on column c
    L = np.stack([prog.transpose(ell).reshape(ny, d).T for ell in forms])
    # Z[t, m, p] = ell'_t(T^m P[p]) = sum_{c >= m} L[t, c] . P[p, c - m]
    Z = np.empty((k, d, ny + 1), dtype=np.int64)
    for m in range(d):
        proj = ctx.dot_map(P[:, : d - m].reshape(ny + 1, -1))
        for t in range(k):
            Z[t, m] = proj(L[t, m:].reshape(-1))
    # window block b multiplies h_{i-d+b}, that is m = d-1-b
    R = P[1:].transpose(2, 1, 0).reshape(ny, d * ny)  # block b is C_b
    A = Z[:, ::-1, 1:].reshape(k, d * ny)  # block b is A_{d-1-b}
    step = ctx.dot_map(np.concatenate([R, A]))
    H = np.zeros((N + d) * ny, dtype=np.int64)  # h_{-d} .. h_{N-1}
    w = d * ny
    for i in range(N):
        out = step(H[i * ny : i * ny + w])
        if i < d:
            out = ctx.vadd(out, np.concatenate([P[0, d - 1 - i], Z[:, i, 0]]))
        H[i * ny + w : (i + 1) * ny + w] = out[:ny]
        seqs[:, i] = out[ny:]
    return seqs


def min_poly_mult_x(basis: IdealBasis, rng: random.Random, trials: int = 3) -> UPoly:
    """Monte Carlo minimal polynomial of multiplication by x: the lcm of the
    generators of the power projections under random linear forms, by one
    Berlekamp-Massey run plus one annihilation check per further form
    (upoly.common_generator).  Always a divisor of the true minimal
    polynomial; equal with high probability."""
    _require_both_reduced(basis)
    forms = [LinearForm.random(basis, rng) for _ in range(max(trials, 1))]
    return common_generator(basis.ctx, _power_projections(basis, forms, 4 * basis.d * basis.e))


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
    Sy = build_Sy(basis.lift(ev_ctx) if ev_ctx is not ctx else basis)
    sig = UPoly(ev_ctx, sigma.c) if ev_ctx is not ctx else sigma
    for _ in range(64):
        x0 = ev_ctx.sample(rng)
        sv = sig.eval_at(x0)
        if sv == 0:
            continue
        det = gauss_det(ev_ctx, Sy.at(x0))
        c = ev_ctx.mul(det, ev_ctx.inv(sv))
        if ev_ctx is not ctx and c >= ctx.q:
            raise DeterminantScaleError("determinant scale did not descend to the base field")
        return c
    raise DeterminantScaleError("could not find an evaluation point avoiding the roots of sigma")
