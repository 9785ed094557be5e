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
multiplication by x is a shift plus a rank-n_y update.  It is set up by the
normal form of 1, one matrix division of x^d I by S_y for every
phi(x^d y^j) at once (normalform.x_power_forms), and one transposed normal
form per form; each power of x is then one exact product of a fixed
(n_y + trials, d n_y) matrix with the last d update vectors (see
_power_projections).  upoly.common_generator then runs
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
from .normalform import LinearForm, NormalFormProgram, normal_form, x_power_forms
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
    require_both_reduced(basis)  # even when no projection is asked for
    return [int(s) for s in _power_projections(basis, [ell], N)[0]]


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
    Setting it up takes one normal form (phi(1)), one matrix division for
    all the phi(x^d y^j) (x_power_forms), and one product of the shifted
    ell' with those n_y + 1 forms for every ell'(T^m ...).
    """
    ctx = basis.ctx
    d, ny, k = basis.d, basis.ny, len(forms)
    seqs = np.zeros((k, N), dtype=np.int64)
    if N == 0 or d == 0 or ny == 0:
        return seqs  # nothing asked for, or the window is {0}
    # P[0] = phi(1), P[1 + j] = phi(x^d y^j); P[p, c] is column c of P[p]
    P = np.concatenate([normal_form(basis, BiPoly.one(ctx)).padded(d, ny)[None], x_power_forms(basis)])
    prog = NormalFormProgram(basis, d - 1, ny - 1)
    # L[t, c] is the row vector of ell'_t on column c
    L = np.stack([prog.transpose(ell).reshape(ny, d).T for ell in forms])
    # Z[t, m, p] = ell'_t(T^m P[p]) = sum_{c >= m} L[t, c] . P[p, c - m]:
    # one product of the shifted forms Ls[t, m, c - m] = L[t, c] with every P[p]
    Ls = np.zeros((k, d, d, ny), dtype=np.int64)
    for m in range(d):
        Ls[:, m, : d - m] = L[:, m:]
    Z = ctx.dot_map(Ls.reshape(k * d, d * ny))(P.reshape(ny + 1, d * ny).T).reshape(k, d, ny + 1)
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
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    require_both_reduced(basis)
    forms = [LinearForm.random(basis, rng) for _ in range(trials)]
    return common_generator(basis.ctx, _power_projections(basis, forms, 4 * basis.d * basis.e))


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
