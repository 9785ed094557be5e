"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3's first clause (the conditioned minimal polynomial of the F_7
fixture equalling x+2) is implemented exactly as stated and is expected to
fail: conditioning provably changes the minimal polynomial by the factors
carried at infinity, so the conditioned value is (x+2)(x+3)^3.  See
/root/notes/decisions.md for the analysis.  Everything else must pass.
"""

import random
import time

import numpy as np
import pytest

from sylres.bipoly import BiPoly, IdealBasis, bimul
from sylres.condition import condition_for_Sx, condition_for_both, recover_last_invariant
from sylres.field import PrimeField, build_extension
from sylres.invariant import (
    STATUS_CERTIFIED,
    InvariantOptions,
    last_invariant_factor,
    min_poly_mult_x,
    resultant_certified,
)
from sylres.kucompose import KUParams, compose_rem
from sylres.normalform import (
    LinearForm,
    matrix_divrem,
    mul_mod,
    normal_form,
    reduce_ydeg,
    transposed_normal_form,
)
from sylres.oracle import dense_resultant, dense_smith
from sylres.sylvester import build_Sx, build_Sy, dense_form, is_column_reduced, matvec
from sylres.upoly import UPoly

F2 = PrimeField(2)
F7 = PrimeField(7)
F101 = PrimeField(101)
F65537 = PrimeField(65537)


def _report(num: int, label: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:>2} {label}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({label}): {detail}"


def example1_polys():
    a = BiPoly.from_terms(F2, [(1, 1, 1), (1, 0, 1), (1, 2, 0)])  # (x+1)y + x^2
    b = BiPoly.from_terms(F2, [(1, 1, 2), (1, 0, 2), (1, 0, 1)])  # (x+1)y^2 + y
    return a, b


def example2_basis():
    a = BiPoly.from_terms(F101, [(1, 2, 1), (1, 0, 1)])  # x^2 y + y
    b = BiPoly.from_terms(F101, [(1, 1, 2), (1, 1, 0)])  # x y^2 + x
    return IdealBasis(a, b)


def example3_polys():
    a = BiPoly.from_terms(F7, [(1, 1, 1), (3, 0, 1), (1, 2, 0), (5, 1, 0), (5, 0, 0)])
    b = BiPoly.from_terms(F7, [(1, 2, 1), (5, 0, 1), (1, 2, 0), (4, 1, 0), (2, 0, 0)])
    return a, b


def reduced_random_basis(ctx, dmax, emax, rng):
    for _ in range(200):
        a = BiPoly.random(ctx, rng.randrange(1, dmax + 1), rng.randrange(1, emax + 1), rng)
        b = BiPoly.random(ctx, rng.randrange(1, dmax + 1), rng.randrange(1, emax + 1), rng)
        basis = IdealBasis(a, b)
        if is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis)):
            return basis
    raise AssertionError(f"no column-reduced basis of bidegree up to ({dmax}, {emax}) over {ctx!r}")


def test_criterion_1_example1_invfact():
    a, b = example1_polys()
    sigma_expect = UPoly(F2, [0, 0, 1, 1, 1, 1])  # x^2 (x+1)^3 expanded over F_2
    t0 = time.perf_counter()
    hits = 0
    for seed in range(100):
        rep = last_invariant_factor(a, b, random.Random(seed))
        if rep.ok and rep.sigma == sigma_expect:
            hits += 1
    facs = dense_smith(dense_form(build_Sy(IdealBasis(a, b))))
    elapsed = time.perf_counter() - t0
    smith_ok = facs == [UPoly.one(F2), UPoly.one(F2), sigma_expect]
    _report(
        1,
        "Example 1 invariant factor",
        hits >= 95 and smith_ok and elapsed < 5.0,
        f"hits={hits}/100, smith_ok={smith_ok}, {elapsed:.2f}s",
    )


def test_criterion_2_worked_division():
    basis = example2_basis()
    f = BiPoly.from_terms(F101, [(1, 0, 3), (1, 3, 2), (1, 0, 0)])  # y^3 + x^3 y^2 + 1
    fp = reduce_ydeg(basis, f)
    fp_ok = fp == BiPoly.from_terms(F101, [(100, 3, 0), (1, 2, 1), (1, 0, 0)])  # -x^3+yx^2+1
    nf_ok = normal_form(basis, f) == BiPoly.from_terms(
        F101, [(100, 1, 2), (100, 0, 1), (1, 0, 0)]
    )  # -xy^2 - y + 1
    nfx_ok = normal_form(basis, BiPoly.x(F101)) == BiPoly.from_terms(F101, [(100, 1, 2)])
    _report(2, "worked division fixture", fp_ok and nf_ok and nfx_ok,
            f"f'={fp_ok}, nf={nf_ok}, nf(x)={nfx_ok}")


def _example3_conditioned_minpoly(seed: int) -> UPoly | None:
    """The minimal polynomial of multiplication by x in the conditioned
    quotient, descended to F_7 (monic, x-power stripped, reversed, shifted
    back), exactly as the pipeline recovers it."""
    a, b = example3_polys()
    basis = IdealBasis(a, b)
    rng = random.Random(seed)
    F = build_extension(7, 33, random.Random("acceptance-ex3"))
    lifted = basis.lift(F)
    for _ in range(16):
        cond, record = condition_for_both(lifted, F.sample(rng), F.sample(rng))
        if cond.degree_vector() != lifted.degree_vector():
            continue
        if not (is_column_reduced(build_Sx(cond)) and is_column_reduced(build_Sy(cond))):
            continue
        mu = min_poly_mult_x(cond, rng)
        back = recover_last_invariant(mu, record)
        if all(int(c) < 7 for c in back.c):
            return UPoly(F7, back.c)
    return None


def test_criterion_3_example3_conditioned_minpoly_is_x_plus_2():
    # Stated criterion: the conditioned minimal polynomial of multiplication
    # by x equals x+2.  The pipeline's conditioned minimal polynomial is
    # (x+2)(x+3)^3: the y-reversal moves the common root at infinity (x=-3)
    # into the affine quotient, so this assertion cannot hold; it is kept
    # verbatim and left red rather than weakened.
    hits = 0
    x_plus_2 = UPoly(F7, [2, 1])
    for seed in range(100):
        mu = _example3_conditioned_minpoly(seed)
        if mu is not None and mu == x_plus_2:
            hits += 1
    _report(3, "Example 3 conditioned minimal polynomial = x+2", hits >= 95,
            f"hits={hits}/100; conditioned value is (x+2)(x+3)^3, see decisions ledger")


def test_criterion_3_example3_certified_resultant():
    a, b = example3_polys()
    want = dense_resultant(a, b)
    hits = 0
    for seed in range(100):
        rep = resultant_certified(a, b, random.Random(seed))
        if rep.status == STATUS_CERTIFIED and rep.sigma.scale(rep.scale) == want:
            hits += 1
    _report(3, "Example 3 certified resultant = oracle", hits >= 95, f"hits={hits}/100")


def test_criterion_4_property_suite():
    rng = random.Random(404)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(200):
        basis = reduced_random_basis(F65537, 5, 5, rng)
        f = BiPoly.random(F65537, rng.randrange(0, 8), rng.randrange(0, 8), rng)
        g = BiPoly.random(F65537, rng.randrange(0, 8), rng.randrange(0, 8), rng)
        nf = normal_form(basis, f)
        if not (nf.deg_x < basis.d and nf.deg_y < basis.ny):
            failures += 1
        if normal_form(basis, nf) != nf:
            failures += 1
        lam = F65537.sample(rng)
        if normal_form(basis, f.scale(lam) + g) != nf.scale(lam) + normal_form(basis, g):
            failures += 1
        u = BiPoly.random(F65537, rng.randrange(0, 4), rng.randrange(0, 4), rng)
        t = BiPoly.random(F65537, rng.randrange(0, 4), rng.randrange(0, 4), rng)
        if normal_form(basis, f + bimul(u, basis.a) + bimul(t, basis.b)) != nf:
            failures += 1
        # division identity replay and re-division idempotence
        from sylres.bipoly import vec_y

        S = build_Sy(basis)
        v = [UPoly.random(F65537, rng.randrange(-1, 2 * basis.d), rng) for _ in range(S.n)]
        w, vhat = matrix_divrem(S, v)
        Sw = matvec(S, w)
        if any(Sw[i] + vhat[i] != v[i] for i in range(S.n)):
            failures += 1
        if any(e.deg >= S.degree for e in vhat):
            failures += 1
        w2, vhat2 = matrix_divrem(S, vhat)
        if any(not e.is_zero for e in w2) or vhat2 != vhat:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(4, "property suite (200 instances)", failures == 0 and elapsed < 60.0,
            f"failures={failures}, {elapsed:.1f}s")


def test_criterion_5_duality_suite():
    rng = random.Random(505)
    failures = 0
    for _ in range(100):
        basis = reduced_random_basis(F65537, 4, 4, rng)
        delta = rng.randrange(0, 7)
        eta = rng.randrange(0, 7)
        ell = LinearForm.random(basis, rng)
        proj = transposed_normal_form(basis, ell, delta, eta)
        f = BiPoly.random(F65537, rng.randrange(0, delta + 1), rng.randrange(0, eta + 1), rng)
        lhs = 0
        for j in range(eta + 1):
            for i in range(delta + 1):
                lhs = F65537.add(lhs, F65537.mul(int(proj[j * (delta + 1) + i]), f.coeff(i, j)))
        if lhs != ell.apply(normal_form(basis, f)):
            failures += 1
    _report(5, "transpose duality (100 cases)", failures == 0, f"failures={failures}")


def test_criterion_6_ku_pipeline():
    rng = random.Random(606)
    failures = 0
    for case in range(50):
        basis = reduced_random_basis(F65537, 4, 4, rng)
        bound = 4 * basis.d * basis.e
        f = UPoly.random(F65537, rng.randrange(1, bound), rng)
        d_eps = (2, 3, 4)[case % 3]
        got = compose_rem(basis, f, KUParams.choose(bound, d_eps=d_eps))
        want = normal_form(basis, BiPoly.from_upoly(f, "x"))
        if got != want:
            failures += 1
    _report(6, "composition pipeline = normal form (50 cases)", failures == 0,
            f"failures={failures}")


def test_criterion_7_wiedemann_vs_oracle():
    rng = random.Random(707)
    equal = 0
    divisor_failures = 0
    for _ in range(200):
        basis = reduced_random_basis(F65537, 5, 5, rng)
        rep = last_invariant_factor(basis.a, basis.b, rng)
        oracle = dense_smith(dense_form(build_Sy(basis)))[-1]
        if not rep.ok or not oracle.rem(rep.sigma).is_zero:
            divisor_failures += 1
            continue
        if rep.sigma == oracle:
            equal += 1
    _report(7, "Wiedemann vs oracle (200 instances)",
            equal >= 198 and divisor_failures == 0,
            f"equal={equal}/200, divisor_failures={divisor_failures}")


def test_criterion_8_conditioning_roundtrip():
    rng = random.Random(808)
    failures = 0
    done = 0
    while done < 100:
        basis = reduced_random_basis(F65537, 4, 4, rng)
        alpha, beta = F65537.sample(rng), F65537.sample(rng)
        smith_before = dense_smith(dense_form(build_Sy(basis)))
        condA = condition_for_Sx(basis, alpha)
        if condA.degree_vector() == basis.degree_vector():
            if dense_smith(dense_form(build_Sy(condA))) != smith_before:
                failures += 1
        cond, record = condition_for_both(basis, alpha, beta)
        if cond.degree_vector() != basis.degree_vector():
            continue
        if not (is_column_reduced(build_Sx(cond)) and is_column_reduced(build_Sy(cond))):
            continue
        sigma2 = dense_smith(dense_form(build_Sy(cond)))[-1]
        if recover_last_invariant(sigma2, record) != smith_before[-1]:
            failures += 1
        done += 1
    _report(8, "conditioning roundtrip (100 instances)", failures == 0,
            f"failures={failures}")


def test_criterion_9_certified_resultant():
    rng = random.Random(909)
    certified = 0
    mismatches = 0
    for _ in range(100):
        a = BiPoly.random(F65537, 3, 3, rng)
        b = BiPoly.random(F65537, 3, 3, rng)
        basis = IdealBasis(a, b)
        if not is_column_reduced(build_Sy(basis)):
            continue
        rep = resultant_certified(a, b, rng)
        if rep.status == STATUS_CERTIFIED:
            certified += 1
            if rep.sigma.scale(rep.scale) != dense_resultant(a, b):
                mismatches += 1
    false_certs = 0
    for _ in range(20):
        # S_y = mu(x) I_2: Smith form (mu, mu), two nontrivial factors
        u, v = rng.sample(range(65537), 2)
        a = bimul(
            BiPoly.from_terms(F65537, [(1, 0, 1), (F65537.neg(u), 0, 0)]),
            BiPoly.from_terms(F65537, [(1, 0, 1), (F65537.neg(v), 0, 0)]),
        )
        b = BiPoly.from_upoly(UPoly.random(F65537, rng.randrange(1, 3), rng, monic=True), "x")
        rep = resultant_certified(a, b, rng)
        if rep.status == STATUS_CERTIFIED:
            false_certs += 1
    _report(9, "certified resultant", certified >= 90 and mismatches == 0 and false_certs == 0,
            f"certified={certified}/100, mismatches={mismatches}, false={false_certs}/20")


def test_criterion_10_scaling_stretch():
    # Engineering target (labeled, non-blocking stretch in the criteria):
    # log-log slope of normal_form wall time against d*e stays <= 1.6.
    rng = random.Random(1010)
    sizes = (8, 16, 32, 64, 128)
    times = []
    for d in sizes:
        per_seed = []
        for _ in range(5):
            for _ in range(200):
                a = BiPoly.random(F65537, d, d, rng)
                b = BiPoly.random(F65537, d, d, rng)
                basis = IdealBasis(a, b)
                if is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis)):
                    break
            else:
                raise AssertionError(f"no column-reduced basis of bidegree ({d}, {d}) over F_65537")
            f = BiPoly.random(F65537, 2 * (d - 1), 2 * (basis.ny - 1), rng)
            t0 = time.perf_counter()
            normal_form(basis, f)
            per_seed.append(time.perf_counter() - t0)
        times.append(np.median(per_seed))
    slope = float(np.polyfit(np.log([d * d for d in sizes]), np.log(times), 1)[0])
    _report(10, "empirical scaling (engineering target)", slope <= 1.6,
            f"slope={slope:.3f}, medians={['%.3f' % t for t in times]}")
