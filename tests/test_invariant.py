import random

import numpy as np
import pytest

from sylres.bipoly import BiPoly, IdealBasis, bimul
from sylres.field import PrimeField
from sylres.invariant import (
    STATUS_CERTIFIED,
    STATUS_DIVISOR,
    STATUS_FAILURE,
    STATUS_PROBABLE,
    InvariantOptions,
    RootsAtInfinityError,
    elimination_generator,
    last_invariant_factor,
    min_poly_mult_x,
    projection_sequence,
    resultant_certified,
)
from sylres.normalform import LinearForm, normal_form
from sylres.oracle import dense_minpoly_mult_x, dense_resultant, dense_smith
from sylres.sylvester import NotColumnReducedError, build_Sy, dense_form
from sylres.upoly import UPoly

from test_sylvester import example1_basis, example2_basis, random_basis

F2 = PrimeField(2)
F7 = PrimeField(7)
F101 = PrimeField(101)
F65537 = PrimeField(65537)

EX1_SIGMA = UPoly(F2, [0, 0, 1, 1, 1, 1])  # x^2 (x+1)^3


def example3_polys(ctx=F7):
    a = BiPoly.from_terms(ctx, [(1, 1, 1), (3, 0, 1), (1, 2, 0), (5, 1, 0), (5, 0, 0)])
    b = BiPoly.from_terms(ctx, [(1, 2, 1), (5, 0, 1), (1, 2, 0), (4, 1, 0), (2, 0, 0)])
    return a, b


def test_projection_sequence_basics():
    rng = random.Random(60)
    basis = example2_basis(F101)
    zero_ell = LinearForm(basis, np.zeros(basis.d * basis.ny, dtype=np.int64))
    assert projection_sequence(basis, zero_ell, 6) == [0] * 6
    ell = LinearForm.random(basis, rng)
    seq = projection_sequence(basis, ell, 12)
    assert seq[0] == ell.apply(normal_form(basis, BiPoly.one(F101)))
    # per-term direct oracle
    for i in range(12):
        mono = BiPoly.monomial(F101, i, 0)
        assert seq[i] == ell.apply(normal_form(basis, mono))


def test_min_poly_simple_ideal():
    # <y - x, y> is <x, y>: multiplication by x is nilpotent of index 1 on A
    a = BiPoly.from_terms(F101, [(1, 0, 1), (100, 1, 0)])  # y - x
    b = BiPoly.y(F101)
    basis = IdealBasis(a, b)
    mu = min_poly_mult_x(basis, random.Random(61))
    assert mu == UPoly.x(F101)
    assert dense_minpoly_mult_x(basis) == UPoly.x(F101)


def test_min_poly_divides_oracle():
    rng = random.Random(62)
    for _ in range(25):
        basis = random_basis(F65537, 3, 3, rng)
        mu_oracle = dense_minpoly_mult_x(basis)
        mu = min_poly_mult_x(basis, rng, trials=1)
        assert mu_oracle.rem(mu).is_zero


def test_last_invariant_factor_example1():
    hits = 0
    for seed in range(20):
        rep = last_invariant_factor(*_ex1_polys(), random.Random(seed))
        if rep.status == STATUS_PROBABLE and rep.sigma == EX1_SIGMA:
            hits += 1
    assert hits >= 19


def _ex1_polys():
    basis = example1_basis()
    return basis.a, basis.b


def test_last_invariant_factor_matches_oracle():
    rng = random.Random(63)
    good = total = 0
    for _ in range(30):
        basis = random_basis(F65537, 4, 4, rng, reduced=False)
        try:
            facs = dense_smith(dense_form(build_Sy(basis)))
        except Exception:
            continue
        rep = last_invariant_factor(basis.a, basis.b, rng)
        if rep.status == STATUS_FAILURE:
            continue
        total += 1
        assert facs[-1].rem(rep.sigma).is_zero  # always a divisor
        if rep.sigma == facs[-1]:
            good += 1
    assert total >= 25 and good >= total - 1


def test_last_invariant_factor_degenerate_never_certified():
    rng = random.Random(64)
    b = BiPoly.random(F101, 2, 2, rng)
    a = bimul(b, BiPoly.from_terms(F101, [(1, 1, 1), (3, 0, 0)]))  # multiple of b
    rep = last_invariant_factor(a, b, rng, InvariantOptions(max_attempts=8))
    assert rep.status in (STATUS_FAILURE, STATUS_DIVISOR, STATUS_PROBABLE)
    assert rep.status != STATUS_CERTIFIED
    # common factor makes S_y singular: conditioning can never succeed
    assert rep.status == STATUS_FAILURE


def test_elimination_generator_example2():
    rng = random.Random(65)
    basis = example2_basis(F101)
    rep = elimination_generator(basis.a, basis.b, rng)
    assert rep.ok
    facs = dense_smith(dense_form(build_Sy(basis)))
    assert rep.sigma == facs[-1]


def test_elimination_generator_rejects_roots_at_infinity():
    basis = example1_basis()
    with pytest.raises(RootsAtInfinityError):
        elimination_generator(basis.a, basis.b, random.Random(66))


def test_elimination_generator_divides_resultant():
    rng = random.Random(67)
    for _ in range(10):
        basis = random_basis(F65537, 3, 3, rng)
        try:
            rep = elimination_generator(basis.a, basis.b, rng)
        except RootsAtInfinityError:
            continue
        if rep.status != STATUS_PROBABLE:
            continue
        res = dense_resultant(basis.a, basis.b)
        assert res.rem(rep.sigma).is_zero


def test_resultant_certified_generic():
    rng = random.Random(68)
    certified = 0
    for _ in range(20):
        basis = random_basis(F65537, 3, 3, rng)
        rep = resultant_certified(basis.a, basis.b, rng)
        if rep.status == STATUS_CERTIFIED:
            certified += 1
            res = dense_resultant(basis.a, basis.b)
            assert rep.sigma.scale(rep.scale) == res
    assert certified >= 18


def test_resultant_certified_example3():
    rng = random.Random(69)
    a, b = example3_polys()
    rep = resultant_certified(a, b, rng)
    assert rep.status == STATUS_CERTIFIED
    assert rep.sigma.scale(rep.scale) == dense_resultant(a, b)
    assert rep.sigma == UPoly(F7, [5, 4, 3, 4, 1])  # (x+2)(x+3)^3 monic


def test_resultant_certified_multi_factor_refuses():
    rng = random.Random(70)
    for _ in range(10):
        # S_y = mu(x) * I_2 has Smith form (mu, mu): two nontrivial factors
        u, v = rng.sample(range(101), 2)
        a = bimul(
            BiPoly.from_terms(F101, [(1, 0, 1), (F101.neg(u), 0, 0)]),
            BiPoly.from_terms(F101, [(1, 0, 1), (F101.neg(v), 0, 0)]),
        )
        mu = UPoly.random(F101, rng.randrange(1, 3), rng, monic=True)
        b = BiPoly.from_upoly(mu, "x")
        facs = dense_smith(dense_form(build_Sy(IdealBasis(a, b))))
        assert sum(1 for f in facs if f.deg > 0) >= 2
        rep = resultant_certified(a, b, rng)
        assert rep.status != STATUS_CERTIFIED
        assert rep.status == STATUS_DIVISOR
        assert facs[-1].rem(rep.sigma).is_zero


def test_resultant_certified_requires_reduced_Sy():
    # y-degree drop in both leading coefficients of S_y columns
    a = BiPoly.from_terms(F101, [(1, 1, 2), (1, 0, 1)])  # x y^2 + y
    b = BiPoly.from_terms(F101, [(1, 1, 1), (1, 0, 0)])  # x y + 1
    basisSy = build_Sy(IdealBasis(a, b))
    from sylres.sylvester import is_column_reduced

    if is_column_reduced(basisSy):
        pytest.skip("constructed instance unexpectedly reduced")
    with pytest.raises(NotColumnReducedError):
        resultant_certified(a, b, random.Random(71))


def test_report_metadata():
    rng = random.Random(72)
    basis = example2_basis(F101)
    rep = last_invariant_factor(basis.a, basis.b, rng)
    assert rep.ok and rep.sigma is not None
    assert rep.trials == 3 and rep.attempts >= 1
    assert "total" in rep.timings_ns and rep.timings_ns["total"] > 0
    assert rep.sigma.c[-1] == 1  # monic


class _CollidingPrimeField(PrimeField):
    """Unequal prime fields that all share one hash value."""

    def __hash__(self):
        return 0


def test_working_field_cache_separates_hash_collisions():
    from sylres.invariant import _working_field

    F3, F5 = _CollidingPrimeField(3), _CollidingPrimeField(5)
    assert hash(F3) == hash(F5) and F3 != F5
    E3 = _working_field(F3, 30)
    E5 = _working_field(F5, 30)
    assert (E3.p, E5.p) == (3, 5)
    assert _working_field(F3, 30) is E3
