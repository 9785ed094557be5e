import functools
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import sylres.upoly
from sylres.bipoly import BiPoly, IdealBasis, bimul
from sylres.field import PrimeField, build_extension, extend_field
from sylres.invariant import (
    REJECTION_REASONS,
    STATUS_CERTIFIED,
    STATUS_DIVISOR,
    STATUS_FAILURE,
    STATUS_PROBABLE,
    InvariantOptions,
    RootsAtInfinityError,
    _power_projections,
    _working_field,
    elimination_generator,
    last_invariant_factor,
    min_poly_mult_x,
    projection_sequence,
    resultant_certified,
)
from sylres.normalform import LinearForm, embed, normal_form, transposed_normal_form
from sylres.oracle import dense_minpoly_mult_x, dense_resultant, dense_smith
from sylres.sylvester import NotColumnReducedError, build_Sx, build_Sy, dense_form, is_column_reduced
from sylres.upoly import UPoly, berlekamp_massey, plcm

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


@pytest.mark.parametrize("N", [0, 5])
def test_projection_sequence_checks_reducedness_eagerly(N):
    a = BiPoly.from_terms(F101, [(1, 1, 2), (1, 0, 1)])  # x y^2 + y
    b = BiPoly.from_terms(F101, [(1, 1, 1), (1, 0, 0)])  # x y + 1
    basis = IdealBasis(a, b)
    ell = LinearForm(basis, np.ones(basis.d * basis.ny, dtype=np.int64))
    with pytest.raises(NotColumnReducedError):
        projection_sequence(basis, ell, N)


def test_min_poly_streamed_forms_match_one_form_at_a_time():
    rng = random.Random(63)
    basis = random_basis(F65537, 3, 3, rng)
    N = 4 * basis.d * basis.e
    forms_rng, ref_rng = random.Random(64), random.Random(64)
    want = UPoly.one(F65537)
    for _ in range(3):
        ell = LinearForm.random(basis, ref_rng)
        want = plcm(want, berlekamp_massey(F65537, projection_sequence(basis, ell, N)))
    assert min_poly_mult_x(basis, forms_rng, trials=3) == want
    assert forms_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("de", [5, 6])
def test_min_poly_runs_berlekamp_massey_once(de, monkeypatch):
    # generic instance: the first form's generator already annihilates the
    # other two sequences, so neither a second run nor an lcm is needed
    basis = _reduced_basis(F65537, (de, de, de, de), random.Random(74))
    forms_rng = random.Random(75)
    forms = [LinearForm.random(basis, forms_rng) for _ in range(3)]
    seqs = _power_projections(basis, forms, 4 * de * de)
    want = functools.reduce(plcm, (berlekamp_massey(F65537, s) for s in seqs), UPoly.one(F65537))
    calls = {"berlekamp_massey": 0, "plcm": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # min_poly_mult_x reaches both through upoly.common_generator
    for name in calls:
        monkeypatch.setattr(sylres.upoly, name, counted(name, getattr(sylres.upoly, name)))
    mu = min_poly_mult_x(basis, random.Random(75), trials=3)
    assert calls == {"berlekamp_massey": 1, "plcm": 0}
    assert mu == want
    if basis.d * basis.ny <= 64:  # the dense oracle's dimension gate
        assert mu == dense_minpoly_mult_x(basis)


def test_rejection_reasons_account_for_every_retry():
    basis = example2_basis(PrimeField(3))  # seed 3 needs a second attempt
    rep = last_invariant_factor(basis.a, basis.b, random.Random(3))
    assert rep.ok and rep.attempts >= 2
    # min_poly_mult_x is always monic, so no retry point follows it
    assert set(rep.rejections) == set(REJECTION_REASONS) == {
        "degree-drop",
        "sx-not-reduced",
        "sy-not-reduced",
        "sigma-too-large",
        "sigma-not-in-base",
    }
    assert sum(rep.rejections.values()) == rep.attempts - 1
    rep = last_invariant_factor(basis.a, basis.b, random.Random(3), InvariantOptions(max_attempts=1))
    assert rep.status == STATUS_FAILURE and rep.attempts == 1
    assert sum(rep.rejections.values()) == rep.attempts
    for seed in range(4):
        rep = last_invariant_factor(basis.a, basis.b, random.Random(seed))
        assert sum(rep.rejections.values()) == rep.attempts - (1 if rep.ok else 0)


def _reference_sequences(basis, forms, N):
    """The loop the recurrence replaced: N sequential normal forms
    f -> phi(x f) from phi(1), each applied to every form."""
    seqs = np.zeros((len(forms), N), dtype=np.int64)
    f = normal_form(basis, BiPoly.one(basis.ctx))
    for i in range(N):
        emb = embed(basis, f)
        seqs[:, i] = [ell.apply_embedded(emb) for ell in forms]
        f = normal_form(basis, f.mul_monomial(1, 0))
    return seqs


def _reference_min_poly(basis, rng, trials):
    forms = [LinearForm.random(basis, rng) for _ in range(max(trials, 1))]
    acc = UPoly.one(basis.ctx)
    for seq in _reference_sequences(basis, forms, 4 * basis.d * basis.e):
        acc = plcm(acc, berlekamp_massey(basis.ctx, seq))
    return acc


def _reduced_basis(ctx, shape, rng):
    """Random a, b of exact bidegrees (d_a, e_a), (d_b, e_b) with both
    Sylvester matrices column reduced."""
    da, ea, db, eb = shape
    for _ in range(200):
        basis = IdealBasis(BiPoly.random(ctx, da, ea, rng), BiPoly.random(ctx, db, eb, rng))
        if is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis)):
            return basis
    raise AssertionError(f"no column-reduced basis of shape {shape} over {ctx!r}")


_RECURRENCE_FIELDS = {
    # F_2 lifted as last_invariant_factor lifts it for d = e = 3
    "F2 lifted": _working_field(F2, int(np.ceil((12 * 9) ** 1.1))),
    "F4^2 (tower)": extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2)),
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F101^2 (no log table)": build_extension(101, 101**2, random.Random(4)),
    "F65537": F65537,
    "2^31-1": PrimeField(2**31 - 1),
}
# (d_a, e_a, d_b, e_b): equal and unequal column degrees, and generators of
# x-degree 0 and of y-degree 0
_RECURRENCE_SHAPES = [(2, 2, 2, 2), (3, 1, 1, 3), (1, 3, 3, 1), (0, 2, 2, 1), (2, 0, 1, 2)]


@pytest.mark.parametrize("shape", _RECURRENCE_SHAPES, ids=str)
@pytest.mark.parametrize("F", list(_RECURRENCE_FIELDS.values()), ids=list(_RECURRENCE_FIELDS))
def test_power_projections_match_reference_loop(F, shape):
    rng = random.Random(f"recurrence-{shape}")
    basis = _reduced_basis(F, shape, rng)
    forms = [LinearForm.random(basis, rng) for _ in range(2)]
    for N in sorted({0, 1, basis.d - 1, 4 * basis.d * basis.e}):
        want = _reference_sequences(basis, forms, N)
        for ell, row in zip(forms, want):
            assert projection_sequence(basis, ell, N) == row.tolist()
    new_rng, ref_rng = random.Random(5), random.Random(5)
    mu = min_poly_mult_x(basis, new_rng)
    assert mu == _reference_min_poly(basis, ref_rng, 3)
    assert new_rng.getstate() == ref_rng.getstate()
    assert mu == dense_minpoly_mult_x(basis)


def test_window_form_differs_from_ell_only_for_unequal_column_degrees():
    # phi fixes the window when the column degrees of S_y are equal, so
    # ell o phi = ell there; otherwise the recurrence needs ell o phi
    rng = random.Random(73)
    for shape, fixed in (((2, 2, 2, 2), True), ((3, 1, 1, 3), False)):
        basis = _reduced_basis(F65537, shape, rng)
        assert (len(set(build_Sy(basis).column_degrees)) == 1) is fixed
        ell = LinearForm.random(basis, rng)
        window = transposed_normal_form(basis, ell, basis.d - 1, basis.ny - 1)
        on_monomials = ell.coeffs.reshape(basis.ny, basis.d)[::-1].reshape(-1)  # i fastest
        assert np.array_equal(window, on_monomials) is fixed


# ---------------------------------------------------------------------------
# end to end: resultant_certified against the dense resultant

_F4 = build_extension(2, 4, random.Random(1))
E2E_FIELDS = {
    "F2": F2,  # lifted inside resultant_certified
    "F4^2 (tower)": extend_field(_F4, 16, random.Random(2)),
    "F(2^31-1)": PrimeField(2**31 - 1),
}


@given(
    name=st.sampled_from(sorted(E2E_FIELDS)),
    da=st.integers(0, 3),
    ea=st.integers(0, 3),
    db=st.integers(0, 3),
    eb=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="F2", da=2, ea=0, db=1, eb=0, seed=1)  # deg_y = 0: n_y = 0
@example(name="F(2^31-1)", da=3, ea=0, db=1, eb=2, seed=2)  # deg_y a = 0
@example(name="F4^2 (tower)", da=3, ea=2, db=1, eb=2, seed=3)  # unequal column degrees
@example(name="F2", da=1, ea=3, db=3, eb=1, seed=4)
def test_resultant_certified_matches_dense_resultant(name, da, ea, db, eb, seed):
    F, rng = E2E_FIELDS[name], random.Random(seed)
    a, b = BiPoly.random(F, da, ea, rng), BiPoly.random(F, db, eb, rng)
    res = dense_resultant(a, b)
    if not is_column_reduced(build_Sy(IdealBasis(a, b))):
        with pytest.raises(NotColumnReducedError):
            resultant_certified(a, b, rng)
        return
    rep = resultant_certified(a, b, rng)
    if rep.status == STATUS_CERTIFIED:
        assert rep.sigma.scale(rep.scale) == res
    elif rep.status != STATUS_FAILURE:  # sigma divides the last invariant factor
        assert not res.is_zero and res.rem(rep.sigma).is_zero
