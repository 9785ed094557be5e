import functools
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import sylres.normalform
import sylres.sylvester
import sylres.upoly
from sylres.bipoly import BiPoly, IdealBasis, bimul
from sylres.field import PrimeField, build_extension, extend_field, working_field
from sylres.invariant import (
    REJECTION_REASONS,
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
from sylres.normalform import (
    LinearForm,
    embed,
    normal_form,
    power_projections,
    reduce_ydeg,
    transposed_normal_form,
)
from sylres.oracle import dense_minpoly_mult_x, dense_resultant, dense_smith
from sylres.sylvester import NotColumnReducedError, build_Sx, build_Sy, build_Tx, dense_form, is_column_reduced
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


@pytest.mark.parametrize("opts", [{"trials": 0}, {"trials": -4}, {"max_attempts": 0}, {"max_attempts": -1}])
def test_invariant_options_below_one_rejected(opts):
    # trials = -4 used to give a probable sigma with report.trials == -4, and
    # max_attempts = 0 a failure after 0 attempts
    with pytest.raises(ValueError, match=next(iter(opts))):
        InvariantOptions(**opts)
    assert InvariantOptions(trials=1, max_attempts=1).trials == 1


@pytest.mark.parametrize("trials", [0, -4])
def test_min_poly_trials_below_one_rejected(trials):
    basis = IdealBasis(BiPoly.from_terms(F101, [(1, 0, 1), (100, 1, 0)]), BiPoly.y(F101))
    rng = random.Random(61)
    state = rng.getstate()
    with pytest.raises(ValueError, match="trials"):
        min_poly_mult_x(basis, rng, trials)
    assert rng.getstate() == state  # raised before any draw


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


_F8 = build_extension(2, 8, random.Random(5))
# (field, bidegrees (d_a, e_a, d_b, e_b) or None for Example 3, seed); the
# small fields are lifted by the driver, and d_a != d_b gives unequal
# column degrees of S_y
_SCALE_CASES = {
    "F7 example 3": (F7, None, 69),
    "F2^3": (_F8, (2, 1, 2, 2), 0),
    "F2^3 unequal x-degrees": (_F8, (3, 2, 1, 2), 1),
    "F65537 unequal x-degrees": (F65537, (3, 1, 1, 2), 2),
}


def _scale_case(name):
    F, shape, seed = _SCALE_CASES[name]
    if shape is None:
        return example3_polys(F), seed
    basis = _reduced_basis(F, shape, random.Random(seed))
    return (basis.a, basis.b), seed


@pytest.mark.parametrize("name", sorted(_SCALE_CASES))
def test_resultant_certified_draws_nothing_after_the_driver(name):
    # the scale is det of S_y's column-leading matrix, so certifying costs
    # no draws beyond last_invariant_factor's own
    (a, b), seed = _scale_case(name)
    rng, ref = random.Random(seed), random.Random(seed)
    rep = resultant_certified(a, b, rng)
    want = last_invariant_factor(a, b, ref)
    assert rep.status == STATUS_CERTIFIED and rep.sigma == want.sigma
    assert rng.getstate() == ref.getstate()
    assert rep.sigma.scale(rep.scale) == dense_resultant(a, b)


def test_lifted_resultant_builds_only_the_drivers_field(monkeypatch):
    import sylres.invariant as invmod

    calls = []

    def spy(ctx, min_card):
        calls.append(min_card)
        return working_field(ctx, min_card)

    monkeypatch.setattr(invmod, "working_field", spy)
    a, b = example3_polys()
    rep = resultant_certified(a, b, random.Random(69))
    assert rep.status == STATUS_CERTIFIED
    basis = IdealBasis(a, b)
    assert calls == [int(np.ceil((12 * basis.d * basis.e) ** 1.1))]


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
    F3, F5 = _CollidingPrimeField(3), _CollidingPrimeField(5)
    assert hash(F3) == hash(F5) and F3 != F5
    E3 = working_field(F3, 30)
    E5 = working_field(F5, 30)
    assert (E3.p, E5.p) == (3, 5)
    assert working_field(F3, 30) is E3


def _example3_basis(swap):
    # the F_7 fixture of the paper's Example 3: its y-leads share x + 3, so
    # S_x is not column reduced and S_y is; swapping x and y swaps the roles
    a = [(1, 1, 1), (3, 0, 1), (1, 2, 0), (5, 1, 0), (5, 0, 0)]
    b = [(1, 2, 1), (5, 0, 1), (1, 2, 0), (4, 1, 0), (2, 0, 0)]
    if swap:
        a, b = ([(c, j, i) for c, i, j in terms] for terms in (a, b))
    return IdealBasis(BiPoly.from_terms(F7, a), BiPoly.from_terms(F7, b))


@pytest.mark.parametrize("bad, swap", [("S_x", False), ("S_y", True)])
def test_every_entry_point_names_the_one_unreduced_matrix(bad, swap):
    basis = _example3_basis(swap)
    assert is_column_reduced(build_Sx(basis)) == (bad != "S_x")
    assert is_column_reduced(build_Sy(basis)) == (bad != "S_y")
    f = BiPoly.random(F7, 2 * basis.d, 2 * basis.ny, random.Random(80))
    ell = LinearForm(basis, np.ones(basis.d * basis.ny, dtype=np.int64))
    calls = {
        "normal_form": lambda: normal_form(basis, f),
        "transposed_normal_form": lambda: transposed_normal_form(basis, ell, 3, 3),
        "projection_sequence": lambda: projection_sequence(basis, ell, 5),
        "min_poly_mult_x": lambda: min_poly_mult_x(basis, random.Random(81)),
        "dense_minpoly_mult_x": lambda: dense_minpoly_mult_x(basis),
    }
    # the y-reduction needs S_x only
    x_only = {
        "reduce_ydeg": lambda: reduce_ydeg(basis, f),
        "build_Tx": lambda: build_Tx(basis, 2 * basis.nx),
    }
    if bad == "S_x":
        calls.update(x_only)
    else:
        for call in x_only.values():
            call()
    for name, call in calls.items():
        try:
            call()
        except NotColumnReducedError as exc:
            assert str(exc) == f"{bad} is not column reduced", name
        else:
            pytest.fail(f"{name} did not raise")


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
    seqs = power_projections(basis, forms, 4 * de * de)
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
    "F2 lifted": working_field(F2, int(np.ceil((12 * 9) ** 1.1))),
    "F4^2 (tower)": extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2)),
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F101^2 (no log table)": build_extension(101, 101**2, random.Random(4)),
    "F65537": F65537,
    "2^31-1": PrimeField(2**31 - 1),
}
# (d_a, e_a, d_b, e_b): equal and unequal column degrees (either block the
# high one, up to delta = d), and generators of x-degree 0 and of y-degree 0
_RECURRENCE_SHAPES = [
    (2, 2, 2, 2),
    (3, 1, 1, 3),
    (1, 3, 3, 1),
    (0, 2, 2, 1),
    (2, 0, 1, 2),
    (4, 3, 1, 2),
    (1, 2, 4, 3),
    (0, 1, 3, 2),
    (3, 2, 0, 2),
]


@pytest.mark.parametrize("leaf", [1, None])
@pytest.mark.parametrize("shape", _RECURRENCE_SHAPES, ids=str)
@pytest.mark.parametrize("F", list(_RECURRENCE_FIELDS.values()), ids=list(_RECURRENCE_FIELDS))
def test_x_power_forms_match_per_monomial_normal_forms(F, shape, leaf, monkeypatch):
    # the d n_y coordinate forms read every phi(x^i), i <= 2d, whole off the
    # projections, against the normal form of each x^i on its own; leaf = 1
    # halves the solve down to base solves, None keeps the module's rule
    basis = _reduced_basis(F, shape, random.Random(f"division-{shape}"))
    d, ny = basis.d, basis.ny
    want = [embed(basis, normal_form(basis, BiPoly.monomial(F, i, 0))) for i in range(2 * d + 1)]
    if leaf is not None:
        monkeypatch.setattr(sylres.sylvester, "ONE_LEAF_MAP_MAX", -1)
        monkeypatch.setattr(sylres.sylvester, "LEAF_INNER_MAX", leaf * ny)
    forms = [LinearForm(basis, row) for row in np.eye(d * ny, dtype=np.int64)]
    assert np.array_equal(power_projections(basis, forms, 2 * d + 1), np.stack(want, axis=1))


@pytest.mark.parametrize(
    "shape", [(1, 1, 1, 1), (3, 1, 1, 3), (2, 4, 5, 3), (6, 6, 6, 6), (4, 3, 1, 2), (0, 1, 3, 2)], ids=str
)
def test_power_projections_make_one_solve_and_no_normal_form(shape, monkeypatch):
    # a projection run divides nothing and transposes nothing: its one leaf
    # map is a forward one, on S_y's reversed matrix, for its one solve
    basis = _reduced_basis(F65537, shape, random.Random(f"one-solve-{shape}"))
    programs, built = [], []
    for cls in (sylres.normalform.NormalFormProgram, sylres.normalform._DivisionProgram):
        init = cls.__init__

        def recording(self, *args, init=init):
            programs.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", recording)
    build = sylres.sylvester._leaf_map

    def record_map(S, transposed, k):
        built.append((S, transposed))
        return build(S, transposed, k)

    monkeypatch.setattr(sylres.sylvester, "_leaf_map", record_map)
    forms = [LinearForm.random(basis, random.Random(76)) for _ in range(3)]
    power_projections(basis, forms, 4 * basis.d * basis.e)
    assert programs == []
    assert built == [(build_Sy(basis).reversed_matrix(), False)]


@pytest.mark.parametrize("shape", _RECURRENCE_SHAPES, ids=str)
@pytest.mark.parametrize("F", list(_RECURRENCE_FIELDS.values()), ids=list(_RECURRENCE_FIELDS))
def test_power_projections_match_reference_loop(F, shape, monkeypatch):
    # the solve's leaf width in three regimes: halved down to 2 columns,
    # the LEAF_INNER_MAX // n cap alone, and the whole window as one leaf
    rng = random.Random(f"recurrence-{shape}")
    basis = _reduced_basis(F, shape, rng)
    forms = [LinearForm.random(basis, rng) for _ in range(2)]
    lengths = sorted({0, 1, basis.d - 1, 4 * basis.d * basis.e})
    want = {N: _reference_sequences(basis, forms, N) for N in lengths}
    ref_rng = random.Random(5)
    want_mu = _reference_min_poly(basis, ref_rng, 3)
    assert want_mu == dense_minpoly_mult_x(basis)
    for one_leaf_max, inner_max in ((-1, 2 * basis.ny), (-1, None), (None, 1 << 40)):
        monkeypatch.undo()
        if inner_max == 2 * basis.ny:  # and both products one column at a time
            monkeypatch.setattr(sylres.upoly, "_BLOCK_WORK", 1)
        if one_leaf_max is not None:
            monkeypatch.setattr(sylres.sylvester, "ONE_LEAF_MAP_MAX", one_leaf_max)
        if inner_max is not None:
            monkeypatch.setattr(sylres.sylvester, "LEAF_INNER_MAX", inner_max)
        for N in lengths:
            for ell, row in zip(forms, want[N]):
                assert projection_sequence(basis, ell, N) == row.tolist(), (inner_max, N)
        new_rng = random.Random(5)
        assert min_poly_mult_x(basis, new_rng) == want_mu
        assert new_rng.getstate() == ref_rng.getstate()


def _check_projection_blocks(F, monkeypatch):
    # both products go through upoly.block_dot, so no call of either
    # exceeds _BLOCK_WORK multiply-adds
    rng = random.Random(80)
    basis = _reduced_basis(F, (3, 3, 3, 3), rng)
    forms = [LinearForm.random(basis, rng) for _ in range(3)]
    N = 4 * basis.d * basis.e
    want = _reference_sequences(basis, forms, N)
    rows, work = len(forms) * basis.d, []
    dot_map = F.dot_map

    def recording(A):
        apply = dot_map(A)

        def counted(x):
            if len(A) == rows:
                work.append(A.size * (x.shape[1] if x.ndim == 2 else 1))
            return apply(x)

        return counted

    monkeypatch.setattr(F, "dot_map", recording)
    monkeypatch.setattr(sylres.upoly, "_BLOCK_WORK", 4 * rows * basis.ny)
    assert np.array_equal(power_projections(basis, forms, N), want)
    assert len(work) > 2 and max(work) <= sylres.upoly._BLOCK_WORK


def test_power_projection_products_apply_in_column_blocks(monkeypatch):
    # over a characteristic-2 log-table field dot_map is vsum of vmul, which
    # holds rows x columns x K codes at once
    F = build_extension(2, 2**13, random.Random(6))
    assert F.q == 2**13 and F._exp is not None
    _check_projection_blocks(F, monkeypatch)


def test_power_projection_products_apply_in_column_blocks_on_digit_planes(monkeypatch):
    # over an odd-characteristic log-table field dot_map holds k float64
    # digit planes of A and k^2 digit-pair products per output
    F = build_extension(7, 7**4, random.Random(6))
    assert F.q == 7**4 and F._exp is not None
    _check_projection_blocks(F, monkeypatch)


def test_projection_sequence_rejects_a_negative_length():
    basis = _reduced_basis(F65537, (2, 2, 2, 2), random.Random(78))
    ell = LinearForm.random(basis, random.Random(79))
    assert projection_sequence(basis, ell, 0) == []
    with pytest.raises(ValueError, match="N must be at least 0, got -1"):
        projection_sequence(basis, ell, -1)


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
    "F2^3": _F8,  # a lifted extension base: the scale is read in F_8
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
@example(name="F2^3", da=3, ea=2, db=1, eb=2, seed=0)  # unequal x-degrees, certified
@example(name="F2^3", da=2, ea=1, db=1, eb=2, seed=2)
@example(name="F(2^31-1)", da=3, ea=1, db=1, eb=2, seed=5)
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
