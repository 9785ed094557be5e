import random

import numpy as np
import pytest

from sylres import kucompose
from sylres.bipoly import BiPoly
from sylres.field import PrimeField, build_extension
from sylres.kucompose import (
    FieldTooSmallError,
    KUParams,
    compose_rem,
    grid_eval,
    grid_interp,
    inv_kronecker,
    kronecker_restore,
    mv_multipoint_eval,
    power_tower,
)
from sylres.normalform import mul_mod, normal_form
from sylres.upoly import UPoly, multipoint_eval

from test_sylvester import example2_basis, random_basis

F101 = PrimeField(101)
F65537 = PrimeField(65537)


def test_params_validation():
    p = KUParams.choose(100)
    assert 2 <= p.d_eps < 100 and p.d_eps**p.l >= 100
    with pytest.raises(ValueError):
        KUParams.choose(10, d_eps=1)
    with pytest.raises(ValueError):
        KUParams.choose(10, d_eps=10)


def test_inv_kronecker_fixture():
    params = KUParams(d_eps=2, delta=8, l=3)
    f = UPoly.monomial(F101, 5)  # x^5, digits (1, 0, 1)
    grid = inv_kronecker(f, params)
    want = np.zeros((2, 2, 2), dtype=np.int64)
    want[1, 0, 1] = 1
    assert np.array_equal(grid, want)
    c = UPoly.const(F101, 42)
    g2 = inv_kronecker(c, params)
    assert g2[0, 0, 0] == 42 and g2.sum() == 42


def test_inv_kronecker_roundtrip():
    rng = random.Random(30)
    for d_eps in (2, 3, 4):
        params = KUParams.choose(50, d_eps=d_eps)
        f = UPoly.random(F65537, rng.randrange(0, 50), rng)
        grid = inv_kronecker(f, params)
        assert kronecker_restore(F65537, grid, params) == f


def test_power_tower():
    rng = random.Random(31)
    basis = example2_basis()
    params = KUParams.choose(16, d_eps=2)
    chis = power_tower(basis, params)
    assert chis[0] == normal_form(basis, BiPoly.x(F101))
    assert chis[0] == BiPoly.from_terms(F101, [(100, 1, 2)])  # phi(x) = -x y^2
    for i in range(len(chis) - 1):
        # power_tower runs pow_mod, so the reference is repeated mul_mod
        want = chis[i]
        for _ in range(params.d_eps - 1):
            want = mul_mod(basis, want, chis[i])
        assert chis[i + 1] == want
    for _ in range(5):
        b2 = random_basis(F65537, 3, 3, rng)
        chis = power_tower(b2, KUParams.choose(30, d_eps=3))
        for i, chi in enumerate(chis):
            k = 3**i
            assert chi == normal_form(b2, BiPoly.monomial(F65537, k, 0))


def test_grid_eval_and_interp():
    rng = random.Random(32)
    for _ in range(10):
        g = BiPoly.random(F65537, rng.randrange(0, 6), rng.randrange(0, 6), rng)
        K1 = np.arange(g.deg_x + 1 + rng.randrange(0, 3), dtype=np.int64)
        K2 = np.arange(g.deg_y + 1 + rng.randrange(0, 3), dtype=np.int64)
        vals = grid_eval(F65537, [g], K1, K2)[0]
        for j in (0, len(K1) - 1):
            for k in (0, len(K2) - 1):
                assert int(vals[j, k]) == g.eval_xy(int(K1[j]), int(K2[k]))
        assert grid_interp(F65537, vals, K1, K2) == g
    z = grid_eval(F65537, [BiPoly.zero(F65537)], np.arange(3), np.arange(4))
    assert not z.any()


def test_grid_interp_on_unequal_scattered_grids():
    rng = random.Random(39)
    F7_3 = build_extension(7, 343, random.Random(3))
    for F, n1, n2 in ((F65537, 7, 4), (F65537, 3, 11), (F65537, 1, 5), (F7_3, 6, 9)):
        g = BiPoly.random(F, n1 - 1, n2 - 1, rng)
        K1 = np.array(rng.sample(range(F.q), n1), dtype=np.int64)
        K2 = np.array(rng.sample(range(F.q), n2), dtype=np.int64)
        vals = grid_eval(F, [g], K1, K2)[0]
        assert vals.shape == (n1, n2)
        assert int(vals[-1, 0]) == g.eval_xy(int(K1[-1]), int(K2[0]))
        assert grid_interp(F, vals, K1, K2) == g


def _mv_eval_per_point(F, grid, pts):
    out = []
    for r in range(len(pts)):
        want = 0
        for idx in np.ndindex(grid.shape):
            term = int(grid[idx])
            for ax, k in enumerate(idx):
                term = F.mul(term, F.pow_(int(pts[r, ax]), k))
            want = F.add(want, term)
        out.append(want)
    return out


def test_mv_multipoint_eval_in_chunks(monkeypatch):
    rng = random.Random(40)
    grid = F101.rand_array(rng, 18).reshape(3, 2, 3)
    pts = F101.rand_array(rng, 3 * 23).reshape(23, 3)
    want = _mv_eval_per_point(F101, grid, pts)
    assert mv_multipoint_eval(F101, grid, pts).tolist() == want
    horner = kucompose._nested_horner
    sizes = []

    def recording(ctx, g, chunk):
        sizes.append(len(chunk))
        return horner(ctx, g, chunk)

    monkeypatch.setattr(kucompose, "_nested_horner", recording)
    # chunks of 5 and of 4 points (each with a ragged last chunk), of single
    # points, and one chunk holding every point
    cases = {5 * 18 + 17: [5] * 4 + [3], 1: [1] * 23, 4 * 18: [4] * 5 + [3], 23 * 18: [23]}
    for entries, chunks in cases.items():
        monkeypatch.setattr(kucompose, "_MV_CHUNK_ENTRIES", entries)
        sizes.clear()
        assert mv_multipoint_eval(F101, grid, pts).tolist() == want
        assert sizes == chunks
    assert mv_multipoint_eval(F101, grid, pts[:0]).shape == (0,)


def test_mv_multipoint_eval():
    rng = random.Random(33)
    # all-zeros point gives the constant coefficient
    grid = np.arange(27, dtype=np.int64).reshape(3, 3, 3) % 101
    pts = np.zeros((1, 3), dtype=np.int64)
    assert mv_multipoint_eval(F101, grid, pts)[0] == grid[0, 0, 0]
    # single-variable grid matches univariate evaluation
    g1 = np.array([3, 1, 4, 1, 5], dtype=np.int64)
    pts1 = np.arange(7, dtype=np.int64)[:, None]
    got = mv_multipoint_eval(F101, g1, pts1)
    assert np.array_equal(got, multipoint_eval(UPoly(F101, g1), np.arange(7)))
    # independent per-monomial summation oracle, l = 3, d_eps = 3
    for _ in range(5):
        grid = F101.rand_array(rng, 27).reshape(3, 3, 3)
        pts = F101.rand_array(rng, 12).reshape(4, 3)
        got = mv_multipoint_eval(F101, grid, pts)
        assert got.tolist() == _mv_eval_per_point(F101, grid, pts)


def test_compose_rem_trivial():
    basis = random_basis(F65537, 3, 3, random.Random(34))
    x = UPoly.x(F65537)
    params = KUParams.choose(4 * basis.d * basis.e, d_eps=2)
    assert compose_rem(basis, x, params) == normal_form(basis, BiPoly.x(F65537))
    one = UPoly.one(F65537)
    assert compose_rem(basis, one, params) == normal_form(basis, BiPoly.one(F65537))


def test_compose_rem_matches_normal_form():
    rng = random.Random(35)
    for trial in range(15):
        basis = random_basis(F65537, 4, 4, rng)
        bound = 4 * basis.d * basis.e
        d_eps = (2, 3, 4)[trial % 3]
        f = UPoly.random(F65537, rng.randrange(1, bound), rng)
        params = KUParams.choose(bound, d_eps=d_eps)
        got = compose_rem(basis, f, params)
        want = normal_form(basis, BiPoly.from_upoly(f, "x"))
        assert got == want


def test_compose_rem_over_extension_field():
    from sylres.field import build_extension

    rng = random.Random(38)
    F256 = build_extension(2, 256, rng)
    basis = random_basis(F256, 2, 2, rng)
    f = UPoly.random(F256, 14, rng)
    got = compose_rem(basis, f, KUParams.choose(16, d_eps=2))
    assert got == normal_form(basis, BiPoly.from_upoly(f, "x"))


def test_compose_rem_field_too_small():
    basis = random_basis(PrimeField(11), 3, 3, random.Random(36))
    f = UPoly.random(PrimeField(11), 20, random.Random(37))
    with pytest.raises(FieldTooSmallError) as err:
        compose_rem(basis, f, KUParams.choose(100, d_eps=2))
    assert "need more than" in str(err.value)
