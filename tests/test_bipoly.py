import random

import numpy as np
import pytest

from sylres.bipoly import BiPoly, IdealBasis, bimul, unvec_y, vec_x, vec_y
from sylres.field import PrimeField
from sylres.upoly import UPoly

F101 = PrimeField(101)
F65537 = PrimeField(65537)


def test_bimul_fixtures():
    x = BiPoly.x(F101)
    y = BiPoly.y(F101)
    got = bimul(x + y, x - y)
    want = BiPoly.from_terms(F101, [(1, 2, 0), (100, 0, 2)])  # x^2 - y^2
    assert got == want
    f = BiPoly.random(F101, 3, 2, random.Random(0))
    assert bimul(f, BiPoly.one(F101)) == f


@pytest.mark.parametrize("dx, dy", [(2, -1), (-1, 2), (-1, -1)])
def test_random_negative_degree_is_zero(dx, dy):
    # as UPoly.random: a negative degree asks for the zero polynomial
    f = BiPoly.random(F101, dx, dy, random.Random(1))
    assert f.is_zero and f == BiPoly.zero(F101)


def test_bimul_matches_double_loop():
    rng = random.Random(1)
    for _ in range(25):
        f = BiPoly.random(F65537, rng.randrange(0, 9), rng.randrange(0, 9), rng)
        g = BiPoly.random(F65537, rng.randrange(0, 9), rng.randrange(0, 9), rng)
        got = bimul(f, g)
        want = np.zeros((f.deg_x + g.deg_x + 1, f.deg_y + g.deg_y + 1), dtype=object)
        for i in range(f.deg_x + 1):
            for j in range(f.deg_y + 1):
                for k in range(g.deg_x + 1):
                    for l in range(g.deg_y + 1):
                        want[i + k, j + l] += f.coeff(i, j) * g.coeff(k, l)
        want = np.vectorize(lambda v: int(v) % 65537)(want).astype(np.int64)
        assert np.array_equal(got.padded(*want.shape), want)


def test_bimul_ring_laws():
    rng = random.Random(2)
    for _ in range(10):
        f, g, h = (BiPoly.random(F101, 3, 3, rng) for _ in range(3))
        assert bimul(f, g) == bimul(g, f)
        assert bimul(bimul(f, g), h) == bimul(f, bimul(g, h))
        assert bimul(f, g + h) == bimul(f, g) + bimul(f, h)


def test_vec_y_stacking_convention():
    # f = x with n = 3 -> (0, 0, x)^T
    f = BiPoly.x(F101)
    v = vec_y(f, 3)
    assert v[0].is_zero and v[1].is_zero
    assert v[2] == UPoly.x(F101)


def test_vec_unvec_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        f = BiPoly.random(F101, rng.randrange(0, 6), rng.randrange(0, 6), rng)
        n = f.deg_y + 1 + rng.randrange(0, 3)
        assert unvec_y(vec_y(f, n)) == f
    z = BiPoly.zero(F101)
    assert all(e.is_zero for e in vec_y(z, 4))
    assert unvec_y(vec_y(z, 4)) == z
    with pytest.raises(ValueError):
        vec_y(BiPoly.y(F101), 1)


def test_vec_x():
    f = BiPoly.from_terms(F101, [(1, 2, 1), (1, 0, 1)])  # x^2 y + y
    v = vec_x(f, 4)
    assert v[0].is_zero
    assert v[1] == UPoly.y(F101) if hasattr(UPoly, "y") else v[1] == UPoly(F101, [0, 1])
    assert v[2].is_zero
    assert v[3] == UPoly(F101, [0, 1])


def test_shift_and_rev():
    rng = random.Random(4)
    f = BiPoly.random(F101, 4, 3, rng)
    a = F101.sample(rng)
    assert f.subs_shift("y", a).subs_shift("y", F101.neg(a)) == f
    assert f.subs_shift("x", a).subs_shift("x", F101.neg(a)) == f
    x0, y0 = F101.sample(rng), F101.sample(rng)
    assert f.subs_shift("x", a).eval_xy(x0, y0) == f.eval_xy(F101.add(x0, a), y0)
    g = f.rev("x", 4).rev("x", 4)
    assert g == f or f.upoly_coeff("x", 0).is_zero


def test_ideal_basis_caches():
    a = BiPoly.from_terms(F101, [(1, 2, 1), (1, 0, 1)])  # x^2 y + y
    b = BiPoly.from_terms(F101, [(1, 1, 2), (1, 1, 0)])  # x y^2 + x
    basis = IdealBasis(a, b)
    assert (basis.da, basis.db, basis.ea, basis.eb) == (2, 1, 1, 2)
    assert basis.d == 2 and basis.e == 2
    assert basis.nx == 3 and basis.ny == 3
    with pytest.raises(ValueError):
        IdealBasis(a, BiPoly.zero(F101))
