import random

import numpy as np
import pytest

from sylres.bipoly import BiPoly, IdealBasis, bimul, vec_y
from sylres.field import PrimeField
from sylres.normalform import (
    LinearForm,
    NormalFormProgram,
    embed,
    matrix_divrem,
    mul_mod,
    normal_form,
    reduce_ydeg,
    transposed_normal_form,
    unembed,
)
from sylres.sylvester import NotColumnReducedError, build_Sy, build_Sx, matvec
from sylres.upoly import UPoly

from test_sylvester import example1_basis, example2_basis, random_basis

F101 = PrimeField(101)
F65537 = PrimeField(65537)


def bp(ctx, terms):
    return BiPoly.from_terms(ctx, terms)


def test_matrix_divrem_example2():
    basis = example2_basis()
    Sy = build_Sy(basis)
    v = vec_y(BiPoly.x(F101), 3)
    w, vhat = matrix_divrem(Sy, v)
    assert w == [UPoly.zero(F101), UPoly.zero(F101), UPoly.one(F101)]
    assert vhat == [UPoly(F101, [0, 100]), UPoly.zero(F101), UPoly.zero(F101)]


def test_matrix_divrem_small_degree_passthrough():
    rng = random.Random(20)
    for _ in range(10):
        basis = random_basis(F101, 3, 3, rng)
        Sy = build_Sy(basis)
        dmin = min(Sy.c1, Sy.c2)
        if dmin == 0:
            continue
        v = [UPoly.random(F101, rng.randrange(-1, dmin), rng) for _ in range(Sy.n)]
        w, vhat = matrix_divrem(Sy, v)
        assert all(e.is_zero for e in w)
        assert vhat == v


def test_matrix_divrem_identity_replay_and_uniqueness():
    rng = random.Random(21)
    for _ in range(40):
        basis = random_basis(F65537, 4, 4, rng)
        S = build_Sy(basis) if rng.random() < 0.5 else build_Sx(basis)
        v = [UPoly.random(F65537, rng.randrange(-1, 9), rng) for _ in range(S.n)]
        w, vhat = matrix_divrem(S, v)
        Sw = matvec(S, w)
        for i in range(S.n):
            assert Sw[i] + vhat[i] == v[i]
            assert vhat[i].deg < S.degree
        w2, vhat2 = matrix_divrem(S, vhat)
        assert all(e.is_zero for e in w2)
        assert vhat2 == vhat


def test_matrix_divrem_rejects_unreduced():
    Sx = build_Sx(example1_basis())
    with pytest.raises(NotColumnReducedError):
        matrix_divrem(Sx, [UPoly.zero(PrimeField(2))] * Sx.n)


def test_reduce_ydeg_worked_example():
    basis = example2_basis()
    f = bp(F101, [(1, 0, 3), (1, 3, 2), (1, 0, 0)])  # y^3 + x^3 y^2 + 1
    fp = reduce_ydeg(basis, f)
    assert fp == bp(F101, [(100, 3, 0), (1, 2, 1), (1, 0, 0)])  # -x^3 + x^2 y + 1
    g = bp(F101, [(5, 2, 0), (1, 0, 0)])
    assert reduce_ydeg(basis, g) == g  # deg_y 0: unchanged


def test_reduce_ydeg_membership_witness():
    rng = random.Random(22)
    basis = example2_basis()
    for f in (basis.a, bp(F101, [(3, 4, 5), (7, 1, 3), (2, 0, 0)])):
        fp, Tx, w = reduce_ydeg(basis, f, with_witness=True)
        if Tx is None:
            continue
        from sylres.bipoly import vec_x

        v = vec_x(f, Tx.n)
        Sw = matvec(Tx, w)
        for i in range(Tx.n):
            assert Sw[i] + vec_x(fp, Tx.n)[i] == v[i]
        assert fp.deg_y < basis.e
        assert fp.deg_x <= max(basis.nx - 1, f.deg_x)


def test_normal_form_worked_example():
    basis = example2_basis()
    f = bp(F101, [(1, 0, 3), (1, 3, 2), (1, 0, 0)])
    nf = normal_form(basis, f)
    assert nf == bp(F101, [(100, 1, 2), (100, 0, 1), (1, 0, 0)])  # -xy^2 - y + 1
    assert normal_form(basis, BiPoly.x(F101)) == bp(F101, [(100, 1, 2)])  # -x y^2
    assert normal_form(basis, basis.a).is_zero
    assert normal_form(basis, BiPoly.zero(F101)).is_zero


def test_normal_form_requires_reducedness():
    basis = example1_basis()
    with pytest.raises(NotColumnReducedError):
        normal_form(basis, BiPoly.one(PrimeField(2)))


def test_normal_form_properties():
    rng = random.Random(23)
    for _ in range(30):
        basis = random_basis(F65537, 4, 4, rng)
        f = BiPoly.random(F65537, rng.randrange(0, 7), rng.randrange(0, 7), rng)
        g = BiPoly.random(F65537, rng.randrange(0, 7), rng.randrange(0, 7), rng)
        lam = F65537.sample(rng)
        nf = normal_form(basis, f)
        # degree bounds and idempotence
        assert nf.deg_x < basis.d and nf.deg_y < basis.ny
        assert normal_form(basis, nf) == nf
        # linearity
        assert normal_form(basis, f.scale(lam) + g) == nf.scale(lam) + normal_form(basis, g)
        # coset invariance: phi(f + u a + t b) = phi(f)
        u = BiPoly.random(F65537, rng.randrange(0, 4), rng.randrange(0, 4), rng)
        t = BiPoly.random(F65537, rng.randrange(0, 4), rng.randrange(0, 4), rng)
        shifted = f + bimul(u, basis.a) + bimul(t, basis.b)
        assert normal_form(basis, shifted) == nf


def test_mul_mod():
    rng = random.Random(24)
    basis = example2_basis()
    f = bp(F101, [(3, 1, 2), (4, 0, 1)])
    assert mul_mod(basis, f, BiPoly.one(F101)) == normal_form(basis, f)
    for _ in range(10):
        b2 = random_basis(F65537, 3, 3, rng)
        x = BiPoly.x(F65537)
        acc = normal_form(b2, BiPoly.one(F65537))
        for k in range(1, 12):
            acc = mul_mod(b2, x, acc)
            assert acc == normal_form(b2, BiPoly.monomial(F65537, k, 0))
        f = BiPoly.random(F65537, 3, 3, rng)
        g = BiPoly.random(F65537, 3, 3, rng)
        assert mul_mod(b2, f, g) == mul_mod(b2, g, f)


def test_program_forward_matches_normal_form():
    rng = random.Random(25)
    for _ in range(20):
        basis = random_basis(F65537, 3, 3, rng)
        delta = rng.randrange(0, 7)
        eta = rng.randrange(0, 7)
        prog = NormalFormProgram(basis, delta, eta)
        for _ in range(3):
            f = BiPoly.random(F65537, rng.randrange(0, delta + 1), rng.randrange(0, eta + 1), rng)
            assert prog.forward(f) == normal_form(basis, f)


def test_transposed_normal_form_duality():
    rng = random.Random(26)
    checked = 0
    for _ in range(100):
        basis = random_basis(F65537, 3, 3, rng)
        delta = rng.randrange(0, 7)
        eta = rng.randrange(0, 7)
        ell = LinearForm.random(basis, rng)
        proj = transposed_normal_form(basis, ell, delta, eta)
        f = BiPoly.random(F65537, rng.randrange(0, delta + 1), rng.randrange(0, eta + 1), rng)
        # <phi^T(ell), f> = ell(phi(f))
        lhs = 0
        for j in range(eta + 1):
            for i in range(delta + 1):
                lhs = F65537.add(lhs, F65537.mul(int(proj[j * (delta + 1) + i]), f.coeff(i, j)))
        rhs = ell.apply(normal_form(basis, f))
        assert lhs == rhs
        checked += 1
    assert checked == 100


def test_transposed_normal_form_fixtures():
    rng = random.Random(27)
    basis = example2_basis()
    ell = LinearForm.random(basis, rng)
    single = transposed_normal_form(basis, ell, 0, 0)
    assert len(single) == 1
    assert int(single[0]) == ell.apply(normal_form(basis, BiPoly.one(F101)))
    # coordinate form on x^0 y^0: entry (1, 0) is the x^0y^0-coefficient of phi(x)
    coord = LinearForm.coordinate(basis, 0, 0)
    proj = transposed_normal_form(basis, coord, 2, 1)
    assert int(proj[0 * 3 + 1]) == 0  # phi(x) = -x y^2 has no constant term
    # cross-check every entry against direct phi evaluation
    for j in range(2):
        for i in range(3):
            want = coord.apply(normal_form(basis, BiPoly.monomial(F101, i, j)))
            assert int(proj[j * 3 + i]) == want


def test_embed_unembed_roundtrip():
    rng = random.Random(28)
    basis = example2_basis()
    for _ in range(10):
        f = BiPoly.random(F101, basis.d - 1, basis.ny - 1, rng)
        assert unembed(basis, embed(basis, f)) == f


def test_apply_embedded_matches_scalar_loop():
    from sylres.field import build_extension

    fields = [
        PrimeField(2),
        build_extension(7, 343, random.Random(4)),
        PrimeField(2**31 - 1),
        F65537,
    ]
    rng = random.Random(28)
    for ctx in fields:
        for d, e in ((1, 1), (2, 3), (3, 4), (5, 5)):
            a = BiPoly.random(ctx, d, e, rng)
            b = BiPoly.random(ctx, d, e, rng)
            basis = IdealBasis(a, b)
            ell = LinearForm.random(basis, rng)
            emb = ctx.rand_array(rng, basis.d * basis.ny)
            acc = 0
            for v in ctx.vmul(ell.coeffs, emb):
                acc = ctx.add(acc, int(v))
            assert ell.apply_embedded(emb) == acc
