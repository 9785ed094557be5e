"""Differential properties of the array-backed division stack.

The public list adapters (matvec, matvec_T, matrix_divrem, trunc_inv_apply,
trunc_inv_apply_T) are checked against products with the explicit matrix
from dense_form, SylvMat.at against the constant matrix of the shifted
generators, and normal_form against its defining properties, over
characteristic 2, a towered extension, F_{7^3}, F_65537 and p = 2^31 - 1,
with degree-0 generators and unequal column degrees in the draw.
"""

import random

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from sylres._dense import SingularMatrixError
from sylres.bipoly import BiPoly, IdealBasis, bimul
from sylres.field import PrimeField, build_extension, extend_field
from sylres.normalform import NormalFormProgram, matrix_divrem, normal_form
from sylres.sylvester import (
    SylvMat,
    build_Sx,
    build_Sy,
    dense_form,
    is_column_reduced,
    matvec,
    matvec_T,
    trunc_inv_apply,
    trunc_inv_apply_T,
)
from sylres.upoly import UPoly

_F4 = build_extension(2, 4, random.Random(1))
FIELDS = {
    "F2": PrimeField(2),
    "F4^2 (tower)": extend_field(_F4, 16, random.Random(2)),
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F65537": PrimeField(65537),
    "F(2^31-1)": PrimeField(2**31 - 1),
}

fields = st.sampled_from(sorted(FIELDS))
seeds = st.integers(0, 2**32 - 1)
degrees = st.tuples(*[st.integers(0, 3)] * 4)


def _sylvmat(ctx, wrt, degs, rng, accept=lambda S: True, tries=20):
    """A random S with generator bidegrees degs, or None if no draw is
    accepted (or the dimension is zero)."""
    for _ in range(tries):
        g1 = BiPoly.random(ctx, degs[0], degs[1], rng)
        g2 = BiPoly.random(ctx, degs[2], degs[3], rng)
        S = SylvMat(wrt, g1, g2)
        if S.n and accept(S):
            return S
    return None


def _vector(ctx, n, width, rng):
    return [UPoly.random(ctx, rng.randrange(-1, width), rng) for _ in range(n)]


def _dense_apply(S, w):
    D = dense_form(S)
    zero = UPoly.zero(S.ctx)
    out = []
    for row in D:
        acc = zero
        for entry, wj in zip(row, w):
            acc = acc + entry * wj
        out.append(acc)
    return out


def _pair(ctx, u, v, width):
    """sum_i sum_{m < width} u_i[m] v_i[m]."""
    acc = 0
    for a, b in zip(u, v):
        for m in range(width):
            acc = ctx.add(acc, ctx.mul(a.coeff(m), b.coeff(m)))
    return acc


def _nonsingular(S):
    try:
        trunc_inv_apply(S, [UPoly.zero(S.ctx)] * S.n, 1)
    except SingularMatrixError:
        return False
    return True


@given(fields, st.sampled_from("xy"), degrees, seeds)
def test_matvec_and_transpose_against_dense(name, wrt, degs, seed):
    ctx, rng = FIELDS[name], random.Random(seed)
    S = _sylvmat(ctx, wrt, degs, rng)
    assume(S is not None)
    din = rng.randrange(1, 5)
    w = _vector(ctx, S.n, din, rng)
    Sw = matvec(S, w)
    assert Sw == _dense_apply(S, w)
    dout = S.degree + din
    ell = _vector(ctx, S.n, dout, rng)
    assert _pair(ctx, ell, Sw, dout) == _pair(ctx, matvec_T(S, ell, din), w, din)


@given(fields, st.sampled_from("xy"), degrees, seeds)
def test_matrix_divrem_against_dense(name, wrt, degs, seed):
    ctx, rng = FIELDS[name], random.Random(seed)
    S = _sylvmat(ctx, wrt, degs, rng, is_column_reduced)
    assume(S is not None)
    v = _vector(ctx, S.n, S.degree + rng.randrange(0, 6), rng)
    w, vhat = matrix_divrem(S, v)
    Sw = _dense_apply(S, w)
    assert [a + b for a, b in zip(Sw, vhat)] == v
    assert all(e.deg < S.degree for e in vhat)
    w2, vhat2 = matrix_divrem(S, vhat)
    assert all(e.is_zero for e in w2) and vhat2 == vhat


@given(fields, st.sampled_from("xy"), degrees, seeds)
def test_trunc_inv_apply_and_transpose_against_dense(name, wrt, degs, seed):
    ctx, rng = FIELDS[name], random.Random(seed)
    S = _sylvmat(ctx, wrt, degs, rng, _nonsingular)
    assume(S is not None)
    l = rng.randrange(1, 7)
    v = _vector(ctx, S.n, l + 2, rng)
    u = trunc_inv_apply(S, v, l)
    assert all(e.deg < l for e in u)
    assert all((a - b).trunc(l).is_zero for a, b in zip(_dense_apply(S, u), v))
    # <ell, H v> = <H^T ell, v> on the coefficient window of width l
    ell = _vector(ctx, S.n, l, rng)
    assert _pair(ctx, ell, u, l) == _pair(ctx, trunc_inv_apply_T(S, ell, l), v, l)


def _reduced_basis(ctx, degs, rng, tries=20):
    for _ in range(tries):
        basis = IdealBasis(
            BiPoly.random(ctx, degs[0], degs[1], rng), BiPoly.random(ctx, degs[2], degs[3], rng)
        )
        if is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis)):
            return basis
    return None


@given(fields, degrees, seeds)
def test_normal_form_window_invariance_idempotence(name, degs, seed):
    ctx, rng = FIELDS[name], random.Random(seed)
    basis = _reduced_basis(ctx, degs, rng)
    assume(basis is not None)
    f = BiPoly.random(ctx, rng.randrange(0, 2 * basis.d + 2), rng.randrange(0, 2 * basis.ny + 2), rng)
    nf = normal_form(basis, f)
    assert nf.is_zero or (nf.deg_x < basis.d and nf.deg_y < basis.ny)
    assert normal_form(basis, nf) == nf
    qa = BiPoly.random(ctx, rng.randrange(0, 3), rng.randrange(0, 3), rng)
    qb = BiPoly.random(ctx, rng.randrange(0, 3), rng.randrange(0, 3), rng)
    assert normal_form(basis, f + bimul(qa, basis.a) + bimul(qb, basis.b)) == nf
    assert NormalFormProgram(basis, f.deg_x, f.deg_y).forward(f) == nf


AT_DEGREES = [
    (2, 3, 1, 2),
    (3, 2, 2, 2),  # unequal column degrees in both orientations
    (2, 0, 1, 3),  # first generator of y-degree 0
    (1, 3, 2, 0),  # second generator of y-degree 0
    (0, 2, 3, 1),  # first generator of x-degree 0
]


def test_evaluation_at_point_is_shifted_constant_matrix():
    rng = random.Random(61)
    for name, ctx in FIELDS.items():
        for wrt in "xy":
            for degs in AT_DEGREES:
                S = _sylvmat(ctx, wrt, degs, rng)
                if S is None:
                    continue
                D = dense_form(S)
                for x0 in (0, ctx.sample(rng), ctx.sample(rng)):
                    M = S.at(x0)
                    shifted = SylvMat(wrt, S.g1.subs_shift(S.outer, x0), S.g2.subs_shift(S.outer, x0))
                    assert np.array_equal(M, shifted.constant_matrix()), (name, wrt, degs)
                    assert M.tolist() == [[e.eval_at(x0) for e in row] for row in D], (name, wrt, degs)
                assert np.array_equal(S.at(0), S.constant_matrix())
