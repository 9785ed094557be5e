import random

import numpy as np
import pytest

from sylres._dense import SingularMatrixError, gauss_det, gauss_rank
from sylres.bipoly import BiPoly, IdealBasis
from sylres.field import PrimeField, build_extension, extend_field
from sylres.invariant import min_poly_mult_x
from sylres.normalform import embed, normal_form
from sylres.oracle import dense_minpoly_mult_x, dense_resultant, dense_smith, mult_x_matrix
from sylres.sylvester import build_Sy, dense_form
from sylres.upoly import UPoly

from test_sylvester import example1_basis, example2_basis, random_basis

F2 = PrimeField(2)
F101 = PrimeField(101)
F65537 = PrimeField(65537)


def test_dense_smith_identity():
    I3 = [[UPoly.one(F101) if i == j else UPoly.zero(F101) for j in range(3)] for i in range(3)]
    assert dense_smith(I3) == [UPoly.one(F101)] * 3


def test_dense_smith_example1():
    basis = example1_basis()
    facs = dense_smith(dense_form(build_Sy(basis)))
    assert facs[0] == UPoly.one(F2) and facs[1] == UPoly.one(F2)
    assert facs[2] == UPoly(F2, [0, 0, 1, 1, 1, 1])  # x^2 (x+1)^3


def mul_row(ctx, row, poly):
    return [e * poly for e in row]


def test_dense_smith_unimodular_invariance():
    rng = random.Random(50)
    x = UPoly.x(F101)
    for _ in range(10):
        A = [[UPoly.zero(F101) for _ in range(2)] for _ in range(2)]
        A[0][0] = x
        A[1][1] = x * x
        # random elementary row/column operations (unimodular)
        for _ in range(8):
            c = UPoly.random(F101, rng.randrange(0, 3), rng)
            if rng.random() < 0.5:
                i, j = rng.sample(range(2), 2)
                for k in range(2):
                    A[i][k] = A[i][k] + c * A[j][k]
            else:
                i, j = rng.sample(range(2), 2)
                for k in range(2):
                    A[k][i] = A[k][i] + c * A[k][j]
        assert dense_smith(A) == [x, x * x]


def test_dense_smith_divisibility_and_det():
    rng = random.Random(51)
    for _ in range(10):
        basis = random_basis(F65537, 3, 3, rng, reduced=False)
        M = dense_form(build_Sy(basis))
        try:
            facs = dense_smith(M)
        except SingularMatrixError:
            continue
        for i in range(len(facs) - 1):
            assert facs[i + 1].rem(facs[i]).is_zero
        prod = UPoly.one(F65537)
        for f in facs:
            prod = prod * f
        res = dense_resultant(basis.a, basis.b)
        assert not res.is_zero
        assert prod == res.monic()


def test_dense_smith_rejects_singular():
    Z = [[UPoly.zero(F101), UPoly.zero(F101)], [UPoly.zero(F101), UPoly.one(F101)]]
    with pytest.raises(SingularMatrixError):
        dense_smith(Z)


def test_dense_resultant_example1():
    basis = example1_basis()
    res = dense_resultant(basis.a, basis.b)  # extension path: only 2 points in F_2
    assert res == UPoly(F2, [0, 0, 1, 1, 1, 1])


def test_dense_resultant_univariate_in_y():
    rng = random.Random(52)
    for _ in range(10):
        fa = UPoly.random(F101, 3, rng)
        fb = UPoly.random(F101, 2, rng)
        a = BiPoly.from_upoly(fa, "y")
        b = BiPoly.from_upoly(fb, "y")
        res = dense_resultant(a, b)
        assert res.deg <= 0
        want = gauss_det(F101, build_Sy(IdealBasis(a, b)).at(0))
        assert res.coeff(0) == want


def test_dense_resultant_swap_sign():
    rng = random.Random(53)
    for _ in range(10):
        basis = random_basis(F65537, 3, 3, rng, reduced=False)
        r1 = dense_resultant(basis.a, basis.b)
        r2 = dense_resultant(basis.b, basis.a)
        sign = F65537.pow_(F65537.neg(1), basis.ea * basis.eb)
        assert r2 == r1.scale(sign)


def test_dense_minpoly_shape_basis():
    a = BiPoly.from_terms(F101, [(1, 1, 0), (96, 0, 0)])  # x - 5
    b = BiPoly.from_terms(F101, [(1, 0, 1), (94, 0, 0)])  # y - 7
    mu = dense_minpoly_mult_x(IdealBasis(a, b))
    assert mu == UPoly(F101, [96, 1])  # x - 5


def test_dense_minpoly_example3_conditioned():
    # After conditioning, the minimal polynomial of multiplication by x in
    # the *new* quotient equals the last invariant factor of S_y, which for
    # this basis is (x+2)(x+3)^3: the original quotient's x+2 gains the
    # factors carried by the roots at infinity (x = -3).
    F7 = PrimeField(7)
    a = BiPoly.from_terms(F7, [(1, 1, 1), (3, 0, 1), (1, 2, 0), (5, 1, 0), (5, 0, 0)])
    b = BiPoly.from_terms(F7, [(1, 2, 1), (5, 0, 1), (1, 2, 0), (4, 1, 0), (2, 0, 0)])
    basis = IdealBasis(a, b)
    sigma = dense_smith(dense_form(build_Sy(basis)))[-1]
    expect = UPoly(F7, [5, 4, 3, 4, 1])  # (x+2)(x+3)^3
    assert sigma == expect

    from sylres.condition import condition_for_both, recover_last_invariant
    from sylres.field import build_extension
    from sylres.sylvester import build_Sx, is_column_reduced

    rng = random.Random(54)
    F49 = build_extension(7, 33, rng)
    lifted = basis.lift(F49)
    for _ in range(16):
        cond, record = condition_for_both(lifted, F49.sample(rng), F49.sample(rng))
        if cond.degree_vector() != lifted.degree_vector():
            continue
        if not (is_column_reduced(build_Sx(cond)) and is_column_reduced(build_Sy(cond))):
            continue
        mu2 = dense_minpoly_mult_x(cond)
        back = recover_last_invariant(mu2, record)
        assert UPoly(F7, back.c) == expect
        return
    pytest.fail("conditioning never succeeded")


def _krylov_vectors(basis, n):
    """u, M u, ..., M^(n-1) u as columns, by scalar matrix-vector loops."""
    ctx = basis.ctx
    M = mult_x_matrix(basis)
    u = embed(basis, normal_form(basis, BiPoly.one(ctx)))
    cols = [u]
    for _ in range(n - 1):
        v = cols[-1]
        cols.append(np.array([_scalar_dot(ctx, row, v) for row in M], dtype=np.int64))
    return np.stack(cols, axis=1)


def _scalar_dot(ctx, a, b):
    acc = 0
    for x, y in zip(a.tolist(), b.tolist()):
        acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def test_dense_minpoly_is_the_krylov_minimal_polynomial():
    # by definition, and against the Wiedemann driver on the fixtures above
    # and on random bases over a prime field, a tower and log tables
    rng = random.Random(57)
    F7_3 = build_extension(7, 343, random.Random(3))
    F4_2 = extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2))
    shape_basis = IdealBasis(
        BiPoly.from_terms(F101, [(1, 1, 0), (96, 0, 0)]), BiPoly.from_terms(F101, [(1, 0, 1), (94, 0, 0)])
    )
    bases = [shape_basis, example2_basis()]
    bases += [random_basis(F, 2, 2, rng) for F in (F65537, F7_3, F4_2) for _ in range(2)]
    bases.append(random_basis(F65537, 3, 3, rng))
    for basis in bases:
        ctx = basis.ctx
        mu = dense_minpoly_mult_x(basis)
        t = mu.deg
        assert mu.coeff(t) == 1
        K = _krylov_vectors(basis, t + 1)
        assert gauss_rank(ctx, K[:, :t]) == t
        assert [_scalar_dot(ctx, row, mu.c) for row in K] == [0] * len(K)
        if ctx.q > 1000:
            assert mu == min_poly_mult_x(basis, random.Random(58))


def test_dense_minpoly_requires_reducedness():
    from sylres.sylvester import NotColumnReducedError

    with pytest.raises(NotColumnReducedError):
        dense_minpoly_mult_x(example1_basis())


def test_oracle_gate():
    big = [[UPoly.one(F101)] * 65 for _ in range(65)]
    with pytest.raises(ValueError):
        dense_smith(big)
