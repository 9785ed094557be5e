import random

import numpy as np
import pytest

import sylres.sylvester
import sylres.upoly
from sylres._dense import SingularMatrixError, gauss_rank
from sylres.bipoly import BiPoly, IdealBasis, bimul, fit, grid_mul, to_array, to_list, vec_x, vec_y
from sylres.field import PrimeField, build_extension, extend_field
from sylres.normalform import normal_form
from sylres.sylvester import (
    NotColumnReducedError,
    SylvMat,
    _BaseSolver,
    _matvec_semiT,
    _solver,
    build_Sx,
    build_Sy,
    build_Tx,
    dense_form,
    is_column_reduced,
    matvec,
    matvec_T,
    matvec_window,
    matvec_window_T,
    solve_window,
    trunc_inv_apply,
    trunc_inv_apply_T,
)
from sylres.upoly import FixedDivisor, UPoly, xgcd

F2 = PrimeField(2)
F101 = PrimeField(101)
F65537 = PrimeField(65537)


def example2_basis(ctx=F101):
    a = BiPoly.from_terms(ctx, [(1, 2, 1), (1, 0, 1)])  # x^2 y + y
    b = BiPoly.from_terms(ctx, [(1, 1, 2), (1, 1, 0)])  # x y^2 + x
    return IdealBasis(a, b)


def example1_basis(ctx=F2):
    a = BiPoly.from_terms(ctx, [(1, 1, 1), (1, 0, 1), (1, 2, 0)])  # (x+1)y + x^2
    b = BiPoly.from_terms(ctx, [(1, 1, 2), (1, 0, 2), (1, 0, 1)])  # (x+1)y^2 + y
    return IdealBasis(a, b)


def random_basis(ctx, d, e, rng, reduced=True):
    while True:
        a = BiPoly.random(ctx, rng.randrange(1, d + 1), rng.randrange(1, e + 1), rng)
        b = BiPoly.random(ctx, rng.randrange(1, d + 1), rng.randrange(1, e + 1), rng)
        basis = IdealBasis(a, b)
        if not reduced:
            return basis
        if is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis)):
            return basis


def as_dense_strings(M):
    return [[repr(e) for e in row] for row in M]


def test_build_Sy_example2_display():
    basis = example2_basis()
    Sy = build_Sy(basis)
    D = dense_form(Sy)
    x2p1 = UPoly(F101, [1, 0, 1])
    x = UPoly.x(F101)
    zero = UPoly.zero(F101)
    assert D == [[x2p1, zero, x], [zero, x2p1, zero], [zero, zero, x]]
    assert Sy.column_degrees == [2, 2, 1]
    assert build_Sy(basis).column_degrees == Sy.column_degrees


def test_build_Sy_example1_dimension():
    basis = example1_basis()
    Sy = build_Sy(basis)
    assert Sy.n == 3  # n_y = 1 + 2


def test_column_reduced_fixtures():
    ex1 = example1_basis()
    assert not is_column_reduced(build_Sx(ex1))  # both y-leads are x+1
    ex2 = example2_basis()
    assert is_column_reduced(build_Sy(ex2))
    assert is_column_reduced(build_Sx(ex2))


def leading_matrix(S):
    D = dense_form(S)
    degs = S.column_degrees
    n = S.n
    M = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            M[i, j] = D[i][j].coeff(degs[j])
    return M


def test_column_reduced_matches_leading_rank_oracle():
    rng = random.Random(10)
    hits = {True: 0, False: 0}
    for _ in range(120):
        basis = random_basis(F101, 3, 3, rng, reduced=False)
        for S in (build_Sy(basis), build_Sx(basis)):
            want = gauss_rank(F101, leading_matrix(S)) == S.n
            assert is_column_reduced(S) == want
            hits[want] += 1
    assert hits[True] and hits[False]  # both outcomes exercised


def test_build_Tx_example2_display():
    basis = example2_basis()
    Tx = build_Tx(basis, 3)
    assert Tx.n == 4
    D = dense_form(Tx)
    y = UPoly.y if False else UPoly(F101, [0, 1])
    y2p1 = UPoly(F101, [1, 0, 1])
    z = UPoly.zero(F101)
    want = [
        [y, z, y2p1, z],
        [z, y, z, y2p1],
        [y, z, z, z],
        [z, y, z, z],
    ]
    assert D == want


def test_build_Tx_small_delta_and_reducedness():
    basis = example2_basis()
    assert build_Tx(basis, 2) is not None
    Tx = build_Tx(basis, 2)
    assert Tx.n == 3  # delta < n_x: T_x = S_x
    rng = random.Random(11)
    for _ in range(25):
        basis = random_basis(F65537, 4, 4, rng)
        delta = basis.nx + rng.randrange(0, 4)
        Tx = build_Tx(basis, delta)
        assert Tx.n == max(basis.nx, delta + 1)
        assert is_column_reduced(Tx)
    with pytest.raises(NotColumnReducedError):
        build_Tx(example1_basis(), 5)


def test_matvec_against_dense():
    rng = random.Random(12)
    for _ in range(25):
        basis = random_basis(F101, 4, 4, rng, reduced=False)
        S = build_Sy(basis) if rng.random() < 0.5 else build_Sx(basis)
        w = [UPoly.random(F101, rng.randrange(-1, 5), rng) for _ in range(S.n)]
        got = matvec(S, w)
        D = dense_form(S)
        for i in range(S.n):
            want = UPoly.zero(F101)
            for j in range(S.n):
                want = want + D[i][j] * w[j]
            assert got[i] == want
    S = build_Sy(example2_basis())
    zero = [UPoly.zero(F101)] * 3
    assert all(e.is_zero for e in matvec(S, zero))
    for j in range(3):
        ej = [UPoly.one(F101) if i == j else UPoly.zero(F101) for i in range(3)]
        col = matvec(S, ej)
        D = dense_form(S)
        assert col == [D[i][j] for i in range(3)]


def test_matvec_T_is_transpose_of_matvec():
    rng = random.Random(13)
    for _ in range(20):
        basis = random_basis(F101, 3, 3, rng, reduced=False)
        S = build_Sy(basis) if rng.random() < 0.5 else build_Sx(basis)
        din = rng.randrange(1, 5)   # w entries have degree < din
        # forward output degree bound: column degree + din - 1
        dout = S.degree + din
        w = [UPoly.random(F101, rng.randrange(-1, din), rng) for _ in range(S.n)]
        ell = [UPoly.random(F101, rng.randrange(-1, dout), rng) for _ in range(S.n)]
        Sw = matvec(S, w)
        STl = matvec_T(S, ell, din)
        lhs = 0
        for i in range(S.n):
            for s in range(dout):
                lhs = F101.add(lhs, F101.mul(ell[i].coeff(s), Sw[i].coeff(s)))
        rhs = 0
        for j in range(S.n):
            for m in range(din):
                rhs = F101.add(rhs, F101.mul(STl[j].coeff(m), w[j].coeff(m)))
        assert lhs == rhs


def dense_series_solve(ctx, S, v, l):
    """Oracle: solve S u = v mod t^l by dense order-by-order elimination."""
    from sylres._dense import gauss_inverse

    D = dense_form(S)
    n = S.n
    M0 = np.array([[D[i][j].coeff(0) for j in range(n)] for i in range(n)], dtype=np.int64)
    M0inv = gauss_inverse(ctx, M0)
    u = np.zeros((n, l), dtype=np.int64)
    for k in range(l):
        r = np.array([v[i].coeff(k) for i in range(n)], dtype=np.int64)
        for m in range(1, k + 1):
            Mm = np.array([[D[i][j].coeff(m) for j in range(n)] for i in range(n)], dtype=np.int64)
            for i in range(n):
                acc = 0
                for j in range(n):
                    acc = ctx.add(acc, ctx.mul(int(Mm[i, j]), int(u[j, k - m])))
                r[i] = ctx.sub(int(r[i]), acc)
        for i in range(n):
            acc = 0
            for j in range(n):
                acc = ctx.add(acc, ctx.mul(int(M0inv[i, j]), int(r[j])))
            u[i, k] = acc
    return [UPoly(ctx, u[i]) for i in range(n)]


def test_trunc_inv_apply():
    rng = random.Random(14)
    for _ in range(20):
        basis = random_basis(F65537, 3, 3, rng)
        S = build_Sy(basis)
        try:
            solverless = trunc_inv_apply(S, [UPoly.zero(F65537)] * S.n, 1)
        except SingularMatrixError:
            continue
        l = rng.randrange(1, 8)
        v = [UPoly.random(F65537, rng.randrange(-1, l + 3), rng) for _ in range(S.n)]
        u = trunc_inv_apply(S, v, l)
        back = matvec(S, u)
        for i in range(S.n):
            assert (back[i] - v[i]).trunc(l).is_zero
        assert u == dense_series_solve(F65537, S, v, l)
        # exact recovery: v = S w with deg w < l comes back as w
        w = [UPoly.random(F65537, rng.randrange(-1, l), rng) for _ in range(S.n)]
        assert trunc_inv_apply(S, matvec(S, w), l + S.degree + 1)[: S.n] == [
            e.trunc(l + S.degree + 1) for e in w
        ]


def test_trunc_inv_apply_example2_reversed():
    basis = example2_basis()
    Sy = build_Sy(basis)
    Srev = SylvMat("y", basis.a.rev("x", 2), basis.b.rev("x", 1))
    v = [e.rev(3) for e in vec_y(BiPoly.x(F101), 3)]
    got = trunc_inv_apply(Srev, v, 2)
    want = dense_series_solve(F101, Srev, v, 2)
    assert got == want


def test_trunc_inv_apply_T_duality():
    rng = random.Random(15)
    for _ in range(20):
        basis = random_basis(F101, 3, 3, rng)
        S = SylvMat("y", basis.a.rev("x", basis.da), basis.b.rev("x", basis.db))
        try:
            l = rng.randrange(1, 7)
            v = [UPoly.random(F101, rng.randrange(-1, l), rng) for _ in range(S.n)]
            u = trunc_inv_apply(S, v, l)
        except SingularMatrixError:
            continue
        ell = [UPoly.random(F101, rng.randrange(-1, l), rng) for _ in range(S.n)]
        lT = trunc_inv_apply_T(S, ell, l)
        # <ell, H v> = <H^T ell, v> over the coefficient window of width l
        lhs = rhs = 0
        for i in range(S.n):
            for m in range(l):
                lhs = F101.add(lhs, F101.mul(ell[i].coeff(m), u[i].coeff(m)))
                rhs = F101.add(rhs, F101.mul(lT[i].coeff(m), v[i].coeff(m)))
        assert lhs == rhs


def test_singular_constant_matrix_raises():
    # generators with x | both constant slices: S(0) singular
    a = BiPoly.from_terms(F101, [(1, 1, 1), (1, 1, 0)])  # x y + x
    b = BiPoly.from_terms(F101, [(1, 1, 2), (1, 1, 0)])  # x y^2 + x
    S = build_Sy(IdealBasis(a, b))
    with pytest.raises(SingularMatrixError):
        trunc_inv_apply(S, [UPoly.one(F101)] * S.n, 2)


# ---------------------------------------------------------------------------
# the array base solver and the grid products, differential


_F4 = build_extension(2, 4, random.Random(1))
DIFF_FIELDS = {
    "F2": F2,
    "F4^2 (tower)": extend_field(_F4, 16, random.Random(2)),
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F65537^2": build_extension(65537, 65538, random.Random(4)),
    "F65537": F65537,
    "F(2^31-1)": PrimeField(2**31 - 1),
}

# generator shapes (c1, m1, c2, m2): outer and inner degree of g1, then g2
SHAPES = [(2, 2, 2, 2), (1, 0, 2, 3), (3, 2, 1, 0), (3, 2, 1, 3), (0, 1, 2, 2)]


def _generator(ctx, wrt, c, m, rng, deficient=False):
    """Random generator of outer degree c and inner degree m whose
    outer-constant slice has full inner degree m, or, if deficient (needs
    c, m >= 1), lower inner degree."""
    G = BiPoly.random(ctx, c, m, rng).g.copy()  # [outer, inner]
    G[0, m] = 0 if deficient else 1 + rng.randrange(ctx.q - 1)
    while not G[:, m].any():
        G[1:, m] = ctx.rand_array(rng, c)
    return BiPoly(ctx, G if wrt == "y" else G.T)


def _bezout_reference(S, r):
    """The Bezout base solve through UPoly and FixedDivisor, route (a) when
    q0 has full degree m2, else route (b)."""
    p0 = S.g1.upoly_coeff(S.outer, 0)
    q0 = S.g2.upoly_coeff(S.outer, 0)
    _, u0, v0 = xgcd(p0, q0)
    R = UPoly(S.ctx, r[::-1])
    if q0.deg == S.m2:
        div = FixedDivisor(q0)
        A = div.rem(R * u0)
        B = div.exact_div(R - A * p0)
    else:
        div = FixedDivisor(p0)
        B = div.rem(R * v0)
        A = div.exact_div(R - B * q0)
    return np.concatenate([A.padded(S.m2)[::-1], B.padded(S.m1)[::-1]])


def _solvable(ctx, wrt, shape, rng, deficient=False, tries=60):
    c1, m1, c2, m2 = shape
    for _ in range(tries):
        g1 = _generator(ctx, wrt, c1, m1, rng)
        g2 = _generator(ctx, wrt, c2, m2, rng, deficient)
        S = SylvMat(wrt, g1, g2)
        try:
            return S, _BaseSolver(S)
        except SingularMatrixError:
            continue
    raise AssertionError("no nonsingular S(0) drawn")


@pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
def test_base_solver_matches_upoly_bezout_route(name):
    ctx, rng = DIFF_FIELDS[name], random.Random(name)
    cases = [(shape, False) for shape in SHAPES] + [((2, 2, 2, 2), True), ((1, 3, 2, 1), True)]
    for wrt in "xy":
        for shape, deficient in cases:
            S, solver = _solvable(ctx, wrt, shape, rng, deficient)
            assert solver.route_a == (not deficient)
            M0 = S.constant_matrix()
            for _ in range(3):
                r = ctx.rand_array(rng, S.n)
                z = solver.solve(r)
                assert np.array_equal(z, _bezout_reference(S, r))
                assert np.array_equal(ctx.vsum(ctx.vmul(M0, z)), r)


def _dense_product(S, W, l):
    """(D @ W) mod outer^l from dense_form, as an (n, l) array."""
    D = dense_form(S)
    cols = to_list(S.ctx, W)
    rows = [sum((D[i][j] * cols[j] for j in range(S.n)), UPoly.zero(S.ctx)) for i in range(S.n)]
    return fit(to_array(rows), l)


def _dense_transposed(S, L, out_len, reversed_layers):
    """out[j, m] = sum_{i, s} L[i, s] D_ij[s - m] (the transpose of the
    product) or, for the semi-transpose, sum_{i, k} D_ij[k] L[i, m - k]."""
    ctx, D = S.ctx, dense_form(S)
    out = np.zeros((S.n, out_len), dtype=np.int64)
    for j in range(S.n):
        for m in range(out_len):
            acc = 0
            for i in range(S.n):
                for s in range(L.shape[1]):
                    k = s - m if reversed_layers else m - s
                    acc = ctx.add(acc, ctx.mul(int(L[i, s]), D[i][j].coeff(k) if k >= 0 else 0))
            out[j, m] = acc
    return out


@pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
def test_grid_products_match_dense_form(name):
    ctx, rng = DIFF_FIELDS[name], random.Random(name)
    for wrt in "xy":
        for c1, m1, c2, m2 in SHAPES:
            S = SylvMat(wrt, _generator(ctx, wrt, c1, m1, rng), _generator(ctx, wrt, c2, m2, rng))
            width = rng.randrange(2, 5)
            W = ctx.rand_array(rng, S.n * width).reshape(S.n, width)
            for l in (1, 2, width - 1, width, width + S.degree):
                assert np.array_equal(matvec_window(S, W, l), _dense_product(S, W, l))
            full = matvec_window(S, W)
            assert np.array_equal(full, _dense_product(S, W, width + S.degree))
            for out_len in (1, width):
                want = _dense_transposed(S, W, out_len, True)
                assert np.array_equal(matvec_window_T(S, W, out_len), want)
                want = _dense_transposed(S, W, out_len, False)
                assert np.array_equal(_matvec_semiT(S, W, out_len), want)


def test_grid_mul_matches_bimul_and_truncates():
    rng = random.Random(16)
    for ctx in DIFF_FIELDS.values():
        f = BiPoly.random(ctx, rng.randrange(0, 4), rng.randrange(0, 4), rng)
        g = BiPoly.random(ctx, rng.randrange(0, 4), rng.randrange(0, 4), rng)
        P = grid_mul(ctx, f.g, g.g)
        assert P.shape == (f.deg_x + g.deg_x + 1, f.deg_y + g.deg_y + 1)
        assert BiPoly(ctx, P) == bimul(f, g) == bimul(g, f)
        for rows in (1, 2, P.shape[0], P.shape[0] + 2):
            assert np.array_equal(grid_mul(ctx, f.g, g.g, rows), P[:rows])
        empty = np.zeros((0, 3), dtype=np.int64)
        assert grid_mul(ctx, empty, g.g).shape == (g.deg_x, g.deg_y + 3)
        assert not grid_mul(ctx, empty, g.g).any()


def test_solve_window_builds_no_polynomial_objects(monkeypatch):
    rng = random.Random(17)
    while True:
        basis = random_basis(F65537, 8, 8, rng)
        if basis.d == basis.e == 8:
            break
    S = build_Sy(basis).reversed_matrix()
    _solver(S, _BaseSolver)  # per-matrix setup
    V = F65537.rand_array(rng, S.n * 32).reshape(S.n, 32)
    built = {"UPoly": 0, "BiPoly": 0}
    for cls in (UPoly, BiPoly):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    U = solve_window(S, V, 32)
    assert built == {"UPoly": 0, "BiPoly": 0}
    monkeypatch.undo()
    assert np.array_equal(matvec_window(S, U, 32), V)


# ---------------------------------------------------------------------------
# one Bezout triple per matrix pair


def _full_degree_basis(rng, d):
    """A column-reduced basis with deg a = deg b = (d, d), returned fresh
    (cold caches), as the nf-ntt benchmark workload draws it."""
    while True:
        a, b = BiPoly.random(F65537, d, d, rng), BiPoly.random(F65537, d, d, rng)
        if is_column_reduced(build_Sy(IdealBasis(a, b))) and is_column_reduced(build_Sx(IdealBasis(a, b))):
            return IdealBasis(a, b)


def test_normal_form_runs_one_xgcd_per_sylvester_matrix(monkeypatch):
    """is_column_reduced(S) hands its Bezout triple to the base solver of
    S.reversed_matrix(), so a normal form on a fresh ideal runs xgcd once
    for S_y and once for S_x (which is T_x at this input degree)."""
    rng = random.Random(18)
    basis = _full_degree_basis(rng, 8)
    f = BiPoly.random(F65537, 2 * (basis.d - 1), 2 * (basis.ny - 1), rng)
    calls = []

    def counting(f, g, _xgcd=xgcd):
        calls.append((f.deg, g.deg))
        return _xgcd(f, g)

    for module in (sylres.upoly, sylres.sylvester):
        monkeypatch.setattr(module, "xgcd", counting)
    nf = normal_form(basis, f)
    monkeypatch.undo()
    assert len(calls) == 2
    assert build_Tx(basis, f.deg_x) is build_Sx(basis)
    assert nf == normal_form(IdealBasis(basis.a, basis.b), f)


def test_base_solver_fallback_matches_handed_down_triple():
    rng = random.Random(19)
    basis = _full_degree_basis(rng, 4)
    for S in (build_Sy(basis), build_Sx(basis)):
        assert is_column_reduced(S)  # the fresh basis has cold caches
        R = S.reversed_matrix()
        assert "const_xgcd" in R._cache
        direct = SylvMat(R.wrt, R.g1, R.g2)  # same matrix, no triple handed down
        assert "const_xgcd" not in direct._cache
        fallback = _BaseSolver(direct)
        M0 = R.constant_matrix()
        for _ in range(3):
            r = F65537.rand_array(rng, R.n)
            z = fallback.solve(r)
            assert np.array_equal(z, _solver(R, _BaseSolver).solve(r))
            assert np.array_equal(F65537.vsum(F65537.vmul(M0, z)), r)
