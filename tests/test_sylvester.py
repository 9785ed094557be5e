import gc
import random
import weakref

import numpy as np
import pytest

import sylres._backend
import sylres.field
import sylres.sylvester
import sylres.upoly
from sylres._dense import SingularMatrixError, gauss_inverse, gauss_rank
from sylres.bipoly import BiPoly, IdealBasis, bimul, fit, to_array, to_list, vec_x, vec_y
from sylres.field import PrimeField, build_extension, extend_field, grid_mul
from sylres.normalform import LinearForm, NormalFormProgram, normal_form
from sylres.sylvester import (
    NotColumnReducedError,
    SylvMat,
    _inverse_T,
    _matvec_semiT,
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
    for _ in range(200):
        a = BiPoly.random(ctx, rng.randrange(1, d + 1), rng.randrange(1, e + 1), rng)
        b = BiPoly.random(ctx, rng.randrange(1, d + 1), rng.randrange(1, e + 1), rng)
        basis = IdealBasis(a, b)
        if not reduced:
            return basis
        if is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis)):
            return basis
    raise AssertionError(f"no column-reduced basis of bidegree up to ({d}, {e}) over {ctx!r}")


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
# S(0)^{-1} from the Bezout triple and the grid products, differential


_F4 = build_extension(2, 4, random.Random(1))
DIFF_FIELDS = {
    "F2": F2,
    "F4^2 (tower)": extend_field(_F4, 16, random.Random(2)),
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F7^2^2 (tower)": extend_field(build_extension(7, 49, random.Random(16)), 7**4, random.Random(17)),
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


def _apply(ctx, M, r):
    """M @ r over the field."""
    return ctx.vsum(ctx.vmul(M, r))


def _solvable(ctx, wrt, shape, rng, deficient=False, tries=60):
    c1, m1, c2, m2 = shape
    for _ in range(tries):
        g1 = _generator(ctx, wrt, c1, m1, rng)
        g2 = _generator(ctx, wrt, c2, m2, rng, deficient)
        S = SylvMat(wrt, g1, g2)
        try:
            return S, _inverse_T(S)
        except SingularMatrixError:
            continue
    raise AssertionError("no nonsingular S(0) drawn")


@pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
def test_base_solver_matches_upoly_bezout_route(name):
    ctx, rng = DIFF_FIELDS[name], random.Random(name)
    # (1, 0, 2, 2) deficient: route (b) with a constant divisor
    cases = [(shape, False) for shape in SHAPES] + [((2, 2, 2, 2), True), ((1, 3, 2, 1), True), ((1, 0, 2, 2), True)]
    for wrt in "xy":
        for shape, deficient in cases:
            S, Z = _solvable(ctx, wrt, shape, rng, deficient)
            assert (S.g2.upoly_coeff(S.outer, 0).deg == S.m2) == (not deficient)
            M0 = S.constant_matrix()
            for _ in range(3):
                r = ctx.rand_array(rng, S.n)
                z = _apply(ctx, Z.T, r)
                assert np.array_equal(z, _bezout_reference(S, r))
                assert np.array_equal(_apply(ctx, M0, z), r)
            # the Bezout recurrence over the unit vectors is the dense inverse
            assert np.array_equal(Z, gauss_inverse(ctx, M0).T)
            assert np.array_equal(Z, np.array([_bezout_reference(S, e) for e in np.eye(S.n, dtype=np.int64)]))
    # route (b) on two nonzero constant slices, m1 = 0 < m2: g1 = 1 + x and
    # g2 = x y^2 + 2 (the code 1 for 2 in F_2).  xgcd gives u = 0 for two
    # constants, so the constant divisor's 1 / p is not the triple's u
    G1, G2 = np.array([[1], [1]]), np.array([[min(2, ctx.q - 1), 0, 0], [0, 0, 1]])
    for wrt in "xy":
        S = SylvMat(wrt, *(BiPoly(ctx, G if wrt == "y" else G.T) for G in (G1, G2)))
        assert (S.m1, S.m2) == (0, 2)
        assert np.array_equal(_inverse_T(S), gauss_inverse(ctx, S.constant_matrix()).T)


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
        P = grid_mul(ctx, [(f.g, g.g)])
        assert P.shape == (f.deg_x + g.deg_x + 1, f.deg_y + g.deg_y + 1)
        assert BiPoly(ctx, P) == bimul(f, g) == bimul(g, f)
        for rows in (1, 2, P.shape[0], P.shape[0] + 2):
            assert np.array_equal(grid_mul(ctx, [(f.g, g.g)], rows), P[:rows])
        empty = np.zeros((0, 3), dtype=np.int64)
        assert grid_mul(ctx, [(empty, g.g)]).shape == (g.deg_x, g.deg_y + 3)
        assert not grid_mul(ctx, [(empty, g.g)]).any()
        # a pair list is the sum of its products, on the widest stride
        h = BiPoly.random(ctx, rng.randrange(0, 4), rng.randrange(0, 4), rng)
        two = grid_mul(ctx, [(f.g, g.g), (h.g, f.g)])
        assert BiPoly(ctx, two) == bimul(f, g) + bimul(h, f)
        for rows in (1, 2, two.shape[0]):
            assert np.array_equal(grid_mul(ctx, [(f.g, g.g), (h.g, f.g)], rows), two[:rows])
        assert np.array_equal(grid_mul(ctx, [(f.g, g.g), (empty, h.g)])[: P.shape[0], : P.shape[1]], P)


def test_solve_window_builds_no_polynomial_objects(monkeypatch):
    rng = random.Random(17)
    for _ in range(200):
        basis = random_basis(F65537, 8, 8, rng)
        if basis.d == basis.e == 8:
            break
    else:
        raise AssertionError("no column-reduced basis of bidegree (8, 8) over F_65537")
    S = build_Sy(basis).reversed_matrix()
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


def _fft_sized_matrix(rng):
    """A column-reduced F_65537 basis of two polynomials of bidegree (12, 12)
    and its S_y: n = 24 and packed generators of 12 * 24 + 13 codes, so
    windows of 8 or more outer coefficients give FFT-sized products."""
    for _ in range(20):
        basis = IdealBasis(*(BiPoly.random(F65537, 12, 12, rng) for _ in "ab"))
        S = build_Sy(basis)
        if S.n == 24 and S.degree == 12 and is_column_reduced(S) and is_column_reduced(build_Sx(basis)):
            return basis, S
    raise AssertionError("no column-reduced basis of bidegree (12, 12) over F_65537")


def _count_calls(monkeypatch, owner, name, log):
    orig = getattr(owner, name)

    def counting(*args, **kwargs):
        log.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_fft_sized_matvec_window_is_one_spectral_product(monkeypatch):
    # both generator blocks share the stride n, so S @ W is one rfft of all
    # four operands' limbs and one irfft of the summed spectra
    S = _fft_sized_matrix(random.Random(18))[1]
    W = F65537.rand_array(random.Random(19), S.n * 40).reshape(S.n, 40)
    want = _dense_product(S, W, 40)
    rfft, irfft = [], []
    _count_calls(monkeypatch, np.fft, "rfft", rfft)
    _count_calls(monkeypatch, np.fft, "irfft", irfft)
    got = matvec_window(S, W, 40)
    assert (len(rfft), len(irfft)) == (1, 1)
    assert len(rfft[0][0]) == 4  # four operands, one limb each
    monkeypatch.undo()
    assert np.array_equal(got, want)


def test_truncated_solves_transform_each_generator_once_per_length(monkeypatch):
    S = _fft_sized_matrix(random.Random(20))[1].reversed_matrix()
    rng = random.Random(21)
    V = F65537.rand_array(rng, S.n * 64).reshape(S.n, 64)
    for solve in (solve_window, sylres.sylvester.solve_window_T):
        transformed, products = [], []
        _count_calls(monkeypatch, sylres._backend, "_limb_spectra", transformed)
        _count_calls(monkeypatch, sylres._backend, "fft_conv_mod", products)
        U = solve(S, V, 64)
        monkeypatch.undo()
        # each FFT product transforms its K first operands, then the
        # generators (second operands) that its memo does not hold yet
        assert products and len(products) == len(transformed)
        generators = [
            (v.tobytes(), N)
            for (pairs, *_), (vs, _, _, _, N) in zip(products, transformed)
            for v in vs[len(pairs) :]
        ]
        assert len(generators) == len(set(generators)), solve.__name__
        assert len(generators) < sum(len(pairs) for pairs, *_ in products), solve.__name__
        if solve is solve_window:
            assert np.array_equal(matvec_window(S, U, 64), V)
        else:
            assert np.array_equal(U, _solve_window_T_reference(S, V, 64))


_EXT_SOLVE_FIELDS = {"F7^3": DIFF_FIELDS["F7^3"], "F101^2": build_extension(101, 101**2, random.Random(4))}


@pytest.mark.parametrize("name", sorted(_EXT_SOLVE_FIELDS))
def test_extension_products_and_halving_solves_match_dense_form(monkeypatch, name):
    # over an extension field each grid product is one base grid_mul of
    # digit grids and one plane fold: S @ W, and a solve halved down to
    # one-column leaves, against dense_form's products
    ctx, rng = _EXT_SOLVE_FIELDS[name], random.Random(f"ext-solve-{name}")
    monkeypatch.setattr(sylres.sylvester, "ONE_LEAF_MAP_MAX", -1)
    for wrt, shape in (("y", (3, 4, 3, 4)), ("x", (2, 3, 4, 2)), ("y", (1, 0, 2, 3))):
        S = _solvable(ctx, wrt, shape, rng)[0]
        monkeypatch.setattr(sylres.sylvester, "LEAF_INNER_MAX", S.n)
        for l in (1, S.degree + 3, 24):
            W = ctx.rand_array(rng, S.n * l).reshape(S.n, l)
            assert np.array_equal(matvec_window(S, W, l), _dense_product(S, W, l)), (wrt, shape, l)
            U = solve_window(S, W, l)
            assert np.array_equal(_dense_product(S, U, l), W), (wrt, shape, l)


def test_extension_halving_solve_keeps_digit_grid_spectra(monkeypatch):
    # over F_{101^2} the generators' digit grids give FFT-sized base
    # products here: a halving solve keys their spectra in its memo, each
    # transformed once per length, and equals the memo-free reference
    ctx, rng = _EXT_SOLVE_FIELDS["F101^2"], random.Random(24)
    monkeypatch.setattr(sylres.sylvester, "ONE_LEAF_MAP_MAX", -1)
    S = _solvable(ctx, "y", (6, 6, 6, 6), rng)[0]
    monkeypatch.setattr(sylres.sylvester, "LEAF_INNER_MAX", S.n)
    V = ctx.rand_array(rng, S.n * 48).reshape(S.n, 48)
    transformed, products = [], []
    _count_calls(monkeypatch, sylres._backend, "_limb_spectra", transformed)
    _count_calls(monkeypatch, sylres._backend, "fft_conv_mod", products)
    U = solve_window(S, V, 48)
    monkeypatch.undo()
    assert any(memo is not None and any(key is not None for key in keys) for _, _, memo, keys in products)
    generators = [
        (v.tobytes(), N) for (pairs, *_), (vs, _, _, _, N) in zip(products, transformed) for v in vs[len(pairs) :]
    ]
    assert len(generators) == len(set(generators))
    assert len(generators) < sum(len(pairs) for pairs, *_ in products)
    assert np.array_equal(U, _halving_reference(S, False, V, 48))


def _halving_reference(S, transposed, V, l):
    """The truncated solve as a halving recursion down to width 1, with no
    dense leaf and no memo: each column solved by the dense inverse of S(0)
    (gauss_inverse), each residual from the whole low half."""
    ctx = S.ctx
    A = gauss_inverse(ctx, S.constant_matrix())
    base = ctx.dot_map(A.T if transposed else A)

    def rec(V, l):
        if l == 1:
            return base(V)
        h = l // 2
        U_lo = rec(V[:, :h], h)
        prod = _matvec_semiT(S, U_lo, l) if transposed else matvec_window(S, U_lo, l)
        R = ctx.vsub(V[:, h:l], prod[:, h:l])
        return np.concatenate([U_lo, rec(R, l - h)], axis=1)

    return rec(V, l)


def _solve_window_T_reference(S, L, l):
    """solve_window_T through the halving reference."""
    return _halving_reference(S, True, fit(L, l)[:, ::-1], l)[:, ::-1]


def _holds_array(obj, pred, seen) -> bool:
    """Whether obj, or anything it reaches, is an array satisfying pred."""
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return pred(obj)
    if isinstance(obj, dict):
        return any(_holds_array(v, pred, seen) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return any(_holds_array(v, pred, seen) for v in obj)
    if isinstance(obj, SylvMat):
        return _holds_array(obj._cache, pred, seen)
    return hasattr(obj, "__dict__") and _holds_array(vars(obj), pred, seen)


def test_no_spectrum_outlives_its_solve(monkeypatch):
    # a caller may hold an ideal and its matrices for as long as it likes,
    # so FFT spectra live only in the memo of one solve
    basis = _fft_sized_matrix(random.Random(22))[0]
    f = BiPoly.random(F65537, 2 * (basis.d - 1), 2 * (basis.ny - 1), random.Random(23))
    products = []
    _count_calls(monkeypatch, sylres._backend, "fft_conv_mod", products)
    normal_form(basis, f)
    monkeypatch.undo()
    assert any(memo is not None for _, _, memo, _ in products)  # memoised FFT products ran
    assert basis._cache and not _holds_array(basis._cache, np.iscomplexobj, set())


# ---------------------------------------------------------------------------
# one Bezout triple per matrix pair


def _full_degree_basis(rng, d):
    """A column-reduced basis with deg a = deg b = (d, d), returned fresh
    (cold caches), as the nf-ntt benchmark workload draws it."""
    for _ in range(200):
        a, b = BiPoly.random(F65537, d, d, rng), BiPoly.random(F65537, d, d, rng)
        if is_column_reduced(build_Sy(IdealBasis(a, b))) and is_column_reduced(build_Sx(IdealBasis(a, b))):
            return IdealBasis(a, b)
    raise AssertionError(f"no column-reduced basis of bidegree ({d}, {d}) over F_65537")


def test_normal_form_runs_one_xgcd_per_sylvester_matrix(monkeypatch):
    """is_column_reduced(S) hands its Bezout triple to the S(0)^{-1} of
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
        fallback = _inverse_T(direct).T
        handed_down = _inverse_T(R).T
        M0 = R.constant_matrix()
        for _ in range(3):
            r = F65537.rand_array(rng, R.n)
            z = _apply(F65537, fallback, r)
            assert np.array_equal(z, _apply(F65537, handed_down, r))
            assert np.array_equal(_apply(F65537, M0, z), r)


# ---------------------------------------------------------------------------
# the dense leaf of the truncated solves, against the halving recursion

# SHAPES, plus both generators constant in the outer variable (deg S = 0);
# (1, 0, 2, 3) has inner degree 0 in g1, so its divisor degree is n
LEAF_SHAPES = SHAPES + [(0, 2, 0, 1)]


def _leaf_widths(b):
    return sorted({l for l in (1, b - 1, b, b + 1, 3 * b) if l >= 1})


@pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
def test_leaf_solves_match_halving_reference(monkeypatch, name):
    ctx, rng = DIFF_FIELDS[name], random.Random(name)
    cases = [(shape, False) for shape in LEAF_SHAPES] + [((2, 2, 2, 2), True), ((1, 0, 2, 2), True)]
    for wrt in "xy":
        for shape, deficient in cases:
            S = _solvable(ctx, wrt, shape, rng, deficient)[0]
            # b = 1 is the recursion alone; b = 3 gives k = b - 1 below deg S
            # for the degree-3 shapes, b = 5 gives k = deg S
            for b in (1, 3, 5):
                monkeypatch.setattr(sylres.sylvester, "LEAF_INNER_MAX", b * S.n + S.n - 1)
                for l in _leaf_widths(b):
                    V = ctx.rand_array(rng, S.n * l).reshape(S.n, l)
                    U = solve_window(S, V, l)
                    assert np.array_equal(U, _halving_reference(S, False, V, l)), (wrt, shape, b, l)
                    assert np.array_equal(matvec_window(S, U, l), V)
                    UT = sylres.sylvester.solve_window_T(S, V, l)
                    assert np.array_equal(UT, _solve_window_T_reference(S, V, l)), (wrt, shape, b, l)
            monkeypatch.undo()


@pytest.mark.parametrize("p", [65537, 2**31 - 1])
def test_leaf_solves_at_module_width_match_halving_reference(p):
    ctx, rng = PrimeField(p), random.Random(p)
    basis = _fft_sized_matrix(random.Random(25))[0]
    g1, g2 = (BiPoly(ctx, g.g) for g in (basis.a, basis.b))  # the F_65537 codes, read mod p
    S = build_Sy(IdealBasis(g1, g2)).reversed_matrix()
    b = sylres.sylvester.LEAF_INNER_MAX // S.n
    assert 1 < b < 3 * b <= 64
    for l in _leaf_widths(b):
        V = ctx.rand_array(rng, S.n * l).reshape(S.n, l)
        assert np.array_equal(solve_window(S, V, l), _halving_reference(S, False, V, l)), l
        assert np.array_equal(sylres.sylvester.solve_window_T(S, V, l), _solve_window_T_reference(S, V, l)), l


# the lift on base-field digits: each extension field's leaf map is one
# digit_map, the restriction of scalars R(M) or M's digit planes by size
_LIFT_FIELDS = {
    "F7^3": DIFF_FIELDS["F7^3"],
    "F3^6": build_extension(3, 3**6, random.Random(12)),
    "F5^4": build_extension(5, 5**4, random.Random(13)),
    "F7^5": build_extension(7, 7**5, random.Random(18)),
    "F101^2": build_extension(101, 101**2, random.Random(4)),
    "F101^3": build_extension(101, 101**3, random.Random(7)),
    "F65537^2": DIFF_FIELDS["F65537^2"],
    "F7^2^2 (tower)": DIFF_FIELDS["F7^2^2 (tower)"],
    "F2^9 (tables)": build_extension(2, 2**9, random.Random(6)),
    "F2^15 (no tables)": build_extension(2, 2**15, random.Random(6)),
}
_REGIMES = {"restriction": 1 << 62, "planes": -1}


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@pytest.mark.parametrize("leaf", [1, 2, None])
@pytest.mark.parametrize("name", sorted(_LIFT_FIELDS))
def test_digit_lifts_match_the_halving_reference(monkeypatch, name, leaf, regime):
    # leaves of 1 or 2 columns, or the module's rule, which takes a window of
    # at least n (deg S + 1) columns as one leaf, in both digit_map regimes
    ctx, rng = _LIFT_FIELDS[name], random.Random(f"digit-lift-{name}")
    monkeypatch.setattr(sylres.field, "DIGIT_MAP_MAX", _REGIMES[regime])
    if leaf is not None:
        monkeypatch.setattr(sylres.sylvester, "ONE_LEAF_MAP_MAX", -1)
    for wrt, shape in (("y", (2, 2, 2, 2)), ("x", (3, 2, 1, 3)), ("y", (1, 0, 2, 3))):
        S = _solvable(ctx, wrt, shape, rng)[0]
        if leaf is not None:
            monkeypatch.setattr(sylres.sylvester, "LEAF_INNER_MAX", leaf * S.n)
        for l in sorted({1, S.degree + 2, S.n * (S.degree + 1) + 1}):
            V = ctx.rand_array(rng, S.n * l).reshape(S.n, l)
            assert np.array_equal(solve_window(S, V, l), _halving_reference(S, False, V, l)), (shape, l)
            UT = sylres.sylvester.solve_window_T(S, V, l)
            assert np.array_equal(UT, _solve_window_T_reference(S, V, l)), (shape, l)


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@pytest.mark.parametrize("name", ["F7^3", "F101^3"])
def test_lift_of_many_right_hand_sides_equals_single_lifts(monkeypatch, name, regime):
    # V (n, w, r): one lift carries every right-hand side along the last
    # axis, and with k = deg S a lift of w columns is the whole solve
    ctx, rng = _LIFT_FIELDS[name], random.Random(f"multi-rhs-{name}")
    monkeypatch.setattr(sylres.field, "DIGIT_MAP_MAX", _REGIMES[regime])
    S = _solvable(ctx, "y", (3, 2, 1, 3), rng)[0]
    w, r = 7, 4
    for transposed in (False, True):
        for k in (0, 1, S.degree):
            leaf = sylres.sylvester._leaf_map(S, transposed, k)
            V = ctx.rand_array(rng, S.n * w * r).reshape(S.n, w, r)
            U = sylres.sylvester._lift(ctx, leaf, k, V)
            assert U.shape == V.shape
            for j in range(r):
                single = sylres.sylvester._lift(ctx, leaf, k, V[:, :, j])
                assert np.array_equal(U[:, :, j], single), (transposed, k, j)
                if k == S.degree:
                    assert np.array_equal(single, _halving_reference(S, transposed, V[:, :, j], w))


@pytest.mark.parametrize("name", ["F65537", "F(2^31-1)", "F4^2 (tower)", "F2^9 (tables)"])
def test_width_one_lifts_prepare_no_restriction(monkeypatch, name):
    # over F_p and in characteristic 2 with log tables a digit is the code:
    # the prime field's only prepared maps are S(0)^{-1} and the leaf map
    # itself, and the characteristic-2 field prepares no base map at all
    ctx = {**DIFF_FIELDS, **_LIFT_FIELDS}[name]
    assert ctx.width == 1
    rng = random.Random(f"width-one-{name}")
    S = _solvable(ctx, "y", (3, 2, 1, 3), rng)[0]
    shapes, matmul_map = [], sylres._backend.matmul_map
    monkeypatch.setattr(sylres._backend, "matmul_map", lambda A, p: shapes.append(np.shape(A)) or matmul_map(A, p))
    for leaf in (1, 2, None):
        monkeypatch.setattr(sylres.sylvester, "LEAF_INNER_MAX", (leaf or 512) * S.n)
        for l in (1, 5, S.n * (S.degree + 1) + 1):
            V = ctx.rand_array(rng, S.n * l).reshape(S.n, l)
            assert np.array_equal(matvec_window(S, solve_window(S, V, l), l), V)
            sylres.sylvester.solve_window_T(S, V, l)
    if isinstance(ctx, PrimeField):
        assert shapes and all(rows == S.n and cols % S.n == 0 and cols <= S.n * (S.degree + 1) for rows, cols in shapes)
    else:
        assert shapes == []


@pytest.mark.parametrize("transposed", [False, True])
def test_solve_keeps_no_leaf_map_on_the_matrix(monkeypatch, transposed):
    # the leaf map is built per solve and dropped with it: a long-lived
    # matrix gains only its grids, in either direction, and the map's inner
    # dimension stays within the module's cap
    S = _fft_sized_matrix(random.Random(26))[1].reversed_matrix()
    held = set(S._cache)
    assert held == {"const_xgcd"}  # from the column-reducedness check
    inner = []
    build = sylres.sylvester._leaf_map

    def recording(S, transposed, k):
        inner.append(S.n * (k + 1))
        return build(S, transposed, k)

    monkeypatch.setattr(sylres.sylvester, "_leaf_map", recording)
    V = F65537.rand_array(random.Random(27), S.n * 64).reshape(S.n, 64)
    (sylres.sylvester.solve_window_T if transposed else solve_window)(S, V, 64)
    assert set(S._cache) <= held | {"grids"}
    assert inner and max(inner) <= sylres.sylvester.LEAF_INNER_MAX


@pytest.mark.parametrize("transposed", [False, True])
def test_solve_keeps_no_inverse_on_the_matrix(transposed):
    # S(0)^{-1} (or its transpose) is read into the leaf map and dropped
    # with it: after a solve in either direction, nothing of n^2 codes
    # stays on the matrix (its grids are (13, 13) here)
    S = _fft_sized_matrix(random.Random(26))[1].reversed_matrix()
    V = F65537.rand_array(random.Random(28), S.n * 64).reshape(S.n, 64)
    (sylres.sylvester.solve_window_T if transposed else solve_window)(S, V, 64)
    assert not _holds_array(S._cache, lambda A: A.shape == (S.n, S.n), set())


@pytest.mark.parametrize("l", [0, -1, -3])
def test_list_solves_reject_bad_truncation_orders(l):
    S = _fft_sized_matrix(random.Random(26))[1]
    v = [UPoly(F65537, [1, 2])] * S.n
    for solve in (trunc_inv_apply, trunc_inv_apply_T):
        with pytest.raises(ValueError, match="truncation order must be positive"):
            solve(S, v, l)


@pytest.mark.parametrize("transposed", [False, True])
def test_empty_window_solves_to_empty_window(transposed):
    S = _fft_sized_matrix(random.Random(26))[1].reversed_matrix()
    V = np.zeros((S.n, 0), dtype=np.int64)
    U = (sylres.sylvester.solve_window_T if transposed else solve_window)(S, V, 0)
    assert U.shape == (S.n, 0) and U.dtype == np.int64


@pytest.mark.parametrize("transposed", [False, True])
def test_solve_frees_its_leaf_map_and_memo_on_return(transposed):
    # no reference cycle keeps a solve's leaf map or spectra alive until the
    # cycle collector runs: a caller that holds many results (as the
    # benchmark's worker does) would otherwise hold them too
    S = _fft_sized_matrix(random.Random(29))[1].reversed_matrix()
    V = F65537.rand_array(random.Random(30), S.n * 64).reshape(S.n, 64)
    solve = sylres.sylvester.solve_window_T if transposed else solve_window
    solve(S, V, 64)  # per-matrix setup
    gc.collect()
    gc.disable()
    try:
        solve(S, V, 64)
        assert gc.collect() == 0
    finally:
        gc.enable()
    # a normal-form program owns the leaf maps of its divisions' solves:
    # dropped, it frees them at once, through no cycle
    basis, rng = _fft_sized_matrix(random.Random(29))[0], random.Random(31)
    prog = NormalFormProgram(basis, 2 * (basis.d - 1), 2 * (basis.ny - 1))
    if transposed:
        prog.transpose(LinearForm.random(basis, rng))
    else:
        prog.forward(BiPoly.random(F65537, prog.delta, prog.eta, rng))
    maps = [weakref.ref(m) for div in (prog.div1, prog.div2) for m in div.maps.values()]
    assert len(maps) == 2
    gc.collect()
    gc.disable()
    try:
        del prog
        assert [ref() for ref in maps] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("leaf", [1, 2, None])
@pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
def test_inverse_window_matches_the_halving_reference(monkeypatch, name, leaf):
    # S X = I (mod outer^l) column by column, each unit vector one solve as
    # the power projections make it, against the reference solve: halved
    # down to leaves of 1 or 2 columns, and at the module's rule, which takes
    # a window of at least n (deg S + 1) columns as one leaf; no leaf map
    # exceeds the cap of its rule
    ctx, rng = DIFF_FIELDS[name], random.Random(f"inverse-window-{name}")
    build = sylres.sylvester._leaf_map

    def capped(S, transposed, k):
        inner = S.n * (k + 1)
        one_leaf = S.n * inner <= sylres.sylvester.ONE_LEAF_MAP_MAX
        assert k == 0 or inner <= sylres.sylvester.LEAF_INNER_MAX or one_leaf
        return build(S, transposed, k)

    monkeypatch.setattr(sylres.sylvester, "_leaf_map", capped)
    if leaf is not None:
        monkeypatch.setattr(sylres.sylvester, "ONE_LEAF_MAP_MAX", -1)
    for wrt in "xy":
        for shape in SHAPES + [(0, 2, 0, 1)]:
            S = _solvable(ctx, wrt, shape, rng)[0]
            if leaf is not None:
                monkeypatch.setattr(sylres.sylvester, "LEAF_INNER_MAX", leaf * S.n)
            for l in sorted({1, 2, S.degree + 1, 2 * S.degree + 3, S.n * (S.degree + 1) + 1}):
                for i, e in enumerate(np.eye(S.n, dtype=np.int64)):
                    E = fit(e[:, None], l)
                    assert np.array_equal(solve_window(S, E, l), _halving_reference(S, False, E, l)), (shape, l, i)


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("leaf", [1, 2, None])
def test_long_solve_products_stay_within_twice_the_degree(monkeypatch, transposed, leaf):
    # above the leaf, each residual comes from the low half's last deg S
    # columns only, so no product is wider than 2 deg S + 1 however long
    # the window (a window this long against so small a map would otherwise
    # be one leaf, which makes no products)
    rng = random.Random(28)
    S = _solvable(F65537, "y", (3, 2, 1, 3), rng)[0]
    d, l = S.degree, 300
    monkeypatch.setattr(sylres.sylvester, "ONE_LEAF_MAP_MAX", -1)
    if leaf is not None:
        monkeypatch.setattr(sylres.sylvester, "LEAF_INNER_MAX", leaf * S.n)
    widths = []
    name = "_matvec_semiT" if transposed else "matvec_window"
    product = getattr(sylres.sylvester, name)

    def recording(*args):
        out = product(*args)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(sylres.sylvester, name, recording)
    V = F65537.rand_array(rng, S.n * l).reshape(S.n, l)
    U = (sylres.sylvester.solve_window_T if transposed else solve_window)(S, V, l)
    monkeypatch.undo()
    assert widths and max(widths) <= 2 * d + 1
    want = _solve_window_T_reference(S, V, l) if transposed else _halving_reference(S, False, V, l)
    assert np.array_equal(U, want)
