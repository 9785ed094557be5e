import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sylres.upoly
from sylres.bipoly import BiPoly, IdealBasis
from sylres.field import PrimeField, build_extension, extend_field
from sylres.invariant import _power_projections
from sylres.normalform import LinearForm
from sylres.sylvester import build_Sx, build_Sy, is_column_reduced
from sylres.upoly import (
    UPoly,
    berlekamp_massey,
    common_generator,
    interpolate,
    interpolate_rows,
    inverse_series,
    multipoint_eval,
    pgcd,
    plcm,
    taylor_shift_rows,
    xgcd,
)

F2 = PrimeField(2)
F101 = PrimeField(101)
F65537 = PrimeField(65537)


def test_mul_fixtures():
    xp1 = UPoly(F2, [1, 1])
    assert xp1 * xp1 == UPoly(F2, [1, 0, 1])  # (x+1)^2 = x^2+1 over F_2
    f = UPoly(F101, [3, 5, 7])
    assert f * UPoly.zero(F101) == UPoly.zero(F101)


def test_mul_matches_schoolbook_random():
    rng = random.Random(1)
    for _ in range(30):
        f = UPoly.random(F65537, rng.randrange(0, 65), rng)
        g = UPoly.random(F65537, rng.randrange(0, 65), rng)
        want = np.zeros(f.deg + g.deg + 1, dtype=object)
        for i in range(f.deg + 1):
            for j in range(g.deg + 1):
                want[i + j] += f.coeff(i) * g.coeff(j)
        assert np.array_equal((f * g).c, np.array([int(v) % 65537 for v in want]))


def test_divrem():
    f = UPoly(F2, [1, 0, 1])  # x^2+1
    g = UPoly(F2, [1, 1])  # x+1
    q, r = f.divrem(g)
    assert q == g and r.is_zero
    f = UPoly(F101, [5, 7])
    g = UPoly(F101, [1, 2, 3])
    q, r = f.divrem(g)
    assert q.is_zero and r == f
    rng = random.Random(2)
    for _ in range(40):
        f = UPoly.random(F101, rng.randrange(0, 30), rng)
        g = UPoly.random(F101, rng.randrange(0, 12), rng)
        if g.is_zero:
            continue
        q, r = f.divrem(g)
        assert q * g + r == f
        assert r.deg < g.deg


def test_xgcd():
    rng = random.Random(3)
    for _ in range(40):
        f = UPoly.random(F101, rng.randrange(0, 12), rng)
        g = UPoly.random(F101, rng.randrange(0, 12), rng)
        if f.is_zero and g.is_zero:
            continue
        d, u, v = xgcd(f, g)
        assert u * f + v * g == d
        if not f.is_zero:
            assert f.rem(d).is_zero
        if not g.is_zero:
            assert g.rem(d).is_zero
    f = UPoly.random(F101, 5, rng)
    d, u, v = xgcd(f, f)
    assert d == f.monic()
    d, u, v = xgcd(f, UPoly.zero(F101))
    assert d == f.monic()
    assert u == UPoly.const(F101, F101.inv(f.coeff(f.deg))) and v.is_zero


def test_rev():
    f = UPoly(F101, [3, 1])  # x + 3
    assert f.rev(2) == UPoly(F101, [0, 1, 3])  # 3x^2 + x
    rng = random.Random(4)
    for _ in range(20):
        f = UPoly.random(F101, rng.randrange(0, 10), rng)
        if f.is_zero or f.coeff(0) == 0:
            continue
        assert f.rev().rev() == f
    c = UPoly.const(F101, 9)
    assert c.rev(0) == c
    with pytest.raises(ValueError):
        UPoly(F101, [1, 1, 1]).rev(1)


def test_taylor_shift():
    f = UPoly(F101, [0, 0, 1])  # x^2
    assert f.taylor_shift(1) == UPoly(F101, [1, 2, 1])
    rng = random.Random(5)
    for _ in range(20):
        f = UPoly.random(F65537, rng.randrange(0, 80), rng)
        a = F65537.sample(rng)
        assert f.taylor_shift(0) == f
        assert f.taylor_shift(a).taylor_shift(F65537.neg(a)) == f
        x0 = F65537.sample(rng)
        assert f.taylor_shift(a).eval_at(x0) == f.eval_at(F65537.add(x0, a))


def _horner_shift_reference(f: UPoly, alpha: int) -> UPoly:
    """(..(c_n (x + a) + c_{n-1})(x + a) + ..), one UPoly per coefficient."""
    shift = UPoly(f.ctx, [alpha, 1])
    acc = UPoly.zero(f.ctx)
    for i in range(f.deg, -1, -1):
        acc = acc * shift + UPoly.const(f.ctx, f.coeff(i))
    return acc


@pytest.mark.parametrize(
    "F",
    [
        F2,
        F65537,
        PrimeField(2**31 - 1),
        build_extension(7, 343, random.Random(3)),
        extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2)),
    ],
    ids=["F2", "F65537", "2^31-1", "F7^3", "F4^2 (tower)"],
)
def test_taylor_shift_rows_match_upoly_horner(F):
    rng = random.Random(7)
    for rows, width in ((1, 1), (1, 13), (6, 9), (3, 0)):
        G = F.rand_array(rng, rows * width).reshape(rows, width)
        a = F.sample(rng)
        got = taylor_shift_rows(F, G, a)
        assert got.shape == G.shape
        for r in range(rows):
            want = _horner_shift_reference(UPoly(F, G[r]), a)
            assert UPoly(F, got[r]) == want == UPoly(F, G[r]).taylor_shift(a)
    # above the Horner cutoff taylor_shift halves; check it by evaluation
    f = UPoly.random(F, 1100, rng)
    a, x0 = F.sample(rng), F.sample(rng)
    assert f.taylor_shift(a).eval_at(x0) == f.eval_at(F.add(x0, a))


def test_multipoint_and_interpolate():
    rng = random.Random(6)
    c = UPoly.const(F65537, 1234)
    pts = np.arange(40, dtype=np.int64)
    assert np.all(multipoint_eval(c, pts) == 1234)
    for npts in (3, 16, 17, 40, 90):
        f = UPoly.random(F65537, npts - 1, rng)
        pts = np.array(rng.sample(range(65537), npts), dtype=np.int64)
        vals = multipoint_eval(f, pts)
        horner = np.array([f.eval_at(int(u)) for u in pts], dtype=np.int64)
        assert np.array_equal(vals, horner)
        assert interpolate(F65537, pts, vals) == f
    with pytest.raises(ValueError):
        interpolate(F65537, [1, 1], [0, 0])


INTERP_FIELDS = {
    "F2": F2,
    "F7": PrimeField(7),
    "F65537": F65537,
    "F(2^31-1)": PrimeField(2**31 - 1),
    "F4^2 (tower)": extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2)),
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F65537^2 (no tables)": build_extension(65537, 65537**2, random.Random(4)),
}


@pytest.mark.parametrize("name", list(INTERP_FIELDS))
def test_interpolate_rows_round_trip(name):
    F = INTERP_FIELDS[name]
    rng = random.Random(13)
    for n in sorted({min(n, F.q) for n in (0, 1, 2, 17, 300)}):
        pts = np.array(rng.sample(range(F.q), n), dtype=np.int64)
        # random rows, an all-zero row and the constant q - 1
        C = F.rand_array(rng, 3 * n).reshape(3, n)
        C[1] = 0
        C[2] = 0
        if n:
            C[2, 0] = F.q - 1
        V = np.array([multipoint_eval(UPoly(F, row), pts) for row in C]).reshape(3, n)
        for i, j in itertools.product(range(3), range(min(n, 4))):
            assert int(V[i, j]) == UPoly(F, C[i]).eval_at(int(pts[j]))
        got = interpolate_rows(F, pts, V)
        assert got.shape == (3, n)
        assert np.array_equal(got, C), (name, n)
        for i in range(3):
            assert interpolate(F, pts, V[i]) == UPoly(F, C[i])
    assert interpolate_rows(F, [], np.zeros((0, 0), dtype=np.int64)).shape == (0, 0)


def test_interpolate_rows_rejects_bad_input():
    with pytest.raises(ValueError, match="mismatch"):
        interpolate_rows(F65537, [1, 2, 3], np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="mismatch"):
        interpolate(F65537, [1, 2], [0])
    with pytest.raises(ValueError, match="distinct"):
        interpolate_rows(F65537, [4, 5, 4], np.zeros((1, 3), dtype=np.int64))


def test_multipoint_eval_edges():
    rng = random.Random(14)
    f = UPoly.random(F65537, 30, rng)
    assert multipoint_eval(f, []).shape == (0,)
    assert multipoint_eval(UPoly.zero(F65537), [3, 4]).tolist() == [0, 0]
    assert multipoint_eval(UPoly.const(F65537, 7), [0, 1, 65536]).tolist() == [7, 7, 7]
    for F in (F65537, INTERP_FIELDS["F65537^2 (no tables)"]):
        for npts in (17, 100):
            g = UPoly.random(F, 40, rng)
            pts = np.array([F.sample(rng) for _ in range(npts)], dtype=np.int64)
            want = [g.eval_at(int(u)) for u in pts]
            assert multipoint_eval(g, pts).tolist() == want


def test_berlekamp_massey_fixtures():
    ones = [1] * 8
    assert berlekamp_massey(F101, ones) == UPoly(F101, [100, 1])  # x - 1
    p = 65537
    F = PrimeField(p)
    fib = [1, 1]
    for _ in range(14):
        fib.append((fib[-1] + fib[-2]) % p)
    assert berlekamp_massey(F, fib) == UPoly(F, [p - 1, p - 1, 1])  # x^2 - x - 1
    assert berlekamp_massey(F, [0] * 10) == UPoly.one(F)


def test_berlekamp_massey_recovers_random_recurrence():
    rng = random.Random(7)
    F = F65537
    for _ in range(20):
        mu = UPoly.random(F, 8, rng, monic=True)
        # forward recurrence oracle: s_n = -sum mu_j s_{n-8+j}
        s = [F.sample(rng) for _ in range(8)]
        for n in range(8, 32):
            acc = 0
            for j in range(8):
                acc = F.add(acc, F.mul(mu.coeff(j), s[n - 8 + j]))
            s.append(F.neg(acc))
        got = berlekamp_massey(F, s)
        # output divides the generator used by the oracle
        assert mu.rem(got).is_zero
        if got.deg == 8:
            assert got == mu


def _berlekamp_massey_scalar(ctx, seq):
    """The scalar Berlekamp-Massey loop (one ctx op per coefficient), kept
    as the reference for the array implementation in upoly."""
    s = [int(v) for v in seq]
    n = len(s)
    C = [1]  # connection polynomial, C(D), ascending
    B = [1]
    L, m, b = 0, 1, 1
    for i in range(n):
        d = s[i]
        for j in range(1, L + 1):
            if j < len(C) and C[j]:
                d = ctx.add(d, ctx.mul(C[j], s[i - j]))
        if d == 0:
            m += 1
            continue
        coef = ctx.mul(d, ctx.inv(b))
        if 2 * L <= i:
            T = C[:]
            need = len(B) + m
            if len(C) < need:
                C = C + [0] * (need - len(C))
            for j in range(len(B)):
                C[j + m] = ctx.sub(C[j + m], ctx.mul(coef, B[j]))
            L = i + 1 - L
            B = T
            b = d
            m = 1
        else:
            need = len(B) + m
            if len(C) < need:
                C = C + [0] * (need - len(C))
            for j in range(len(B)):
                C[j + m] = ctx.sub(C[j + m], ctx.mul(coef, B[j]))
            m += 1
    # minimal polynomial: x^L * C(1/x), i.e. reversed connection coefficients
    mono = [0] * (L + 1)
    mono[L] = 1
    for j in range(1, min(L, len(C) - 1) + 1):
        mono[L - j] = C[j]
    return UPoly(ctx, mono).monic()


_F4 = build_extension(2, 4, random.Random(1))
BM_FIELDS = {
    "F2": F2,
    "F65537": F65537,
    "F(2^31-1)": PrimeField(2**31 - 1),
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F4^2 (tower)": extend_field(_F4, 16, random.Random(2)),
    "F101^2 (no tables)": build_extension(101, 101**2, random.Random(4)),
}


@pytest.mark.parametrize("name", sorted(BM_FIELDS))
def test_berlekamp_massey_edge_sequences_match_scalar(name):
    F = BM_FIELDS[name]
    for seq in ([], [0] * 9, [1], [F.q - 1], [0, 0, 0, 1], [0, 0, 0, 1, 0, 0, 0]):
        got = berlekamp_massey(F, seq)
        assert got == _berlekamp_massey_scalar(F, seq), seq
        assert got.c[-1] == 1


@given(
    name=st.sampled_from(sorted(BM_FIELDS)),
    order=st.integers(0, 8),
    n=st.integers(0, 40),
    lead_zeros=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_berlekamp_massey_matches_scalar_on_lfsr_outputs(name, order, n, lead_zeros, seed):
    F = BM_FIELDS[name]
    rng = random.Random(seed)
    taps = [F.sample(rng) for _ in range(order)]
    s = [0] * min(lead_zeros, order) + [F.sample(rng) for _ in range(order - min(lead_zeros, order))]
    while len(s) < n:  # s_t = -sum_j taps_j s_{t-order+j}
        acc = 0
        for j in range(order):
            acc = F.add(acc, F.mul(taps[j], s[len(s) - order + j]))
        s.append(F.neg(acc))
    s = s[:n]
    got = berlekamp_massey(F, s)
    assert got == _berlekamp_massey_scalar(F, s)
    if n >= 2 * order:  # a long enough prefix pins a divisor of the recurrence
        assert UPoly(F, taps + [1]).rem(got).is_zero


def test_gcd_lcm():
    rng = random.Random(8)
    for _ in range(20):
        a = UPoly.random(F101, 4, rng, monic=True)
        b = UPoly.random(F101, 3, rng, monic=True)
        g = pgcd(a * b, b)
        assert b.rem(g).is_zero
        l = plcm(a, b)
        assert l.rem(a).is_zero and l.rem(b).is_zero


def test_extension_field_polys():
    rng = random.Random(9)
    F64 = build_extension(2, 48, rng)
    f = UPoly.random(F64, 6, rng)
    g = UPoly.random(F64, 4, rng)
    q, r = (f * g).divrem(g)
    assert q == f and r.is_zero
    d, u, v = xgcd(f, g)
    assert u * f + v * g == d


# ---------------------------------------------------------------------------
# xgcd and pgcd on one code block, against the UPoly Euclid

EUCLID_FIELDS = {name: BM_FIELDS[name] for name in ("F2", "F4^2 (tower)", "F7^3", "F65537", "F(2^31-1)")}
EUCLID_FIELDS["F65537^2"] = build_extension(65537, 65538, random.Random(4))


def _xgcd_reference(f, g):
    """The UPoly Euclid xgcd replaced: one divrem, two products and two
    subtractions per step, then the monic scaling."""
    ctx = f.ctx
    r0, r1 = f, g
    u0, u1 = UPoly.one(ctx), UPoly.zero(ctx)
    v0, v1 = UPoly.zero(ctx), UPoly.one(ctx)
    while not r1.is_zero:
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    s = ctx.inv(int(r0.c[-1]))
    return r0.scale(s), u0.scale(s), v0.scale(s)


def _pgcd_reference(f, g):
    r0, r1 = f, g
    while not r1.is_zero:
        r0, r1 = r1, r0.rem(r1)
    return r0.monic()


def _euclid_cases(F, rng):
    """(f, g) pairs: random (either degree order), a planted common factor,
    constants, zero operands, equal and associate operands, and remainder
    sequences whose every quotient has degree 2."""
    def R(deg):
        return UPoly.random(F, deg, rng)

    zero = UPoly.zero(F)
    cases = [(R(rng.randrange(0, 10)), R(rng.randrange(0, 10))) for _ in range(12)]
    for _ in range(6):
        h = R(rng.randrange(1, 4))
        cases.append((R(rng.randrange(0, 6)) * h, R(rng.randrange(0, 6)) * h))
    cases += [(R(2), R(7)), (R(0), R(5)), (R(5), R(0)), (R(0), R(0)), (R(6), zero), (zero, R(3)), (zero, zero)]
    f = R(5)
    cases += [(f, f), (f, f.scale(F.q - 1)), (R(0), R(0).scale(F.q - 1))]
    # r_{i-1} = q_i r_i + r_{i+1} with deg q_i = 2, built from the gcd upwards
    lo = R(1)
    hi = R(2) * lo
    for _ in range(3):
        lo, hi = hi, R(2) * hi + lo
    cases += [(hi, lo), (lo, hi)]
    return cases


@pytest.mark.parametrize("name", sorted(EUCLID_FIELDS))
def test_xgcd_and_pgcd_match_upoly_euclid(name):
    F, rng = EUCLID_FIELDS[name], random.Random(f"euclid-{name}")
    for f, g in _euclid_cases(F, rng):
        assert pgcd(f, g) == _pgcd_reference(f, g), (f, g)
        if f.is_zero and g.is_zero:
            assert pgcd(f, g).is_zero
            with pytest.raises(ValueError):
                xgcd(f, g)
            continue
        assert xgcd(f, g) == _xgcd_reference(f, g), (f, g)


def _inverse_series_reference(f, prec):
    """The UPoly Newton iteration inverse_series replaced."""
    h = UPoly.const(f.ctx, f.ctx.inv(f.coeff(0)))
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        e = (f.trunc(k) * h).trunc(k)
        h = (h + h - (h * e).trunc(k)).trunc(k)
    return h.trunc(prec)


@pytest.mark.parametrize("name", sorted(EUCLID_FIELDS))
def test_inverse_series_matches_upoly_newton(name):
    F, rng = EUCLID_FIELDS[name], random.Random(f"inverse-series-{name}")
    for deg in (0, 1, 3, 8, 40):
        f = UPoly.random(F, deg, rng)
        while f.coeff(0) == 0:
            f = UPoly.random(F, deg, rng)
        for prec in (0, 1, 2, 3, 7, 16, 33, 100):
            h = inverse_series(f, prec)
            assert h == _inverse_series_reference(f, prec), (deg, prec)
            assert (f * h).trunc(prec) == UPoly.one(F).trunc(prec)
    with pytest.raises(ZeroDivisionError):
        inverse_series(UPoly(F, [0, 1]), 4)


@given(
    name=st.sampled_from(sorted(EUCLID_FIELDS)),
    df=st.integers(0, 12),
    dg=st.integers(0, 12),
    dh=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_xgcd_bezout_identity_and_degree_bounds(name, df, dg, dh, seed):
    F, rng = EUCLID_FIELDS[name], random.Random(seed)
    h = UPoly.random(F, dh, rng)
    f, g = UPoly.random(F, df, rng) * h, UPoly.random(F, dg, rng) * h
    d, u, v = xgcd(f, g)
    assert d == u * f + v * g and d.c[-1] == 1
    assert f.rem(d).is_zero and g.rem(d).is_zero and d.rem(h).is_zero
    if f.monic() == g.monic():  # associates: d = g / lc(g)
        assert u.is_zero and v == UPoly.const(F, F.inv(g.coeff(g.deg)))
    else:
        assert u.deg < g.deg - d.deg and v.deg < f.deg - d.deg


# ---------------------------------------------------------------------------
# common_generator: one Berlekamp-Massey run plus annihilation checks

CG_FIELDS = {name: BM_FIELDS[name] for name in ("F2", "F4^2 (tower)", "F7^3", "F65537", "F(2^31-1)")}


def _lcm_of_generators(ctx, seqs):
    """The reference common_generator must reproduce exactly."""
    return functools.reduce(plcm, (berlekamp_massey(ctx, s) for s in seqs), UPoly.one(ctx))


def _counted_common_generator(monkeypatch, ctx, seqs):
    """common_generator(ctx, seqs) and its number of Berlekamp-Massey runs."""
    calls = []

    def counting(ctx, seq):
        calls.append(len(seq))
        return berlekamp_massey(ctx, seq)

    monkeypatch.setattr(sylres.upoly, "berlekamp_massey", counting)
    got = common_generator(ctx, seqs)
    monkeypatch.undo()
    return got, len(calls)


def _lfsr(F, g: UPoly, init, n):
    """n terms of the sequence with the given first deg g terms that the
    monic g annihilates: s_t = -sum_{j < deg g} g_j s_{t - deg g + j}."""
    s = list(init)
    L = g.deg
    while len(s) < n:
        acc = 0
        for j in range(L):
            acc = F.add(acc, F.mul(g.coeff(j), s[len(s) - L + j]))
        s.append(F.neg(acc))
    return s[:n]


def _projection_basis(F, rng, d, e):
    for _ in range(200):
        basis = IdealBasis(BiPoly.random(F, d, e, rng), BiPoly.random(F, d, e, rng))
        if is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis)):
            return basis
    raise AssertionError(f"no column-reduced basis of bidegree ({d}, {e}) over {F!r}")


@pytest.mark.parametrize("name", sorted(CG_FIELDS))
def test_common_generator_matches_lcm_on_power_projections(name, monkeypatch):
    F = CG_FIELDS[name]
    rng = random.Random(f"common-generator-{name}")
    for d, e in ((1, 2), (2, 2), (3, 2)):
        basis = _projection_basis(F, rng, d, e)
        forms = [LinearForm.random(basis, rng) for _ in range(3)]
        full = 4 * d * e
        for N in (full, full - 1, d * e, 3):
            seqs = _power_projections(basis, forms, N)
            got, runs = _counted_common_generator(monkeypatch, F, seqs)
            assert got == _lcm_of_generators(F, seqs), (d, e, N)
            assert 1 <= runs <= 3


@pytest.mark.parametrize("name", sorted(CG_FIELDS))
def test_common_generator_runs_once_on_one_recurrence(name, monkeypatch):
    F = CG_FIELDS[name]
    rng = random.Random(f"one-recurrence-{name}")
    g = UPoly.random(F, 6, rng, monic=True)
    seqs = [_lfsr(F, g, [F.sample(rng) for _ in range(6)], 16) for _ in range(4)]
    got, runs = _counted_common_generator(monkeypatch, F, seqs)
    assert got == _lcm_of_generators(F, seqs) == g
    assert runs == 1  # every row, of full or lower complexity, passes the check


@pytest.mark.parametrize("name", sorted(CG_FIELDS))
def test_common_generator_adversarial_rows(name, monkeypatch):
    F = CG_FIELDS[name]
    rng = random.Random(f"adversarial-{name}")

    def rand_row(n):
        return [F.sample(rng) for _ in range(n)]

    def lfsr_row(deg, n, xpow=0):
        g = UPoly.random(F, deg, rng, monic=True).shift(xpow)
        return _lfsr(F, g, [1] + rand_row(g.deg - 1), n) if g.deg else [0] * n

    def check(seqs, runs=None):
        got, counted = _counted_common_generator(monkeypatch, F, seqs)
        assert got == _lcm_of_generators(F, seqs), seqs
        assert got.c[-1] == 1
        if runs is not None:
            assert counted == runs, seqs

    # an all-zero first row: generator 1, so every nonzero row falls back
    check([[0] * 12, lfsr_row(3, 12)], runs=2)
    check([[0] * 12, [0] * 12], runs=1)
    # a second row of higher linear complexity than the first: the check fails
    check([lfsr_row(2, 20), lfsr_row(5, 20)], runs=2)
    # 2D > N: near-random rows of odd length
    for n in (7, 9, 15):
        check([rand_row(n), rand_row(n), rand_row(n)], runs=3)
    # pre-periodic rows: generators with x-power factors
    n = 10
    one_at = [[int(i == k) for i in range(n)] for k in range(4)]  # generators x^(k+1)
    check([one_at[0], one_at[2]], runs=2)
    check([one_at[2], one_at[0], one_at[1]], runs=1)  # x^3 annihilates both prefixes
    check([lfsr_row(2, 14, xpow=2), lfsr_row(2, 14, xpow=1), lfsr_row(1, 14, xpow=3)])
    # the check passes for a row generated by a divisor of the first generator
    g1, g2 = UPoly.random(F, 2, rng, monic=True), UPoly.random(F, 2, rng, monic=True)
    first = _lfsr(F, g1 * g2, [0, 0, 0, 1], 16)  # impulse responses: complexity = degree
    second = _lfsr(F, g2, [0, 1], 16)
    assert berlekamp_massey(F, first) == g1 * g2
    check([first, second], runs=1)
    # the shortest prefixes
    for n in (0, 1, 2):
        check([[0] * n, rand_row(n)])
        check([rand_row(n), rand_row(n), [0] * n])
        check([[1] * n, [F.q - 1] * n])
    check(np.zeros((3, 0), dtype=np.int64))
    assert common_generator(F, []) == UPoly.one(F)
