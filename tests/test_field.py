import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from sylres.field import (
    ExtField,
    FieldError,
    PrimeField,
    build_extension,
    extend_field,
    is_probable_prime,
    random_irreducible,
    _is_irreducible,
)
from sylres.upoly import UPoly


def test_primality():
    assert is_probable_prime(2)
    assert is_probable_prime(65537)
    assert is_probable_prime(2013265921)
    assert not is_probable_prime(1)
    assert not is_probable_prime(65536)
    assert not is_probable_prime(3 * 254 + 1)


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        PrimeField(91)


def test_scalar_arithmetic_f7():
    F = PrimeField(7)
    assert F.mul(3, 5) == 1  # 15 mod 7
    assert F.add(6, 6) == 5
    assert F.sub(0, 1) == 6
    for x in range(1, 7):
        assert F.mul(x, F.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for F in (PrimeField(2), PrimeField(101), PrimeField(65537)):
        for _ in range(50):
            x, y, z = (F.sample(rng) for _ in range(3))
            assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
            assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
            assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
            if x:
                assert F.mul(x, F.inv(x)) == 1


def test_vector_ops_match_scalar():
    rng = random.Random(11)
    F = PrimeField(101)
    a = F.rand_array(rng, 64)
    b = F.rand_array(rng, 64)
    assert np.array_equal(F.vadd(a, b), [(int(x) + int(y)) % 101 for x, y in zip(a, b)])
    assert np.array_equal(F.vmul(a, b), [(int(x) * int(y)) % 101 for x, y in zip(a, b)])
    nz = a.copy()
    nz[nz == 0] = 1
    inv = F.vinv(nz)
    assert np.all((nz * inv) % 101 == 1)


def test_convolution_against_schoolbook():
    rng = random.Random(3)
    for p in (2, 7, 101, 65537):
        F = PrimeField(p)
        for la, lb in ((1, 1), (5, 9), (64, 64), (200, 130), (513, 777), (65, 300), (300, 70)):
            a = F.rand_array(rng, la)
            b = F.rand_array(rng, lb)
            got = F.conv(a, b)
            want = np.zeros(la + lb - 1, dtype=object)
            for i in range(la):
                for j in range(lb):
                    want[i + j] += int(a[i]) * int(b[j])
            want = np.array([int(v) % p for v in want], dtype=np.int64)
            assert np.array_equal(got, want), (p, la, lb)


def test_build_extension_minimal():
    rng = random.Random(0)
    F64 = build_extension(2, 48, rng)
    assert F64.q == 64 and F64.k == 6  # 2^6 = 64 >= 48, 2^5 = 32 < 48
    F = build_extension(65537, 10, rng)
    assert isinstance(F, PrimeField) and F.k == 1


def test_random_irreducible_has_no_small_factor():
    # brute-force check over F_2: no root and no factor of degree <= 3
    rng = random.Random(5)
    F2 = PrimeField(2)
    m = random_irreducible(F2, 6, rng)

    for mask in range(1, 16):  # all nonzero polys of degree <= 3 over F_2
        cand = UPoly(F2, [(mask >> i) & 1 for i in range(4)])
        if cand.deg < 1:
            continue
        rem = UPoly(F2, m).divrem(cand)[1]
        assert not rem.is_zero, f"degree-{cand.deg} factor found"


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def test_irreducible_count_matches_necklace_formula():
    # monic irreducibles of degree n over F_q number (1/n) sum_{d|n} mu(d) q^(n/d)
    F2, F3 = PrimeField(2), PrimeField(3)
    F4 = build_extension(2, 4, random.Random(1))
    for F, degrees in ((F2, range(1, 7)), (F3, range(1, 5)), (F4, [2])):
        for n in degrees:
            want = sum(_mobius(d) * F.q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
            got = sum(
                _is_irreducible(F, np.array(low + (1,), dtype=np.int64))
                for low in itertools.product(range(F.q), repeat=n)
            )
            assert got == want, (F, n)


def test_extension_arithmetic_and_frobenius():
    rng = random.Random(9)
    F = build_extension(2, 48, rng)  # F_64
    for _ in range(20):
        x = F.sample(rng)
        assert F.pow_(x, 64) == x  # Frobenius fixed point: x^(q) = x
        if x:
            assert F.mul(x, F.inv(x)) == 1
    # field axioms on random triples
    for _ in range(30):
        x, y, z = (F.sample(rng) for _ in range(3))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


def test_extension_convolution_roundtrip():
    rng = random.Random(21)
    F = build_extension(7, 30, rng)  # F_49
    a = F.rand_array(rng, 9)
    b = F.rand_array(rng, 7)
    got = F.conv(a, b)
    want = np.zeros(15, dtype=np.int64)
    for i in range(9):
        for j in range(7):
            want[i + j] = F.add(int(want[i + j]), F.mul(int(a[i]), int(b[j])))
    assert np.array_equal(got, want)


def test_tower_extension():
    rng = random.Random(2)
    F49 = build_extension(7, 30, rng)
    T = extend_field(F49, 1000, rng)  # tower over F_49
    assert T.q == 49**2
    for _ in range(10):
        x = T.sample(rng)
        if x:
            assert T.mul(x, T.inv(x)) == 1
        assert T.pow_(x, T.q) == x


def test_sampling_determinism_and_uniformity():
    F = PrimeField(2)
    a = [F.sample(random.Random(42)) for _ in range(10)]
    b = [F.sample(random.Random(42)) for _ in range(10)]
    assert a == b
    rng = random.Random(123)
    draws = [F.sample(rng) for _ in range(10000)]
    freq = sum(draws) / len(draws)
    assert 0.45 <= freq <= 0.55
    G = PrimeField(65537)
    s1 = [G.sample(random.Random(1)) for _ in range(64)]
    s2 = [G.sample(random.Random(2)) for _ in range(64)]
    assert s1 != s2


def _digit_loop(F, codes):
    """Base-Q digits by repeated division: the arithmetic decode."""
    digits = np.empty(codes.shape + (F.deg,), dtype=np.int64)
    t = codes.copy()
    for i in range(F.deg):
        digits[..., i] = t % F.base.q
        t //= F.base.q
    return digits


def _undigit_loop(F, digits):
    acc = np.zeros(digits.shape[:-1], dtype=np.int64)
    for i in range(F.deg - 1, -1, -1):
        acc = acc * F.base.q + digits[..., i]
    return acc


@pytest.mark.parametrize(
    "F",
    [
        build_extension(7, 343, random.Random(3)),
        build_extension(3, 243, random.Random(5)),
        extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2)),
    ],
    ids=["F7^3", "F3^5", "F4^2 (tower)"],
)
def test_table_decode_encode_match_digit_loop(F):
    assert F._digits is not None  # small enough to keep the digit table
    codes = np.arange(F.q, dtype=np.int64)
    want = _digit_loop(F, codes)
    assert np.array_equal(F.decode(codes), want)
    assert np.array_equal(F.decode(codes.reshape(-1, 1)), want.reshape(-1, 1, F.deg))
    assert np.array_equal(F.encode(want), codes)
    assert np.array_equal(F.encode(want), _undigit_loop(F, want))
    for x in (0, 1, F.q - 1):
        assert np.array_equal(F.decode(x), want[x])
        assert int(F.encode(want[x])) == x


def test_arithmetic_decode_above_table_limit():
    F = build_extension(101, 101**2, random.Random(4))
    assert F._digits is None
    codes = np.array([0, 1, 100, 101, F.q - 1], dtype=np.int64)
    assert np.array_equal(F.decode(codes), _digit_loop(F, codes))
    assert np.array_equal(F.encode(F.decode(codes)), codes)


def test_prime_vsum_exact_near_2_31():
    p = 2**31 - 1
    F = PrimeField(p)
    a = np.full(10**5, p - 1, dtype=np.int64)
    assert int(F.vsum(a)) == (10**5 * (p - 1)) % p
    rows = np.stack([a, np.arange(10**5, dtype=np.int64)])
    assert F.vsum(rows).tolist() == [(10**5 * (p - 1)) % p, sum(range(10**5)) % p]
    assert int(F.vsum(np.zeros(0, dtype=np.int64))) == 0


_VDOT_FIELDS = {
    "F2": PrimeField(2),
    "F7": PrimeField(7),
    "F65537": PrimeField(65537),
    "2^31-1": PrimeField(2**31 - 1),
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F4^2 (tower)": extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2)),
    # above the log-table limit: dot_map works on digit planes
    "F101^2": build_extension(101, 101**2, random.Random(4)),
    "F65537^2": build_extension(65537, 65537**2, random.Random(4)),
    "F101^2^2 (tower)": extend_field(
        build_extension(101, 101**2, random.Random(4)), 101**4, random.Random(5)
    ),
}


def _scalar_dot(F, a, x):
    acc = 0
    for u, v in zip(a.tolist(), x.tolist()):
        acc = F.add(acc, F.mul(u, v))
    return acc


@pytest.mark.parametrize("F", list(_VDOT_FIELDS.values()), ids=list(_VDOT_FIELDS))
def test_vdot_and_dot_map_match_vsum_vmul(F):
    rng = random.Random(11)
    for K in (0, 1, 7, 64):
        x = F.rand_array(rng, K)
        a = F.rand_array(rng, K)
        A = F.rand_array(rng, 5 * K).reshape(5, K)
        want = F.vsum(F.vmul(A, x))
        assert want.tolist() == [_scalar_dot(F, row, x) for row in A]
        assert int(F.vdot(a, x)) == int(F.dot_map(a)(x)) == _scalar_dot(F, a, x)
        for got in (F.vdot(A, x), F.dot_map(A)(x)):
            assert got.shape == (5,)
            assert np.array_equal(got, want)
        # one prepared map applied to several vectors
        apply = F.dot_map(A)
        for _ in range(3):
            y = F.rand_array(rng, K)
            assert np.array_equal(apply(y), F.vsum(F.vmul(A, y)))
    top = np.full(33, F.q - 1, dtype=np.int64)
    assert int(F.vdot(top, top)) == int(F.dot_map(top)(top)) == _scalar_dot(F, top, top)


@pytest.mark.parametrize("K", [2**15, 2**16 + 1])
def test_prime_vdot_exact_past_the_single_product_gate(K):
    # K (p-1)^2 >= 2**63 here, so the product runs on 16-bit limbs of x, and
    # at K > 2**16 even one limb product could overflow
    p = 2**31 - 1
    F = PrimeField(p)
    top = np.full(K, p - 1, dtype=np.int64)
    want = K * (p - 1) ** 2 % p
    assert int(F.vdot(top, top)) == want
    x = F.rand_array(random.Random(12), K)
    A = np.stack([top, x])
    want = [sum((p - 1) * v for v in x.tolist()) % p, sum(v * v for v in x.tolist()) % p]
    for got in (F.vdot(A, x), F.dot_map(A)(x)):
        assert np.array_equal(got, F.vsum(F.vmul(A, x)))
        assert got.tolist() == want


def test_random_irreducible_gives_up(monkeypatch):
    import sylres.field as field

    calls = []
    monkeypatch.setattr(field, "_is_irreducible", lambda base, m: calls.append(1) and False)
    with pytest.raises(FieldError, match="no irreducible"):
        random_irreducible(PrimeField(7), 2, random.Random(1))
    assert len(calls) == 64
    calls.clear()
    with pytest.raises(FieldError):
        build_extension(2, 2**5, random.Random(1))
    assert len(calls) == 5 * 32


# -- exact convolution over F_p: schoolbook and limb-split float FFT --------

from sylres import _backend  # noqa: E402

_CONV_PRIMES = [2, 3, 7, 65537, 2**31 - 1, 2147483629]


def _int_conv(a, b, p):
    """Exact product by Kronecker substitution in Python integers: every
    coefficient gets a slot of hex digits wide enough that no carry crosses."""
    la, lb = len(a), len(b)
    width = (2 * (p - 1).bit_length() + min(la, lb).bit_length()) // 4 + 1

    def pack(v):
        return int("".join(f"{int(x):0{width}x}" for x in reversed(v.tolist())), 16)

    h = f"{pack(a) * pack(b):0{width * (la + lb - 1)}x}"
    n = len(h)
    return np.array([int(h[n - width * (i + 1) : n - width * i], 16) % p for i in range(la + lb - 1)])


def _loop_conv(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a.tolist()):
        for j, y in enumerate(b.tolist()):
            out[i + j] += x * y
    return np.array([v % p for v in out])


def _operands(p, la, lb, rng):
    yield np.array([rng.randrange(p) for _ in range(la)]), np.array([rng.randrange(p) for _ in range(lb)])
    # p - 1 centres to -1; p // 2 and p // 2 + 1 are the largest centred
    # magnitudes, of either sign
    for v in (p - 1, p // 2, (p // 2 + 1) % p, 0):
        yield np.full(la, v), np.full(lb, v)


def _assert_all_kernels(F, a, b, want):
    p = F.p
    for got in (F.conv(a, b), _backend.fft_conv_mod([(a, b)], p), _backend.conv_mod(a, b, p)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (p, len(a), len(b))


def test_int_conv_reference_matches_the_coefficient_loop():
    rng = random.Random(30)
    for p in _CONV_PRIMES:
        for la, lb in ((1, 1), (3, 8), (20, 13)):
            for a, b in _operands(p, la, lb, rng):
                assert np.array_equal(_int_conv(a, b, p), _loop_conv(a, b, p))


@pytest.mark.parametrize("p", _CONV_PRIMES)
def test_prime_conv_kernels_match_integer_reference(p):
    F = PrimeField(p)
    rng = random.Random(p)
    shapes = ((1, 1), (1, 300), (300, 1), (5, 17), (64, 64), (65, 65), (200, 200), (129, 700), (700, 129))
    for la, lb in shapes:
        for a, b in _operands(p, la, lb, rng):
            _assert_all_kernels(F, a, b, _int_conv(a, b, p))
    assert len(F.conv(np.zeros(0, dtype=np.int64), np.ones(5, dtype=np.int64))) == 0


def _limb_boundaries(p, limit):
    """Largest balanced length n <= limit at which the gate still picks each
    limb count below the one it picks at the limit (the gate is monotone)."""
    out = []
    n = 1
    while _backend.fft_limbs(p, n, n)[0] < _backend.fft_limbs(p, limit, limit)[0]:
        L = _backend.fft_limbs(p, n, n)[0]
        lo, hi = n, limit  # L(lo) == L < L(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _backend.fft_limbs(p, mid, mid)[0] == L else (lo, mid)
        out.append(lo)
        n = hi
    return out


@pytest.mark.parametrize("p", [65537, 2**31 - 1, 2147483629])
def test_fft_exact_at_the_limb_count_boundaries(p):
    F = PrimeField(p)
    rng = random.Random(31)
    # centred limbs keep one limb (F_65537) or two (p near 2**31) past 4096
    bounds = _limb_boundaries(p, 16384)
    assert bounds  # both sides of at least one boundary run below 16384
    for n in bounds:
        assert _backend.fft_limbs(p, n, n)[0] < _backend.fft_limbs(p, n + 1, n + 1)[0]
        for m in (n, n + 1):
            for a, b in _operands(p, m, m, rng):
                _assert_all_kernels(F, a, b, _int_conv(a, b, p))


def test_fft_gate_never_picks_fewer_limbs_as_operands_grow():
    for p in _CONV_PRIMES:
        for lb_of in (lambda n: n, lambda n: 8 * n, lambda n: 1):
            limbs = [_backend.fft_limbs(p, n, lb_of(n))[0] for n in (2**i for i in range(1, 24))]
            assert limbs == sorted(limbs), p
        grown = [_backend.fft_limbs(p, n, n)[0] for n in (2, 2**23)]
        if p > 7:
            assert grown[0] < grown[1], p
    # past the bound even one-bit limbs would round inexactly: refuse, never round
    with pytest.raises(ValueError):
        _backend.fft_limbs(2**31 - 1, 2**60, 2**60)


@pytest.mark.parametrize("p", [65537, 2**31 - 1])
def test_fft_exact_at_every_limb_count(monkeypatch, p):
    # raising the unit roundoff steps the gate, at one small length, through
    # every limb count that narrows the limbs: from the float64 choice up to
    # one-bit limbs
    bits = (p // 2).bit_length()
    widths = [-(-bits // L) for L in range(1, bits + 1)]
    pickable = {L for L in range(1, bits + 1) if L == 1 or widths[L - 1] < widths[L - 2]}
    rng = random.Random(32)
    seen = []
    eps = 2.0**-53
    while True:
        monkeypatch.setattr(_backend, "_FFT_EPS", eps)
        try:
            L = _backend.fft_limbs(p, 40, 33)[0]
        except ValueError:
            break
        seen.append(L)
        for a, b in _operands(p, 40, 33, rng):
            assert np.array_equal(_backend.fft_conv_mod([(a, b)], p), _int_conv(a, b, p)), (eps, L)
        eps *= 2**0.5
    assert seen == sorted(seen)
    assert set(seen) == {L for L in pickable if L >= seen[0]}
    assert seen[-1] == bits


def _limbs(p, v, L, w):
    """The kernel's limbs of v, read back through the inverse transform."""
    N = 1 << max(len(v) - 1, 1).bit_length()
    return np.rint(np.fft.irfft(_backend._limb_spectra([v], p, L, w, N)[0], N)[:, : len(v)]).astype(np.int64)


@pytest.mark.parametrize("p", _CONV_PRIMES)
def test_fft_gate_matches_the_documented_bound_on_the_kernel_limbs(p):
    # the gate's largest limb magnitude M is checked against the limbs the
    # kernel makes of the residues that reach it, and its choice of L
    # against the docstring's bound in exact arithmetic on both sides of
    # every limb boundary, for one and two pairs
    half = p // 2
    bits = half.bit_length()
    M = {}
    for L in range(1, bits + 1):
        w = -(-bits // L)
        tops = {half, (1 << w) - 1} if (1 << w) - 1 <= half else {half}
        v = np.array(sorted(tops | {p - t for t in tops} | {0, 1, p - 1}))
        limbs = _limbs(p, v, L, w)
        centred = np.where(v > half, v - p, v)
        assert np.array_equal((limbs << (w * np.arange(L))[:, None]).sum(axis=0), centred), (p, L)
        M[L] = int(np.abs(limbs).max())
        assert M[L] == min(half, (1 << w) - 1)

    def reference(n, K):
        N = 1 << (2 * n - 2).bit_length()
        for L in range(1, bits + 1):
            if Fraction(L * K * n * M[L] ** 2 * (16 * (N.bit_length() - 1) + L * K + 2), 2**53) < Fraction(1, 4):
                return L, -(-bits // L)
        return None  # past the bound: the gate refuses

    def gate(n, K):
        try:
            return _backend.fft_limbs(p, n, n, K)[:2]
        except ValueError:
            return None

    for K in (1, 2):
        # both sides of every limb count change up to lengths of 2**40
        sizes, n = {1, 2, 129, 4096}, 1
        while gate(n, K) is not None and n < 2**40:
            L = gate(n, K)
            lo, hi = n, 2**40
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if gate(mid, K) == L else (lo, mid)
            sizes |= {lo, hi}
            n = hi
        for n in sorted(sizes):
            assert gate(n, K) == reference(n, K), (p, n, K)


@pytest.mark.parametrize("p", _CONV_PRIMES)
def test_two_term_sums_match_integer_reference(p):
    # conv_sum is one spectral product for the FFT-sized pairs plus a
    # schoolbook product per short pair, on the same operands as conv
    F = PrimeField(p)
    rng = random.Random(33 + p)
    shapes = (((5, 17), (9, 4)), ((300, 200), (250, 260)), ((300, 200), (40, 500)), ((129, 700), (700, 1)))
    for (la, lb), (lc, ld) in shapes:
        for (a, b), (c, d) in zip(_operands(p, la, lb, rng), _operands(p, lc, ld, rng)):
            want = np.zeros(max(la + lb, lc + ld) - 1, dtype=np.int64)
            want[: la + lb - 1] += _int_conv(a, b, p)
            want[: lc + ld - 1] += _int_conv(c, d, p)
            want %= p
            assert np.array_equal(F.conv_sum([(a, b), (c, d)]), want), (p, la, lb, lc, ld)
            if min(la, lb, lc, ld) > 1:
                assert np.array_equal(_backend.fft_conv_mod([(a, b), (c, d)], p), want)
                # the second call reads b's and d's spectra from the memo
                memo = {}
                for _ in range(2):
                    assert np.array_equal(_backend.fft_conv_mod([(a, b), (c, d)], p, memo, ("b", "d")), want)
                assert len(memo) == 2


def test_schoolbook_limb_split_past_the_single_product_gate():
    # K (p-1)^2 >= 2**63 from K = 2: conv_mod splits the shorter operand into
    # 16-bit limbs; past K (p-1) (2**16-1) >= 2**63 it refuses instead
    p = 2**31 - 1
    top = np.full(3000, p - 1)
    for k in (1, 2, 3, 64):
        assert np.array_equal(_backend.conv_mod(top[:k], top, p), _int_conv(top[:k], top, p))
        assert np.array_equal(_backend.conv_mod(top, top[:k], p), _int_conv(top[:k], top, p))
    long = np.ones(2**17, dtype=np.int64)
    with pytest.raises(ValueError):
        _backend.conv_mod(long, long, p)


# -- extension fields: Kronecker-packed conv and the Itoh-Tsujii inverse ----


def _reference_reduce_planes(F, C):
    """The plane fold as a k x k loop of base multiplies."""
    k = F.deg
    out = C[..., :k].copy()
    for i in range(2 * k - 2, k - 1, -1):
        for j in range(k):
            term = F.base.vmul(C[..., i], np.int64(F._red[i - k][j]))
            out[..., j] = F.base.vadd(out[..., j], term)
    return out


def _reference_ext_conv(F, a, b):
    """Table schoolbook on codes for short operands of log-table fields, else
    one base conv per digit pair summed into 2k - 1 planes."""
    la, lb = len(a), len(b)
    if F._exp is not None and min(la, lb) <= 64:
        if la > lb:
            a, b, la, lb = b, a, lb, la
        out = np.zeros(la + lb - 1, dtype=np.int64)
        for i in range(la):
            if a[i]:
                out[i : i + lb] = F.vadd(out[i : i + lb], F.vmul(np.int64(a[i]), b))
        return out
    A, B = F.decode(a), F.decode(b)
    k = F.deg
    C = np.zeros((la + lb - 1, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            C[:, i + j] = F.base.vadd(C[:, i + j], F.base.conv(A[:, i], B[:, j]))
    return F.encode(_reference_reduce_planes(F, C))


_EXT_CONV_FIELDS = {
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F2^8": build_extension(2, 256, random.Random(6)),
    "F4^2 (tower)": extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2)),
    "F101^2": build_extension(101, 101**2, random.Random(4)),
    "F65537^2": build_extension(65537, 65537**2, random.Random(4)),
}


@pytest.mark.parametrize("F", list(_EXT_CONV_FIELDS.values()), ids=list(_EXT_CONV_FIELDS))
def test_ext_conv_matches_the_plane_loop_reference(F):
    rng = random.Random(40)
    for la, lb in ((1, 1), (1, 9), (9, 1), (30, 30), (64, 65), (70, 200)):
        for a, b in ((F.rand_array(rng, la), F.rand_array(rng, lb)), (np.full(la, F.q - 1), np.full(lb, F.q - 1))):
            got = F.conv(a, b)
            assert np.array_equal(got, _reference_ext_conv(F, a, b)), (F, la, lb)
    assert len(F.conv(np.zeros(0, dtype=np.int64), F.rand_array(rng, 3))) == 0
    # the folded planes also drive vmul without log tables
    C = np.array([F.base.rand_array(rng, 2 * F.deg - 1) for _ in range(20)])
    assert np.array_equal(F._reduce_planes(C), _reference_reduce_planes(F, C))


def _fermat_inv(F, a):
    acc, base, e = np.ones_like(a), a.copy(), F.q - 2
    while e:
        if e & 1:
            acc = F._vmul_planes(acc, base)
        base = F._vmul_planes(base, base)
        e >>= 1
    return acc


_NO_TABLE_FIELDS = {
    "F101^2": build_extension(101, 101**2, random.Random(4)),
    "F101^3": build_extension(101, 101**3, random.Random(7)),
    "F65537^2": build_extension(65537, 65537**2, random.Random(4)),
    "F101^2^2 (tower)": extend_field(build_extension(101, 101**2, random.Random(4)), 101**4, random.Random(5)),
}


@pytest.mark.parametrize("F", list(_NO_TABLE_FIELDS.values()), ids=list(_NO_TABLE_FIELDS))
def test_itoh_tsujii_inverse_matches_fermat(F):
    assert F._exp is None
    rng = random.Random(41)
    Q = F.base.q
    edge = [1, 2, Q - 1, Q, Q + 1, F.q - 1]
    a = np.concatenate([np.array(edge), 1 + F.rand_array(rng, 200) % (F.q - 1)])
    inv = F.vinv(a)
    assert np.array_equal(inv, _fermat_inv(F, a))
    assert np.all(F.vmul(a, inv) == 1)
    for x in edge:
        assert F.inv(x) == int(_fermat_inv(F, np.array([x]))[0])
    # base-field elements invert inside the base field
    assert np.array_equal(F.vinv(np.array([2, Q - 1])), F.base.vinv(np.array([2, Q - 1])))
    assert np.array_equal(F.vinv(a[:200].reshape(10, 20)), inv[:200].reshape(10, 20))
    with pytest.raises(ZeroDivisionError):
        F.vinv(np.array([3, 0, 5]))
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


# -- the plane product and the log tables against Python-int arithmetic ------


def _int_digits(F, x):
    return [x // F.base.q**i % F.base.q for i in range(F.deg)]


def _int_add(F, x, y):
    if not isinstance(F, ExtField):
        return (x + y) % F.p
    digits = [_int_add(F.base, u, v) for u, v in zip(_int_digits(F, x), _int_digits(F, y))]
    return sum(d * F.base.q**i for i, d in enumerate(digits))


def _int_mul(F, x, y):
    """x y on Python ints: the digit polynomials multiplied schoolbook and
    reduced by long division by the modulus, base arithmetic recursively
    down to the prime field."""
    if not isinstance(F, ExtField):
        return x * y % F.p
    B, k = F.base, F.deg
    xd, yd = _int_digits(F, x), _int_digits(F, y)
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] = _int_add(B, prod[i + j], _int_mul(B, xd[i], yd[j]))
    m = [int(c) for c in F.modulus]
    for top in range(2 * k - 2, k - 1, -1):
        c = _int_mul(B, F.p - 1, prod[top])  # -prod[top]: the code p - 1 is -1
        for s in range(k + 1):
            prod[top - k + s] = _int_add(B, prod[top - k + s], _int_mul(B, c, m[s]))
    return sum(d * B.q**i for i, d in enumerate(prod[:k]))


def _int_dot(F, row, x):
    acc = 0
    for u, v in zip(row, x):
        acc = _int_add(F, acc, _int_mul(F, u, v))
    return acc


_PLANE_FIELDS = {
    "F101^2": build_extension(101, 101**2, random.Random(4)),
    "F101^3": build_extension(101, 101**3, random.Random(7)),
    "F101^5": build_extension(101, 101**5, random.Random(8)),
    "F65537^2": build_extension(65537, 65537**2, random.Random(4)),
    "F65537^3": build_extension(65537, 65537**3, random.Random(9)),
    "F101^2^2 (tower)": extend_field(build_extension(101, 101**2, random.Random(4)), 101**4, random.Random(5)),
}


def _codes(F, rng, shape, edge):
    """Random codes of the given shape, led by the edge codes that fit."""
    n = int(np.prod(shape, dtype=int))
    codes = F.rand_array(rng, n)
    codes[: min(n, len(edge))] = edge[:n]
    return codes.reshape(shape)


@pytest.mark.parametrize("F", list(_PLANE_FIELDS.values()), ids=list(_PLANE_FIELDS))
def test_plane_product_matches_integer_reference(F):
    assert F._exp is None
    rng = random.Random(44)
    Q, q = F.base.q, F.q
    edge_a = [q - 1, q - 1, Q - 1, Q, 1, 0, Q + 1, q - Q]
    edge_b = [q - 1, Q, Q - 1, q - 1, q - 1, 5, Q * Q - 1, 1]
    for shape in ((), (1,), (7, 33), (0,)):
        a, b = _codes(F, rng, shape, edge_a), _codes(F, rng, shape, edge_b)
        want = [_int_mul(F, u, v) for u, v in zip(a.ravel().tolist(), b.ravel().tolist())]
        for got in (F.vmul(a, b), F._vmul_planes(a, b)):
            assert np.shape(got) == shape
            assert np.ravel(got).tolist() == want, (F, shape)
        if want:  # the scalar path goes through the same product
            assert F.mul(int(a.ravel()[0]), int(b.ravel()[0])) == want[0]
    for shape in ((1,), (33,), (7, 33), (0,), (7, 0)):
        A, x = _codes(F, rng, shape, edge_a), _codes(F, rng, shape[-1:], edge_b)
        got = F.dot_map(A)(x)
        assert np.shape(got) == shape[:-1]
        rows = A.reshape(int(np.prod(shape[:-1], dtype=int)), shape[-1]).tolist()
        want = [_int_dot(F, row, x.tolist()) for row in rows]
        assert np.ravel(got).tolist() == want, (F, shape)


def _reference_log_tables(F):
    """The exhaustive generator search: the first g >= 2 whose powers run
    through q - 1 distinct codes, tables filled during the walk."""
    q = F.q
    for g in range(2, q):
        exp, log, acc = [], {}, 1
        for i in range(q - 1):
            if acc in log:
                break  # g has smaller order
            exp.append(acc)
            log[acc] = i
            acc = _int_mul(F, acc, g)
        else:
            exp_table = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
            exp_table[: q - 1] = exp_table[q - 1 : 2 * (q - 1)] = exp
            log_table = np.array([2 * (q - 1)] + [log[c] for c in range(1, q)], dtype=np.int64)
            return exp_table, log_table
    raise AssertionError(f"{F!r} has no multiplicative generator")


_LOG_TABLE_FIELDS = {
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F2^8": build_extension(2, 256, random.Random(6)),
    "F3^5": build_extension(3, 243, random.Random(8)),
    "F89^2": build_extension(89, 89**2, random.Random(9)),
    "F4^2 (tower)": extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2)),
}


@pytest.mark.parametrize("F", list(_LOG_TABLE_FIELDS.values()), ids=list(_LOG_TABLE_FIELDS))
def test_log_tables_match_the_generator_search(F):
    exp, log = _reference_log_tables(F)
    assert np.array_equal(F._exp, exp)
    assert np.array_equal(F._log, log)


def test_log_tables_reject_a_ring_without_generator():
    # t^2 + 1 = (t + 2)(t + 3) over F_5: F_5[t]/<m> has zero divisors
    with pytest.raises(FieldError, match="generator"):
        ExtField(PrimeField(5), np.array([1, 0, 1]), check=False)


# -- one square-and-multiply and one Horner ----------------------------------

from sylres.field import FieldCtx, power  # noqa: E402


def test_power_matches_pow_with_bit_length_plus_popcount_minus_two_products():
    rng = random.Random(42)
    p = 2**31 - 1
    exps = [0, 1, 2] + [2**k - 1 for k in (2, 3, 7, 31)] + [2**k for k in (2, 3, 7, 31)]
    exps += [rng.randrange(3, 2**40) for _ in range(20)]
    for e in exps:
        calls = []

        def mul(u, v):
            calls.append(1)
            return u * v % p

        x = rng.randrange(2, p)
        assert power(x, e, mul, 1) == pow(x, e, p), e
        want_calls = e.bit_length() + bin(e).count("1") - 2 if e else 0
        assert len(calls) == want_calls, e
    # `one` comes back only for e = 0: the product never starts from it
    sentinel = object()
    assert power(7, 0, None, sentinel) is sentinel
    assert power(7, 1, None, sentinel) == 7
    assert power("ab", 5, lambda u, v: u + v, sentinel) == "ab" * 5


_HORNER_FIELDS = {
    "F2": PrimeField(2),
    "F4^2 (tower)": extend_field(build_extension(2, 4, random.Random(1)), 16, random.Random(2)),
    "F7^3": build_extension(7, 343, random.Random(3)),
    "F65537^2": build_extension(65537, 65537**2, random.Random(4)),
    "2^31-1": PrimeField(2**31 - 1),
}


def _scalar_horner(F, C, z):
    """sum_k C[k] z**k entry by entry, by scalar Horner over the broadcast
    operands."""
    C = np.asarray(C, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    shape = np.broadcast_shapes(C.shape[1:], z.shape)
    Cb = [np.broadcast_to(c, shape) for c in C]
    zb = np.broadcast_to(z, shape)
    out = np.zeros(shape, dtype=np.int64)
    for idx in np.ndindex(shape):
        acc = 0
        for c in Cb[::-1]:
            acc = F.add(F.mul(acc, int(zb[idx])), int(c[idx]))
        out[idx] = acc
    return out


@pytest.mark.parametrize("F", list(_HORNER_FIELDS.values()), ids=list(_HORNER_FIELDS))
def test_horner_matches_scalar_loop(F):
    rng = random.Random(43)
    # (coefficient shape, point shape) of each caller: multipoint_eval,
    # SylvMat.at, both grid_eval passes, and a mv_multipoint_eval axis
    shapes = [((5,), (7,)), ((4, 3), ()), ((3, 1, 4), (6, 1)), ((4, 6, 1), (1, 5)), ((3, 3, 1), (8,))]
    for n_coeffs in (0, 1, 2, 6):
        for cshape, zshape in shapes:
            cshape = (n_coeffs,) + cshape[1:]
            top = np.full(cshape, F.q - 1, dtype=np.int64)
            C = F.rand_array(rng, int(np.prod(cshape))).reshape(cshape)
            z = F.rand_array(rng, int(np.prod(zshape, dtype=int))).reshape(zshape)
            for cc, zz in ((C, z), (top, np.full(zshape, F.q - 1, dtype=np.int64)), (C, np.zeros(zshape, dtype=np.int64))):
                want = _scalar_horner(F, cc, zz)
                for got in (F.horner(cc, zz), FieldCtx.horner(F, cc, zz)):
                    assert got.shape == want.shape
                    assert np.array_equal(got, want), (F, cshape, zshape)
    # the result is a fresh array even for one coefficient
    C = np.array([[3, 1]])
    out = F.horner(C, np.array([1, 1]))
    out[0] = 0
    assert C[0, 0] == 3
