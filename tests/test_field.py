import itertools
import random

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
    sample_uniform,
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
            x, y, z = (sample_uniform(F, rng) for _ in range(3))
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
        x = sample_uniform(F, rng)
        assert F.pow_(x, 64) == x  # Frobenius fixed point: x^(q) = x
        if x:
            assert F.mul(x, F.inv(x)) == 1
    # field axioms on random triples
    for _ in range(30):
        x, y, z = (sample_uniform(F, rng) for _ in range(3))
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
        x = sample_uniform(T, rng)
        if x:
            assert T.mul(x, T.inv(x)) == 1
        assert T.pow_(x, T.q) == x


def test_sampling_determinism_and_uniformity():
    F = PrimeField(2)
    a = [sample_uniform(F, random.Random(42)) for _ in range(10)]
    b = [sample_uniform(F, random.Random(42)) for _ in range(10)]
    assert a == b
    rng = random.Random(123)
    draws = [sample_uniform(F, rng) for _ in range(10000)]
    freq = sum(draws) / len(draws)
    assert 0.45 <= freq <= 0.55
    G = PrimeField(65537)
    s1 = [sample_uniform(G, random.Random(1)) for _ in range(64)]
    s2 = [sample_uniform(G, random.Random(2)) for _ in range(64)]
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
