"""Hot numeric kernels in numpy: exact convolution mod p (schoolbook for
short operands; for long ones a float FFT on small centred limbs, which sums
K products under one inverse transform) and exact products of residue
matrices in float64 BLAS.

All kernels work on int64 arrays of residues mod a prime p < 2**31.  Every
exact product that is not an FFT passes one gate (Gate): its accumulator,
int64 or float64, is exact when every partial sum is an integer it holds,
else one operand is split into limbs narrow enough that each limb product is.
"""

from __future__ import annotations

import functools
import math

import numpy as np

INT64_EXACT = (1 << 63) - 1  # every integer of magnitude at most this is an int64
FLOAT_EXACT = 1 << 53  # and at most this a float64 (a 53-bit significand)

# unit roundoff of float64; the FFT gate's only constant (tests raise it to
# force every limb count at small sizes)
_FFT_EPS = 2.0**-53


class Gate:
    """When a product whose every output sums at most K terms r * v, r a
    residue mod p and v an entry of the other operand, is exact in an
    accumulator holding every integer of magnitude at most `exact`.

    Proof.  Every term and every partial sum is an integer in
    [0, K (p-1)**2]; while that is at most `exact`, each product and each
    addition, fused or not, has a representable exact result, so none rounds
    or wraps, in any order of summation.  Past that, v is split into w-bit
    limbs, v = sum_s v_s 2**(w s) with 0 <= v_s <= 2**w - 1, and the same
    holds for each limb product while K (p-1)(2**w - 1) <= exact.  The
    thresholds depend on p and `exact` alone, so they are computed once
    (gate()), and a call compares K with them.
    """

    def __init__(self, p: int, exact: int):
        self.p = p
        self.bits = (p - 1).bit_length()
        self.single = exact // (p - 1) ** 2  # the largest K for one call
        self._limb_terms = exact // (p - 1)  # the largest K (2**w - 1)

    def width(self, K: int) -> int:
        """0 when K-term sums are exact in one call, else the widest limb
        width w with K (p-1)(2**w - 1) <= exact (then w < bits(p - 1))."""
        if K <= self.single:
            return 0
        w = (self._limb_terms // K + 1).bit_length() - 1
        if w == 0:
            raise ValueError(f"sums of {K} products mod {self.p} are not exact even on 1-bit limbs")
        return w

    def limb_mod(self, op, v: np.ndarray, K: int) -> np.ndarray:
        """op(v) % p for an op linear in v whose every output sums at most
        K products of a residue with an entry of v: one call, or one per
        w-bit limb of v, each reduced and joined by shifts (Horner from the
        top limb, which needs no mask; a reduced value shifted by w < 31
        bits stays below 2**62)."""
        p = self.p
        if K <= self.single:
            return op(v) % p
        w = self.width(K)
        mask, top = (1 << w) - 1, (self.bits - 1) // w * w
        out = op(v >> top) % p
        for s in range(top - w, -1, -w):
            out = ((out << w) + op((v >> s) & mask if s else v & mask) % p) % p
        return out


@functools.lru_cache(maxsize=None)
def gate(p: int, exact: int) -> Gate:
    """The one Gate for residues mod p in an accumulator exact to `exact`."""
    return Gate(p, exact)


def matmul_map(A: np.ndarray, p: int):
    """x -> A @ x mod p for a fixed residue array A (..., K) and residues x
    of shape (K,) or (K, c), in float64 BLAS under the float gate.  A is
    split into limbs when the gate asks (the bound is symmetric in the two
    factors, and A is fixed), and its limbs are stacked into one float64
    matrix once, so each call is one BLAS product and one reduction."""
    g = gate(p, FLOAT_EXACT)
    A = np.asarray(A, dtype=np.int64)
    K = A.shape[-1]
    w = g.width(K)
    planes = np.stack([(A >> s) & ((1 << w) - 1) for s in range(0, g.bits, w)]) if w else A
    lead = planes.shape[:-1]
    F = planes.reshape(math.prod(lead), K).astype(np.float64)

    def apply(x):
        P = (F @ x).astype(np.int64)
        P %= p
        P = P.reshape(lead + x.shape[1:])
        if not w:
            return P
        out = P[-1]  # the limb planes joined by shifts, as in Gate.limb_mod
        for plane in P[-2::-1]:
            out = ((out << w) + plane) % p
        return out

    return apply


def conv_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Full convolution of residue arrays mod p by np.convolve (schoolbook),
    exact under the int64 gate: each output sums at most len(shorter) terms."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 0:
        return np.zeros(0, dtype=np.int64)
    return gate(p, INT64_EXACT).limb_mod(lambda v: np.convolve(v, b), a, len(a))


def fft_limbs(p: int, la: int, lb: int, K: int = 1) -> tuple[int, int, int]:
    """Limb count L, limb width w and FFT length N for fft_conv_mod on K
    pairs whose first operands have at most la and second at most lb
    entries: the smallest L whose a priori rounding-error bound is below 1/4.

    Limbs.  A residue r is centred to c = r or r - p in [-(p//2), p//2]
    and |c| is split into L limbs of w = ceil(bits(p//2) / L) bits, each
    carrying the sign of c.  A limb is at most 2**w - 1 and at most |c|, so
    its magnitude is at most M = min(p//2, 2**w - 1).  (For p = 2, p//2 = 1
    keeps the residue 1 as 1; (p-1)//2 = 0 would leave it no room.)

    Bound.  A radix-2 FFT of length N = 2**n in floating point with unit
    roundoff eps adds, per stage, relative error at most eps for the
    butterfly add and sqrt(5) eps + beta for the twiddle product (sqrt(5)
    eps for a complex product: Brent, Percival and Zimmermann, "Error bounds
    on complex floating-point multiplication", Math. Comp. 2007; beta is the
    error of the stored twiddle, at most 2 eps here).  Percival ("Rapid
    multiplication modulo the sum and difference of highly composite
    numbers", Math. Comp. 2003) carries these through two forward
    transforms, the pointwise product and the inverse to

        |x*y computed - x*y|_inf <= |x|_2 |y|_2 ((1+eps)^3n (1+sqrt5 eps)^(3n+1) (1+beta)^3n - 1)
                                 ~  |x|_2 |y|_2 eps (3n (2 + sqrt5) + sqrt5)
                                 <= |x|_2 |y|_2 eps (16 n + 3),

    for real vectors of either sign, so it holds for signed limbs as it
    stands.  Output plane s is the sum, over the K pairs, of the at most L
    limb products x_i*y_j with i + j = s, formed by adding their spectra,
    which costs at most (L K - 1) eps more against the same norms.  As
    |x_i|_2 <= sqrt(la) M, the error in every plane is at most

        L K sqrt(la lb) M**2 eps (16 log2(N) + L K + 2).

    rint recovers the exact integer while this is below 1/2 (which also keeps
    every plane below 2**52); the gate asks for 1/4, a factor 2 for the
    second-order terms and for numpy's mixed radix-4/radix-2 passes in place
    of the radix-2 stages of the model.  More limbs make M smaller, so when
    operands grow the gate adds limbs and never rounds past the bound.
    """
    half = p // 2
    bits = half.bit_length()
    N = 1 << (la + lb - 2).bit_length()
    scale = math.sqrt(la * lb) * _FFT_EPS
    for L in range(1, bits + 1):
        w = -(-bits // L)
        LK = L * K
        if LK * scale * min(half, (1 << w) - 1) ** 2 * (16 * (N.bit_length() - 1) + LK + 2) < 0.25:
            return L, w, N
    raise ValueError(f"{K} pairs of lengths {la}, {lb} too long for an exact float FFT")


def _limb_spectra(vs, p: int, L: int, w: int, N: int) -> np.ndarray:
    """rfft of the centred limbs of every residue array in vs (see
    fft_limbs), zero-padded to N: shape (len(vs), L, N // 2 + 1)."""
    c = np.zeros((len(vs), N))
    for row, v in zip(c, vs):
        row[: len(v)] = v
    np.subtract(c, p, out=c, where=c > p // 2)
    if L > 1:
        shifts = w * np.arange(L, dtype=np.int64)[:, None]
        c = ((np.abs(c).astype(np.int64)[:, None] >> shifts) & ((1 << w) - 1)) * np.sign(c)[:, None]
    return np.fft.rfft(c).reshape(len(vs), L, -1)


def fft_conv_mod(pairs, p: int, memo: dict | None = None, keys=None) -> np.ndarray:
    """sum_k a_k * b_k mod p (full convolutions, zero-extended to the
    longest) for pairs (a_k, b_k) of nonempty residue arrays, by one float
    FFT product on L centred limbs of w bits per operand (see fft_limbs):
    one rfft of every operand's limbs, the limb-pair spectra of all pairs
    summed into 2L - 1 planes, one irfft, exact rounding, planes recombined
    by shifts mod p.  conv is the one-pair case.  When memo is a dict and
    keys[k] is not None, keys[k] names b_k: its spectrum is read from
    memo[(keys[k], L, N)] or transformed and stored there, so whoever owns
    memo owns the spectra and their lifetime."""
    K = len(pairs)
    la = max(len(a) for a, _ in pairs)
    lb = max(len(b) for _, b in pairs)
    L, w, N = fft_limbs(p, la, lb, K)
    tags = [None if memo is None or key is None else (key, L, N) for key in keys or (None,) * K]
    fb = [None if tag is None else memo.get(tag) for tag in tags]
    fresh = [k for k in range(K) if fb[k] is None]
    # each buffer is dropped once read, so a long product holds few at once
    f = _limb_spectra([a for a, _ in pairs] + [pairs[k][1] for k in fresh], p, L, w, N)
    for j, k in enumerate(fresh):
        fb[k] = f[K + j]
        if tags[k] is not None:
            memo[tags[k]] = fb[k].copy()
    spec = np.zeros((2 * L - 1, N // 2 + 1), dtype=np.complex128)
    for k in range(K):
        for i in range(L):
            spec[i : i + L] += f[k, i] * fb[k]
    del f, fb
    real = np.fft.irfft(spec, N)[:, : max(len(a) + len(b) - 1 for a, b in pairs)]
    del spec
    planes = np.rint(real, out=real).astype(np.int64)
    del real
    planes %= p
    out = planes[-1]
    for s in range(2 * L - 3, -1, -1):
        out = ((out << w) + planes[s]) % p
    return out


# Unused by sylres: kept only because perfbench/tracer.py names it (field.ntt row).
def ntt_mod(a: np.ndarray, p: int, tw: np.ndarray, bitrev: np.ndarray) -> np.ndarray:
    """Radix-2 NTT of a (length 2**k) with precomputed twiddles/bit-reversal."""
    n = len(a)
    a = a[bitrev]
    m = 1
    while m < n:
        w = tw[m - 1 : 2 * m - 1]
        blocks = a.reshape(-1, 2 * m)
        even = blocks[:, :m]
        odd = (blocks[:, m:] * w) % p
        a = np.concatenate(((even + odd) % p, (even - odd) % p), axis=1).reshape(-1)
        m *= 2
    return a
