"""Hot numeric kernels in numpy: schoolbook convolution, the radix-2 NTT and
many-point Horner evaluation.

All kernels work on int64 arrays of residues mod a prime p < 2**31, so a
single product fits in int64 and sums are reduced before they can overflow.
"""

from __future__ import annotations

import numpy as np


def conv_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Full convolution of residue arrays mod p (schoolbook-class)."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    # np.convolve keeps int64; chunk so each partial sum stays below 2**62.
    block = max(1, (1 << 62) // ((p - 1) * (p - 1) + 1))
    if min(len(a), len(b)) <= block:
        return np.convolve(a, b) % p
    if len(a) < len(b):
        a, b = b, a
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for lo in range(0, len(a), block):
        hi = min(lo + block, len(a))
        out[lo : hi + len(b) - 1] = (out[lo : hi + len(b) - 1] + np.convolve(a[lo:hi], b)) % p
    return out


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


def eval_many_mod(coeffs: np.ndarray, pts: np.ndarray, p: int) -> np.ndarray:
    """Horner evaluation of one polynomial at many points mod p."""
    acc = np.zeros(len(pts), dtype=np.int64)
    for c in coeffs[::-1]:
        acc = (acc * pts + c) % p
    return acc
