"""The one row reduction behind gauss_rank, gauss_det and gauss_inverse,
over characteristic 2, a towered extension, F_{7^3}, F_65537 and
p = 2^31 - 1."""

import itertools
import random

import numpy as np
import pytest

from sylres._dense import SingularMatrixError, gauss_det, gauss_inverse, gauss_rank

from test_array_path import FIELDS


def _matmul(ctx, A, B):
    return ctx.vsum(ctx.vmul(A[:, None, :], B.T[None, :, :]))


def _random_matrix(ctx, n, m, rng):
    return ctx.rand_array(rng, n * m).reshape(n, m)


def _nonsingular(ctx, n, rng):
    while True:
        M = _random_matrix(ctx, n, n, rng)
        if gauss_det(ctx, M):
            return M


def _leibniz_det(ctx, M):
    n = len(M)
    det = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = ctx.mul(term, int(M[i, j]))
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        det = ctx.add(det, ctx.neg(term) if inversions % 2 else term)
    return det


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_det_matches_leibniz_formula(name):
    ctx = FIELDS[name]
    rng = random.Random(71)
    for n in range(5):
        for _ in range(4):
            M = _random_matrix(ctx, n, n, rng)
            if n and rng.random() < 0.5:
                M[rng.randrange(n), rng.randrange(n)] = 0
            assert gauss_det(ctx, M) == _leibniz_det(ctx, M)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_inverse_and_determinant(name):
    ctx = FIELDS[name]
    rng = random.Random(72)
    for n in (1, 2, 5, 9):
        M = _nonsingular(ctx, n, rng)
        Minv = gauss_inverse(ctx, M)
        assert np.array_equal(_matmul(ctx, M, Minv), np.eye(n, dtype=np.int64))
        assert ctx.mul(gauss_det(ctx, M), gauss_det(ctx, Minv)) == 1


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repeated_row_is_singular(name):
    ctx = FIELDS[name]
    rng = random.Random(73)
    for n in (2, 4, 7):
        M = _random_matrix(ctx, n, n, rng)
        i, j = rng.sample(range(n), 2)
        M[j] = M[i]
        assert gauss_det(ctx, M) == 0
        with pytest.raises(SingularMatrixError):
            gauss_inverse(ctx, M)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rank_of_low_rank_product(name):
    ctx = FIELDS[name]
    rng = random.Random(74)
    for n, r, m in ((6, 3, 5), (4, 1, 7), (5, 5, 8), (7, 2, 2), (3, 0, 4)):
        # full-rank factors: a nonzero r x r minor in A (top rows) and B (left columns)
        A = np.vstack([_nonsingular(ctx, r, rng), _random_matrix(ctx, n - r, r, rng)])
        B = np.hstack([_nonsingular(ctx, r, rng), _random_matrix(ctx, r, m - r, rng)])
        perm = rng.sample(range(n), n)  # move the minor off the top rows
        assert gauss_rank(ctx, _matmul(ctx, A[perm], B)) == r
