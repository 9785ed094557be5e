"""The four benchmark workloads: instance generation, the op, and its check.

Every library call goes through a `sylres.<name>` attribute with <name> in
`sylres.__all__` (the self-tests check this), looked up at call time so a
traced op runs through the tracer's wrappers.  Each op's instance and the
randomness handed to the op come from (workload, seed, op index) alone, so
a change that draws randomness differently inside the library cannot move
later instances, and instances are never filtered on the op's outcome.
"""

from __future__ import annotations

import random

import sylres

# outcomes of one checked op
OK = "ok"
CERTIFIED = "certified"  # correct and certified-resultant
FAILED = "failed"  # resultant_certified gave up (status failure)
MISMATCH = "mismatch"  # the output failed verification


def rng_for(workload: str, seed: int, index, purpose: str) -> random.Random:
    """Randomness for one op: string seeds hash with SHA-512, so the stream
    is the same in every process and Python version."""
    return random.Random(f"perfbench/{workload}/{seed}/{index}/{purpose}")


def column_reduced_basis(ctx, d: int, e: int, rng: random.Random):
    """Random a, b of bidegree (d, e), redrawn until S_x and S_y are column
    reduced, as `sylres bench` draws them.  The basis returned is a fresh
    object, so the op starts with cold per-ideal caches."""
    for _ in range(64):
        a = sylres.BiPoly.random(ctx, d, e, rng)
        b = sylres.BiPoly.random(ctx, d, e, rng)
        probe = sylres.IdealBasis(a, b)
        if sylres.is_column_reduced(sylres.build_Sy(probe)) and sylres.is_column_reduced(
            sylres.build_Sx(probe)
        ):
            return sylres.IdealBasis(a, b)
    raise RuntimeError(f"no column-reduced instance found for d={d}, e={e} over {ctx!r}")


class NormalFormNTT:
    """normal_form of f of bidegree (2(d-1), 2(n_y-1)), a fresh ideal per op."""

    name = "nf-ntt"

    def __init__(self, smoke: bool = False):
        self.ctx = sylres.PrimeField(65537)
        self.d = 3 if smoke else 32

    def instance(self, rng):
        basis = column_reduced_basis(self.ctx, self.d, self.d, rng)
        f = sylres.BiPoly.random(self.ctx, 2 * (basis.d - 1), 2 * (basis.ny - 1), rng)
        return basis, f

    def run(self, inst, rng):
        basis, f = inst
        return sylres.normal_form(basis, f)

    def check(self, inst, nf, rng):
        """nf lies in the (d, n_y) window and phi(f + q_a a + q_b b) == nf for
        random q's of the largest degrees that keep the input bidegree."""
        basis, f = inst
        if nf.deg_x >= basis.d or nf.deg_y >= basis.ny:
            return MISMATCH
        qx, qy = f.deg_x - basis.d, f.deg_y - basis.e
        qa = sylres.BiPoly.random(self.ctx, qx, qy, rng)
        qb = sylres.BiPoly.random(self.ctx, qx, qy, rng)
        g = f + sylres.bimul(qa, basis.a) + sylres.bimul(qb, basis.b)
        return OK if sylres.normal_form(basis, g) == nf else MISMATCH


class Resultant:
    """resultant_certified(a, b, rng) with the default options."""

    def __init__(self, name, p, d, smith_check, smoke=False):
        self.name = name
        self.ctx = sylres.PrimeField(p)
        self.d = 3 if smoke else d
        self.smith_check = smith_check

    def instance(self, rng):
        basis = column_reduced_basis(self.ctx, self.d, self.d, rng)
        return basis.a, basis.b

    def run(self, inst, rng):
        return sylres.resultant_certified(*inst, rng)

    def check(self, inst, report, rng):
        """A certified scale*sigma is the dense resultant; otherwise sigma
        divides it and, with smith_check, is the last dense Smith factor."""
        a, b = inst
        if report.status == "failure":
            return FAILED
        res = sylres.dense_resultant(a, b)
        if report.status == "certified-resultant":
            return CERTIFIED if report.sigma.scale(report.scale) == res else MISMATCH
        if not res.rem(report.sigma).is_zero:
            return MISMATCH
        if self.smith_check:
            smith = sylres.dense_smith(sylres.dense_form(sylres.build_Sy(sylres.IdealBasis(a, b))))
            if report.sigma != smith[-1]:
                return MISMATCH
        return OK


class ComposeBigPrime:
    """compose_rem of f with deg f = 4de - 1 over p = 2^31 - 1."""

    name = "compose-bigprime"

    def __init__(self, smoke: bool = False):
        self.ctx = sylres.PrimeField(2**31 - 1)
        self.d = 3 if smoke else 4

    def instance(self, rng):
        basis = column_reduced_basis(self.ctx, self.d, self.d, rng)
        bound = 4 * basis.d * basis.e
        f = sylres.UPoly.random(self.ctx, bound - 1, rng)
        return basis, f, sylres.KUParams.choose(bound)

    def run(self, inst, rng):
        return sylres.compose_rem(*inst)

    def check(self, inst, out, rng):
        """out == normal_form(basis, f(x))."""
        basis, f, _ = inst
        nf = sylres.normal_form(basis, sylres.BiPoly.from_upoly(f, "x"))
        return OK if out == nf else MISMATCH


def build(name: str, smoke: bool = False):
    """The workload called name; smoke selects tiny sizes for self-tests."""
    if name == "nf-ntt":
        return NormalFormNTT(smoke)
    if name == "resultant-prime":
        return Resultant(name, 65537, 12, smith_check=False, smoke=smoke)
    if name == "resultant-ext":
        return Resultant(name, 7, 4, smith_check=True, smoke=smoke)
    if name == "compose-bigprime":
        return ComposeBigPrime(smoke)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("nf-ntt", "resultant-prime", "resultant-ext", "compose-bigprime")
