"""Command-line surface: normal forms, invariant factors, elimination
generators, certified resultants, the dense Smith oracle, and a scaling
benchmark with CSV output.

Polynomial files are UTF-8 text, one term per line `c i j` meaning
c * x^i * y^j (j may be omitted for univariate files); `#` starts a
comment and repeated monomials are summed.  Output mirrors the same term
format.  Exit codes: 0 success, 1 usage or parse error, 2 computation
failure (including --verify-oracle above the dense oracles' dimension
gate), 3 oracle mismatch under --verify-oracle.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time

from . import _backend
from .bipoly import BiPoly, IdealBasis
from .field import ExtField, FieldError, PrimeField, random_irreducible
from .invariant import (
    STATUS_CERTIFIED,
    STATUS_FAILURE,
    InvariantOptions,
    RootsAtInfinityError,
    last_invariant_factor,
    elimination_generator,
    resultant_certified,
)
from .kucompose import FieldTooSmallError, KUParams, compose_rem
from .normalform import normal_form
from .oracle import OracleGateError, dense_resultant, dense_smith
from .sylvester import NotColumnReducedError, build_Sx, build_Sy, dense_form, is_column_reduced
from .upoly import UPoly


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise CliError(f"{self.prog}: error: {message}", 1)


# ---------------------------------------------------------------------------
# polynomial file format


def parse_poly_text(text: str, ctx) -> BiPoly:
    terms = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise CliError(f"line {lineno}: expected 'c i [j]', got {raw!r}", 1)
        try:
            c = int(parts[0]) % ctx.p
            i = int(parts[1])
            j = int(parts[2]) if len(parts) == 3 else 0
        except ValueError:
            raise CliError(f"line {lineno}: non-integer term in {raw!r}", 1)
        if i < 0 or j < 0:
            raise CliError(f"line {lineno}: negative exponent in {raw!r}", 1)
        terms.append((c, i, j))
    return BiPoly.from_terms(ctx, terms)


def read_poly(path: str, ctx) -> BiPoly:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_poly_text(fh.read(), ctx)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", 1)


def poly_terms(f) -> list:
    """Terms of a UPoly ([c, i]) or BiPoly ([c, i, j]), highest first."""
    if isinstance(f, UPoly):
        return [[f.coeff(i), i] for i in range(f.deg, -1, -1) if f.coeff(i)]
    out = []
    for j in range(f.deg_y, -1, -1):
        for i in range(f.deg_x, -1, -1):
            c = f.coeff(i, j)
            if c:
                out.append([c, i, j])
    return out


def format_terms(f) -> str:
    terms = poly_terms(f)
    if not terms:
        return "0 0"
    return "\n".join(" ".join(str(v) for v in t) for t in terms)


# ---------------------------------------------------------------------------
# shared helpers


def _field(args) -> PrimeField | ExtField:
    try:
        base = PrimeField(args.modulus)
        k = getattr(args, "ext_degree", 0)
        if k in (0, 1):
            return base
        if k < 0:
            raise CliError("--ext-degree must be nonnegative", 1)
        rng = random.Random(f"sylres-cli-ext-{args.modulus}-{k}")
        return ExtField(base, random_irreducible(base, k, rng), check=False)
    except FieldError as exc:
        raise CliError(str(exc), 1)


def _basis(args, ctx) -> IdealBasis:
    a = read_poly(args.a, ctx)
    b = read_poly(args.b, ctx)
    if a.is_zero or b.is_zero:
        raise CliError("input polynomials must be nonzero", 1)
    return IdealBasis(a, b)


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _report_payload(report, seed) -> dict:
    return {
        "status": report.status,
        "sigma_terms": poly_terms(report.sigma) if report.sigma is not None else [],
        "degree": report.sigma.deg if report.sigma is not None else -1,
        "trials": report.trials,
        "seed": seed,
        "timings_ns": report.timings_ns,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_nf(args) -> int:
    ctx = _field(args)
    basis = _basis(args, ctx)
    f = read_poly(args.f, ctx)
    t0 = time.perf_counter_ns()
    try:
        if args.algo == "ku":
            if f.deg_y > 0:
                raise CliError("--algo ku needs a univariate input (in x)", 1)
            fu = f.as_univariate("x")
            bound = max(fu.deg + 1, 3)
            params = KUParams.choose(bound, d_eps=args.d_eps or None)
            nf = compose_rem(basis, fu, params)
        else:
            nf = normal_form(basis, f)
    except (NotColumnReducedError, FieldTooSmallError) as exc:
        raise CliError(str(exc), 2)
    elapsed = time.perf_counter_ns() - t0
    if args.verify_oracle:
        if normal_form(basis, nf) != nf or not normal_form(basis, f - nf).is_zero:
            raise CliError("oracle mismatch: normal form failed replay checks", 3)
    payload = {
        "status": "ok",
        "sigma_terms": poly_terms(nf),
        "degree": max(nf.deg_x, nf.deg_y),
        "trials": 0,
        "seed": args.seed,
        "timings_ns": {"total": elapsed},
    }
    _emit(args, payload, format_terms(nf))
    return 0


def _invariant_command(args, runner, verify) -> int:
    if args.algo != "baseline":
        raise CliError("the invariant drivers only implement the baseline projection strategy", 1)
    ctx = _field(args)
    basis = _basis(args, ctx)
    rng = random.Random(args.seed)
    opts = InvariantOptions(trials=args.trials)
    try:
        report = runner(basis, rng, opts)
    except (RootsAtInfinityError, NotColumnReducedError) as exc:
        raise CliError(str(exc), 2)
    if report.status == STATUS_FAILURE:
        raise CliError("conditioning retries exhausted (computation failure)", 2)
    if args.verify_oracle:
        try:
            err = verify(basis, report)
        except OracleGateError as exc:
            raise CliError(f"cannot verify: {exc}", 2)
        if err:
            raise CliError(f"oracle mismatch: {err}", 3)
    out = report.sigma if report.status != STATUS_CERTIFIED else report.sigma.scale(report.scale)
    payload = _report_payload(report, args.seed)
    payload["sigma_terms"] = poly_terms(out)
    _emit(args, payload, format_terms(out))
    return 0


def _verify_last_factor(basis, report):
    facs = dense_smith(dense_form(build_Sy(basis)))
    if report.sigma != facs[-1]:
        return f"sigma != oracle last invariant factor {facs[-1]!r}"
    return None


def _verify_resultant(basis, report):
    res = dense_resultant(basis.a, basis.b)
    if report.status == STATUS_CERTIFIED:
        if report.sigma.scale(report.scale) != res:
            return "certified resultant != oracle resultant"
    elif not res.rem(report.sigma).is_zero:
        return "sigma does not divide the oracle resultant"
    return None


def cmd_invfact(args) -> int:
    return _invariant_command(
        args, lambda basis, rng, o: last_invariant_factor(basis.a, basis.b, rng, o), _verify_last_factor
    )


def cmd_elimgen(args) -> int:
    return _invariant_command(
        args, lambda basis, rng, o: elimination_generator(basis.a, basis.b, rng, o), _verify_last_factor
    )


def cmd_resultant(args) -> int:
    return _invariant_command(
        args, lambda basis, rng, o: resultant_certified(basis.a, basis.b, rng, o), _verify_resultant
    )


def cmd_smith_oracle(args) -> int:
    ctx = _field(args)
    basis = _basis(args, ctx)
    try:
        facs = dense_smith(dense_form(build_Sy(basis)))
    except Exception as exc:
        raise CliError(str(exc), 2)
    if args.json:
        print(json.dumps({"status": "ok", "factors": [poly_terms(f) for f in facs]}, sort_keys=True))
    else:
        for k, f in enumerate(facs, 1):
            print(f"# factor {k}")
            print(format_terms(f))
    return 0


# ---------------------------------------------------------------------------
# benchmark


def _bench_instance(ctx, d, e, seed):
    rng = random.Random(seed)
    for _ in range(64):
        a = BiPoly.random(ctx, d, e, rng)
        b = BiPoly.random(ctx, d, e, rng)
        basis = IdealBasis(a, b)
        if is_column_reduced(build_Sy(basis)) and is_column_reduced(build_Sx(basis)):
            return basis, rng
    raise CliError(f"no column-reduced instance found for d={d}, e={e}", 2)


def _bench_one(basis, rng, op, algo, trials):
    ctx = basis.ctx
    if op == "normal_form":
        f = BiPoly.random(ctx, max(2 * (basis.d - 1), 0), max(2 * (basis.ny - 1), 0), rng)
        t0 = time.perf_counter_ns()
        normal_form(basis, f)
        return time.perf_counter_ns() - t0, "ok"
    if op == "mul_mod":
        from .normalform import mul_mod

        f = BiPoly.random(ctx, basis.d - 1, basis.ny - 1, rng)
        g = BiPoly.random(ctx, basis.d - 1, basis.ny - 1, rng)
        t0 = time.perf_counter_ns()
        mul_mod(basis, f, g)
        return time.perf_counter_ns() - t0, "ok"
    if op == "invfact":
        t0 = time.perf_counter_ns()
        rep = last_invariant_factor(basis.a, basis.b, rng, InvariantOptions(trials=trials))
        return time.perf_counter_ns() - t0, rep.status
    if op == "resultant":
        t0 = time.perf_counter_ns()
        rep = resultant_certified(basis.a, basis.b, rng, InvariantOptions(trials=trials))
        return time.perf_counter_ns() - t0, rep.status
    if op == "compose_rem":
        bound = 4 * basis.d * basis.e
        f = UPoly.random(ctx, bound - 1, rng)
        try:
            params = KUParams.choose(bound)
            t0 = time.perf_counter_ns()
            compose_rem(basis, f, params)
            return time.perf_counter_ns() - t0, "ok"
        except FieldTooSmallError:
            return 0, "field-too-small"
    raise CliError(f"unknown bench op {op!r}", 1)


BENCH_OPS = ("normal_form", "mul_mod", "invfact", "resultant", "compose_rem")


def cmd_bench(args) -> int:
    ctx = _field(args)
    sizes = []
    if args.sizes.strip():
        for tok in args.sizes.split(","):
            tok = tok.strip()
            if ":" in tok:
                ds, es = tok.split(":", 1)
                sizes.append((int(ds), int(es)))
            else:
                sizes.append((int(tok), int(tok)))
    ops = [o.strip() for o in args.ops.split(",") if o.strip()]
    for o in ops:
        if o not in BENCH_OPS:
            raise CliError(f"unknown bench op {o!r} (choose from {', '.join(BENCH_OPS)})", 1)
    backends = ["numba", "numpy"] if args.compare_backends else [_backend.active_backend()]
    if "numba" in backends and not _backend.HAVE_NUMBA:
        backends = ["numpy"]

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["d", "e", "q", "algo", "seed", "op", "wall_ns", "status"])
        master = random.Random(args.seed)
        for d, e in sizes:
            for rep in range(args.seeds):
                inst_seed = master.randrange(2**32)
                basis, rng = _bench_instance(ctx, d, e, inst_seed)
                for op in ops:
                    state = rng.getstate()
                    for backend in backends:
                        prev = _backend.active_backend()
                        _backend.set_backend(backend)
                        rng.setstate(state)
                        try:
                            wall, status = _bench_one(basis, rng, op, args.algo, args.trials)
                        finally:
                            _backend.set_backend(prev)
                        label = f"{op}+{backend}" if args.compare_backends else op
                        writer.writerow([d, e, ctx.q, args.algo, inst_seed, label, wall, status])
    finally:
        if args.out:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p, with_f=False):
    p.add_argument("-p", "--modulus", type=int, required=True, help="field characteristic")
    p.add_argument("--ext-degree", type=int, default=0, help="extension degree k (0 = auto)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--a", required=True, help="file with polynomial a")
    p.add_argument("--b", required=True, help="file with polynomial b")
    if with_f:
        p.add_argument("--f", required=True, help="file with the polynomial to reduce")
    p.add_argument("--algo", choices=("baseline", "ku"), default="baseline")
    p.add_argument("--d-eps", type=int, default=0, help="composition radix (0 = auto)")
    p.add_argument("--trials", type=int, default=3, help="projection trials")
    p.add_argument("--verify-oracle", action="store_true", help="cross-check against dense oracles")
    p.add_argument("--json", action="store_true", help="JSON output")


def build_parser() -> _Parser:
    ap = _Parser(prog="sylres", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of f modulo <a, b>")
    _add_common(p, with_f=True)
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("invfact", help="last invariant factor of S_y")
    _add_common(p)
    p.set_defaults(fn=cmd_invfact)

    p = sub.add_parser("elimgen", help="generator of the elimination ideal <a,b> n K[x]")
    _add_common(p)
    p.set_defaults(fn=cmd_elimgen)

    p = sub.add_parser("resultant", help="certified resultant Res_y(a, b)")
    _add_common(p)
    p.set_defaults(fn=cmd_resultant)

    p = sub.add_parser("smith-oracle", help="dense Smith normal form of S_y (brute force)")
    _add_common(p)
    p.set_defaults(fn=cmd_smith_oracle)

    p = sub.add_parser("bench", help="scaling benchmark, CSV on stdout or --out")
    p.add_argument("-p", "--modulus", type=int, required=True)
    p.add_argument("--ext-degree", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="", help="comma list of d (or d:e) instance sizes")
    p.add_argument("--seeds", type=int, default=3, help="instances per size")
    p.add_argument("--ops", default="normal_form,invfact", help=f"subset of {','.join(BENCH_OPS)}")
    p.add_argument("--algo", choices=("baseline", "ku"), default="baseline")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--compare-backends", action="store_true", help="run numba and numpy kernels")
    p.add_argument("--out", default="", help="CSV output file (default stdout)")
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
