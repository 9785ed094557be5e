"""One workload in one fresh process: set up, run ops for a fixed time,
verify every op, and print one JSON line.  run.py starts it; modes:

  measure  import, build, one untimed warm-up op (together setup_s), then
           timed ops with tracing off
  trace    the same set-up, then ops untraced for half the time and traced
           for the other half; per-layer metrics and the tracing overhead

Ops run one after another in this one thread (a closed loop with one
caller).  A fixed calibration workload runs before the first op and after
each op, outside the op's timing; see host_calibration_s.  Worker `part`
of `parts` runs ops part, part + parts, ..., so the workers of one run draw
distinct instances.  Verification runs after the timed loop, outside the
timed region and with the tracer's wrappers removed.
"""

import time

_T0 = time.perf_counter()  # setup_s starts before the library is imported

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import sylres  # noqa: E402

import workloads as W  # noqa: E402

if not Path(sylres.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"sylres imported from {sylres.__file__}, not from {SRC}")

GOOD = (W.OK, W.CERTIFIED)
RAISED = "raised"

# host_calibration_s() on the reference host (one vCPU of a 2-vCPU VM,
# Python 3 with numpy); it turns wall seconds here into reference seconds
CALIBRATION_REF_S = 0.06


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next):
        self.key, self.value, self.next = key, value, next

    def find(self, key):
        cell = self
        while cell is not None and cell.key != key:
            cell = cell.next
        return cell


def host_calibration_s() -> float:
    """Wall time of a fixed piece of work that never touches sylres, made of
    the two kinds of work an op is made of: interpreted Python that builds
    small objects, calls methods and looks up dicts, and numpy arithmetic
    mod p on short arrays.  The shared host this benchmark was tuned on
    switches between speeds some 1.5x apart every few seconds; an op and
    the calibration around it slow down together (over 8 consecutive ops,
    log op time follows log calibration time with slope 0.97 on nf-ntt and
    1.16 on resultant-ext), so op wall time scaled by CALIBRATION_REF_S /
    (the calibration around the op) cancels the host's speed and keeps the
    library's own."""
    t0 = time.perf_counter()
    table, head = {}, None
    for i in range(40_000):
        head = _Cell(i & 1023, (i, i * 3), head if i & 15 else None)
        table[head.key] = head
        cell = table.get((i * 31) & 1023)
        if cell is not None:
            cell.find(i & 1023)
    a = np.arange(4096, dtype=np.int64) * 7919 % 65537
    b = np.arange(4096, dtype=np.int64) * 104729 % 65537
    for i in range(600):
        np.convolve(a[:64], b[:64]) % 65537
        a = (a * 3 + b) % 65537
        b = np.roll(a, i)
    return time.perf_counter() - t0


class Op:
    __slots__ = ("index", "inst", "out", "wall_s", "calibration_s", "outcome")

    def __init__(self, index, inst, out, wall_s, calibration_s):
        self.index, self.inst, self.out, self.wall_s = index, inst, out, wall_s
        self.calibration_s = calibration_s  # mean of the calibrations before and after
        self.outcome = None

    @property
    def norm_s(self) -> float:
        """The op's wall time in reference seconds."""
        return self.wall_s * CALIBRATION_REF_S / self.calibration_s


def timed_loop(wl, seed, indices, seconds, call):
    """Ops with the next indices while the next one, with its calibration,
    is expected to end within `seconds` of the start (at least one op).
    Only call(index, instance, rng) is timed."""
    ops = []
    start = time.perf_counter()
    before = host_calibration_s()
    while not ops or time.perf_counter() - start + statistics.fmean(op.wall_s for op in ops) + before <= seconds:
        index = next(indices)
        inst = wl.instance(W.rng_for(wl.name, seed, index, "instance"))
        rng = W.rng_for(wl.name, seed, index, "op")
        t0 = time.perf_counter()
        try:
            out = call(index, inst, rng)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            traceback.print_exc()
            out = exc
        wall_s = time.perf_counter() - t0
        after = host_calibration_s()
        ops.append(Op(index, inst, out, wall_s, (before + after) / 2))
        before = after
    return ops


def verify(wl, seed, ops):
    for op in ops:
        if isinstance(op.out, Exception):
            op.outcome = RAISED
            continue
        try:
            op.outcome = wl.check(op.inst, op.out, W.rng_for(wl.name, seed, op.index, "verify"))
        except Exception:  # a result the check cannot even process is wrong
            traceback.print_exc()
            op.outcome = W.MISMATCH


def summary(ops) -> dict:
    outcomes = [op.outcome for op in ops]
    return {
        "attempted": len(ops),
        "failed": sum(o not in GOOD for o in outcomes),
        "correct": not any(o in (W.MISMATCH, RAISED) for o in outcomes),
        "certified": outcomes.count(W.CERTIFIED),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("measure", "trace"))
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = ap.parse_args()

    wl = W.build(args.workload, args.smoke)
    wl.run(wl.instance(W.rng_for(wl.name, args.seed, "warmup", "instance")),
           W.rng_for(wl.name, args.seed, "warmup", "op"))
    setup_wall_s = time.perf_counter() - _T0
    indices = itertools.count(args.part, args.parts)

    def untraced(index, inst, rng):
        return wl.run(inst, rng)

    if args.mode == "measure":
        ops = timed_loop(wl, args.seed, indices, args.seconds, untraced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # in reference seconds, at the host speed of the whole run: a single
        # calibration is too short a sample to scale one set-up by
        setup_s = setup_wall_s * CALIBRATION_REF_S / statistics.median(op.calibration_s for op in ops)
        verify(wl, args.seed, ops)
        print(json.dumps({**summary(ops), "setup_s": setup_s, "setup_wall_s": setup_wall_s,
                          "peak_rss_mb": peak_rss_mb,
                          "walls": [op.wall_s for op in ops],
                          "calibrations": [op.calibration_s for op in ops],
                          "norms": [op.norm_s for op in ops],
                          "good": [op.outcome in GOOD for op in ops]}))
        return

    from tracer import Tracer

    plain = timed_loop(wl, args.seed, indices, args.seconds / 2, untraced)
    tracer = Tracer()
    traced = timed_loop(wl, args.seed, indices, args.seconds / 2,
                        lambda index, inst, rng: tracer.op(index, wl.run, inst, rng))
    ops = plain + traced
    verify(wl, args.seed, ops)
    counts = summary(ops)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (statistics.median(op.norm_s for op in traced)
                                       / statistics.median(op.norm_s for op in plain))
    metrics["invariant.attempts"] = statistics.fmean(getattr(op.out, "attempts", 0) for op in traced)
    metrics["fail_ratio"] = counts["failed"] / len(ops)
    metrics["certified_ratio"] = counts["certified"] / len(ops)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save_spans(out_dir / f"spans-{wl.name}.npz")
    print(json.dumps({**counts, "traced": len(traced), "absent": tracer.absent,
                      "missing": tracer.missing, "metrics": metrics}))


if __name__ == "__main__":
    main()
