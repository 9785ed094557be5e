"""The sylres benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload runs in fresh worker processes (worker.py), one at a time,
from the library source in ../src.  With --trace 0, PARTS workers each set
up (import, build, one untimed warm-up op) and then run timed ops for
S / PARTS seconds; the end-to-end metrics pool their ops, and setup_s and
peak_rss_mb are medians over the workers.  Spreading the ops over several
processes averages out process layout.  Times are in reference seconds:
each op's wall time is scaled by how fast the host ran a fixed calibration
workload just before and after it (worker.host_calibration_s), and each
set-up's by the median calibration of its worker, because the shared host's
own speed drifts by half over seconds.  Raw wall medians go to stderr.
With --trace 1, one worker runs ops untraced for S / 2 seconds and traced
for S / 2 and reports the per-layer metrics.  Every op is verified.
Metrics go to stderr by name, value and unit; the last line of stdout is
the JSON result (one line per workload for `all`).  The exit code is 0 only
when every op's output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import metric_units  # noqa: E402

WORKLOADS = ("nf-ntt", "resultant-prime", "resultant-ext", "compose-bigprime")
PARTS = 3
DEADLINE_S = 170  # one workload, all of its workers

END_TO_END = {
    "op_p50_ref_s": "s",
    "ops_per_ref_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    **metric_units(),
    "trace.overhead_ratio": "ratio",
    "invariant.attempts": "count",
    "fail_ratio": "ratio",
    "certified_ratio": "ratio",
}

# one thread per process: no BLAS or OpenMP pools beside the closed loop;
# a fixed string-hash seed, so every worker lays out its dicts alike
WORKER_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def worker(args, name: str, deadline: float, mode: str, part: int = 0) -> dict:
    seconds = args.seconds if mode == "trace" else args.seconds / PARTS
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--part", str(part), "--parts", str(PARTS)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=WORKER_ENV,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {mode} worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{name}: {mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, name: str, deadline: float) -> dict:
    parts = [worker(args, name, deadline, "measure", part) for part in range(PARTS)]
    norms = [n for p in parts for n in p["norms"]]
    good = [g for p in parts for g in p["good"]]
    out = {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "correct": all(p["correct"] for p in parts),
    }
    out["metrics"] = {
        "op_p50_ref_s": statistics.median(norms),
        "ops_per_ref_s": sum(good) / sum(norms),
        "success_ratio": sum(good) / len(good),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
        "setup_s": statistics.median(p["setup_s"] for p in parts),
    }
    out["wall_p50_s"] = statistics.median(w for p in parts for w in p["walls"])
    out["setup_wall_s"] = statistics.median(p["setup_wall_s"] for p in parts)
    out["calibration_p50_s"] = statistics.median(c for p in parts for c in p["calibrations"])
    return out


def run_workload(args, name: str, deadline: float) -> dict:
    if args.trace:
        out = worker(args, name, deadline, "trace")
        units = PER_LAYER
        for absent in out["absent"]:
            print(f"{name}: {absent} absent (no wrapped source left in the library)", file=sys.stderr)
        for source in out["missing"]:
            print(f"{name}: wrapped source {source} not found", file=sys.stderr)
        ops = f"{out['traced']} traced"
    else:
        out = measure(args, name, deadline)
        units = END_TO_END
        ops = f"{out['attempted']} timed"
        print(f"{name:18} wall seconds: op p50 {out['wall_p50_s']:.6g}, setup {out['setup_wall_s']:.6g}, "
              f"calibration p50 {out['calibration_p50_s']:.6g}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()}
    for k, m in metrics.items():
        print(f"{name:18} {k:36} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{name:18} over {ops} ops; attempted {out['attempted']}, failed {out['failed']}, "
          f"correct {out['correct']}", file=sys.stderr)
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = ap.parse_args()
    if not (ROOT / "src" / "sylres" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'sylres'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        try:
            result = run_workload(args, name, time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 2
        correct &= result["correct"]
        print(json.dumps({"workload": name, **result} if args.workload == "all" else result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
