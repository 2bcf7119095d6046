"""Benchmark one cudlab workload; the last line printed is the JSON result.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout: the program is imported from
``src/``.  With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# the keys of workloads.ROUNDS, which this process does not import: it
# never imports cudlab
WORKLOADS = ("verify", "enumerate", "series", "sample")

# fixed so that set and dict orders, and with them timings, repeat
HASH_SEED = "0"
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170

# Imports cudlab and every module in it, as a fresh interpreter would, and
# prints the seconds spent importing, then the host's slowness measured just
# after (see hostspeed.py): the kernel is imported only once the timed
# imports are done, so that they start from a fresh interpreter.  Listing the
# modules is not timed.
PROBE = """
import pkgutil, sys, time
t0 = time.perf_counter()
import cudlab
t1 = time.perf_counter()
names = [m.name for m in pkgutil.iter_modules(cudlab.__path__, "cudlab.")]
t2 = time.perf_counter()
for name in names:
    if name != "cudlab.__main__":  # that one runs the command line
        __import__(name)
imported = (t1 - t0) + time.perf_counter() - t2
sys.path.insert(0, sys.argv[1])
import hostspeed
print(imported, hostspeed.slowness(SETUP_KERNELS))
"""
# timings of the kernel after each probe's imports: about 10 ms
SETUP_KERNELS = 21


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": HASH_SEED}


def run_child(argv: list[str], timeout: float) -> str:
    """Run one Python child to its end and return its stdout; its stderr
    passes through.  Raises CalledProcessError when it fails."""
    done = subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return done.stdout


def setup_seconds() -> tuple[float, float]:
    """Median import time of cudlab over fresh interpreters, in
    host-normalised seconds and in wall seconds."""
    probe = PROBE.replace("SETUP_KERNELS", str(SETUP_KERNELS))
    runs = []
    for _ in range(SETUP_PROBES):
        imported, slowness = map(float, run_child(["-c", probe, str(BENCH)], 60).split())
        runs.append((imported / slowness, imported))
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (SRC / "cudlab" / "__init__.py").is_file():
        print(f"error: no cudlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        argv = [sys.executable, str(BENCH / "child.py"), "--self-test"]
        return subprocess.run(argv, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    setup_s, setup_wall_s = (None, None) if args.trace else setup_seconds()
    out = run_child(
        [
            str(BENCH / "child.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        CHILD_TIMEOUT_S,
    )
    run = json.loads(out.splitlines()[-1])

    print(
        f"{args.workload}: seed {args.seed}, {run['rounds']} rounds, "
        f"{run['attempted']} operations, {run['failed']} failed, "
        f"{run['wall_s']:.3f} s timed, op p50 {run['op_p50_s']:.6f} s"
        + (" (traced)" if args.trace else "")
    )
    if not args.trace:
        print(
            f"{args.workload}: wall op p50 {run['wall_p50_s']:.6f} s, "
            f"host slowness {run['slowness']:.3f} over {run['samples']} samples, "
            f"set-up {setup_s:.4f} s ({setup_wall_s:.4f} s wall)"
        )
    if run["tail"]:
        p, seconds = run["tail"]
        print(f"{args.workload}: op p{p:g} {seconds:.6f} s")
    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in run["per_layer"].items()}
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "op_p50_s": metric(run["op_p50_s"], "s"),
            "items_per_s": metric(run["items_per_s"], "1/s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
