"""Run the untraced benchmark once per seed and report each metric's median,
quartiles and spread (the distance between the quartiles over the median).

    python3 perfbench/steady.py --workloads verify,sample --seeds 1-10 --seconds 15

Runs are sequential.  The summary is printed and also written to
``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="verify,enumerate,series,sample")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()

    (BENCH / "out").mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_range(args.seeds):
            argv = [
                sys.executable, str(BENCH / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            t0 = time.perf_counter()
            out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
            wall = time.perf_counter() - t0
            results.append(json.loads(out.splitlines()[-1]))
            print(out.splitlines()[0], f"({wall:.1f} s wall)")
            print(json.dumps(results[-1]), flush=True)
        summary = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": {
                name: {"unit": m["unit"], **summarize([r["metrics"][name]["value"] for r in results])}
                for name, m in results[0]["metrics"].items()
            },
        }
        for name, s in summary["metrics"].items():
            print(
                f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                f"quartiles {s['q1']:.6g}..{s['q3']:.6g}, spread {s['spread']:.3f}"
            )
        path = BENCH / "out" / f"steady-{workload}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
