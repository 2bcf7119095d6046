"""One workload in one fresh process: run it, check it, print one JSON line.

    PYTHONPATH=src python3 perfbench/child.py --workload sample --seed 1 --seconds 15 --trace 0
    PYTHONPATH=src python3 perfbench/child.py --self-test

``run.py`` starts this process with a fixed interpreter hash seed; run it
directly only to debug a workload.  The process starts no thread or process
of its own.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import hostspeed
import tracer as tracing
import workloads
from cudlab import oracle, perms, series
from workloads import Op

perf_counter = time.perf_counter
OUT_DIR = Path(__file__).resolve().parent / "out"


class Timings:
    """Each operation's start and end on the wall clock, and its time less
    what the sampler's signal handler took during it: flat arrays of
    doubles, 24 bytes an operation, so the record barely moves the peak
    resident set however many operations a run makes."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.seconds = array("d")


def run_op(op: Op, timings: Timings, clock: hostspeed.Sampler | None = None) -> int | None:
    """Time one call into ``timings`` and return the items its checked
    output finished, or None when the call raised or its output is wrong."""
    spent = clock.spent if clock else 0.0

    def stamp() -> None:
        t1 = perf_counter()
        timings.starts.append(t0)
        timings.ends.append(t1)
        timings.seconds.append(t1 - t0 - ((clock.spent - spent) if clock else 0.0))

    t0 = perf_counter()
    try:
        result = op.call()
    except Exception:
        stamp()
        traceback.print_exc()
        return None
    stamp()
    try:
        return op.check(result)
    except Exception:
        traceback.print_exc()
        return None


def measure(workload: str, seed: int, seconds: float, rounds: int | None, clock=None) -> dict:
    """Closed loop over whole rounds: for ``seconds`` of wall time and at
    least the workload's ``MIN_ROUNDS``, or for exactly ``rounds`` rounds
    when given.  With a ``hostspeed.Sampler`` as ``clock``, the timings are
    also given in host-normalised seconds."""
    rng = random.Random(seed)
    make_round = workloads.ROUNDS[workload]
    timings = Timings()
    attempted = failed = items = done = 0
    start = perf_counter()

    def more() -> bool:
        if rounds:
            return done < rounds
        return done < workloads.MIN_ROUNDS[workload] or perf_counter() - start < seconds

    # The benchmark's own objects (the references, the imported modules) are
    # moved out of the collector's reach, and each operation starts from a
    # collected heap, as in a fresh cudlab process: which operation pays for
    # a full collection does not then hang on the order of the round.
    gc.collect()
    gc.freeze()
    if clock:
        clock.start()
    try:
        while more():
            for op in make_round(rng):
                attempted += 1
                gc.collect()
                got = run_op(op, timings, clock)
                if got is None:
                    failed += 1
                    print(f"failed: {op.name}", file=sys.stderr)
                else:
                    items += got
            done += 1
    finally:
        if clock:
            clock.stop()
    wall = timings.seconds
    result = {
        "rounds": done,
        "attempted": attempted,
        "failed": failed,
        "wall_s": sum(wall),
        "wall_p50_s": statistics.median(wall),
    }
    times = wall
    if clock:
        slowness = clock.scale(timings.starts, timings.ends)
        times = array("d", (t / s for t, s in zip(wall, slowness)))
        result["slowness"] = statistics.median(clock.slowness_curve())
        result["samples"] = len(clock.took)
    result.update(
        op_p50_s=statistics.median(times),
        items_per_s=items / sum(times),
        tail=tail_percentile(times),
    )
    return result


def tail_percentile(times) -> list | None:
    """[p, seconds] for the highest of p90, p99, p99.9, ... that has at
    least ten samples beyond it, once forty or more sit in the slowest
    decile; None below that."""
    n = len(times)
    if n < 400:
        return None
    p = 90.0
    while n * (100 - p) / 1000 >= 10:  # the next percentile keeps ten beyond it
        p = 100 - (100 - p) / 10
    ranked = sorted(times)
    return [p, ranked[math.ceil(p / 100 * n) - 1]]


def timed_run(args) -> dict:
    result = measure(args.workload, args.seed, args.seconds, None, hostspeed.Sampler())
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def traced_run(args) -> dict:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    result = measure(args.workload, args.seed, args.seconds, workloads.TRACE_ROUNDS[args.workload])
    result["per_layer"] = tracing.per_layer_metrics(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps(tracing.span_table(tracer), indent=1, sort_keys=True) + "\n")
    return result


# ---------------------------------------------------------------------------
# self-test: each checker must count a wrong result as a failed operation


def _tampered(op: Op, tamper) -> Op:
    return Op(op.name + " (tampered)", lambda: tamper(op.call()), op.check)


def _tamper_json(edit):
    def tamper(result):
        code, text, err = result
        payload = json.loads(text)
        edit(payload)
        return code, json.dumps(payload), err

    return tamper


def _bump_first_stat(table):
    row = table["rows"][0]
    row[table["stats"][0]] += 1


def _bump_last_value(payload):
    last = payload["values"][-1]
    if isinstance(last, dict):
        last[next(iter(last))] += 1
    else:
        payload["values"][-1] += 1


def _self_test_cases():
    def wrong_euler(n_max):
        eul = series.euler_numbers(n_max)
        eul[5] += 1
        return eul

    verify = workloads.verify_op(4)
    yield "verify", verify, Op(
        "verify_all(4) with a wrong euler_fn",
        lambda: (0, json.dumps(oracle.verify_all(4, euler_fn=wrong_euler)), ""),
        verify.check,
    )
    for family, n, stats in (
        ("cud", 6, "c_o,exc"),
        ("gcud", 6, "fp"),
        ("exc-def-swap", 6, "fp,exc"),
        ("all", 5, "c,lrm,st,extr"),
        ("ud", 7, "lrm,st,extr"),
    ):
        good = workloads.enumerate_op(family, n, stats)
        yield "enumerate", good, _tampered(good, _tamper_json(_bump_first_stat))
    for seq_id in ("gcud", "cud-fp-cycles", "ud-lrm"):
        good = workloads.seq_op(seq_id, 10)
        yield "series", good, _tampered(good, _tamper_json(_bump_last_value))
    good = workloads.expect_op(40)

    def next_float_up(result):
        code, text, err = result
        return code, repr(math.nextafter(float(text), math.inf)), err

    yield "series", good, _tampered(good, next_float_up)
    word = workloads.ind.random_up_down_word(31, random.Random(0))
    good = workloads.sample_op(word)

    def wrong_phi_inverse(result):
        return (result[0], result[1], perms.Permutation(word[::-1])) + result[3:]

    yield "sample", good, _tampered(good, wrong_phi_inverse)


def self_test() -> int:
    ok = True
    for workload, good, bad in _self_test_cases():
        timings = Timings()
        good_passed = run_op(good, timings) is not None
        bad_failed = run_op(bad, timings) is None
        ok = ok and good_passed and bad_failed
        print(
            f"{workload}: {good.name}: clean {'passed' if good_passed else 'FAILED'}, "
            f"wrong result {'counted failed' if bad_failed else 'NOT CAUGHT'}"
        )
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
