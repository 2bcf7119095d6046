#!/usr/bin/env python3
"""Measure one ``cudlab verify --n N --json`` run in a fresh child process.

Usage:
    python scripts/verify_footprint.py --n 9

Prints one JSON line: n, the child's exit code, its wall seconds, its peak
resident set in MB (``RUSAGE_CHILDREN``; it is this process's only child),
and the bytes of the report it wrote and their sha256.  The report is hashed
as it is read, never held.  Exits with the child's code.  The child must be
able to import cudlab, installed or through ``PYTHONPATH``.  Stdlib only;
``resource`` makes it Unix only.
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time


def footprint(n: int) -> dict:
    digest, size = hashlib.sha256(), 0
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "cudlab", "verify", "--n", str(n), "--json"],
        stdout=subprocess.PIPE,
    ) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KB on Linux
    return {
        "n": n,
        "exit": child.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "bytes": size,
        "sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="the size verify runs to")
    result = footprint(parser.parse_args(argv).n)
    print(json.dumps(result, sort_keys=True))
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
