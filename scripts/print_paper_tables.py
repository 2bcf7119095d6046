#!/usr/bin/env python3
"""Regenerate the headline number tables: every catalog sequence, the small
distribution tables, and the expectation values, all from exact arithmetic.

Usage:
    python scripts/print_paper_tables.py [--n-max 10] [--dist-max 5]

Exit codes are those of the cudlab CLI: 2 for bad input, 3 for a size past
the order cap, each with one ``error:`` line on stderr and nothing on stdout.
"""

import sys

from cudlab.catalog import (
    SEQUENCE_IDS,
    CapExceeded,
    catalog_markers,
    expected_ud_cycles,
    expected_ud_cycles_limit,
    no_ud_cycles_count,
    no_ud_fraction_limit,
    sequence_terms,
)
from cudlab.cli import Parser
from cudlab.oracle import distribution
from cudlab.perms import Family


def tables(n_max: int, dist_max: int) -> list[str]:
    """The lines of every table, all computed before any is printed."""
    lines = ["== catalog sequences (EGF terms) =="]
    for seq_id in SEQUENCE_IDS:
        if catalog_markers(seq_id):
            continue
        terms = sequence_terms(seq_id, n_max)
        lines.append(f"{seq_id:>18}: {' '.join(str(v) for v in terms)}")

    lines.append(f"\n== marked sequences at n = {dist_max} ==")
    for seq_id in SEQUENCE_IDS:
        markers = catalog_markers(seq_id)
        if not markers:
            continue
        terms = sequence_terms(seq_id, dist_max)
        if terms:  # empty when the sequence starts past dist_max
            lines.append(f"{seq_id:>18} [{','.join(markers)}]: {terms[-1]}")

    lines.append("\n== distributions over CUD_n (cycles) ==")
    for n in range(dist_max + 1):
        counts = distribution(Family.CUD, n, ("c",))
        rows = " ".join(f"c={k}:{v}" for (k,), v in sorted(counts.items()))
        lines.append(f"n={n}: {rows}")

    lines.append("\n== expected up-down cycles ==")
    for n in (1, 2, 3, 5, 8, 12):
        value = expected_ud_cycles(n)
        lines.append(f"n={n:>2}: {value} = {float(value):.9f}")
    lines.append(f"limit: {expected_ud_cycles_limit():.9f}")

    lines.append("\n== permutations with no up-down cycle ==")
    lines.append(" ".join(str(no_ud_cycles_count(n)) for n in range(1, n_max + 1)))
    lines.append(f"limiting fraction: {no_ud_fraction_limit():.10f}")
    return lines


def main() -> None:
    parser = Parser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--dist-max", type=int, default=5)
    args = parser.parse_args()
    for flag, size in (("--n-max", args.n_max), ("--dist-max", args.dist_max)):
        if size < 0:
            parser.error(f"{flag} must be nonnegative, got {size}")
    print("\n".join(tables(args.n_max, args.dist_max)))


if __name__ == "__main__":
    try:
        main()
    except (CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3 if isinstance(exc, CapExceeded) else 2)
