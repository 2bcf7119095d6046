"""Command-line interface.

Subcommands: ``seq`` (catalog sequences), ``enumerate`` (distribution
tables), ``map`` (apply a bijection), ``verify`` (the full oracle suite),
``expect`` (expected up-down cycles, exact or Monte Carlo), ``diagram``
(arc-diagram SVG).  Every command is deterministic given its flags; Monte
Carlo is deterministic given ``--seed``.

Exit codes: 0 success, 1 verification failure, 2 bad input or unknown name
(a ``--samples`` below 1 included), an ``--out`` path that cannot be
written, or a flag the command would ignore (``--format csv`` outside
``enumerate``, ``--format json`` on ``diagram``, ``--cap`` on ``map``,
``verify`` or ``diagram``, ``--seed`` anywhere but ``expect --montecarlo``,
``--samples`` without ``--montecarlo``, and ``map --bits``, ``--pattern``
or ``--order`` on any map but ``ell``, ``h`` or ``foata`` in turn), 3 cap
exceeded (``expect --n`` above ``EXPECT_CAP`` without a ``--cap`` that
allows it included).  ``CUDLAB_CAP`` overrides the default enumeration cap of
``enumerate`` unless ``--cap`` is given; a value that is not an integer >= 0 exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import sqrt
from pathlib import Path

from . import bijections, matchings, oracle
from .catalog import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    SEQUENCE_IDS,
    catalog_markers,
    catalog_offset,
    expected_ud_cycles,
    sequence_terms,
)
from .perms import (
    CycleDecomposition,
    DomainError,
    Family,
    MalformedInput,
    Permutation,
    format_cycles,
    format_permutation,
    from_cycles,
    parse_any,
    to_cycles,
)
from .series import MPoly, monomial_key
from .statistics import STAT_NAMES, MinMaxPattern, stats


# the largest n that ``expect`` accepts unless --cap says otherwise: the time
# of the exact sum grows about as n^3 (some 2 s at n = 2000, 20 s at 4000)
EXPECT_CAP = 3000

# the values of --samples and map --pattern when they are not given; the
# parser's own defaults stay None, so that a flag given where nothing reads it
# is refused rather than ignored
DEFAULT_SAMPLES = 100000
DEFAULT_PATTERN = "min,max,..."

# by subcommand, the output formats it prints and whether it reads --cap; any
# other value of these shared flags is refused rather than ignored
_SHARED_FLAGS = {
    "seq": (("text", "json"), True),
    "enumerate": (("text", "json", "csv"), True),
    "map": (("text", "json"), False),
    "verify": (("text", "json"), False),
    "expect": (("text", "json"), True),
    "diagram": (("text",), False),
}


@dataclass
class Config:
    """Resolved global options."""

    order_cap: int = DEFAULT_ORDER_CAP
    enum_cap: int | None = None
    fmt: str = "text"
    seed: int = 0
    out: str | None = None


def _config_from(args: argparse.Namespace) -> Config:
    formats, reads_cap = _SHARED_FLAGS[args.command]
    if args.format not in formats:
        raise MalformedInput(
            f"{args.command} has no {args.format} output (formats: {', '.join(formats)})"
        )
    if args.cap is not None and not reads_cap:
        raise MalformedInput(f"{args.command} takes no --cap")
    if args.cap is not None and args.cap < 0:
        raise MalformedInput(f"--cap must not be negative, got {args.cap}")
    if args.seed is not None and not getattr(args, "montecarlo", False):
        raise MalformedInput("only expect --montecarlo takes --seed")
    enum_cap = args.cap
    if enum_cap is None and args.command == "enumerate":
        enum_cap = _env_cap()
    return Config(
        order_cap=args.cap if args.cap is not None else DEFAULT_ORDER_CAP,
        enum_cap=enum_cap,
        fmt="json" if getattr(args, "json", False) else args.format,
        seed=args.seed if args.seed is not None else 0,
        out=args.out,
    )


def _env_cap() -> int | None:
    """The enumeration cap that ``CUDLAB_CAP`` sets, if it is set."""
    text = os.environ.get("CUDLAB_CAP")
    if not text:
        return None
    try:
        cap = int(text)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise MalformedInput(f"CUDLAB_CAP must be an integer >= 0, got {text!r}")
    return cap


def _emit(cfg: Config, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _poly_map(poly: MPoly) -> dict[str, int]:
    out = {}
    for mono, coeff in poly.items():
        if coeff.denominator != 1:
            raise DomainError(f"non-integer coefficient {coeff}")
        out[monomial_key(mono)] = coeff.numerator
    return out


def cmd_seq(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    values = sequence_terms(args.id, args.n, cap=cfg.order_cap)
    offset = catalog_offset(args.id)
    marked = bool(catalog_markers(args.id))
    if marked:
        values = [_poly_map(poly) for poly in values]
    if cfg.fmt == "json":
        payload = {"id": args.id, "offset": offset, "n_max": args.n, "values": values}
        _emit(cfg, json.dumps(payload, sort_keys=True) + "\n")
    else:
        lines = []
        for n, value in enumerate(values, offset):
            if marked:
                body = " ".join(f"{k}:{v}" for k, v in sorted(value.items()))
            else:
                body = str(value)
            lines.append(f"{n} {body}")
        _emit(cfg, "\n".join(lines) + "\n")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    family = Family.from_text(args.family)
    stat_names = tuple(s.strip() for s in args.stats.split(","))
    for name in stat_names:
        if name not in STAT_NAMES:
            raise MalformedInput(
                f"unknown statistic {name!r} (known: {', '.join(STAT_NAMES)})"
            )
    if len(set(stat_names)) < len(stat_names):
        raise MalformedInput(f"--stats names a statistic twice: {args.stats!r}")
    table = oracle.distribution(family, args.n, stat_names, cap=cfg.enum_cap)
    if cfg.fmt == "json":
        rows = [
            dict(zip(stat_names, values)) | {"count": count}
            for values, count in sorted(table.rows.items())
        ]
        payload = {
            "family": family.value,
            "n": args.n,
            "stats": list(stat_names),
            "total": table.total(),
            "rows": rows,
        }
        _emit(cfg, json.dumps(payload, sort_keys=True) + "\n")
    elif cfg.fmt == "csv":
        _emit(cfg, oracle.distribution_csv(table))
    else:
        lines = [" ".join(stat_names + ("count",))]
        for values in sorted(table.rows):
            lines.append(" ".join(str(v) for v in values + (table.rows[values],)))
        lines.append(f"total {table.total()}")
        _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _as_permutation(value) -> Permutation:
    return from_cycles(value) if isinstance(value, CycleDecomposition) else value


def _as_cycles(value) -> CycleDecomposition:
    return to_cycles(value) if isinstance(value, Permutation) else value


def _ell(value, args: argparse.Namespace):
    if args.bits is None:
        raise MalformedInput("ell requires --bits")
    return bijections.ell_map(_as_permutation(value), _parse_bits(args.bits))


# map name -> function of (parsed input, arguments); the order is the one
# ``--help`` and argparse errors list
_MAPS = {
    "g": lambda value, args: bijections.g_even(_as_permutation(value)),
    "g-inv": lambda value, args: bijections.g_even_inverse(_as_cycles(value)),
    "f": lambda value, args: bijections.f_odd(_as_permutation(value)),
    "f-inv": lambda value, args: bijections.f_odd_inverse(_as_cycles(value)),
    "phi": lambda value, args: bijections.phi(_as_permutation(value)),
    "phi-inv": lambda value, args: bijections.phi_inverse(_as_cycles(value)),
    "jbij": lambda value, args: bijections.jbij(_as_permutation(value)),
    "jbij-inv": lambda value, args: bijections.jbij_inverse(_as_cycles(value)),
    "h": lambda value, args: bijections.h_map(
        _as_permutation(value), MinMaxPattern.parse(
            args.pattern if args.pattern is not None else DEFAULT_PATTERN
        )
    ),
    "ell": _ell,
    "ell-inv": lambda value, args: bijections.ell_inverse(_as_permutation(value)),
    "foata": lambda value, args: bijections.foata_word(
        _as_cycles(value), descending=args.order != "asc"
    ),
}

# the map flags, each with the one map that reads it
_MAP_FLAGS = {"bits": "ell", "pattern": "h", "order": "foata"}


def cmd_map(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    name = args.name
    for flag, reader in _MAP_FLAGS.items():
        if getattr(args, flag) is not None and name != reader:
            raise MalformedInput(f"only map {reader} takes --{flag}")
    result = _MAPS[name](parse_any(args.input), args)
    if isinstance(result, tuple):  # ell-inv: (permutation, bit word)
        perm, bits = result
        text = f"{format_permutation(perm)} / {''.join(str(b) for b in bits)}"
        payload = {
            "map": name,
            "output": format_permutation(perm),
            "bits": "".join(str(b) for b in bits),
        }
    elif isinstance(result, CycleDecomposition):
        text = format_cycles(result)
        payload = {"map": name, "output": text}
    else:
        text = format_permutation(result)
        payload = {"map": name, "output": text}
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(payload, sort_keys=True) + "\n")
    else:
        _emit(cfg, text + "\n")
    return 0


def _parse_bits(text: str) -> tuple[int, ...]:
    if not all(ch in "01" for ch in text):
        raise MalformedInput(f"bit word must be over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    report = oracle.verify_all(args.n)
    passed = oracle.report_passed(report)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(report, sort_keys=True) + "\n")
    else:
        lines = []
        for entry in report:
            mark = "PASS" if entry["pass"] else "FAIL"
            line = f"{mark} {entry['check']} (n={entry['n']})"
            if not entry["pass"]:
                line += f" expected={entry['expected']} actual={entry['actual']}"
            lines.append(line)
        ok = sum(1 for e in report if e["pass"])
        lines.append(f"passed {ok}/{len(report)} checks")
        _emit(cfg, "\n".join(lines) + "\n")
    return 0 if passed else 1


def cmd_expect(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    if args.samples is not None and not args.montecarlo:
        raise MalformedInput("only expect --montecarlo takes --samples")
    if args.target != "ud-cycles":
        raise MalformedInput(f"unknown expectation target {args.target!r}")
    limit = args.cap if args.cap is not None else EXPECT_CAP
    if args.n > limit:
        raise CapExceeded(f"n={args.n} exceeds the expectation cap {limit}")
    exact = expected_ud_cycles(args.n)
    if args.montecarlo:
        samples = args.samples if args.samples is not None else DEFAULT_SAMPLES
        if samples < 1:
            raise MalformedInput(f"--samples must be positive, got {samples}")
        rng = random.Random(cfg.seed)
        total = 0
        total_sq = 0
        for _ in range(samples):
            u = stats(_random_permutation(args.n, rng)).ud
            total += u
            total_sq += u * u
        mean = total / samples
        variance = total_sq / samples - mean * mean
        stderr = sqrt(max(variance, 0.0) / samples)
        if cfg.fmt == "json":
            payload = {
                "n": args.n,
                "mode": "montecarlo",
                "samples": samples,
                "seed": cfg.seed,
                "estimate": mean,
                "stderr": stderr,
                "exact": _fraction_text(exact),
            }
            _emit(cfg, json.dumps(payload, sort_keys=True) + "\n")
        else:
            _emit(cfg, f"estimate {mean:.6f} stderr {stderr:.6f}\n")
        return 0
    if cfg.fmt == "json":
        payload = {
            "n": args.n,
            "mode": "exact",
            "value": _fraction_text(exact),
            "float": float(exact),
        }
        _emit(cfg, json.dumps(payload, sort_keys=True) + "\n")
    elif args.float:
        _emit(cfg, f"{float(exact)!r}\n")
    else:
        _emit(cfg, f"{_fraction_text(exact)} = {float(exact)!r}\n")
    return 0


def _fraction_text(value: Fraction) -> str:
    """``str(value)``, also past the interpreter's limit on the digits of an
    int-to-text conversion: ``Decimal`` prints an integer without that limit."""
    text = str(Decimal(value.numerator))
    if value.denominator != 1:
        text += f"/{Decimal(value.denominator)}"
    return text


def _random_permutation(n: int, rng: random.Random) -> Permutation:
    # Fisher-Yates, bottom-up
    word = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        word[i], word[j] = word[j], word[i]
    return Permutation(tuple(word))


def cmd_diagram(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    if not cfg.out:
        raise MalformedInput("diagram requires --out PATH for the SVG")
    p = _as_permutation(parse_any(args.input))
    matchings.render_arc_diagram(p, cfg.out)
    pair = matchings.to_matching_pair(p)
    sys.stdout.write(matchings.matching_pair_text(pair) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    shared.add_argument("--out", default=None, help="write output to this file")
    shared.add_argument(
        "--seed", type=int, default=None, help="RNG seed of expect --montecarlo (default 0)"
    )
    shared.add_argument(
        "--cap", type=int, default=None, help="raise/lower the enumeration or order cap"
    )

    parser = argparse.ArgumentParser(
        prog="cudlab",
        description="Enumeration, bijections, and exact series checks for "
        "cycle-up-down permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", parents=[shared], help="print a catalog sequence")
    p_seq.add_argument("id", choices=SEQUENCE_IDS, metavar="ID")
    p_seq.add_argument("--n", type=int, default=10, help="last index to print")
    p_seq.set_defaults(func=cmd_seq)

    p_enum = sub.add_parser(
        "enumerate", parents=[shared], help="distribution table over a family"
    )
    p_enum.add_argument("family", metavar="FAMILY")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--stats", default="c", help="comma-separated statistics")
    p_enum.set_defaults(func=cmd_enumerate)

    p_map = sub.add_parser("map", parents=[shared], help="apply a bijection")
    p_map.add_argument(
        "name",
        choices=tuple(_MAPS),
        metavar="NAME",
    )
    p_map.add_argument("input", help="one-line word or (cycle)(notation)")
    p_map.add_argument("--bits", default=None, help="bit word for ell, e.g. 10011")
    p_map.add_argument(
        "--pattern", default=None, help=f"min/max pattern for h (default {DEFAULT_PATTERN})"
    )
    p_map.add_argument(
        "--order", choices=("asc", "desc"), default=None, help="foata order (default desc)"
    )
    p_map.set_defaults(func=cmd_map)

    p_verify = sub.add_parser(
        "verify", parents=[shared], help="run the full oracle verification"
    )
    p_verify.add_argument("--n", type=int, default=7, help="enumeration size cap")
    p_verify.add_argument("--json", action="store_true", help="JSON report")
    p_verify.set_defaults(func=cmd_verify)

    p_expect = sub.add_parser(
        "expect", parents=[shared], help="expected statistic values"
    )
    p_expect.add_argument("target", metavar="TARGET", help="ud-cycles")
    p_expect.add_argument("--n", type=int, required=True)
    mode = p_expect.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--montecarlo", action="store_true")
    p_expect.add_argument(
        "--samples",
        type=int,
        default=None,
        help=f"Monte Carlo sample count (default {DEFAULT_SAMPLES})",
    )
    p_expect.add_argument("--float", action="store_true", help="print only the float")
    p_expect.set_defaults(func=cmd_expect)

    p_diag = sub.add_parser(
        "diagram", parents=[shared], help="write an arc-diagram SVG to --out"
    )
    p_diag.add_argument("input", help="permutation (one-line or cycles)")
    p_diag.set_defaults(func=cmd_diagram)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MalformedInput, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
