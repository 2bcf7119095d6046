"""Command-line interface.

Subcommands: ``seq`` (catalog sequences), ``enumerate`` (distribution
tables), ``map`` (apply a bijection), ``verify`` (the full oracle suite),
``expect`` (expected up-down cycles, exact or Monte Carlo), ``diagram``
(arc-diagram SVG).  Every command is deterministic given its flags; Monte
Carlo is deterministic given ``--seed``.  Each subcommand declares only
the flags it reads, so its ``--help`` lists exactly those.  ``verify``
writes each report entry as its row is computed, to stdout or to an
``--out`` file opened before the first S_n is walked; a refused ``--n``
opens no file.

Exit codes: 0 success, 1 verification failure, 2 bad input or unknown name
(a ``--samples`` below 1 included), an ``--out`` path that cannot be
written, or a flag the subcommand does not take or this request does not
read (``expect --float`` but in exact text output included), 3 cap exceeded
(``expect --n`` above ``EXPECT_CAP`` without a ``--cap`` that allows it
included).  Exits 2 and 3 print one ``error:`` line on stderr, usage errors
included.  ``CUDLAB_CAP`` overrides the default enumeration cap of
``enumerate`` unless ``--cap`` is given; a value that is not an integer >= 0
exits 2.  That default is 11 for a table counted without laying words, else
the family's own cap, and no cap lifts n past ``oracle.CAP_CEILING``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from contextlib import nullcontext
from decimal import Decimal
from fractions import Fraction
from math import sqrt
from pathlib import Path
from typing import NoReturn

from . import bijections, matchings, oracle
from .catalog import (
    DEFAULT_ORDER_CAP,
    SEQUENCE_IDS,
    catalog_markers,
    catalog_offset,
    expected_ud_cycles,
    sequence_terms,
)
from .perms import (
    CapExceeded,
    CycleDecomposition,
    DomainError,
    Family,
    MalformedInput,
    Permutation,
    format_cycles,
    format_permutation,
    from_cycles,
    is_up_down_word,
    parse_any,
    to_cycles,
)
from .series import MPoly, monomial_key
from .statistics import MinMaxPattern


# the largest n that ``expect`` accepts unless --cap says otherwise: the time
# of the exact sum, nearly all of it the Euler numbers, grows about as n^3
# (some 0.8 s at n = 2000, 6 s at 4000 on a 2-vCPU host, Python 3.11)
EXPECT_CAP = 3000

# the values of --samples and map --pattern when they are not given; the
# parser's own defaults stay None, so that a flag given where nothing reads it
# is refused rather than ignored
DEFAULT_SAMPLES = 100000
DEFAULT_PATTERN = "min,max,..."

# the flags that only some requests of their subcommand read: flag -> (those
# requests, whether these arguments are one); any other request refuses it
_READ_BY = {
    "seed": ("expect --montecarlo", lambda args: args.montecarlo),
    "samples": ("expect --montecarlo", lambda args: args.montecarlo),
    "bits": ("map ell", lambda args: args.name == "ell"),
    "pattern": ("map h", lambda args: args.name == "h"),
    "order": ("map foata", lambda args: args.name == "foata"),
    "float": ("text expect --exact", lambda args: not args.montecarlo and args.format == "text"),
}


class Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``MalformedInput``, so
    that they leave through ``main``'s one ``error:`` line, and which takes
    no abbreviated flag; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise MalformedInput(message)


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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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
    cap = args.cap if args.cap is not None else DEFAULT_ORDER_CAP
    values = sequence_terms(args.id, args.n, cap=cap)
    offset = catalog_offset(args.id)
    marked = bool(catalog_markers(args.id))
    if marked:
        values = [_poly_map(poly) for poly in values]
    if args.format == "json":
        payload = {"id": args.id, "offset": offset, "n_max": args.n, "values": values}
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        lines = []
        for n, value in enumerate(values, offset):
            if marked:
                body = " ".join(f"{k}:{v}" for k, v in sorted(value.items()))
            else:
                body = str(value)
            lines.append(f"{n} {body}\n")
        _emit(args, "".join(lines))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    family = Family(args.family)
    stat_names = tuple(s.strip() for s in args.stats.split(","))
    if len(set(stat_names)) < len(stat_names):
        raise MalformedInput(f"--stats names a statistic twice: {args.stats!r}")
    cap = args.cap if args.cap is not None else _env_cap()
    rows = oracle.distribution(family, args.n, stat_names, cap=cap)
    if args.format == "json":
        payload = {
            "family": family.value,
            "n": args.n,
            "stats": list(stat_names),
            "total": sum(rows.values()),
            "rows": [
                dict(zip(stat_names, values)) | {"count": count}
                for values, count in sorted(rows.items())
            ],
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    elif args.format == "csv":
        _emit(args, oracle.distribution_csv(stat_names, rows))
    else:
        table = oracle.distribution_csv(stat_names, rows).replace(",", " ")
        _emit(args, f"{table}total {sum(rows.values())}\n")
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


def cmd_map(args: argparse.Namespace) -> int:
    name = args.name
    result = _MAPS[name](parse_any(args.input), args)
    if isinstance(result, tuple):  # ell-inv: (permutation, bit word)
        perm, bits = result
        payload = {"output": format_permutation(perm), "bits": "".join(map(str, bits))}
    elif isinstance(result, CycleDecomposition):
        payload = {"output": format_cycles(result)}
    else:
        payload = {"output": format_permutation(result)}
    if args.format == "json":
        _emit(args, json.dumps({"map": name, **payload}, sort_keys=True) + "\n")
    else:
        _emit(args, " / ".join(payload.values()) + "\n")
    return 0


def _parse_bits(text: str) -> tuple[int, ...]:
    if not all(ch in "01" for ch in text):
        raise MalformedInput(f"bit word must be over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def cmd_verify(args: argparse.Namespace) -> int:
    entries = oracle.verify_entries(args.n)  # a refused --n opens no file
    as_json = args.format == "json"
    ok = total = 0
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        out.write("[" if as_json else "")
        for entry in entries:
            if as_json:
                out.write((", " if total else "") + json.dumps(entry, sort_keys=True))
            elif entry["pass"]:
                out.write(f"PASS {entry['check']} (n={entry['n']})\n")
            else:
                out.write(
                    f"FAIL {entry['check']} (n={entry['n']})"
                    f" expected={entry['expected']} actual={entry['actual']}\n"
                )
            total += 1
            ok += entry["pass"]
        out.write("]\n" if as_json else f"passed {ok}/{total} checks\n")
    return 0 if ok == total else 1


def cmd_expect(args: argparse.Namespace) -> int:
    limit = args.cap if args.cap is not None else EXPECT_CAP
    if args.n > limit:
        raise CapExceeded(f"n={args.n} exceeds the expectation cap {limit}")
    exact = expected_ud_cycles(args.n)
    if args.montecarlo:
        samples = args.samples if args.samples is not None else DEFAULT_SAMPLES
        if samples < 1:
            raise MalformedInput(f"--samples must be positive, got {samples}")
        seed = args.seed or 0
        rng = random.Random(seed)
        total = 0
        total_sq = 0
        for _ in range(samples):
            u = sum(map(is_up_down_word, to_cycles(_random_permutation(args.n, rng)).cycles))
            total += u
            total_sq += u * u
        mean = total / samples
        variance = total_sq / samples - mean * mean
        stderr = sqrt(max(variance, 0.0) / samples)
        if args.format == "json":
            payload = {
                "n": args.n,
                "mode": "montecarlo",
                "samples": samples,
                "seed": seed,
                "estimate": mean,
                "stderr": stderr,
                "exact": _fraction_text(exact),
            }
            _emit(args, json.dumps(payload, sort_keys=True) + "\n")
        else:
            _emit(args, f"estimate {mean:.6f} stderr {stderr:.6f}\n")
        return 0
    if args.format == "json":
        payload = {
            "n": args.n,
            "mode": "exact",
            "value": _fraction_text(exact),
            "float": float(exact),
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    elif args.float:
        _emit(args, f"{float(exact)!r}\n")
    else:
        _emit(args, f"{_fraction_text(exact)} = {float(exact)!r}\n")
    return 0


def _fraction_text(value: Fraction) -> str:
    """``str(value)``, also past the interpreter's limit on the digits of an
    int-to-text conversion: ``Decimal`` prints an integer without that limit."""
    text = str(Decimal(value.numerator))
    if value.denominator != 1:
        text += f"/{Decimal(value.denominator)}"
    return text


def _random_permutation(n: int, rng: random.Random) -> Permutation:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return Permutation._trusted(tuple(word))


def cmd_diagram(args: argparse.Namespace) -> int:
    if not args.out:
        raise MalformedInput("diagram requires --out PATH for the SVG")
    p = _as_permutation(parse_any(args.input))
    matchings.render_arc_diagram(p, args.out)
    pair = matchings.to_matching_pair(p)
    sys.stdout.write(matchings.matching_pair_text(pair) + "\n")
    return 0


# one parser per process: parsing leaves it as it was, and it reads only constants
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="cudlab",
        description="Enumeration, bijections, and exact series checks for "
        "cycle-up-down permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, formats, help, cap=None):
        """A subparser printing the given formats, with --cap if ``cap`` is
        its help text."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--format", choices=formats, default="text", help="output format")
        if cap:
            p.add_argument("--cap", type=int, default=None, help=cap)
        p.set_defaults(func=func)
        return p

    p_seq = command(
        "seq", cmd_seq, ("text", "json"), "print a catalog sequence",
        cap=f"largest order the series is taken to (default {DEFAULT_ORDER_CAP})",
    )
    p_seq.add_argument("id", choices=SEQUENCE_IDS, metavar="ID")
    p_seq.add_argument("--n", type=int, default=10, help="last index to print")

    p_enum = command(
        "enumerate", cmd_enumerate, ("text", "json", "csv"), "distribution table over a family",
        cap=f"largest n enumerated (default CUDLAB_CAP, else {oracle.COUNTED_CAP} for a table"
        " counted without laying words and the family's own cap for a word tally)",
    )
    p_enum.add_argument("family", choices=[f.value for f in Family], metavar="FAMILY")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--stats", default="c", help="comma-separated statistics")

    p_map = command("map", cmd_map, ("text", "json"), "apply a bijection")
    p_map.add_argument("name", choices=tuple(_MAPS), metavar="NAME")
    p_map.add_argument("input", help="one-line word or (cycle)(notation)")
    p_map.add_argument("--bits", default=None, help="bit word for ell, e.g. 10011")
    p_map.add_argument(
        "--pattern", default=None, help=f"min/max pattern for h (default {DEFAULT_PATTERN})"
    )
    p_map.add_argument(
        "--order", choices=("asc", "desc"), default=None, help="foata order (default desc)"
    )

    p_verify = command("verify", cmd_verify, ("text", "json"), "run the full oracle verification")
    p_verify.add_argument("--n", type=int, default=7, help="enumeration size cap")
    p_verify.add_argument(
        "--json", dest="format", action="store_const", const="json", help="JSON report"
    )

    p_expect = command(
        "expect", cmd_expect, ("text", "json"), "expected statistic values",
        cap=f"largest n accepted (default {EXPECT_CAP})",
    )
    p_expect.add_argument("target", choices=("ud-cycles",), metavar="TARGET")
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
    p_expect.add_argument(
        "--seed", type=int, default=None, help="RNG seed of --montecarlo (default 0)"
    )
    p_expect.add_argument(
        "--float", action="store_true", default=None, help="print only the float"
    )

    p_diag = command("diagram", cmd_diagram, ("text",), "write an arc-diagram SVG to --out")
    p_diag.add_argument("input", help="permutation (one-line or cycles)")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for flag, (readers, reads) in _READ_BY.items():
            if getattr(args, flag, None) is not None and not reads(args):
                raise MalformedInput(f"only {readers} takes --{flag}")
        if getattr(args, "cap", None) is not None and args.cap < 0:
            raise MalformedInput(f"--cap must not be negative, got {args.cap}")
        return args.func(args)
    except SystemExit as exc:  # --help, after printing the help
        return exc.code
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
