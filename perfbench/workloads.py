"""The four workloads: their requests, and the checks of every output.

A workload is a list of operations run in rounds.  ``ROUNDS[name](rng)``
builds the next round from the workload's seeded generator; every round
holds the same operations, so a run of whole rounds attempts the same mix
whatever its length.  Each operation is one timed call into cudlab and a
check, outside the timed region, that returns the number of work items the
call finished, or None when its output is wrong.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable

import independent as ind
from cudlab import bijections, cli, perms, statistics


@dataclass
class Op:
    name: str
    call: Callable[[], object]  # the timed call into the program
    check: Callable[[object], int | None]  # items finished, None if wrong


def cli_op(argv: list[str], check: Callable[[str], int | None]) -> Op:
    """One ``cudlab`` request through ``cli.main`` with stdout captured.
    ``check`` sees the printed text of a request that exited 0."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def judge(result):
        code, text, err = result
        if code != 0:
            print(f"exit {code}: {err.strip()}", file=sys.stderr)
            return None
        return check(text)

    return Op(" ".join(argv), call, judge)


# ---------------------------------------------------------------------------
# verify: the whole oracle-against-series suite

VERIFY_N = 7


def check_verify(report: list[dict], n: int) -> int | None:
    """Every entry passes, and the counts the paper proves match the
    benchmark's own numbers."""
    actual = {(e["check"], e["n"]): e["actual"] for e in report}
    ok = (
        report
        and all(e["pass"] for e in report)
        and all(actual.get(("ud-count", m)) == ind.euler(m) for m in range(n + 1))
        and all(actual.get(("cud-count", m)) == ind.euler(m + 1) for m in range(n + 1))
        and all(
            ast.literal_eval(actual.get(("dist-lrm-stirling", m), "None"))
            == ind.stirling_dist(m)
            for m in range(1, n + 1)
        )
    )
    return len(report) if ok else None


def verify_op(n: int) -> Op:
    return cli_op(
        ["verify", "--n", str(n), "--json"],
        lambda text: check_verify(json.loads(text), n),
    )


def verify_round(rng: random.Random) -> list[Op]:
    # the request has no random parameter: the seed changes nothing here
    return [verify_op(VERIFY_N)]


# ---------------------------------------------------------------------------
# enumerate: distribution tables, each from one walk of S_n (or the word
# backtracker for ud)


def _marginal(rows, key) -> dict[int, int]:
    out: dict[int, int] = {}
    for row in rows:
        k = key(row)
        out[k] = out.get(k, 0) + row["count"]
    return out


def enumerate_expectations(family: str, n: int):
    """(total, items, extra check on the rows) for a request on the family."""
    if family == "cud":
        # c_o + 2 exc = n on CUD
        return ind.euler(n + 1), factorial(n), lambda rows: all(
            r["c_o"] + 2 * r["exc"] == n for r in rows
        )
    if family == "gcud":
        return (
            ind.set_of_cycles_counts(n, ind.gen_ud_cycles)[n],
            factorial(n),
            lambda rows: _marginal(rows, lambda r: r["fp"]) == ind.gcud_fp_dist(n),
        )
    if family == "exc-def-swap":
        # excedances and deficiencies pair up off the fixed points
        return ind.exc_def_swap_count(n), factorial(n), lambda rows: all(
            r["fp"] + 2 * r["exc"] == n for r in rows
        )
    if family == "all":
        stirling = ind.stirling_dist(n)
        return factorial(n), factorial(n), lambda rows: (
            _marginal(rows, lambda r: r["c"]) == stirling
            and _marginal(rows, lambda r: r["lrm"]) == stirling
            and _marginal(rows, lambda r: r["st"]) == stirling
            and _marginal(rows, lambda r: r["extr"]) == ind.extr_dist(n)
        )
    if family == "ud":
        # phi and jbij carry lrm - 1, st - 1 and extr to the even, odd and
        # all cycles of CUD_{n-1}
        def shifted(kind, shift):
            return {j + shift: c for j, c in ind.cud_by_cycle_kind(n - 1, kind).items()}

        return ind.euler(n), ind.euler(n), lambda rows: (
            _marginal(rows, lambda r: r["lrm"]) == shifted(lambda k: k % 2 == 0, 1)
            and _marginal(rows, lambda r: r["st"]) == shifted(lambda k: k % 2 == 1, 1)
            and _marginal(rows, lambda r: r["extr"]) == shifted(lambda k: True, 0)
        )
    raise ValueError(f"no expectations for family {family!r}")


def enumerate_op(family: str, n: int, stats: str) -> Op:
    total, items, rows_ok = enumerate_expectations(family, n)

    def check(text: str) -> int | None:
        table = json.loads(text)
        rows = table["rows"]
        ok = (
            table["total"] == total
            and sum(r["count"] for r in rows) == total
            and rows_ok(rows)
        )
        return items if ok else None

    return cli_op(
        ["enumerate", family, "--n", str(n), "--stats", stats, "--format", "json"],
        check,
    )


ENUMERATE_REQUESTS = (
    ("cud", 9, "c_o,exc"),
    ("gcud", 9, "fp"),
    ("exc-def-swap", 9, "fp,exc"),
    ("all", 8, "c,lrm,st,extr"),
    ("ud", 10, "lrm,st,extr"),
)


def enumerate_round(rng: random.Random) -> list[Op]:
    requests = list(ENUMERATE_REQUESTS)
    rng.shuffle(requests)
    return [enumerate_op(*request) for request in requests]


# ---------------------------------------------------------------------------
# series: every catalog sequence, one at a raised cap, and an exact
# expectation

SERIES_N = 24
SERIES_RAISED = ("perm-ud-nud", 28)
EXPECT_N = 2000


@lru_cache(maxsize=None)
def _series_reference(seq_id: str, n: int) -> list:
    return ind.SERIES_REFERENCE[seq_id](n)


@lru_cache(maxsize=None)
def _expected_ud_cycles(n: int) -> float:
    return float(ind.expected_ud_cycles(n))


def seq_op(seq_id: str, n: int) -> Op:
    expected = _series_reference(seq_id, n)

    def check(text: str) -> int | None:
        payload = json.loads(text)
        values = payload["values"]
        ok = payload["n_max"] == n and values == expected[payload["offset"] :]
        return len(values) if ok else None

    argv = ["seq", seq_id, "--n", str(n), "--format", "json"]
    if n > SERIES_N:
        argv += ["--cap", str(n)]
    return cli_op(argv, check)


def expect_op(n: int) -> Op:
    # --float: at this size the exact fraction has more digits than Python's
    # int-to-str limit, and cudlab fails to print it (a fault recorded in
    # CHANGES.md).  The float of the exact sum is correctly rounded, so it
    # must match the benchmark's to the last bit.
    exact = _expected_ud_cycles(n)
    return cli_op(
        ["expect", "ud-cycles", "--n", str(n), "--exact", "--float"],
        lambda text: 1 if float(text) == exact else None,
    )


def series_round(rng: random.Random) -> list[Op]:
    ops = [seq_op(seq_id, SERIES_N) for seq_id in ind.SERIES_REFERENCE]
    ops.append(seq_op(*SERIES_RAISED))
    ops.append(expect_op(EXPECT_N))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sample: uniformly random up-down words through both bijections

SAMPLE_LENGTHS = range(20, 61)


def sample_call(word: tuple[int, ...]):
    p = perms.Permutation(word)
    c = bijections.phi(p)
    d = bijections.jbij(p)
    c_perm = perms.from_cycles(c)
    d_perm = perms.from_cycles(d)
    return (
        c,
        d,
        bijections.phi_inverse(c),
        bijections.jbij_inverse(d),
        statistics.stats(p),
        statistics.stats(c_perm),
        perms.is_member(c_perm, perms.Family.CUD),
        perms.is_member(d_perm, perms.Family.CUD),
    )


def check_sample(word: tuple[int, ...], result) -> int | None:
    """phi and jbij land in CUD_{n} for a word on [n+1], invert, and carry
    lrm - 1, st - 1 and extr to even, odd and all cycles."""
    c, d, back_phi, back_jbij, sp, sc, c_in_cud, d_in_cud = result
    n = len(word) - 1
    lrm, st, extr = ind.lr_minima(word), ind.min_max_length(word), ind.extremes(word)
    even = sum(1 for cyc in c.cycles if len(cyc) % 2 == 0)
    ok = (
        back_phi.word == word
        and back_jbij.word == word
        and ind.is_cud_decomposition(c.cycles, n)
        and ind.is_cud_decomposition(d.cycles, n)
        and c_in_cud
        and d_in_cud
        and even == lrm - 1
        and len(c.cycles) - even == st - 1
        and len(d.cycles) == extr
        and (sp.lrm, sp.st, sp.extr) == (lrm, st, extr)
        and (sc.c_e, sc.c_o) == (lrm - 1, st - 1)
    )
    return 1 if ok else None


def sample_op(word: tuple[int, ...]) -> Op:
    return Op(
        f"sample m={len(word)}",
        lambda: sample_call(word),
        lambda result: check_sample(word, result),
    )


def sample_round(rng: random.Random) -> list[Op]:
    lengths = list(SAMPLE_LENGTHS)
    rng.shuffle(lengths)
    return [sample_op(ind.random_up_down_word(m, rng)) for m in lengths]


ROUNDS = {
    "verify": verify_round,
    "enumerate": enumerate_round,
    "series": series_round,
    "sample": sample_round,
}

# whole rounds in a timed run, at the least: a series round takes about 9 s,
# and the median request lies among its small requests, so four rounds give
# it four timings of each
MIN_ROUNDS = {"verify": 1, "enumerate": 1, "series": 4, "sample": 1}

# whole rounds in a traced run: fixed, so its counts repeat exactly
TRACE_ROUNDS = {"verify": 1, "enumerate": 1, "series": 1, "sample": 10}
