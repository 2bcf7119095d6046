import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cudlab import cli
from cudlab import oracle
from cudlab.catalog import SEQUENCE_IDS, catalog_offset, expected_ud_cycles
from cudlab.perms import Family

GOLDEN = Path(__file__).parent / "golden"


def _digests(name):
    """The (digest, argv) pairs of a golden sha256 file."""
    return [
        line.split(maxsplit=1)
        for line in (GOLDEN / name).read_text(encoding="ascii").splitlines()
    ]


# digest and argv of each enumerate request of the benchmark
ENUMERATE_BENCH = _digests("enumerate_bench.sha256")

# digest and argv of enumerate requests counted over rank states
ENUMERATE_RANK = _digests("enumerate_rank.sha256")

# digest and argv of enumerate requests that name a statistic but lrm, st and
# extr: counted by the sweep over rank states, or word by word where they
# name ud or nud
ENUMERATE_WALK = _digests("enumerate_walk.sha256")

# digest and argv of enumerate requests counted by size
ENUMERATE_SIZE = _digests("enumerate_size.sha256")

# digest and argv of seeded Monte Carlo expectations, text and JSON
EXPECT_MONTECARLO = _digests("expect_montecarlo.sha256")

# digest and argv of every catalog sequence at order 40, past its cap
SEQ_PAST_CAP = _digests("seq_past_cap.sha256")


def _family_ids(pairs):
    """A test id per golden request: its family, and its n too where an
    earlier request has that family."""
    ids, seen = [], set()
    for _, argv in pairs:
        family, n = argv.split()[1:4:2]
        ids.append(f"{family}-{n}" if family in seen else family)
        seen.add(family)
    return ids


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _report_text(report):
    """The text ``verify`` prints, formatted from the whole report."""
    lines = []
    for entry in report:
        mark = "PASS" if entry["pass"] else "FAIL"
        line = f"{mark} {entry['check']} (n={entry['n']})"
        if not entry["pass"]:
            line += f" expected={entry['expected']} actual={entry['actual']}"
        lines.append(line)
    ok = sum(1 for e in report if e["pass"])
    lines.append(f"passed {ok}/{len(report)} checks")
    return "\n".join(lines) + "\n"


class TestSeq:
    def test_gcud(self, capsys):
        code, out = run(capsys, "seq", "gcud", "--n", "9")
        assert code == 0
        values = [int(line.split()[1]) for line in out.strip().splitlines()]
        assert values == [1, 2, 6, 21, 97, 491, 2989, 19756, 148444]

    def test_euler(self, capsys):
        code, out = run(capsys, "seq", "euler", "--n", "7")
        assert code == 0
        assert [int(l.split()[1]) for l in out.strip().splitlines()] == [1, 1, 1, 2, 5, 16, 61, 272]
        assert out.startswith("0 1\n")  # b-file style: index then value

    def test_cud_derangements(self, capsys):
        code, out = run(capsys, "seq", "cud-derangements", "--n", "9")
        assert code == 0
        assert [int(l.split()[1]) for l in out.strip().splitlines()] == [
            0, 1, 1, 5, 15, 71, 341, 1945, 12135,
        ]

    def test_marked_sequence_json(self, capsys):
        code, out = run(capsys, "seq", "cud-cycles", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"][2] == {"t^1": 1, "t^2": 1}

    def test_unknown_id_exits_2(self, capsys):
        assert cli.main(["seq", "nope", "--n", "3"]) == 2

    def test_cap_exceeded_exits_3(self, capsys):
        assert cli.main(["seq", "euler", "--n", "30"]) == 3
        assert cli.main(["seq", "euler", "--n", "30", "--cap", "32"]) == 0

    @pytest.mark.parametrize(
        "seq_id", [seq_id for seq_id in SEQUENCE_IDS if catalog_offset(seq_id) == 1]
    )
    def test_no_term_in_range_prints_nothing(self, capsys, seq_id):
        # offset 1 and --n 0: no index value line, not one blank line
        assert run(capsys, "seq", seq_id, "--n", "0") == (0, "")
        code, out = run(capsys, "seq", seq_id, "--n", "0", "--format", "json")
        assert code == 0
        assert out == json.dumps(
            {"id": seq_id, "n_max": 0, "offset": 1, "values": []}, sort_keys=True
        ) + "\n"

    @pytest.mark.parametrize(
        "digest, argv", SEQ_PAST_CAP, ids=[argv.split()[1] for _, argv in SEQ_PAST_CAP]
    )
    def test_past_cap_matches_golden_digest(self, capsys, digest, argv):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_deterministic(self, capsys):
        _, first = run(capsys, "seq", "gcud", "--n", "8", "--format", "json")
        _, second = run(capsys, "seq", "gcud", "--n", "8", "--format", "json")
        assert first == second


class TestEnumerate:
    def test_cud_table(self, capsys):
        code, out = run(capsys, "enumerate", "cud", "--n", "2", "--stats", "c")
        assert code == 0
        assert "1 1" in out and "2 1" in out and "total 2" in out

    def test_st_table_json(self, capsys):
        code, out = run(
            capsys, "enumerate", "all", "--n", "3", "--stats", "st", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["rows"] == [
            {"st": 1, "count": 2},
            {"st": 2, "count": 3},
            {"st": 3, "count": 1},
        ]

    def test_csv(self, capsys):
        code, out = run(
            capsys, "enumerate", "cud", "--n", "4", "--stats", "c_o,c_e", "--format", "csv"
        )
        assert out == (GOLDEN / "cud4_odd_even.csv").read_text(encoding="ascii")

    @pytest.mark.parametrize(
        "fmt, expected",
        [("text", "lrm count\ntotal 0\n"), ("csv", "lrm,count\n")],
        ids=["text", "csv"],
    )
    def test_empty_table(self, capsys, fmt, expected):
        # a single-cycle family has no member on 0 points
        argv = ["enumerate", "cud-cyclic", "--n", "0", "--stats", "lrm", "--format", fmt]
        assert run(capsys, *argv) == (0, expected)

    def test_text_table_of_the_rank_route(self, capsys):
        code, out = run(capsys, "enumerate", "ud", "--n", "5", "--stats", "lrm,extr")
        assert code == 0
        assert out == (
            "lrm extr count\n1 1 2\n1 2 3\n2 2 4\n2 3 4\n3 3 2\n3 4 1\ntotal 16\n"
        )

    def test_joint_ud_table(self, capsys):
        code, out = run(
            capsys, "enumerate", "ud", "--n", "4", "--stats", "lrm,st", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["total"] == 5
        # marginals match the marked series polynomials at n=4
        from cudlab.catalog import catalog_series
        from cudlab.series import MPoly

        lrm_terms, st_terms = Counter(), Counter()
        for row in payload["rows"]:
            lrm_terms[(("t", row["lrm"]),)] += row["count"]
            st_terms[(("t", row["st"]),)] += row["count"]
        assert MPoly(lrm_terms) == catalog_series("ud-lrm", 4).egf_term(4)
        assert MPoly(st_terms) == catalog_series("ud-st", 4).egf_term(4)

    @pytest.mark.parametrize(
        "digest, argv", ENUMERATE_BENCH, ids=[argv.split()[1] for _, argv in ENUMERATE_BENCH]
    )
    def test_benchmark_request_matches_golden_digest(self, capsys, digest, argv):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("digest, argv", ENUMERATE_RANK, ids=_family_ids(ENUMERATE_RANK))
    def test_rank_request_matches_golden_digest(self, capsys, digest, argv):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize(
        "digest, argv",
        ENUMERATE_WALK,
        ids=["-".join(argv.split()[1:4:2]) for _, argv in ENUMERATE_WALK],
    )
    def test_walk_request_matches_golden_digest(self, capsys, digest, argv):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize(
        "digest, argv",
        ENUMERATE_SIZE,
        ids=["-".join(argv.split()[1:4:2]) for _, argv in ENUMERATE_SIZE],
    )
    def test_size_request_matches_golden_digest(self, capsys, digest, argv):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_size_request_at_the_catalog_cap(self, capsys):
        from cudlab.catalog import catalog_series

        code, out = run(
            capsys, "enumerate", "gcud", "--n", "24", "--cap", "24", "--stats", "fp,exc",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["total"] == catalog_series("gcud", 24).egf_int(24)

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("cud --n 11 --stats c_o,c_e", 0),
            ("all --n 11 --stats lrm,st", 0),
            ("cud --n 10 --stats c,lrm", 3),
            ("all --n 10 --stats c", 0),
            ("all --n 10 --stats c,lrm", 0),
            ("all --n 12 --stats c", 3),
            ("all --n 11 --stats c,lrm", 0),
            ("all --n 12 --stats c,lrm", 3),
            ("all --n 11 --stats lrm,ud", 3),
            ("gcud --n 10 --stats fp,lrm", 3),
            ("ud --n 12 --stats c,lrm", 3),
            ("ud-last-gt-first --n 12 --stats lrm", 3),
        ],
    )
    def test_default_cap_follows_the_route(self, capsys, argv, code):
        # a table counted without laying words defaults to 11, one that lays
        # them to the family's own cap
        assert cli.main(["enumerate", *argv.split()]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.parametrize("stats", ["lrm", "lrm,c"])
    @pytest.mark.parametrize("by_env", [False, True])
    def test_no_cap_lifts_the_ceiling(self, capsys, monkeypatch, stats, by_env):
        argv = ["enumerate", "ud", "--n", "1100", "--stats", stats]
        if by_env:
            monkeypatch.setenv("CUDLAB_CAP", "1100")
        else:
            argv += ["--cap", "1100"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(oracle.CAP_CEILING) in captured.err

    def test_bad_family(self, capsys):
        assert cli.main(["enumerate", "wat", "--n", "2"]) == 2

    def test_bad_stat(self, capsys):
        assert cli.main(["enumerate", "cud", "--n", "2", "--stats", "zork"]) == 2

    def test_unknown_stat_names_itself_in_one_line(self, capsys):
        assert cli.main(["enumerate", "ud", "--n", "3", "--stats", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown statistic 'bogus' "
            "(known: c, c_o, c_e, fp, lrm, st, extr, exc, ud, nud)\n"
        )

    def test_repeated_stat_is_bad_input(self, capsys):
        # a table keyed by statistic name has one column per name
        argv = ["enumerate", "cud", "--n", "3", "--stats", "c,c", "--format", "json"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CUDLAB_CAP", "3")
        assert cli.main(["enumerate", "all", "--n", "4", "--stats", "c"]) == 3
        assert cli.main(["enumerate", "all", "--n", "4", "--stats", "c", "--cap", "5"]) == 0

    def test_bad_cap_env_refused_by_enumerate_only(self, capsys, monkeypatch):
        monkeypatch.setenv("CUDLAB_CAP", "abc")
        assert cli.main(["enumerate", "all", "--n", "4", "--stats", "c"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "CUDLAB_CAP" in err
        # --cap wins, so the variable is not read
        assert cli.main(["enumerate", "all", "--n", "4", "--stats", "c", "--cap", "5"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "all", "--n", "0", "--stats", "c", "--cap", "-1"],
            ["seq", "euler", "--n", "3", "--cap", "-1"],
            ["expect", "ud-cycles", "--n", "3", "--cap", "-1"],
        ],
    )
    def test_negative_cap_is_bad_input(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--cap" in captured.err

    def test_negative_cap_env_is_bad_input(self, capsys, monkeypatch):
        monkeypatch.setenv("CUDLAB_CAP", "-5")
        assert cli.main(["enumerate", "all", "--n", "0", "--stats", "c"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "CUDLAB_CAP" in err
        # a cap of 0 still allows n = 0
        monkeypatch.setenv("CUDLAB_CAP", "0")
        assert cli.main(["enumerate", "all", "--n", "0", "--stats", "c"]) == 0

    @pytest.mark.parametrize(
        "argv", [["seq", "cud", "--n", "3"], ["verify", "--n", "2"], ["map", "phi", "1"]]
    )
    def test_bad_cap_env_ignored_elsewhere(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("CUDLAB_CAP", "abc")
        assert cli.main(argv) == 0


class TestMap:
    CASES = [
        (["map", "jbij", "3 5 1 8 2 7 4 9 6"], "(1,4)(2,8,3,6)(5)(7)"),
        (["map", "jbij-inv", "(1,4)(2,8,3,6)(5)(7)"], "3 5 1 8 2 7 4 9 6"),
        (["map", "h", "4 8 1 2 7 6 3 5"], "5 3 6 2 7 1 8 4"),
        (["map", "ell", "8 6 7 4 2 5 1 3", "--bits", "10011"], "5 7 2 4 1 8 6 9 3"),
        (["map", "ell-inv", "5 7 2 4 1 8 6 9 3"], "8 6 7 4 2 5 1 3 / 10011"),
        (["map", "g", "4 7 2 6 1 5 3 8"], "(1,5,3,8)(2,6)(4,7)"),
        (["map", "g-inv", "(4,7)(2,6)(1,5,3,8)"], "4 7 2 6 1 5 3 8"),
        (["map", "f", "4 7 1 9 3 8 5 6 2"], "(1,7,4)(2)(3,8,6,9,5)"),
        (["map", "f-inv", "(1,8,5,7,2)(3,6,4)"], "2 7 5 8 1 4 3 6"),
        (["map", "phi", "6 9 3 8 5 12 1 10 2 11 4 7"], "(1,10,3)(2,7,4,11)(5,8)(6)(9)"),
        (["map", "phi-inv", "(5,8)(2,7,4,11)(1,10,3)(6)(9)"], "6 9 3 8 5 12 1 10 2 11 4 7"),
        (["map", "foata", "(1,4)(2,8,3,6)(5)(7)"], "7 5 2 8 3 6 1 4"),
        (["map", "foata", "(1,4)(2,8,3,6)(5)(7)", "--order", "asc"], "1 4 2 8 3 6 5 7"),
    ]

    @pytest.mark.parametrize("argv,expected", CASES)
    def test_worked_examples(self, capsys, argv, expected):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.strip() == expected

    def test_pattern_flag(self, capsys):
        code, out = run(
            capsys, "map", "h", "4 8 1 2 7 6 3 5", "--pattern", "min,..."
        )
        assert code == 0
        assert out.strip() == "5 3 6 7 2 1 8 4"  # reversal of the input word

    # entries that int() takes but that are not written in the digits 0-9
    @pytest.mark.parametrize(
        "argv",
        [["map", "g", "2 1_0"], ["map", "g", "1 \uff13"], ["map", "g-inv", "(1,2_0)"]],
    )
    def test_entry_not_in_ascii_digits_exits_2(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_domain_error_exits_2(self, capsys):
        assert cli.main(["map", "jbij", "2 1 3"]) == 2
        assert cli.main(["map", "ell", "2 1"]) == 2  # missing --bits
        assert cli.main(["map", "nope", "1 2"]) == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "verify", "--n", "2")
        assert code == 0
        assert "passed" in out and "FAIL" not in out

    def test_json_report(self, capsys):
        code, out = run(capsys, "verify", "--n", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert len(report) >= 40
        assert all(entry["pass"] for entry in report)
        names = {entry["check"] for entry in report}
        assert "cud-count" in names and "cf-convergent" in names

    def test_the_later_format_flag_wins(self, capsys):
        # --json is --format json, so a later --format text prints text
        assert run(capsys, "verify", "--n", "2", "--json", "--format", "text") == run(
            capsys, "verify", "--n", "2"
        )

    @pytest.mark.parametrize("as_json", [False, True])
    def test_failure_exit_code(self, capsys, monkeypatch, as_json):
        fake = [
            {"check": "x", "n": 1, "expected": 1, "actual": 1, "pass": True},
            {"check": "y", "n": 1, "expected": 1, "actual": 2, "pass": False},
        ]
        monkeypatch.setattr(oracle, "verify_entries", lambda n: iter(fake))
        code, out = run(capsys, "verify", "--n", "2", *["--json"] * as_json)
        assert code == 1
        if as_json:
            assert json.loads(out) == fake
        else:
            assert "FAIL y" in out and out.endswith("passed 1/2 checks\n")

    @pytest.mark.parametrize("n", [11, 12])
    def test_cap_exceeded_exits_3(self, capsys, monkeypatch, n):
        # the cap is the census's own, and it refuses before any walk
        monkeypatch.setattr(oracle, "census", lambda _: pytest.fail("walked S_n"))
        assert cli.main(["verify", "--n", str(n)]) == 3
        assert capsys.readouterr().err == f"error: verification cap is 10, got {n}\n"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_stream_is_the_report(self, capsys, n):
        report = oracle.verify_all(n)
        assert run(capsys, "verify", "--n", str(n), "--json") == (
            0, json.dumps(report, sort_keys=True) + "\n"
        )
        assert run(capsys, "verify", "--n", str(n)) == (0, _report_text(report))

    def test_streams_without_listing_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "verify_all", lambda *_: pytest.fail("listed the report"))
        code, out = run(capsys, "verify", "--n", "4", "--json")
        assert code == 0 and json.loads(out)

    def test_stream_peaks_below_the_whole_report(self):
        # the stream holds one entry's text at a time, the whole report its
        # entries and all their text at once; a first run fills the caches
        json.dumps(oracle.verify_all(6), sort_keys=True)
        peaks = []
        for request in (
            lambda: cli.main(["verify", "--n", "6", "--json", "--out", os.devnull]),
            lambda: json.dumps(oracle.verify_all(6), sort_keys=True),
        ):
            tracemalloc.start()
            try:
                request()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1], peaks

    def test_json_report_matches_golden(self, capsys):
        code, out = run(capsys, "verify", "--n", "5", "--json")
        assert code == 0
        assert out.encode("ascii") == (GOLDEN / "verify_n5.json").read_bytes()

    @pytest.mark.parametrize("n", [7, 8])
    def test_json_report_at_7_matches_golden_digest(self, capsys, n):
        code, out = run(capsys, "verify", "--n", str(n), "--json")
        assert code == 0
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert digest == (GOLDEN / f"verify_n{n}.sha256").read_text(encoding="ascii").strip()


class TestExpect:
    def test_exact(self, capsys):
        code, out = run(capsys, "expect", "ud-cycles", "--n", "3", "--exact")
        assert code == 0
        assert out.startswith("5/3")

    def test_exact_n1(self, capsys):
        code, out = run(capsys, "expect", "ud-cycles", "--n", "1", "--exact")
        assert out.startswith("1 ")

    def test_float_at_40(self, capsys):
        code, out = run(capsys, "expect", "ud-cycles", "--n", "40", "--exact", "--float")
        assert code == 0
        assert abs(float(out.strip()) - 1.841817641) < 1e-9

    def test_montecarlo_within_four_sigma(self, capsys):
        # deterministic given the seed; 4-sigma band per the contract
        code, out = run(
            capsys,
            "expect",
            "ud-cycles",
            "--n",
            "6",
            "--montecarlo",
            "--samples",
            "20000",
            "--seed",
            "0",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        from fractions import Fraction

        exact = float(Fraction(payload["exact"]))
        assert abs(payload["estimate"] - exact) < 4 * payload["stderr"]

    def test_montecarlo_seed_reproducible(self, capsys):
        args = ("expect", "ud-cycles", "--n", "5", "--montecarlo", "--samples", "2000")
        _, first = run(capsys, *args, "--seed", "7")
        _, second = run(capsys, *args, "--seed", "7")
        _, third = run(capsys, *args, "--seed", "8")
        assert first == second
        assert first != third

    @pytest.mark.parametrize("digest, argv", EXPECT_MONTECARLO, ids=["text", "json"])
    def test_montecarlo_matches_golden_digest(self, capsys, digest, argv):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_unknown_target(self, capsys):
        assert cli.main(["expect", "nope", "--n", "3"]) == 2

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 60])
    def test_random_permutation_draws_as_fisher_yates(self, n):
        # Random.shuffle draws randint(0, i) for i = n - 1 down to 1, as the
        # bottom-up Fisher-Yates loop here does, so a seed gives one word
        def fisher_yates(rng):
            word = list(range(1, n + 1))
            for i in range(n - 1, 0, -1):
                j = rng.randint(0, i)
                word[i], word[j] = word[j], word[i]
            return tuple(word)

        for seed in range(5):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert cli._random_permutation(n, rng).word == fisher_yates(reference)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_exit_2(self, capsys, samples):
        argv = ["expect", "ud-cycles", "--n", "5", "--montecarlo", "--samples", samples]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--samples" in captured.err

    def test_n_cap(self, capsys, monkeypatch):
        # the sum itself is patched out: only the limit is under test
        monkeypatch.setattr(cli, "expected_ud_cycles", lambda n: Fraction(n, 3))
        at_cap = str(cli.EXPECT_CAP)
        over_cap = str(cli.EXPECT_CAP + 1)
        assert cli.main(["expect", "ud-cycles", "--n", at_cap, "--float"]) == 0
        assert cli.main(["expect", "ud-cycles", "--n", over_cap, "--float"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        argv = ["expect", "ud-cycles", "--n", over_cap, "--float", "--cap", over_cap]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == f"{float(Fraction(int(over_cap), 3))!r}\n"

    def test_exact_past_the_int_text_limit(self, capsys):
        # numerator and denominator have over 5,700 digits at n = 2000
        exact = expected_ud_cycles(2000)
        code, out = run(capsys, "expect", "ud-cycles", "--n", "2000", "--exact")
        assert code == 0
        fraction, value = out.split(" = ")
        code, out = run(
            capsys, "expect", "ud-cycles", "--n", "2000", "--exact", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["value"] == fraction
        numerator, denominator = fraction.split("/")
        assert Decimal(numerator) == exact.numerator
        assert Decimal(denominator) == exact.denominator
        assert float(value) == float(exact)


class TestDiagram:
    def test_golden_output(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        code, out = run(capsys, "diagram", "(1,4,2,6,3,7)(5,8)", "--out", str(out_path))
        assert code == 0
        assert out.strip() == "red: 1-4 2-6 3-7 5-8 / blue: 1-7 2-4 3-6 5-8"
        assert out_path.read_text(encoding="ascii") == (
            GOLDEN / "example_arc_diagram.svg"
        ).read_text(encoding="ascii")

    def test_tiny(self, capsys, tmp_path):
        out_path = tmp_path / "tiny.svg"
        code, _ = run(capsys, "diagram", "(1,2)", "--out", str(out_path))
        assert code == 0
        assert out_path.exists()

    def test_odd_cycle_exits_2(self, capsys, tmp_path):
        code = cli.main(["diagram", "(1,3,2)", "--out", str(tmp_path / "x.svg")])
        assert code == 2

    def test_missing_out_exits_2(self, capsys):
        assert cli.main(["diagram", "(1,2)"]) == 2


def run_module(*argv):
    """``python -m cudlab`` in a fresh interpreter, as a user runs it."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "cudlab", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestModuleEntry:
    def test_diagram_matches_golden(self, tmp_path):
        out_path = tmp_path / "fig.svg"
        result = run_module("diagram", "(1,4,2,6,3,7)(5,8)", "--out", str(out_path))
        assert result.returncode == 0, result.stderr
        assert out_path.read_bytes() == (GOLDEN / "example_arc_diagram.svg").read_bytes()
        assert result.stdout == "red: 1-4 2-6 3-7 5-8 / blue: 1-7 2-4 3-6 5-8\n"

    def test_missing_out_exits_2(self):
        result = run_module("diagram", "(1,2)")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "seq.txt"
        code, out = run(capsys, "seq", "euler", "--n", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").splitlines()[0] == "0 1"

    @pytest.mark.parametrize("argv", [["seq", "euler", "--n", "5"], ["diagram", "(1,2)"]])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing_dir" / "x"
        assert cli.main(argv + ["--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--n", "9", "--out", "missing_dir/x"], 2),
            (["--n", "9", "--json", "--out", "missing_dir/x"], 2),
            (["--n", "11", "--out", "x"], 3),
            (["--n", "0", "--out", "x"], 2),
        ],
    )
    def test_verify_refuses_before_any_walk(self, capsys, monkeypatch, tmp_path, argv, code):
        # an unwritable --out or a refused --n exits before the first census,
        # and a refused --n leaves no file, not even an empty one
        monkeypatch.setattr(oracle, "census", lambda _: pytest.fail("walked S_n"))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestIgnoredFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["seq", "euler", "--n", "5", "--format", "csv"],
            ["map", "phi", "1 3 2", "--format", "csv"],
            ["expect", "ud-cycles", "--n", "3", "--format", "csv"],
            ["verify", "--n", "1", "--format", "csv"],
            ["diagram", "(1,2)", "--format", "csv"],
            ["diagram", "(1,2)", "--format", "json"],
            ["verify", "--n", "3", "--cap", "1"],
            ["map", "phi", "1 3 2", "--cap", "3"],
            ["diagram", "(1,2)", "--cap", "3"],
            ["expect", "ud-cycles", "--n", "3", "--seed", "5"],
            ["seq", "euler", "--n", "5", "--seed", "5"],
            ["expect", "ud-cycles", "--n", "3", "--samples", "10"],
            ["map", "phi", "1 3 2", "--bits", "101"],
            ["map", "ell", "2 1", "--bits", "1", "--pattern", "min,..."],
            ["map", "h", "2 1", "--order", "asc"],
            ["expect", "ud-cycles", "--n", "5", "--montecarlo", "--samples", "10", "--float"],
            ["expect", "ud-cycles", "--n", "5", "--float", "--format", "json"],
            # usage errors, which argparse refuses through the same error line
            ["enumerate", "cud"],
            ["seq", "euler", "--n", "x"],
            ["nope"],
            ["map", "phi", "1", "--bogus"],
            # a flag must be spelled in full
            ["seq", "euler", "--n", "5", "--form", "json"],
        ],
    )
    def test_exit_2(self, capsys, tmp_path, argv):
        if argv[0] == "diagram":
            argv = argv + ["--out", str(tmp_path / "fig.svg")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "fig.svg").exists()


class TestOneParser:
    # requests that share the parser in turn, each reading different flags
    REQUESTS = [
        ["expect", "ud-cycles", "--n", "4", "--montecarlo", "--seed", "3", "--samples", "50"],
        ["expect", "ud-cycles", "--n", "4"],
        ["map", "h", "4 8 1 2 7 6 3 5", "--pattern", "max,..."],
        ["map", "h", "4 8 1 2 7 6 3 5"],
        ["map", "foata", "(1,4)(2,8,3,6)(5)(7)", "--order", "asc"],
        ["map", "foata", "(1,4)(2,8,3,6)(5)(7)"],
        ["seq", "euler", "--n", "6", "--format", "json"],
        ["seq", "euler", "--n", "6"],
        ["enumerate", "cud", "--n", "4", "--stats", "c,fp", "--format", "csv"],
        ["enumerate", "cud", "--n", "4"],
        ["expect", "ud-cycles", "--n", "4", "--seed", "3"],
        ["verify", "--n", "2"],
    ]

    def test_requests_in_a_row_match_each_alone(self, capsys):
        alone = []
        for argv in self.REQUESTS:
            cli.build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        assert [code for code, _ in alone] == [0] * 10 + [2, 0]
        for argv, expected in zip(self.REQUESTS, alone):
            assert run(capsys, *argv) == expected, argv
        assert cli.build_parser.cache_info().misses == 1


# by subcommand, the flags it reads and the output formats it prints
_READS = {
    "seq": ({"--n", "--cap", "--out", "--format"}, "text,json"),
    "enumerate": ({"--n", "--stats", "--cap", "--out", "--format"}, "text,json,csv"),
    "map": ({"--bits", "--pattern", "--order", "--out", "--format"}, "text,json"),
    "verify": ({"--n", "--json", "--out", "--format"}, "text,json"),
    "expect": (
        {"--n", "--exact", "--montecarlo", "--samples", "--seed", "--float", "--cap",
         "--out", "--format"},
        "text,json",
    ),
    "diagram": ({"--out", "--format"}, "text"),
}


class TestHelp:
    @pytest.mark.parametrize("command", sorted(_READS))
    def test_help_lists_only_the_flags_read(self, capsys, command):
        flags, formats = _READS[command]
        code, out = run(capsys, command, "--help")
        assert code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == flags | {"--help"}
        assert set(re.findall(r"--format \{([a-z,]+)\}", out)) == {formats}


# the argv of the exit-code fuzz test: a subcommand with its usual names,
# inputs and --n, then flags with good and bad values, other names and junk;
# every --n is small, so that no request takes long


def _one_of(tokens):
    return st.sampled_from(tokens).map(lambda token: [token])


_INPUTS = ("2 1 3", "(1,2)(3)", "1 3 2 4", "(1,4,2,3)", "0 1", "1 1", "(1,2", "", "x")
_SMALL = ("-1", "0", "1", "2", "3", "4", "x")
_N = _one_of(_SMALL).map(lambda value: ["--n"] + value)
_HEADS = {
    "seq": st.tuples(_one_of(SEQUENCE_IDS), _N),
    "enumerate": st.tuples(_one_of([f.value for f in Family]), _N),
    "map": st.tuples(_one_of(tuple(cli._MAPS)), _one_of(_INPUTS)),
    "verify": st.tuples(_N),
    "expect": st.tuples(_one_of(("ud-cycles",)), _N),
    "diagram": st.tuples(_one_of(_INPUTS)),
    "nope": st.tuples(),
}
_VALUED = {
    "--n": _SMALL,
    "--cap": _SMALL,
    "--seed": _SMALL,
    "--samples": _SMALL,
    "--format": ("text", "json", "csv", "xml"),
    "--stats": ("c", "c,ud,nud", "fp,exc", "c,fp,c", "bogus", ""),
    "--bits": ("101", "1", "", "12"),
    "--pattern": ("min,...", "min,max,...", "max", "min,x,..."),
    "--order": ("asc", "desc", "up"),
    "--out": ("OUT", "MISSING"),
}
_PIECES = st.one_of(
    st.sampled_from(sorted(_VALUED)).flatmap(
        lambda flag: _one_of(_VALUED[flag]).map(lambda value: [flag] + value)
    ),
    _one_of(("--json", "--exact", "--montecarlo", "--float", "-h", "--bogus", "--")),
    _one_of(_INPUTS + ("nope", "cud", "phi", "euler")),
)
_ARGV = st.sampled_from(sorted(_HEADS)).flatmap(
    lambda command: st.tuples(_HEADS[command], st.lists(_PIECES, max_size=3)).map(
        lambda parts: [command] + sum(parts[0] + tuple(parts[1]), [])
    )
)


class TestExitCodeFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=_ARGV)
    def test_exit_code_contract(self, capsys, tmp_path, monkeypatch, argv):
        # a smaller default sample count keeps Monte Carlo requests quick; the
        # parser is built first, so that the default its help quotes stays real
        cli.build_parser()
        monkeypatch.setattr(cli, "DEFAULT_SAMPLES", 20)
        outs = {"OUT": str(tmp_path / "out"), "MISSING": str(tmp_path / "no" / "out")}
        argv = [outs.get(token, token) for token in argv]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert code != 1 or argv[0] == "verify", argv
        # a refusal is one error line, and nothing else writes to stderr
        if code in (2, 3):
            assert err.startswith("error: ") and err.count("\n") == 1, argv
        else:
            assert err == "", argv
