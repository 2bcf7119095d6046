"""Smoke tests for the scripts in ``scripts/``, run as a user runs them."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cudlab.oracle import verify_all

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_print_paper_tables():
    # at size 0 some marked sequences have no term yet
    for dist_max in ("3", "0"):
        result = run_script("print_paper_tables.py", "--n-max", "6", "--dist-max", dist_max)
        assert result.returncode == 0, result.stderr
        assert "== catalog sequences (EGF terms) ==" in result.stdout


def test_print_paper_tables_matches_golden_digest():
    result = run_script("print_paper_tables.py")
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("ascii")).hexdigest()
    assert digest == (GOLDEN / "paper_tables.sha256").read_text(encoding="ascii").strip()


@pytest.mark.parametrize(
    "args, code",
    [
        pytest.param(["--n-max", "30"], 3, id="30-3"),
        pytest.param(["--n-max", "-1"], 2, id="-1-2"),
        pytest.param(["--n-max", "x"], 2, id="x-2"),
        pytest.param(["--dist-max", "-1"], 2, id="dist-max--1-2"),
    ],
)
def test_print_paper_tables_exit_codes(args, code):
    # the CLI's contract: one error line, no traceback and no table, 3 past
    # the order cap and 2 for bad input
    result = run_script("print_paper_tables.py", *args)
    assert result.returncode == code, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_verify_footprint_measures_the_report():
    # one fresh child at n = 4; its digest is that of the in-process report
    result = run_script("verify_footprint.py", "--n", "4")
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout)
    text = (json.dumps(verify_all(4), sort_keys=True) + "\n").encode("ascii")
    assert line["sha256"] == hashlib.sha256(text).hexdigest()
    assert line["bytes"] == len(text) and line["exit"] == 0 and line["n"] == 4
    assert line["wall_s"] > 0 and line["peak_rss_mb"] > 0
