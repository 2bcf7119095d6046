"""Smoke tests for the scripts in ``scripts/``, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    result = run_script("print_paper_tables.py", "--n-max", "6", "--dist-max", "3")
    assert result.returncode == 0, result.stderr
    assert "== catalog sequences (EGF terms) ==" in result.stdout


@pytest.mark.parametrize("n_max, code", [("30", 3), ("-1", 2)])
def test_print_paper_tables_exit_codes(n_max, code):
    # the CLI's contract: one error line, no traceback, 3 past the order cap
    # and 2 for bad input
    result = run_script("print_paper_tables.py", "--n-max", n_max)
    assert result.returncode == code, result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_render_figure_matches_golden(tmp_path):
    out = tmp_path / "figure.svg"
    result = run_script("render_figure.py", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (GOLDEN / "example_arc_diagram.svg").read_bytes()
