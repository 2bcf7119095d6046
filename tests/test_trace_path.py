"""The benchmark's per-layer trace patches cudlab by attribute name; a rename
in cudlab must fail here, not only in ``perfbench/run.py --trace 1``.  So
must a change that breaks one of the benchmark's output checkers."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import contextlib, io, json
import tracer
from cudlab import cli

t = tracer.Tracer()
tracer.install(t)
requests = [
    ["seq", "perm-ud-nud", "--n", "8"],
    ["verify", "--n", "3"],
    ["enumerate", "gcud", "--n", "5", "--stats", "fp"],
    ["enumerate", "all", "--n", "4", "--stats", "c,lrm"],
    ["enumerate", "ud", "--n", "6", "--stats", "lrm,st"],
]
codes, walks = [], []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in requests:
        before = t.counts["oracle.walks"]
        codes.append(cli.main(argv))
        walks.append(t.counts["oracle.walks"] - before)
metrics = tracer.per_layer_metrics(t)
print(json.dumps({"codes": codes, "catalog_series": t.calls["catalog.catalog_series"],
                  "distribution": t.calls["oracle.distribution"], "walks": walks,
                  "metrics": len(metrics)}))
"""


def _traced(script: str) -> dict:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_traced_seq_and_verify_run():
    payload = _traced(TRACED_RUN)
    assert payload["codes"] == [0, 0, 0, 0, 0]
    assert payload["catalog_series"] > 0
    assert payload["distribution"] == 3
    # the tracer counts S_n walks at ``oracle.itertools``: verify walks S_0..S_3,
    # and no enumerate request walks one: gcud is counted by size, ud over rank
    # states, and all by the same sweep, ``oracle._by_rank``, which places
    # each entry by rank
    assert payload["walks"] == [0, 4, 0, 0, 0]
    assert payload["metrics"] > 0


# one operation of the benchmark's ``sample`` shape, on an up-down word of [9]
TRACED_SAMPLE = """
import json
import tracer
from cudlab import bijections, perms, statistics

t = tracer.Tracer()
tracer.install(t)
p = perms.Permutation((3, 5, 1, 8, 2, 7, 4, 9, 6))
c, d = bijections.phi(p), bijections.jbij(p)
c_perm, d_perm = perms.from_cycles(c), perms.from_cycles(d)
backs = [bijections.phi_inverse(c).word, bijections.jbij_inverse(d).word]
statistics.stats(p), statistics.stats(c_perm)
members = [perms.is_member(q, perms.Family.CUD) for q in (c_perm, d_perm)]
metrics = tracer.per_layer_metrics(t)
print(json.dumps({"backs": backs, "members": members,
                  "to_cycles": metrics["perms.to_cycles.calls"][0],
                  "stats": metrics["statistics.stats.calls"][0],
                  "is_member": metrics["perms.is_member.calls"][0]}))
"""


def test_traced_sample_call():
    payload = _traced(TRACED_SAMPLE)
    word = [3, 5, 1, 8, 2, 7, 4, 9, 6]
    assert payload["backs"] == [word, word]
    assert payload["members"] == [True, True]
    # each stats and is_member call reaches to_cycles by name, the three on a
    # permutation from_cycles built included
    assert (payload["stats"], payload["is_member"], payload["to_cycles"]) == (2, 2, 4)


def test_benchmark_checkers_catch_a_wrong_result():
    # each workload's checker passes a clean result and fails a tampered one
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "self-test passed" in result.stdout
