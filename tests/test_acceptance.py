"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is exact except the two floating-point limit checks,
which carry their stated 1e-9 tolerances.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

from cudlab import bijections as bij
from cudlab import matchings
from cudlab.catalog import (
    catalog_series,
    expected_ud_cycles,
    no_ud_cycles_count,
    secant_cf_convergent,
)
from cudlab.oracle import _to_poly, count_family, distribution, enumerate_family
from cudlab.perms import (
    Family,
    Permutation,
    format_cycles,
    format_permutation,
    from_cycles,
    parse_cycles,
    parse_permutation,
)
from cudlab.series import euler_numbers, stirling_c, zigzag_egf_series
from polyeval import evaluate_series
from cudlab.statistics import MAX, MIN, MinMaxPattern, m_s, stats

E = euler_numbers(24)


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_counting():
    assert E[9] == 7936
    for n in range(9):
        assert count_family(Family.CUD, n) == E[n + 1]
    for n in (0, 2, 4, 6, 8):
        assert count_family(Family.CUD_EVEN_ONLY, n) == E[n]
    for n in range(9):
        assert count_family(Family.CUD_ODD_ONLY, n) == E[n]
    _announce(1, "CUD / even-only / odd-only counts match the zigzag numbers")


def test_criterion_02_gcud_sequence():
    expected = [1, 2, 6, 21, 97, 491, 2989, 19756]
    series = catalog_series("gcud", 12)
    for n in range(1, 9):
        assert count_family(Family.GCUD, n) == expected[n - 1]
        assert series.egf_int(n) == expected[n - 1]
    _announce(2, "GCUD counts equal 1,2,6,21,97,491,2989,19756 by oracle and series")


def test_criterion_03_gcud_subsequences():
    cyclic = [0, 1, 0, 3, 0, 29, 0, 569]
    even_only = [0, 1, 0, 6, 0, 89, 0, 2431]
    cyc_series = catalog_series("gcud-even-cyclic", 12)
    even_series = catalog_series("gcud-even-only", 12)
    for n in range(1, 9):
        even_cyclic_count = sum(
            1
            for p in enumerate_family(Family.GCUD_CYCLIC, n)
            if len(p.word) % 2 == 0
        )
        assert even_cyclic_count == cyclic[n - 1]
        assert cyc_series.egf_int(n) == cyclic[n - 1]
        assert count_family(Family.GCUD_EVEN_ONLY, n) == even_only[n - 1]
        assert even_series.egf_int(n) == even_only[n - 1]
    # the series reach past the oracle cap: odd coefficients vanish and the
    # next even-cyclic term follows the count E_{2k} - (k-1) E_{2k-1}
    assert cyc_series.egf_int(9) == 0 and even_series.egf_int(9) == 0
    assert cyc_series.egf_int(10) == E[10] - 4 * E[9]
    _announce(3, "GCUD even-cyclic and even-only sequences match oracle and series")


def test_criterion_04_cud_derangements():
    expected = [0, 1, 1, 5, 15, 71, 341, 1945]
    series = catalog_series("cud-derangements", 12)
    for n in range(1, 9):
        assert count_family(Family.CUD_DERANGEMENT, n) == expected[n - 1]
        assert series.egf_int(n) == expected[n - 1]
    _announce(4, "CUD derangement counts match e^-z/(1-sin z)")


def test_criterion_05_bijections():
    for n in range(9):
        cud_words = {p.word for p in enumerate_family(Family.CUD, n)}
        phi_images = set()
        jbij_images = set()
        for p in enumerate_family(Family.UD, n + 1):
            sv = stats(p)
            c = bij.phi(p)
            sc = stats(from_cycles(c))
            assert sc.c_e == sv.lrm - 1
            assert sc.c_o == sv.st - 1
            assert bij.phi_inverse(c) == p
            phi_images.add(from_cycles(c).word)
            c2 = bij.jbij(p)
            assert len(c2.cycles) == sv.extr
            assert bij.jbij_inverse(c2) == p
            jbij_images.add(from_cycles(c2).word)
        assert phi_images == cud_words
        assert jbij_images == cud_words

    # worked examples, byte-exact
    assert format_cycles(bij.f_odd(parse_permutation("4 7 1 9 3 8 5 6 2"))) == "(1,7,4)(2)(3,8,6,9,5)"
    assert bij.g_even(parse_permutation("4 7 2 6 1 5 3 8")) == parse_cycles("(4,7)(2,6)(1,5,3,8)")
    assert format_cycles(bij.phi(parse_permutation("6 9 3 8 5 12 1 10 2 11 4 7"))) == "(1,10,3)(2,7,4,11)(5,8)(6)(9)"
    assert format_cycles(bij.jbij(parse_permutation("3 5 1 8 2 7 4 9 6"))) == "(1,4)(2,8,3,6)(5)(7)"
    assert format_permutation(bij.h_map(parse_permutation("4 8 1 2 7 6 3 5"))) == "5 3 6 2 7 1 8 4"
    assert (
        format_permutation(bij.ell_map(parse_permutation("8 6 7 4 2 5 1 3"), (1, 0, 0, 1, 1)))
        == "5 7 2 4 1 8 6 9 3"
    )
    _announce(5, "phi/jbij bijections, statistic transport, and worked examples")


def test_criterion_06_stirling_distributions():
    patterns = (
        MinMaxPattern.alternating(),
        MinMaxPattern.repeat(MIN),
        MinMaxPattern((), (MAX, MIN)),
        MinMaxPattern.repeat(MAX),
    )
    for n in range(1, 8):
        expected = {k: stirling_c(n, k) for k in range(1, n + 1) if stirling_c(n, k)}
        perms = [Permutation(w) for w in itertools.permutations(range(1, n + 1))]
        assert dict(Counter(stats(p).st for p in perms)) == expected
        for pattern in patterns:
            assert dict(Counter(m_s(p, pattern) for p in perms)) == expected
        extr_counts = Counter(stats(p).extr for p in perms)
        for k in range(1, n):
            assert extr_counts[k] == 2**k * stirling_c(n - 1, k)
    _announce(6, "st, m_s (4 patterns), and extr distributions match Stirling counts")


def test_criterion_07_series_identities():
    order = 20
    egf = zigzag_egf_series(order + 2)
    d1 = egf.differentiate()
    assert egf.truncate(order - 1).integrate().exp() == d1.truncate(order)
    from cudlab.series import sec_series, tan_series, geometric_series

    assert tan_series(order - 1).integrate().exp() == sec_series(order)
    assert sec_series(order - 1).integrate().exp() == egf.truncate(order)
    assert d1.differentiate().truncate(order) == egf.truncate(order) * d1.truncate(order)

    assert evaluate_series(catalog_series("cud-fp-cycles", 14), {"x": 1, "t": 1}) == catalog_series("cud", 14)
    odd_even, cycles = catalog_series("cud-odd-even", 14), catalog_series("cud-cycles", 14)
    for t in range(15):  # term n has degree at most n <= 14 in t, so 15 values fix it
        assert evaluate_series(odd_even, {"t_o": t, "t_e": t}) == evaluate_series(cycles, {"t": t})
    assert evaluate_series(catalog_series("gcud-fp-cycles", 14), {"x": 1, "t": 1}) == catalog_series("gcud", 14)
    assert evaluate_series(catalog_series("perm-ud-nud", 14), {"v": 1, "w": 1}) == geometric_series(14)
    assert evaluate_series(catalog_series("ud-st", 14), {"t": 1}) == zigzag_egf_series(14)
    _announce(7, "series identity suite and marker specializations exact at order 20")


def test_criterion_08_multivariate_distributions():
    cases = (
        ("cud-fp-cycles", Family.CUD, ("fp", "c"), ("x", "t"), 0),
        ("cud-odd-even", Family.CUD, ("c_o", "c_e"), ("t_o", "t_e"), 0),
        ("gcud-fp-cycles", Family.GCUD, ("fp", "c"), ("x", "t"), 0),
        ("perm-ud-nud", Family.ALL, ("ud", "nud"), ("v", "w"), 0),
        ("ud-st", Family.UD, ("st",), ("t",), 0),
        ("ud-lrm", Family.UD, ("lrm",), ("t",), 1),
        ("ud-extr", Family.UD, ("extr",), ("t",), 1),
    )
    for seq_id, family, stat_names, markers, start in cases:
        series = catalog_series(seq_id, 8)
        for n in range(start, 9):
            rows = distribution(family, n, stat_names)
            assert _to_poly(rows, markers) == series.egf_term(n), (seq_id, n)
    _announce(8, "joint oracle distributions equal catalog coefficients for n <= 8")


def test_criterion_09_expectations():
    for n in range(1, 9):
        total = 0
        no_ud = 0
        for p in enumerate_family(Family.ALL, n):
            u = stats(p).ud
            total += u
            no_ud += u == 0
        assert Fraction(total, factorial(n)) == expected_ud_cycles(n)
        assert no_ud == no_ud_cycles_count(n)
    assert abs(float(expected_ud_cycles(40)) - 1.841817641) < 1e-9
    assert abs(Fraction(no_ud_cycles_count(40, cap=40), factorial(40)) - Fraction("0.1585290152")) < Fraction(1, 10**9)
    _announce(9, "expected up-down cycles and no-up-down-cycle counts, limits to 1e-9")


def test_criterion_10_continued_fraction():
    for depth in range(1, 11):
        series = secant_cf_convergent(depth, depth)
        assert list(series.coeffs) == [E[2 * m] for m in range(depth + 1)]
    _announce(10, "depth-d secant convergents match E_0..E_{2d} through z^d, d <= 10")


def test_criterion_11_matchings():
    for n in (2, 4, 6, 8):
        pairs = set()
        for p in enumerate_family(Family.CUD_EVEN_ONLY, n):
            mp = matchings.to_matching_pair(p)
            assert matchings.from_matching_pair(mp) == p
            pairs.add((mp.red, mp.blue))
        assert len(pairs) == E[n]
    fig = from_cycles(parse_cycles("(1,4,2,6,3,7)(5,8)"))
    mp = matchings.to_matching_pair(fig)
    assert mp.red == ((1, 4), (2, 6), (3, 7), (5, 8))
    assert mp.blue == ((1, 7), (2, 4), (3, 6), (5, 8))
    golden = Path(__file__).parent / "golden" / "example_arc_diagram.svg"
    assert matchings.arc_diagram_svg(fig) == golden.read_text(encoding="ascii")
    _announce(11, "matching-pair bijection, worked arc sets, and stable SVG")
