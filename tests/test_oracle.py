import itertools
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cudlab import oracle, perms
from cudlab.catalog import CapExceeded
from cudlab.oracle import (
    WORD_FAMILIES,
    Census,
    census,
    count_family,
    distribution,
    distribution_csv,
    enumerate_family,
    iter_cud_direct,
    iter_cycle_family,
    iter_ud_by_filter,
    report_passed,
    verify_all,
)
from cudlab.perms import Family, Permutation, is_member
from cudlab.series import MPoly, euler_numbers, stirling_c
from cudlab.statistics import STAT_NAMES, m_s, stats

GOLDEN = Path(__file__).parent / "golden"


class TestCounts:
    def test_spot_counts(self):
        assert count_family(Family.CUD, 3) == 5
        assert count_family(Family.GCUD, 4) == 21
        assert count_family(Family.UD, 0) == 1
        assert count_family(Family.CUD_EVEN_ONLY, 6) == 61

    def test_cud_counts_match_euler(self):
        E = euler_numbers(9)
        for n in range(8):
            assert count_family(Family.CUD, n) == E[n + 1]

    def test_lexicographic_order(self):
        words = [p.word for p in enumerate_family(Family.UD, 4)]
        assert words == sorted(words)
        words = [p.word for p in enumerate_family(Family.CUD, 4)]
        assert words == sorted(words)

    def test_dual_generation(self):
        for n in range(7):
            assert [p.word for p in enumerate_family(Family.UD, n)] == [
                p.word for p in iter_ud_by_filter(n)
            ]
            assert sorted(p.word for p in iter_cud_direct(n)) == [
                p.word for p in enumerate_family(Family.CUD, n)
            ]

    @pytest.mark.parametrize("family", WORD_FAMILIES)
    def test_word_families_match_the_s_n_filter(self, family):
        for n in range(9):
            filtered = [
                word
                for word in itertools.permutations(range(1, n + 1))
                if is_member(Permutation(word), family)
            ]
            assert [p.word for p in enumerate_family(family, n)] == filtered, n

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            list(enumerate_family(Family.ALL, 10))
        with pytest.raises(CapExceeded):
            list(enumerate_family(Family.UD, 12))
        # explicit cap overrides the default
        assert count_family(Family.ALL, 4, cap=4) == 24
        with pytest.raises(CapExceeded):
            count_family(Family.ALL, 4, cap=3)


CYCLE_FAMILIES = tuple(perms._CYCLE_FAMILIES)


@pytest.fixture(scope="module")
def census_8():
    return census(8)


class TestCycleFamilies:
    """The direct route of every cycle family against the S_n filter."""

    @pytest.mark.parametrize("family", CYCLE_FAMILIES)
    def test_direct_route_matches_the_s_n_filter(self, family):
        for n in range(8):
            built = list(iter_cycle_family(family, n))
            assert sorted(p.word for p, _ in built) == [
                p.word for p in oracle._filter_s_n(family, n)
            ], n
            assert all(perms.to_cycles(p).cycles == cycles for p, cycles in built), n

    @pytest.mark.parametrize("family", CYCLE_FAMILIES)
    def test_distribution_at_8_matches_the_census(self, family, census_8):
        assert distribution(family, 8, STAT_NAMES) == census_8.distribution(
            family, STAT_NAMES
        )

    @pytest.mark.parametrize(
        "family", [f for f in CYCLE_FAMILIES if perms._CYCLE_FAMILIES[f][1]]
    )
    def test_single_cycle_family_is_empty_at_0(self, family):
        assert list(iter_cycle_family(family, 0)) == []

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=9, unique=True))
    def test_predicates_read_only_relative_order(self, values):
        # the admissible patterns are rank patterns, relabelled onto any points
        i = values.index(min(values))
        cycle = tuple(values[i:] + values[:i])
        ranks = {x: r for r, x in enumerate(sorted(cycle))}
        standard = tuple(ranks[x] for x in cycle)
        for family in CYCLE_FAMILIES:
            admissible, _ = perms._CYCLE_FAMILIES[family]
            assert admissible(cycle) == admissible(standard), family


class TestDistribution:
    def test_cud_two_cycles(self):
        table = distribution(Family.CUD, 2, ("c",))
        assert table.rows == {(1,): 1, (2,): 1}

    def test_st_over_s3(self):
        table = distribution(Family.ALL, 3, ("st",))
        assert table.rows == {(1,): 2, (2,): 3, (3,): 1}

    def test_lrm_cycles_stirling_agree(self):
        for n in range(1, 7):
            lrm = distribution(Family.ALL, n, ("lrm",)).rows
            cyc = distribution(Family.ALL, n, ("c",)).rows
            assert lrm == cyc
            assert lrm == {
                (k,): stirling_c(n, k) for k in range(1, n + 1) if stirling_c(n, k)
            }

    def test_to_poly(self):
        table = distribution(Family.CUD, 2, ("c",))
        t = MPoly.marker("t")
        assert table.to_poly(("t",)) == t + t * t

    def test_csv_golden(self):
        table = distribution(Family.CUD, 4, ("c_o", "c_e"))
        want = (GOLDEN / "cud4_odd_even.csv").read_text(encoding="ascii")
        assert distribution_csv(table) == want


class _CountingItertools:
    """Stands in for ``itertools`` in the oracle and records the size of
    every S_n walked."""

    def __init__(self):
        self.walked = []

    def __getattr__(self, name):
        return getattr(itertools, name)

    def permutations(self, iterable):
        values = tuple(iterable)
        self.walked.append(len(values))
        return itertools.permutations(values)


def _reference_census(n):
    """``census(n)`` from the public definitions: ``is_member`` for every
    family, ``stats`` and ``m_s`` of every permutation of S_n."""
    row_families = oracle._ROW_FAMILIES + ((Family.ALL,) if n <= oracle._MAP_CHECK_N else ())
    stat_counts = {family: Counter() for family in Family}
    ms_counts = tuple(Counter() for _ in oracle._PATTERNS)
    rows = {family: [] for family in row_families}
    for word in itertools.permutations(range(1, n + 1)):
        p = Permutation(word)
        sv = stats(p)
        ms = tuple(m_s(p, pattern) for pattern in oracle._PATTERNS)
        for counter, value in zip(ms_counts, ms):
            counter[value] += 1
        for family in Family:
            if is_member(p, family):
                stat_counts[family][sv] += 1
                if family in rows:
                    rows[family].append((word, sv, ms))
    return Census(n, stat_counts, ms_counts, rows)


class TestCensus:
    @pytest.mark.parametrize("n", range(8))
    def test_kernel_matches_the_public_definitions(self, n):
        cen, ref = census(n), _reference_census(n)
        # every family's counts, all three m_s patterns, and the rows in order
        assert cen == ref
        for family in Family:
            # keyed in order of first appearance, as the walk meets them
            assert list(cen.stat_counts[family]) == list(ref.stat_counts[family])
        assert [list(c) for c in cen.ms_counts] == [list(c) for c in ref.ms_counts]

    def test_verify_walks_each_s_n_once(self, monkeypatch):
        counting = _CountingItertools()
        monkeypatch.setattr(oracle, "itertools", counting)
        assert report_passed(verify_all(5))
        assert sorted(counting.walked) == [0, 1, 2, 3, 4, 5]

    def test_agrees_with_the_enumeration(self):
        for n in range(7):
            cen = census(n)
            for family in Family:
                assert cen.count(family) == count_family(family, n), (family, n)
                assert cen.distribution(family, STAT_NAMES) == distribution(
                    family, n, STAT_NAMES
                ), (family, n)

    def test_keeps_every_permutation_only_where_the_maps_are_checked(self):
        assert len(census(6).rows[Family.ALL]) == 720
        assert Family.ALL not in census(7).rows


class TestVerifyAll:
    def test_passes_at_small_cap(self):
        report = verify_all(4)
        assert report_passed(report)
        assert len(report) >= 40
        json.dumps(report)  # must be serializable as-is

    def test_fault_injection_names_euler_check(self):
        def corrupted(n_max):
            values = euler_numbers(n_max)
            values[6] += 1
            return values

        report = verify_all(2, euler_fn=corrupted)
        assert not report_passed(report)
        failing = [e["check"] for e in report if not e["pass"]]
        assert "euler-boustrophedon-vs-series" in failing

    def test_cap_guard(self):
        with pytest.raises(CapExceeded):
            verify_all(10)
