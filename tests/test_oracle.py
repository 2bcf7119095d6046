import ast
import gc
import inspect
import itertools
import json
import random
import tracemalloc
import types
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cudlab import bijections, catalog, oracle, perms, statistics
from cudlab.catalog import CapExceeded, catalog_series
from cudlab.oracle import (
    WORD_FAMILIES,
    Census,
    census,
    count_family,
    distribution,
    distribution_csv,
    enumerate_family,
    iter_cud_direct,
    iter_ud_by_filter,
    verify_all,
    verify_entries,
)
from cudlab.perms import Family, Permutation, is_member
from cudlab.series import MPoly, euler_numbers, stirling_c
from cudlab.statistics import CYCLE_SHARES, STAT_NAMES, MinMaxPattern, m_s, stats

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
            list(enumerate_family(Family.ALL, 11))
        with pytest.raises(CapExceeded):
            list(enumerate_family(Family.UD, 12))
        # explicit cap overrides the default
        assert count_family(Family.ALL, 4, cap=4) == 24
        with pytest.raises(CapExceeded):
            count_family(Family.ALL, 4, cap=3)


CYCLE_FAMILIES = tuple(perms._CYCLE_FAMILIES)
CYCLE_SHARES_NAMES = tuple(CYCLE_SHARES)


@pytest.fixture(scope="module")
def census_8():
    return census(8)


class TestCycleFamilies:
    """The direct route of every cycle family against the S_n filter."""

    @pytest.mark.parametrize("family", CYCLE_FAMILIES)
    def test_direct_route_matches_the_s_n_filter(self, family):
        for n in range(8):
            assert sorted(oracle._cycle_members(family, n)) == [
                p.word for p in oracle._filter_s_n(family, n)
            ], n

    @pytest.mark.parametrize("family", CYCLE_FAMILIES)
    def test_distribution_at_8_matches_the_census(self, family, census_8):
        assert distribution(family, 8, STAT_NAMES) == census_8.distribution(
            family, STAT_NAMES
        )

    @pytest.mark.parametrize(
        "family", [f for f in CYCLE_FAMILIES if perms._CYCLE_FAMILIES[f][2]]
    )
    def test_single_cycle_family_is_empty_at_0(self, family):
        assert list(oracle._cycle_members(family, 0)) == []

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=9, unique=True))
    def test_predicates_read_only_relative_order(self, values):
        # the admissible patterns are rank patterns, relabelled onto any points
        i = values.index(min(values))
        cycle = tuple(values[i:] + values[:i])
        ranks = {x: r for r, x in enumerate(sorted(cycle))}
        standard = tuple(ranks[x] for x in cycle)
        for family in CYCLE_FAMILIES:
            assert perms._admits(family, (cycle,)) == perms._admits(family, (standard,)), family


class TestDistribution:
    def test_cud_two_cycles(self):
        assert distribution(Family.CUD, 2, ("c",)) == {(1,): 1, (2,): 1}

    def test_st_over_s3(self):
        assert distribution(Family.ALL, 3, ("st",)) == {(1,): 2, (2,): 3, (3,): 1}

    def test_lrm_cycles_stirling_agree(self):
        for n in range(1, 7):
            lrm = distribution(Family.ALL, n, ("lrm",))
            cyc = distribution(Family.ALL, n, ("c",))
            assert lrm == cyc
            assert lrm == {
                (k,): stirling_c(n, k) for k in range(1, n + 1) if stirling_c(n, k)
            }

    def test_a_table_is_a_marked_term(self):
        want = MPoly(("t",), {(1,): 1, (2,): 1})
        table = distribution(Family.CUD, 2, ("c",))
        assert MPoly(("t",), table) == want == catalog_series("cud-cycles", 2).egf_term(2)

    def test_csv_golden(self):
        names = ("c_o", "c_e")
        want = (GOLDEN / "cud4_odd_even.csv").read_text(encoding="ascii")
        assert distribution_csv(names, distribution(Family.CUD, 4, names)) == want


# every single statistic, every ordered pair and all ten
_REQUESTS = (
    [(name,) for name in STAT_NAMES] + list(itertools.permutations(STAT_NAMES, 2)) + [STAT_NAMES]
)


class TestLeanDistribution:
    """``distribution`` computes only the named statistics, by per-pattern
    shares on the cycle families, and must still equal the table of the
    public ``stats`` over the S_n filter."""

    @pytest.mark.parametrize("family", list(Family))
    def test_every_request_matches_the_reference(self, family):
        for n in range(8 if family in perms._CYCLE_FAMILIES else 7):
            vectors = [stats(p) for p in oracle._filter_s_n(family, n)]
            for names in _REQUESTS:
                reference = Counter(tuple(getattr(sv, name) for name in names) for sv in vectors)
                assert distribution(family, n, names) == dict(reference), (family, n, names)

    def test_a_repeated_name_repeats_its_value(self):
        # the CLI refuses a repeated name; the library keys rows by position
        table = distribution(Family.CUD, 5, ("c", "exc", "c"))
        pairs = distribution(Family.CUD, 5, ("c", "exc"))
        assert table == {(c, exc, c): k for (c, exc), k in pairs.items()}

    def test_a_word_statistic_decomposes_no_word(self, monkeypatch):
        n = 7
        decomposed = _count_calls(monkeypatch, "_cycles", oracle)
        to_cycles = _count_calls(monkeypatch, "to_cycles", perms, statistics)
        distribution(Family.UD, n, ("lrm",))
        assert decomposed == [] and to_cycles == []
        # naming a cycle statistic too decomposes no word: the walk closes
        # each cycle as it places the entries
        table = distribution(Family.UD, n, ("lrm", "c"))
        assert sum(table.values()) == euler_numbers(n)[n]
        assert decomposed == [] and to_cycles == []
        # the stand-in counts: the word tally decomposes each word once
        oracle._tally(oracle._words(Family.UD, n), n, ("lrm", "c"))
        assert len(decomposed) == euler_numbers(n)[n] and to_cycles == []

    def test_a_cycle_statistic_scans_no_word(self, monkeypatch):
        n = 7
        scans = _count_calls(monkeypatch, "_scan", oracle, statistics)
        distribution(Family.GCUD, n, ("fp",))
        assert scans == []
        # the stand-in counts: a word statistic scans each member once
        distribution(Family.GCUD, n, ("fp", "lrm"))
        assert len(scans) == count_family(Family.GCUD, n)

    def test_all_walks_plain_words_once(self, monkeypatch):
        counting = _CountingItertools()
        monkeypatch.setattr(oracle, "itertools", counting)
        members = _count_calls(monkeypatch, "is_member", perms, oracle)
        decomposed = _count_calls(monkeypatch, "_cycles", oracle)
        scans = _count_calls(monkeypatch, "_scan", oracle, statistics)
        built = []
        trusted = Permutation._trusted

        def counting_trusted(cls, word):
            built.append(word)
            return trusted(word)

        monkeypatch.setattr(Permutation, "_trusted", classmethod(counting_trusted))
        # the walk places each word's entries itself: no S_n walk, no
        # decomposition, no scan, no Permutation and no membership test
        table = distribution(Family.ALL, 7, ("c", "lrm"))
        assert sum(table.values()) == 5040
        assert counting.walked == members == decomposed == scans == built == []
        # the stand-ins count: the word tally walks S_7 once and decomposes
        # and scans each word once
        oracle._tally(oracle._words(Family.ALL, 7), 7, ("c", "lrm"))
        assert counting.walked == [7] and len(decomposed) == len(scans) == 5040

    def test_a_word_family_walks_no_s_n(self, monkeypatch):
        counting = _CountingItertools()
        monkeypatch.setattr(oracle, "itertools", counting)
        table = distribution(Family.UD, 9, ("lrm", "st", "extr", "c"))
        assert sum(table.values()) == euler_numbers(9)[9]
        assert counting.walked == []

    @pytest.mark.parametrize("family", [Family.ALL, Family.UD, Family.DOWNUP])
    @pytest.mark.parametrize(
        "names", [("c", "lrm", "st", "extr"), ("lrm", "st", "extr"), ("exc", "ud", "st")]
    )
    def test_plain_words_at_8_match_the_census(self, family, names, census_8):
        assert distribution(family, 8, names) == census_8.distribution(family, names)


def _count_calls(monkeypatch, name, *modules):
    """Patch one counting stand-in for ``name`` into every module that binds
    it; returns the list of the calls' arguments."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_to_cycles_and_the_word_path_run_one_kernel(monkeypatch):
    walks = _count_calls(monkeypatch, "_walk_cycles", perms)
    word = (2, 5, 1, 7, 3, 6, 4)
    assert oracle._cycles(word) == list(perms.to_cycles(Permutation(word)).cycles)
    assert len(walks) == 2


class TestBySize:
    """Cycle statistics alone, on a cycle family, are counted by size
    (``oracle._by_size``), by the exponential formula; every other request
    tallies member words."""

    @pytest.mark.parametrize("family", CYCLE_FAMILIES)
    def test_cycle_statistics_at_8_match_the_census(self, family, census_8):
        for names in [CYCLE_SHARES_NAMES] + [(name,) for name in CYCLE_SHARES_NAMES]:
            assert distribution(family, 8, names) == census_8.distribution(family, names), names

    def test_a_cycle_request_builds_and_scans_no_member(self, monkeypatch):
        built = _count_calls(monkeypatch, "_cycle_members", oracle)
        decomposed = _count_calls(monkeypatch, "_cycles", oracle)
        scans = _count_calls(monkeypatch, "_scan", oracle, statistics)
        distribution(Family.GCUD, 7, CYCLE_SHARES_NAMES)
        assert built == decomposed == scans == []
        # the stand-ins count: naming lrm too builds the members, once
        distribution(Family.GCUD, 7, ("fp", "lrm"))
        assert built == [(Family.GCUD, 7)]
        assert len(decomposed) == len(scans) == count_family(Family.GCUD, 7)

    @pytest.mark.parametrize("family", CYCLE_FAMILIES)
    def test_no_statistic_gives_the_count_on_both_routes(self, family):
        for n in range(8):
            count = count_family(family, n)
            expected = {(): count} if count else {}
            assert oracle._by_size(family, n, ()) == expected, n
            assert oracle._tally(oracle._cycle_members(family, n), n, ()) == expected, n

    @pytest.mark.parametrize(
        "family", [f for f in CYCLE_FAMILIES if perms._CYCLE_FAMILIES[f][2]]
    )
    def test_single_cycle_family_is_empty_at_0_on_both_routes(self, family):
        assert distribution(family, 0, ("c",)) == distribution(family, 0, ("c", "lrm")) == {}

    @pytest.mark.parametrize(
        "family, n, names, seq_id, markers",
        [
            (Family.CUD, 11, ("c_o", "c_e"), "cud-odd-even", ("t_o", "t_e")),
            (Family.GCUD, 10, ("fp", "c"), "gcud-fp-cycles", ("x", "t")),
            (Family.CUD, 11, ("fp", "c"), "cud-fp-cycles", ("x", "t")),
        ],
    )
    def test_past_the_census_matches_the_catalog(self, family, n, names, seq_id, markers):
        table = distribution(family, n, names, cap=n)
        expected = catalog_series(seq_id, n).egf_term(n)
        assert MPoly(markers, table) == expected

    def test_up_down_counts_are_the_euler_numbers(self):
        assert oracle._up_down_counts(0) == [1]
        assert oracle._up_down_counts(40) == euler_numbers(40)
        # far enough that a boustrophedon row lost or summed twice would show
        assert oracle._up_down_counts(300) == euler_numbers(300)

    @pytest.mark.parametrize("family", CYCLE_FAMILIES + (Family.ALL,))
    def test_counted_tables_match_the_listed_patterns(self, family):
        """The rules of ``_cycle_tables`` against the listing, for every
        share, in two orders of the names.  ``admissible_patterns`` refuses
        all, so its cycles on k points are 0 and then every arrangement of
        1, ..., k - 1."""
        top = 9 if family is Family.ALL else 10
        for names in (CYCLE_SHARES_NAMES, CYCLE_SHARES_NAMES[::-1]):
            tables = oracle._cycle_tables(family, top, names)
            assert len(tables) == top + 1 and not tables[0]
            for k in range(1, top + 1):
                if family is Family.ALL:
                    cycles = ((0, *rest) for rest in itertools.permutations(range(1, k)))
                else:
                    cycles = perms.admissible_patterns(family, k)
                listed = Counter(
                    tuple(int(CYCLE_SHARES[name](p)) for name in names) for p in cycles
                )
                assert tables[k] == listed, (k, names)

    def test_the_size_route_lists_no_pattern(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the size route listed words")

        for module in (perms, oracle):
            monkeypatch.setattr(module, "_alternating_words", refuse)
            monkeypatch.setattr(module, "admissible_patterns", refuse)
        table = distribution(Family.GCUD, 12, ("fp", "exc"), cap=12)
        assert sum(table.values()) == catalog_series("gcud", 12).egf_int(12)

    @pytest.mark.parametrize("n", range(12, 25))
    def test_counted_by_size_matches_catalog(self, n):
        """Past the census and the backtracker, up to the catalog's order
        cap: every cycle family's total, the (fp, c) tables of cud and gcud,
        and on all the total, the (ud, nud) table and the Stirling row of c."""
        series = lambda seq_id: catalog_series(seq_id, 24).egf_int(n)
        for family in CYCLE_FAMILIES:
            total = sum(oracle._by_size(family, n, CYCLE_SHARES_NAMES).values())
            if family is Family.GCUD_CYCLIC:
                # odd GCUD cycles have a unique up-down rotation
                expected = series("gcud-even-cyclic") + n % 2 * series("euler")
            else:
                expected = series(_CATALOG_IDS.get(family, family.value))
            assert total == expected, family
        for family, seq_id in [(Family.CUD, "cud-fp-cycles"), (Family.GCUD, "gcud-fp-cycles")]:
            table = oracle._by_size(family, n, ("fp", "c"))
            expected = catalog_series(seq_id, 24).egf_term(n)
            assert MPoly(("x", "t"), table) == expected, family
        table = oracle._by_size(Family.ALL, n, ("ud", "nud"))
        assert sum(table.values()) == factorial(n)
        expected = catalog_series("perm-ud-nud", 24).egf_term(n)
        assert MPoly(("v", "w"), table) == expected
        assert oracle._by_size(Family.ALL, n, ("c",)) == {
            (k,): stirling_c(n, k) for k in range(1, n + 1)
        }


# the catalog ids of the cycle families whose count is not named by their own
# value; gcud-cyclic has none
_CATALOG_IDS = {Family.CUD_DERANGEMENT: "cud-derangements"}


# every ordered selection of the word statistics, none included, and one
# repeated name
_RANK_REQUESTS = [
    names for k in range(4) for names in itertools.permutations(("lrm", "st", "extr"), k)
] + [("st", "lrm", "st")]


class TestByRank:
    """lrm, st and extr on ud, downup or all are counted over rank states
    (``oracle._by_rank``), laying no word, alone or beside any statistic but
    ud and nud."""

    @pytest.mark.parametrize(
        "family, top", [(Family.UD, 10), (Family.DOWNUP, 10), (Family.ALL, 8)]
    )
    def test_every_selection_matches_the_tally(self, family, top):
        for n in range(top + 1):
            words = list(oracle._words(family, n))
            for names in _RANK_REQUESTS:
                expected = oracle._tally(words, n, names)
                assert oracle._by_rank(family, n, names) == expected, (family, n, names)

    @pytest.mark.parametrize("n", [12, 13])
    @pytest.mark.parametrize("name", ["lrm", "st", "extr"])
    def test_past_the_backtracker_matches_the_catalog(self, n, name):
        table = distribution(Family.UD, n, (name,), cap=n)
        assert MPoly(("t",), table) == catalog_series(f"ud-{name}", n).egf_term(n)

    @pytest.mark.parametrize("family", [Family.UD, Family.DOWNUP, Family.ALL])
    def test_a_word_statistic_request_lays_no_word(self, family, monkeypatch):
        n = 7
        counting = _CountingItertools()
        monkeypatch.setattr(oracle, "itertools", counting)
        built = _count_calls(monkeypatch, "_alternating_words", oracle)
        scans = _count_calls(monkeypatch, "_scan", oracle, statistics)
        table = distribution(family, n, ("lrm", "st", "extr"))
        assert counting.walked == built == scans == []
        # naming c too lays no word either: the sweep places the entries by rank
        mixed = distribution(family, n, ("lrm", "c"))
        assert sum(mixed.values()) == sum(table.values())
        assert counting.walked == built == scans == []
        # the stand-ins count: the word tally lays and scans every word once
        oracle._tally(oracle._words(family, n), n, ("lrm", "c"))
        assert len(scans) == sum(table.values())
        assert len(counting.walked) + len(built) == 1

    def test_keeps_no_table_after_it_returns(self):
        # the state tables are the call's own; one kept at module level
        # would stay traced, some 2.7 MB of them here
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            oracle._by_rank(Family.UD, 16, ("lrm", "st"))
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024

    def test_holds_two_levels_at_a_time(self):
        # each level is built from the one before it alone; a sweep that kept
        # every level, as a cached recursion does, peaks at some 2.7 MB here
        gc.collect()
        tracemalloc.start()
        try:
            oracle._by_rank(Family.UD, 16, ("lrm", "st"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_reaches_n_24_on_every_marginal(self):
        table = distribution(Family.UD, 24, ("lrm", "st", "extr"), cap=24)
        for j, name in enumerate(("lrm", "st", "extr")):
            marginal = Counter()
            for values, count in table.items():
                marginal[values[j],] += count
            expected = catalog_series(f"ud-{name}", 24).egf_term(24)
            assert MPoly(("t",), marginal) == expected, name

    def test_a_mixed_request_past_the_backtracker(self):
        # c beside lrm follows the open paths at n = 13, past every S_n laid
        table = distribution(Family.UD, 13, ("c", "lrm"), cap=13)
        marginal = Counter()
        for (_, lrm), count in table.items():
            marginal[lrm,] += count
        expected = catalog_series("ud-lrm", 13).egf_term(13)
        assert MPoly(("t",), marginal) == expected

    @pytest.mark.parametrize(
        "n, names",
        [
            (10, ("c", "c_o", "c_e", "fp", "lrm", "st", "extr", "exc")),
            (11, ("c", "lrm")),
            (11, ("fp", "extr", "exc")),
        ],
    )
    def test_a_mixed_request_on_all_agrees_with_the_size_route(self, n, names):
        # past the tally's reach on all: summed over lrm, st and extr the table
        # is the one counted by size, which shares no function with the sweep,
        # and summed over the cycle names it is each word statistic's own
        table = oracle._by_rank(Family.ALL, n, names)
        cycle_names = [name for name in names if name in CYCLE_SHARES]
        by_cycles, by_word = Counter(), {name: Counter() for name in names}
        for values, count in table.items():
            by_cycles[tuple(v for v, name in zip(values, names) if name in CYCLE_SHARES)] += count
            for v, name in zip(values, names):
                by_word[name][v] += count
        assert dict(by_cycles) == oracle._by_size(Family.ALL, n, cycle_names)
        expected = {
            "lrm": lambda k: stirling_c(n, k),
            "st": lambda k: stirling_c(n, k),
            "extr": lambda k: 2**k * stirling_c(n - 1, k),
        }
        for name in expected.keys() & set(names):
            terms = {k: expected[name](k) for k in range(n + 1)}
            assert by_word[name] == {k: count for k, count in terms.items() if count}, name


def _unreached(*args):
    raise AssertionError("a request with an unknown name was routed")


class TestUnknownName:
    """``distribution`` refuses a name outside ``STAT_NAMES`` before it
    routes the request, with the text the CLI prints, whichever route the
    request would take."""

    @pytest.mark.parametrize(
        "family, names",
        [
            (Family.UD, ("lrm", "bogus")),
            (Family.UD, ("c", "bogus")),
            (Family.ALL, ("c", "bogus")),
            (Family.ALL, ("bogus",)),
            (Family.CUD, ("c", "bogus")),
            (Family.CUD, ("lrm", "bogus")),
            (Family.UD_LAST_GT_FIRST, ("bogus",)),
        ],
    )
    def test_every_route_refuses_it_alike(self, family, names, monkeypatch):
        for route in ("_by_rank", "_by_size", "_tally"):
            monkeypatch.setattr(oracle, route, _unreached)
        with pytest.raises(perms.MalformedInput) as caught:
            distribution(family, 4, names)
        assert str(caught.value) == (
            f"unknown statistic 'bogus' (known: {', '.join(STAT_NAMES)})"
        )


@pytest.fixture(scope="module")
def s_8_words():
    """The words of S_8, laid once for all the cases that tally them."""
    return list(oracle._words(Family.ALL, 8))


def _without_ud(names):
    return tuple(name for name in names if name not in ("ud", "nud"))


# the requests of _REQUESTS that name ud or nud
_UD_REQUESTS = [names for names in _REQUESTS if _without_ud(names) != names]


class TestWalk:
    """Every other request on ud, downup or all that names neither ud nor
    nud is counted by the sweep that places w_n, ..., w_1 by rank
    (``oracle._by_rank``) and must equal the tally of the plain words.  One
    that names them is tallied word by word, and must equal the census,
    which reads ud on its own decomposition."""

    @pytest.mark.parametrize("family", [Family.ALL, Family.UD, Family.DOWNUP])
    def test_every_request_matches_the_tally(self, family):
        requests = dict.fromkeys(map(_without_ud, _REQUESTS + [("st", "exc", "st")]))
        for n in range(2, 8):
            words = list(oracle._words(family, n))
            for names in requests:
                expected = oracle._tally(words, n, names)
                assert oracle._by_rank(family, n, names) == expected, (family, n, names)

    @pytest.mark.parametrize("family", [Family.ALL, Family.UD, Family.DOWNUP])
    def test_a_request_naming_ud_matches_the_census(self, family, census_8):
        for n in range(9):
            cen = census_8 if n == 8 else census(n)
            for names in _UD_REQUESTS:
                expected = cen.distribution(family, names)
                assert distribution(family, n, names) == expected, (family, n, names)

    def test_a_word_of_at_most_one_entry_is_counted_over_ranks(self, monkeypatch):
        # the sweep takes words of every length; at n = 0 and 1 no request
        # goes to _tally, and each is checked against stats in
        # TestLeanDistribution
        def refuse(*args):
            raise AssertionError("a request at n <= 1 was tallied")

        monkeypatch.setattr(oracle, "_tally", refuse)
        requests = dict.fromkeys(map(_without_ud, _REQUESTS))
        for family in (Family.ALL, Family.UD, Family.DOWNUP):
            for n in (0, 1):
                for names in requests:
                    assert sum(distribution(family, n, names).values()) == 1
        with pytest.raises(AssertionError, match="was tallied"):
            distribution(Family.ALL, 1, ("lrm", "ud"))

    def test_a_request_naming_ud_never_enters_the_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sweep took a request naming ud or nud")

        monkeypatch.setattr(oracle, "_by_rank", refuse)
        for family in (Family.ALL, Family.UD, Family.DOWNUP):
            for names in (("ud", "lrm"), ("st", "nud"), ("c", "exc", "ud", "nud")):
                distribution(family, 6, names)
        # the stand-in is the one distribution calls
        with pytest.raises(AssertionError, match="the sweep took"):
            distribution(Family.ALL, 6, ("c", "lrm"))

    @pytest.mark.parametrize("family", [Family.UD, Family.DOWNUP])
    @pytest.mark.parametrize("names", [("c", "lrm", "st", "extr"), _without_ud(STAT_NAMES)])
    def test_alternating_words_at_9_match_the_tally(self, family, names):
        words = oracle._words(family, 9)
        assert oracle._by_rank(family, 9, names) == oracle._tally(words, 9, names)

    # between them the first three read every part of a state: the open
    # paths, their sizes, st's minimum and maximum and the values left
    # against exc.  The last three check st's tables by b - a: st alone,
    # without st, where one table serves, and every statistic the sweep takes
    @pytest.mark.parametrize(
        "names",
        [
            ("c", "lrm", "st", "extr"),
            ("exc", "c_o", "fp", "st"),
            ("c_e", "lrm", "exc"),
            ("st",),
            ("c", "lrm", "extr"),
            _without_ud(STAT_NAMES),
        ],
    )
    def test_shared_tails_at_8_match_the_tally(self, names, s_8_words):
        assert oracle._by_rank(Family.ALL, 8, names) == oracle._tally(s_8_words, 8, names)


# what the enumeration side of the oracle runs; none of it may read the
# series engine or the catalog, which it is checked against
_ENUMERATION_SIDE = (
    "census",
    "distribution",
    "_by_size",
    "_cycle_tables",
    "_up_down_counts",
    "_by_rank",
    "_tally",
    "_cycle_members",
    "_words",
    "_cycles",
    "_filter_s_n",
    "enumerate_family",
    "_check_cap",
    "count_family",
    "iter_ud_by_filter",
    "iter_cud_direct",
)


def _names_read(code) -> set[str]:
    """Every global, attribute and free name a code object reads, nested
    functions and comprehensions included."""
    names = set(code.co_names) | set(code.co_freevars)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names_read(const)
    return names


def _bound_from_series_or_catalog() -> set[str]:
    """The names ``oracle`` binds by importing from ``.series`` or
    ``.catalog``, or to those modules themselves."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module in ("series", "catalog") or alias.name in ("series", "catalog"):
                    names.add(alias.asname or alias.name)
    return names


def test_the_enumeration_side_reads_no_series_or_catalog():
    forbidden = _bound_from_series_or_catalog()
    assert {"euler_numbers", "catalog_series", "MPoly"} <= forbidden
    for name in _ENUMERATION_SIDE:
        code = getattr(oracle, name).__code__
        assert not _names_read(code) & forbidden, name


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
    family, ``stats`` and ``m_s`` of every permutation of S_n.  The census
    keeps st once, as it is also the m_s of the alternating pattern, so that
    m_s is checked against ``stats`` here."""
    kept = oracle._MEMBER_FAMILIES + ((Family.ALL,) if n <= oracle._MAP_CHECK_N else ())
    tally = {}
    words = {family: [] for family in kept}
    for word in itertools.permutations(range(1, n + 1)):
        p = Permutation(word)
        families = [family for family in Family if is_member(p, family)]
        sv = stats(p)
        first, *rest = (m_s(p, pattern) for pattern in oracle._PATTERNS)
        assert oracle._PATTERNS[0] == MinMaxPattern.alternating() and first == sv.st
        values = tuple(getattr(sv, name) for name in STAT_NAMES) + tuple(rest)
        key = (sum(oracle._BIT[family] for family in families), values)
        tally[key] = tally.get(key, 0) + 1
        for family in families:
            if family in words:
                words[family].append(word)
    return Census(n, tally, words)


class TestCensus:
    @pytest.mark.parametrize("n", range(8))
    def test_kernel_matches_the_public_definitions(self, n):
        cen, ref = census(n), _reference_census(n)
        # family membership, the statistics and m_s jointly, and the words in order
        assert cen == ref
        # keyed in order of first appearance, as the walk meets them
        assert list(cen.tally) == list(ref.tally)

    def test_verify_walks_each_s_n_once(self, monkeypatch):
        counting = _CountingItertools()
        monkeypatch.setattr(oracle, "itertools", counting)
        assert all(entry["pass"] for entry in verify_all(5))
        assert sorted(counting.walked) == [0, 1, 2, 3, 4, 5]

    def test_tests_each_shape_once_per_distinct_cycle(self, monkeypatch):
        # n = 7 is odd, so the ud-last-gt-first word test never asks for a shape
        n, expected = 7, census(7)
        ud, gcud = perms.is_up_down_word, perms.is_gen_up_down_cycle
        calls = {ud: Counter(), gcud: Counter()}
        # the GCUD stand-in tests the rotations itself, through the unpatched
        # up-down test, so that only the census's own calls are counted
        verdicts = {ud: ud, gcud: lambda c: any(ud(c[i:] + c[:i]) for i in range(len(c)))}

        def counting(shape):
            def wrapper(cycle):
                calls[shape][cycle] += 1
                return verdicts[shape](cycle)

            return wrapper

        wrappers = {shape: counting(shape) for shape in calls}
        for shape, wrapper in wrappers.items():
            monkeypatch.setattr(perms, shape.__name__, wrapper)
        for family, (shape, lengths, single) in list(perms._CYCLE_FAMILIES.items()):
            monkeypatch.setitem(perms._CYCLE_FAMILIES, family, (wrappers[shape], lengths, single))
        assert census(n) == expected
        cycles = {
            cycle
            for word in itertools.permutations(range(1, n + 1))
            for cycle in perms.to_cycles(perms.Permutation(word)).cycles
        }
        assert set(calls[ud]) == cycles
        assert set(calls[gcud]) == {cycle for cycle in cycles if not ud(cycle)}
        assert max(calls[ud].values()) == max(calls[gcud].values()) == 1

    @pytest.mark.parametrize("n", [2, 6])
    def test_reads_ud_last_gt_first_off_the_ud_bit(self, n, monkeypatch):
        # ud-last-gt-first is an up-down word whose last entry exceeds its
        # first, so the census runs no word test of its own for it
        expected = census(n)

        def refused(word):
            raise AssertionError("the ud-last-gt-first word test ran")

        monkeypatch.setitem(perms._WORD_TESTS, Family.UD_LAST_GT_FIRST, refused)
        assert census(n) == expected
        assert expected.count(Family.UD_LAST_GT_FIRST) == n // 2 * euler_numbers(n)[n - 1]

    def test_keys_hold_one_value_per_column(self):
        # distribution reads a column by its index in _COLUMNS, so a key of
        # another width would read a neighbouring column without error
        for n in range(8):
            widths = {len(values) for _, values in census(n).tally}
            assert widths == {len(oracle._COLUMNS)}, n
        with pytest.raises(ValueError):
            census(3).distribution(Family.CUD, ["c", "no-such-column"])

    def test_agrees_with_the_enumeration(self):
        for n in range(7):
            cen = census(n)
            for family in Family:
                assert cen.count(family) == count_family(family, n), (family, n)
                assert cen.distribution(family, STAT_NAMES) == distribution(
                    family, n, STAT_NAMES
                ), (family, n)

    def test_keeps_every_permutation_only_where_the_maps_are_checked(self):
        assert len(census(6).words[Family.ALL]) == 720
        assert Family.ALL not in census(7).words


class TestVerifyAll:
    def test_passes_at_small_cap(self):
        report = verify_all(4)
        assert all(entry["pass"] for entry in report)
        assert len(report) >= 40
        json.dumps(report)  # must be serializable as-is

    def test_fault_injection_names_euler_check(self):
        def corrupted(n_max):
            values = euler_numbers(n_max)
            values[6] += 1
            return values

        report = verify_all(2, euler_fn=corrupted)
        assert not all(entry["pass"] for entry in report)
        failing = [e["check"] for e in report if not e["pass"]]
        assert "euler-boustrophedon-vs-series" in failing

    def test_a_round_builds_no_ud_cycles_once(self, monkeypatch):
        # both r-count rows of every n read one build of the entry
        built = Counter()

        def counting(seq_id, *args, **kwargs):
            built[seq_id] += 1
            return catalog_series(seq_id, *args, **kwargs)

        for module in (catalog, oracle):
            monkeypatch.setattr(module, "catalog_series", counting)
        assert all(entry["pass"] for entry in verify_all(7))
        assert built["no-ud-cycles"] == 1

    def test_checks_reading_the_counters_catch_a_wrong_vector(self, monkeypatch):
        # at n = 5, one member of the family moves from the first tally entry
        # with the least value in the column to that entry with the value one
        # higher: a CUD member's exc, a UD member's extr, and a permutation's
        # ud (from 0, so that r-count sees it) and m_s of repeated min
        wrong = (
            (Family.CUD, "exc"),
            (Family.UD, "extr"),
            (Family.ALL, "ud"),
            (Family.ALL, "min,..."),
        )

        def corrupted(n):
            cen = census(n)
            for family, column in wrong if n == 5 else ():
                i, flag = oracle._COLUMNS.index(column), oracle._BIT[family]
                mask, values = key = min(
                    (key for key, count in cen.tally.items() if key[0] & flag and count),
                    key=lambda key: key[1][i],
                )
                cen.tally[key] -= 1
                moved = (mask, values[:i] + (values[i] + 1,) + values[i + 1 :])
                cen.tally[moved] = cen.tally.get(moved, 0) + 1
            return cen

        monkeypatch.setattr(oracle, "census", corrupted)
        failing = {(e["check"], e["n"]) for e in verify_all(5) if not e["pass"]}
        for check in (
            "exc-parity-relation",
            "exc-poly-vs-oracle",
            "equidist-extr-vs-lrm-st",
            "expected-ud-vs-oracle",
            "r-count-oracle",
            "dist-ms-stirling[min,...]",
        ):
            assert (check, 5) in failing

    def test_a_wrong_switch_fails_bijection_rows(self, monkeypatch):
        # reversal switches only words of fewer than three entries; where a
        # core's range guard refuses what a wrong switch made, its check fails
        rows = [(e["check"], e["n"]) for e in verify_all(6)]
        monkeypatch.setattr(bijections, "switched_word", lambda word: tuple(word[::-1]))
        report = verify_all(6)
        assert [(e["check"], e["n"]) for e in report] == rows
        failing = {e["check"] for e in report if not e["pass"]}
        assert all(check.startswith("bij-") for check in failing)
        for tag in ("f", "phi", "jbij", "ell"):
            assert {f"bij-{tag}-roundtrip", f"bij-{tag}-image"} <= failing
        assert "bij-h-transport[min,max,...]" in failing

    @pytest.mark.parametrize(
        "route, family, check",
        [
            ("_words", Family.UD, "ud-dual-generation"),
            ("_cycle_members", Family.CUD, "cud-dual-generation"),
        ],
    )
    def test_dual_generation_rows_watch_the_direct_routes(
        self, route, family, check, monkeypatch
    ):
        # the direct route drops the first member at n = 5 and nothing else
        direct = getattr(oracle, route)

        def dropping(family_asked, n):
            words = direct(family_asked, n)
            if (family_asked, n) == (family, 5):
                next(words)
            return words

        monkeypatch.setattr(oracle, route, dropping)
        failing = [(e["check"], e["n"]) for e in verify_entries(5) if not e["pass"]]
        assert failing == [(check, 5)]

    def test_cap_guard(self, monkeypatch):
        # refused when the generator is made, before any census is built
        monkeypatch.setattr(oracle, "census", lambda _: pytest.fail("walked S_n"))
        with pytest.raises(CapExceeded):
            verify_entries(11)
        with pytest.raises(CapExceeded):
            verify_all(11)

    def test_count_rows_follow_the_sizes_given(self):
        # the sizes are tests of n, so a raised cap gets the count rows at the
        # new n; every count check runs at an even n >= 2 such as 10
        empty = [Census(n, {}, {Family.UD: [], Family.CUD: []}) for n in range(11)]
        rows = oracle._verify_counts(empty, euler_numbers(12), 20)
        assert {check for check, n, *_ in rows if n == 10} == {
            check for check, *_ in oracle._COUNT_CHECKS
        }

    def test_check_and_n_name_one_entry(self):
        # readers of the report key its entries by (check, n)
        keys = [(entry["check"], entry["n"]) for entry in verify_all(5)]
        assert len(keys) == len(set(keys))


def _sampled_up_down(m, count=50, seed=0):
    """``count`` up-down words of [m]: seeded random permutations, each made
    up-down by one pass of adjacent swaps, w_i and w_{i+1} swapped when
    w_i > w_{i+1} at even i (counted from 0) or w_i < w_{i+1} at odd i.  A
    swap keeps the step before it, so one pass suffices; the sample is not
    uniform over UD_m."""
    rng = random.Random(seed)
    for _ in range(count):
        word = rng.sample(range(1, m + 1), m)
        for i in range(m - 1):
            if (word[i] > word[i + 1]) == (i % 2 == 0):
                word[i], word[i + 1] = word[i + 1], word[i]
        yield tuple(word)


# each verify map as (tag, forward, inverse, keeps, how many more values its
# words have than n, the family its images fill)
_VERIFY_MAPS = [(*row[:4], 0, row[4]) for row in oracle._G_F_MAPS] + [
    (*row[:4], 1, Family.CUD) for row in oracle._PHI_JBIJ_MAPS
]


class TestMapWords:
    """The verify kernel over sampled up-down words past S_9, where no census
    reaches: g and f take words of [n], phi and jbij words of [n + 1]."""

    @staticmethod
    def _run(row, n):
        _, forward, inverse, keeps, extra, family = row
        words = _sampled_up_down(n + extra, seed=n)
        inverts, kept, images = oracle._map_words(words, forward, inverse, keeps)
        members = all(is_member(Permutation(image), family) for image in images)
        return inverts, kept, members, images

    @pytest.mark.parametrize("n", (12, 20, 40, 60))
    @pytest.mark.parametrize("row", _VERIFY_MAPS, ids=[row[0] for row in _VERIFY_MAPS])
    def test_sampled_words_invert_keep_and_land_in_the_family(self, row, n):
        inverts, kept, members, images = self._run(row, n)
        assert inverts and kept and members
        # one image per word, and distinct words have distinct images
        words = set(_sampled_up_down(n + row[4], seed=n))
        assert len(images) == 50 and len(set(images)) == len(words)

    def test_every_sampled_word_is_up_down(self):
        for m in (12, 13, 60, 61):
            assert all(map(perms.is_up_down_word, _sampled_up_down(m, seed=m)))

    def test_a_wrong_switch_fails_f_phi_and_jbij(self, monkeypatch):
        monkeypatch.setattr(bijections, "switched_word", lambda word: tuple(word[::-1]))
        for row in _VERIFY_MAPS:
            if row[0] in ("f", "phi", "jbij"):
                inverts, kept, members, _ = self._run(row, 40)
                assert not (inverts and kept and members), row[0]


def _plain_reference(value):
    """The report's plain value by its recursive definition: a list of ints
    or of tuples of ints as it is, as JSON writes a tuple as an array."""
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, list) and (
        all(type(v) is int for v in value)
        or all(type(v) is tuple and all(type(x) is int for x in v) for v in value)
    ):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain_reference(v) for v in value]
    return str(value)


class TestPlain:
    @pytest.mark.parametrize(
        "value",
        [
            [(1, 2), (3, 4)],
            (2, 1, 3),
            [3, 1, 2],
            [(1, True), (2, 3)],
            [(1, 2), (True,)],
            [(1, Fraction(1, 2)), (2, 3)],
            [(1, 2), [3, 4]],
            [(1, 2), (3, None)],
            [(1, (2, 3))],
            [(), ()],
            [],
            [[]],
            [[], (1,)],
            {"a": (1, 2)},
            [{1: 2}, (1, 2)],
            [[1, [2, (3, 4)]], (5,), "x", None],
            [1, True, Fraction(2, 3)],
            Fraction(3, 4),
            True,
            None,
            "text",
            7,
        ],
    )
    def test_matches_the_recursive_definition(self, value):
        # repr tells a bool from an int, a list from a tuple and a Fraction
        # from its str, which == does not
        assert repr(oracle._plain(value)) == repr(_plain_reference(value))

    def test_every_report_value_matches_the_recursive_definition(self):
        censuses = [census(n) for n in range(6)]
        eul = euler_numbers(21)
        for phase in oracle._PHASES:
            for check, n, expected, actual in phase(censuses, eul, 20):
                for value in (expected, actual):
                    assert repr(oracle._plain(value)) == repr(_plain_reference(value)), (check, n)
