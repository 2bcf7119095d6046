import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cudlab.perms import (
    Family,
    MalformedInput,
    Permutation,
    from_cycles,
    is_member,
    is_up_down_cycle,
    parse_cycles,
    parse_permutation,
    to_cycles,
)
from cudlab.series import stirling_c
from cudlab.statistics import (
    MAX,
    MIN,
    MinMaxPattern,
    _letters,
    _scan,
    _stats_of,
    extreme_positions,
    lr_min_positions,
    m_s,
    min_max_subsequence,
    selection_positions,
    stats,
)

# words over ground sets other than [n]
general_words = st.lists(st.integers(1, 60), max_size=12, unique=True).flatmap(st.permutations)
patterns = st.builds(
    MinMaxPattern,
    st.lists(st.sampled_from((MIN, MAX)), max_size=3).map(tuple),
    st.lists(st.sampled_from((MIN, MAX)), min_size=1, max_size=3).map(tuple),
)


def perms_of(n):
    return (Permutation(w) for w in itertools.permutations(range(1, n + 1)))


class TestStatVector:
    def test_min_max_length(self):
        assert stats(parse_permutation("4 8 1 2 7 6 3 5")).st == 4

    def test_identity(self):
        sv = stats(parse_permutation("1 2 3 4"))
        assert (sv.c, sv.c_o, sv.c_e, sv.fp, sv.lrm, sv.exc) == (4, 4, 0, 4, 1, 0)

    def test_extreme_elements(self):
        # extremes of 351827496 are 5, 1, 8, 9
        assert stats(parse_permutation("3 5 1 8 2 7 4 9 6")).extr == 4

    def test_excedance_parity_example(self):
        p = from_cycles(parse_cycles("(1,4)(2,8,3,6)(5)(7)"))
        sv = stats(p)
        assert sv.exc == 3 and sv.c_o == 2
        assert sv.c_o + 2 * sv.exc == 8

    def test_empty_and_singleton(self):
        empty = stats(Permutation(()))
        assert empty == type(empty)(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        single = stats(Permutation((1,)))
        assert (single.st, single.lrm, single.extr) == (1, 1, 0)

    def test_excedance_parity_on_cud(self):
        for n in range(9):
            for p in perms_of(n):
                if is_member(p, Family.CUD):
                    sv = stats(p)
                    assert sv.c_o + 2 * sv.exc == n

    @given(general_words)
    def test_one_pass_matches_the_definitions(self, word):
        p = Permutation(tuple(word))
        cycles = to_cycles(p).cycles
        sv = _stats_of(p, cycles)
        mapping = p.mapping()
        assert sv.c == len(cycles)
        assert sv.c_o == sum(1 for cyc in cycles if len(cyc) % 2 == 1)
        assert sv.c_e == sum(1 for cyc in cycles if len(cyc) % 2 == 0)
        assert sv.fp == sum(1 for a, b in mapping.items() if a == b)
        assert sv.lrm == len(lr_min_positions(p.word))
        assert sv.st == len(selection_positions(p.word, MinMaxPattern.alternating()))
        assert sv.extr == len(extreme_positions(p.word))
        assert sv.exc == sum(1 for a, b in mapping.items() if b > a)
        assert sv.ud == sum(1 for cyc in cycles if is_up_down_cycle(cyc))
        assert sv.nud == sv.c - sv.ud

    @given(general_words, st.lists(patterns, max_size=3))
    def test_one_pass_selection_lengths_are_m_s(self, word, chosen):
        p = Permutation(tuple(word))
        letters = [_letters(pattern, len(word)) for pattern in chosen]
        *_, lengths = _scan(p.word, p.ground, letters)
        assert lengths == tuple(m_s(p, pattern) for pattern in chosen)

    @given(st.permutations(list(range(1, 9))))
    def test_cycle_counters_add_up(self, word):
        sv = stats(Permutation(tuple(word)))
        assert sv.ud + sv.nud == sv.c == sv.c_o + sv.c_e
        assert sv.fp <= sv.c_o


class TestMinMaxSubsequence:
    def test_alternating_worked_example(self):
        p = parse_permutation("4 8 1 2 7 6 3 5")
        assert min_max_subsequence(p) == (1, 7, 3, 5)

    def test_min_repeat_is_suffix_minima_chain(self):
        # starting from the global minimum, each step takes the smallest
        # entry further right; the chain length matches lrm of the reversal
        p = parse_permutation("4 8 1 2 7 6 3 5")
        pattern = MinMaxPattern.repeat(MIN)
        assert min_max_subsequence(p, pattern) == (1, 2, 3, 5)
        assert m_s(p, pattern) == stats(Permutation(tuple(reversed(p.word)))).lrm

    def test_max_repeat_mirrors_min_repeat(self):
        p = parse_permutation("4 8 1 2 7 6 3 5")
        assert min_max_subsequence(p, MinMaxPattern.repeat(MAX)) == (8, 7, 6, 5)

    def test_terminates_at_last_entry(self):
        for n in range(1, 7):
            for p in perms_of(n):
                seq = min_max_subsequence(p)
                assert seq[-1] == p.word[-1]

    def test_equidistribution_with_stirling(self):
        patterns = (
            MinMaxPattern.alternating(),
            MinMaxPattern.repeat(MIN),
            MinMaxPattern((), (MAX, MIN)),
            MinMaxPattern((MIN,), (MAX, MAX, MIN)),
        )
        for n in range(1, 6):
            expected = {k: stirling_c(n, k) for k in range(1, n + 1) if stirling_c(n, k)}
            for pattern in patterns:
                counts = Counter(m_s(p, pattern) for p in perms_of(n))
                assert dict(counts) == expected, str(pattern)

    def test_st_equals_alternating_ms(self):
        for p in perms_of(5):
            assert stats(p).st == m_s(p, MinMaxPattern.alternating())


class TestPattern:
    def test_parse_and_str(self):
        pattern = MinMaxPattern.parse("min,max,...")
        assert pattern == MinMaxPattern.alternating()
        assert str(MinMaxPattern.parse("min,...")) == "min,..."
        assert [pattern.at(j) for j in range(1, 5)] == [MIN, MAX, MIN, MAX]

    def test_prefix_then_tail(self):
        pattern = MinMaxPattern((MIN, MIN), (MAX,))
        assert [pattern.at(j) for j in range(1, 6)] == [MIN, MIN, MAX, MAX, MAX]

    def test_parse_rejects_bad_text(self):
        for text in ("min,max", "", "...", "mid,...", "min;max,..."):
            with pytest.raises(MalformedInput):
                MinMaxPattern.parse(text)


class TestEquidistribution:
    def test_extr_vs_lrm_plus_st_on_up_down(self):
        from cudlab.oracle import enumerate_family

        for n in range(1, 10):
            ud = [stats(p) for p in enumerate_family(Family.UD, n)]
            left = sorted(sv.extr for sv in ud)
            right = sorted(sv.lrm + sv.st - 2 for sv in ud)
            assert left == right

    def test_extr_distribution(self):
        for n in range(2, 7):
            counts = Counter(stats(p).extr for p in perms_of(n))
            for k in range(1, n):
                assert counts[k] == 2**k * stirling_c(n - 1, k)
