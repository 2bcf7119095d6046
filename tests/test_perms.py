import dataclasses
import functools
import itertools
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cudlab.perms import (
    _CYCLE_FAMILIES,
    CycleDecomposition,
    _admits,
    _alternating_words,
    _walk_cycles,
    admissible_patterns,
    Family,
    MalformedInput,
    Permutation,
    format_cycles,
    format_permutation,
    from_cycles,
    is_down_up_word,
    is_gen_up_down_cycle,
    is_member,
    is_up_down_cycle,
    is_up_down_word,
    parse_cycles,
    parse_permutation,
    switch,
    switched_word,
    to_cycles,
)


def perms_of(n):
    return (Permutation(w) for w in itertools.permutations(range(1, n + 1)))


@functools.cache
def arrangements_of_shape(shape, k):
    """The (k-1)! filter: each 0 followed by an arrangement of 1..k-1, in
    lexicographic order, that has the shape."""
    cycles = ((0,) + rest for rest in itertools.permutations(range(1, k)))
    return [bytes(cycle) for cycle in cycles if shape(cycle)]


class TestCycleForm:
    def test_worked_example(self):
        p = parse_permutation("2 5 1 7 3 6 4")
        assert format_cycles(to_cycles(p)) == "(1,2,5,3)(4,7)(6)"

    def test_identity(self):
        p = parse_permutation("1 2 3")
        assert format_cycles(to_cycles(p)) == "(1)(2)(3)"

    def test_cycles_to_word(self):
        c = parse_cycles("(1,2,5,3)(4,7)(6)")
        assert format_permutation(from_cycles(c)) == "2 5 1 7 3 6 4"
        assert format_permutation(from_cycles(parse_cycles("(1)(2)"))) == "1 2"

    def test_is_natural_reads_the_least_and_greatest_entries(self):
        for word in ((), (1,), (2, 1)):
            assert Permutation(word).is_natural()
        for word in ((1, 3), (2, 3)):
            assert not Permutation(word).is_natural()
        # the sorting definition, on every word of up to three entries from 1..4
        for n in range(4):
            for word in itertools.permutations(range(1, 5), n):
                natural = sorted(word) == list(range(1, n + 1))
                assert Permutation(word).is_natural() == natural, word

    def test_gapped_ground(self):
        # the ground (3, 5, 9) maps 3 -> 9 -> 5 -> 3
        assert format_cycles(to_cycles(Permutation((9, 3, 5)))) == "(3,9,5)"
        assert to_cycles(Permutation((9, 5, 3))) == parse_cycles("(3,9)(5)")

    def test_a_permutation_from_cycles_keeps_them(self):
        c = parse_cycles("(1,4)(2,8,3,6)(5)(7)")
        p = from_cycles(c)
        assert to_cycles(p) is c
        # the kept decomposition is no field: equality, hash and repr read the word
        q = Permutation(p.word)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert [f.name for f in dataclasses.fields(Permutation)] == ["word"]
        back = pickle.loads(pickle.dumps(p))
        assert back == p and to_cycles(back) == c
        # one built otherwise decomposes on each call and stores nothing
        assert to_cycles(q) == c and to_cycles(q) is not to_cycles(q)

    def test_pointwise_semantics(self):
        p = from_cycles(parse_cycles("(1,4)(2,8,3,6)(5)(7)"))
        want = {1: 4, 4: 1, 2: 8, 8: 3, 3: 6, 6: 2, 5: 5, 7: 7}
        assert p.mapping() == want

    def test_foata_word_cut_roundtrip(self):
        # cutting a word before each LR minimum yields standard-form cycles
        # with decreasing openers; dropping the parentheses recovers the word
        from cudlab.bijections import foata_word
        from cudlab.statistics import lr_min_positions

        word = parse_permutation("7 5 2 8 3 6 1 4")
        cuts = lr_min_positions(word.word) + [len(word.word)]
        cycles = CycleDecomposition.from_raw(
            tuple(word.word[cuts[i] : cuts[i + 1]]) for i in range(len(cuts) - 1)
        )
        assert cycles == parse_cycles("(1,4)(2,8,3,6)(5)(7)")
        assert foata_word(cycles, descending=True) == word

    def test_roundtrip_exhaustive(self):
        for n in range(10):
            for p in perms_of(n):
                assert from_cycles(to_cycles(p)) == p

    @given(st.permutations(list(range(1, 10))))
    def test_roundtrip_random(self, word):
        p = Permutation(tuple(word))
        assert from_cycles(to_cycles(p)) == p

    def test_the_kernel_walks_a_dict_or_a_list_and_empties_it(self):
        # (1,4)(2,8,3,6)(5)(7) over a gapped ground set and over [8]
        image = {1: 4, 4: 1, 2: 8, 8: 3, 3: 6, 6: 2, 5: 5, 7: 7}
        gapped = {10 * a: 10 * b for a, b in image.items()}
        assert _walk_cycles(gapped, sorted(gapped)) == [(10, 40), (20, 80, 30, 60), (50,), (70,)]
        assert set(gapped.values()) == {0}
        successor = [0] + [image[a] for a in range(1, 9)]
        assert _walk_cycles(successor, range(1, 9)) == [(1, 4), (2, 8, 3, 6), (5,), (7,)]
        assert successor == [0] * 9

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            Permutation((1, 1, 2))
        with pytest.raises(MalformedInput):
            Permutation((0, 1))
        with pytest.raises(MalformedInput):
            CycleDecomposition(((2, 1),))  # not smallest-first
        with pytest.raises(MalformedInput):
            parse_cycles("(1,2)(2,3)")  # repeated element
        with pytest.raises(MalformedInput):
            parse_permutation("1 2 2")
        with pytest.raises(MalformedInput):
            parse_cycles("(1,2) junk")


class TestSwitch:
    def test_examples(self):
        assert format_permutation(switch(parse_permutation("2 6 3 4"))) == "6 2 4 3"
        assert switch(Permutation(())) == Permutation(())
        assert format_permutation(switch(parse_permutation("9 3 8 5 6 2"))) == "2 8 3 6 5 9"

    @given(st.permutations(list(range(1, 9))))
    def test_involution(self, word):
        p = Permutation(tuple(word))
        assert switch(switch(p)) == p

    def test_switched_word_matches_sort_and_reflect_exhaustively(self):
        # the definition: sort the values, then send the i-th smallest to the
        # i-th largest; every arrangement of every subset of {1..6} with 0-5
        # entries, so the short words' own path is pinned at 0, 1 and 2
        def reference(word):
            values = sorted(word)
            reflect = {a: b for a, b in zip(values, reversed(values))}
            return tuple(reflect[x] for x in word)

        checked = 0
        for k in range(6):
            for subset in itertools.combinations(range(1, 7), k):
                for word in itertools.permutations(subset):
                    want = reference(word)
                    assert switched_word(word) == want, word
                    assert switched_word(list(word)) == want, word
                    checked += 1
        assert checked == sum(math.perm(6, k) for k in range(6))

    def test_swaps_up_down_with_down_up(self):
        for n in range(8):
            ud = {p.word for p in perms_of(n) if is_member(p, Family.UD)}
            du = {p.word for p in perms_of(n) if is_member(p, Family.DOWNUP)}
            assert {switch(Permutation(w)).word for w in ud} == du


class TestFamilies:
    def test_cud_examples(self):
        assert is_member(from_cycles(parse_cycles("(1,5,2,7)(3)(4,8,6)(9)")), Family.CUD)
        assert not is_member(from_cycles(parse_cycles("(1,3,5)(2,4)(6)")), Family.CUD)

    def test_gcud_cycle_on_general_ground(self):
        p = from_cycles(parse_cycles("(2,3,4,6)"))
        assert is_member(p, Family.GCUD)
        assert not is_member(p, Family.CUD)

    def test_gcud_s4_exceptions(self):
        # exactly three permutations of [4] are not GCUD
        bad = [
            w
            for w in itertools.permutations(range(1, 5))
            if not is_member(Permutation(w), Family.GCUD)
        ]
        expected = [
            from_cycles(parse_cycles(text)).word
            for text in ("(1,2,4,3)", "(1,3,4,2)", "(1,4,3,2)")
        ]
        assert sorted(bad) == sorted(expected)

    def test_empty_permutation_memberships(self):
        # every family but those that need one cycle or two entries
        empty = Permutation(())
        outside = {Family.CUD_CYCLIC, Family.GCUD_CYCLIC, Family.UD_LAST_GT_FIRST}
        for family in Family:
            assert is_member(empty, family) == (family not in outside)

    def test_cud_subset_of_gcud(self):
        for n in range(8):
            for p in perms_of(n):
                if is_member(p, Family.CUD):
                    assert is_member(p, Family.GCUD)

    def test_odd_gen_up_down_cycles_unique_representation(self):
        # odd generalized up-down cycles admit exactly one up-down rotation
        # (which need not start at the minimum: (1,2,3) reads up-down as 231)
        assert is_gen_up_down_cycle((1, 2, 3)) and not is_up_down_cycle((1, 2, 3))
        for m in range(1, 8, 2):
            for rest in itertools.permutations(range(2, m + 1)):
                cycle = (1,) + rest
                rotations = [
                    tuple(cycle[(i + j) % m] for j in range(m)) for i in range(m)
                ]
                ups = sum(1 for rot in rotations if is_up_down_word(rot))
                if is_gen_up_down_cycle(cycle):
                    assert ups == 1
                else:
                    assert ups == 0

    def test_gen_up_down_cycle_is_the_rotation_definition(self):
        # every pattern on k <= 8 points, starting at its minimum: some
        # rotation, built element by element, reads up-down
        for k in range(1, 9):
            for rest in itertools.permutations(range(1, k)):
                cycle = (0,) + rest
                rotations = (tuple(cycle[(i + j) % k] for j in range(k)) for i in range(k))
                expected = any(is_up_down_word(rot) for rot in rotations)
                assert is_gen_up_down_cycle(cycle) == expected, cycle

    # each cycle family as one predicate over a canonical cycle, with its
    # single-cycle flag: the reference the (shape, lengths, single) rows of
    # perms._CYCLE_FAMILIES must agree with
    REFERENCE = {
        Family.CUD: (is_up_down_word, False),
        Family.CUD_EVEN_ONLY: (lambda c: len(c) % 2 == 0 and is_up_down_word(c), False),
        Family.CUD_ODD_ONLY: (lambda c: len(c) % 2 == 1 and is_up_down_word(c), False),
        Family.CUD_DERANGEMENT: (lambda c: len(c) > 1 and is_up_down_word(c), False),
        Family.CUD_CYCLIC: (is_up_down_word, True),
        Family.GCUD: (is_gen_up_down_cycle, False),
        Family.GCUD_ODD_ONLY: (lambda c: len(c) % 2 == 1 and is_gen_up_down_cycle(c), False),
        Family.GCUD_EVEN_ONLY: (lambda c: len(c) % 2 == 0 and is_gen_up_down_cycle(c), False),
        Family.GCUD_CYCLIC: (is_gen_up_down_cycle, True),
        Family.EXC_DEF_SWAP: (
            lambda c: len(c) == 1 or (len(c) % 2 == 0 and is_up_down_word(c)),
            False,
        ),
    }

    @pytest.mark.parametrize("family", list(REFERENCE))
    def test_cycle_family_rows_match_the_reference(self, family):
        admissible, single = self.REFERENCE[family]
        for k in range(1, 9):
            for rest in itertools.permutations(range(1, k)):
                cycle = (0,) + rest
                assert _admits(family, (cycle,)) == admissible(cycle), cycle
        # two admissible cycles together make a member unless only one is allowed
        two = ((1,), (2,)) if admissible((1,)) else ((1, 3, 2, 4), (5, 6))
        assert _admits(family, two) == (not single)

    @pytest.mark.parametrize("family", list(_CYCLE_FAMILIES))
    def test_admissible_patterns_are_the_arrangement_filter(self, family):
        shape, lengths, _ = _CYCLE_FAMILIES[family]
        for k in range(1, 10):
            expected = arrangements_of_shape(shape, k) if lengths(k) else []
            assert admissible_patterns(family, k) == expected, k

    @pytest.mark.parametrize("family", list(_CYCLE_FAMILIES))
    def test_no_cycle_has_fewer_than_one_point(self, family):
        assert admissible_patterns(family, 0) == admissible_patterns(family, -1) == []

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("down_up, test", [(False, is_up_down_word), (True, is_down_up_word)])
    def test_alternating_words_over_gapped_values(self, n, down_up, test):
        # the values that may come next are found by bisecting the unused
        # ones, which need not be consecutive; given here in no order
        values = (13, 2, 23, 7, 11, 5, 19, 17)[:n]
        expected = [w for w in itertools.permutations(sorted(values)) if test(w)]
        assert list(_alternating_words(values, down_up=down_up)) == expected

    def test_even_only_cud_excedance_characterization(self):
        for n in range(8):
            for p in perms_of(n):
                m = p.mapping()
                swap = all(m[a] != a for a in m) and all(
                    (m[m[a]] < m[a]) if m[a] > a else (m[m[a]] > m[a]) for a in m
                )
                assert swap == is_member(p, Family.CUD_EVEN_ONLY)

    def test_ud_last_gt_first(self):
        assert is_member(parse_permutation("2 4 1 3"), Family.UD_LAST_GT_FIRST)
        assert is_member(parse_permutation("1 3 2 4"), Family.UD_LAST_GT_FIRST)
        assert not is_member(parse_permutation("3 4 1 2"), Family.UD_LAST_GT_FIRST)
        assert not is_member(parse_permutation("1 3 2"), Family.UD_LAST_GT_FIRST)


class TestTextForms:
    def test_empty(self):
        assert parse_permutation("") == Permutation(())
        assert parse_cycles("") == CycleDecomposition(())
        assert format_permutation(Permutation(())) == ""

    def test_cycle_text_normalizes(self):
        assert format_cycles(parse_cycles("(4,7)(2,6)(1,5,3,8)")) == "(1,5,3,8)(2,6)(4,7)"

    # int() takes each of these entries; a written entry is the digits 0-9 alone
    @pytest.mark.parametrize(
        "word, cycles",
        [
            ("2 1_0", "(1,2_0)"),
            ("1 \uff13", "(1, \uff13)"),
            ("1 \u0663 2", "(1,\u0663)(2)"),
            ("+3 1 2", "(+1)(2)"),
        ],
    )
    def test_entries_are_ascii_digits(self, word, cycles):
        with pytest.raises(MalformedInput, match="digits 0-9"):
            parse_permutation(word)
        with pytest.raises(MalformedInput, match="digits 0-9"):
            parse_cycles(cycles)

    def test_a_zero_entry_reaches_the_positivity_check(self):
        for parse, text in ((parse_permutation, "2 0 1"), (parse_cycles, "(1,0)(2)")):
            with pytest.raises(MalformedInput, match="positive integers, got 0"):
                parse(text)

    @given(st.permutations(list(range(1, 9))))
    def test_text_roundtrip(self, word):
        p = Permutation(tuple(word))
        assert parse_permutation(format_permutation(p)) == p
        assert parse_cycles(format_cycles(to_cycles(p))) == to_cycles(p)
