import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cudlab import bijections as bij
from cudlab.oracle import _alternating_words, enumerate_family
from cudlab.perms import (
    CycleDecomposition,
    DomainError,
    Family,
    MalformedInput,
    Permutation,
    format_cycles,
    format_permutation,
    from_cycles,
    is_member,
    is_up_down_cycle,
    parse_cycles,
    parse_permutation,
)
from cudlab.series import euler_numbers
from cudlab.statistics import MAX, MIN, MinMaxPattern, m_s, stats

E = euler_numbers(12)


class TestGEven:
    def test_worked_example(self):
        got = bij.g_even(parse_permutation("4 7 2 6 1 5 3 8"))
        assert got == parse_cycles("(4,7)(2,6)(1,5,3,8)")

    def test_trivial(self):
        assert bij.g_even(parse_permutation("1 2")) == parse_cycles("(1,2)")

    def test_general_ground_set(self):
        got = bij.g_even(parse_permutation("5 8 2 7 4 11"))
        assert got == parse_cycles("(5,8)(2,7,4,11)")

    def test_inverse_worked_example(self):
        word = bij.g_even_inverse(parse_cycles("(4,7)(2,6)(1,5,3,8)"))
        assert format_permutation(word) == "4 7 2 6 1 5 3 8"

    def test_roundtrip_is_even_only_cud(self):
        count = 0
        for p in enumerate_family(Family.UD, 6):
            c = bij.g_even(p)
            assert all(len(cyc) % 2 == 0 and is_up_down_cycle(cyc) for cyc in c.cycles)
            assert len(c) == stats(p).lrm
            assert bij.g_even_inverse(c) == p
            count += 1
        assert count == E[6] == 61

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bij.g_even(parse_permutation("1 3 2"))  # odd length
        with pytest.raises(DomainError):
            bij.g_even(parse_permutation("2 1 4 3"))  # not up-down
        with pytest.raises(DomainError):
            bij.g_even_inverse(parse_cycles("(1,3,2)"))  # odd cycle


def up_down_words_on(values):
    """All up-down arrangements of the given values."""
    return _alternating_words(tuple(values), down_up=False)


class TestFOdd:
    def test_worked_example(self):
        got = bij.f_odd(parse_permutation("4 7 1 9 3 8 5 6 2"))
        assert format_cycles(got) == "(1,7,4)(2)(3,8,6,9,5)"

    def test_trivial(self):
        assert bij.f_odd(parse_permutation("1")) == parse_cycles("(1)")

    def test_general_ground_set(self):
        got = bij.f_odd(parse_permutation("3 10 1 9 6"))
        assert format_cycles(got) == "(1,10,3)(6)(9)"

    def test_inverse_worked_example(self):
        word = bij.f_odd_inverse(parse_cycles("(1,8,5,7,2)(3,6,4)"))
        assert format_permutation(word) == "2 7 5 8 1 4 3 6"

    def test_roundtrip_counts(self):
        count = 0
        for p in enumerate_family(Family.UD, 5):
            c = bij.f_odd(p)
            assert all(len(cyc) % 2 == 1 and is_up_down_cycle(cyc) for cyc in c.cycles)
            assert len(c) == stats(p).st
            assert bij.f_odd_inverse(c) == p
            count += 1
        assert count == E[5] == 16

    @given(
        st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=7),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_general_ground_random(self, values, pick):
        # map an up-down shape of [m] onto arbitrary values
        ordered = sorted(values)
        shapes = list(up_down_words_on(range(1, len(ordered) + 1)))
        shape = shapes[pick % len(shapes)]
        word = tuple(ordered[i - 1] for i in shape)
        p = Permutation(word)
        c = bij.f_odd(p)
        assert all(len(cyc) % 2 == 1 and is_up_down_cycle(cyc) for cyc in c.cycles)
        assert len(c) == stats(p).st
        assert bij.f_odd_inverse(c) == p

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bij.f_odd(parse_permutation("2 1"))
        with pytest.raises(DomainError):
            bij.f_odd_inverse(parse_cycles("(1,2)"))


class TestPhi:
    def test_worked_example(self):
        got = bij.phi(parse_permutation("6 9 3 8 5 12 1 10 2 11 4 7"))
        assert got == parse_cycles("(5,8)(2,7,4,11)(1,10,3)(6)(9)")
        assert format_cycles(got) == "(1,10,3)(2,7,4,11)(5,8)(6)(9)"

    def test_small_cases(self):
        assert bij.phi(parse_permutation("1")) == parse_cycles("")
        assert bij.phi(parse_permutation("1 2")) == parse_cycles("(1)")

    def test_inverse_worked_example(self):
        word = bij.phi_inverse(parse_cycles("(5,8)(2,7,4,11)(1,10,3)(6)(9)"))
        assert format_permutation(word) == "6 9 3 8 5 12 1 10 2 11 4 7"
        assert bij.phi_inverse(parse_cycles("")) == parse_permutation("1")

    def test_bijection_onto_cud_with_stats(self):
        for n in range(9):
            images = set()
            for p in enumerate_family(Family.UD, n + 1):
                sv = stats(p)
                c = bij.phi(p)
                sc = stats(from_cycles(c))
                assert sc.c_e == sv.lrm - 1
                assert sc.c_o == sv.st - 1
                assert sc.c == sv.lrm + sv.st - 2
                assert bij.phi_inverse(c) == p
                images.add(from_cycles(c).word)
            cud = {p.word for p in enumerate_family(Family.CUD, n)}
            assert images == cud
            assert len(images) == E[n + 1]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bij.phi(parse_permutation("2 1 3"))
        with pytest.raises(DomainError):
            bij.phi(parse_permutation("2 3 4"))  # not on [n]
        with pytest.raises(DomainError):
            bij.phi_inverse(parse_cycles("(1,2,3)"))  # cycle not up-down


class TestJbij:
    def test_worked_example(self):
        got = bij.jbij(parse_permutation("3 5 1 8 2 7 4 9 6"))
        assert format_cycles(got) == "(1,4)(2,8,3,6)(5)(7)"

    def test_length_two(self):
        assert bij.jbij(parse_permutation("1 2")) == parse_cycles("(1)")

    def test_inverse_worked_example(self):
        word = bij.jbij_inverse(parse_cycles("(1,4)(2,8,3,6)(5)(7)"))
        assert format_permutation(word) == "3 5 1 8 2 7 4 9 6"
        assert format_permutation(bij.jbij_inverse(parse_cycles("(1)"))) == "1 2"

    def test_foata_intermediate(self):
        word = bij.foata_word(parse_cycles("(1,4)(2,8,3,6)(5)(7)"), descending=True)
        assert format_permutation(word) == "7 5 2 8 3 6 1 4"

    def test_bijection_with_extr(self):
        for n in range(9):
            images = set()
            for p in enumerate_family(Family.UD, n + 1):
                c = bij.jbij(p)
                assert len(c) == stats(p).extr
                assert bij.jbij_inverse(c) == p
                images.add(from_cycles(c).word)
            assert images == {q.word for q in enumerate_family(Family.CUD, n)}

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bij.jbij(parse_permutation("2 1"))
        with pytest.raises(DomainError):
            bij.jbij_inverse(parse_cycles("(1,2,3)"))


class TestFoata:
    def test_orders(self):
        c = parse_cycles("(4,7)(2,6)(1,5,3,8)")
        assert format_permutation(bij.foata_word(c, descending=True)) == "4 7 2 6 1 5 3 8"
        assert format_permutation(bij.foata_word(c, descending=False)) == "1 5 3 8 2 6 4 7"
        assert format_permutation(bij.foata_word(parse_cycles("(1)"), True)) == "1"


class TestRotateUd:
    def test_examples(self):
        assert format_permutation(bij.rotate_ud(parse_permutation("1 3 2 4"), 1)) == "1 3 2 4"
        assert format_permutation(bij.rotate_ud(parse_permutation("1 3 2 4"), 2)) == "2 4 1 3"

    def test_rotation_bijection(self):
        for k in range(1, 5):
            n = 2 * k
            produced = []
            for p in enumerate_family(Family.UD, n):
                if p.word[0] != 1:
                    continue
                for i in range(1, k + 1):
                    q = bij.rotate_ud(p, i)
                    assert is_member(q, Family.UD_LAST_GT_FIRST)
                    produced.append(q.word)
            expected = [q.word for q in enumerate_family(Family.UD_LAST_GT_FIRST, n)]
            assert sorted(produced) == sorted(expected)
            assert len(produced) == k * E[n - 1]
            # inverse direction: rotating 1 to the front recovers (p, i)
            for w in expected:
                j = w.index(1)
                base = Permutation(w[j:] + w[:j])
                assert is_member(base, Family.UD) and base.word[0] == 1
                i = 1 if j == 0 else (n - j) // 2 + 1
                assert bij.rotate_ud(base, i) == Permutation(w)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bij.rotate_ud(parse_permutation("2 3 1 4"), 1)  # does not start at 1
        with pytest.raises(DomainError):
            bij.rotate_ud(parse_permutation("1 3 2"), 1)  # odd length
        with pytest.raises(DomainError):
            bij.rotate_ud(parse_permutation("1 3 2 4"), 3)  # index out of range


class TestHMap:
    def test_worked_example(self):
        got = bij.h_map(parse_permutation("4 8 1 2 7 6 3 5"))
        assert format_permutation(got) == "5 3 6 2 7 1 8 4"

    def test_min_repeat_is_reversal(self):
        pattern = MinMaxPattern.repeat(MIN)
        p = parse_permutation("4 8 1 2 7 6 3 5")
        assert bij.h_map(p, pattern).word == tuple(reversed(p.word))

    def test_transport_and_bijectivity(self):
        patterns = (
            MinMaxPattern.alternating(),
            MinMaxPattern.repeat(MIN),
            MinMaxPattern.repeat(MAX),
            MinMaxPattern((), (MAX, MIN)),
        )
        for n in range(1, 7):
            perms = [Permutation(w) for w in itertools.permutations(range(1, n + 1))]
            for pattern in patterns:
                images = {bij.h_map(p, pattern).word for p in perms}
                assert len(images) == len(perms)
                for p in perms:
                    assert stats(bij.h_map(p, pattern)).lrm == m_s(p, pattern)


class TestEll:
    def test_worked_example(self):
        got = bij.ell_map(parse_permutation("8 6 7 4 2 5 1 3"), (1, 0, 0, 1, 1))
        assert format_permutation(got) == "5 7 2 4 1 8 6 9 3"

    def test_trivial(self):
        assert format_permutation(bij.ell_map(parse_permutation("1"), (0,))) == "2 1"

    def test_inverse_worked_example(self):
        p, bits = bij.ell_inverse(parse_permutation("5 7 2 4 1 8 6 9 3"))
        assert format_permutation(p) == "8 6 7 4 2 5 1 3"
        assert bits == (1, 0, 0, 1, 1)
        assert bij.ell_inverse(parse_permutation("2 1")) == (parse_permutation("1"), (0,))

    def test_roundtrip_exhaustive(self):
        for n in range(1, 6):
            seen = set()
            for word in itertools.permutations(range(1, n + 1)):
                p = Permutation(word)
                k = stats(p).lrm
                for bits in itertools.product((0, 1), repeat=k):
                    q = bij.ell_map(p, bits)
                    assert stats(q).extr == k
                    assert bij.ell_inverse(q) == (p, bits)
                    seen.add(q.word)
            # every permutation of [n+1] has at least one extreme element
            assert len(seen) == len(list(itertools.permutations(range(1, n + 2))))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bij.ell_map(parse_permutation("2 1"), (0,))  # needs lrm-many bits
        with pytest.raises(DomainError):
            bij.ell_map(parse_permutation("2 1"), (0, 2))
        with pytest.raises(DomainError):
            bij.ell_inverse(parse_permutation("1"))  # no extreme elements


class TestTrustedConstruction:
    """The maps build their outputs without validating them again; every
    output must still pass the strict constructors."""

    def test_images_and_inverses_revalidate(self):
        for n in range(9):
            for p in enumerate_family(Family.UD, n):
                pairs = [(bij.f_odd(p), bij.f_odd_inverse)]
                if n % 2 == 0:
                    pairs.append((bij.g_even(p), bij.g_even_inverse))
                if n:
                    pairs += [(bij.phi(p), bij.phi_inverse), (bij.jbij(p), bij.jbij_inverse)]
                for image, inverse in pairs:
                    assert CycleDecomposition(image.cycles) == image
                    assert Permutation(from_cycles(image).word) == from_cycles(image)
                    back = inverse(image)
                    assert Permutation(back.word) == back == p

    def test_strict_entry_points_still_raise(self):
        with pytest.raises(DomainError):
            bij.phi(parse_permutation("2 1 3"))
        with pytest.raises(MalformedInput):
            parse_permutation("1 1")
        with pytest.raises(MalformedInput):
            CycleDecomposition(((2, 1),))
