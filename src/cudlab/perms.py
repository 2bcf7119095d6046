"""Permutations of finite sets of positive integers and the alternating-cycle
families built on them.

A permutation of a set ``A = {a_1 < a_2 < ... < a_n}`` is stored as its
one-line word: entry ``i`` of the word is the image of ``a_i``.  The cycle
form is kept canonical: every cycle is rotated so its smallest element comes
first, and cycles are listed by increasing first entry, which makes the
decomposition unique.

The recognizers cover up-down (alternating) words, cycle-up-down (CUD)
permutations whose canonical cycles all read up-down, the generalized variant
(GCUD) where each cycle merely has *some* rotation that reads up-down, and a
handful of refinements (parity-restricted cycles, derangements, single-cycle,
excedance/deficiency-swapping).
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass
from enum import Enum
from math import inf
from operator import gt, itemgetter, lt
from typing import Callable, Iterable, Iterator, Sequence


class DomainError(ValueError):
    """Well-formed input that lies outside an operation's domain."""


class MalformedInput(ValueError):
    """Data that does not describe a permutation at all."""


class CapExceeded(RuntimeError):
    """A request went past the configured truncation or enumeration cap."""


def switched_word(word: Sequence[int]) -> tuple[int, ...]:
    """Replace each entry a_i of the word by a_{n+1-i} (values sorted).

    A word of fewer than three entries switches to its own reversal.

    >>> switched_word((2, 6, 3, 4))
    (6, 2, 4, 3)
    """
    if len(word) < 3:
        return tuple(word[::-1])
    values = sorted(word)
    # an itemgetter of three or more keys returns the tuple of their values
    return itemgetter(*word)(dict(zip(values, reversed(values))))


def is_up_down_word(word: Sequence[int]) -> bool:
    """True iff w_1 < w_2 > w_3 < w_4 > ...  (vacuous for length <= 1): each
    entry at an even 0-based position is below the next, each at an odd one
    above it."""
    return all(map(lt, word[::2], word[1::2])) and all(map(gt, word[1::2], word[2::2]))


def is_down_up_word(word: Sequence[int]) -> bool:
    """True iff w_1 > w_2 < w_3 > w_4 < ..."""
    return all(map(gt, word[::2], word[1::2])) and all(map(lt, word[1::2], word[2::2]))


def is_up_down_cycle(cycle: Sequence[int]) -> bool:
    """True iff the cycle, written starting at its smallest element, is an
    up-down word.  Length-1 cycles count vacuously."""
    return is_up_down_word(_rotate_min_first(cycle))


def is_gen_up_down_cycle(cycle: Sequence[int]) -> bool:
    """True iff some rotation of the cycle is an up-down word.

    Tests every rotation as a slice of the doubled cycle; cycles here are
    short enough that the quadratic scan is irrelevant.

    >>> is_gen_up_down_cycle((2, 3, 4, 6))
    True
    >>> is_up_down_cycle((2, 3, 4, 6))
    False
    """
    k = len(cycle)
    doubled = tuple(cycle) * 2
    return any(is_up_down_word(doubled[i : i + k]) for i in range(k))


def _rotate_min_first(cycle: Sequence[int]) -> tuple[int, ...]:
    k = len(cycle)
    if k == 0:
        raise MalformedInput("empty cycle")
    i = cycle.index(min(cycle))
    return tuple(cycle[(i + j) % k] for j in range(k))


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation over its own ground set.

    ``word[i]`` is the image of the ``i``-th smallest ground element, so a
    permutation of [n] maps ``i+1`` to ``word[i]``.  The empty permutation is
    legal.  Values are immutable and safe to share.  One built by
    :func:`from_cycles` keeps its canonical cycles outside the fields, for
    :func:`to_cycles` to return; ``==``, ``hash`` and ``repr`` read ``word``
    alone.
    """

    word: tuple[int, ...]
    _cycles = None  # not a field: set by from_cycles

    def __post_init__(self):
        for x in self.word:
            if not isinstance(x, int) or x < 1:
                raise MalformedInput(f"entries must be positive integers, got {x!r}")
        if len(set(self.word)) != len(self.word):
            raise MalformedInput(f"repeated entry in word {self.word}")

    @classmethod
    def _trusted(cls, word: tuple[int, ...]) -> "Permutation":
        """A word cudlab built itself, so known to be a permutation: no
        checks.  Input from outside goes through the constructor."""
        p = object.__new__(cls)
        object.__setattr__(p, "word", word)
        return p

    @property
    def ground(self) -> tuple[int, ...]:
        """The underlying set, sorted increasingly."""
        return tuple(sorted(self.word))

    def __len__(self) -> int:
        return len(self.word)

    def mapping(self) -> dict[int, int]:
        """Ground element -> image."""
        return dict(zip(self.ground, self.word))

    def is_natural(self) -> bool:
        """True iff the ground set is [n] = {1, ..., n}: the entries are
        distinct positive integers, so iff the least is 1 and the greatest n."""
        w = self.word
        return not w or (min(w) == 1 and max(w) == len(w))


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycles in canonical shape: each starts at its minimum, listed by
    increasing first entry, together partitioning the ground set."""

    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cyc in self.cycles:
            if not cyc:
                raise MalformedInput("empty cycle")
            if min(cyc) != cyc[0]:
                raise MalformedInput(f"cycle {cyc} is not in standard form")
            for x in cyc:
                if not isinstance(x, int) or x < 1:
                    raise MalformedInput(f"entries must be positive integers, got {x!r}")
                if x in seen:
                    raise MalformedInput(f"element {x} repeated across cycles")
                seen.add(x)
        firsts = [cyc[0] for cyc in self.cycles]
        if firsts != sorted(firsts):
            raise MalformedInput("cycles not sorted by increasing first entry")

    @classmethod
    def _trusted(cls, cycles: tuple[tuple[int, ...], ...]) -> "CycleDecomposition":
        """Canonical cycles cudlab built itself: no checks.  Input from
        outside goes through the constructor or ``from_raw``."""
        c = object.__new__(cls)
        object.__setattr__(c, "cycles", cycles)
        return c

    @classmethod
    def from_raw(cls, cycles: Iterable[Sequence[int]]) -> "CycleDecomposition":
        """Normalize arbitrary rotations/orderings into canonical shape."""
        std = [_rotate_min_first(cyc) for cyc in cycles]
        std.sort(key=lambda cyc: cyc[0])
        return cls(tuple(std))

    @property
    def ground(self) -> tuple[int, ...]:
        return tuple(sorted(x for cyc in self.cycles for x in cyc))

    def __len__(self) -> int:
        return len(self.cycles)


class Family(Enum):
    """The permutation families the oracle and CLI can enumerate."""

    ALL = "all"
    UD = "ud"
    DOWNUP = "downup"
    CUD = "cud"
    CUD_EVEN_ONLY = "cud-even-only"
    CUD_ODD_ONLY = "cud-odd-only"
    CUD_DERANGEMENT = "cud-derangement"
    GCUD = "gcud"
    GCUD_ODD_ONLY = "gcud-odd-only"
    GCUD_EVEN_ONLY = "gcud-even-only"
    CUD_CYCLIC = "cud-cyclic"
    GCUD_CYCLIC = "gcud-cyclic"
    UD_LAST_GT_FIRST = "ud-last-gt-first"
    EXC_DEF_SWAP = "exc-def-swap"


def to_cycles(p: Permutation) -> CycleDecomposition:
    """Canonical cycle decomposition of a permutation, by ``_walk_cycles``
    over the sorted ground.  A permutation :func:`from_cycles` built returns
    the decomposition it kept; any other's is computed and not stored.

    >>> format_cycles(to_cycles(parse_permutation("2 5 1 7 3 6 4")))
    '(1,2,5,3)(4,7)(6)'
    """
    if p._cycles is not None:
        return p._cycles
    ground = sorted(p.word)
    return CycleDecomposition._trusted(tuple(_walk_cycles(dict(zip(ground, p.word)), ground)))


def _walk_cycles(successor, starts: Iterable[int]) -> list[tuple[int, ...]]:
    """The cycles of a successor map on positive integers, a dict or a list
    indexed by element: each walked from the first of ``starts`` on it, and
    each visited entry set to 0.  Increasing ``starts`` give canonical ones."""
    cycles = []
    for a in starts:
        if successor[a]:
            cycle, b = [], a
            while c := successor[b]:
                cycle.append(b)
                successor[b], b = 0, c
            cycles.append(tuple(cycle))
    return cycles


def from_cycles(c: CycleDecomposition) -> Permutation:
    """Inverse of :func:`to_cycles`.  The permutation keeps ``c``, which is
    canonical, as its decomposition.

    >>> format_permutation(from_cycles(parse_cycles("(1,2,5,3)(4,7)(6)")))
    '2 5 1 7 3 6 4'
    """
    image: dict[int, int] = {}
    for cyc in c.cycles:
        a = cyc[-1]
        for b in cyc:
            image[a] = b
            a = b
    p = Permutation._trusted(tuple(map(image.__getitem__, sorted(image))))
    object.__setattr__(p, "_cycles", c)
    return p


def switch(p: Permutation) -> Permutation:
    """The order-reversing relabeling a_i -> a_{n+1-i}; an involution.

    >>> format_permutation(switch(parse_permutation("2 6 3 4")))
    '6 2 4 3'
    """
    return Permutation._trusted(switched_word(p.word))


# A word family is a test of the one-line word.
_WORD_TESTS: dict[Family, Callable[[Sequence[int]], bool]] = {
    Family.ALL: lambda w: True,
    Family.UD: is_up_down_word,
    Family.DOWNUP: is_down_up_word,
    Family.UD_LAST_GT_FIRST: lambda w: (
        len(w) >= 2 and len(w) % 2 == 0 and is_up_down_word(w) and w[-1] > w[0]
    ),
}

# A cycle family is a set of admissible cycles: the shape every canonical
# cycle must have, a rule on its length, and whether only one cycle is allowed.
# A CUD cycle reads up-down from its minimum, where canonical cycles start; a
# GCUD cycle reads up-down from some element.  Up-down cycles have both shapes.
_ANY, _EVEN, _ODD = (lambda k: True), (lambda k: k % 2 == 0), (lambda k: k % 2 == 1)
_CYCLE_FAMILIES: dict[Family, tuple[Callable, Callable[[int], bool], bool]] = {
    Family.CUD: (is_up_down_word, _ANY, False),
    Family.CUD_EVEN_ONLY: (is_up_down_word, _EVEN, False),
    Family.CUD_ODD_ONLY: (is_up_down_word, _ODD, False),
    Family.CUD_DERANGEMENT: (is_up_down_word, lambda k: k > 1, False),
    Family.CUD_CYCLIC: (is_up_down_word, _ANY, True),
    Family.GCUD: (is_gen_up_down_cycle, _ANY, False),
    Family.GCUD_ODD_ONLY: (is_gen_up_down_cycle, _ODD, False),
    Family.GCUD_EVEN_ONLY: (is_gen_up_down_cycle, _EVEN, False),
    Family.GCUD_CYCLIC: (is_gen_up_down_cycle, _ANY, True),
    # fixed points, or even cycles that alternate fully, so that images of
    # excedances are deficiencies and vice versa
    Family.EXC_DEF_SWAP: (is_up_down_word, lambda k: k == 1 or k % 2 == 0, False),
}


def admissible_patterns(family: Family, k: int) -> list[bytes]:
    """The cycle family's admissible canonical cycles on ``k`` points, as
    rank patterns in increasing order: 0, then an arrangement of 1, ..., k-1.

    A length the family's rule refuses has none, and so has k < 1.  The
    others are read off alternating words, not sought among all (k-1)!
    arrangements: a CUD cycle is 0 and then a down-up word on 1, ..., k-1, a
    GCUD cycle an up-down word on 0, ..., k-1 rotated to start at 0.  Shapes
    read only relative order, so ``tuple(points[i] for i in pattern)`` over
    any increasing ``points`` of length k is an admissible cycle, and every
    admissible cycle on those points arises once this way.  The table is
    built anew on each call and kept by no one.  It serves where cycles are
    laid (``oracle._cycle_members``) and the tests, which check against it
    the cycle tables that ``oracle`` counts without listing.

    >>> [tuple(p) for p in admissible_patterns(Family.CUD, 4)]
    [(0, 2, 1, 3), (0, 3, 1, 2)]
    """
    shape, lengths, _ = _CYCLE_FAMILIES[family]
    if k < 1 or not lengths(k):
        return []
    if shape is is_up_down_word:
        return [bytes((0, *rest)) for rest in _alternating_words(range(1, k), down_up=True)]
    words = _alternating_words(range(k))
    return sorted({bytes(w[w.index(0) :] + w[: w.index(0)]) for w in words})


def _alternating_words(values: Iterable[int], down_up: bool = False) -> Iterator[tuple]:
    """The up-down (or down-up) words over the given distinct values, in
    lexicographic order, by backtracking.  The unused values stay sorted, so
    those that may come next are one block, above the last entry after a
    descent and below it after a rise, found by one ``bisect``; a word is
    yielded where its last value is placed, in no further frame."""

    def extend(word: list[int], last, remaining: list[int], rise: bool):
        cut = bisect(remaining, last)
        for i in range(cut, len(remaining)) if rise else range(cut):
            x, rest = remaining[i], remaining[:i] + remaining[i + 1 :]
            if len(rest) > 1:
                word.append(x)
                yield from extend(word, x, rest, not rise)
                word.pop()
            elif not rest or (rest[0] > x) != rise:
                yield (*word, x, *rest)

    values = sorted(values)
    if not values:
        yield ()
    # the first entry follows a virtual one above it (up-down) or below it
    yield from extend([], -inf if down_up else inf, values, down_up)


def is_member(p: Permutation, family: Family) -> bool:
    """Membership test for every supported family.

    All families are defined through relative order (or through the value
    map for excedance-flavored ones), so arbitrary ground sets are accepted
    throughout.
    """
    word_test = _WORD_TESTS.get(family)
    if word_test is not None:
        return word_test(p.word)
    return _admits(family, to_cycles(p).cycles)


def _admits(family: Family, cycles: tuple[tuple[int, ...], ...]) -> bool:
    """Whether the canonical cycles make a member of the cycle family."""
    shape, lengths, single = _CYCLE_FAMILIES[family]
    admitted = all(map(lengths, map(len, cycles))) and all(map(shape, cycles))
    return admitted and (not single or len(cycles) == 1)


# entries are written in the digits 0-9 alone: int() also takes a sign, an
# underscore and the digits of other scripts
_WORD_RE = re.compile(r"[0-9\s]*")
_CYCLE_RE = re.compile(r"\(([0-9 ,]*)\)")


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, e.g. ``"2 5 1 7 3 6 4"``.  Strict: entries
    not in the digits 0-9, and repeated or non-positive entries, are
    rejected.  The empty string is the empty permutation."""
    text = text.strip()
    if not text:
        return Permutation(())
    if not _WORD_RE.fullmatch(text):
        raise MalformedInput(f"bad one-line notation {text!r}: entries are digits 0-9")
    try:
        word = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise MalformedInput(f"bad one-line notation {text!r}: {exc}") from None
    return Permutation(word)


def parse_cycles(text: str) -> CycleDecomposition:
    """Parse cycle notation, e.g. ``"(1,2,5,3)(4,7)(6)"``.  Cycles may be
    given in any rotation/order; the result is canonical."""
    text = text.strip()
    if not text:
        return CycleDecomposition(())
    if text.replace(" ", "") != "".join(
        f"({m.group(1)})".replace(" ", "") for m in _CYCLE_RE.finditer(text)
    ):
        raise MalformedInput(f"bad cycle notation {text!r}: (a,b,...) of digits 0-9")
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).strip()
        if not body:
            raise MalformedInput("empty cycle in cycle notation")
        try:
            cycles.append(tuple(int(tok) for tok in body.split(",")))
        except ValueError as exc:
            raise MalformedInput(f"bad cycle notation {text!r}: {exc}") from None
    return CycleDecomposition.from_raw(cycles)


def parse_any(text: str):
    """One-line or cycle notation, auto-detected by a leading ``(``."""
    if text.strip().startswith("("):
        return parse_cycles(text)
    return parse_permutation(text)


def format_permutation(p: Permutation) -> str:
    return " ".join(str(x) for x in p.word)


def format_cycles(c: CycleDecomposition) -> str:
    return "".join("(" + ",".join(str(x) for x in cyc) + ")" for cyc in c.cycles)
