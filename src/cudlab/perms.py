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

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from operator import gt, lt
from typing import Callable, Iterable, Sequence


class DomainError(ValueError):
    """Well-formed input that lies outside an operation's domain."""


class MalformedInput(ValueError):
    """Data that does not describe a permutation at all."""


def switched_word(word: Sequence[int]) -> tuple[int, ...]:
    """Replace each entry a_i of the word by a_{n+1-i} (values sorted).

    >>> switched_word((2, 6, 3, 4))
    (6, 2, 4, 3)
    """
    values = sorted(word)
    return tuple(map(dict(zip(values, reversed(values))).__getitem__, word))


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
    legal.  Values are immutable and safe to share.
    """

    word: tuple[int, ...]

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
        """True iff the ground set is [n] = {1, ..., n}."""
        return self.ground == tuple(range(1, len(self.word) + 1))


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

    @classmethod
    def from_text(cls, text: str) -> "Family":
        try:
            return cls(text)
        except ValueError:
            known = ", ".join(f.value for f in cls)
            raise MalformedInput(f"unknown family {text!r} (known: {known})") from None


def to_cycles(p: Permutation) -> CycleDecomposition:
    """Canonical cycle decomposition of a permutation.

    >>> format_cycles(to_cycles(parse_permutation("2 5 1 7 3 6 4")))
    '(1,2,5,3)(4,7)(6)'
    """
    m = p.mapping()
    seen: set[int] = set()
    cycles = []
    for a in m:  # the ground set, in increasing order
        if a in seen:
            continue
        cyc = []
        cur = a
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = m[cur]
        cycles.append(tuple(cyc))
    # starting each walk at the smallest unvisited element yields canonical
    # shape directly
    return CycleDecomposition._trusted(tuple(cycles))


def from_cycles(c: CycleDecomposition) -> Permutation:
    """Inverse of :func:`to_cycles`.

    >>> format_permutation(from_cycles(parse_cycles("(1,2,5,3)(4,7)(6)")))
    '2 5 1 7 3 6 4'
    """
    image: dict[int, int] = {}
    for cyc in c.cycles:
        for i, x in enumerate(cyc):
            image[x] = cyc[(i + 1) % len(cyc)]
    return Permutation._trusted(tuple(image[a] for a in sorted(image)))


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

# A cycle family is a set of admissible cycles: the test every canonical cycle
# must pass, and whether only a single cycle is allowed.  Canonical cycles
# start at their minimum, so ``is_up_down_word`` reads them as CUD requires.
_CYCLE_FAMILIES: dict[Family, tuple[Callable[[Sequence[int]], bool], bool]] = {
    Family.CUD: (is_up_down_word, False),
    Family.CUD_EVEN_ONLY: (lambda c: len(c) % 2 == 0 and is_up_down_word(c), False),
    Family.CUD_ODD_ONLY: (lambda c: len(c) % 2 == 1 and is_up_down_word(c), False),
    Family.CUD_DERANGEMENT: (lambda c: len(c) > 1 and is_up_down_word(c), False),
    Family.CUD_CYCLIC: (is_up_down_word, True),
    Family.GCUD: (is_gen_up_down_cycle, False),
    Family.GCUD_ODD_ONLY: (lambda c: len(c) % 2 == 1 and is_gen_up_down_cycle(c), False),
    Family.GCUD_EVEN_ONLY: (lambda c: len(c) % 2 == 0 and is_gen_up_down_cycle(c), False),
    Family.GCUD_CYCLIC: (is_gen_up_down_cycle, True),
    # fixed points, or even cycles that alternate fully, so that images of
    # excedances are deficiencies and vice versa
    Family.EXC_DEF_SWAP: (
        lambda c: len(c) == 1 or (len(c) % 2 == 0 and is_up_down_word(c)),
        False,
    ),
}


def admissible_patterns(family: Family, k: int) -> list[bytes]:
    """The cycle family's admissible canonical cycles on ``k >= 1`` points,
    as rank patterns: 0, then an arrangement of 1, ..., k-1.

    The patterns are the (k-1)! arrangements that pass the family's own test
    in ``_CYCLE_FAMILIES``.  Every one of those tests reads only the relative
    order and the length of a cycle, so ``tuple(points[i] for i in pattern)``
    over any increasing ``points`` of length k is an admissible cycle, and
    every admissible cycle on those points arises once this way.  The table
    is built anew on each call and kept by no one.

    >>> [tuple(p) for p in admissible_patterns(Family.CUD, 4)]
    [(0, 2, 1, 3), (0, 3, 1, 2)]
    """
    admissible, _ = _CYCLE_FAMILIES[family]
    return [
        bytes(cycle)
        for cycle in ((0,) + rest for rest in itertools.permutations(range(1, k)))
        if admissible(cycle)
    ]


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
    admissible, single = _CYCLE_FAMILIES[family]
    return (not single or len(cycles) == 1) and all(map(admissible, cycles))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, e.g. ``"2 5 1 7 3 6 4"``.  Strict: repeated
    or non-positive entries are rejected.  The empty string is the empty
    permutation."""
    text = text.strip()
    if not text:
        return Permutation(())
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
        raise MalformedInput(f"bad cycle notation {text!r}")
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
