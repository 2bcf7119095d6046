"""Permutation statistics: cycle counts by parity, fixed points, left-to-right
minima, the min-max subsequence length, extreme elements, excedances, and
up-down-cycle counters.

All statistics are invariant under order-preserving relabeling, so they are
defined for permutations of any ground set.  Positions are 1-based in the
documentation and 0-based in the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle
from operator import lt
from typing import Iterator, Sequence

from .perms import (
    DomainError,
    MalformedInput,
    Permutation,
    is_up_down_word,
    to_cycles,
)

MIN = "min"
MAX = "max"


@dataclass(frozen=True)
class StatVector:
    """All statistics of one permutation.

    ``c`` cycles, split into ``c_o`` odd and ``c_e`` even ones; ``fp`` fixed
    points; ``lrm`` left-to-right minima (position 1 included); ``st`` length
    of the min-max subsequence; ``extr`` extreme elements (positions >= 2
    that are a running minimum or maximum); ``exc`` excedances; ``ud`` cycles
    whose canonical form reads up-down and ``nud = c - ud``.
    """

    c: int
    c_o: int
    c_e: int
    fp: int
    lrm: int
    st: int
    extr: int
    exc: int
    ud: int
    nud: int


STAT_NAMES = ("c", "c_o", "c_e", "fp", "lrm", "st", "extr", "exc", "ud", "nud")

# The statistics that sum over the canonical cycles, by a cycle's share, which
# reads only relative order (excedances are cyclic ascents); the rest read words.
CYCLE_SHARES = {
    "c": lambda cycle: 1,
    "c_o": lambda cycle: len(cycle) % 2,
    "c_e": lambda cycle: 1 - len(cycle) % 2,
    "fp": lambda cycle: len(cycle) == 1,
    "exc": lambda cycle: sum(map(lt, cycle, cycle[1:] + cycle[:1])),
    "ud": is_up_down_word,
    "nud": lambda cycle: not is_up_down_word(cycle),
}


@dataclass(frozen=True)
class MinMaxPattern:
    """An eventually periodic word over {min, max}: ``prefix`` then ``tail``
    repeated forever.  CLI syntax repeats the whole word: ``min,max,...``."""

    prefix: tuple[str, ...]
    tail: tuple[str, ...]

    def __post_init__(self):
        if not self.tail:
            raise MalformedInput("pattern tail must be nonempty")
        for tok in self.prefix + self.tail:
            if tok not in (MIN, MAX):
                raise MalformedInput(f"pattern tokens must be min/max, got {tok!r}")

    def at(self, j: int) -> str:
        """The j-th letter, 1-based."""
        if j < 1:
            raise DomainError("pattern positions are 1-based")
        if j <= len(self.prefix):
            return self.prefix[j - 1]
        return self.tail[(j - 1 - len(self.prefix)) % len(self.tail)]

    def letters(self) -> Iterator[str]:
        """The letters in order, without end: ``at(1)``, ``at(2)``, ..."""
        return chain(self.prefix, cycle(self.tail))

    @classmethod
    def alternating(cls) -> "MinMaxPattern":
        """min, max, min, max, ...; selects the min-max subsequence."""
        return cls((), (MIN, MAX))

    @classmethod
    def repeat(cls, token: str) -> "MinMaxPattern":
        return cls((), (token,))

    @classmethod
    def parse(cls, text: str) -> "MinMaxPattern":
        """Parse CLI syntax: comma-separated min/max with a trailing ``...``
        that repeats the whole word, e.g. ``min,max,...``."""
        tokens = [tok.strip() for tok in text.split(",")]
        if len(tokens) < 2 or tokens[-1] != "...":
            raise MalformedInput(
                f"pattern {text!r} must end in ',...' (e.g. 'min,max,...')"
            )
        return cls((), tuple(tokens[:-1]))

    def __str__(self) -> str:
        return ",".join(self.prefix + self.tail) + ",..."


# the patterns whose m_s ``_scan`` counts, in this order: the alternating one,
# which selects the min-max subsequence, repeated min, and alternating from max
_PATTERNS = (
    MinMaxPattern.alternating(),
    MinMaxPattern.repeat(MIN),
    MinMaxPattern((), (MAX, MIN)),
)


def lr_min_positions(word: Sequence[int]) -> list[int]:
    """0-based positions of left-to-right minima (position 0 included)."""
    out = []
    cur = None
    for i, x in enumerate(word):
        if cur is None or x < cur:
            out.append(i)
            cur = x
    return out


def extreme_positions(word: Sequence[int]) -> list[int]:
    """0-based positions >= 1 holding a running minimum or maximum."""
    out = []
    lo = hi = word[0] if word else 0
    for i, x in enumerate(word):
        if x < lo:
            lo = x
            out.append(i)
        elif x > hi:
            hi = x
            out.append(i)
    return out


def selection_positions(word: Sequence[int], pattern: MinMaxPattern) -> list[int]:
    """0-based positions of the pattern-driven subsequence: entry j is the
    pattern's min or max of what remains to the right of entry j-1, stopping
    once the last position is picked."""
    out: list[int] = []
    start, n, letters = 0, len(word), pattern.letters()
    while start < n:
        seg = word[start:]
        i = word.index(min(seg) if next(letters) == MIN else max(seg), start)
        out.append(i)
        start = i + 1
    return out


def min_max_subsequence(
    p: Permutation, pattern: MinMaxPattern | None = None
) -> tuple[int, ...]:
    """The selected subsequence itself; with the alternating pattern this is
    the min-max subsequence.

    >>> min_max_subsequence(Permutation((4, 8, 1, 2, 7, 6, 3, 5)))
    (1, 7, 3, 5)
    """
    pattern = pattern or MinMaxPattern.alternating()
    return tuple(p.word[i] for i in selection_positions(p.word, pattern))


def m_s(p: Permutation, pattern: MinMaxPattern) -> int:
    """Length of the pattern-driven subsequence; distributed over all
    permutations of [n] like the number of cycles, for every pattern."""
    return len(selection_positions(p.word, pattern))


def stats(p: Permutation) -> StatVector:
    """Compute every statistic at once.

    >>> stats(Permutation((4, 8, 1, 2, 7, 6, 3, 5))).st
    4
    """
    cycles = to_cycles(p).cycles
    lrm, extr, (st, _, _) = _scan(p.word)
    c = len(cycles)
    c_o = sum(len(cyc) % 2 for cyc in cycles)
    exc = sum(map(CYCLE_SHARES["exc"], cycles))
    ud = sum(map(is_up_down_word, cycles))
    fp = sum(len(cyc) == 1 for cyc in cycles)
    return StatVector(c, c_o, c - c_o, fp, lrm, st, extr, exc, ud, c - ud)


def _scan(word: Sequence[int]) -> tuple[int, int, tuple[int, int, int]]:
    """``lrm``, ``extr`` and the ``m_s`` of each of ``_PATTERNS`` of a word.
    A left-to-right pass counts running minima and maxima; a right-to-left
    pass keeps the picks, on the suffix read so far, of the alternating
    pattern from min (``a``), from max (``b``) and of repeated min (``r``).
    They change only at a suffix record, where a pattern whose first letter
    picks it goes on after it with its other letters.  ``lr_min_positions``,
    ``extreme_positions`` and ``selection_positions`` are the readable
    definitions."""
    if not word:
        return 0, 0, (0, 0, 0)
    lo = hi = word[0]
    lrm, extr = 1, 0
    for x in word:
        if x < lo:
            lo = x
            lrm += 1
            extr += 1
        elif x > hi:
            hi = x
            extr += 1
    # the last entry is the one pick of every pattern on its own suffix
    lo = hi = word[-1]
    a = b = r = 1
    for x in word[-2::-1]:
        if x < lo:
            lo = x
            a, r = 1 + b, r + 1
        elif x > hi:
            hi = x
            b = 1 + a
    return lrm, extr, (a, r, b)
