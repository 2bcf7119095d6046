"""Permutation statistics: cycle counts by parity, fixed points, left-to-right
minima, the min-max subsequence length, extreme elements, excedances, and
up-down-cycle counters.

All statistics are invariant under order-preserving relabeling, so they are
defined for permutations of any ground set.  Positions are 1-based in the
documentation and 0-based in the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt
from typing import Sequence

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
    lo = hi = None
    out = []
    for i, x in enumerate(word):
        if i >= 1 and (x < lo or x > hi):
            out.append(i)
        lo = x if lo is None else min(lo, x)
        hi = x if hi is None else max(hi, x)
    return out


def selection_positions(word: Sequence[int], pattern: MinMaxPattern) -> list[int]:
    """0-based positions of the pattern-driven subsequence: entry j is the
    pattern's min or max of what remains to the right of entry j-1, stopping
    once the last position is picked."""
    out: list[int] = []
    start, j, n = 0, 1, len(word)
    while start < n:
        seg = word[start:]
        target = min(seg) if pattern.at(j) == MIN else max(seg)
        i = start + list(seg).index(target)
        out.append(i)
        if i == n - 1:
            break
        start, j = i + 1, j + 1
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
    return _stats_of(p, to_cycles(p).cycles)


def _stats_of(p: Permutation, cycles: tuple[tuple[int, ...], ...]) -> StatVector:
    """``stats(p)``, given the canonical cycles of ``p``."""
    word = p.word
    # the alternating pattern min, max, min, ... selects the min-max subsequence
    lrm, extr, exc, (st,) = _scan(word, sorted(word), ((True, False) * (len(word) // 2 + 1),))
    c = len(cycles)
    c_o = sum(len(cyc) % 2 for cyc in cycles)
    ud = sum(map(is_up_down_word, cycles))
    fp = sum(len(cyc) == 1 for cyc in cycles)
    return StatVector(c, c_o, c - c_o, fp, lrm, st, extr, exc, ud, c - ud)


def _letters(pattern: MinMaxPattern, n: int) -> tuple[bool, ...]:
    """The first n letters of the pattern, True for min, as ``_scan`` reads
    them."""
    return tuple(pattern.at(j) == MIN for j in range(1, n + 1))


def _scan(
    word: Sequence[int], ground: Sequence[int], patterns: Sequence[Sequence[bool]]
) -> tuple[int, int, int, tuple[int, ...]]:
    """``lrm``, ``extr``, ``exc`` and the ``m_s`` of each pattern (given by
    ``_letters``) of a word over the sorted ``ground``: one left-to-right
    pass, then the positions of the suffix minima and maxima.
    ``lr_min_positions``, ``extreme_positions`` and ``selection_positions``
    are the readable definitions."""
    n = len(word)
    if not n:
        return 0, 0, 0, (0,) * len(patterns)
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
    # arg_min[i] and arg_max[i] locate the minimum and maximum of word[i:]
    arg_min = [0] * n
    arg_max = [0] * n
    lo_at = hi_at = n - 1
    for i in range(n - 1, -1, -1):
        x = word[i]
        if x < word[lo_at]:
            lo_at = i
        elif x > word[hi_at]:
            hi_at = i
        arg_min[i] = lo_at
        arg_max[i] = hi_at
    lengths = []
    for letters in patterns:
        # pick k + 1 is the pattern's letter of what remains after pick k
        i, k = -1, 0
        while i < n - 1:
            i = (arg_min if letters[k] else arg_max)[i + 1]
            k += 1
        lengths.append(k)
    return lrm, extr, sum(map(gt, word, ground)), tuple(lengths)
