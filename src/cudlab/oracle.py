"""Brute-force enumeration of the permutation families and exhaustive
verification of every counting claim, series identity, distribution formula,
and bijection property at desk scale.

``enumerate_family`` is deliberately dumb: it filters all of S_n, in
lexicographic order, for the cycle families, and wraps the plain words of the
others (``_words``: all of S_n, or the backtracker
``perms._alternating_words``).  The S_n filter stays the reference that the
direct routes are compared with rather than trusted.  ``distribution``
computes only the named statistics.  A member of a cycle family is a set of
admissible cycles, and a permutation a set of any cycles, so cycle statistics
alone on a cycle family or on all are counted by size, by the exponential
formula (``_by_size``) over tables of the cycles on k points counted from
the up-down and Eulerian numbers, not listed (``_cycle_tables``).  Every
other request on ud, downup or all that names neither ud nor nud is counted
in one sweep over the levels i = n, ..., 1 that places w_i by its rank among
the values left (``_by_rank``): words whose placed ends agree in what the
rest of them reads share a state, which holds st's picks, the open paths that
the cycles close and the values left, each only where a name reads it.  The
rest tally member words one by one (``_tally``), the plain words of
``_words`` or those ``_cycle_members`` lays cycle by cycle.  The route sets
the default cap: ``COUNTED_CAP`` where no word is laid, else ``DEFAULT_CAPS``.
A distribution is a plain dict from value tuples to counts.
``verify_entries`` walks each S_n once, through ``census``, and yields a
machine-readable report entry by entry; ``verify_all`` lists them.  Any
failing row is a bug somewhere, by design with no tolerance.
The checks are a registry: each phase of ``_PHASES`` is a generator of
(check, n, expected, actual) rows, and ``verify_entries`` is the one place
that turns rows into report entries.  The counts phase is the ``_COUNT_CHECKS``
table.  The bijection checks run the trusted cores of ``bijections``, not
the checking faces: ``_map_words`` runs those of one of ``g_even``,
``f_odd``, ``phi`` and ``jbij`` and its inverse over any stream of up-down
words, and the ell check those of ``ell_map`` and ``ell_inverse``.  No
enumeration reads ``series`` or ``catalog``.

``census`` is a flat kernel over plain words: it decomposes each word, reads
each distinct cycle once for the two cycle shapes and its excedances, and
takes the word statistics and ``m_s`` values from one ``statistics._scan``.  It
counts permutations in one tally by family mask and values (``Census``) and
keeps only member words.  The tests check it against ``is_member``, ``stats``
and ``m_s`` over every permutation up to n = 7.  It keeps its own
lexicographic walk of S_n, apart from ``_by_rank``: it is the reference the
sweep is tested against, and the verify report lists some of its tables in
walk order.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from operator import itemgetter, mul
from typing import Iterable, Iterator, Sequence

from . import bijections, matchings, perms
from .catalog import (
    catalog_series,
    exc_polynomial,
    expected_ud_cycles,
    no_ud_fraction_formula,
    secant_cf_convergent,
)
from .perms import Family, Permutation, _alternating_words, admissible_patterns, is_member
from .series import (
    MPoly,
    Series,
    euler_numbers,
    geometric_series,
    sec_series,
    stirling_c,
    tan_series,
    zigzag_egf_series,
)
from .statistics import (
    CYCLE_SHARES,
    STAT_NAMES,
    _PATTERNS,
    _scan,
    extreme_positions,
    lr_min_positions,
)

WORD_FAMILIES = (Family.UD, Family.DOWNUP, Family.UD_LAST_GT_FIRST)

# the default caps of a request that tallies member words (``_tally``), and
# of one counted without laying words (``_by_size``, ``_by_rank``); that of
# all is verify's too.  No cap lifts the ceiling, which keeps the
# backtracker's recursion well under the recursion limit
DEFAULT_CAPS = {family: 11 if family in WORD_FAMILIES else 9 for family in Family}
DEFAULT_CAPS[Family.ALL] = 10
COUNTED_CAP = 11
CAP_CEILING = 200

def _check_cap(family: Family, n: int, cap: int | None) -> None:
    limit = cap if cap is not None else DEFAULT_CAPS[family]
    if n > limit:
        raise perms.CapExceeded(f"n={n} exceeds the enumeration cap {limit} for {family.value}")
    if n > CAP_CEILING:
        raise perms.CapExceeded(f"n={n} exceeds {CAP_CEILING}, which no cap lifts")
    if n < 0:
        raise ValueError("n must be nonnegative")


def enumerate_family(
    family: Family, n: int, cap: int | None = None
) -> Iterator[Permutation]:
    """Every member of the family in S_n exactly once, in lexicographic
    order of one-line notation."""
    _check_cap(family, n, cap)
    if family in perms._CYCLE_FAMILIES:
        yield from _filter_s_n(family, n)
    else:
        yield from map(Permutation._trusted, _words(family, n))


def _words(family: Family, n: int) -> Iterator[tuple[int, ...]]:
    """The plain words of S_n (``itertools.permutations``) or of a word family
    (the backtracker), in lexicographic order."""
    ground = tuple(range(1, n + 1))
    if family is Family.ALL:
        return itertools.permutations(ground)
    words = _alternating_words(ground, down_up=family is Family.DOWNUP)
    # every alternating word is up-down or down-up; only ud-last-gt-first tests more
    if family is Family.UD_LAST_GT_FIRST:
        return filter(perms._WORD_TESTS[family], words)
    return words


def _filter_s_n(family: Family, n: int) -> Iterator[Permutation]:
    """The members of S_n, by testing every word in lexicographic order."""
    for word in itertools.permutations(range(1, n + 1)):
        p = Permutation._trusted(word)
        if is_member(p, family):
            yield p


def count_family(family: Family, n: int, cap: int | None = None) -> int:
    return sum(1 for _ in enumerate_family(family, n, cap))


def iter_ud_by_filter(n: int) -> Iterator[Permutation]:
    """Second route to UD_n, for cross-checking the backtracker."""
    return _filter_s_n(Family.UD, n)


def iter_cycle_family(family: Family, n: int) -> Iterator[Permutation]:
    """Every member of the cycle family in S_n exactly once, from
    ``_cycle_members`` and not in lexicographic order."""
    return map(Permutation._trusted, _cycle_members(family, n))


def _cycle_members(family: Family, n: int) -> Iterator[tuple[int, ...]]:
    """The member words of the cycle family in S_n, by plain recursion: the
    cycle through the smallest remaining element is an admissible pattern on
    it and a subset of the rest.  Each cycle is laid in one list, entry a - 1
    the image of a, and a word is yielded where its last cycle is laid."""
    _, _, single = perms._CYCLE_FAMILIES[family]
    # each pattern as its (position, position of the image) pairs
    tables = [
        (k, [tuple(zip(p, p[1:] + p[:1])) for p in table])
        for k in ((n,) if single else range(1, n + 1))
        if (table := admissible_patterns(family, k))
    ]
    word = [0] * n

    def build(remaining: Sequence[int]) -> Iterator[tuple[int, ...]]:
        head, rest, m = remaining[0], remaining[1:], len(remaining)
        for k, table in tables:
            if k > m:
                break
            for subset in itertools.combinations(rest, k - 1):
                points = (head,) + subset
                left = [x for x in rest if x not in subset] if subset else rest
                for pairs in table:
                    for i, j in pairs:
                        word[points[i] - 1] = points[j]
                    if left:
                        yield from build(left)
                    else:
                        yield tuple(word)

    if n:
        yield from build(tuple(range(1, n + 1)))
    elif not single:  # the empty set of cycles; a single-cycle family has none
        yield ()


def iter_cud_direct(n: int) -> Iterator[Permutation]:
    """Second route to CUD_n, built cycle by cycle: see ``iter_cycle_family``."""
    return iter_cycle_family(Family.CUD, n)


def distribution(
    family: Family, n: int, stat_names: Sequence[str], cap: int | None = None
) -> dict[tuple[int, ...], int]:
    """Exact joint distribution of the named statistics, computing no other:
    how many members take each tuple of their values, in the order named.  A
    name outside ``STAT_NAMES`` is refused before any route is taken.  Cycle
    statistics alone on a cycle family or all are counted by size
    (``_by_size``), any other request on ud, downup or all that names neither
    ud nor nud over rank states (``_by_rank``), both with a default cap of
    ``COUNTED_CAP``, and the rest by tallying the member words one by one
    (``_tally``) under the family's ``DEFAULT_CAPS``.  Tables shared within a
    call are dropped when it returns."""
    for name in stat_names:
        if name not in STAT_NAMES:
            known = ", ".join(STAT_NAMES)
            raise perms.MalformedInput(f"unknown statistic {name!r} (known: {known})")
    cycle_family = family in perms._CYCLE_FAMILIES
    names = set(stat_names)
    if (cycle_family or family is Family.ALL) and names <= CYCLE_SHARES.keys():
        counted = _by_size
    elif family in _RANK_SIDES and not names & {"ud", "nud"}:
        counted = _by_rank
    else:
        _check_cap(family, n, cap)
        return _tally((_cycle_members if cycle_family else _words)(family, n), n, stat_names)
    _check_cap(family, n, COUNTED_CAP if cap is None else cap)
    return counted(family, n, stat_names)


# whether w_i may lie below w_{i+1} and whether above it, for i even and odd
_RANK_SIDES = {
    Family.UD: ((False, True), (True, False)),
    Family.DOWNUP: ((True, False), (False, True)),
    Family.ALL: ((True, True), (True, True)),
}


def _by_rank(family: Family, n: int, stat_names: Sequence[str]) -> dict[tuple[int, ...], int]:
    """Any statistics but ud and nud over ud, downup or all, in one sweep
    over the levels i = n, ..., 1 that places w_i by its rank r among the i
    values left, those of w_1..w_i, and lays no word.  w_i adds to lrm when
    it is their lowest, to extr (i >= 2) when it is their lowest or highest,
    and to exc when it exceeds i.  The placed entries make open paths, one
    into each position left: i -> w_i closes the path into i, when w_i is its
    head, into a cycle that adds its share of c, c_o, c_e and fp, and joins
    it to the path from w_i otherwise.  st is the pick ``a`` of ``_scan``'s
    right-to-left pass, which changes, with ``b``, only at a new minimum or
    maximum of the suffix, to one more than the other.

    A level maps each state to its placed suffixes, counted by key: one int
    of base-(n + 1) digits, one per name, st's holding a.  As b - a is -1, 0
    or 1, a state keeps one table per d = b - a + 1.  A state is what the
    rest of a word reads of its suffix, by rank among the values left, each
    part only where a name reads it: how many values left lie below the
    suffix's minimum and below its maximum, which st reads (without st, held
    at 0 and at i, so that no pick moves), and below w_{i+1}, which ud and
    downup read; the rank of the head of the open path into each position
    left, and for c_o, c_e and fp its size as 1 (one point), 2 (even) or 3
    (odd), which joining paths keeps; and the values left capped at i + 1,
    which exc reads.  Each level is built from the one before it alone, so
    two are held at a time: the transfer-matrix method (Stanley, EC1 4.7)."""
    base = n + 1
    place = {name: base**i for i, name in enumerate(dict.fromkeys(stat_names))}
    lrm, extr, exc, st = (place.get(name, 0) for name in ("lrm", "extr", "exc", "st"))
    # the share of c, c_o, c_e and fp of a cycle on k points; k = 1, 2 and 3
    # stand for the size classes
    closed = [
        sum(place.get(name, 0) * CYCLE_SHARES[name](range(k)) for name in ("c", "c_o", "c_e", "fp"))
        for k in range(4)
    ]
    paths = any(closed)
    sizes = any(name in place for name in ("c_o", "c_e", "fp"))
    sides = _RANK_SIDES[family]
    compares = family is not Family.ALL
    # path t runs from value t into position t, and the empty suffix's
    # minimum lies above every value and its maximum below, with a = b = 0
    start = (
        *((n, 0) if st else (0, n)),
        0,
        tuple(range(n)) if paths else (),
        (1,) * n if sizes else (),
        tuple(range(1, base)) if exc else (),
    )
    level = {start: [None, {0: 1}, None]}
    for i in range(n, 0, -1):
        below, above = sides[i % 2] if i < n else (True, True)
        # what lrm and extr add at each rank
        steps = [0] * i
        steps[0] += lrm + extr * (i > 1)
        steps[-1] += extr * (i > 1)
        following: dict[tuple, list] = {}
        for (low, high, mid, heads, kinds, values), tables in level.items():
            for r in range(0 if below else mid, i if above else mid):
                step = steps[r]
                heads_after = kinds_after = values_after = ()
                if exc:
                    step += exc * (values[r] > i)
                    values_after = tuple(min(v, i) for v in values[:r] + values[r + 1 :])
                if paths:
                    h, joined, kinds_after = heads[-1], list(heads[:-1]), list(kinds[:-1])
                    if h == r:  # the path into i closes
                        step += closed[kinds[-1] if sizes else 1]
                    else:  # it joins the path from w_i, into position t
                        t = heads.index(r)
                        joined[t] = h
                        if sizes:
                            kinds_after[t] = 2 + (kinds[t] + kinds[-1]) % 2
                    heads_after = tuple(x - (x > r) for x in joined)
                    kinds_after = tuple(kinds_after)
                new_min, new_max = r < low, r >= high
                state = (
                    r if new_min else low,
                    r if new_max else high - 1,
                    r if compares else 0,
                    heads_after,
                    kinds_after,
                    values_after,
                )
                targets = following.get(state)
                if targets is None:
                    following[state] = targets = [None, None, None]
                # a new minimum sets a to 1 + b = a + d, and a new maximum b
                # to 1 + a
                for d, table in enumerate(tables):
                    if table is None:
                        continue
                    if new_min:
                        slot, shift = 2 - d if new_max else 0, step + d * st
                    else:
                        slot, shift = 2 if new_max else d, step
                    target = targets[slot]
                    if target is None:
                        targets[slot] = {key + shift: count for key, count in table.items()}
                    else:
                        for key, count in table.items():
                            key += shift
                            target[key] = target.get(key, 0) + count
        level = following
    rows: Counter = Counter()
    for tables in level.values():
        for table in filter(None, tables):
            for key, count in table.items():
                rows[tuple(key // place[name] % base for name in stat_names)] += count
    return dict(rows)


def _up_down_counts(n: int) -> list[int]:
    """E_0, ..., E_n, the numbers of up-down (and, by complement, down-up)
    words on m values, over rank states (the Entringer numbers).  For each
    m, ``row[r]`` counts the down-up words on m values whose first entry lies
    above r of the others.  Such a word steps down to one that lies above
    some s < r of the m - 1 left and goes on up-down from there, which by
    complement is a down-up word whose first entry lies above m - 2 - s."""
    counts, row = [1, 1], [1]
    for _ in range(2, n + 1):
        row = list(itertools.accumulate(reversed(row), initial=0))
        counts.append(sum(row))
    return counts[: n + 1]


# the row of ``perms._CYCLE_FAMILIES`` that all would have: any cycles, of
# any length, and no shape.  It stays out of that table, which is_member and
# the census masks read too
_EVERY_CYCLE = (None, perms._ANY, False)


def _cycle_tables(family: Family, n: int, stat_names: Sequence[str]) -> list[Counter]:
    """T_0, ..., T_n: the family's admissible cycles on k points counted by
    their shares of the named cycle statistics, from the E_m of
    ``_up_down_counts`` and with no cycle listed.  c, c_o, c_e and fp read
    only k, so T_k is first keyed by (exc, ud).  With h = floor(k/2):

    - a CUD cycle, and any cycle on k = 1 point, is its minimum and then a
      down-up word on the other k - 1: (h, 1), E_{k-1} of them;
    - a GCUD cycle on even k: (h, 1) E_{k-1}, (h + 1, 0) E_k - h E_{k-1};
    - a GCUD cycle on odd k >= 3: (h, 1) E_{k-1}, (h, 0) E_k/2 - E_{k-1}
      and (h + 1, 0) E_k/2;
    - any cycle on k >= 2 points, as all admits: (h, 1) E_{k-1}, and
      (j, 0) A(k - 1, j - 1) less E_{k-1} at j = h.

    A GCUD cycle read from a rotation w_1 ... w_k that is an up-down word
    alternates on the k - 1 steps from w_1 to w_k, h of them rises, and its
    closing step w_k -> w_1 is one more rise when w_1 > w_k.  At odd k that
    rotation is unique, so the cycles are the E_k up-down words, and
    reversal pairs those with w_1 > w_k against those with w_1 < w_k, among
    which lie the E_{k-1} CUD cycles, read from their minimum.  At even k
    the cycles that alternate on all k steps are exactly the CUD ones, each
    with h up-down rotations; every other cycle has one, and its closing
    step is a rise.  The cycles on k points with j excedances are the
    Eulerian number A(k - 1, j - 1) (Foata and Schuetzenberger, 1970), the
    up-down ones among them the CUD cycles.  Keys of count 0 are left out,
    as a listing of the cycles never meets them."""
    shape, lengths, _ = perms._CYCLE_FAMILIES.get(family, _EVERY_CYCLE)
    euler = _up_down_counts(n)
    # all's cycles on k points by their excedances j = 0..k - 1, for k = 1 and
    # then A(k - 1, j - 1) = j A(k - 2, j - 1) + (k - j) A(k - 2, j - 2) row by
    # row, as all meets every k >= 2 in turn
    by_exc = [1]
    tables = [Counter()]
    for k in range(1, n + 1):
        h, e_k, e_below = k // 2, euler[k], euler[k - 1]
        if not lengths(k):
            by_exc_ud = {}
        elif shape is perms.is_up_down_word or k == 1:
            by_exc_ud = {(h, 1): e_below}
        elif shape is None:
            pairs = zip(by_exc + [0], [0] + by_exc)
            by_exc = [j * a + (k - j) * b for j, (a, b) in enumerate(pairs)]
            by_exc_ud = {(j, 0): count for j, count in enumerate(by_exc)}
            by_exc_ud[h, 0] -= e_below
            by_exc_ud[h, 1] = e_below
        elif k % 2 == 0:
            by_exc_ud = {(h, 1): e_below, (h + 1, 0): e_k - h * e_below}
        else:
            by_exc_ud = {(h, 1): e_below, (h, 0): e_k // 2 - e_below, (h + 1, 0): e_k // 2}
        values = {"c": 1, "c_o": k % 2, "c_e": 1 - k % 2, "fp": int(k == 1)}
        table: Counter = Counter()
        for (exc, ud), count in by_exc_ud.items():
            if count:
                values.update(exc=exc, ud=ud, nud=1 - ud)
                table[tuple(values[name] for name in stat_names)] += count
        tables.append(table)
    return tables


def _by_size(family: Family, n: int, stat_names: Sequence[str]) -> dict[tuple[int, ...], int]:
    """Cycle statistics over a cycle family or all by the exponential
    formula.  With T_k counting the share tuples of the cycles on k points
    (``_cycle_tables``), F(m) = sum_k C(m - 1, k - 1) T_k * F(m - k) and
    F(0) = {zero tuple: 1}, where * adds tuples and multiplies counts; a
    single-cycle family is T_n alone."""
    _, _, single = perms._CYCLE_FAMILIES.get(family, _EVERY_CYCLE)
    tables = _cycle_tables(family, n, stat_names)
    if single:
        return dict(tables[n])
    # a share tuple is one int of base-(n + 1) digits, as no total passes n
    base = n + 1
    places = [base**i for i in range(len(stat_names))]
    encoded = [{sum(map(mul, key, places)): count for key, count in t.items()} for t in tables]
    sizes = [{0: 1}]
    for m in range(1, n + 1):
        table: dict[int, int] = {}
        for k in range(1, m + 1):
            # the cycle through the smallest point takes k - 1 of the other m - 1
            ways, rests = comb(m - 1, k - 1), sizes[m - k].items()
            for cycle, count in encoded[k].items():
                count *= ways
                for rest, rest_count in rests:
                    key = cycle + rest
                    table[key] = table.get(key, 0) + count * rest_count
        sizes.append(table)
    return {
        tuple(key // place % base for place in places): count for key, count in sizes[n].items()
    }


def _tally(words: Iterable[Sequence[int]], n: int, stat_names: Sequence[str]) -> dict:
    """The distribution over words on [n], one by one: a word is decomposed
    only for a cycle statistic and scanned only for lrm, st or extr."""
    named = dict.fromkeys(name for name in stat_names if name in CYCLE_SHARES)
    # one int holds the named cycle statistics as base-(n + 1) digits, none above n
    shares = [((n + 1) ** i, CYCLE_SHARES[name]) for i, name in enumerate(named)]
    # a cycle on n - 1 or n points fixes its word, so it comes up once: not kept
    known: dict[Sequence[int], int] = {}

    def share(cycle: Sequence[int]) -> int:
        value = known.get(cycle)
        if value is None:
            value = sum(place * of(cycle) for place, of in shares)
            if len(cycle) < n - 1:
                known[cycle] = value
        return value

    scan = any(name not in CYCLE_SHARES for name in stat_names)
    tally = Counter(
        (sum(map(share, _cycles(word))) if named else 0, scan and _scan(word))
        for word in words
    )
    rows: Counter = Counter()
    for (total, scanned), count in tally.items():
        values = {name: total // place % (n + 1) for name, (place, _) in zip(named, shares)}
        values["lrm"], values["extr"], (values["st"], _, _) = scanned or (0, 0, (0, 0, 0))
        rows[tuple(values[name] for name in stat_names)] += count
    return dict(rows)


def _cycles(word: Sequence[int]) -> list[tuple[int, ...]]:
    """The canonical cycles of a word on [n], walked over its successor list."""
    return perms._walk_cycles([0, *word], range(1, len(word) + 1))


def distribution_csv(stat_names: Sequence[str], rows: dict[tuple[int, ...], int]) -> str:
    """CSV text of a distribution: statistic columns then the count, rows sorted."""
    lines = [",".join((*stat_names, "count"))]
    for values in sorted(rows):
        lines.append(",".join(str(v) for v in values + (rows[values],)))
    return "\n".join(lines) + "\n"


def _to_poly(rows: dict[tuple[int, ...], int], markers: Sequence[str]) -> MPoly:
    """A distribution as sum count * prod marker^value, a marker per statistic."""
    return MPoly(
        {
            tuple(pair for pair in zip(markers, values, strict=True) if pair[1]): count
            for values, count in rows.items()
        }
    )


# families whose members a verify check visits one by one, not only as counts
_MEMBER_FAMILIES = (
    Family.UD,
    Family.CUD,
    Family.CUD_EVEN_ONLY,
    Family.CUD_ODD_ONLY,
    Family.UD_LAST_GT_FIRST,
)

# the h_map and ell_map checks visit every permutation of S_n up to this size
_MAP_CHECK_N = 6


# a census tally's values, the statistics then the m_s of each pattern but the
# first, whose m_s is st, and each family's bit in its family masks
_COLUMNS = STAT_NAMES + tuple(map(str, _PATTERNS[1:]))
_BIT = {family: 1 << i for i, family in enumerate(Family)}


class Census(perms._Record):
    """One walk of S_n, in lexicographic order.

    ``tally`` counts the permutations by (family mask, values), keyed in the
    order the walk first meets them: the mask has the ``_BIT`` of every
    family the permutation is in, and the values are its ``_COLUMNS``, which
    hold st once, as the m_s of the alternating pattern has no column of its
    own.  ``count`` and ``distribution`` are the only ways to read it, each by
    filtering the tally on the family's bit.  ``words`` keeps the member
    words, in lexicographic order, only for the families whose checks visit
    them one by one (``_MEMBER_FAMILIES``); a check that needs one member's
    statistics scans its word, and one that hands a member to a bijection
    builds its ``Permutation`` there.
    """

    __slots__ = __match_args__ = ("n", "tally", "words")
    # unlike the other records, a census may be changed, so it has no hash
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, n: int, tally: dict[tuple, int], words: dict[Family, list[tuple]]):
        self.n, self.tally, self.words = n, tally, words

    def count(self, family: Family) -> int:
        flag = _BIT[family]
        return sum(count for (mask, _), count in self.tally.items() if mask & flag)

    def distribution(self, family: Family, names: Sequence[str]) -> dict[tuple, int]:
        """The dict ``distribution(family, n, names)`` gives, where each name
        is a column of ``_COLUMNS``; keys come in walk order."""
        flag = _BIT[family]
        columns = [_COLUMNS.index(name) for name in names]
        # one itemgetter per read; of a single index it would give the bare
        # value, so one column is read as a slice, which keeps the tuple
        if len(columns) == 1:
            project = itemgetter(slice(columns[0], columns[0] + 1))
        else:
            project = itemgetter(*columns)
        rows: dict[tuple, int] = {}
        for (mask, values), count in self.tally.items():
            if mask & flag:
                key = project(values)
                rows[key] = rows.get(key, 0) + count
        return rows


def census(n: int) -> Census:
    """Walk S_n once, over plain words decomposed by ``_cycles``.  A
    permutation is in a cycle family when all its cycles are (the AND of
    their family masks), and in a single-cycle family only with one cycle;
    its word statistics and ``m_s`` values come from ``statistics._scan``."""
    _check_cap(Family.ALL, n, None)
    # every word is in all, and a word of ud-last-gt-first is an up-down word
    # of even length >= 2 whose last entry exceeds its first, so its bit is
    # read off the ud bit.  A word's first step leaves one shape to test: a
    # rising word can only be up-down and a falling one only down-up, while
    # a word shorter than 2 is both.
    word_tests = [(_BIT[f], perms._WORD_TESTS[f]) for f in (Family.UD, Family.DOWNUP)]
    short_bits = word_tests[0][0] | word_tests[1][0] if n < 2 else 0
    all_bit, ud_bit = _BIT[Family.ALL], _BIT[Family.UD]
    last_gt_first_bit = _BIT[Family.UD_LAST_GT_FIRST] if n >= 2 and n % 2 == 0 else 0
    # by length, the cycle families admitting an up-down cycle (it has both
    # shapes) and those admitting a cycle of the GCUD shape alone
    ud_masks, gen_masks = [0] * (n + 1), [0] * (n + 1)
    for family, (shape, lengths, _) in perms._CYCLE_FAMILIES.items():
        for k in filter(lengths, range(1, n + 1)):
            ud_masks[k] |= _BIT[family]
            if shape is perms.is_gen_up_down_cycle:
                gen_masks[k] |= _BIT[family]
    all_cycle_bits = sum(_BIT[family] for family in perms._CYCLE_FAMILIES)
    single_bits = sum(_BIT[f] for f, (_, _, single) in perms._CYCLE_FAMILIES.items() if single)
    kept = _MEMBER_FAMILIES + ((Family.ALL,) if n <= _MAP_CHECK_N else ())
    words: dict[Family, list] = {family: [] for family in kept}
    word_lists = [(_BIT[family], words[family]) for family in kept]
    kept_bits = sum(_BIT[family] for family in kept)
    exc_share = CYCLE_SHARES["exc"]

    # a cycle's verdict: the mask of the cycle families admitting it, its
    # up-down flag and its excedances; GCUD is tested only when the flag is
    # 0.  A cycle on n - 1 or n points fixes the whole permutation, so it
    # comes up once and is not kept.
    verdicts: dict[tuple[int, ...], tuple[int, int, int]] = {}
    tally: dict[tuple, int] = {}
    for word in itertools.permutations(range(1, n + 1)):
        mask = all_cycle_bits
        c_o = fp = ud = exc = 0
        cycles = _cycles(word)
        for cycle in cycles:
            k = len(cycle)
            verdict = verdicts.get(cycle)
            if verdict is None:
                if perms.is_up_down_word(cycle):
                    verdict = (ud_masks[k], 1, exc_share(cycle))
                else:
                    gen = perms.is_gen_up_down_cycle(cycle)
                    verdict = (gen_masks[k] if gen else 0, 0, exc_share(cycle))
                if k < n - 1:
                    verdicts[cycle] = verdict
            admits, up_down, ascents = verdict
            mask &= admits
            ud += up_down
            exc += ascents
            c_o += k % 2
            fp += k == 1
        c = len(cycles)
        if c != 1:
            mask &= ~single_bits
        # set only now: the cycles' admitting masks, ANDed in above, lack it
        mask |= all_bit | short_bits
        if n >= 2:
            flag, test = word_tests[word[0] > word[1]]
            if test(word):
                mask |= flag
        if last_gt_first_bit and mask & ud_bit and word[-1] > word[0]:
            mask |= last_gt_first_bit
        # st is the m_s of the alternating pattern, the first of _PATTERNS
        lrm, extr, (st, r, b) = _scan(word)
        key = (mask, (c, c_o, c - c_o, fp, lrm, st, extr, exc, ud, c - ud, r, b))
        tally[key] = tally.get(key, 0) + 1
        if mask & kept_bits:
            for flag, members in word_lists:
                if mask & flag:
                    members.append(word)

    return Census(n, tally, words)


# ---------------------------------------------------------------------------
# the verification suite: each phase yields (check, n, expected, actual) rows


def _plain(value):
    """A report value as JSON data: ints, strings, bools and None as they
    are, a list of ints or of tuples of ints, which is what the word-list
    rows hold, as it is (JSON writes a tuple as an array), other lists and
    tuples as lists of their items made plain, anything else as its ``str``."""
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, list):
        types = set(map(type, value))
        if types <= {int} or (
            types == {tuple} and set(map(type, itertools.chain.from_iterable(value))) <= {int}
        ):
            return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


def verify_entries(n_cap: int = 7, euler_fn=euler_numbers) -> Iterator[dict]:
    """The pass/fail entry of every check against the brute-force oracle up
    to size ``n_cap``, one per (check, n), phase by phase in the order of
    ``_PHASES``, each made as its row is computed.  A refused ``n_cap``
    raises here, before the first S_n is walked.

    ``euler_fn`` exists for fault injection in tests; the default is the
    boustrophedon recurrence.
    """
    cap = DEFAULT_CAPS[Family.ALL]  # that of the census
    if n_cap > cap:
        raise perms.CapExceeded(f"verification cap is {cap}, got {n_cap}")
    if n_cap < 1:
        raise ValueError("n_cap must be at least 1")

    def entries() -> Iterator[dict]:
        eul = euler_fn(max(21, 2 * n_cap + 8))
        order = max(20, n_cap + 2)
        # one walk of each S_n feeds every check; the censuses go with the generator
        censuses = [census(n) for n in range(n_cap + 1)]
        for phase in _PHASES:
            for check, n, expected, actual in phase(censuses, eul, order):
                yield {
                    "check": check,
                    "n": n,
                    "expected": _plain(expected),
                    "actual": _plain(actual),
                    "pass": expected == actual,
                }

    return entries()


def verify_all(n_cap: int = 7, euler_fn=euler_numbers) -> list[dict]:
    """The whole report of ``verify_entries``, as a list."""
    return list(verify_entries(n_cap, euler_fn))


# the sizes a check runs at, tests of n rather than ranges, so that they
# follow DEFAULT_CAPS[Family.ALL] when it is raised after import
_EVERY_N, _FROM_1 = (lambda n: True), (lambda n: n >= 1)
_EVEN, _EVEN_FROM_2 = (lambda n: n % 2 == 0), (lambda n: n >= 2 and n % 2 == 0)


# check name, actual value, expected value, sizes.  A value is a census
# family (its count), a catalog id (its EGF term at n), an int k (E_{n+k}),
# or a function of n, the Euler numbers and the catalog's series by id.
_COUNT_CHECKS = (
    ("ud-count", Family.UD, 0, _EVERY_N),
    ("downup-count", Family.DOWNUP, 0, _EVERY_N),
    ("cud-count", Family.CUD, 1, _EVERY_N),
    ("cud-count-series", Family.CUD, "cud", _EVERY_N),
    ("cud-odd-only-count", Family.CUD_ODD_ONLY, 0, _EVERY_N),
    ("cud-even-only-count", Family.CUD_EVEN_ONLY, 0, _EVEN),
    ("cud-cyclic-count", Family.CUD_CYCLIC, -1, _FROM_1),
    ("cud-derangement-count", Family.CUD_DERANGEMENT, "cud-derangements", _FROM_1),
    ("gcud-count", Family.GCUD, "gcud", _FROM_1),
    ("gcud-even-only-count", Family.GCUD_EVEN_ONLY, "gcud-even-only", _FROM_1),
    ("gcud-odd-only-count", Family.GCUD_ODD_ONLY, "gcud-odd-only", _FROM_1),
    # odd generalized up-down cycles have a unique up-down representation,
    # so odd cyclic counts are E_n (EGF tan z)
    (
        "gcud-cyclic-count",
        Family.GCUD_CYCLIC,
        lambda n, eul, series: series("gcud-even-cyclic").egf_int(n) + n % 2 * eul[n],
        _FROM_1,
    ),
    ("exc-def-swap-count", Family.EXC_DEF_SWAP, "exc-def-swap", _EVERY_N),
    (
        "ud-last-gt-first-count",
        Family.UD_LAST_GT_FIRST,
        lambda n, eul, _: n // 2 * eul[n - 1],
        _EVEN_FROM_2,
    ),
    ("ud-last-gt-first-series", Family.UD_LAST_GT_FIRST, "k-euler-odd", _EVEN_FROM_2),
    (
        "gcud-even-cyclic-lemma",
        "gcud-even-cyclic",
        lambda n, eul, _: eul[n] - (n // 2 - 1) * eul[n - 1],
        _EVEN_FROM_2,
    ),
)


def _verify_counts(censuses: list[Census], eul: list[int], order: int) -> Iterator[tuple]:
    n_cap = len(censuses) - 1
    series = functools.cache(lambda seq_id: catalog_series(seq_id, n_cap))

    def value(source, n: int):
        if isinstance(source, Family):
            return censuses[n].count(source)
        if isinstance(source, str):
            return series(source).egf_int(n)
        if isinstance(source, int):
            return eul[n + source]
        return source(n, eul, series)

    for n in range(n_cap + 1):
        for check, actual, expected, sizes in _COUNT_CHECKS:
            if sizes(n):
                yield check, n, value(expected, n), value(actual, n)
    # up to n = 8: the census filters S_n, while the backtracker and
    # iter_cud_direct build the members directly
    for n, cen in enumerate(censuses[:9]):
        yield (
            "ud-dual-generation",
            n,
            cen.words[Family.UD],
            [p.word for p in enumerate_family(Family.UD, n)],
        )
        yield (
            "cud-dual-generation",
            n,
            cen.words[Family.CUD],
            sorted(p.word for p in iter_cud_direct(n)),
        )


def _verify_series_identities(
    censuses: list[Census], eul: list[int], order: int
) -> Iterator[tuple]:
    egf = zigzag_egf_series(order + 2)
    e_prime = egf.differentiate()
    e_second = e_prime.differentiate()
    yield (
        "id-exp-int-zigzag",
        order,
        e_prime.truncate(order),
        egf.truncate(order - 1).integrate().exp(),
    )
    yield "id-exp-int-tan", order, sec_series(order), tan_series(order - 1).integrate().exp()
    yield "id-exp-int-sec", order, egf.truncate(order), sec_series(order - 1).integrate().exp()
    yield (
        "id-second-derivative",
        order,
        e_second.truncate(order),
        (egf.truncate(order) * e_prime.truncate(order)),
    )
    yield (
        "id-derivative-product",
        order,
        e_prime.truncate(order),
        egf.truncate(order) * sec_series(order),
    )
    yield (
        "euler-boustrophedon-vs-series",
        order,
        eul[: order + 1],
        [egf.egf_int(n) for n in range(order + 1)],
    )
    yield (
        "stirling-row-sums",
        order,
        [factorial(n) for n in range(13)],
        [sum(stirling_c(n, k) for k in range(n + 1)) for n in range(13)],
    )
    for depth in range(1, 11):
        yield (
            "cf-convergent",
            depth,
            [eul[2 * m] for m in range(depth + 1)],
            list(secant_cf_convergent(depth, depth).coeffs),
        )


def _coefficient_sum(poly: MPoly) -> int:
    """The polynomial's value with every marker at 1: its coefficient sum."""
    return sum(coeff for _, coeff in poly.items())


def _verify_specializations(
    censuses: list[Census], eul: list[int], order: int
) -> Iterator[tuple]:
    order = min(order, 14)  # the verify goldens and digests pin these rows
    pairs = [
        ("spec-cud-fp-cycles", "cud-fp-cycles", "cud"),
        ("spec-gcud-fp-cycles", "gcud-fp-cycles", "gcud"),
        ("spec-ud-st", "ud-st", "euler"),
    ]

    def at_ones(seq_id: str) -> Series:
        return Series.from_egf(map(_coefficient_sum, catalog_series(seq_id, order).terms))

    for name, marked, plain in pairs:
        yield name, order, catalog_series(plain, order), at_ones(marked)
    merged = []  # each t_o^i*t_e^j as t^(i+j)
    for poly in catalog_series("cud-odd-even", order).terms:
        rows = Counter()
        for mono, coeff in poly.items():
            rows[(sum(exp for _, exp in mono),)] += coeff
        merged.append(_to_poly(rows, ("t",)))
    yield "spec-cud-odd-even", order, catalog_series("cud-cycles", order), Series.from_egf(merged)
    yield "spec-perm-ud-nud", order, geometric_series(order), at_ones("perm-ud-nud")


_MARKED_TABLES = (
    # check name, sequence id, family, statistics, markers, first n
    ("dist-cud-cycles", "cud-cycles", Family.CUD, ("c",), ("t",), 0),
    ("dist-cud-fp-cycles", "cud-fp-cycles", Family.CUD, ("fp", "c"), ("x", "t"), 0),
    ("dist-cud-odd-even", "cud-odd-even", Family.CUD, ("c_o", "c_e"), ("t_o", "t_e"), 0),
    ("dist-gcud-fp-cycles", "gcud-fp-cycles", Family.GCUD, ("fp", "c"), ("x", "t"), 0),
    ("dist-perm-ud-nud", "perm-ud-nud", Family.ALL, ("ud", "nud"), ("v", "w"), 0),
    ("dist-ud-st", "ud-st", Family.UD, ("st",), ("t",), 0),
    ("dist-ud-lrm", "ud-lrm", Family.UD, ("lrm",), ("t",), 1),
    ("dist-ud-extr", "ud-extr", Family.UD, ("extr",), ("t",), 1),
)


# the Stirling rows over S_n: check name, census column (st for the first m_s)
_STIRLING_ROWS = [(f"dist-{name}-stirling", name) for name in ("st", "lrm", "c")] + [
    (f"dist-ms-stirling[{pattern}]", column)
    for pattern, column in zip(_PATTERNS, ("st", *_COLUMNS[len(STAT_NAMES) :]))
]


def _verify_distributions(
    censuses: list[Census], eul: list[int], order: int
) -> Iterator[tuple]:
    n_cap = len(censuses) - 1
    for name, seq_id, family, stat_names, markers, start in _MARKED_TABLES:
        series = catalog_series(seq_id, n_cap)
        for cen in censuses[start:]:
            yield (
                name,
                cen.n,
                series.egf_term(cen.n),
                _to_poly(cen.distribution(family, stat_names), markers),
            )
    for cen in censuses[1:]:
        n = cen.n
        stirling_row = {k: stirling_c(n, k) for k in range(1, n + 1) if stirling_c(n, k)}
        for check, column in _STIRLING_ROWS:
            table = cen.distribution(Family.ALL, (column,))
            yield check, n, stirling_row, {k: v for (k,), v in sorted(table.items())}
        extr_expected = {
            k: (2**k) * stirling_c(n - 1, k)
            for k in range(1, n)
            if stirling_c(n - 1, k)
        }
        table = cen.distribution(Family.ALL, ("extr",))
        yield (
            "dist-extr-stirling",
            n,
            extr_expected,
            {k: v for (k,), v in sorted(table.items()) if k > 0},
        )
        yield (
            "dist-extr-zero",
            n,
            0 if n > 1 else 1,
            sum(v for (k,), v in table.items() if k == 0),
        )
    for n, cen in enumerate(censuses):
        # (c_o, exc) once per member, keys in walk order
        cud = list(Counter(cen.distribution(Family.CUD, ("c_o", "exc"))).elements())
        yield "exc-parity-relation", n, [n] * len(cud), [c_o + 2 * exc for c_o, exc in cud]
        exc_counts = dict(Counter(exc for _, exc in cud))
        poly = exc_polynomial(n)
        yield (
            "exc-poly-vs-oracle",
            n,
            {dict(mono).get("t", 0): int(c) for mono, c in poly.items()},
            exc_counts,
        )
        yield "exc-poly-total", n, eul[n + 1], _coefficient_sum(poly)


# bijections from up-down words to cycles, by the cores of ``bijections``:
# report tag, forward core, inverse core and a test of what the cycles keep
# of the word's ``_scan``, (lrm, extr, m_s) with st first; g and f add the
# family their images fill, phi and jbij the name of their statistic check
_G_F_MAPS = (
    ("g", bijections._g_even_cycles, bijections._g_even_word,
     lambda cycles, lrm, extr, ms: len(cycles) == lrm, Family.CUD_EVEN_ONLY),
    ("f", bijections._f_odd_cycles, bijections._f_odd_word,
     lambda cycles, lrm, extr, ms: len(cycles) == ms[0], Family.CUD_ODD_ONLY),
)
_PHI_JBIJ_MAPS = (
    # phi keeps c_o + 1 = st and c_e + 1 = lrm, that is c + 2 - lrm = st
    ("phi", bijections._phi_cycles, bijections._phi_word,
     lambda cycles, lrm, extr, ms: sum(len(cyc) % 2 for cyc in cycles) + 1 == ms[0]
     == len(cycles) + 2 - lrm, "stats"),
    ("jbij", bijections._jbij_cycles, bijections._jbij_word,
     lambda cycles, lrm, extr, ms: len(cycles) == extr, "stat"),
)


def _map_words(words: Iterable[tuple], forward, inverse, keeps) -> tuple[bool, bool, list]:
    """Send each up-down word through one map's trusted cores, and ask
    ``keeps`` of the cycles and the word's ``statistics._scan``: whether
    every inverse gave the word back, whether every image kept the
    statistic, and the image words, sorted.  A core whose range guard
    refuses a word has not given it back, and that word has no image."""
    inverts = kept = True
    images = []
    for word in words:
        try:
            cycles = forward(word)
            back = inverse(sorted(cycles))  # the inverse core takes canonical order
        except perms.DomainError:
            inverts = False
            continue
        image = [0] * (1 + sum(map(len, cycles)))  # image[a] is the image of a
        for cycle in cycles:
            a = cycle[-1]
            for b in cycle:
                image[a] = b
                a = b
        images.append(tuple(image[1:]))
        inverts = inverts and back == word
        kept = kept and keeps(cycles, *_scan(word))
    images.sort()
    return inverts, kept, images


def _verify_bijections(censuses: list[Census], eul: list[int], order: int) -> Iterator[tuple]:
    for n, cen in enumerate(censuses):
        for tag, forward, inverse, keeps, family in _G_F_MAPS[n % 2 :]:  # g takes even n only
            inverts, kept, images = _map_words(cen.words[Family.UD], forward, inverse, keeps)
            yield f"bij-{tag}-roundtrip", n, True, inverts and kept
            yield f"bij-{tag}-image", n, cen.words[family], images
    for n, (cen, after) in enumerate(zip(censuses, censuses[1:] + [None])):
        for tag, forward, inverse, keeps, stat_check in _PHI_JBIJ_MAPS:
            # UD_{n+1}: the next census's words, or past the last the backtracker's
            words = after.words[Family.UD] if after else _alternating_words(range(1, n + 2))
            inverts, kept, images = _map_words(words, forward, inverse, keeps)
            yield f"bij-{tag}-roundtrip", n, True, inverts
            yield f"bij-{tag}-{stat_check}", n, True, kept
            yield f"bij-{tag}-image", n, cen.words[Family.CUD], images
    for cen in censuses[1:]:
        ud = list(Counter(cen.distribution(Family.UD, ("extr", "lrm", "st"))).elements())
        extr, lrm_st = sorted(e for e, _, _ in ud), sorted(lrm + st - 2 for _, lrm, st in ud)
        yield "equidist-extr-vs-lrm-st", cen.n, extr, lrm_st
    for cen in censuses[2::2]:
        n, k = cen.n, cen.n // 2
        starts_low = [Permutation._trusted(w) for w in cen.words[Family.UD] if w[0] == 1]
        rotated = (bijections.rotate_ud(p, i) for p in starts_low for i in range(1, k + 1))
        produced = {q.word for q in rotated}
        yield "rotation-bijection", n, cen.words[Family.UD_LAST_GT_FIRST], sorted(produced)
        yield "rotation-count", n, k * len(starts_low), len(produced)
    for cen in censuses[1 : _MAP_CHECK_N + 1]:
        n, s_n = cen.n, cen.words[Family.ALL]
        ms_values = [_scan(word)[2] for word in s_n]
        for i, pattern in enumerate(_PATTERNS):
            images = [bijections.h_map(Permutation._trusted(w), pattern) for w in s_n]
            ok = all(
                len(lr_min_positions(q.word)) == ms[i] for ms, q in zip(ms_values, images)
            )
            yield f"bij-h-transport[{pattern}]", n, True, ok
            yield f"bij-h-bijective[{pattern}]", n, factorial(n), len({q.word for q in images})
    for cen in censuses[1 : _MAP_CHECK_N + 1]:
        produced = set()
        ok = True
        for word in cen.words[Family.ALL]:
            minima = lr_min_positions(word)
            for bits in itertools.product((0, 1), repeat=len(minima)):
                image = bijections._ell_word(word, minima, bits)
                produced.add(image)
                extremes = extreme_positions(image)
                try:
                    back = bijections._ell_inverse_word(image, extremes)
                except perms.DomainError:  # the range guard refused an image
                    back = None
                ok = ok and len(extremes) == len(minima) and back == (word, bits)
        yield "bij-ell-roundtrip", cen.n, True, ok
        yield "bij-ell-image", cen.n, factorial(cen.n + 1), len(produced)


def _verify_matchings(censuses: list[Census], eul: list[int], order: int) -> Iterator[tuple]:
    for cen in censuses[2::2]:
        pairs = set()
        ok = True
        for word in cen.words[Family.CUD_EVEN_ONLY]:
            p = Permutation._trusted(word)
            mp = matchings.to_matching_pair(p)
            pairs.add((mp.red, mp.blue))
            ok = ok and matchings.from_matching_pair(mp) == p
        yield "matching-roundtrip", cen.n, True, ok
        yield "matching-count", cen.n, eul[cen.n], len(pairs)


def _verify_expectations(
    censuses: list[Census], eul: list[int], order: int
) -> Iterator[tuple]:
    avg = catalog_series("avg-ud-cycles", 12)
    no_ud = catalog_series("no-ud-cycles", max(12, censuses[-1].n))
    for n in range(1, 13):
        yield "expected-ud-series", n, expected_ud_cycles(n), avg.coefficient(n)
        yield "r-count-formula", n, no_ud_fraction_formula(n) * factorial(n), no_ud.egf_int(n)
    for cen in censuses[1:]:
        n, table = cen.n, cen.distribution(Family.ALL, ("ud",))
        total = sum(ud * count for (ud,), count in table.items())
        yield "expected-ud-vs-oracle", n, expected_ud_cycles(n), Fraction(total, factorial(n))
        yield "r-count-oracle", n, no_ud.egf_int(n), table.get((0,), 0)


# every phase takes (censuses, Euler numbers, series order); the report lists
# their rows in this order
_PHASES = (
    _verify_counts,
    _verify_series_identities,
    _verify_specializations,
    _verify_distributions,
    _verify_bijections,
    _verify_matchings,
    _verify_expectations,
)
