"""Brute-force enumeration of the permutation families and exhaustive
verification of every counting claim, series identity, distribution formula,
and bijection property at desk scale.

``enumerate_family`` is deliberately dumb: it filters all of S_n, in
lexicographic order, except for the up-down words, which a backtracker
builds.  ``distribution`` builds the cycle families directly, as sets of
admissible cycles (``iter_cycle_family``); the S_n filter stays the
reference that the direct routes are compared with rather than trusted.
``verify_all`` walks each S_n once, through ``census``, and returns a
machine-readable report; any failing row is a bug somewhere, by design with
no tolerance.  ``census`` is a flat kernel over plain words: it decomposes
each word in place, tests each distinct cycle once against the cycle
families, and takes the word statistics and ``m_s`` values from one pass
(``statistics._scan``); the tests check it against ``is_member``, ``stats``
and ``m_s`` over every permutation up to n = 7.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator, Sequence

from . import bijections, matchings, perms
from .catalog import (
    CapExceeded,
    catalog_series,
    exc_polynomial,
    expected_ud_cycles,
    no_ud_cycles_count,
    no_ud_fraction_formula,
    secant_cf_convergent,
)
from .perms import (
    Family,
    Permutation,
    from_cycles,
    is_member,
)
from .series import (
    MPoly,
    euler_numbers,
    geometric_series,
    sec_series,
    stirling_c,
    tan_series,
    zigzag_egf_series,
)
from .statistics import (
    MAX,
    MIN,
    MinMaxPattern,
    StatVector,
    _letters,
    _scan,
    _stats_of,
    extreme_positions,
    lr_min_positions,
    stats,
)

WORD_FAMILIES = (Family.UD, Family.DOWNUP, Family.UD_LAST_GT_FIRST)

DEFAULT_CAPS = {family: 11 if family in WORD_FAMILIES else 9 for family in Family}

VERIFY_CAP = 9

# the min/max patterns whose m_s and h_map the verification suite checks
_PATTERNS = (
    MinMaxPattern.alternating(),
    MinMaxPattern.repeat(MIN),
    MinMaxPattern((), (MAX, MIN)),
)


@dataclass
class DistributionTable:
    """Joint distribution of statistics over one family at one size."""

    family: Family
    n: int
    stats: tuple[str, ...]
    rows: dict[tuple[int, ...], int]

    def total(self) -> int:
        return sum(self.rows.values())

    def to_poly(self, markers: Sequence[str]) -> MPoly:
        """Encode the table as sum count * prod marker^value."""
        if len(markers) != len(self.stats):
            raise ValueError("one marker per statistic required")
        return MPoly(
            {
                tuple((name, value) for name, value in zip(markers, values) if value): count
                for values, count in self.rows.items()
            }
        )


def _check_cap(family: Family, n: int, cap: int | None) -> None:
    limit = cap if cap is not None else DEFAULT_CAPS[family]
    if n > limit:
        raise CapExceeded(
            f"n={n} exceeds the enumeration cap {limit} for {family.value}"
        )
    if n < 0:
        raise ValueError("n must be nonnegative")


def enumerate_family(
    family: Family, n: int, cap: int | None = None
) -> Iterator[Permutation]:
    """Every member of the family in S_n exactly once, in lexicographic
    order of one-line notation."""
    _check_cap(family, n, cap)
    if family in WORD_FAMILIES:
        down_up = family is Family.DOWNUP
        # every alternating word is up-down or down-up; only ud-last-gt-first
        # has a further condition
        keep = perms._WORD_TESTS[family] if family is Family.UD_LAST_GT_FIRST else None
        for word in _alternating_words(tuple(range(1, n + 1)), down_up=down_up):
            if keep is None or keep(word):
                yield Permutation._trusted(word)
        return
    yield from _filter_s_n(family, n)


def _filter_s_n(family: Family, n: int) -> Iterator[Permutation]:
    """The members of S_n, by testing every word in lexicographic order."""
    for word in itertools.permutations(range(1, n + 1)):
        p = Permutation._trusted(word)
        if is_member(p, family):
            yield p


def count_family(family: Family, n: int, cap: int | None = None) -> int:
    return sum(1 for _ in enumerate_family(family, n, cap))


def _alternating_words(
    values: tuple[int, ...], down_up: bool = False
) -> Iterator[tuple[int, ...]]:
    """Backtracking generator of alternating words over the given values, in
    lexicographic order."""

    def extend(word: list[int], remaining: list[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(word)
            return
        i = len(word)
        # appending position i compares w_{i-1} with w_i; up-down words rise
        # on odd i (0-based)
        want_up = (i % 2 == 1) != down_up
        for idx, x in enumerate(remaining):
            if word and (word[-1] < x) != want_up:
                continue
            word.append(x)
            yield from extend(word, remaining[:idx] + remaining[idx + 1 :])
            word.pop()

    yield from extend([], sorted(values))


def iter_ud_by_filter(n: int) -> Iterator[Permutation]:
    """Second route to UD_n, for cross-checking the backtracker."""
    return _filter_s_n(Family.UD, n)


def iter_cycle_family(
    family: Family, n: int
) -> Iterator[tuple[Permutation, tuple[tuple[int, ...], ...]]]:
    """Every member of the cycle family in S_n exactly once, with its
    canonical cycles, built as a set of admissible cycles.

    The cycle through the smallest remaining element takes that element and
    a subset of the rest, and is one of the family's admissible patterns
    (``perms.admissible_patterns``) relabelled onto those points; the rest
    is built the same way.  A single-cycle family takes the whole set at
    once, so it has no member at n = 0.  The order is not lexicographic.
    """
    _, single = perms._CYCLE_FAMILIES[family]
    if single and n == 0:
        return
    tables = [
        (k, table)
        for k in ((n,) if single else range(1, n + 1))
        if (table := perms.admissible_patterns(family, k))
    ]
    # word[a - 1] is the image of a; each cycle sets the images of its points
    word = [0] * n
    cycles: list[tuple[int, ...]] = []

    def build(remaining: tuple[int, ...]) -> Iterator:
        if not remaining:
            yield Permutation._trusted(tuple(word)), tuple(cycles)
            return
        head, rest = remaining[0], remaining[1:]
        for k, table in tables:
            if k > len(remaining):
                break
            for subset in itertools.combinations(rest, k - 1):
                points = (head,) + subset
                chosen = set(subset)
                left = tuple(x for x in rest if x not in chosen)
                for pattern in table:
                    cycle = tuple(points[i] for i in pattern)
                    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                        word[a - 1] = b
                    cycles.append(cycle)
                    yield from build(left)
                    cycles.pop()

    yield from build(tuple(range(1, n + 1)))


def iter_cud_direct(n: int) -> Iterator[Permutation]:
    """Second route to CUD_n, built cycle by cycle: see ``iter_cycle_family``."""
    return (p for p, _ in iter_cycle_family(Family.CUD, n))


def distribution(
    family: Family, n: int, stat_names: Sequence[str], cap: int | None = None
) -> DistributionTable:
    """Exact joint distribution of the named statistics.  Cycle families are
    built directly by ``iter_cycle_family``; the others come from
    ``enumerate_family``."""
    _check_cap(family, n, cap)
    if family in perms._CYCLE_FAMILIES:
        vectors = (_stats_of(p, cycles) for p, cycles in iter_cycle_family(family, n))
    else:
        vectors = map(stats, enumerate_family(family, n, cap))
    return _table(family, n, stat_names, ((sv, 1) for sv in vectors))


def _table(
    family: Family, n: int, stat_names: Sequence[str], counted: Iterable[tuple[StatVector, int]]
) -> DistributionTable:
    """The table of the named statistics over (stat vector, count) pairs."""
    rows: dict[tuple[int, ...], int] = {}
    for sv, count in counted:
        key = tuple(getattr(sv, name) for name in stat_names)
        rows[key] = rows.get(key, 0) + count
    return DistributionTable(family, n, tuple(stat_names), rows)


def distribution_csv(table: DistributionTable) -> str:
    """CSV text: statistic columns then the count, rows sorted."""
    lines = [",".join(table.stats + ("count",))]
    for values in sorted(table.rows):
        lines.append(",".join(str(v) for v in values + (table.rows[values],)))
    return "\n".join(lines) + "\n"


# families whose members a verify check visits one by one, not only as counts
_ROW_FAMILIES = (
    Family.UD,
    Family.CUD,
    Family.CUD_EVEN_ONLY,
    Family.CUD_ODD_ONLY,
    Family.UD_LAST_GT_FIRST,
)

# the h_map and ell_map checks visit every permutation of S_n up to this size
_MAP_CHECK_N = 6


@dataclass
class Census:
    """One walk of S_n, in lexicographic order.

    ``stat_counts[family]`` counts the stat vectors of the family's members,
    keyed in order of first appearance.  ``ms_counts`` counts the values of
    ``m_s`` over S_n, one counter per pattern of ``_PATTERNS``.  ``rows``
    keeps the members themselves, in lexicographic order, as (word, stat
    vector, m_s values), only for the families whose checks need them one by
    one; a check that hands a member to a bijection builds its
    ``Permutation`` there.
    """

    n: int
    stat_counts: dict[Family, Counter]
    ms_counts: tuple[Counter, ...]
    rows: dict[Family, list[tuple[tuple[int, ...], StatVector, tuple[int, ...]]]]

    def count(self, family: Family) -> int:
        return sum(self.stat_counts[family].values())

    def distribution(
        self, family: Family, stat_names: Sequence[str]
    ) -> DistributionTable:
        """The table ``distribution(family, n, stat_names)`` gives."""
        return _table(family, self.n, stat_names, self.stat_counts[family].items())

    def words(self, family: Family) -> list[tuple[int, ...]]:
        return [word for word, _, _ in self.rows[family]]


def census(n: int) -> Census:
    """Walk S_n once, over plain words decomposed in place.  A permutation
    is in a cycle family when all its cycles are (the AND of their family
    masks), and in a single-cycle family only with one cycle; its word
    statistics and ``m_s`` values come from ``statistics._scan``."""
    _check_cap(Family.ALL, n, None)
    families = list(perms._WORD_TESTS) + list(perms._CYCLE_FAMILIES)
    bit = {family: 1 << i for i, family in enumerate(families)}
    word_tests = [(bit[family], test) for family, test in perms._WORD_TESTS.items()]
    cycle_tests = [(bit[family], test) for family, (test, _) in perms._CYCLE_FAMILIES.items()]
    all_cycle_bits = sum(flag for flag, _ in cycle_tests)
    single_bits = sum(bit[f] for f, (_, single) in perms._CYCLE_FAMILIES.items() if single)
    row_families = _ROW_FAMILIES + ((Family.ALL,) if n <= _MAP_CHECK_N else ())
    rows: dict[Family, list] = {family: [] for family in row_families}
    row_lists = [(bit[family], rows[family]) for family in row_families]
    row_bits = sum(bit[family] for family in row_families)
    ground = tuple(range(1, n + 1))
    letters = [_letters(pattern, n) for pattern in _PATTERNS]
    st_at = _PATTERNS.index(MinMaxPattern.alternating())

    # a cycle's verdict: the mask of the cycle families admitting it, shifted
    # left once, with its up-down flag in bit 0.  A cycle on n - 1 or n points
    # fixes the whole permutation, so it comes up once and is not kept.
    verdicts: dict[tuple[int, ...], int] = {}
    # how many permutations share each (family mask, stat tuple, m_s values)
    tally: dict[tuple, int] = {}
    # the rows share one object per distinct stat vector and m_s triple
    vectors: dict[tuple[int, ...], StatVector] = {}
    shared: dict = {}
    for word in itertools.permutations(ground):
        mask = all_cycle_bits
        c = c_o = fp = ud = 0
        seen = [False] * (n + 1)
        for a in ground:
            if seen[a]:
                continue
            cycle = [a]
            b = word[a - 1]
            while b != a:
                seen[b] = True
                cycle.append(b)
                b = word[b - 1]
            cycle = tuple(cycle)
            k = len(cycle)
            verdict = verdicts.get(cycle)
            if verdict is None:
                verdict = sum(flag for flag, test in cycle_tests if test(cycle)) << 1
                verdict |= perms.is_up_down_word(cycle)
                if k < n - 1:
                    verdicts[cycle] = verdict
            mask &= verdict >> 1
            ud += verdict & 1
            c += 1
            c_o += k % 2
            fp += k == 1
        if c != 1:
            mask &= ~single_bits
        for flag, test in word_tests:
            if test(word):
                mask |= flag
        lrm, extr, exc, ms = _scan(word, ground, letters)
        sv = (c, c_o, c - c_o, fp, lrm, ms[st_at], extr, exc, ud, c - ud)
        key = (mask, sv, ms)
        tally[key] = tally.get(key, 0) + 1
        if mask & row_bits:
            vector = vectors.get(sv) or vectors.setdefault(sv, StatVector(*sv))
            row = (word, vector, shared.setdefault(ms, ms))
            for flag, members in row_lists:
                if mask & flag:
                    members.append(row)

    # tally keeps first appearances in walk order, and so do the counters
    stat_counts: dict[Family, Counter] = {family: Counter() for family in Family}
    counters = [(bit[family], stat_counts[family]) for family in families]
    ms_counts = tuple(Counter() for _ in _PATTERNS)
    for (mask, sv, ms), count in tally.items():
        vector = vectors.get(sv) or vectors.setdefault(sv, StatVector(*sv))
        for flag, counter in counters:
            if mask & flag:
                counter[vector] += count
        for counter, value in zip(ms_counts, ms):
            counter[value] += count
    return Census(n, stat_counts, ms_counts, rows)


# ---------------------------------------------------------------------------
# the verification suite


class _Report:
    def __init__(self) -> None:
        self.entries: list[dict] = []

    def add(self, check: str, n, expected, actual) -> None:
        self.entries.append(
            {
                "check": check,
                "n": n,
                "expected": _plain(expected),
                "actual": _plain(actual),
                "pass": expected == actual,
            }
        )


def _plain(value):
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


def report_passed(report: list[dict]) -> bool:
    return all(entry["pass"] for entry in report)


def verify_all(n_cap: int = 7, euler_fn=euler_numbers) -> list[dict]:
    """Run every check against the brute-force oracle up to size ``n_cap``
    and return one pass/fail entry per (check, n).

    ``euler_fn`` exists for fault injection in tests; the default is the
    boustrophedon recurrence.
    """
    if n_cap > VERIFY_CAP:
        raise CapExceeded(f"verification cap is {VERIFY_CAP}, got {n_cap}")
    if n_cap < 1:
        raise ValueError("n_cap must be at least 1")
    rep = _Report()
    eul = euler_fn(max(21, 2 * n_cap + 8))
    order = max(20, n_cap + 2)

    # one walk of each S_n feeds every check; the censuses go when this returns
    censuses = [census(n) for n in range(n_cap + 1)]
    _verify_counts(rep, censuses, eul)
    _verify_series_identities(rep, eul, order)
    _verify_specializations(rep, order)
    _verify_distributions(rep, censuses, eul)
    _verify_bijections(rep, censuses)
    _verify_matchings(rep, censuses, eul)
    _verify_expectations(rep, censuses, eul)
    return rep.entries


def _verify_counts(rep: _Report, censuses: list[Census], eul: list[int]) -> None:
    n_cap = len(censuses) - 1
    series_of = {
        seq_id: catalog_series(seq_id, n_cap)
        for seq_id in (
            "gcud",
            "gcud-even-only",
            "gcud-even-cyclic",
            "gcud-odd-only",
            "cud-derangements",
            "exc-def-swap",
            "k-euler-odd",
            "cud",
            "cud-cyclic",
        )
    }
    for n, cen in enumerate(censuses):
        rep.add("ud-count", n, eul[n], cen.count(Family.UD))
        rep.add("downup-count", n, eul[n], cen.count(Family.DOWNUP))
        cud_count = cen.count(Family.CUD)
        rep.add("cud-count", n, eul[n + 1], cud_count)
        rep.add("cud-count-series", n, series_of["cud"].egf_int(n), cud_count)
        rep.add(
            "cud-odd-only-count", n, eul[n], cen.count(Family.CUD_ODD_ONLY)
        )
        if n % 2 == 0:
            rep.add(
                "cud-even-only-count", n, eul[n], cen.count(Family.CUD_EVEN_ONLY)
            )
        if n >= 1:
            rep.add(
                "cud-cyclic-count", n, eul[n - 1], cen.count(Family.CUD_CYCLIC)
            )
            rep.add(
                "cud-derangement-count",
                n,
                series_of["cud-derangements"].egf_int(n),
                cen.count(Family.CUD_DERANGEMENT),
            )
            rep.add(
                "gcud-count", n, series_of["gcud"].egf_int(n), cen.count(Family.GCUD)
            )
            rep.add(
                "gcud-even-only-count",
                n,
                series_of["gcud-even-only"].egf_int(n),
                cen.count(Family.GCUD_EVEN_ONLY),
            )
            rep.add(
                "gcud-odd-only-count",
                n,
                series_of["gcud-odd-only"].egf_int(n),
                cen.count(Family.GCUD_ODD_ONLY),
            )
            # odd generalized up-down cycles have a unique up-down
            # representation, so odd cyclic counts are E_n (EGF tan z)
            rep.add(
                "gcud-cyclic-count",
                n,
                series_of["gcud-even-cyclic"].egf_int(n) + (eul[n] if n % 2 else 0),
                cen.count(Family.GCUD_CYCLIC),
            )
        rep.add(
            "exc-def-swap-count",
            n,
            series_of["exc-def-swap"].egf_int(n),
            cen.count(Family.EXC_DEF_SWAP),
        )
        if n >= 2 and n % 2 == 0:
            k = n // 2
            last_gt_first_count = cen.count(Family.UD_LAST_GT_FIRST)
            rep.add("ud-last-gt-first-count", n, k * eul[n - 1], last_gt_first_count)
            rep.add(
                "ud-last-gt-first-series",
                n,
                series_of["k-euler-odd"].egf_int(n),
                last_gt_first_count,
            )
            rep.add(
                "gcud-even-cyclic-lemma",
                n,
                eul[n] - (k - 1) * eul[n - 1],
                series_of["gcud-even-cyclic"].egf_int(n),
            )
    # up to n = 8: the census filters S_n, while the backtracker and
    # iter_cud_direct build the members directly
    for n, cen in enumerate(censuses[:9]):
        rep.add(
            "ud-dual-generation",
            n,
            cen.words(Family.UD),
            [p.word for p in enumerate_family(Family.UD, n)],
        )
        rep.add(
            "cud-dual-generation",
            n,
            sorted(cen.words(Family.CUD)),
            sorted(p.word for p in iter_cud_direct(n)),
        )


def _verify_series_identities(rep: _Report, eul: list[int], order: int) -> None:
    egf = zigzag_egf_series(order + 2)
    e_prime = egf.differentiate()
    e_second = e_prime.differentiate()
    rep.add(
        "id-exp-int-zigzag",
        order,
        e_prime.truncate(order),
        egf.truncate(order - 1).integrate().exp(),
    )
    rep.add(
        "id-exp-int-tan",
        order,
        sec_series(order),
        tan_series(order - 1).integrate().exp(),
    )
    rep.add(
        "id-exp-int-sec",
        order,
        egf.truncate(order),
        sec_series(order - 1).integrate().exp(),
    )
    rep.add(
        "id-second-derivative",
        order,
        e_second.truncate(order),
        (egf.truncate(order) * e_prime.truncate(order)),
    )
    rep.add(
        "id-derivative-product",
        order,
        e_prime.truncate(order),
        egf.truncate(order) * sec_series(order),
    )
    rep.add(
        "euler-boustrophedon-vs-series",
        order,
        eul[: order + 1],
        [egf.egf_int(n) for n in range(order + 1)],
    )
    rep.add(
        "stirling-row-sums",
        order,
        [factorial(n) for n in range(13)],
        [sum(stirling_c(n, k) for k in range(n + 1)) for n in range(13)],
    )
    for depth in range(1, 11):
        rep.add(
            "cf-convergent",
            depth,
            [eul[2 * m] for m in range(depth + 1)],
            list(secant_cf_convergent(depth, depth).coeffs),
        )


def _verify_specializations(rep: _Report, order: int) -> None:
    order = min(order, 14)  # multivariate series get bulky beyond this
    pairs = [
        ("spec-cud-fp-cycles", "cud-fp-cycles", {"x": 1, "t": 1}, "cud"),
        ("spec-gcud-fp-cycles", "gcud-fp-cycles", {"x": 1, "t": 1}, "gcud"),
        ("spec-ud-st", "ud-st", {"t": 1}, "euler"),
    ]
    for name, marked, assign, plain in pairs:
        rep.add(
            name,
            order,
            catalog_series(plain, order),
            catalog_series(marked, order).substitute(assign).constants(),
        )
    rep.add(
        "spec-cud-odd-even",
        order,
        catalog_series("cud-cycles", order),
        catalog_series("cud-odd-even", order).substitute(
            {"t_o": MPoly.marker("t"), "t_e": MPoly.marker("t")}
        ),
    )
    rep.add(
        "spec-perm-ud-nud",
        order,
        geometric_series(order),
        catalog_series("perm-ud-nud", order).substitute({"v": 1, "w": 1}).constants(),
    )


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


def _verify_distributions(rep: _Report, censuses: list[Census], eul: list[int]) -> None:
    n_cap = len(censuses) - 1
    for name, seq_id, family, stat_names, markers, start in _MARKED_TABLES:
        series = catalog_series(seq_id, n_cap)
        for cen in censuses[start:]:
            rep.add(
                name,
                cen.n,
                series.egf_term(cen.n),
                cen.distribution(family, stat_names).to_poly(markers),
            )
    for cen in censuses[1:]:
        n = cen.n
        stirling_row = {k: stirling_c(n, k) for k in range(1, n + 1) if stirling_c(n, k)}
        for stat in ("st", "lrm", "c"):
            table = cen.distribution(Family.ALL, (stat,))
            rep.add(
                f"dist-{stat}-stirling",
                n,
                stirling_row,
                {k: v for (k,), v in sorted(table.rows.items())},
            )
        for pattern, counts in zip(_PATTERNS, cen.ms_counts):
            rep.add(f"dist-ms-stirling[{pattern}]", n, stirling_row, dict(sorted(counts.items())))
        extr_expected = {
            k: (2**k) * stirling_c(n - 1, k)
            for k in range(1, n)
            if stirling_c(n - 1, k)
        }
        table = cen.distribution(Family.ALL, ("extr",))
        rep.add(
            "dist-extr-stirling",
            n,
            extr_expected,
            {k: v for (k,), v in sorted(table.rows.items()) if k > 0},
        )
        rep.add(
            "dist-extr-zero",
            n,
            0 if n > 1 else 1,
            sum(v for (k,), v in table.rows.items() if k == 0),
        )
    for n, cen in enumerate(censuses):
        cud_stats = [sv for _, sv, _ in cen.rows[Family.CUD]]
        rep.add(
            "exc-parity-relation",
            n,
            [n] * len(cud_stats),
            [sv.c_o + 2 * sv.exc for sv in cud_stats],
        )
        exc_counts: dict[int, int] = {}
        for sv in cud_stats:
            exc_counts[sv.exc] = exc_counts.get(sv.exc, 0) + 1
        poly = exc_polynomial(n)
        rep.add(
            "exc-poly-vs-oracle",
            n,
            {dict(mono).get("t", 0): int(c) for mono, c in poly.items()},
            exc_counts,
        )
        rep.add(
            "exc-poly-total",
            n,
            eul[n + 1],
            int(poly.substitute({"t": 1}).constant_value()),
        )


def _verify_bijections(rep: _Report, censuses: list[Census]) -> None:
    for n, cen in enumerate(censuses):
        ud_rows = [(Permutation._trusted(word), sv) for word, sv, _ in cen.rows[Family.UD]]
        if n % 2 == 0:
            images = []
            ok_stats = True
            for p, sv in ud_rows:
                c = bijections.g_even(p)
                images.append(from_cycles(c).word)
                ok_stats = ok_stats and len(c) == sv.lrm
                ok_stats = ok_stats and bijections.g_even_inverse(c) == p
            rep.add("bij-g-roundtrip", n, True, ok_stats)
            rep.add(
                "bij-g-image",
                n,
                sorted(cen.words(Family.CUD_EVEN_ONLY)),
                sorted(images),
            )
        images = []
        ok = True
        for p, sv in ud_rows:
            c = bijections.f_odd(p)
            images.append(from_cycles(c).word)
            ok = ok and len(c) == sv.st
            ok = ok and bijections.f_odd_inverse(c) == p
        rep.add("bij-f-roundtrip", n, True, ok)
        rep.add(
            "bij-f-image",
            n,
            sorted(cen.words(Family.CUD_ODD_ONLY)),
            sorted(images),
        )
    for n, cen in enumerate(censuses):
        cud_words = sorted(cen.words(Family.CUD))
        phi_images = []
        jbij_images = []
        ok_phi = ok_phi_stats = ok_jbij = ok_jbij_stats = True
        for word, lrm, st, extr in _ud_lrm_st_extr(censuses, n + 1):
            p = Permutation._trusted(word)
            c = bijections.phi(p)
            phi_images.append(from_cycles(c).word)
            c_o = sum(len(cycle) % 2 for cycle in c.cycles)
            c_e = len(c) - c_o
            ok_phi_stats = ok_phi_stats and (
                c_e == lrm - 1 and c_o == st - 1 and c_e + c_o == lrm + st - 2
            )
            ok_phi = ok_phi and bijections.phi_inverse(c) == p
            c2 = bijections.jbij(p)
            jbij_images.append(from_cycles(c2).word)
            ok_jbij_stats = ok_jbij_stats and len(c2) == extr
            ok_jbij = ok_jbij and bijections.jbij_inverse(c2) == p
        rep.add("bij-phi-roundtrip", n, True, ok_phi)
        rep.add("bij-phi-stats", n, True, ok_phi_stats)
        rep.add("bij-phi-image", n, cud_words, sorted(phi_images))
        rep.add("bij-jbij-roundtrip", n, True, ok_jbij)
        rep.add("bij-jbij-stat", n, True, ok_jbij_stats)
        rep.add("bij-jbij-image", n, cud_words, sorted(jbij_images))
    for cen in censuses[1:]:
        ud_stats = [sv for _, sv, _ in cen.rows[Family.UD]]
        rep.add(
            "equidist-extr-vs-lrm-st",
            cen.n,
            sorted(sv.extr for sv in ud_stats),
            sorted(sv.lrm + sv.st - 2 for sv in ud_stats),
        )
    for cen in censuses[2::2]:
        n, k = cen.n, cen.n // 2
        starts_low = [Permutation._trusted(w) for w, _, _ in cen.rows[Family.UD] if w[0] == 1]
        produced = set()
        ok = True
        for p in starts_low:
            for i in range(1, k + 1):
                q = bijections.rotate_ud(p, i)
                ok = ok and is_member(q, Family.UD_LAST_GT_FIRST)
                produced.add(q.word)
        expected = sorted(cen.words(Family.UD_LAST_GT_FIRST))
        rep.add("rotation-bijection", n, expected, sorted(produced))
        rep.add("rotation-count", n, k * len(starts_low), len(produced))
    for cen in censuses[1 : _MAP_CHECK_N + 1]:
        n, s_n = cen.n, cen.rows[Family.ALL]
        for i, pattern in enumerate(_PATTERNS):
            images = [bijections.h_map(Permutation._trusted(w), pattern) for w, _, _ in s_n]
            ok = all(
                len(lr_min_positions(q.word)) == ms[i] for (_, _, ms), q in zip(s_n, images)
            )
            rep.add(f"bij-h-transport[{pattern}]", n, True, ok)
            rep.add(
                f"bij-h-bijective[{pattern}]", n, factorial(n), len({q.word for q in images})
            )
    for cen in censuses[1 : _MAP_CHECK_N + 1]:
        produced = set()
        ok = True
        for word, sv, _ in cen.rows[Family.ALL]:
            p = Permutation._trusted(word)
            k = sv.lrm
            for bits in itertools.product((0, 1), repeat=k):
                q = bijections.ell_map(p, bits)
                produced.add(q.word)
                ok = ok and len(extreme_positions(q.word)) == k
                ok = ok and bijections.ell_inverse(q) == (p, bits)
        rep.add("bij-ell-roundtrip", cen.n, True, ok)
        rep.add("bij-ell-image", cen.n, factorial(cen.n + 1), len(produced))


def _ud_lrm_st_extr(
    censuses: list[Census], n: int
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """(word, lrm, st, extr) for each word of UD_n, read from the census of
    S_n when there is one; past the last census the backtracker builds the
    words, one at a time."""
    if n < len(censuses):
        for word, sv, _ in censuses[n].rows[Family.UD]:
            yield word, sv.lrm, sv.st, sv.extr
        return
    ground = tuple(range(1, n + 1))
    alternating = (_letters(MinMaxPattern.alternating(), n),)
    for word in _alternating_words(ground):
        lrm, extr, _, (st,) = _scan(word, ground, alternating)
        yield word, lrm, st, extr


def _verify_matchings(rep: _Report, censuses: list[Census], eul: list[int]) -> None:
    for cen in censuses[2::2]:
        pairs = set()
        ok = True
        for word, _, _ in cen.rows[Family.CUD_EVEN_ONLY]:
            p = Permutation._trusted(word)
            mp = matchings.to_matching_pair(p)
            pairs.add((mp.red, mp.blue))
            ok = ok and matchings.from_matching_pair(mp) == p
        rep.add("matching-roundtrip", cen.n, True, ok)
        rep.add("matching-count", cen.n, eul[cen.n], len(pairs))


def _verify_expectations(rep: _Report, censuses: list[Census], eul: list[int]) -> None:
    avg = catalog_series("avg-ud-cycles", 12)
    for n in range(1, 13):
        rep.add(
            "expected-ud-series", n, expected_ud_cycles(n), avg.coefficient(n)
        )
        rep.add(
            "r-count-formula",
            n,
            no_ud_fraction_formula(n) * factorial(n),
            no_ud_cycles_count(n),
        )
    for cen in censuses[1:]:
        n, counts = cen.n, cen.stat_counts[Family.ALL]
        total = sum(sv.ud * count for sv, count in counts.items())
        no_ud = sum(count for sv, count in counts.items() if sv.ud == 0)
        rep.add(
            "expected-ud-vs-oracle",
            n,
            expected_ud_cycles(n),
            Fraction(total, factorial(n)),
        )
        rep.add("r-count-oracle", n, no_ud_cycles_count(n), no_ud)
