"""Numbers and properties the benchmark checks cudlab against.

Nothing here imports cudlab: every number is computed by the benchmark's own
code, from the recurrences and formulas the paper proves, so a fault in the
program cannot hide in its own reference values.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


# ---------------------------------------------------------------------------
# Euler numbers, Entringer numbers and the uniform up-down sampler


def _next_entringer_row(row: tuple[int, ...]) -> tuple[int, ...]:
    """From the up-down counts on m values by first rank to those on m+1.

    ``row[j]`` counts the up-down words w1 < w2 > w3 < ... on m given values
    whose first entry is the (j+1)-th smallest; by complement the down-up
    words starting at rank j+1 number ``row[m-1-j]``.  An up-down word on m+1
    values starting at rank j+1 continues with a down-up word on the other m
    values starting at rank j+1 or higher, so the new entry j sums the
    down-up counts from rank j+1 on: the boustrophedon.
    """
    m = len(row)
    new = [0] * (m + 1)
    acc = 0
    for j in range(m - 1, -1, -1):
        acc += row[m - 1 - j]  # down-up words on m values starting at rank j+1
        new[j] = acc
    return tuple(new)


@lru_cache(maxsize=None)
def entringer_row(m: int) -> tuple[int, ...]:
    """Up-down words on m values by the rank of their first entry."""
    return (1,) if m == 1 else _next_entringer_row(entringer_row(m - 1))


def euler(n: int) -> int:
    """E_n, the number of up-down words of length n (E_0 = E_1 = 1)."""
    return 1 if n == 0 else sum(entringer_row(n))


def euler_list(n_max: int) -> list[int]:
    """E_0..E_{n_max}, keeping one Entringer row at a time (for large n)."""
    out, row = [1], (1,)
    for _ in range(n_max):
        out.append(sum(row))
        row = _next_entringer_row(row)
    return out


def random_up_down_word(m: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random up-down permutation of [m].

    Each entry is drawn among the remaining values with probability equal to
    the share of alternating completions that start with it, counted exactly
    by the Entringer rows, so each of the E_m words has probability 1/E_m.
    """
    remaining = list(range(1, m + 1))
    word = []
    up = True  # the word from the next entry on must start with a rise
    lo, hi = 0, m - 1  # ranks the next entry may take among ``remaining``
    while remaining:
        k = len(remaining)
        row = entringer_row(k)
        weights = [row[j] if up else row[k - 1 - j] for j in range(lo, hi + 1)]
        pick = rng.randrange(sum(weights))
        for offset, weight in enumerate(weights):
            if pick < weight:
                break
            pick -= weight
        j = lo + offset
        word.append(remaining.pop(j))
        # after a rise the next entry is larger than this one, after a fall
        # smaller
        lo, hi = (j, len(remaining) - 1) if up else (0, j - 1)
        up = not up
    return tuple(word)


# ---------------------------------------------------------------------------
# permutation statistics and cycle properties, computed independently


def is_up_down(word) -> bool:
    return all(
        (word[i] < word[i + 1]) == (i % 2 == 0) for i in range(len(word) - 1)
    )


def lr_minima(word) -> int:
    count, cur = 0, None
    for x in word:
        if cur is None or x < cur:
            count, cur = count + 1, x
    return count


def min_max_length(word) -> int:
    """Length of the min-max subsequence: the minimum of the word, then the
    maximum of what follows it, then the minimum of what follows that, ...
    up to the last entry."""
    length, start, want_min = 0, 0, True
    while start < len(word):
        seg = word[start:]
        start += seg.index(min(seg) if want_min else max(seg)) + 1
        length += 1
        want_min = not want_min
    return length


def extremes(word) -> int:
    """Entries after the first that are a running minimum or maximum."""
    count = 0
    lo = hi = word[0]
    for x in word[1:]:
        if x < lo or x > hi:
            count += 1
        lo, hi = min(lo, x), max(hi, x)
    return count


def is_cud_decomposition(cycles, n: int) -> bool:
    """True iff the cycles are in canonical shape (each starts at its
    minimum, listed by increasing first entry), partition [n], and each reads
    up-down: a cycle-up-down permutation of [n]."""
    firsts = [cyc[0] for cyc in cycles]
    return (
        sorted(x for cyc in cycles for x in cyc) == list(range(1, n + 1))
        and all(cyc[0] == min(cyc) and is_up_down(cyc) for cyc in cycles)
        and firsts == sorted(firsts)
    )


# ---------------------------------------------------------------------------
# counts of families and distributions


@lru_cache(maxsize=None)
def stirling_row(n: int) -> tuple[int, ...]:
    """Signless Stirling numbers of the first kind c(n, 0..n)."""
    if n == 0:
        return (1,)
    prev = stirling_row(n - 1) + (0,)
    return tuple((prev[k - 1] if k else 0) + (n - 1) * prev[k] for k in range(n + 1))


def stirling_dist(n: int) -> dict[int, int]:
    """k -> permutations of [n] with k cycles (nonzero counts only)."""
    return {k: v for k, v in enumerate(stirling_row(n)) if v}


def extr_dist(n: int) -> dict[int, int]:
    """k -> permutations of [n] with k extreme elements, 2^k c(n-1, k);
    for n >= 2 none has zero."""
    return {k: 2**k * c for k, c in enumerate(stirling_row(n - 1)) if c and k}


def ud_cycles(k: int) -> int:
    """Cycles on k given values that read up-down from their minimum: the
    minimum, then a down-up word on the other k-1 values."""
    return euler(k - 1)


def gen_ud_cycles(k: int) -> int:
    """Cycles on k given values with some rotation reading up-down.  An odd
    one has exactly one such rotation, so there are E_k; for even k the
    paper's lemma gives E_k - (k/2 - 1) E_{k-1}."""
    if k % 2:
        return euler(k)
    return euler(k) - (k // 2 - 1) * euler(k - 1)


def set_of_cycles(n_max: int, width: int, weight) -> list[dict[tuple, int]]:
    """Marked counts of permutations built from admissible cycles.

    ``weight(k)`` maps a monomial (a tuple of ``width`` marker exponents) to
    the number of admissible cycles on k given values carrying it.  Entry n
    of the result maps each monomial to the number of permutations of [n]
    whose cycles' monomials multiply to it: the cycle through 1 takes k-1
    companions among the other n-1 values.
    """
    polys: list[dict[tuple, int]] = [{(0,) * width: 1}]
    for n in range(1, n_max + 1):
        acc: dict[tuple, int] = {}
        for k in range(1, n + 1):
            ways = comb(n - 1, k - 1)
            for mono, count in weight(k).items():
                for mono2, count2 in polys[n - k].items():
                    key = tuple(a + b for a, b in zip(mono, mono2))
                    acc[key] = acc.get(key, 0) + ways * count * count2
        polys.append({mono: c for mono, c in acc.items() if c})
    return polys


def set_of_cycles_counts(n_max: int, allowed) -> list[int]:
    """a_0..a_{n_max}: permutations of [n] whose cycles are all admissible,
    where ``allowed(k)`` counts admissible cycles on k given values."""
    polys = set_of_cycles(n_max, 0, lambda k: {(): allowed(k)})
    return [sum(p.values()) for p in polys]


def exc_def_swap_count(n: int) -> int:
    """Fixed points plus even up-down cycles: the 2k values off the fixed
    points form an even-cycled CUD permutation, counted by E_{2k}."""
    return sum(comb(n, 2 * k) * euler(2 * k) for k in range(n // 2 + 1))


def gcud_fp_dist(n: int) -> dict[int, int]:
    """j -> GCUD permutations of [n] with j fixed points: C(n, j) times the
    fixed-point-free ones on the other n-j values."""
    free = set_of_cycles_counts(n, lambda k: gen_ud_cycles(k) if k > 1 else 0)
    return {j: comb(n, j) * free[n - j] for j in range(n + 1) if free[n - j]}


def cud_by_cycle_kind(n: int, kind) -> dict[int, int]:
    """j -> CUD permutations of [n] with j cycles of the given kind
    (``kind(k)`` tells whether a cycle of length k counts)."""
    polys = set_of_cycles(n, 1, lambda k: {(int(kind(k)),): ud_cycles(k)})
    return {mono[0]: c for mono, c in polys[n].items()}


def ud_cycle_total(n: int) -> int:
    """Up-down cycles summed over all permutations of [n]: a given k-set
    carries E_{k-1} up-down cycles, each in (n-k)! permutations, so the sum
    over k is of C(n, k) E_{k-1} (n-k)! = E_{k-1} n!/k!."""
    eul = euler_list(max(n - 1, 0))
    total, falling = 0, 1  # falling = n!/k!
    for k in range(n, 0, -1):
        total += eul[k - 1] * falling
        falling *= k
    return total


def expected_ud_cycles(n: int) -> Fraction:
    """Expected number of up-down cycles of a uniform permutation of [n]: the
    sum of E_{k-1}/k! for k = 1..n."""
    return Fraction(ud_cycle_total(n), factorial(n))


# ---------------------------------------------------------------------------
# every catalog sequence, rebuilt from cycle counts and the paper's maps


def _plain(allowed):
    return lambda n_max: set_of_cycles_counts(n_max, allowed)


def _marked(markers, weight):
    """Marked polynomials keyed like the CLI's JSON: ``1`` or ``t^2*x^1``
    with markers in name order."""

    def build(n_max):
        return [_keyed(markers, p) for p in set_of_cycles(n_max, len(markers), weight)]

    return build


def _keyed(markers, poly) -> dict[str, int]:
    out = {}
    for mono, count in poly.items():
        parts = sorted(f"{m}^{e}" for m, e in zip(markers, mono) if e)
        out["*".join(parts) or "1"] = count
    return out


def _ud_by_cud(kind, shift):
    """UD_n, n >= 1, by a statistic carried by phi or jbij to a cycle count
    on CUD_{n-1}: the statistic equals that count plus ``shift``."""

    def build(n_max):
        out = [{"1": 1}]
        for n in range(1, n_max + 1):
            dist = cud_by_cycle_kind(n - 1, kind)
            out.append({(f"t^{j + shift}" if j + shift else "1"): c for j, c in dist.items()})
        return out

    return build


def _by_n(term):
    return lambda n_max: [term(n) for n in range(n_max + 1)]


def _ud_weight(k):
    return {(1, 0): ud_cycles(k), (0, 1): factorial(k - 1) - ud_cycles(k)}


SERIES_REFERENCE = {
    # id: n_max -> the values for n = 0..n_max (the CLI starts at an offset)
    "euler": _by_n(euler),
    "cud": _by_n(lambda n: euler(n + 1)),
    "cud-cyclic": _by_n(lambda n: euler(n - 1) if n else 0),
    "cud-even-only": _plain(lambda k: ud_cycles(k) if k % 2 == 0 else 0),
    "cud-odd-only": _plain(lambda k: ud_cycles(k) if k % 2 else 0),
    "exc-def-swap": _by_n(exc_def_swap_count),
    "gcud-odd-only": _plain(lambda k: gen_ud_cycles(k) if k % 2 else 0),
    "k-euler-odd": _by_n(lambda n: n // 2 * euler(n - 1) if n and n % 2 == 0 else 0),
    "gcud-even-cyclic": _by_n(lambda n: gen_ud_cycles(n) if n and n % 2 == 0 else 0),
    "gcud-even-only": _plain(lambda k: gen_ud_cycles(k) if k % 2 == 0 else 0),
    "gcud": _plain(gen_ud_cycles),
    "cud-derangements": _plain(lambda k: ud_cycles(k) if k > 1 else 0),
    # markers (x, t): a fixed point carries x*t, any other cycle t
    "cud-fp-cycles": _marked(
        ("x", "t"), lambda k: {(1, 1): 1} if k == 1 else {(0, 1): ud_cycles(k)}
    ),
    "cud-cycles": _marked(("t",), lambda k: {(1,): ud_cycles(k)}),
    "cud-odd-even": _marked(
        ("t_o", "t_e"), lambda k: {(k % 2, 1 - k % 2): ud_cycles(k)}
    ),
    # phi: st - 1 odd cycles and lrm - 1 even cycles; jbij: extr cycles
    "ud-st": _ud_by_cud(lambda k: k % 2 == 1, 1),
    "ud-lrm": _ud_by_cud(lambda k: k % 2 == 0, 1),
    "ud-extr": _ud_by_cud(lambda k: True, 0),
    "gcud-fp-cycles": _marked(
        ("x", "t"), lambda k: {(1, 1): 1} if k == 1 else {(0, 1): gen_ud_cycles(k)}
    ),
    # markers (v, w): up-down cycles carry v, the other cycles w
    "perm-ud-nud": _marked(("v", "w"), _ud_weight),
    "avg-ud-cycles": _by_n(ud_cycle_total),
    "no-ud-cycles": _plain(lambda k: factorial(k - 1) - ud_cycles(k)),
}
