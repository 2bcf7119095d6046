"""Constructive maps between up-down words and cycle-up-down permutations.

Forward maps and their inverses:

* ``g_even`` cuts an even up-down word at its left-to-right minima; the
  chunks are the cycles of an even-cycled CUD permutation, so the cycle
  count equals the number of LR minima.
* ``f_odd`` peels the reversed prefix ending at the minimum as an odd cycle
  and recurses on the switched remainder; the cycle count equals the length
  of the min-max subsequence.
* ``phi`` glues the two: delete the entry 1 from an up-down word on [n+1],
  shift down, send the prefix through ``g_even`` and the switched suffix
  through ``f_odd``, landing in CUD permutations of [n].
* ``jbij`` repeatedly cuts at the rightmost extreme element (switching first
  when it is a running maximum), so its cycle count equals the number of
  extreme elements.
* ``h_map`` turns the pattern-selected subsequence of any permutation into
  the LR minima of its image, via suffix switches and a final reversal.
* ``ell_map`` pairs a permutation of [n-1] having k LR minima with a k-bit
  word to produce a permutation of [n] with k extreme elements.
* ``rotate_ud`` is the rotation underlying the count of even up-down words
  whose last entry exceeds the first.

All maps recurse over arbitrary ground sets rather than renormalizing
subwords to [m]; that keeps the switch bookkeeping honest.
"""

from __future__ import annotations

from .perms import (
    CycleDecomposition,
    DomainError,
    Permutation,
    is_down_up_word,
    is_up_down_word,
    switched_word,
)
from .statistics import (
    MIN,
    MinMaxPattern,
    extreme_positions,
    lr_min_positions,
    selection_positions,
)

# bit words pair with ell_map/ell_inverse: entry j says whether the j-th
# extreme element is a running minimum (0) or maximum (1)
BitWord = tuple[int, ...]


def _require_up_down(word: tuple[int, ...]) -> None:
    if not is_up_down_word(word):
        raise DomainError(f"word {word} is not up-down")


def _require_natural(p: Permutation, what: str) -> None:
    if not p.is_natural():
        raise DomainError(f"{what} must be a permutation of [n], got ground {p.ground}")


def _canonical(cycles: list[tuple[int, ...]]) -> CycleDecomposition:
    """Cycles built here, each already starting at its minimum, in canonical
    order; the maps' outputs are not validated again."""
    return CycleDecomposition._trusted(tuple(sorted(cycles)))


def g_even(p: Permutation) -> CycleDecomposition:
    """Cut an even-length up-down word before each left-to-right minimum.

    >>> from .perms import format_cycles, parse_permutation
    >>> format_cycles(g_even(parse_permutation("4 7 2 6 1 5 3 8")))
    '(1,5,3,8)(2,6)(4,7)'
    """
    word = p.word
    _require_up_down(word)
    if len(word) % 2 != 0:
        raise DomainError("word must have even length")
    return _canonical(_g_even_cycles(word))


def _g_even_cycles(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The chunks of the word that start at its left-to-right minima; each
    starts at its own minimum."""
    cuts = lr_min_positions(word) + [len(word)]
    return [tuple(word[cuts[i] : cuts[i + 1]]) for i in range(len(cuts) - 1)]


def g_even_inverse(c: CycleDecomposition) -> Permutation:
    """Concatenate the cycles by decreasing first entry."""
    for cyc in c.cycles:
        if len(cyc) % 2 != 0:
            raise DomainError(f"odd cycle {cyc} present")
        if not is_up_down_word(cyc):
            raise DomainError(f"cycle {cyc} is not up-down")
    word = foata_word(c).word
    _require_up_down(word)
    return Permutation._trusted(word)


def f_odd(p: Permutation) -> CycleDecomposition:
    """Peel (w_k, ..., w_1) where w_k is the minimum, switch the rest, repeat.

    >>> from .perms import format_cycles, parse_permutation
    >>> format_cycles(f_odd(parse_permutation("4 7 1 9 3 8 5 6 2")))
    '(1,7,4)(2)(3,8,6,9,5)'
    """
    _require_up_down(p.word)
    return _canonical(_f_odd_cycles(p.word))


def _f_odd_cycles(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The cycles :func:`f_odd` peels from an up-down word.  The minimum of
    an up-down word sits at an even 0-based position, so the switched rest
    is up-down again."""
    cycles = []
    while word:
        k = word.index(min(word))
        cycles.append((word[k],) + tuple(reversed(word[:k])))
        word = switched_word(word[k + 1 :])
    return cycles


def f_odd_inverse(c: CycleDecomposition) -> Permutation:
    """Rebuild the up-down word cycle by cycle, switching the tail each time."""
    for cyc in c.cycles:
        if len(cyc) % 2 != 1:
            raise DomainError(f"even cycle {cyc} present")
        if not is_up_down_word(cyc):
            raise DomainError(f"cycle {cyc} is not up-down")
    word = _f_odd_word(c.cycles)
    _require_up_down(word)
    return Permutation._trusted(word)


def _f_odd_word(cycles: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The word :func:`f_odd_inverse` rebuilds from canonical odd cycles."""
    word: tuple[int, ...] = ()
    for cyc in reversed(cycles):
        word = tuple(reversed(cyc)) + switched_word(word)
    return word


def phi(p: Permutation) -> CycleDecomposition:
    """Up-down permutations of [n+1] -> CUD permutations of [n].

    Even cycles carry the LR minima of the part before the 1, odd cycles the
    min-max structure of the part after it, so the image has lrm(p)-1 even
    and st(p)-1 odd cycles.
    """
    _require_natural(p, "input")
    word = p.word
    _require_up_down(word)
    if not word:
        raise DomainError("input must contain the entry 1")
    # the 1 sits at an even 0-based position, so the prefix is an even
    # up-down word and the switched suffix an up-down word
    k = word.index(1)
    prefix = tuple(x - 1 for x in word[:k])
    suffix = tuple(x - 1 for x in word[k + 1 :])
    return _canonical(_g_even_cycles(prefix) + _f_odd_cycles(switched_word(suffix)))


def phi_inverse(c: CycleDecomposition) -> Permutation:
    """Split the cycles by parity and undo both halves of :func:`phi`."""
    _require_cud(c)
    evens = [cyc for cyc in c.cycles if len(cyc) % 2 == 0]
    odds = [cyc for cyc in c.cycles if len(cyc) % 2 == 1]
    prefix = tuple(x for cyc in reversed(evens) for x in cyc)
    suffix = switched_word(_f_odd_word(odds))
    word = tuple(x + 1 for x in prefix) + (1,) + tuple(x + 1 for x in suffix)
    _require_up_down(word)
    return Permutation._trusted(word)


def _require_cud(c: CycleDecomposition) -> None:
    ground = c.ground
    if ground != tuple(range(1, len(ground) + 1)):
        raise DomainError(f"decomposition must cover [n], got ground {ground}")
    for cyc in c.cycles:
        if not is_up_down_word(cyc):
            raise DomainError(f"cycle {cyc} is not up-down")


def jbij(p: Permutation) -> CycleDecomposition:
    """Cut at the rightmost extreme element until one entry remains.

    If the extreme is a running maximum the word is switched first, making it
    a running minimum; the suffix from it onward becomes the next cycle.  One
    cycle per extreme element, so the image's cycle count is extr(p).

    >>> from .perms import format_cycles, parse_permutation
    >>> format_cycles(jbij(parse_permutation("3 5 1 8 2 7 4 9 6")))
    '(1,4)(2,8,3,6)(5)(7)'
    """
    _require_natural(p, "input")
    word = p.word
    _require_up_down(word)
    if not word:
        raise DomainError("input must be nonempty")
    tau = word
    cycles = []
    while len(tau) > 1:
        j = extreme_positions(tau)[-1]
        if tau[j] > tau[0]:  # running maximum: switch to make it a minimum
            tau = switched_word(tau)
        cycles.append(tau[j:])
        tau = tau[:j]
    if tau[0] != len(word):
        raise DomainError("input is not in the map's domain")
    # each cut starts at a running minimum that no later entry undercuts
    return _canonical(cycles)


def jbij_inverse(c: CycleDecomposition) -> Permutation:
    """Foata word by decreasing first entries, n+1 in front, then repeatedly
    switch the longest alternating prefix until the whole word alternates."""
    _require_cud(c)
    tau = foata_word(c).word
    tau = (len(tau) + 1,) + tau
    prev = 0
    while not (is_up_down_word(tau) or is_down_up_word(tau)):
        k = _alternating_prefix_len(tau)
        if k <= prev:
            raise DomainError("decomposition is not in the map's range")
        prev = k
        tau = switched_word(tau[:k]) + tau[k:]
    if is_up_down_word(tau):
        return Permutation._trusted(tau)
    return Permutation._trusted(switched_word(tau))


def _alternating_prefix_len(word: tuple[int, ...]) -> int:
    if len(word) <= 2:
        return len(word)
    k = 2
    while k < len(word) and (word[k] - word[k - 1]) * (word[k - 1] - word[k - 2]) < 0:
        k += 1
    return k


def foata_word(c: CycleDecomposition, descending: bool = True) -> Permutation:
    """Drop the parentheses after sorting cycles by first entry.

    >>> from .perms import format_permutation, parse_cycles
    >>> format_permutation(foata_word(parse_cycles("(1,4)(2,8,3,6)(5)(7)")))
    '7 5 2 8 3 6 1 4'
    """
    # canonical cycles are listed by increasing first entry
    cycles = reversed(c.cycles) if descending else c.cycles
    return Permutation._trusted(tuple(x for cyc in cycles for x in cyc))


def rotate_ud(p: Permutation, i: int) -> Permutation:
    """The i-th cyclic rotation sigma_{2i-1} ... sigma_{2k} sigma_1 ...
    sigma_{2i-2} of an even up-down word starting at its minimum; the result
    is up-down with last entry above the first."""
    word = p.word
    if len(word) % 2 != 0 or not is_up_down_word(word):
        raise DomainError("input must be an even-length up-down word")
    if not word or word[0] != min(word):
        raise DomainError("input must start with its smallest entry")
    k = len(word) // 2
    if not 1 <= i <= k:
        raise DomainError(f"rotation index must be in 1..{k}")
    cut = 2 * i - 2
    return Permutation._trusted(word[cut:] + word[:cut])


def h_map(p: Permutation, pattern: MinMaxPattern | None = None) -> Permutation:
    """Bijection of permutations sending the pattern-selected subsequence to
    the left-to-right minima: start from the word (or its switch when the
    pattern opens with max), switch the suffix after selection j whenever
    letters j and j+1 differ, and reverse at the end.

    >>> from .perms import format_permutation, parse_permutation
    >>> format_permutation(h_map(parse_permutation("4 8 1 2 7 6 3 5")))
    '5 3 6 2 7 1 8 4'
    """
    pattern = pattern or MinMaxPattern.alternating()
    positions = selection_positions(p.word, pattern)
    tau = p.word if pattern.at(1) == MIN else switched_word(p.word)
    for j in range(1, len(positions)):
        if pattern.at(j) != pattern.at(j + 1):
            cut = positions[j - 1] + 1
            tau = tau[:cut] + switched_word(tau[cut:])
    return Permutation._trusted(tuple(reversed(tau)))


def ell_map(p: Permutation, bits: BitWord) -> Permutation:
    """Prepend n, then switch prefixes so the j-th LR minimum of ``p`` turns
    into the j-th extreme element of the result, a minimum or maximum
    according to ``bits[j-1]``.

    >>> from .perms import format_permutation, parse_permutation
    >>> format_permutation(ell_map(parse_permutation("8 6 7 4 2 5 1 3"), (1, 0, 0, 1, 1)))
    '5 7 2 4 1 8 6 9 3'
    """
    _require_natural(p, "input")
    minima = lr_min_positions(p.word)
    if len(bits) != len(minima):
        raise DomainError(
            f"bit word has length {len(bits)}, expected lrm = {len(minima)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise DomainError("bit word entries must be 0 or 1")
    s = list(bits) + [0]
    tau = [len(p.word) + 1, *p.word]
    for j in range(len(bits), 0, -1):
        if s[j - 1] != s[j]:
            cut = minima[j - 1] + 2  # prefix through position i_j of p
            tau[:cut] = switched_word(tau[:cut])
    return Permutation._trusted(tuple(tau))


def ell_inverse(q: Permutation) -> tuple[Permutation, BitWord]:
    """Recover the (permutation, bit word) pair from its :func:`ell_map`
    image; the first entry after unswitching is necessarily n and is
    dropped."""
    _require_natural(q, "input")
    positions = extreme_positions(q.word)
    if not positions:
        raise DomainError("input has no extreme elements")
    bits = []
    lo = hi = q.word[0]
    for x in q.word[1:]:
        if x < lo:
            bits.append(0)
        elif x > hi:
            bits.append(1)
        lo, hi = min(lo, x), max(hi, x)
    s = bits + [0]
    tau = list(q.word)
    for j in range(len(bits), 0, -1):
        if s[j - 1] != s[j]:
            cut = positions[j - 1] + 1  # the first i_j entries of q
            tau[:cut] = switched_word(tau[:cut])
    if tau[0] != len(q.word):
        raise DomainError("input is not in the map's range")
    return Permutation._trusted(tuple(tau[1:])), tuple(bits)
