"""Catalog of the exponential generating functions for the alternating-cycle
families and their refinements, plus the secant continued fraction and the
expected-value formulas around up-down cycles.

A family of sets of cycles has EGF exp(C(z)) by the exponential formula, C(z)
the EGF of its admissible cycles, and each C(z) is written once.  A CUD cycle
is its minimum and then a down-up word, so the CUD cycles have -log(1 - sin z),
the odd ones log(sec z + tan z) and the even ones -log(cos z); the GCUD cycles
add sec z - 1 - (z/2) tan z to the even ones, and tan z for the odd.  Every
marked entry is one exp of marker-weighted cycle EGFs.  The unmarked entries
cud, cud-even-only, cud-odd-only, exc-def-swap and cud-derangements keep their
closed forms, cheaper than an exp of a log.  Every entry is built from the
exact series primitives; the brute-force oracle re-derives every coefficient
(and every marked coefficient polynomial) at small sizes, so the two routes
check each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, log, sin
from typing import Callable

from .perms import CapExceeded, DomainError, MalformedInput
from .series import (
    MPoly,
    Series,
    cos_series,
    euler_numbers,
    exp_series,
    geometric_series,
    one_minus_sin_series,
    one_series,
    sec_series,
    tan_series,
    z_series,
    zigzag_egf_series,
)

DEFAULT_ORDER_CAP = 24


def _half_z_tan(order: int) -> Series:
    # EGF of the counts k*E_{2k-1} of even up-down words with last > first
    doubled = (z_series(order) * tan_series(order)).terms
    assert all(term % 2 == 0 for term in doubled), "z tan z has an odd EGF term"
    return Series.from_egf(term // 2 for term in doubled)


def _marked_exp(*parts: tuple[MPoly, Series]) -> Series:
    """exp(sum of marker * series): one exp over marker-scaled scalar series."""
    scaled = [ser.lift().scale(marker) for marker, ser in parts]
    return sum(scaled[1:], scaled[0]).exp()


def _cud_cycles(order: int) -> Series:
    return -one_minus_sin_series(order).log()


def _cud_odd_cycles(order: int) -> Series:
    return zigzag_egf_series(order).log()


def _cud_even_cycles(order: int) -> Series:
    return -cos_series(order).log()


def _gcud_even_cycles(order: int) -> Series:
    return sec_series(order) - one_series(order) - _half_z_tan(order) + _cud_even_cycles(order)


def _gcud_cycles(order: int) -> Series:
    # all GCUD cycles: the even ones, and tan z, as an odd one has one up-down rotation
    return _gcud_even_cycles(order) + tan_series(order)


def _build_cud_derangements(order: int) -> Series:
    return exp_series(order, -1) * one_minus_sin_series(order).reciprocal()


def _fp_cycles(cycles: Series) -> Series:
    # exp(t C(z) + (x-1)t z): t marks every cycle and x the fixed points
    t, x = MPoly.marker("t"), MPoly.marker("x")
    return _marked_exp((t, cycles), ((x - 1) * t, z_series(cycles.order)))


def _build_cud_cycles(order: int) -> Series:
    return _marked_exp((MPoly.marker("t"), _cud_cycles(order)))


def _build_cud_odd_even(order: int) -> Series:
    t_o, t_e = MPoly.marker("t_o"), MPoly.marker("t_e")
    return _marked_exp((t_o, _cud_odd_cycles(order)), (t_e, _cud_even_cycles(order)))


def _build_ud_lrm(order: int) -> Series:
    # t times the integral of (sec z)^(t+1), plus (sec z)^t - 1
    t, even = MPoly.marker("t"), _cud_even_cycles(order)
    integral = _marked_exp((t + 1, even)).integrate().truncate(order)
    return integral.scale(t) + _marked_exp((t, even)) - one_series(order).lift()


def _build_perm_ud_nud(order: int) -> Series:
    # every cycle weighted w, and each CUD one v instead
    v, w = MPoly.marker("v"), MPoly.marker("w")
    every = -(one_series(order) - z_series(order)).log()
    return _marked_exp((w, every), (v - w, _cud_cycles(order)))


def _build_no_ud_cycles(order: int) -> Series:
    return one_minus_sin_series(order) * geometric_series(order)


# id -> (builder of the series truncated at an order, marker names, first n
# shown by the CLI)
_CATALOG: dict[str, tuple[Callable[[int], Series], tuple[str, ...], int]] = {
    "euler": (zigzag_egf_series, (), 0),
    "cud": (lambda order: one_minus_sin_series(order).reciprocal(), (), 0),
    "cud-cyclic": (_cud_cycles, (), 1),
    "cud-even-only": (sec_series, (), 0),
    "cud-odd-only": (zigzag_egf_series, (), 0),
    "exc-def-swap": (lambda order: exp_series(order) * sec_series(order), (), 0),
    "gcud-odd-only": (lambda order: tan_series(order).exp(), (), 0),
    "k-euler-odd": (_half_z_tan, (), 1),
    "gcud-even-cyclic": (_gcud_even_cycles, (), 1),
    "gcud-even-only": (lambda order: _gcud_even_cycles(order).exp(), (), 1),
    "gcud": (lambda order: _gcud_cycles(order).exp(), (), 1),
    "cud-derangements": (_build_cud_derangements, (), 1),
    "cud-fp-cycles": (lambda order: _fp_cycles(_cud_cycles(order)), ("x", "t"), 0),
    "cud-cycles": (_build_cud_cycles, ("t",), 0),
    "cud-odd-even": (_build_cud_odd_even, ("t_o", "t_e"), 0),
    "ud-st": (lambda order: _marked_exp((MPoly.marker("t"), _cud_odd_cycles(order))), ("t",), 0),
    "ud-lrm": (_build_ud_lrm, ("t",), 1),
    "ud-extr": (lambda order: _build_cud_cycles(order).integrate().truncate(order), ("t",), 1),
    "gcud-fp-cycles": (lambda order: _fp_cycles(_gcud_cycles(order)), ("x", "t"), 0),
    "perm-ud-nud": (_build_perm_ud_nud, ("v", "w"), 0),
    "avg-ud-cycles": (lambda order: _cud_cycles(order) * geometric_series(order), (), 1),
    "no-ud-cycles": (_build_no_ud_cycles, (), 1),
}

SEQUENCE_IDS = tuple(_CATALOG)


def _entry(seq_id: str) -> tuple[Callable[[int], Series], tuple[str, ...], int]:
    if seq_id not in _CATALOG:
        known = ", ".join(SEQUENCE_IDS)
        raise MalformedInput(f"unknown sequence id {seq_id!r} (known: {known})")
    return _CATALOG[seq_id]


def catalog_markers(seq_id: str) -> tuple[str, ...]:
    return _entry(seq_id)[1]


def catalog_offset(seq_id: str) -> int:
    return _entry(seq_id)[2]


def catalog_series(seq_id: str, n_max: int, cap: int = DEFAULT_ORDER_CAP) -> Series:
    """The named generating function, truncated at order ``n_max``."""
    build = _entry(seq_id)[0]
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if n_max > cap:
        raise CapExceeded(f"order {n_max} exceeds the cap {cap}")
    return build(n_max)


def sequence_terms(seq_id: str, n_max: int, cap: int = DEFAULT_ORDER_CAP) -> list:
    """EGF terms n!*[z^n] for n = offset..n_max: integers for plain entries,
    polynomials for marked ones."""
    ser = catalog_series(seq_id, n_max, cap)
    markers = catalog_markers(seq_id)
    out = []
    for n in range(catalog_offset(seq_id), n_max + 1):
        out.append(ser.egf_term(n) if markers else ser.egf_int(n))
    return out


def exc_polynomial(n: int) -> MPoly:
    """Excedance distribution over CUD permutations of [n], read off the
    odd/even-cycle polynomial through c_o + 2*exc = n."""
    counts: dict[tuple, int] = {}
    for mono, coeff in catalog_series("cud-odd-even", n).egf_term(n).items():
        c_o = dict(mono).get("t_o", 0)
        if (n - c_o) % 2 != 0:
            raise DomainError(f"odd-cycle count {c_o} breaks parity at n={n}")
        exc = (n - c_o) // 2
        key = (("t", exc),) if exc else ()
        counts[key] = counts.get(key, 0) + coeff
    return MPoly(counts)


def secant_cf_convergent(depth: int, n_max: int) -> Series:
    """Depth-d truncation of 1/(1 - 1^2 z/(1 - 2^2 z/(1 - 3^2 z/...))) as an
    ordinary series; it reproduces E_0, E_2, ..., E_{2d} exactly through z^d
    (observed agreement order: exactly d for every depth checked)."""
    if depth < 1:
        raise DomainError("depth must be at least 1")
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    tail = one_series(n_max)
    for k in range(depth, 0, -1):
        shifted = Series((Fraction(0),) + tail.coeffs[:-1]).scale(k * k)
        tail = (one_series(n_max) - shifted).reciprocal()
    return tail


def expected_ud_cycles(n: int) -> Fraction:
    """Expected number of up-down cycles in a uniform permutation of [n]:
    E_0/1! + E_1/2! + ... + E_{n-1}/n!.  Approaches -ln(1 - sin 1)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    # one integer numerator sum_k E_{k-1} n!/k! over the denominator n!,
    # by Horner's rule: each step multiplies by a small k, not by a big scale
    eul = euler_numbers(n - 1)
    numerator = 0
    for k in range(1, n + 1):
        numerator = numerator * k + eul[k - 1]
    return Fraction(numerator, factorial(n))


def expected_ud_cycles_limit() -> float:
    return -log(1 - sin(1))


def no_ud_fraction_limit() -> float:
    return 1 - sin(1)


def no_ud_cycles_count(n: int, cap: int = DEFAULT_ORDER_CAP) -> int:
    """Number of permutations of [n] without any up-down cycle, by series
    extraction from (1 - sin z)/(1 - z)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return catalog_series("no-ud-cycles", n, cap).egf_int(n)


def no_ud_fraction_formula(n: int) -> Fraction:
    """The same count over n!, as the alternating partial sum
    1/3! - 1/5! + ... +- 1/(2m-1)!  (empty for n <= 2)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    terms = (Fraction((-1) ** j, factorial(2 * j - 1)) for j in range(2, (n + 3) // 2))
    return sum(terms, Fraction(0))
