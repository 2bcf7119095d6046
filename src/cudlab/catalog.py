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
check each other.  A request builds each block its parts share (sec, tan,
cos, sin, 1 - sin z, each cycle EGF) once and drops them on return; a factor
z is a shift and a factor 1/(1 - z) one Horner pass, not a convolution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import factorial, log, sin
from typing import Callable

from .perms import CapExceeded, DomainError, MalformedInput
from .series import (
    MPoly,
    Series,
    cos_series,
    euler_numbers,
    exp_series,
    one_series,
    sin_series,
    z_series,
)

DEFAULT_ORDER_CAP = 24


class _Blocks:
    """The series that the parts of one request at one order share, each
    built on first use and dropped with the request."""

    def __init__(self, order: int):
        self.order = order

    cos = cached_property(lambda self: cos_series(self.order))
    sin = cached_property(lambda self: sin_series(self.order))
    sec = cached_property(lambda self: self.cos.reciprocal())
    tan = cached_property(lambda self: self.sin * self.sec)
    zigzag = cached_property(lambda self: self.sec + self.tan)
    one_minus_sin = cached_property(lambda self: one_series(self.order) - self.sin)
    # the cycle EGFs of CUD, odd and even CUD, and even and all GCUD cycles;
    # an odd GCUD cycle has one up-down rotation, so the odd ones add tan z
    cud_cycles = cached_property(lambda self: -self.one_minus_sin.log())
    odd_cycles = cached_property(lambda self: self.zigzag.log())
    even_cycles = cached_property(lambda self: -self.cos.log())
    gcud_even_cycles = cached_property(
        lambda self: self.sec - one_series(self.order) - self.half_z_tan + self.even_cycles
    )
    gcud_cycles = cached_property(lambda self: self.gcud_even_cycles + self.tan)

    @cached_property
    def half_z_tan(self) -> Series:
        # EGF of the counts k*E_{2k-1} of even up-down words with last > first;
        # z tan z is a shift, with term n equal to n*tan_{n-1}
        doubled = [0] + [n * term for n, term in enumerate(self.tan.terms[:-1], 1)]
        assert all(term % 2 == 0 for term in doubled), "z tan z has an odd EGF term"
        return Series.from_egf(term // 2 for term in doubled)


def _marked_exp(*parts: tuple[MPoly, Series]) -> Series:
    """exp(sum of marker * series): one exp over marker-scaled scalar series."""
    scaled = [ser.lift().scale(marker) for marker, ser in parts]
    return sum(scaled[1:], scaled[0]).exp()


def _over_one_minus_z(ser: Series) -> Series:
    """ser/(1 - z) by Horner's rule, h_n = n*h_{n-1} + f_n."""
    f = ser.terms
    return Series.from_egf(accumulate(range(1, len(f)), lambda h, n: n * h + f[n], initial=f[0]))


def _fp_cycles(cycles: Series) -> Series:
    # exp(t C(z) + (x-1)t z): t marks every cycle and x the fixed points
    t, x = MPoly.marker("t"), MPoly.marker("x")
    return _marked_exp((t, cycles), ((x - 1) * t, z_series(cycles.order)))


def _build_cud_cycles(b: _Blocks) -> Series:
    return _marked_exp((MPoly.marker("t"), b.cud_cycles))


def _build_cud_odd_even(b: _Blocks) -> Series:
    t_o, t_e = MPoly.marker("t_o"), MPoly.marker("t_e")
    return _marked_exp((t_o, b.odd_cycles), (t_e, b.even_cycles))


def _build_ud_lrm(b: _Blocks) -> Series:
    # t times the integral of (sec z)^(t+1), plus (sec z)^t - 1
    t, even = MPoly.marker("t"), b.even_cycles
    integral = _marked_exp((t + 1, even)).integrate().truncate(b.order)
    return integral.scale(t) + _marked_exp((t, even)) - one_series(b.order).lift()


def _build_perm_ud_nud(b: _Blocks) -> Series:
    # every cycle weighted w, and each CUD one v instead
    v, w = MPoly.marker("v"), MPoly.marker("w")
    every = -(one_series(b.order) - z_series(b.order)).log()
    return _marked_exp((w, every), (v - w, b.cud_cycles))


# id -> (builder of the series from the blocks of a request at an order,
# marker names, first n shown by the CLI)
_CATALOG: dict[str, tuple[Callable[[_Blocks], Series], tuple[str, ...], int]] = {
    "euler": (lambda b: b.zigzag, (), 0),
    "cud": (lambda b: b.one_minus_sin.reciprocal(), (), 0),
    "cud-cyclic": (lambda b: b.cud_cycles, (), 1),
    "cud-even-only": (lambda b: b.sec, (), 0),
    "cud-odd-only": (lambda b: b.zigzag, (), 0),
    "exc-def-swap": (lambda b: exp_series(b.order) * b.sec, (), 0),
    "gcud-odd-only": (lambda b: b.tan.exp(), (), 0),
    "k-euler-odd": (lambda b: b.half_z_tan, (), 1),
    "gcud-even-cyclic": (lambda b: b.gcud_even_cycles, (), 1),
    "gcud-even-only": (lambda b: b.gcud_even_cycles.exp(), (), 1),
    "gcud": (lambda b: b.gcud_cycles.exp(), (), 1),
    "cud-derangements": (lambda b: exp_series(b.order, -1) * b.one_minus_sin.reciprocal(), (), 1),
    "cud-fp-cycles": (lambda b: _fp_cycles(b.cud_cycles), ("x", "t"), 0),
    "cud-cycles": (_build_cud_cycles, ("t",), 0),
    "cud-odd-even": (_build_cud_odd_even, ("t_o", "t_e"), 0),
    "ud-st": (lambda b: _marked_exp((MPoly.marker("t"), b.odd_cycles)), ("t",), 0),
    "ud-lrm": (_build_ud_lrm, ("t",), 1),
    "ud-extr": (lambda b: _build_cud_cycles(b).integrate().truncate(b.order), ("t",), 1),
    "gcud-fp-cycles": (lambda b: _fp_cycles(b.gcud_cycles), ("x", "t"), 0),
    "perm-ud-nud": (_build_perm_ud_nud, ("v", "w"), 0),
    "avg-ud-cycles": (lambda b: _over_one_minus_z(b.cud_cycles), (), 1),
    "no-ud-cycles": (lambda b: _over_one_minus_z(b.one_minus_sin), (), 1),
}

SEQUENCE_IDS = tuple(_CATALOG)


def _entry(seq_id: str) -> tuple[Callable[[_Blocks], Series], tuple[str, ...], int]:
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
    return build(_Blocks(n_max))


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
