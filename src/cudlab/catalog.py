"""Catalog of the exponential generating functions for the alternating-cycle
families and their refinements, plus the secant continued fraction and the
expected-value formulas around up-down cycles.

A family of sets of cycles has EGF exp(C(z)) by the exponential formula, C(z)
the EGF of its admissible cycles, and each C(z) is written once.  A CUD cycle
is its minimum and then a down-up word, so the CUD cycles have -log(1 - sin z),
the odd ones log(sec z + tan z) and the even ones -log(cos z); the GCUD cycles
add sec z - 1 - (z/2) tan z to the even ones, and tan z for the odd.  Every
marked entry is exp(m_1*S_1 + m_2*S_2) of integer cycle EGFs S_i, or is built
from one; the m^k coefficient of exp(m*S) is the integer series S^k/k!, so each
is built from tables of those, as columns of EGF terms keyed by the exponent
tuple, in the entry's marker order, that m_1^i*m_2^j gives.  Its terms are
made at the end: term n is the ``MPoly`` whose table, like a joint
distribution of ``oracle``, maps each exponent tuple to its count.
The unmarked entries cud, cud-even-only, cud-odd-only, exc-def-swap and
cud-derangements keep their closed forms, cheaper than an exp of a log.  The
brute-force oracle re-derives every coefficient (and every marked term's
table) at small sizes, so the two routes check each other.  A request
builds each block its parts share (sec, tan, cos, sin, 1 - sin z, each cycle
EGF) once and drops them on return; a factor z is a shift and a factor
1/(1 - z) one Horner pass, not a convolution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import factorial, log, sin
from operator import add, mul
from typing import Callable

from .perms import CapExceeded, DomainError, MalformedInput
from .series import (
    MPoly,
    Series,
    _euler_terms,
    _pascal_row,
    cos_series,
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


def _power_table(ser: Series) -> list[tuple[int, ...]]:
    """The EGF terms of P_k = S^k/k!, the m^k coefficient of exp(m*S), for
    k = 0, 1, ... while P_k is nonzero: S has integer terms and no constant
    term, so P_k = (S*P_{k-1})/k is an exact division."""
    table = [one_series(ser.order).terms]
    while any(product := (ser * Series.from_egf(table[-1])).terms):
        k = len(table)
        assert all(term % k == 0 for term in product), f"S^{k}/{k}! has a term off the integers"
        table.append(tuple(term // k for term in product))
    return table


def _support(terms) -> tuple[int, int]:
    """The indices of the first and the last nonzero term."""
    nonzero = [n for n, term in enumerate(terms) if term]
    return nonzero[0], nonzero[-1]


def _polynomials(columns, markers: tuple[str, ...], order: int) -> Series:
    """The series of order ``order`` whose term n has the coefficient
    terms[n] at each exponent tuple of the (exponents, EGF terms) ``columns``."""
    tables = [{} for _ in range(order + 1)]
    for key, terms in columns:
        for table, coeff in zip(tables, terms):
            if coeff:
                table[key] = coeff
    return Series.from_egf(MPoly(markers, table) for table in tables)


def _marked_exp(*parts: tuple[tuple[int, ...], Series]) -> list:
    """The columns of exp(m_1*S_1 + m_2*S_2) for one or two parts (the
    exponents that a monomial m gives the entry's markers, and an integer
    series S): the m_1^i*m_2^j coefficient of term n is
    sum_m C(n, m)*P_i[m]*Q_j[n - m], P and Q the parts' power tables, summed
    from the first to the last m where neither factor is zero."""
    order = parts[0][1].order
    tables = [
        [(tuple(k * e for e in exps), p) for k, p in enumerate(_power_table(s))]
        for exps, s in parts
    ]
    if len(tables) == 1:
        return tables[0]
    columns, supports = [], [_support(q) for _, q in tables[1]]
    for x, p in tables[0]:
        pl, ph = _support(p)
        for (y, q), (ql, qh) in zip(tables[1], supports):
            terms = [0] * (order + 1)
            for n in range(pl + ql, min(ph + qh, order) + 1):
                lo, hi = max(pl, n - qh), min(ph, n - ql)
                weighted = map(mul, _pascal_row(n)[lo : hi + 1], p[lo : hi + 1])
                terms[n] = sum(map(mul, weighted, reversed(q[n - hi : n - lo + 1])))
            columns.append((tuple(map(add, x, y)), terms))
    return columns


def _over_one_minus_z(ser: Series) -> Series:
    """ser/(1 - z) by Horner's rule, h_n = n*h_{n-1} + f_n."""
    f = ser.terms
    return Series.from_egf(accumulate(range(1, len(f)), lambda h, n: n * h + f[n], initial=f[0]))


def _fp_cycles(cycles: Series) -> list:
    # exp(x t z) exp(t (C(z) - z)): t marks every cycle and x the fixed points
    z = z_series(cycles.order)
    return _marked_exp(((1, 1), z), ((0, 1), cycles - z))


def _build_cud_cycles(b: _Blocks) -> list:
    return _marked_exp(((1,), b.cud_cycles))


def _build_ud_lrm(b: _Blocks) -> list:
    # t times the integral of (sec z)^(t+1), plus (sec z)^t - 1: the t^k term
    # of (sec z)^t is P_k, and of (sec z)^(t+1) sec z * P_k
    table = _power_table(b.even_cycles) + [(0,) * (b.order + 1)]
    return [
        ((k,), map(add, power, (b.sec * Series.from_egf(below)).integrate().terms))
        for k, (below, power) in enumerate(zip(table, table[1:]), 1)
    ]


def _build_perm_ud_nud(b: _Blocks) -> list:
    # every cycle weighted w, and each CUD one v instead
    every = -(one_series(b.order) - z_series(b.order)).log()
    return _marked_exp(((1, 0), b.cud_cycles), ((0, 1), every - b.cud_cycles))


# id -> (builder, from the blocks of a request at an order, of the series or,
# for a marked entry, of its (exponents, EGF terms) columns; marker names;
# first n shown by the CLI)
_CATALOG: dict[str, tuple[Callable[[_Blocks], Series | list], tuple[str, ...], int]] = {
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
    "cud-odd-even": (
        lambda b: _marked_exp(((1, 0), b.odd_cycles), ((0, 1), b.even_cycles)), ("t_o", "t_e"), 0
    ),
    "ud-st": (lambda b: _marked_exp(((1,), b.odd_cycles)), ("t",), 0),
    "ud-lrm": (_build_ud_lrm, ("t",), 1),
    # the integral of (1 - sin z)^(-t), a shift of the cud-cycles terms
    "ud-extr": (
        lambda b: [(key, (0, *terms[:-1])) for key, terms in _build_cud_cycles(b)], ("t",), 1
    ),
    "gcud-fp-cycles": (lambda b: _fp_cycles(b.gcud_cycles), ("x", "t"), 0),
    "perm-ud-nud": (_build_perm_ud_nud, ("v", "w"), 0),
    "avg-ud-cycles": (lambda b: _over_one_minus_z(b.cud_cycles), (), 1),
    "no-ud-cycles": (lambda b: _over_one_minus_z(b.one_minus_sin), (), 1),
}

SEQUENCE_IDS = tuple(_CATALOG)


def _entry(seq_id: str) -> tuple[Callable[[_Blocks], Series | list], tuple[str, ...], int]:
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
    build, markers, _ = _entry(seq_id)
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if n_max > cap:
        raise CapExceeded(f"order {n_max} exceeds the cap {cap}")
    built = build(_Blocks(n_max))
    return _polynomials(built, markers, n_max) if markers else built


def sequence_terms(seq_id: str, n_max: int, cap: int = DEFAULT_ORDER_CAP) -> list:
    """EGF terms n!*[z^n] for n = offset..n_max: integers for plain entries,
    ``MPoly`` tables for marked ones."""
    ser = catalog_series(seq_id, n_max, cap)
    markers = catalog_markers(seq_id)
    out = []
    for n in range(catalog_offset(seq_id), n_max + 1):
        out.append(ser.egf_term(n) if markers else ser.egf_int(n))
    return out


def exc_polynomial(n: int) -> MPoly:
    """Excedance distribution over CUD permutations of [n], read off the
    odd/even-cycle polynomial through c_o + 2*exc = n."""
    counts: dict[tuple[int], int] = {}
    for (c_o, _), coeff in catalog_series("cud-odd-even", n).egf_term(n).table.items():
        if (n - c_o) % 2 != 0:
            raise DomainError(f"odd-cycle count {c_o} breaks parity at n={n}")
        key = ((n - c_o) // 2,)
        counts[key] = counts.get(key, 0) + coeff
    return MPoly(("t",), counts)


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
    numerator = 0
    for k, euler in enumerate(_euler_terms(n - 1), 1):
        numerator = numerator * k + euler
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
