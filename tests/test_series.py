import random
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cudlab import series
from cudlab.perms import DomainError
from cudlab.series import (
    MPoly,
    Series,
    _pascal_row,
    cos_series,
    euler_numbers,
    one_series,
    sec_series,
    sin_series,
    stirling_c,
    tan_series,
    z_series,
    zigzag_egf_series,
)
from polyeval import evaluate

t = MPoly(("t",), {(1,): 1})


# an ordinary-coefficient reference for the EGF engine: each function takes and
# returns lists of coefficients c_0..c_N
def _ref_mul(a, b):
    return [sum((a[i] * b[n - i] for i in range(n + 1)), 0) for n in range(len(a))]


def _ref_reciprocal(b):
    inv0 = 1 / Fraction(b[0])
    out = [inv0]
    for n in range(1, len(b)):
        out.append(-inv0 * sum((b[k] * out[n - k] for k in range(1, n + 1)), 0))
    return out


def _ref_integrate(a):
    return [0 * a[0]] + [a[k] * Fraction(1, k + 1) for k in range(len(a))]


def _ref_differentiate(a):
    return [a[k] * k for k in range(1, len(a))]


def _ref_exp(a):  # n b_n = sum_k k a_k b_{n-k}, from b' = a' b
    out = [1]
    for n in range(1, len(a)):
        out.append(sum((a[k] * k * out[n - k] for k in range(1, n + 1)), 0) * Fraction(1, n))
    return out


def _ref_log(b):  # the integral of b'/b
    if len(b) == 1:
        return [0 * b[0]]
    return _ref_integrate(_ref_mul(_ref_differentiate(b), _ref_reciprocal(b[:-1])))


_scalars = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)


@st.composite
def _operands(draw):
    """Two ordinary-coefficient lists of one length of int or Fraction
    scalars, and a unit for ``reciprocal``'s constant term."""
    n = draw(st.integers(1, 6))
    a, b = (draw(st.lists(_scalars, min_size=n, max_size=n)) for _ in range(2))
    unit = draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
    return a, b, unit


_REFERENCE_OPS = {
    # op name -> (constant term it needs, series op, reference op)
    "mul": (None, lambda a, b: a * b, _ref_mul),
    "reciprocal": ("unit", lambda a, b: a.reciprocal(), lambda a, b: _ref_reciprocal(a)),
    "exp": (0, lambda a, b: a.exp(), lambda a, b: _ref_exp(a)),
    "log": (1, lambda a, b: a.log(), lambda a, b: _ref_log(a)),
    "integrate": (None, lambda a, b: a.integrate(), lambda a, b: _ref_integrate(a)),
    "differentiate": (
        None, lambda a, b: a.differentiate(), lambda a, b: _ref_differentiate(a)
    ),
    "sqrt": (
        1,
        lambda a, b: a.log().scale(Fraction(1, 2)).exp(),
        lambda a, b: _ref_exp([c * Fraction(1, 2) for c in _ref_log(a)]),
    ),
}


class TestMPoly:
    def test_constant_and_markers(self):
        one = MPoly(("t",), {(0,): 1})
        assert one * 0 == MPoly(("t",), {})
        assert (one * Fraction(4, 2)).table == {(0,): 2}
        assert type((one * Fraction(4, 2)).table[(0,)]) is int
        assert (one * Fraction(3, 7)).table == {(0,): Fraction(3, 7)}
        assert (2 * t).markers == ("t",) and (2 * t).table == {(1,): 2}
        # a table is read against its markers: the same table under other
        # markers is another term
        assert MPoly(("x",), {(1,): 1}) != t

    def test_monomial_keys(self):
        poly = MPoly(("x", "t"), {(1, 2): 1, (0, 0): 5})
        assert poly.monomials() == {"t^2*x^1": 1, "1": 5}
        assert str(poly) == "5 + t^2*x^1"
        # the terms print in the order of their (name, exponent) pairs, not
        # of their text
        assert str(MPoly(("t",), {(10,): 1, (2,): 3})) == "3*t^2 + t^10"
        assert str(MPoly(("t",), {})) == "0"

    def test_scalar_product(self):
        p = MPoly(("t", "x"), {(2, 1): 2, (0, 0): Fraction(1, 3), (1, 0): -4})
        assert (p * 3).table == {(0, 0): 1, (1, 0): -12, (2, 1): 6}
        halved = Fraction(1, 2) * p
        assert halved.table == {(0, 0): Fraction(1, 6), (1, 0): -2, (2, 1): 1}
        types = {key: type(c) for key, c in halved.table.items()}
        assert types == {(0, 0): Fraction, (1, 0): int, (2, 1): int}
        assert str(halved) == "1/6 + -2*t^1 + t^2*x^1"
        assert p * 0 == MPoly(("t", "x"), {}) and not p * 0

    def test_no_polynomial_product(self):
        with pytest.raises(TypeError):
            t * t
        with pytest.raises(TypeError):
            t * MPoly(("t",), {(0,): 2})


class TestArithmetic:
    def test_product_of_binomials(self):
        one_plus = Series((Fraction(1), Fraction(1), Fraction(0)))
        one_minus = Series((Fraction(1), Fraction(-1), Fraction(0)))
        assert one_plus * one_minus == Series((Fraction(1), Fraction(0), Fraction(-1)))

    def test_sec_times_cos_is_one(self):
        assert sec_series(10) * cos_series(10) == one_series(10)

    def test_tan_times_cos_is_sin(self):
        assert tan_series(10) * cos_series(10) == sin_series(10)

    def test_order_mismatch_rejected(self):
        with pytest.raises(DomainError):
            one_series(3) + one_series(4)

    def test_terms_outside_the_series_refused(self):
        ser = sec_series(4)
        for n in (-1, -5, 5):
            for read in (ser.egf_term, ser.egf_int, ser.coefficient):
                with pytest.raises(DomainError, match=rf"n={n}\b.*0\.\.4"):
                    read(n)
        assert [ser.egf_term(0), ser.egf_int(4), ser.coefficient(4)] == [1, 5, Fraction(5, 24)]

    def test_no_series_without_terms(self):
        for build in (
            lambda: sec_series(-1),
            lambda: Series.from_egf(()).exp(),
            lambda: Series.from_egf(()).reciprocal(),
            lambda: Series(()),
            lambda: one_series(4).truncate(-1),
        ):
            with pytest.raises(DomainError, match=r"not order -1$"):
                build()
        with pytest.raises(DomainError, match=r"not order -2$"):
            one_series(4).truncate(-2)
        for build in (one_series, z_series, cos_series, tan_series, zigzag_egf_series):
            with pytest.raises(DomainError, match=r"not order -3$"):
                build(-3)


class TestAgainstOrdinaryReference:
    @pytest.mark.parametrize("op", sorted(_REFERENCE_OPS))
    @given(operands=_operands())
    def test_op_matches_reference(self, op, operands):
        a, b, unit = operands
        head, series_op, reference_op = _REFERENCE_OPS[op]
        assume(op != "differentiate" or len(a) > 1)
        if head is not None:
            a[0] = unit if head == "unit" else head
        result = series_op(Series(a), Series(b))
        assert list(result.coeffs) == reference_op(a, b)

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=8))
    def test_integral_inputs_keep_int_terms(self, tail):
        for head in (0, 1):
            a = Series((head, *tail))
            results = [a * a, a.integrate(), a.differentiate()]
            results += [a.exp()] if head == 0 else [a.reciprocal(), a.log()]
            for ser in results:
                assert all(type(term) is int for term in ser.terms)


# the per-term binomial formulas of the convolutions, written out with comb:
# each takes and returns tuples of scalar EGF terms n!*c_n
def _comb_mul(a, b):
    return tuple(sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a)))


def _comb_exp(a):
    out = [1]
    for n in range(1, len(a)):
        out.append(sum(comb(n - 1, k - 1) * a[k] * out[n - k] for k in range(1, n + 1)))
    return tuple(out)


def _comb_log(b):
    out = [0]
    for n in range(1, len(b)):
        terms = (-comb(n - 1, k - 1) * out[k] * b[n - k] for k in range(1, n))
        out.append(sum((b[n], *terms)))
    return tuple(out)


def _comb_reciprocal(b):
    inv0 = 1 / Fraction(b[0])
    inv0 = inv0.numerator if inv0.denominator == 1 else inv0
    out = [inv0]
    for n in range(1, len(b)):
        terms = (-inv0 * comb(n, k) * b[k] * out[n - k] for k in range(1, n + 1))
        out.append(sum(terms))
    return tuple(out)


def _random_poly(rng):
    """c_0 + c_1*t with small random coefficients, the zeros left out."""
    coeffs = {(0,): rng.randint(-3, 3), (1,): rng.randint(-3, 3)}
    return MPoly(("t",), {key: c for key, c in coeffs.items() if c})


_RINGS = {
    # ring name -> a random term of that ring
    "int": lambda rng: rng.randint(-5, 5),
    "Fraction": lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
    "MPoly": _random_poly,
}


def _terms(ring, order, head, seed):
    """EGF terms 0..order of one ring, drawn from a seeded generator; the
    constant term is the scalar ``head`` in that ring, or drawn if None."""
    rng = random.Random(f"{ring}-{order}-{seed}")
    terms = [_RINGS[ring](rng) for _ in range(order + 1)]
    if head is not None:
        terms[0] = MPoly(("t",), {(0,): head} if head else {}) if ring == "MPoly" else head
    return tuple(terms)


def _parity_terms(ring, order, head, seed, parity, zero=None):
    """``_terms`` with every term at an index of the other parity than
    ``parity`` ("even" or "odd") replaced by ``zero``, or by the zero of its
    ring, or unchanged for ``parity`` None."""
    terms = _terms(ring, order, head, seed)
    if parity is None:
        return terms
    keep = ("even", "odd").index(parity)
    return tuple(
        term if k % 2 == keep else term * 0 if zero is None else zero
        for k, term in enumerate(terms)
    )


def _same_terms(got: Series, want: tuple) -> bool:
    """Equal term by term, and int terms where the formula gives ints."""
    return got.terms == want and list(map(type, got.terms)) == list(map(type, want))


# the values of t at which a series of polynomial terms is evaluated
_POINTS = (-2, 1, 3)


def _agrees(kernel, formula, *operands) -> bool:
    """The kernel on the series of scalar ``operands`` gives the formula's
    terms, with their types.  The kernels take no polynomial terms: operands
    of polynomials in t are evaluated at each t in ``_POINTS``, and the
    kernel and the formula run on those scalars."""
    if isinstance(operands[0][0], MPoly):
        at = lambda value: [tuple(evaluate(c, {"t": value}) for c in x) for x in operands]
        return all(_agrees(kernel, formula, *at(value)) for value in _POINTS)
    return _same_terms(kernel(*map(Series.from_egf, operands)), formula(*operands))


class TestPascalRow:
    def test_rows_are_binomials(self):
        for n in range(201):
            assert list(_pascal_row(n)) == [comb(n, k) for k in range(n + 1)]


@pytest.mark.parametrize("order", [0, 1, 2, 25, 40])
@pytest.mark.parametrize("ring", sorted(_RINGS))
class TestConvolutionsAgainstComb:
    def test_mul(self, ring, order):
        a, b = _terms(ring, order, None, 1), _terms(ring, order, None, 2)
        assert _agrees(mul, _comb_mul, a, b)

    def test_exp(self, ring, order):
        assert _agrees(Series.exp, _comb_exp, _terms(ring, order, 0, 1))

    def test_log(self, ring, order):
        assert _agrees(Series.log, _comb_log, _terms(ring, order, 1, 1))

    @pytest.mark.parametrize("unit", [1, -1, 2, Fraction(-1, 3)], ids=str)
    def test_reciprocal(self, ring, order, unit):
        assert _agrees(Series.reciprocal, _comb_reciprocal, _terms(ring, order, unit, 1))

    # even and odd inputs, which the kernels sum over every other index
    @pytest.mark.parametrize(
        "parities",
        [("even", "even"), ("even", "odd"), ("odd", "odd"), ("odd", None), (None, "even")],
        ids=lambda pair: "-".join(map(str, pair)),
    )
    def test_mul_with_parity(self, ring, order, parities):
        a = _parity_terms(ring, order, None, 3, parities[0])
        b = _parity_terms(ring, order, None, 4, parities[1])
        assert _agrees(mul, _comb_mul, a, b)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_exp_with_parity(self, ring, order, parity):
        assert _agrees(Series.exp, _comb_exp, _parity_terms(ring, order, 0, 3, parity))

    def test_log_of_even(self, ring, order):
        assert _agrees(Series.log, _comb_log, _parity_terms(ring, order, 1, 3, "even"))

    @pytest.mark.parametrize("unit", [1, -1, 2, Fraction(-1, 3)], ids=str)
    def test_reciprocal_of_even(self, ring, order, unit):
        b = _parity_terms(ring, order, unit, 3, "even")
        assert _agrees(Series.reciprocal, _comb_reciprocal, b)


@pytest.mark.parametrize("order", [1, 2, 25])
def test_fraction_zeros_among_int_terms(order):
    """Int terms with ``Fraction(0)`` at the other parity's indices: every sum
    such a zero enters is a ``Fraction``, whether the kernel skips it or not."""
    even = _parity_terms("int", order, 1, 5, "even", Fraction(0))
    odd = _parity_terms("int", order, 0, 6, "odd", Fraction(0))
    neither = _terms("int", order, None, 7)
    for a, b in ((even, neither), (neither, odd), (odd, even)):
        assert _same_terms(Series.from_egf(a) * Series.from_egf(b), _comb_mul(a, b))
    assert _same_terms(Series.from_egf(even).reciprocal(), _comb_reciprocal(even))
    assert _same_terms(Series.from_egf(even).log(), _comb_log(even))
    assert _same_terms(Series.from_egf(odd).exp(), _comb_exp(odd))


# the kernel calls at order 24 and their _dot calls, one for each index n >= 1
# that the output's stride reaches: value tests cannot see a skipped term
@pytest.mark.parametrize(
    "call, dots",
    [
        pytest.param(lambda cos, sin, u: cos * cos, 12, id="cos*cos"),
        pytest.param(lambda cos, sin, u: sin * sin, 12, id="sin*sin"),
        pytest.param(lambda cos, sin, u: sin * cos, 12, id="sin*cos"),
        pytest.param(lambda cos, sin, u: u * cos, 24, id="(1-sin)*cos"),
        pytest.param(lambda cos, sin, u: cos.reciprocal(), 12, id="1/cos"),
        pytest.param(lambda cos, sin, u: u.reciprocal(), 24, id="1/(1-sin)"),
        pytest.param(lambda cos, sin, u: sin.exp(), 24, id="exp(sin)"),
        pytest.param(lambda cos, sin, u: cos.log(), 12, id="log(cos)"),
        pytest.param(lambda cos, sin, u: u.log(), 24, id="log(1-sin)"),
    ],
)
def test_one_dot_per_index_the_stride_reaches(monkeypatch, call, dots):
    operands = cos_series(24), sin_series(24), _one_minus_sin(24)
    dot, calls = series._dot, []
    monkeypatch.setattr(series, "_dot", lambda *args: calls.append(1) or dot(*args))
    call(*operands)
    assert len(calls) == dots


class TestCalculus:
    def test_exp_of_zero(self):
        assert Series((Fraction(0),) * 5).exp() == one_series(4)

    def test_exp_int_sec_is_zigzag_egf(self):
        assert sec_series(8).integrate().exp() == zigzag_egf_series(9)

    def test_exp_int_tan_is_sec(self):
        assert tan_series(9).integrate().exp() == sec_series(10)

    def test_second_derivative_identity(self):
        egf = zigzag_egf_series(22)
        d1 = egf.differentiate()
        d2 = d1.differentiate()
        assert d2 == (egf.truncate(20) * d1.truncate(20))

    def test_identity_suite_order_20(self):
        egf = zigzag_egf_series(21)
        assert egf.truncate(19).integrate().exp() == egf.differentiate().truncate(20)
        assert tan_series(19).integrate().exp() == sec_series(20)
        assert sec_series(19).integrate().exp() == egf.truncate(20)
        assert egf.differentiate() == egf.truncate(20) * sec_series(20)

    def test_log_preconditions(self):
        with pytest.raises(DomainError):
            z_series(4).log()
        with pytest.raises(DomainError):
            cos_series(4).exp()  # nonzero constant term
        with pytest.raises(DomainError):
            z_series(4).reciprocal()

    @given(st.lists(st.fractions(max_denominator=6), min_size=0, max_size=6))
    def test_exp_log_roundtrip(self, tail):
        a = Series((Fraction(1), *tail))
        assert a.log().exp() == a

    @given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=6))
    def test_reciprocal_roundtrip(self, tail):
        a = Series((Fraction(1), *tail))
        assert a * a.reciprocal() == one_series(a.order)


def _one_minus_sin(order: int) -> Series:
    return one_series(order) - sin_series(order)


def _pow(ser: Series, exponent) -> Series:
    """ser^exponent for a scalar exponent."""
    return ser.log().scale(exponent).exp()


class TestMarkedPowers:
    """A power with a marker exponent, checked by evaluation: term n is a
    polynomial of degree at most n in each marker, so the scalar powers at
    n + 1 values of each marker fix it."""

    def test_cycle_marked_reciprocal_of_one_minus_sin(self):
        want = MPoly(("t",), {(1,): 1, (2,): 1})
        for value in range(3):
            ser = _pow(_one_minus_sin(4), -value)
            assert ser.egf_term(2) == evaluate(want, {"t": value})

    def test_power_zero_is_one(self):
        assert _pow(_one_minus_sin(5), 0) == one_series(5)

    def test_odd_even_split_at_two(self):
        want = MPoly(("t_o", "t_e"), {(2, 0): 1, (0, 1): 1})
        for point in ({"t_o": a, "t_e": b} for a in range(3) for b in range(3)):
            ser = _pow(zigzag_egf_series(3), point["t_o"]) * _pow(sec_series(3), point["t_e"])
            assert ser.egf_term(2) == evaluate(want, point)

    def test_pow_scalar_matches_integer_power(self):
        base = _one_minus_sin(8)
        assert base.log().scale(Fraction(3)).exp() == base * base * base
        root = base.log().scale(Fraction(1, 2)).exp()
        assert root.log().scale(Fraction(2)).exp() == base

    def test_pow_needs_unit_constant_term(self):
        # a^e is exp(e log a), so log's refusal is the power's
        with pytest.raises(DomainError):
            z_series(4).log()


class TestZigzagNumbers:
    def test_first_values(self):
        assert euler_numbers(7) == [1, 1, 1, 2, 5, 16, 61, 272]

    def test_e8_both_routes(self):
        assert euler_numbers(8)[8] == 1385
        assert zigzag_egf_series(8).egf_int(8) == 1385

    def test_e1(self):
        assert euler_numbers(1)[1] == 1

    def test_series_route_agrees_far(self):
        egf = zigzag_egf_series(20)
        assert euler_numbers(20) == [egf.egf_int(n) for n in range(21)]


class TestStirling:
    def test_row_three(self):
        assert [stirling_c(3, k) for k in (1, 2, 3)] == [2, 3, 1]

    def test_diagonal(self):
        assert all(stirling_c(n, n) == 1 for n in range(9))

    def test_row_sums_are_factorials(self):
        for n in range(9):
            assert sum(stirling_c(n, k) for k in range(n + 1)) == factorial(n)

    def test_out_of_range_is_zero(self):
        assert stirling_c(3, 5) == 0
