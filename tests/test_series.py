from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cudlab.perms import DomainError
from cudlab.series import (
    MPoly,
    Series,
    cos_series,
    euler_numbers,
    monomial_key,
    one_minus_sin_series,
    one_series,
    sec_series,
    sin_series,
    stirling_c,
    tan_series,
    z_series,
    zigzag_egf_series,
)

t = MPoly.marker("t")


# an ordinary-coefficient reference for the EGF engine: each function takes and
# returns lists of coefficients c_0..c_N (scalars or polynomials in t)
def _one_like(c):
    return MPoly.one() if isinstance(c, MPoly) else 1


def _ref_mul(a, b):
    return [sum((a[i] * b[n - i] for i in range(n + 1)), 0) for n in range(len(a))]


def _ref_reciprocal(b):
    inv0 = 1 / Fraction(b[0].constant_value() if isinstance(b[0], MPoly) else b[0])
    out = [inv0 * _one_like(b[0])]
    for n in range(1, len(b)):
        out.append(-inv0 * sum((b[k] * out[n - k] for k in range(1, n + 1)), 0))
    return out


def _ref_integrate(a):
    return [0 * a[0]] + [a[k] * Fraction(1, k + 1) for k in range(len(a))]


def _ref_differentiate(a):
    return [a[k] * k for k in range(1, len(a))]


def _ref_exp(a):  # n b_n = sum_k k a_k b_{n-k}, from b' = a' b
    out = [_one_like(a[0])]
    for n in range(1, len(a)):
        out.append(sum((a[k] * k * out[n - k] for k in range(1, n + 1)), 0) * Fraction(1, n))
    return out


def _ref_log(b):  # the integral of b'/b
    if len(b) == 1:
        return [0 * b[0]]
    return _ref_integrate(_ref_mul(_ref_differentiate(b), _ref_reciprocal(b[:-1])))


_scalars = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)
_polys = st.lists(_scalars, min_size=1, max_size=3).map(
    lambda cs: sum((c * t**i for i, c in enumerate(cs)), MPoly.zero())
)


@st.composite
def _operands(draw):
    """Two ordinary-coefficient lists of one length in one ring (int or
    Fraction scalars, or polynomials in t), and a unit of that ring for
    ``reciprocal``'s constant term."""
    ring = draw(st.sampled_from([_scalars, _polys]))
    n = draw(st.integers(1, 6))
    a, b = (draw(st.lists(ring, min_size=n, max_size=n)) for _ in range(2))
    unit = draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
    return a, b, unit * _one_like(a[0])


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
        lambda a, b: a.pow_scalar(Fraction(1, 2)),
        lambda a, b: _ref_exp([c * Fraction(1, 2) for c in _ref_log(a)]),
    ),
}


_MARKERS = ("t", "u", "x")
monomials = st.dictionaries(st.sampled_from(_MARKERS), st.integers(1, 4), max_size=3).map(
    lambda exps: tuple(sorted(exps.items()))
)
coefficients = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))
polys = st.dictionaries(monomials, coefficients, max_size=5).map(MPoly)


def _substitute_by_repeated_products(poly, assign):
    """The definition of ``MPoly.substitute``: each coefficient times each
    marker's value multiplied in once per unit of its exponent."""
    total = MPoly.zero()
    for mono, coeff in poly.items():
        term = MPoly.constant(coeff)
        for name, exp in mono:
            base = MPoly._coerce(assign.get(name, MPoly.marker(name)))
            for _ in range(exp):
                term = term * base
        total = total + term
    return total


class TestMPoly:
    @given(polys, st.dictionaries(st.sampled_from(_MARKERS), st.one_of(coefficients, polys)))
    def test_substitute_is_the_repeated_product(self, poly, assign):
        assert poly.substitute(assign) == _substitute_by_repeated_products(poly, assign)

    def test_constant_and_markers(self):
        assert MPoly.constant(3) + MPoly.constant(-3) == MPoly.zero()
        assert (t + 1) * (t - 1) == t * t - 1
        assert t**3 == t * t * t
        assert (2 * t).coefficient((("t", 1),)) == 2

    def test_substitute(self):
        p = (t + 1) ** 2
        assert p.substitute({"t": 2}).constant_value() == 9
        u = MPoly.marker("u")
        assert p.substitute({"t": u - 1}) == u * u

    def test_monomial_keys(self):
        poly = t * t * MPoly.marker("x") + 5
        keys = [monomial_key(m) for m, _ in poly.items()]
        assert keys == ["1", "t^2*x^1"]

    def test_constant_value_guard(self):
        with pytest.raises(DomainError):
            t.constant_value()

    @pytest.mark.parametrize("value", [0, 1, -4, Fraction(1), Fraction(3, 7)])
    def test_constant_hashes_like_its_value(self, value):
        poly = MPoly.constant(value)
        assert poly == value
        assert hash(poly) == hash(value)
        assert len({poly, value}) == 1


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

    def test_ring_mismatch_rejected(self):
        with pytest.raises(DomainError):
            one_series(3) + one_series(3).lift()


class TestAgainstOrdinaryReference:
    @pytest.mark.parametrize("op", sorted(_REFERENCE_OPS))
    @given(operands=_operands())
    def test_op_matches_reference(self, op, operands):
        a, b, unit = operands
        head, series_op, reference_op = _REFERENCE_OPS[op]
        assume(op != "differentiate" or len(a) > 1)
        if head is not None:
            a[0] = unit if head == "unit" else head * _one_like(a[0])
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
        assert (a / a) == one_series(a.order)


class TestMarkedPowers:
    def test_cycle_marked_reciprocal_of_one_minus_sin(self):
        ser = one_minus_sin_series(4).pow_marker(-t)
        assert ser.egf_term(2) == t + t * t

    def test_power_zero_is_one(self):
        ser = one_minus_sin_series(5).pow_marker(MPoly.zero())
        assert ser == one_series(5).lift()

    def test_odd_even_split_at_two(self):
        t_o, t_e = MPoly.marker("t_o"), MPoly.marker("t_e")
        ser = zigzag_egf_series(3).pow_marker(t_o) * sec_series(3).pow_marker(t_e)
        assert ser.egf_term(2) == t_o * t_o + t_e

    def test_pow_scalar_matches_integer_power(self):
        base = one_minus_sin_series(8)
        assert base.pow_scalar(3) == base * base * base
        assert base.pow_scalar(Fraction(1, 2)).pow_scalar(2) == base

    def test_pow_needs_unit_constant_term(self):
        with pytest.raises(DomainError):
            z_series(4).pow_marker(t)


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
