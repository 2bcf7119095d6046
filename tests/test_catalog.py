import hashlib
import json
from fractions import Fraction
from itertools import product
from math import factorial, log, sin
from pathlib import Path

import pytest

import cudlab
from cudlab import catalog, oracle, perms
from cudlab.catalog import (
    SEQUENCE_IDS,
    CapExceeded,
    catalog_markers,
    catalog_offset,
    catalog_series,
    exc_polynomial,
    expected_ud_cycles,
    expected_ud_cycles_limit,
    no_ud_cycles_count,
    no_ud_fraction_formula,
    no_ud_fraction_limit,
    secant_cf_convergent,
    sequence_terms,
)
from cudlab.perms import DomainError, Family, MalformedInput
from cudlab.series import (
    MPoly,
    Series,
    cos_series,
    euler_numbers,
    geometric_series,
    one_series,
    sec_series,
    sin_series,
    tan_series,
    z_series,
    zigzag_egf_series,
)
from polyeval import evaluate, evaluate_series

E = euler_numbers(24)

GOLDEN = Path(__file__).parent / "golden"


def _seq_json(seq_id: str, n: int) -> str:
    """The text of ``cudlab seq ID --n N --cap N --format json``, rebuilt from
    ``sequence_terms``."""
    values = sequence_terms(seq_id, n, cap=n)
    if catalog_markers(seq_id):
        values = [poly.monomials() for poly in values]
    payload = {"id": seq_id, "offset": catalog_offset(seq_id), "n_max": n, "values": values}
    return json.dumps(payload, sort_keys=True)


class TestSequences:
    def test_every_entry_matches_golden(self):
        # every entry at order 24 and perm-ud-nud at 28, as the ordinary-
        # coefficient engine printed them; json refuses a Fraction term
        requests = [(seq_id, 24) for seq_id in SEQUENCE_IDS] + [("perm-ud-nud", 28)]
        text = "[\n" + ",\n".join(_seq_json(*r) for r in requests) + "\n]\n"
        assert text == (GOLDEN / "catalog_n24.json").read_text(encoding="ascii")

    def test_gcud(self):
        assert sequence_terms("gcud", 9) == [1, 2, 6, 21, 97, 491, 2989, 19756, 148444]

    def test_gcud_even_only(self):
        assert sequence_terms("gcud-even-only", 9) == [0, 1, 0, 6, 0, 89, 0, 2431, 0]

    def test_gcud_even_cyclic(self):
        assert sequence_terms("gcud-even-cyclic", 9) == [0, 1, 0, 3, 0, 29, 0, 569, 0]

    def test_cud_derangements(self):
        assert sequence_terms("cud-derangements", 9) == [0, 1, 1, 5, 15, 71, 341, 1945, 12135]

    def test_euler(self):
        assert sequence_terms("euler", 7) == [1, 1, 1, 2, 5, 16, 61, 272]

    def test_cud_terms_shift_euler(self):
        ser = catalog_series("cud", 10)
        assert ser.egf_int(3) == 5
        assert [ser.egf_int(n) for n in range(11)] == E[1:12]

    def test_cud_cyclic(self):
        ser = catalog_series("cud-cyclic", 9)
        assert [ser.egf_int(n) for n in range(1, 10)] == E[0:9]

    def test_exc_def_swap_matches_exp_sec(self):
        ser = catalog_series("exc-def-swap", 8)
        assert [ser.egf_int(n) for n in range(5)] == [1, 1, 2, 4, 12]

    def test_k_euler_odd(self):
        ser = catalog_series("k-euler-odd", 8)
        assert [ser.egf_int(2 * k) for k in range(1, 5)] == [1, 4, 48, 1088]
        assert [ser.egf_int(2 * k) for k in range(1, 5)] == [
            k * E[2 * k - 1] for k in range(1, 5)
        ]

    def test_marked_coeffs_are_the_terms_over_n_factorial(self):
        ser = catalog_series("cud-cycles", 6)
        for n in range(7):
            over = {key: Fraction(c, factorial(n)) for key, c in ser.egf_term(n).table.items()}
            assert ser.coeffs[n] == MPoly(("t",), over)

    def test_marked_coeffs_repr(self):
        # each coefficient is a term scaled by a Fraction, so this pins how
        # a scaled term renders: sorted monomials, a coefficient of 1 left out
        assert repr(catalog_series("cud-fp-cycles", 4)) == (
            "Series(coeffs=(MPoly(1), MPoly(t^1*x^1), MPoly(1/2*t^1 + 1/2*t^2*x^2),"
            " MPoly(1/6*t^1 + 1/2*t^2*x^1 + 1/6*t^3*x^3),"
            " MPoly(1/12*t^1 + 1/8*t^2 + 1/6*t^2*x^1 + 1/4*t^3*x^2 + 1/24*t^4*x^4)))"
        )

    @pytest.mark.parametrize("seq_id", [i for i in SEQUENCE_IDS if catalog_markers(i)])
    def test_marked_terms_are_what_the_constructor_builds(self, seq_id):
        # the catalog builds its tables as given: exponent tuples, one
        # exponent per marker, and nonzero int coefficients, which repr
        # alone would not show
        markers = catalog_markers(seq_id)
        for term in catalog_series(seq_id, 12).terms:
            assert term.markers == markers
            assert all(len(key) == len(markers) and min(key) >= 0 for key in term.table)
            assert 0 not in term.table.values()
            assert {type(c) for c in term.table.values()} <= {int}

    def test_unknown_id(self):
        with pytest.raises(MalformedInput):
            sequence_terms("nope", 5)

    def test_order_cap(self):
        with pytest.raises(CapExceeded):
            catalog_series("euler", 30)
        assert catalog_series("euler", 30, cap=40).egf_int(0) == 1

    def test_cap_exceeded_is_the_perms_exception(self):
        # both routes raise the one exception type, defined beside the others
        assert CapExceeded is perms.CapExceeded is cudlab.CapExceeded


# sha256 of repr(catalog_series(id, k).terms), which shows each term's type,
# for every id and every order k = 0..24, keyed by (id, k)
CATALOG_ORDERS = {
    (seq_id, int(k)): digest
    for digest, seq_id, k in map(
        str.split, (GOLDEN / "catalog_orders.sha256").read_text(encoding="ascii").splitlines()
    )
}


class TestSmallOrders:
    @pytest.mark.parametrize("seq_id", SEQUENCE_IDS)
    def test_every_order_matches_golden_digest(self, seq_id):
        for k in range(25):
            digest = hashlib.sha256(repr(catalog_series(seq_id, k).terms).encode("ascii"))
            assert digest.hexdigest() == CATALOG_ORDERS[seq_id, k], f"order {k}"


_KERNELS = ("reciprocal", "__mul__", "exp", "log")


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (kernel name, operand, ...) of each call of a ``Series`` kernel,
    in order."""
    calls = []
    for name in _KERNELS:

        def counted(self, *args, _name=name, _kernel=getattr(Series, name)):
            calls.append((_name, self, *args))
            return _kernel(self, *args)

        monkeypatch.setattr(Series, name, counted)
    return calls


class TestSharedBlocks:
    """What one request at order 24 asks of the series kernels."""

    @pytest.mark.parametrize("seq_id", SEQUENCE_IDS)
    def test_no_kernel_call_repeats(self, kernel_calls, seq_id):
        catalog_series(seq_id, 24)
        assert [call for i, call in enumerate(kernel_calls) if call in kernel_calls[:i]] == []
        inverted = [call[1] for call in kernel_calls if call[0] == "reciprocal"]
        assert inverted.count(cos_series(24)) <= 1

    @pytest.mark.parametrize("seq_id", ["k-euler-odd", "avg-ud-cycles", "no-ud-cycles"])
    def test_z_and_geometric_factors_cost_no_product(self, kernel_calls, seq_id):
        catalog_series(seq_id, 24)
        factors = [z_series(24), geometric_series(24)]
        products = [call[1:] for call in kernel_calls if call[0] == "__mul__"]
        assert not [ser for pair in products for ser in pair if ser in factors]


class TestSpecializations:
    def test_cud_fp_cycles(self):
        marked = catalog_series("cud-fp-cycles", 12)
        assert evaluate_series(marked, {"x": 1, "t": 1}) == catalog_series("cud", 12)

    def test_cud_odd_even(self):
        # term n has degree at most n <= 12 in t, so 13 values of t fix it
        odd_even, cycles = catalog_series("cud-odd-even", 12), catalog_series("cud-cycles", 12)
        for value in range(13):
            collapsed = evaluate_series(odd_even, {"t_o": value, "t_e": value})
            assert collapsed == evaluate_series(cycles, {"t": value})

    def test_gcud_fp_cycles(self):
        marked = catalog_series("gcud-fp-cycles", 12)
        assert evaluate_series(marked, {"x": 1, "t": 1}) == catalog_series("gcud", 12)

    def test_perm_ud_nud(self):
        marked = catalog_series("perm-ud-nud", 12)
        assert evaluate_series(marked, {"v": 1, "w": 1}) == geometric_series(12)

    def test_ud_st(self):
        marked = catalog_series("ud-st", 12)
        assert evaluate_series(marked, {"t": 1}) == zigzag_egf_series(12)


def _gcud_exponent(order: int, tan_weight: int) -> Series:
    """sec z - 1 + (tan_weight - z/2) tan z, in closed form."""
    half_z_tan = Series.from_egf(term // 2 for term in (z_series(order) * tan_series(order)).terms)
    tan = tan_series(order).scale(tan_weight)
    return sec_series(order) - one_series(order) + tan - half_z_tan


def _pow(ser: Series, exponent) -> Series:
    """ser^exponent for a scalar exponent."""
    return ser.log().scale(exponent).exp()


def _closed_form(seq_id: str, order: int, point: dict) -> Series:
    """The closed forms and builders that the exponential formula replaced in
    the catalog, each as it was written there, with a marked entry's markers
    at the values ``point``."""
    t, x = point.get("t"), point.get("x")
    one_minus_sin = one_series(order) - sin_series(order)
    if seq_id == "cud-cyclic":  # the integral of sec z + tan z
        return zigzag_egf_series(order - 1).integrate() if order else Series.from_egf((0,))
    if seq_id == "gcud-even-only":
        return sec_series(order) * _gcud_exponent(order, 0).exp()
    if seq_id == "gcud":
        return sec_series(order) * _gcud_exponent(order, 1).exp()
    if seq_id == "gcud-fp-cycles":
        # (sec z)^t exp(t((x - 1)z + sec z - 1 + (1 - z/2) tan z))
        exponent = z_series(order).scale(x - 1) + _gcud_exponent(order, 1)
        return _pow(sec_series(order), t) * exponent.scale(t).exp()
    if seq_id == "cud-cycles":
        return _pow(one_minus_sin, -t)
    if seq_id == "cud-fp-cycles":  # exp((x-1)t z) (1 - sin z)^(-t)
        fixed = z_series(order).scale((x - 1) * t)
        return (fixed + one_minus_sin.log().scale(-t)).exp()
    if seq_id == "cud-odd-even":  # (sec z + tan z)^(t_o) (sec z)^(t_e)
        odd = zigzag_egf_series(order).log().scale(point["t_o"])
        return (odd + sec_series(order).log().scale(point["t_e"])).exp()
    if seq_id == "ud-st":
        return _pow(zigzag_egf_series(order), t)
    if seq_id == "ud-lrm":
        integral = _pow(sec_series(order), t + 1).integrate().truncate(order)
        return integral.scale(t) + _pow(sec_series(order), t) - one_series(order)
    if seq_id == "ud-extr":
        return _pow(one_minus_sin, -t).integrate().truncate(order)
    if seq_id == "perm-ud-nud":  # (1 - z)^(-w) (1 - sin z)^(w - v)
        v, w = point["v"], point["w"]
        every = (one_series(order) - z_series(order)).log().scale(-w)
        return (every + one_minus_sin.log().scale(w - v)).exp()
    if seq_id == "avg-ud-cycles":
        return -one_minus_sin.log() * geometric_series(order)
    # gcud-even-cyclic: sec z - 1 - (z/2) tan z - ln(cos z)
    half_z_tan = Series.from_egf(term // 2 for term in (z_series(order) * tan_series(order)).terms)
    return sec_series(order) - one_series(order) - half_z_tan - cos_series(order).log()


_REWRITTEN = [
    "cud-cyclic",
    "gcud-even-only",
    "gcud",
    "gcud-fp-cycles",
    "cud-cycles",
    "cud-fp-cycles",
    "cud-odd-even",
    "ud-st",
    "ud-lrm",
    "ud-extr",
    "perm-ud-nud",
    "avg-ud-cycles",
    "gcud-even-cyclic",
]


class TestExponentialFormula:
    """The entries built as exp of marker-weighted cycle EGFs, and the cycle
    EGFs themselves, equal the closed forms and builders they replaced term
    by term at every order: 24 for an unmarked entry, and 16 for one marker
    or 10 for two.  Term n of a marked entry has degree at most n in each
    marker, so its values at the points of {0, ..., order}^markers fix it."""

    @pytest.mark.parametrize("seq_id", _REWRITTEN)
    def test_equals_the_closed_form(self, seq_id):
        markers = catalog_markers(seq_id)
        for order in range((25, 17, 11)[len(markers)]):
            ser = catalog_series(seq_id, order)
            for values in product(range(order + 1), repeat=len(markers)):
                point = dict(zip(markers, values))
                assert evaluate_series(ser, point) == _closed_form(seq_id, order, point), (
                    order,
                    point,
                )


# family -> its counts at n = 0..order
_FAMILY_COUNTS = {
    "cud": lambda order: euler_numbers(order + 1)[1:],
    "gcud": lambda order: list(catalog_series("gcud", order, cap=order).terms),
    "ud": euler_numbers,
    "all": lambda order: [factorial(n) for n in range(order + 1)],
}


class TestPastTheGoldens:
    def test_coefficient_sums_count_the_family(self):
        """Past the order-40 goldens, each marked entry's coefficients at n
        sum to its family's count: every member carries one monomial."""
        for seq_id, order, family in [
            ("cud-fp-cycles", 100, "cud"),
            ("gcud-fp-cycles", 100, "gcud"),
            ("cud-cycles", 100, "cud"),
            ("ud-st", 100, "ud"),
            ("cud-odd-even", 60, "cud"),
            ("perm-ud-nud", 60, "all"),
            ("ud-lrm", 60, "ud"),
            ("ud-extr", 60, "ud"),
        ]:
            ser, counts = catalog_series(seq_id, order, cap=order), _FAMILY_COUNTS[family](order)
            for n in range(catalog_offset(seq_id), order + 1):
                assert sum(ser.egf_term(n).table.values()) == counts[n], (seq_id, n)


class TestBijectiveTheorems:
    """phi and jbij as identities between catalog entries: phi sends st - 1
    on UD_{n+1} to c_o and lrm - 1 to c_e on CUD_n, and jbij sends extr on
    UD_{n+1} to c on CUD_n, so d/dz of each UD entry is a CUD entry."""

    def test_derivatives_of_the_ud_entries(self):
        odd_even = catalog_series("cud-odd-even", 23)
        split = lambda t_o, t_e: evaluate_series(odd_even, {"t_o": t_o, "t_e": t_e})
        st = catalog_series("ud-st", 24).differentiate()
        lrm = catalog_series("ud-lrm", 24).differentiate()
        extr = catalog_series("ud-extr", 24).differentiate()
        # term n of each side has degree at most n + 1 <= 24 in t, so its
        # values at 25 points fix it
        for t in range(25):
            assert evaluate_series(st, {"t": t}) == split(t, 1).scale(t)
            assert evaluate_series(lrm, {"t": t}) == split(1, t).scale(t)
            assert evaluate_series(extr, {"t": t}) == split(t, t)
        assert extr == catalog_series("cud-cycles", 23)


# each cycle family's cycle EGF, as the catalog names it
_CYCLE_EGFS = {
    Family.CUD: lambda order: catalog._Blocks(order).cud_cycles,
    Family.CUD_ODD_ONLY: lambda order: catalog._Blocks(order).odd_cycles,
    Family.CUD_EVEN_ONLY: lambda order: catalog._Blocks(order).even_cycles,
    Family.GCUD: lambda order: catalog._Blocks(order).gcud_cycles,
    Family.GCUD_EVEN_ONLY: lambda order: catalog._Blocks(order).gcud_even_cycles,
    Family.GCUD_ODD_ONLY: tan_series,
    Family.ALL: lambda order: -(one_series(order) - z_series(order)).log(),
}


class TestCycleRoutes:
    """The oracle's counted cycle tables and the catalog's cycle EGFs count
    the same cycles on every k <= 24."""

    @pytest.mark.parametrize("family", list(_CYCLE_EGFS))
    def test_tables_sum_to_the_cycle_egf(self, family):
        tables = oracle._cycle_tables(family, 24, ())
        assert [sum(table.values()) for table in tables] == list(_CYCLE_EGFS[family](24).terms)


class TestEvenCyclicLemma:
    def test_coefficients(self):
        ser = catalog_series("gcud-even-cyclic", 12)
        for k in range(1, 7):
            assert ser.egf_int(2 * k) == E[2 * k] - (k - 1) * E[2 * k - 1]


class TestExcedancePolynomial:
    def test_small(self):
        assert exc_polynomial(0) == MPoly(("t",), {(0,): 1})
        assert exc_polynomial(2) == MPoly(("t",), {(0,): 1, (1,): 1})

    def test_total_is_euler(self):
        for n in range(9):
            total = evaluate(exc_polynomial(n), {"t": 1})
            assert total == E[n + 1]

    def test_closed_form_at_rational_roots(self):
        # [sec(rz)+tan(rz)]^(1/r) / cos(rz) with r = sqrt(t); exact for
        # rational r, so compare coefficients with no tolerance at all
        for r in (Fraction(1, 2), Fraction(2)):
            tval = r * r
            order = 8
            scaled = lambda ser: Series(
                tuple(c * r**k for k, c in enumerate(ser.coeffs))
            )
            closed = scaled(zigzag_egf_series(order)).log().scale(1 / r).exp() * scaled(
                cos_series(order)
            ).reciprocal()
            for n in range(order + 1):
                value = evaluate(exc_polynomial(n), {"t": tval})
                assert closed.egf_term(n) == value


class TestContinuedFraction:
    def test_depth_one(self):
        ser = secant_cf_convergent(1, 6)
        assert list(ser.coeffs) == [1, 1, 1, 1, 1, 1, 1]

    def test_depth_two_hand_expansion(self):
        # (1 - 4z)/(1 - 5z) = 1 + z + 5z^2 + 25z^3 + ...
        ser = secant_cf_convergent(2, 3)
        assert list(ser.coeffs) == [1, 1, 5, 25]

    def test_agreement_through_depth(self):
        for depth in range(1, 11):
            ser = secant_cf_convergent(depth, depth + 1)
            for m in range(depth + 1):
                assert ser.coefficient(m) == E[2 * m]
            if 2 * (depth + 1) < len(E):
                # observed agreement order is exactly the depth
                assert ser.coefficient(depth + 1) != E[2 * (depth + 1)]

    def test_negative_order_refused_as_by_catalog_series(self):
        for refuse in (lambda: secant_cf_convergent(1, -1), lambda: catalog_series("euler", -1)):
            with pytest.raises(DomainError, match="n_max must be nonnegative"):
                refuse()


class TestExpectations:
    def test_partial_sums(self):
        assert expected_ud_cycles(1) == 1
        assert expected_ud_cycles(3) == Fraction(5, 3)

    def test_series_route(self):
        avg = catalog_series("avg-ud-cycles", 12)
        for n in range(1, 13):
            assert avg.coefficient(n) == expected_ud_cycles(n)
        # the Horner sum over the streamed Euler numbers, past the order cap
        assert expected_ud_cycles(120) == catalog_series(
            "avg-ud-cycles", 120, cap=120
        ).coefficient(120)

    def test_limit_values(self):
        assert abs(float(expected_ud_cycles(40)) - 1.841817641) < 1e-9
        assert abs(expected_ud_cycles_limit() - (-log(1 - sin(1)))) == 0
        assert abs(float(expected_ud_cycles(60)) - expected_ud_cycles_limit()) < 1e-12


class TestNoUpDownCycles:
    def test_small_counts(self):
        assert no_ud_cycles_count(1) == 0
        assert no_ud_cycles_count(2) == 0
        assert no_ud_cycles_count(3) == 1

    def test_pairing(self):
        for m in range(1, 7):
            assert Fraction(no_ud_cycles_count(2 * m - 1), factorial(2 * m - 1)) == Fraction(
                no_ud_cycles_count(2 * m), factorial(2 * m)
            )

    def test_formula_matches_series(self):
        for n in range(1, 13):
            assert no_ud_fraction_formula(n) * factorial(n) == no_ud_cycles_count(n)

    def test_limit(self):
        assert abs(float(no_ud_fraction_formula(40)) - 0.1585290152) < 1e-9
        assert abs(no_ud_fraction_limit() - (1 - sin(1))) == 0
