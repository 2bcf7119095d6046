"""Exact truncated power series over the integers and the rationals, and
the polynomials in named markers that marked series hold as terms.

``Series`` stores the EGF terms n!*[z^n], n = 0..N, as ``int`` or
``Fraction`` entries.  A product is then the binomial convolution, ``exp`` the
recurrence of the exponential formula and ``log`` its inverse, and
``integrate`` and ``differentiate`` are index shifts, so the terms stay
integral unless an input brings a ``Fraction``.  :attr:`Series.coeffs` is the
ordinary view.  Everything is exact: identities are checked with equality,
never with tolerances.  A series of ``MPoly`` terms, as the catalog builds its
marked entries, is a container: it can be read, compared, truncated, shifted
and scaled by a scalar, but the convolution kernels take scalar terms only.
A polynomial is data, with no product but by a scalar.

Each term of a convolution reads one cached row of Pascal's triangle for its
binomial weights and sums with C-level ``map`` calls.  The table keeps
binomial coefficients only, in rows up to the largest order used so far;
no series or result outlives the call that built it.  Each kernel is one
loop over its output's own stride, every other index on an even or odd
series, summing only the products that can be nonzero over stride-2 slices;
each term starts as the zero, of the type, that the full sum gives.

Also here: the boustrophedon recurrence for the zigzag (Euler) numbers and
the recurrence for the signless Stirling numbers of the first kind, both of
which serve as series-independent cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import factorial
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Union

from .perms import DomainError

# a monomial is a sorted tuple of (marker name, positive exponent) pairs
Monomial = tuple[tuple[str, int], ...]

Scalar = Union[int, Fraction]


def _norm(value):
    """An integral ``Fraction`` as an ``int``; anything else unchanged."""
    integral = isinstance(value, Fraction) and value.denominator == 1
    return value.numerator if integral else value


class MPoly:
    """Sparse multivariate polynomial with exact integer or rational
    coefficients: built, compared, printed and scaled by a scalar."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        items = (terms or {}).items()
        self._terms = {tuple(sorted(m)): _norm(c) for m, c in items if c}

    @classmethod
    def constant(cls, value: Scalar) -> "MPoly":
        return cls({(): value})

    def items(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self._terms.items())

    def __mul__(self, other):
        """The polynomial scaled by an ``int`` or ``Fraction``; a polynomial
        has no product with another polynomial."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return MPoly({mono: coeff * other for mono, coeff in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"MPoly({self!s})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.items():
            key = monomial_key(mono)
            if key == "1":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(key)
            else:
                parts.append(f"{coeff}*{key}")
        return " + ".join(parts)


def monomial_key(mono: Monomial) -> str:
    """Canonical text for a monomial: ``1``, ``t^2``, ``t^2*x^1``."""
    if not mono:
        return "1"
    return "*".join(f"{name}^{exp}" for name, exp in sorted(mono))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return a or b
    exps = dict(a)
    for name, exp in b:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))


# row n of Pascal's triangle under key n, for n up to the largest order asked
# for; each key is only ever set to its one row, so concurrent growth is harmless
_PASCAL: dict[int, tuple[int, ...]] = {0: (1,)}


def _pascal_row(n: int) -> tuple[int, ...]:
    """(C(n, 0), ..., C(n, n)), each row built from the row above it."""
    if n not in _PASCAL:
        for m in range(len(_PASCAL), n + 1):
            row = _PASCAL[m - 1]
            _PASCAL[m] = (1, *map(add, row, row[1:]), 1)
    return _PASCAL[n]


def _stride(terms) -> tuple[int, int]:
    """(first, step) of the indices whose terms may be nonzero: (0, 2) for an
    even series, (1, 2) for an odd one and (0, 1) for any other."""
    odd = any(terms[1::2])
    return (0, 1) if odd and any(terms[::2]) else (int(odd), 2)


def _zeros(*rows) -> list:
    """Term n is what a sum over scalar terms 0..n of ``rows`` gives when every
    product vanishes: 0, or ``Fraction(0)`` once a row has had a ``Fraction``."""
    if Fraction not in map(type, chain(*rows)):
        return [0] * len(rows[0])
    products = map(mul, repeat(0), chain.from_iterable(zip(*rows)))
    return list(accumulate(products))[len(rows) - 1 :: len(rows)]


def _dot(weights, xs, ys, zero=0):
    """One term of a convolution: sum of w*x*y over weights and terms taken
    in step, as far as the shortest of the three reaches, from ``zero`` up."""
    return sum(map(mul, map(mul, weights, xs), ys), zero)


def _orders(order: int) -> range:
    """The indices 0..order of a series' terms; a negative order is refused."""
    if order < 0:
        raise DomainError(f"a series has order 0 or more, not order {order}")
    return range(order + 1)


class Series:
    """Truncated power series in one ring, stored as its EGF terms n!*[z^n].

    ``Series(coeffs)`` takes ordinary coefficients c_0..c_N;
    :meth:`from_egf` takes the terms themselves.
    """

    __slots__ = ("terms",)

    def __init__(self, coeffs: Iterable):
        self.terms = tuple(_norm(c * factorial(n)) for n, c in enumerate(coeffs))
        _orders(self.order)

    @classmethod
    def from_egf(cls, terms: Iterable) -> "Series":
        ser = cls.__new__(cls)
        ser.terms = tuple(terms)
        _orders(ser.order)
        return ser

    @property
    def coeffs(self) -> tuple:
        """Ordinary coefficients: each term over n!, with ``Fraction`` values."""
        return tuple(map(self.coefficient, range(len(self.terms))))

    def coefficient(self, n: int):
        """The ordinary z^n coefficient, the term over n!."""
        return self.egf_term(n) * Fraction(1, factorial(n))

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"Series(coeffs={self.coeffs!r})"

    def _check_compatible(self, other: "Series") -> None:
        if self.order != other.order:
            raise DomainError(f"order mismatch: {self.order} vs {other.order}; truncate first")

    def __add__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        return Series.from_egf(a + b for a, b in zip(self.terms, other.terms))

    def __sub__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        return Series.from_egf(a - b for a, b in zip(self.terms, other.terms))

    def __neg__(self) -> "Series":
        return Series.from_egf(-a for a in self.terms)

    def __mul__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        a, b = self.terms, other.terms
        (fa, sa), (fb, sb) = _stride(a), _stride(b)
        if sa == 1:  # a factor with a parity, if either has one, goes first
            a, b, (fa, sa), (fb, sb) = b, a, (fb, sb), (fa, sa)
        out, xs = _zeros(a, b), a[fa::sa]  # sb == 2 only if sa == 2
        out[0] = a[0] * b[0]
        for n in range((fa + fb) % 2 or sb, len(out), sb):  # the output's stride, past 0
            out[n] = _dot(_pascal_row(n)[fa::sa], xs, b[n - fa :: -sa], out[n])
        return Series.from_egf(out)

    def scale(self, factor) -> "Series":
        """Multiply every term by the scalar ``factor``."""
        return Series.from_egf(_norm(c * factor) for c in self.terms)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise DomainError(f"cannot extend truncation {self.order} to {order}")
        _orders(order)  # refuses a negative order
        return Series.from_egf(self.terms[: order + 1])

    def egf_term(self, n: int):
        """n! times the z^n coefficient, for n in 0..order."""
        if not 0 <= n <= self.order:
            raise DomainError(f"no term at n={n}: the series has orders 0..{self.order}")
        return self.terms[n]

    def egf_int(self, n: int) -> int:
        """Integer EGF term; fails if it is not an integer."""
        value = self.egf_term(n)
        if isinstance(value, Fraction) and value.denominator != 1:
            raise DomainError(f"EGF term {value} at n={n} is not an integer")
        return int(value)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse; the constant term must be a unit:
        c_n = -sum_{k>=1} C(n,k) b_k c_{n-k} / b_0."""
        b = self.terms
        if not b[0]:
            raise DomainError("constant term must be nonzero")
        inv0 = _norm(1 / Fraction(b[0]))
        step = _stride(b)[1]  # b0 is nonzero: an even b has an even inverse
        out, xs = _zeros((inv0, *b[1:])), b[step::step]
        out[0] = inv0
        for n in range(step, len(out), step):
            out[n] = -inv0 * _dot(_pascal_row(n)[step::step], xs, out[n - step :: -step], out[n])
        return Series.from_egf(out)

    def differentiate(self) -> "Series":
        """Formal derivative; drops one order of truncation."""
        if self.order < 1:
            raise DomainError("cannot differentiate an order-0 truncation")
        return Series.from_egf(self.terms[1:])

    def integrate(self) -> "Series":
        """Formal integral with constant term 0; gains one order."""
        return Series.from_egf((0,) + self.terms)

    def exp(self) -> "Series":
        """exp of a series with zero constant term:
        b_n = sum_{k>=1} C(n-1,k-1) a_k b_{n-k}."""
        a = self.terms
        if a[0]:
            raise DomainError("exp needs a zero constant term")
        first, step = _stride(a)
        first = first or step  # the least k >= 1 with a_k maybe nonzero
        out, xs = _zeros((0, *a[1:])), a[first::step]
        out[0] = 1
        for n in range(first, len(out), first):  # an even a, with first = 2, has an even exp
            weights = _pascal_row(n - 1)[first - 1 :: step]
            out[n] = _dot(weights, xs, out[n - first :: -step], out[n])
        return Series.from_egf(out)

    def log(self) -> "Series":
        """log of a series with constant term 1; exp(log(b)) == b."""
        b = self.terms
        if b[0] != 1:
            raise DomainError("log needs constant term 1")
        step = _stride(b)[1]  # b0 = 1: an even b has an even log
        out = _zeros((0, *b[1:]))  # term 0 is the int 0 already
        # term n is b_n - sum_{1<=k<n} C(n-1,k-1) out_k b_{n-k}, k in b's stride
        for n in range(step, len(out), step):
            weights = _pascal_row(n - 1)[step - 1 :: step]
            out[n] = b[n] - _dot(weights, out[step:n:step], b[n - step :: -step], out[n])
        return Series.from_egf(out)


def one_series(order: int) -> Series:
    _orders(order)  # refuses a negative order
    return Series.from_egf((1,) + (0,) * order)


def z_series(order: int) -> Series:
    return Series.from_egf(int(k == 1) for k in _orders(order))


def sin_series(order: int) -> Series:
    return Series.from_egf((0, 1, 0, -1)[k % 4] for k in _orders(order))


def cos_series(order: int) -> Series:
    return Series.from_egf((1, 0, -1, 0)[k % 4] for k in _orders(order))


def sec_series(order: int) -> Series:
    return cos_series(order).reciprocal()


def tan_series(order: int) -> Series:
    return sin_series(order) * sec_series(order)


def zigzag_egf_series(order: int) -> Series:
    """sec z + tan z, whose EGF terms are the zigzag (Euler) numbers."""
    return (one_series(order) + sin_series(order)) * sec_series(order)


def exp_series(order: int, rate: Scalar = 1) -> Series:
    """e^(rate*z)."""
    return Series.from_egf(_norm(rate**k) for k in _orders(order))


def geometric_series(order: int) -> Series:
    """1/(1-z)."""
    return Series.from_egf(factorial(k) for k in _orders(order))


def euler_numbers(n_max: int) -> list[int]:
    """E_0..E_{n_max} by the boustrophedon (Seidel-Entringer) recurrence.

    >>> euler_numbers(8)
    [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    return list(_euler_terms(n_max))


def _euler_terms(n_max: int) -> Iterator[int]:
    """E_0, ..., E_{n_max}, each as its boustrophedon row ends.  Each row
    pops the entries of the one before as it sums them, so one row is alive."""
    row = [1]
    yield 1
    for _ in range(n_max):
        row = list(accumulate(map(row.pop, repeat(-1, len(row))), initial=0))
        yield row[-1]


def stirling_c(n: int, k: int) -> int:
    """Signless Stirling numbers of the first kind; c(n,k) permutations of
    [n] have k cycles.  k > n gives 0.

    >>> [stirling_c(3, k) for k in range(4)]
    [0, 2, 3, 1]
    """
    if n < 0 or k < 0:
        raise DomainError("indices must be nonnegative")
    row = [1]  # c(m, j) = c(m-1, j-1) + (m-1) c(m-1, j)
    for m in range(n):
        row = [a + m * b for a, b in zip([0] + row, row + [0])]
    return row[k] if k <= n else 0
