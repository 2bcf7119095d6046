"""Exact truncated power series over the integers, the rationals and
polynomial rings in named markers.

``Series`` stores the EGF terms n!*[z^n], n = 0..N, as ``int``, ``Fraction``
or ``MPoly`` entries.  A product is then the binomial convolution, ``exp`` the
recurrence of the exponential formula and ``log`` its inverse, and
``integrate`` and ``differentiate`` are index shifts, so the terms stay
integral unless an input brings a ``Fraction``.  :attr:`Series.coeffs` is the
ordinary view.  Everything is exact: identities are checked with equality,
never with tolerances.

Also here: the boustrophedon recurrence for the zigzag (Euler) numbers and
the recurrence for the signless Stirling numbers of the first kind, both of
which serve as series-independent cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from typing import Iterable, Mapping, Union

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
    coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        items = (terms or {}).items()
        self._terms = {tuple(sorted(m)): _norm(c) for m, c in items if c}

    @classmethod
    def _of(cls, terms: dict[Monomial, Scalar]) -> "MPoly":
        """Wrap a dict keyed by sorted monomials, dropping zero coefficients."""
        poly = cls.__new__(cls)
        poly._terms = {mono: _norm(coeff) for mono, coeff in terms.items() if coeff}
        return poly

    @classmethod
    def constant(cls, value: Scalar) -> "MPoly":
        return cls._of({(): value})

    @classmethod
    def marker(cls, name: str) -> "MPoly":
        return cls._of({((name, 1),): 1})

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def one(cls) -> "MPoly":
        return cls.constant(1)

    @staticmethod
    def _coerce(value) -> "MPoly":
        if isinstance(value, MPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MPoly.constant(value)
        return NotImplemented

    def items(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self._terms.items())

    def is_constant(self) -> bool:
        return all(mono == () for mono in self._terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise DomainError(f"{self} is not constant")
        return self._terms.get((), 0)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(tuple(sorted(mono)), 0)

    def substitute(self, assign: Mapping[str, Union["MPoly", Scalar]]) -> "MPoly":
        """Replace markers by polynomials or scalars; unmentioned markers stay.

        Each power of a marker's value is built once, from the power below
        it, and every term is added into one dict.
        """
        values = {name: MPoly._coerce(v) for name, v in assign.items()}
        # powers[name][e] is the value of the marker raised to e
        powers = {name: [MPoly.one()] for name in values}
        acc: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            term: dict[Monomial, Scalar] = {(): coeff}
            for name, exp in mono:
                if name in powers:
                    ladder = powers[name]
                    while len(ladder) <= exp:
                        ladder.append(ladder[-1] * values[name])
                    factor = ladder[exp]._terms
                else:
                    factor = {((name, exp),): 1}
                product: dict[Monomial, Scalar] = {}
                for mono_a, ca in term.items():
                    for mono_b, cb in factor.items():
                        key = _mono_mul(mono_a, mono_b)
                        product[key] = product.get(key, 0) + ca * cb
                term = product
            for key, value in term.items():
                acc[key] = acc.get(key, 0) + value
        return MPoly._of(acc)

    def __add__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return MPoly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._of({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return MPoly._coerce(other) + (-self)

    def __mul__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _poly_dot([(1, self, other)])

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("polynomial powers take nonnegative integer exponents")
        result = MPoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant compares equal to its scalar, so it hashes like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash(tuple(sorted(self._terms.items())))

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


def _poly_dot(triples: Iterable[tuple[Scalar, MPoly, MPoly]]) -> MPoly:
    """sum of w*x*y over (scalar w, polynomial x, polynomial y), added into
    one dict."""
    acc: dict[Monomial, Scalar] = {}
    for w, x, y in triples:
        if not w:
            continue
        for mono_a, ca in x._terms.items():
            ca *= w
            for mono_b, cb in y._terms.items():
                key = _mono_mul(mono_a, mono_b)
                acc[key] = acc.get(key, 0) + ca * cb
    return MPoly._of(acc)


class Series:
    """Truncated power series in one ring, stored as its EGF terms n!*[z^n].

    ``Series(coeffs)`` takes ordinary coefficients c_0..c_N;
    :meth:`from_egf` takes the terms themselves.
    """

    __slots__ = ("terms",)

    def __init__(self, coeffs: Iterable):
        self.terms = tuple(_norm(c * factorial(n)) for n, c in enumerate(coeffs))

    @classmethod
    def from_egf(cls, terms: Iterable) -> "Series":
        ser = cls.__new__(cls)
        ser.terms = tuple(terms)
        return ser

    @property
    def coeffs(self) -> tuple:
        """Ordinary coefficients: each term over n!, with ``Fraction`` values."""
        return tuple(
            MPoly._of({m: Fraction(c, factorial(n)) for m, c in term._terms.items()})
            if isinstance(term, MPoly)
            else Fraction(term, factorial(n))
            for n, term in enumerate(self.terms)
        )

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    @property
    def _marked(self) -> bool:
        return isinstance(self.terms[0], MPoly)

    def _const(self, value: Scalar):
        """A scalar as a term of this series' ring."""
        return MPoly.constant(value) if self._marked else value

    def _dot(self, triples):
        """One term of a convolution: sum of w*x*y over (scalar, term, term)."""
        if self._marked:
            return _poly_dot(triples)
        return sum(w * x * y for w, x, y in triples)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"Series(coeffs={self.coeffs!r})"

    def _check_compatible(self, other: "Series") -> None:
        if self.order != other.order:
            raise DomainError(
                f"order mismatch: {self.order} vs {other.order}; truncate first"
            )
        if self._marked != other._marked:
            raise DomainError("coefficient ring mismatch; lift first")

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
        return Series.from_egf(
            self._dot((comb(n, k), a[k], b[n - k]) for k in range(n + 1))
            for n in range(len(a))
        )

    def __truediv__(self, other: "Series") -> "Series":
        return self * other.reciprocal()

    def scale(self, factor) -> "Series":
        """Multiply every term by a scalar (or, on a lifted series, a
        polynomial)."""
        if isinstance(factor, MPoly) and not self._marked:
            raise DomainError("lift the series before scaling by a polynomial")
        return Series.from_egf(_norm(c * factor) for c in self.terms)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise DomainError(f"cannot extend truncation {self.order} to {order}")
        return Series.from_egf(self.terms[: order + 1])

    def lift(self) -> "Series":
        """Coerce scalar terms into the polynomial ring."""
        if self._marked:
            return self
        return Series.from_egf(MPoly.constant(c) for c in self.terms)

    def constants(self) -> "Series":
        """Inverse of :meth:`lift`; fails on non-constant terms."""
        if not self._marked:
            return self
        return Series.from_egf(c.constant_value() for c in self.terms)

    def coefficient(self, n: int):
        return self.coeffs[n]

    def egf_term(self, n: int):
        """n! times the z^n coefficient."""
        return self.terms[n]

    def egf_int(self, n: int) -> int:
        """Integer EGF term; fails if it is not an integer."""
        value = self.terms[n]
        if isinstance(value, MPoly):
            value = value.constant_value()
        if isinstance(value, Fraction) and value.denominator != 1:
            raise DomainError(f"EGF term {value} at n={n} is not an integer")
        return int(value)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse; the constant term must be a unit:
        c_n = -sum_{k>=1} C(n,k) b_k c_{n-k} / b_0."""
        b = self.terms
        b0 = b[0].constant_value() if self._marked and b[0].is_constant() else b[0]
        if isinstance(b0, MPoly) or not b0:
            raise DomainError("constant term must be a nonzero constant")
        inv0 = _norm(1 / Fraction(b0))
        out = [self._const(inv0)]
        for n in range(1, len(b)):
            terms = ((-inv0 * comb(n, k), b[k], out[n - k]) for k in range(1, n + 1))
            out.append(self._dot(terms))
        return Series.from_egf(out)

    def differentiate(self) -> "Series":
        """Formal derivative; drops one order of truncation."""
        if self.order < 1:
            raise DomainError("cannot differentiate an order-0 truncation")
        return Series.from_egf(self.terms[1:])

    def integrate(self) -> "Series":
        """Formal integral with constant term 0; gains one order."""
        return Series.from_egf((self._const(0),) + self.terms)

    def exp(self) -> "Series":
        """exp of a series with zero constant term:
        b_n = sum_{k>=1} C(n-1,k-1) a_k b_{n-k}."""
        a = self.terms
        if a[0]:
            raise DomainError("exp needs a zero constant term")
        out = [self._const(1)]
        for n in range(1, len(a)):
            terms = ((comb(n - 1, k - 1), a[k], out[n - k]) for k in range(1, n + 1))
            out.append(self._dot(terms))
        return Series.from_egf(out)

    def log(self) -> "Series":
        """log of a series with constant term 1; exp(log(b)) == b."""
        b = self.terms
        if b[0] != 1:
            raise DomainError("log needs constant term 1")
        out = [self._const(0)]
        for n in range(1, len(b)):
            rest = self._dot((comb(n - 1, k - 1), out[k], b[n - k]) for k in range(1, n))
            out.append(b[n] - rest)
        return Series.from_egf(out)

    def pow_scalar(self, exponent: Scalar) -> "Series":
        """a^e for a rational e, via exp(e*log(a)); constant term must be 1."""
        return self.log().scale(Fraction(exponent)).exp()

    def pow_marker(self, exponent: MPoly) -> "Series":
        """a^e for a polynomial exponent e; lifts into the polynomial ring."""
        return self.log().lift().scale(exponent).exp()

    def substitute(self, assign: Mapping[str, Union[MPoly, Scalar]]) -> "Series":
        return Series.from_egf(c.substitute(assign) for c in self.terms)


def one_series(order: int) -> Series:
    return Series.from_egf((1,) + (0,) * order)


def z_series(order: int) -> Series:
    return Series.from_egf(int(k == 1) for k in range(order + 1))


def sin_series(order: int) -> Series:
    return Series.from_egf((0, 1, 0, -1)[k % 4] for k in range(order + 1))


def cos_series(order: int) -> Series:
    return Series.from_egf((1, 0, -1, 0)[k % 4] for k in range(order + 1))


def sec_series(order: int) -> Series:
    return cos_series(order).reciprocal()


def tan_series(order: int) -> Series:
    return sin_series(order) * sec_series(order)


def zigzag_egf_series(order: int) -> Series:
    """sec z + tan z, whose EGF terms are the zigzag (Euler) numbers."""
    return sec_series(order) + tan_series(order)


def exp_series(order: int, rate: Scalar = 1) -> Series:
    """e^(rate*z)."""
    return Series.from_egf(_norm(Fraction(rate) ** k) for k in range(order + 1))


def geometric_series(order: int) -> Series:
    """1/(1-z)."""
    return Series.from_egf(factorial(k) for k in range(order + 1))


def one_minus_sin_series(order: int) -> Series:
    return one_series(order) - sin_series(order)


def euler_numbers(n_max: int) -> list[int]:
    """E_0..E_{n_max} by the boustrophedon (Seidel-Entringer) recurrence.

    >>> euler_numbers(8)
    [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    out, row = [1], [1]
    for _ in range(n_max):
        row = list(accumulate(reversed(row), initial=0))
        out.append(row[-1])
    return out


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
