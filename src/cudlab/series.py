"""Exact truncated power series over the rationals and over polynomial rings
in named markers.

``Series`` stores ordinary coefficients c_0..c_N of sum c_k z^k with either
``Fraction`` or ``MPoly`` entries; exponential-generating-function terms come
out of :meth:`Series.egf_term`, which multiplies by k!.  Everything is exact:
identities are checked with equality, never with tolerances.

Also here: the boustrophedon recurrence for the zigzag (Euler) numbers and
the recurrence for the signless Stirling numbers of the first kind, both of
which serve as series-independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Mapping, Union

from .perms import DomainError

# a monomial is a sorted tuple of (marker name, positive exponent) pairs
Monomial = tuple[tuple[str, int], ...]

Scalar = Union[int, Fraction]


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[tuple(sorted(mono))] = coeff
        self._terms = clean

    @classmethod
    def constant(cls, value: Scalar) -> "MPoly":
        return cls({(): Fraction(value)})

    @classmethod
    def marker(cls, name: str) -> "MPoly":
        return cls({((name, 1),): Fraction(1)})

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

    def items(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(mono == () for mono in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise DomainError(f"{self} is not constant")
        return self._terms.get((), Fraction(0))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(sorted(mono)), Fraction(0))

    def substitute(self, assign: Mapping[str, Union["MPoly", Scalar]]) -> "MPoly":
        """Replace markers by polynomials or scalars; unmentioned markers stay."""
        values = {name: MPoly._coerce(v) for name, v in assign.items()}
        total = MPoly.zero()
        for mono, coeff in self._terms.items():
            term = MPoly.constant(coeff)
            for name, exp in mono:
                base = values.get(name, MPoly.marker(name))
                term = term * base**exp
            total = total + term
        return total

    def __add__(self, other):
        other = MPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return MPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly({mono: -coeff for mono, coeff in self._terms.items()})

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
        terms: dict[Monomial, Fraction] = {}
        for mono_a, ca in self._terms.items():
            for mono_b, cb in other._terms.items():
                merged = dict(mono_a)
                for name, exp in mono_b:
                    merged[name] = merged.get(name, 0) + exp
                key = tuple(sorted(merged.items()))
                terms[key] = terms.get(key, Fraction(0)) + ca * cb
        return MPoly(terms)

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


def _zero_like(x):
    return MPoly.zero() if isinstance(x, MPoly) else Fraction(0)


def _one_like(x):
    return MPoly.one() if isinstance(x, MPoly) else Fraction(1)


@dataclass(frozen=True)
class Series:
    """Truncated power series: ordinary coefficients c_0..c_N, one ring."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _check_compatible(self, other: "Series") -> None:
        if self.order != other.order:
            raise DomainError(
                f"order mismatch: {self.order} vs {other.order}; truncate first"
            )
        if isinstance(self.coeffs[0], MPoly) != isinstance(other.coeffs[0], MPoly):
            raise DomainError("coefficient ring mismatch; lift first")

    def __add__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Series":
        return Series(tuple(-a for a in self.coeffs))

    def __mul__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        return Series(
            tuple(
                sum((a[i] * b[k - i] for i in range(k + 1)), _zero_like(a[0]))
                for k in range(len(a))
            )
        )

    def __truediv__(self, other: "Series") -> "Series":
        return self * other.reciprocal()

    def scale(self, factor) -> "Series":
        """Multiply every coefficient by a scalar (or, on a lifted series, a
        polynomial)."""
        if isinstance(factor, MPoly) and not isinstance(self.coeffs[0], MPoly):
            raise DomainError("lift the series before scaling by a polynomial")
        return Series(tuple(c * factor for c in self.coeffs))

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise DomainError(f"cannot extend truncation {self.order} to {order}")
        return Series(self.coeffs[: order + 1])

    def lift(self) -> "Series":
        """Coerce rational coefficients into the polynomial ring."""
        if isinstance(self.coeffs[0], MPoly):
            return self
        return Series(tuple(MPoly.constant(c) for c in self.coeffs))

    def constants(self) -> "Series":
        """Inverse of :meth:`lift`; fails on non-constant coefficients."""
        if not isinstance(self.coeffs[0], MPoly):
            return self
        return Series(tuple(c.constant_value() for c in self.coeffs))

    def coefficient(self, n: int):
        return self.coeffs[n]

    def egf_term(self, n: int):
        """n! times the z^n coefficient."""
        return self.coeffs[n] * factorial(n)

    def egf_int(self, n: int) -> int:
        """Integer EGF term; fails if it is not an integer."""
        value = self.egf_term(n)
        if isinstance(value, MPoly):
            value = value.constant_value()
        if value.denominator != 1:
            raise DomainError(f"EGF term {value} at n={n} is not an integer")
        return value.numerator

    def reciprocal(self) -> "Series":
        """Multiplicative inverse; the constant term must be a unit."""
        c0 = self.coeffs[0]
        if isinstance(c0, MPoly):
            if not c0.is_constant() or not c0:
                raise DomainError("constant term must be an invertible constant")
            inv0 = MPoly.constant(1 / c0.constant_value())
        else:
            if c0 == 0:
                raise DomainError("constant term must be nonzero")
            inv0 = 1 / Fraction(c0)
        out = [inv0]
        for n in range(1, len(self.coeffs)):
            acc = _zero_like(c0)
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out.append(-(acc * inv0))
        return Series(tuple(out))

    def differentiate(self) -> "Series":
        """Formal derivative; drops one order of truncation."""
        if self.order < 1:
            raise DomainError("cannot differentiate an order-0 truncation")
        return Series(tuple(self.coeffs[k] * k for k in range(1, len(self.coeffs))))

    def integrate(self) -> "Series":
        """Formal integral with constant term 0; gains one order."""
        return Series(
            (_zero_like(self.coeffs[0]),)
            + tuple(self.coeffs[k] * Fraction(1, k + 1) for k in range(len(self.coeffs)))
        )

    def exp(self) -> "Series":
        """exp of a series with zero constant term."""
        if self.coeffs[0] != _zero_like(self.coeffs[0]):
            raise DomainError("exp needs a zero constant term")
        out = [_one_like(self.coeffs[0])]
        for n in range(1, len(self.coeffs)):
            acc = _zero_like(self.coeffs[0])
            for k in range(1, n + 1):
                acc = acc + (self.coeffs[k] * k) * out[n - k]
            out.append(acc * Fraction(1, n))
        return Series(tuple(out))

    def log(self) -> "Series":
        """log of a series with constant term 1; exp(log(a)) == a."""
        if self.coeffs[0] != _one_like(self.coeffs[0]):
            raise DomainError("log needs constant term 1")
        if self.order == 0:
            return Series((_zero_like(self.coeffs[0]),))
        quotient = self.differentiate() * self.reciprocal().truncate(self.order - 1)
        return quotient.integrate()

    def pow_scalar(self, exponent: Scalar) -> "Series":
        """a^e for a rational e, via exp(e*log(a)); constant term must be 1."""
        return self.log().scale(Fraction(exponent)).exp()

    def pow_marker(self, exponent: MPoly) -> "Series":
        """a^e for a polynomial exponent e; lifts into the polynomial ring."""
        return self.lift().log().scale(exponent).exp()

    def substitute(self, assign: Mapping[str, Union[MPoly, Scalar]]) -> "Series":
        return Series(tuple(c.substitute(assign) for c in self.coeffs))


def one_series(order: int) -> Series:
    return Series((Fraction(1),) + (Fraction(0),) * order)


def z_series(order: int) -> Series:
    coeffs = [Fraction(0)] * (order + 1)
    if order >= 1:
        coeffs[1] = Fraction(1)
    return Series(tuple(coeffs))


def sin_series(order: int) -> Series:
    return Series(
        tuple(
            Fraction((-1) ** ((k - 1) // 2), factorial(k)) if k % 2 else Fraction(0)
            for k in range(order + 1)
        )
    )


def cos_series(order: int) -> Series:
    return Series(
        tuple(
            Fraction((-1) ** (k // 2), factorial(k)) if k % 2 == 0 else Fraction(0)
            for k in range(order + 1)
        )
    )


def sec_series(order: int) -> Series:
    return cos_series(order).reciprocal()


def tan_series(order: int) -> Series:
    return sin_series(order) * sec_series(order)


def zigzag_egf_series(order: int) -> Series:
    """sec z + tan z, whose EGF terms are the zigzag (Euler) numbers."""
    return sec_series(order) + tan_series(order)


def exp_series(order: int, rate: Scalar = 1) -> Series:
    """e^(rate*z)."""
    rate = Fraction(rate)
    return Series(tuple(rate**k / factorial(k) for k in range(order + 1)))


def geometric_series(order: int) -> Series:
    """1/(1-z)."""
    return Series((Fraction(1),) * (order + 1))


def one_minus_sin_series(order: int) -> Series:
    return one_series(order) - sin_series(order)


def euler_numbers(n_max: int) -> list[int]:
    """E_0..E_{n_max} by the boustrophedon (Seidel-Entringer) recurrence.

    >>> euler_numbers(8)
    [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    out = [1]
    row = [1]
    for _ in range(n_max):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
        out.append(row[-1])
    return out


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _stirling_row(n - 1)
    row = [0] * (n + 1)
    for k in range(n + 1):
        row[k] = (prev[k - 1] if k >= 1 else 0) + (n - 1) * (
            prev[k] if k < len(prev) else 0
        )
    return tuple(row)


def stirling_c(n: int, k: int) -> int:
    """Signless Stirling numbers of the first kind; c(n,k) permutations of
    [n] have k cycles.  k > n gives 0.

    >>> [stirling_c(3, k) for k in range(4)]
    [0, 2, 3, 1]
    """
    if n < 0 or k < 0:
        raise DomainError("indices must be nonnegative")
    if k > n:
        return 0
    return _stirling_row(n)[k]
