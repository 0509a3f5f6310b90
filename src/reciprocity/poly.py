"""Dense univariate polynomials over any supported coefficient field.

A polynomial keeps its field and, in the private ``_data`` slot, a
little-endian list of the field's raw element data with no trailing zeros.
Every arithmetic method makes one call ``field.kernels.fn(..., field.kernel_arg)``
(see :mod:`reciprocity.fields`), so F_p runs on the F_p kernels and every
other field on the generic ones, through the same code; over an F_q of at
most 256 elements the data are discrete logs, so those loops add and
multiply by table lookups.  Raw data of a field is a function of the field's
signature, so ``==`` compares it directly; ``hash`` and ``sort_key`` read
the field's canonical form.  Only the public surface boxes: the constructor
coerces ints, Fractions and elements, and ``coeffs``, ``coefficient()`` and
``leading_coefficient()`` return :class:`AlgebraElement` values; printing
reads the raw data through the field's ``_str``
(:func:`reciprocity.formatting.split_sign`) and boxes nothing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonUnitError
from .fields import AlgebraElement, BaseField, power
from .formatting import format_terms, power_string, split_sign


def _trim(field, data: list) -> list:
    while data and field._is_zero(data[-1]):
        data.pop()
    return data


def _from_data(field, data: list) -> "Polynomial":
    """A polynomial over field with normalized raw data, taken without copying."""
    out = object.__new__(Polynomial)
    out.field = field
    out._data = data
    return out


class Polynomial:
    __slots__ = ("field", "_data")

    def __init__(self, field: BaseField, coeffs):
        data = [
            c.data if isinstance(c, AlgebraElement) and c.ring is field else field.coerce(c).data
            for c in coeffs
        ]
        self.field = field
        self._data = _trim(field, data)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[AlgebraElement, ...]:
        f = self.field
        return tuple(AlgebraElement(f, c) for c in self._data)

    @property
    def degree(self) -> int:
        return len(self._data) - 1

    def is_zero(self) -> bool:
        return not self._data

    def is_constant(self) -> bool:
        return len(self._data) <= 1

    def coefficient(self, i: int) -> AlgebraElement:
        if 0 <= i < len(self._data):
            return AlgebraElement(self.field, self._data[i])
        return self.field.zero()

    def leading_coefficient(self) -> AlgebraElement:
        return self.coefficient(len(self._data) - 1)

    # -- arithmetic ----------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, AlgebraElement)):
            return Polynomial(self.field, [other])
        return None

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        f = self.field
        return _from_data(f, f.kernels.add(self._data, other._data, f.kernel_arg))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        f = self.field
        return _from_data(f, f.kernels.sub(self._data, other._data, f.kernel_arg))

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        f = self.field
        return _from_data(f, f.kernels.sub([], self._data, f.kernel_arg))

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        f = self.field
        return _from_data(f, f.kernels.mul(self._data, other._data, f.kernel_arg))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        if e == 0:
            return Polynomial.one(self.field)
        return power(self, e)

    def __divmod__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        f = self.field
        q, r = f.kernels.divmod_poly(self._data, other._data, f.kernel_arg)
        return _from_data(f, q), _from_data(f, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        f = self.field
        return _from_data(f, f.kernels.rem(self._data, other._data, f.kernel_arg))

    def exact_divide(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "Polynomial":
        f = self.field
        return _from_data(f, f.kernels.monic(self._data, f.kernel_arg))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        return _from_data(f, f.kernels.gcd(self._data, other._data, f.kernel_arg))

    def invmod(self, modulus: "Polynomial") -> "Polynomial":
        f = self.field
        try:
            return _from_data(f, f.kernels.invmod(self._data, modulus._data, f.kernel_arg))
        except ZeroDivisionError:
            raise NonUnitError("polynomial is not invertible modulo the given modulus") from None

    def pow_mod(self, e: int, modulus: "Polynomial") -> "Polynomial":
        f = self.field
        try:
            return _from_data(f, f.kernels.powmod(self._data, e, modulus._data, f.kernel_arg))
        except ZeroDivisionError:
            raise NonUnitError("polynomial is not invertible modulo the given modulus") from None

    def derivative(self) -> "Polynomial":
        f = self.field
        data = [f._mul(f.from_int(i).data, c) for i, c in enumerate(self._data)][1:]
        return _from_data(f, _trim(f, data))

    def shift(self, a) -> "Polynomial":
        """p(x + a), by repeated synthetic division."""
        f = self.field
        a = f.coerce(a).data
        b = list(self._data)
        n = len(b)
        for i in range(n):
            for j in range(n - 2, i - 1, -1):
                b[j] = f._add(b[j], f._mul(a, b[j + 1]))
        return _from_data(f, b)

    def reversed_coeffs(self) -> "Polynomial":
        """t^d * p(1/t) for d = deg p."""
        f = self.field
        return _from_data(f, _trim(f, self._data[::-1]))

    def valuation_at_zero(self) -> int:
        """Multiplicity of the root x = 0."""
        if self.is_zero():
            raise ValueError("zero polynomial has no valuation")
        for i, c in enumerate(self._data):
            if not self.field._is_zero(c):
                return i
        raise AssertionError("unnormalized polynomial")

    # -- comparisons / hashing / printing ------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            other = self._coerce_other(other)
            if other is None:
                return NotImplemented
        return self.field == other.field and self._data == other._data

    def __hash__(self):
        f = self.field
        return hash((f.signature, tuple(f._canonical(c) for c in self._data)))

    def __bool__(self):
        return bool(self._data)

    def sort_key(self) -> tuple:
        """Degree, then canonical coefficients from the constant term up."""
        f = self.field
        return self.degree, [f._canonical(c) for c in self._data]

    def to_string(self, var: str = "x") -> str:
        """The terms from the top degree down, each coefficient printed from its raw data."""
        f, data = self.field, self._data
        is_zero = f._is_zero
        terms = [(*split_sign(f, data[i]), power_string(var, i))
                 for i in range(len(data) - 1, -1, -1) if not is_zero(data[i])]
        return format_terms(terms)

    def __str__(self):
        return self.to_string("x")

    def __repr__(self):
        return f"Polynomial({self.field!r}, {self.to_string()!r})"
