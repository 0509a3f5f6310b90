"""Artinian local algebras k[e_1..e_r]/(e_i^{n_i}) over an exact base field.

Element data is a tuple of the base field's raw data (int, Fraction or F_q
tuple), one coordinate per monomial e_1^a_1 ... e_r^a_r with 0 <= a_i < n_i.
The monomials are in lexicographic order of their exponent vectors
(a_1, ..., a_r), the last generator's exponent varying fastest, so the
constant coordinate comes first; this is the coordinate order everywhere.  Multiplication runs over structure constants
computed once per algebra: the triples (i, j, k) with monomial_i *
monomial_j = monomial_k, so every product in which some exponent reaches
its generator's order is truncated.  The maximal ideal (everything with
zero constant coordinate) is therefore nilpotent and an element is
invertible exactly when its residue in the base field is.

Only this module knows the data format; elsewhere coordinates are read and
built through ``residue``, ``coordinates``, ``from_coordinates``,
``basis``, ``embed_from_below`` and ``generator``.  The expression parser
works on monomial indices, through three raw helpers: ``generator_monomials``
(the index of each generator), ``monomial_products`` (the index of a product
of two monomials, ``None`` where it is truncated) and ``_from_monomials``
(the element data of {monomial index: base raw}).
"""

from __future__ import annotations

import itertools

from .errors import NonUnitError
from .fields import AlgebraElement, BaseField, CoefficientRing, lift
from .formatting import needs_parens, split_sign


class ArtinianAlgebra(CoefficientRing):
    def __init__(self, base: BaseField, generators):
        gens = tuple((str(name), int(order)) for name, order in generators)
        if not gens:
            raise ValueError("an Artinian algebra needs at least one generator")
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for n, order in gens:
            if not n.isidentifier():
                raise ValueError(f"invalid generator name {n!r}")
            if order < 2:
                raise ValueError(f"nilpotency order of {n} must be >= 2")
        super().__init__()
        self.base = base
        self.generators = gens
        self.orders = tuple(order for _, order in gens)
        self.names = tuple(names)
        self.characteristic = base.characteristic
        self._monomials = tuple(itertools.product(*(range(o) for o in self.orders)))
        self.dimension = len(self._monomials)
        self._index = {m: i for i, m in enumerate(self._monomials)}
        # monomial_products[i][j] = k for monomial_i * monomial_j = monomial_k, None where truncated
        self.monomial_products = tuple(
            tuple(self._index.get(tuple(x + y for x, y in zip(a, b))) for b in self._monomials)
            for a in self._monomials
        )
        # the monomial index of each generator, in generator order
        self.generator_monomials = tuple(self._index[tuple(int(i == g) for i in range(len(gens)))]
                                         for g in range(len(gens)))
        # structure constants, grouped by the left factor: (i, ((j, k), ...))
        self._table = tuple(
            (i, tuple((j, k) for j, k in enumerate(row) if k is not None))
            for i, row in enumerate(self.monomial_products)
        )
        self._zero = (base._zero,) * self.dimension
        self._one = (base._one,) + self._zero[1:]
        self._str_order = sorted(range(self.dimension), key=lambda i: (sum(self._monomials[i]), i))
        # smallest M with m^M = 0
        self.nil_index = sum(o - 1 for o in self.orders) + 1

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _sub(self, a, b):
        return tuple(map(self.base._sub, a, b))

    def _neg(self, a):
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        # base data is canonical, so a zero coordinate equals the base's zero
        base = self.base
        add, mul, zero = base._add, base._mul, base._zero
        out = list(self._zero)
        for i, row in self._table:
            x = a[i]
            if x != zero:
                for j, k in row:
                    y = b[j]
                    if y != zero:
                        out[k] = add(out[k], mul(x, y))
        return tuple(out)

    def _inv(self, a):
        base = self.base
        if not base._is_invertible(a[0]):
            raise NonUnitError("element is not invertible (residue is zero)")
        c = base._inv(a[0])
        # a = a_0 (1 - n) with n nilpotent, so 1/a = c (1 + n + n^2 + ...)
        n = (self._zero[0],) + tuple(base._neg(base._mul(c, x)) for x in a[1:])
        acc = power = self._one
        for _ in range(self.nil_index):
            power = self._mul(power, n)
            if power == self._zero:
                break
            acc = self._add(acc, power)
        return tuple(base._mul(c, x) for x in acc)

    def _is_zero(self, a):
        return a == self._zero

    def _is_invertible(self, a):
        return self.base._is_invertible(a[0])

    def _canonical(self, a):
        base = self.base
        return tuple((m, base._canonical(v)) for m, v in zip(self._monomials, a) if not base._is_zero(v))

    def _monomial_str(self, exps) -> str:
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def _str(self, a):
        parts = []
        for i in self._str_order:
            if self.base._is_zero(a[i]):
                continue
            mono = self._monomial_str(self._monomials[i])
            coeff, neg = split_sign(AlgebraElement(self.base, a[i]))
            if mono:
                if coeff == "1":
                    body = mono
                else:
                    if needs_parens(coeff):
                        coeff = f"({coeff})"
                    body = f"{coeff}*{mono}"
            else:
                body = coeff
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts) or "0"

    def from_int(self, n):
        return self.embed_from_below(self.base.from_int(n))

    def embed_from_below(self, elem: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self, (lift(elem, self.base).data,) + self._zero[1:])

    def from_coordinates(self, coords) -> AlgebraElement:
        """The element with the given base-field coordinates, in coordinate order."""
        return AlgebraElement(self, tuple(self.base.coerce(c).data for c in coords))

    def generator(self, name) -> AlgebraElement:
        idx = name if isinstance(name, int) else self.names.index(str(name))
        return self.basis()[self.generator_monomials[idx]]

    def _from_monomials(self, terms: dict):
        """The raw element sum c * monomial_m over {m: c}, c raw base data and m a monomial index."""
        out = list(self._zero)
        for m, c in terms.items():
            out[m] = c
        return tuple(out)

    def residue(self, elem: AlgebraElement) -> AlgebraElement:
        """Image in the base field (constant coordinate)."""
        return AlgebraElement(self.base, elem.data[0])

    def coordinates(self, elem: AlgebraElement) -> list[AlgebraElement]:
        """Base-field coordinates of elem, in coordinate order."""
        return [AlgebraElement(self.base, v) for v in elem.data]

    def basis(self):
        """Monomial elements in coordinate order."""
        one, zero = self.base._one, self._zero
        return [AlgebraElement(self, zero[:i] + (one,) + zero[i + 1:]) for i in range(self.dimension)]

    def random_element(self, rng):
        return AlgebraElement(self, tuple(self.base.random_element(rng).data for _ in self._monomials))

    @property
    def signature(self):
        return ("Art", self.base.signature, self.generators)

    def __repr__(self):
        base = repr(self.base)
        gens = ",".join(self.names)
        rels = ",".join(f"{n}^{o}" for n, o in self.generators)
        return f"{base}[{gens}]/({rels})"


def dual_numbers(base: BaseField) -> ArtinianAlgebra:
    """k[e1,e2]/(e1^2,e2^2), the ring used for Lie-algebra computations."""
    return ArtinianAlgebra(base, [("e1", 2), ("e2", 2)])


def dual_coefficient(x: AlgebraElement, what: str) -> AlgebraElement:
    """c for x = 1 + c*e1*e2 in k[e1,e2]/(e1^2,e2^2); AssertionError otherwise."""
    ring = x.ring
    one, c1, c2, c = ring.coordinates(x)
    if one != ring.base.one():
        raise AssertionError(f"{what} must be unipotent")
    if not (c1.is_zero() and c2.is_zero()):
        raise AssertionError(f"unexpected component in {what}")
    return c
