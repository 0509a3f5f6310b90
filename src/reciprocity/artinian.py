"""Artinian local algebras k[e_1..e_r]/(e_i^{n_i}) over an exact base field.

Element data is a dict mapping exponent tuples to nonzero base-field
elements; the empty dict is zero.  Multiplication truncates every monomial
in which some exponent reaches its generator's order, so the maximal ideal
(everything with zero constant coordinate) is nilpotent and an element is
invertible exactly when its residue in the base field is.
"""

from __future__ import annotations

import itertools

from .errors import NonUnitError
from .fields import AlgebraElement, BaseField, CoefficientRing, lift
from .formatting import format_terms, needs_parens, split_sign


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
        self.dimension = 1
        for order in self.orders:
            self.dimension *= order

    # smallest M with m^M = 0
    @property
    def nil_index(self) -> int:
        return sum(o - 1 for o in self.orders) + 1

    def monomials(self):
        return itertools.product(*(range(o) for o in self.orders))

    def _zero_exps(self):
        return (0,) * len(self.orders)

    def _trim(self, d: dict) -> dict:
        return {e: v for e, v in d.items() if not v.is_zero()}

    def _add(self, a, b):
        out = dict(a)
        for e, v in b.items():
            if e in out:
                out[e] = out[e] + v
            else:
                out[e] = v
        return self._trim(out)

    def _sub(self, a, b):
        out = dict(a)
        for e, v in b.items():
            if e in out:
                out[e] = out[e] - v
            else:
                out[e] = -v
        return self._trim(out)

    def _neg(self, a):
        return {e: -v for e, v in a.items()}

    def _mul(self, a, b):
        out: dict = {}
        orders = self.orders
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if any(x >= o for x, o in zip(e, orders)):
                    continue
                prod = v1 * v2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return self._trim(out)

    def _inv(self, a):
        z = self._zero_exps()
        r0 = a.get(z, self.base.zero())
        if not r0.is_invertible():
            raise NonUnitError("element is not invertible (residue is zero)")
        c = {z: r0.inverse()}
        u = self._mul(a, c)  # 1 + nilpotent
        n = dict(u)
        one = self.base.one()
        n[z] = n.get(z, self.base.zero()) - one
        n = self._trim(n)
        acc = {z: one}
        power = {z: one}
        sign = -1
        for _ in range(self.nil_index):
            power = self._mul(power, n)
            if not power:
                break
            term = power if sign > 0 else self._neg(power)
            acc = self._add(acc, term)
            sign = -sign
        return self._mul(c, acc)

    def _is_zero(self, a):
        return not a

    def _is_invertible(self, a):
        r0 = a.get(self._zero_exps())
        return r0 is not None and r0.is_invertible()

    def _canonical(self, a):
        return tuple(sorted((e, self.base._canonical(v.data)) for e, v in a.items()))

    def _monomial_str(self, exps) -> str:
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def _str(self, a):
        if not a:
            return "0"
        items = sorted(a.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        parts = []
        for i, (exps, v) in enumerate(items):
            mono = self._monomial_str(exps)
            coeff, neg = split_sign(v)
            if mono:
                if coeff == "1":
                    body = mono
                else:
                    if needs_parens(coeff):
                        coeff = f"({coeff})"
                    body = f"{coeff}*{mono}"
            else:
                body = coeff
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def from_int(self, n):
        v = self.base.from_int(n)
        data = {} if v.is_zero() else {self._zero_exps(): v}
        return AlgebraElement(self, data)

    def embed_from_below(self, elem: AlgebraElement) -> AlgebraElement:
        v = lift(elem, self.base)
        data = {} if v.is_zero() else {self._zero_exps(): v}
        return AlgebraElement(self, data)

    def generator(self, name) -> AlgebraElement:
        if isinstance(name, int):
            idx = name
        else:
            idx = self.names.index(str(name))
        exps = tuple(1 if i == idx else 0 for i in range(len(self.orders)))
        return AlgebraElement(self, {exps: self.base.one()})

    def residue(self, elem: AlgebraElement) -> AlgebraElement:
        """Image in the base field (constant coordinate)."""
        return elem.data.get(self._zero_exps(), self.base.zero())

    def is_nilpotent(self, elem: AlgebraElement) -> bool:
        return self.residue(elem).is_zero()

    def coordinate(self, elem: AlgebraElement, exps) -> AlgebraElement:
        return elem.data.get(tuple(exps), self.base.zero())

    def basis(self):
        """Monomial elements in a fixed order."""
        one = self.base.one()
        return [AlgebraElement(self, {e: one}) for e in self.monomials()]

    def random_element(self, rng):
        data = {}
        for e in self.monomials():
            v = self.base.random_element(rng)
            if not v.is_zero():
                data[e] = v
        return AlgebraElement(self, data)

    @property
    def signature(self):
        return ("Art", self.base.signature, self.generators)

    def __repr__(self):
        base = repr(self.base)
        gens = ",".join(self.names)
        rels = ",".join(f"{n}^{o}" for n, o in self.generators)
        return f"{base}[{gens}]/({rels})"


def dual_numbers(base: BaseField, names=("e1", "e2")) -> ArtinianAlgebra:
    """k[e1,e2]/(e1^2,e2^2), the ring used for Lie-algebra computations."""
    return ArtinianAlgebra(base, [(n, 2) for n in names])
