"""Seeded random rational-function pairs for the ``sweep`` command."""

from __future__ import annotations

import random

from .curve import RationalFunction
from .factor import is_irreducible
from .fields import BaseField, RationalField
from .poly import Polynomial


def random_polynomial(rng: random.Random, field: BaseField, max_degree: int) -> Polynomial:
    """A nonzero polynomial of uniform degree bound up to max_degree."""
    d = rng.randint(0, max_degree)
    while True:
        p = Polynomial(field, [field.random_element(rng) for _ in range(d + 1)])
        if not p.is_zero():
            return p


def random_irreducible(rng: random.Random, field: BaseField, degree: int) -> Polynomial:
    """A monic polynomial of the given degree that ``is_irreducible`` certifies."""
    while True:
        p = Polynomial(field, [field.random_element(rng) for _ in range(degree)] + [field.one()])
        if is_irreducible(p):
            return p


def random_factored(rng: random.Random, field: BaseField, max_degree: int) -> RationalFunction:
    """A constant times declared irreducible factors of degree <= 3, up to max_degree above and below."""
    exponents: dict[Polynomial, int] = {}
    for sign in (1, -1):
        left = rng.randint(0, max_degree)
        while left:
            p = random_irreducible(rng, field, rng.randint(1, min(3, left)))
            exponents[p] = exponents.get(p, 0) + sign
            left -= p.degree
    return RationalFunction.from_factored(field, rng.choice((-3, -2, -1, 1, 2, 3)), exponents.items())


def factored_text(f: RationalFunction) -> str:
    """A function built by ``from_factored`` as the product of its factors, for ``--factored``."""
    return "*".join([f"({f.num.leading_coefficient()})"] + [f"({p})" if e == 1 else f"({p})^{e}" for p, e in f.factors])


def random_rational_pair(rng: random.Random, field: BaseField, max_degree: int = 5,
                         force_higher_place: bool = False):
    """Two nonzero rational functions; optionally force a degree->=2 place.

    Over Q, where no factor above degree 3 is certified, they come from
    declared factors; over a finite field from random num and den, which
    ``poly_factor`` factors.
    """

    def one_function():
        if isinstance(field, RationalField):
            return random_factored(rng, field, max_degree)
        return RationalFunction(field, random_polynomial(rng, field, max_degree),
                                random_polynomial(rng, field, max_degree))

    f, g = one_function(), one_function()
    if force_higher_place:
        f = f * RationalFunction.from_factored(field, 1, [(random_irreducible(rng, field, 2), 1)])
    return f, g
