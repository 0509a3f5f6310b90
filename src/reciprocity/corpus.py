"""Seeded random rational-function pairs for the ``sweep`` command."""

from __future__ import annotations

import random

from .curve import RationalFunction
from .factor import is_irreducible
from .fields import BaseField
from .poly import Polynomial


def random_polynomial(rng: random.Random, field: BaseField, max_degree: int) -> Polynomial:
    """A nonzero polynomial of uniform degree bound up to max_degree."""
    d = rng.randint(0, max_degree)
    while True:
        p = Polynomial(field, [field.random_element(rng) for _ in range(d + 1)])
        if not p.is_zero():
            return p


def random_rational_pair(rng: random.Random, field: BaseField, max_degree: int = 5,
                         force_higher_place: bool = False):
    """Two nonzero rational functions; optionally force a degree->=2 place."""

    def one_function():
        num = random_polynomial(rng, field, max_degree)
        den = random_polynomial(rng, field, max_degree)
        return RationalFunction(field, num, den)

    f, g = one_function(), one_function()
    if force_higher_place:
        while True:
            quad = Polynomial(field, [field.random_element(rng), field.random_element(rng), field.one()])
            if is_irreducible(quad):
                break
        f = f * quad
    if f.is_zero() or g.is_zero():
        return random_rational_pair(rng, field, max_degree, force_higher_place)
    return f, g
