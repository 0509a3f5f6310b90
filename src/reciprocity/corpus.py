"""Seeded random instance generators shared by tests, sweeps and benchmarks."""

from __future__ import annotations

import random

from .artinian import ArtinianAlgebra
from .blockops import BlockOperator
from .curve import RationalFunction
from .errors import NonUnitError
from .fields import BaseField, QQ
from .laurent import LaurentSeries
from .norms import mat_det
from .poly import Polynomial


def random_polynomial(rng: random.Random, field: BaseField, max_degree: int,
                      nonzero: bool = True) -> Polynomial:
    d = rng.randint(0, max_degree)
    while True:
        coeffs = [field.random_element(rng) for _ in range(d + 1)]
        p = Polynomial(field, coeffs)
        if not nonzero or not p.is_zero():
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
        from .factor import is_irreducible

        while True:
            quad = Polynomial(field, [field.random_element(rng), field.random_element(rng), field.one()])
            if is_irreducible(quad):
                break
        f = f * quad
    if f.is_zero() or g.is_zero():
        return random_rational_pair(rng, field, max_degree, force_higher_place)
    return f, g


_Q_QUADRATICS = ([1, 0, 1], [2, 0, 1], [1, 1, 1], [3, -1, 1], [5, 0, 1])


def random_factored_rational(rng: random.Random, field: BaseField = QQ,
                             linear_roots=(-3, -2, -1, 0, 1, 2, 3)) -> RationalFunction:
    """A rational function over Q built from declared irreducible factors."""
    pairs = []
    for a in rng.sample(linear_roots, k=rng.randint(1, 3)):
        e = rng.choice([-2, -1, 1, 2])
        pairs.append((Polynomial(field, [-a, 1]), e))
    if rng.random() < 0.6:
        quad = Polynomial.from_int_coeffs(field, rng.choice(_Q_QUADRATICS))
        pairs.append((quad, rng.choice([-1, 1])))
    lead = field.from_int(rng.choice([1, 2, 3, -1, -2]))
    return RationalFunction.from_factored(field, lead, pairs)


def random_laurent_polynomial(rng: random.Random, ring, min_exp: int = -4, max_exp: int = 4,
                              density: float = 0.6) -> LaurentSeries:
    """An exact series with support in [min_exp, max_exp] (possibly zero)."""
    coeffs = {}
    for e in range(min_exp, max_exp + 1):
        if rng.random() < density:
            c = ring.random_element(rng)
            if not c.is_zero():
                coeffs[e] = c
    return LaurentSeries(ring, coeffs)


def random_unit_series(rng: random.Random, field: BaseField, min_val: int = -3,
                       max_val: int = 3, prec: int | None = None,
                       terms: int = 4) -> LaurentSeries:
    """A declared unit over a field: invertible lowest coefficient."""
    v = rng.randint(min_val, max_val)
    while True:
        lead = field.random_element(rng)
        if lead.is_invertible():
            break
    coeffs = {v: lead}
    for _ in range(terms):
        e = v + rng.randint(1, 6)
        c = field.random_element(rng)
        if not c.is_zero():
            coeffs[e] = c
    return LaurentSeries(field, coeffs, prec)


def random_principal_unit(rng: random.Random, ring: ArtinianAlgebra, min_exp: int = -3,
                          max_exp: int = 3) -> LaurentSeries:
    """1 + (maximal-ideal coefficients), nilpotent below z^0; exact."""
    coeffs = {0: ring.one()}
    for e in range(min_exp, max_exp + 1):
        if rng.random() < 0.6:
            c = ring.random_element(rng)
            nil = c - ring.embed_from_below(ring.residue(c))
            if not nil.is_zero():
                coeffs[e] = coeffs.get(e, ring.zero()) + nil
    return LaurentSeries(ring, coeffs)


def random_matrix(rng: random.Random, ring, n: int, small: bool = True):
    def entry():
        if small and ring == QQ:
            return ring.from_int(rng.randint(-4, 4))
        return ring.random_element(rng)

    return [[entry() for _ in range(n)] for _ in range(n)]


def random_block_operator(rng: random.Random, ring, wneg: int, wpos: int,
                          invertible_delta: bool = True) -> BlockOperator:
    while True:
        alpha = random_matrix(rng, ring, wneg)
        delta = random_matrix(rng, ring, wpos)
        beta = [[ring.random_element(rng) for _ in range(wpos)] for _ in range(wneg)]
        gamma = [[ring.random_element(rng) for _ in range(wneg)] for _ in range(wpos)]
        op = BlockOperator(ring, wneg, wpos, alpha, beta, gamma, delta)
        if not invertible_delta:
            return op
        try:
            if mat_det(delta, ring).is_invertible():
                return op
        except NonUnitError:
            pass
