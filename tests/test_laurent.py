import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity.artinian import ArtinianAlgebra, dual_numbers
from reciprocity.errors import NonUnitError, PrecisionError
from reciprocity.fields import QQ, PrimeField
from reciprocity.laurent import LaurentSeries, cc_factorize, is_principal_unit, unit_factorize
from reciprocity.parsing import parse_ring_spec, parse_series
from support import agrees_with, expand, random_laurent_polynomial, random_principal_unit, random_unit_series


def LQ(coeffs, prec=None):
    return LaurentSeries(QQ, coeffs, prec)


def test_arithmetic_examples():
    z = LaurentSeries.monomial(QQ, 1)
    assert z.inverse() == LaurentSeries.monomial(QQ, -1)
    geo = (LaurentSeries.one(QQ) - z).inverse(8)
    assert geo == LQ({i: 1 for i in range(8)}, 8)
    # re-multiplication oracle
    assert agrees_with((LaurentSeries.one(QQ) - z) * geo, LaurentSeries.one(QQ))
    zm1 = LaurentSeries.monomial(QQ, -1)
    assert zm1.derivative() == LaurentSeries(QQ, {-2: -1})


def test_precision_tracking():
    f = LQ({0: 1, 1: 1}, 4)
    g = LQ({-2: 1}, 5)
    prod = f * g
    assert prod.prec == 2  # min(low_f + prec_g, low_g + prec_f) = min(5, 2)
    assert prod.known_coefficient(-2) == 1
    with pytest.raises(PrecisionError):
        prod.coefficient(2)
    assert (f + g).prec == 4
    exact = LQ({2: 3})
    assert (exact * exact).prec is None
    assert f.derivative().prec == 3


def test_valuation_rules():
    assert LQ({3: 1}).valuation() == 3
    assert LQ({-1: 2, 0: 1}).valuation() == -1
    D = dual_numbers(QQ)
    e1 = D.generator(0)
    s = LaurentSeries(D, {0: e1, 1: D.one()})
    assert s.valuation() == 1  # e1 is not invertible
    with pytest.raises(NonUnitError):
        LaurentSeries.zero(QQ).valuation()
    with pytest.raises(NonUnitError):
        LaurentSeries(D, {0: e1}).valuation()
    with pytest.raises(PrecisionError):
        LaurentSeries.zero(QQ, 5).valuation()


def test_inverse_requires_declared_unit():
    D = dual_numbers(QQ)
    e1 = D.generator(0)
    s = LaurentSeries(D, {-1: e1, 0: D.one()})
    assert not s.is_unit()
    with pytest.raises(NonUnitError):
        s.inverse()
    with pytest.raises(NonUnitError):
        LaurentSeries.zero(QQ).inverse()


def test_unit_factorize_examples():
    f = LQ({2: 3})
    uf = unit_factorize(f)
    assert (uf.leading, uf.valuation, uf.tail) == (QQ.coerce(3), 2, ())
    g = LQ({1: 1, 2: 1})
    ug = unit_factorize(g, 10)
    assert ug.valuation == 1 and ug.leading == 1
    assert ug.tail[0] == (1, QQ.one())
    assert len(ug.tail) == 1
    h = LQ({0: 1, 1: 1, 2: 1})
    uh = unit_factorize(h, 12)
    assert agrees_with(expand(uh), h)
    assert uh.tail[0][0] == 1 and uh.tail[0][1] == 1


def test_unit_factorize_uniqueness(rng):
    for field in (QQ, PrimeField(7)):
        for _ in range(40):
            f = random_unit_series(rng, field, prec=None)
            uf = unit_factorize(f, f.valuation() + 16)
            again = unit_factorize(expand(uf))
            assert again.leading == uf.leading
            assert again.valuation == uf.valuation
            assert again.tail == uf.tail


def test_cc_factorize_examples():
    D = dual_numbers(QQ)
    e1, e2 = D.generator(0), D.generator(1)
    f = LaurentSeries(D, {0: D.one(), -1: -e1})
    fac = cc_factorize(f)
    assert fac.neg == ((1, e1),) and fac.pos == ()

    g = (LaurentSeries(D, {0: D.one(), -1: -e1}) * LaurentSeries(D, {0: D.one(), 1: -e2}))
    fg = cc_factorize(g, 8)
    assert fg.neg == ((1, e1),)
    assert fg.pos == ((1, e2),)
    assert agrees_with(expand(fg), g)

    h = LaurentSeries(D, {0: D.one(), -2: e1, -1: e1})
    fh = cc_factorize(h)
    assert fh.neg == ((2, -e1), (1, -e1))
    assert fh.pos == ()
    assert agrees_with(expand(fh), h)


def test_cc_factorize_domain_errors():
    D = dual_numbers(QQ)
    e1 = D.generator(0)
    not_unit = LaurentSeries(D, {0: D.one() + D.one(), 1: e1})
    assert not is_principal_unit(not_unit)
    from reciprocity.errors import DomainError

    with pytest.raises(DomainError):
        cc_factorize(not_unit)
    bad_neg = LaurentSeries(D, {0: D.one(), -1: D.one()})
    with pytest.raises(DomainError):
        cc_factorize(bad_neg)


def test_round_trip_random(rng):
    D3 = ArtinianAlgebra(QQ, [("a", 3), ("b", 2)])
    F7 = PrimeField(7)
    DF = ArtinianAlgebra(F7, [("e1", 2), ("e2", 2)])
    for ring in (D3, DF):
        for _ in range(200):
            f = random_principal_unit(rng, ring)
            prec = max(f.support(), default=0) + 6
            fac = cc_factorize(f, prec)
            assert agrees_with(expand(fac), f.truncate(prec))
    for field in (QQ, PrimeField(5)):
        for _ in range(200):
            f = random_unit_series(rng, field)
            uf = unit_factorize(f, f.valuation() + 12)
            assert agrees_with(expand(uf), f.truncate(f.valuation() + 12))


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=4),
    st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=4),
)
def test_leibniz(c1, c2):
    f = LQ({e: v for e, v in c1.items() if v})
    g = LQ({e: v for e, v in c2.items() if v})
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


def test_valuation_additive(rng):
    F5 = PrimeField(5)
    for _ in range(60):
        f = random_unit_series(rng, F5)
        g = random_unit_series(rng, F5)
        assert (f * g).valuation() == f.valuation() + g.valuation()


def test_str():
    assert str(LQ({-1: 3, 1: 2}, 5)) == "3*z^-1 + 2*z + O(z^5)"


def test_power_multiplications(monkeypatch):
    x = LQ({-1: 2, 1: 1})
    expected = {0: LQ({0: 1})}
    for e in (1, 2, 3, 5, 8, 13, 40):
        value = x
        for _ in range(e - 1):
            value = value * x
        expected[e] = value
    calls = []
    original = LaurentSeries.__mul__

    def counting(a, b):
        calls.append(a)
        return original(a, b)

    monkeypatch.setattr(LaurentSeries, "__mul__", counting)
    for e, value in expected.items():
        calls.clear()
        assert x.power(e) == value
        assert len(calls) <= 2 * math.log2(max(e, 1))
        if e <= 2:
            assert len(calls) == max(e - 1, 0)


def reference_power(s: LaurentSeries, n: int) -> LaurentSeries:
    """The earlier LaurentSeries.power loop for n >= 0: low bit first, from one."""
    result = LaurentSeries.one(s.ring)
    base = s
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


POWER_RINGS = {"Q": QQ, "F7[e,d]/(e^3,d^2)": parse_ring_spec("F7[e,d]/(e^3,d^2)")}


@pytest.mark.parametrize("spec", sorted(POWER_RINGS))
@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-3, 4), unique=True, max_size=5),
    st.randoms(use_true_random=False),
    st.integers(-2, 7),
    st.integers(1, 12),
)
def test_power_matches_the_earlier_loop(spec, support, rng, prec, n):
    """Truncated series keep both their coefficients and their prec."""
    ring = POWER_RINGS[spec]
    s = LaurentSeries(ring, {e: ring.random_element(rng) for e in support}, prec)
    got, want = s.power(n), reference_power(s, n)
    assert got.prec == want.prec
    assert got.coeffs == want.coeffs


def test_power_prec_depends_on_the_order_of_products():
    """A nilpotent lead dies in some partial products, and prec follows the lows of those."""
    ring = POWER_RINGS["F7[e,d]/(e^3,d^2)"]
    s = parse_series("(5*d + 6*e + e*d + e^2 + 5*e^2*d)*z^-2 + O(z^2)", ring)
    assert s.power(12).prec == reference_power(s, 12).prec == -12


@pytest.mark.parametrize("spec", ["Q", "F7[e,d]/(e^3,d^2)"])
def test_zero_scalar_gives_the_exact_zero(spec):
    ring = parse_ring_spec(spec)
    s = parse_series("z + O(z^3)", ring)
    zero = LaurentSeries.zero(ring)
    for scalar in (0, ring.zero()):
        assert s * scalar == zero == scalar * s
        assert s * scalar == s * LaurentSeries.constant(ring, 0)
    assert s * 3 == s * LaurentSeries.constant(ring, 3) == LaurentSeries(ring, {1: 3}, 3)
