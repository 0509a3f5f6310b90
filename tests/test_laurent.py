import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity import laurent
from reciprocity.artinian import ArtinianAlgebra, dual_numbers
from reciprocity.errors import NonUnitError, PrecisionError
from reciprocity.fields import QQ, AlgebraElement, PrimeField
from reciprocity.laurent import LaurentSeries, cc_factorize, is_principal_unit, nilpotent_powers, unit_factorize
from reciprocity.parsing import parse_ring_spec, parse_series
from reciprocity.symbols import contou_carrere_symbol
from support import (
    ReferenceSeries,
    agrees_with,
    expand,
    random_laurent_polynomial,
    random_principal_unit,
    random_unit_series,
    reference_cc_factorize,
    reference_cc_symbol,
    reference_divide_by_peel,
)


def LQ(coeffs, prec=None):
    return LaurentSeries(QQ, coeffs, prec)


def test_arithmetic_examples():
    z = LaurentSeries(QQ, {1: 1})
    assert z.inverse() == LaurentSeries(QQ, {-1: 1})
    geo = (LaurentSeries.one(QQ) - z).inverse(8)
    assert geo == LQ({i: 1 for i in range(8)}, 8)
    # re-multiplication oracle
    assert agrees_with((LaurentSeries.one(QQ) - z) * geo, LaurentSeries.one(QQ))
    zm1 = LaurentSeries(QQ, {-1: 1})
    assert zm1.derivative() == LaurentSeries(QQ, {-2: -1})


def test_precision_tracking():
    f = LQ({0: 1, 1: 1}, 4)
    g = LQ({-2: 1}, 5)
    prod = f * g
    assert prod.prec == 2  # min(low_f + prec_g, low_g + prec_f) = min(5, 2)
    assert prod.coefficient(-2) == 1
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


# -- the raw-data series against the earlier dict-of-elements arithmetic ---------

RAW_RINGS = {spec: parse_ring_spec(spec) for spec in ("Q", "F7", "F9", "F7[e,d]/(e^3,d^2)")}
CC_RING = RAW_RINGS["F7[e,d]/(e^3,d^2)"]


def outcome(fn):
    """What fn() gives, as comparable text: its value, or its error's type and message."""
    try:
        value = fn()
    except Exception as exc:  # the two sides must fail alike, whatever the error
        return "error", type(exc).__name__, str(exc)
    if isinstance(value, (LaurentSeries, ReferenceSeries)):
        return "series", str(value), value.prec, str(sorted(value.coeffs.items()))
    if hasattr(value, "neg"):
        return "factors", str(value.neg), str(value.pos), value.prec
    return "value", str(value)


@st.composite
def raw_series(draw, ring, unit_ring=False):
    """A series over ring with support in [-4, 5], exact or truncated; over the
    Artinian ring a principal unit (a nilpotent tail on 1) unless unit_ring,
    and then half its coefficients are nilpotent."""
    rng = draw(st.randoms(use_true_random=False))
    support = draw(st.lists(st.integers(-4, 5), unique=True, max_size=6))
    coeffs = {}
    for e in support:
        c = ring.random_element(rng)
        if isinstance(ring, ArtinianAlgebra) and draw(st.integers(0, 9)) >= (5 if unit_ring else 1):
            c = c - ring.embed_from_below(ring.residue(c))
        coeffs[e] = c
    if isinstance(ring, ArtinianAlgebra) and not unit_ring:
        coeffs[0] = coeffs.get(0, ring.zero()) + 1
    prec = draw(st.one_of(st.none(), st.integers(-3, 9)))
    return LaurentSeries(ring, coeffs, prec)


@pytest.mark.parametrize("spec", sorted(RAW_RINGS))
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_raw_arithmetic_matches_the_dict_of_elements(spec, data):
    ring = RAW_RINGS[spec]
    f, g = data.draw(raw_series(ring)), data.draw(raw_series(ring))
    rf, rg = ReferenceSeries.of(f), ReferenceSeries.of(g)
    assert outcome(lambda: f) == outcome(lambda: rf)
    k, n, rel = data.draw(st.integers(-5, 5)), data.draw(st.integers(-3, 4)), data.draw(st.integers(-1, 12))
    scalar = ring.random_element(data.draw(st.randoms(use_true_random=False)))
    cases = [
        (lambda s, t: s + t), (lambda s, t: s - t), (lambda s, t: s * t), (lambda s, t: -s),
        (lambda s, t: s.shift(k)), (lambda s, t: s.truncate(k)), (lambda s, t: s.inverse()),
        (lambda s, t: s.inverse(rel)), (lambda s, t: s.power(n)), (lambda s, t: s.power(n, rel)),
        (lambda s, t: s.derivative()), (lambda s, t: s * scalar), (lambda s, t: s + k),
        (lambda s, t: s.valuation()), (lambda s, t: s.leading_term()), (lambda s, t: s.coefficient(k)),
    ]
    # any series, nilpotent monomials included, over the Artinian ring too
    h = data.draw(raw_series(ring, unit_ring=True))
    rh = ReferenceSeries.of(h)
    for case in cases:
        assert outcome(lambda: case(f, g)) == outcome(lambda: case(rf, rg))
        assert outcome(lambda: case(h, f)) == outcome(lambda: case(rh, rf))
    assert outcome(lambda: LaurentSeries.constant(ring, scalar)) == outcome(lambda: ReferenceSeries(ring, {0: scalar}))
    assert outcome(lambda: LaurentSeries(ring, {k: 1})) == outcome(lambda: ReferenceSeries(ring, {k: 1}))
    if isinstance(ring, ArtinianAlgebra):
        c = ring.random_element(data.draw(st.randoms(use_true_random=False)))
        c = c - ring.embed_from_below(ring.residue(c))
        if not c.is_zero():
            got = laurent._divide_by_peel(f, k or 1, nilpotent_powers(ring, c.data))
            assert outcome(lambda: got) == outcome(lambda: reference_divide_by_peel(rf, k or 1, c))
    assert outcome(lambda: cc_factorize(f, rel)) == outcome(lambda: reference_cc_factorize(rf, rel))
    assert outcome(lambda: cc_factorize(f)) == outcome(lambda: reference_cc_factorize(rf))
    assert outcome(lambda: contou_carrere_symbol(f, g)) == outcome(lambda: reference_cc_symbol(rf, rg))


@settings(max_examples=40, deadline=None)
@given(raw_series(CC_RING, unit_ring=True), raw_series(CC_RING))
def test_cc_errors_match_on_units_that_are_not_principal(f, g):
    rf, rg = ReferenceSeries.of(f), ReferenceSeries.of(g)
    assert outcome(lambda: cc_factorize(f)) == outcome(lambda: reference_cc_factorize(rf))
    assert outcome(lambda: contou_carrere_symbol(f, g)) == outcome(lambda: reference_cc_symbol(rf, rg))
    assert outcome(lambda: contou_carrere_symbol(g, f)) == outcome(lambda: reference_cc_symbol(rg, rf))


@pytest.mark.parametrize("spec", sorted(RAW_RINGS))
def test_series_arithmetic_boxes_no_element(spec, monkeypatch):
    """+, -, *, shift, truncate and the peel division run on raw data alone."""
    ring = RAW_RINGS[spec]
    f = parse_series("3*z^-2 + z^-1 + 1 + 2*z + 5*z^4", ring)
    g = parse_series("z^-1 + 4 + 6*z^2 + O(z^6)", ring)
    nilpotent = (ring.generator("e") * 3 + ring.generator("d")).data if isinstance(ring, ArtinianAlgebra) else None
    powers = None if nilpotent is None else nilpotent_powers(ring, nilpotent)

    def refuse(self, *args, **kwargs):
        raise AssertionError("an AlgebraElement was built")

    monkeypatch.setattr(AlgebraElement, "__init__", refuse)
    for s, t in ((f, g), (g, f), (f, f)):
        s + t, s - t, s * t, s.shift(3), s.truncate(1)
        if powers is not None:
            laurent._divide_by_peel(s, -2, powers), laurent._divide_by_peel(s, 3, powers)
