import math

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity._kernels import generic
from reciprocity.errors import NonUnitError
from reciprocity.fields import QQ, AlgebraElement, ExtensionField, PrimeField
from reciprocity.parsing import parse_ring_spec
from reciprocity.poly import Polynomial, _from_data
from support import RAW_DATA_SPECS, earlier_poly_to_string, evaluate, xgcd

F7 = PrimeField(7)


def P7(*ints):
    return Polynomial(F7, ints)


def PQ(*ints):
    return Polynomial(QQ, ints)


def test_basic_arithmetic():
    f = P7(1, 2, 1)  # 1 + 2x + x^2
    g = P7(6, 1)
    assert f - f == Polynomial.zero(F7)
    assert (f + g).coefficient(0) == 0
    assert (f * g).degree == 3
    assert evaluate(f, F7.from_int(1)) == 4
    assert str(PQ(1, 2, 1)) == "x^2 + 2*x + 1"
    assert str(PQ(-1, 0, 1)) == "x^2 - 1"


def test_divmod_and_gcd():
    f = P7(1, 0, 1) * P7(3, 1)
    q, r = divmod(f, P7(3, 1))
    assert r.is_zero() and q == P7(1, 0, 1)
    g = f.gcd(P7(3, 1) * P7(5, 1))
    assert g == P7(3, 1).monic()
    gq = PQ(-1, 0, 1).gcd(PQ(1, 1))
    assert gq == PQ(1, 1)


def test_xgcd_and_invmod():
    m = P7(1, 0, 1)
    a = P7(0, 1)
    g, s, t = xgcd(a, m)
    assert g.degree == 0
    inv = a.invmod(m)
    assert (a * inv) % m == Polynomial.one(F7)
    with pytest.raises(NonUnitError):
        m.invmod(m)


def test_shift_and_reverse():
    f = PQ(0, 1)  # x
    assert f.shift(5) == PQ(5, 1)
    g = PQ(1, 2, 3)
    h = g.shift(QQ.from_int(1))
    # h(t) = g(t+1) = 3t^2 + 8t + 6
    assert h == PQ(6, 8, 3)
    assert g.reversed_coeffs() == PQ(3, 2, 1)
    assert PQ(0, 0, 4).valuation_at_zero() == 2


def test_pow_mod():
    m = P7(1, 0, 1)
    a = P7(0, 1)
    assert a.pow_mod(2, m) == P7(-1)
    assert a.pow_mod(-1, m) * a % m == Polynomial.one(F7)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=5), st.lists(st.integers(-5, 5), max_size=5))
def test_mul_matches_q_and_f7(a_ints, b_ints):
    # the prime-field kernel path must agree with generic arithmetic over Q
    aq, bq = PQ(*a_ints), PQ(*b_ints)
    a7, b7 = P7(*a_ints), P7(*b_ints)
    prod_q = aq * bq
    prod_7 = a7 * b7
    reduced = Polynomial(F7, [F7.from_int(int(c.data)) for c in prod_q.coeffs])
    assert reduced == prod_7


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=6), st.lists(st.integers(0, 6), min_size=1, max_size=6))
def test_divmod_invariant(a_ints, b_ints):
    a, b = P7(*a_ints), P7(*b_ints)
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


# one field per arithmetic path: F_p kernels at small, mid and 61-bit p,
# the generic kernels over F_q and over Q
PROPERTY_FIELDS = [PrimeField(2), PrimeField(65537), PrimeField(2**61 - 1), ExtensionField(3, [1, 0, 1]), QQ]


def elements(field):
    if isinstance(field, ExtensionField):
        digits = st.tuples(*[st.integers(0, field.p - 1)] * field.degree)
        return digits.map(field.from_coordinates)
    if field == QQ:
        return st.fractions(min_value=-9, max_value=9, max_denominator=9).map(field.coerce)
    return st.integers(0, field.p - 1).map(field.from_int)


def polys(field, max_degree=5):
    return st.lists(elements(field), max_size=max_degree + 1).map(lambda cs: Polynomial(field, cs))


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_identities(field, data):
    a, b = data.draw(polys(field)), data.draw(polys(field))
    x = data.draw(elements(field))
    for c in a.coeffs:
        assert isinstance(c, AlgebraElement) and c.ring == field
    if not b.is_zero():
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree
    g, s, t = xgcd(a, b)
    assert s * a + t * b == g
    assert g == a.gcd(b)
    if b.degree >= 1 and g.degree == 0:
        assert (a * a.invmod(b)) % b == Polynomial.one(field)
    elif b.degree >= 1:
        with pytest.raises(NonUnitError):
            a.invmod(b)
    assert evaluate(a + b, x) == evaluate(a, x) + evaluate(b, x)
    assert evaluate(a * b, x) == evaluate(a, x) * evaluate(b, x)


def test_identities_above_the_compiled_kernel_bound():
    # p > 2^64 does not fit the compiled kernels' C integers
    f = PrimeField(18446744073709551629)
    a = Polynomial(f, [3, -1, 0, 5, 2**63 + 7])
    b = Polynomial(f, [1, 0, 1])
    q, r = divmod(a, b)
    assert a == q * b + r and r.degree < b.degree
    h = Polynomial(f, [2**62, 1])
    assert (a * h).gcd(b * h) == h.monic()
    g, s, t = xgcd(a, b)
    assert g == Polynomial.one(f) and s * a + t * b == g
    assert (a * a.invmod(b)) % b == Polynomial.one(f)


def test_power_multiplications(monkeypatch):
    x = P7(3, 1, 2)
    expected = {0: P7(1)}
    for e in (1, 2, 3, 5, 8, 13, 100):
        value = x
        for _ in range(e - 1):
            value = value * x
        expected[e] = value
    calls = []
    original = Polynomial.__mul__

    def counting(a, b):
        calls.append(a)
        return original(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    for e, value in expected.items():
        calls.clear()
        assert x**e == value
        assert len(calls) <= 2 * math.log2(max(e, 1))
        if e <= 2:
            assert len(calls) == max(e - 1, 0)
    with pytest.raises(ValueError):
        x**-1


PRINT_RINGS = {spec: parse_ring_spec(spec) for spec in RAW_DATA_SPECS}


@pytest.mark.parametrize("spec", sorted(PRINT_RINGS))
@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), degree=st.integers(-1, 6), var=st.sampled_from(["x", "z", "t"]))
def test_to_string_matches_the_earlier_printer(spec, rng, degree, var):
    """Printing from raw data gives the string of the printer that boxed each coefficient."""
    ring = PRINT_RINGS[spec]
    data = [ring._zero if rng.random() < 0.3 else ring.random_element(rng).data for _ in range(degree + 1)]
    poly = _from_data(ring, generic._normalize(data, ring))
    assert poly.to_string(var) == earlier_poly_to_string(poly, var)
