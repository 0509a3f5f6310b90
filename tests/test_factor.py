import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity import factor
from reciprocity.errors import DomainError, FactorError
from reciprocity.factor import is_irreducible, poly_factor
from reciprocity.fields import QQ, ExtensionField, PrimeField, _is_irreducible_mod_p, find_irreducible
from reciprocity.poly import Polynomial
from support import earlier_poly_factor, expand


def test_spec_examples(F5, F3, Q):
    f = Polynomial(F5, [1, 0, 1])
    fac = poly_factor(f)
    strs = sorted(str(g) for g, _, _ in fac.factors)
    assert strs == ["x + 2", "x + 3"]

    g = Polynomial(F3, [1, 0, 1])
    fac3 = poly_factor(g)
    assert len(fac3.factors) == 1 and fac3.factors[0][1] == 1
    assert is_irreducible(g) is True

    h = Polynomial(Q, [-1, 0, 1])
    facq = poly_factor(h)
    strs = sorted(str(p) for p, _, _ in facq.factors)
    assert strs == ["x + 1", "x - 1"]
    assert facq.certified()


def test_zero_rejected(F5):
    with pytest.raises(FactorError):
        poly_factor(Polynomial.zero(F5))


def test_multiplicities_and_lead(F5):
    x = Polynomial.x(F5)
    f = (x + 1) ** 3 * (x**2 + 2) * F5.from_int(3)
    fac = poly_factor(f)
    assert fac.lead == 3
    assert expand(fac) == f
    mults = {str(p): m for p, m, _ in fac.factors}
    assert mults["x + 1"] == 3


def test_char_p_pth_powers(F3):
    x = Polynomial.x(F3)
    f = (x**3 + 2 * x + 1) ** 3  # derivative-killing inner cube
    fac = poly_factor(f)
    assert expand(fac) == f
    assert all(m % 3 == 0 for _, m, _ in fac.factors) or sum(m for _, m, _ in fac.factors) >= 3


@pytest.mark.parametrize("field_key", ["F2", "F3", "F5", "F9", "F8"])
def test_factor_round_trip_random(field_key, request):
    field = request.getfixturevalue(field_key)
    rng = random.Random(hash(field_key) & 0xFFFF)
    for _ in range(40):
        coeffs = [field.random_element(rng) for _ in range(rng.randint(1, 8))]
        f = Polynomial(field, coeffs)
        if f.is_zero():
            continue
        fac = poly_factor(f)
        assert expand(fac) == f
        assert fac.certified()
        for p, _, _ in fac.factors:
            assert p == p.monic()
            assert is_irreducible(p) is True


def test_rational_path_and_unsplit(Q):
    x = Polynomial.x(Q)
    f = (x - 1) * (x + 2) ** 2 * (x**2 + 1)
    fac = poly_factor(f)
    assert expand(fac) == f
    assert fac.certified()  # quadratic without roots is certified
    hard = x**4 + x + 1  # no rational roots, degree 4: cannot certify here
    fach = poly_factor(hard)
    assert expand(fach) == hard
    assert not fach.certified()
    assert is_irreducible(hard) is None


def test_rational_multiplicities_of_three_and_more(Q):
    """Over Q, multiplicities of 3 and more come out of the squarefree decomposition the finite fields use."""
    x = Polynomial.x(Q)
    f = (x - 1) ** 3 * (x + 2) ** 4 * (x**2 + 1) ** 3 * (2 * x + 3) * Q.from_int(5)
    fac = poly_factor(f)
    assert expand(fac) == f and fac.certified()
    assert {str(p): m for p, m, _ in fac.factors} == {"x - 1": 3, "x + 2": 4, "x^2 + 1": 3, "x + 3/2": 1}
    # x^k alone leaves the squarefree decomposition the constant 1, whose derivative is zero
    assert [(str(p), m) for p, m, _ in poly_factor(x**3 * Q.from_int(2)).factors] == [("x", 3)]


def test_rational_root_fractions(Q):
    x = Polynomial.x(Q)
    f = (2 * x - 1) * (3 * x + 2)
    fac = poly_factor(f)
    assert expand(fac) == f
    assert all(c for _, _, c in fac.factors)
    assert len(fac.factors) == 2


def test_poly_invmod_examples(F3, F5):
    m = Polynomial(F3, [1, 0, 1])
    a = Polynomial.x(F3)
    assert a.invmod(m) == Polynomial(F3, [0, 2])
    one = Polynomial.one(F5)
    assert one.invmod(Polynomial(F5, [0, 0, 1])) == one
    b = Polynomial(F5, [1, 1])
    assert b.invmod(Polynomial.x(F5)) == Polynomial.one(F5)


def test_factor_deterministic_with_seed(F5):
    f = Polynomial(F5, [2, 3, 0, 1, 4, 1])
    c = poly_factor(f)  # the seed is fixed
    d = poly_factor(f)
    assert [(str(p), m) for p, m, _ in c.factors] == [(str(p), m) for p, m, _ in d.factors]


def test_factor_over_extension_field(F9):
    # x^2 + 1 splits over F9 since u^2 = -1
    f = Polynomial(F9, [1, 0, 1])
    fac = poly_factor(f)
    assert len(fac.factors) == 2
    assert expand(fac) == f
    u = F9.generator()
    roots = sorted(str(-p.coefficient(0)) for p, _, _ in fac.factors)
    assert roots == sorted([str(u), str(-u)])


def reference_distinct_degree(f):
    """The earlier loop: one fresh pow_mod(q, rest) per degree step."""
    field = f.field
    q = field.order
    out = []
    h = Polynomial.x(field)
    x = Polynomial.x(field)
    d = 0
    rest = f
    while rest.degree > 2 * (d + 1) - 1:
        d += 1
        h = h.pow_mod(q, rest)
        g = rest.gcd(h - x)
        if g.degree >= 1:
            out.append((g.monic(), d))
            rest = rest.exact_divide(g)
            h = h % rest
    if rest.degree >= 1:
        out.append((rest.monic(), rest.degree))
    return out


DDF_FIELDS = {
    "F2": PrimeField(2),
    "F3": PrimeField(3),
    "F101": PrimeField(101),
    "F9": ExtensionField(3, [1, 0, 1]),
    "F256": ExtensionField(2, find_irreducible(2, 8)),
    "F(2^31-1)": PrimeField(2**31 - 1),
    "F(2^61-1)": PrimeField(2**61 - 1),
}


def random_squarefree_monic(field, rng, degree):
    while True:
        f = Polynomial(field, [field.random_element(rng) for _ in range(degree)] + [1])
        if f.gcd(f.derivative()).degree == 0:
            return f


def count_powers(field, monkeypatch) -> tuple[list, list]:
    """The exponents of every pow_mod, and the (modulus, q) of every frobenius_matrix call over field."""
    calls, matrices = [], []
    pow_mod = Polynomial.pow_mod
    monkeypatch.setattr(Polynomial, "pow_mod", lambda self, e, m: calls.append(e) or pow_mod(self, e, m))
    frobenius_matrix = field.kernels.frobenius_matrix
    monkeypatch.setattr(field.kernels, "frobenius_matrix",
                        lambda m, q, arg: matrices.append((m, q)) or frobenius_matrix(m, q, arg))
    return calls, matrices


@pytest.mark.parametrize("key", list(DDF_FIELDS))
def test_distinct_degree_matches_reference(key, monkeypatch):
    field = DDF_FIELDS[key]
    rng = random.Random(f"ddf:{key}")
    x = Polynomial.x(field)
    calls, matrices = count_powers(field, monkeypatch)
    cases = [x, x * (x + 1)] + [random_squarefree_monic(field, rng, rng.randint(1, 10)) for _ in range(15)]
    for f in cases:
        calls.clear()
        matrices.clear()
        got = factor._distinct_degree(f)
        # x^q is row 1 of the one Frobenius matrix: no pow_mod
        assert calls == []
        assert matrices == ([(f._data, field.order)] if f.degree >= 2 else [])
        want = reference_distinct_degree(f)
        assert got == want, (key, str(f))
        prod = Polynomial.one(field)
        for g, d in got:
            assert g.degree % d == 0
            prod = prod * g
        assert prod == f


def test_distinct_degree_powers_once_where_the_reference_does_not(F5, monkeypatch):
    x = Polynomial.x(F5)
    cubics = (x**3 + 3 * x + 3) * (x**3 + x + 1)
    f = (x + 1) * (x**2 + 2) * cubics  # the loop runs to d = 3
    calls, matrices = count_powers(F5, monkeypatch)
    got = factor._distinct_degree(f)
    assert calls == [] and matrices == [(f._data, 5)]
    calls.clear()
    assert reference_distinct_degree(f) == got == [(x + 1, 1), (x**2 + 2, 2), (cubics, 3)]
    assert calls == [5, 5, 5]


@pytest.mark.parametrize("p", [3, 101, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("d", [2, 3])
def test_products_of_equal_degree_irreducibles_factor_back(p, d):
    field = PrimeField(p)
    rng = random.Random(f"edf:{p}:{d}")
    available = (p**d - p) // d  # monic irreducibles of prime degree d
    for count in (2, 3, 4):
        irreducibles = set()
        while len(irreducibles) < min(count, available):
            coeffs = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            if _is_irreducible_mod_p(list(coeffs), field):
                irreducibles.add(coeffs)
        polys = sorted((Polynomial(field, list(c)) for c in irreducibles), key=Polynomial.sort_key)
        f = Polynomial.one(field)
        for g in polys:
            f = f * g
        assert [(g, m, c) for g, m, c in poly_factor(f).factors] == [(g, 1, True) for g in polys]


def test_equal_degree_split_powers_only_to_half_of_q_minus_1(F5, monkeypatch):
    x = Polynomial.x(F5)
    quadratics = (x**2 + 2) * (x**2 + 3)
    cubics = (x**3 + 3 * x + 3) * (x**3 + x + 1)
    f = (x + 1) * (x + 2) * quadratics * cubics
    calls, matrices = count_powers(F5, monkeypatch)
    fac = poly_factor(f)
    assert expand(fac) == f and len(fac.factors) == 6
    # x^q and its matrix in one call, then every split (degrees 1, 2 and 3) to (q-1)/2, not (q^d-1)/2
    assert matrices == [(f._data, 5)]
    assert len(calls) >= 3 and set(calls) == {2}


def test_one_frobenius_matrix_per_squarefree_part_of_degree_two_or_more(F5, monkeypatch):
    x = Polynomial.x(F5)
    quadratic, cubic = x**2 + 2, x**3 + x + 1
    f = (x + 1) ** 3 * quadratic**2 * cubic * (x + 4)
    calls, matrices = count_powers(F5, monkeypatch)
    assert expand(poly_factor(f)) == f
    # the parts are cubic * (x + 4), quadratic and x + 1; the last needs no matrix, and
    # each part has one irreducible factor per degree, so no equal-degree split powers
    assert matrices == [((cubic * (x + 4))._data, 5), (quadratic._data, 5)]
    assert calls == []


def test_degree_budget(F5):
    x = Polynomial.x(F5)
    assert expand(poly_factor(x**factor.DEGREE_BUDGET + 1)) == x**factor.DEGREE_BUDGET + 1
    with pytest.raises(DomainError, match="budget is degree 64"):
        poly_factor(x ** (factor.DEGREE_BUDGET + 1) + 1)
    with pytest.raises(DomainError):
        is_irreducible(x ** (factor.DEGREE_BUDGET + 1) + x + 1)


def test_rational_root_search_bound(Q):
    bound = factor.ROOT_SEARCH_BOUND
    below = Polynomial(Q, [-(bound - 1), 0, 1])
    assert poly_factor(below).certified()
    for coeffs in ([-2 * 10**24, 0, 1], [1, 0, bound], [-bound, 0, 0, 1]):
        with pytest.raises(DomainError, match="--factored"):
            poly_factor(Polynomial(Q, coeffs))
    # a linear polynomial needs no search, whatever its size
    linear = Polynomial(Q, [-3 * 10**30, 7])
    assert [(p, m) for p, m, _ in poly_factor(linear * linear).factors] == [(linear.monic(), 2)]
    # a declared factor the root search cannot reach stays an unproved claim
    assert is_irreducible(Polynomial(Q, [-2 * 10**24, 0, 1])) is None


def test_factors_in_polynomial_order(F7, Q):
    for field, coeffs in ((F7, [6, 0, 0, 1, 0, 0, 0, 0, 1]), (Q, [-6, 11, -6, 1, 0, 1])):
        f = Polynomial(field, coeffs)
        polys = [p for p, _, _ in poly_factor(f).factors]
        assert polys == sorted(polys, key=Polynomial.sort_key)


# -- one normalization per factorization, against the earlier chain ------------

EARLIER_FIELDS = {
    "F2": PrimeField(2),
    "F3": PrimeField(3),
    "F7": PrimeField(7),
    "F9": ExtensionField(3, [1, 0, 1]),
    "F256": ExtensionField(2, find_irreducible(2, 8)),
    "F101": PrimeField(101),
    "F(2^31-1)": PrimeField(2**31 - 1),
}


def recording_random(draws: list, made: list):
    """A random.Random that logs each seed it is made with and each randrange it returns."""

    class Recording(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

        def randrange(self, *args):
            value = super().randrange(*args)
            draws.append(value)
            return value

    return Recording


@st.composite
def products_with_repeated_factors(draw, field):
    """lead * prod(part_i^m_i) of degree <= 12, with m_i in 1, 2, 3 and p: repeated factors and p-th powers."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = field.characteristic
    f = Polynomial.constant(field, draw(st.sampled_from([c for c in (1, 2, 3) if c % p])))
    for _ in range(draw(st.integers(0, 3))):
        part = Polynomial(field, [field.random_element(rng) for _ in range(draw(st.integers(1, 5)))])
        m = draw(st.sampled_from([1, 2, 3, p]))
        if not part.is_zero() and f.degree + m * part.degree <= 12:
            f = f * part**m
    return f


@pytest.mark.parametrize("key", EARLIER_FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_factorization_and_its_draws_are_the_earlier_chains(key, data):
    """Equal factorizations and equal draws; f made monic once, and the generator seeded only when a split draws."""
    field = EARLIER_FIELDS[key]
    f = data.draw(products_with_repeated_factors(field))
    draws, made, monics = [], [], []
    monic = Polynomial.monic
    with mock.patch.object(factor, "random", SimpleNamespace(Random=recording_random(draws, made))), \
            mock.patch.object(Polynomial, "monic", lambda self: monics.append(self) or monic(self)):
        got = poly_factor(f)
    earlier_draws = []
    assert got == earlier_poly_factor(f, recording_random(earlier_draws, [])(factor.SEED)), str(f)
    assert draws == earlier_draws
    assert made == ([(factor.SEED,)] if draws else [])
    assert monics == [f]


def test_the_earlier_chain_draws_where_a_split_needs_it(F5):
    """The draws the comparison above checks are there to check: products of equal-degree factors split."""
    x = Polynomial.x(F5)
    for f in ((x + 1) * (x + 2) * (x + 3), (x**2 + 2) * (x**2 + 3) * (x + 4) ** 5):
        draws, made = [], []
        with mock.patch.object(factor, "random", SimpleNamespace(Random=recording_random(draws, made))):
            assert expand(poly_factor(f)) == f
        earlier = []
        earlier_poly_factor(f, recording_random(earlier, [])(factor.SEED))
        assert len(draws) >= 2 * f.degree // 3 and draws == earlier and len(made) == 1


@pytest.mark.parametrize("key", ["Q", *EARLIER_FIELDS])
def test_a_linear_polynomial_is_its_own_factor(key, monkeypatch):
    field = QQ if key == "Q" else EARLIER_FIELDS[key]
    stages = ("_squarefree", "_factor_rational", "_rational_roots")
    for name in stages:
        monkeypatch.setattr(factor, name, lambda *args: pytest.fail("a stage ran on a linear polynomial"))
    for coeffs in ([0, 1], [1, 1], [field.from_int(3), field.from_int(5)]):
        f = Polynomial(field, coeffs)
        if f.degree != 1:
            continue
        fac = poly_factor(f)
        assert fac.factors == ((f.monic(), 1, True),) and fac.lead == f.leading_coefficient()
        assert is_irreducible(f) is True
