import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity import fields
from reciprocity._kernels import generic, pure
from reciprocity.artinian import ArtinianAlgebra, dual_numbers
from reciprocity.errors import NonUnitError, TowerError
from reciprocity.fields import (
    QQ,
    TABLE_MAX_ORDER,
    ExtensionField,
    PrimeField,
    RationalField,
    find_irreducible,
    is_prime,
    lift,
)
from reciprocity.parsing import parse_ring_spec, parse_series
from reciprocity.poly import Polynomial
from support import TupleField, earlier_artinian_str, earlier_extension_str, is_prime_all_bases


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(65537)
    assert not is_prime(1) and not is_prime(91) and not is_prime(2**16)
    # the smallest strong pseudoprimes to the first 12 and 13 prime bases
    assert not is_prime(318665857834031151167461)
    assert not is_prime(fields.PRIME_TEST_BOUND)
    assert is_prime(2**61 - 1) and is_prime(18446744073709551629)
    with pytest.raises(ValueError):
        PrimeField(6)


# psi_k of OEIS A014233: the least odd composite that is a strong pseudoprime
# to each of the first k prime bases
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
       341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
       318665857834031151167461, 3317044064679887385961981)
PRIMES = (2, 3, 5, 7, 43, 47, 101, 65537, 2**31 - 1, 10**12 + 39, 2**61 - 1, 18446744073709551629)


def strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def test_primality_rejects_every_psi_k():
    """psi_k passes the first k bases, so is_prime must run at least k + 1 below psi_(k+1)."""
    assert PSI[-1] == fields.PRIME_TEST_BOUND
    for k, n in enumerate(PSI, 1):
        assert all(strong_probable_prime(n, a) for a in fields._MR_WITNESSES[:k]), k
        assert not is_prime(n) and not is_prime_all_bases(n), k


def next_prime(n: int) -> int:
    while not is_prime_all_bases(n):
        n += 1
    return n


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(
    st.integers(-2, 10**6),
    st.integers(0, fields.PRIME_TEST_BOUND - 1),
    st.integers(2, fields.PRIME_TEST_BOUND - 10**4).map(next_prime),
    st.sampled_from(PRIMES + PSI).flatmap(lambda n: st.integers(n - 4, n + 4)),
))
def test_primality_matches_all_fourteen_bases(n):
    assert is_prime(n) == is_prime_all_bases(n)


def test_primality_of_known_primes_and_every_n_below_2_to_17():
    """Below 2^17 one or two bases run; the strong pseudoprimes to base 3 alone, such as 12403, are among these n."""
    assert all(is_prime(p) for p in PRIMES)
    assert [n for n in range(-2, 2**17) if is_prime(n) != is_prime_all_bases(n)] == []


def test_rational_elements():
    a = QQ.coerce(Fraction(3, 2))
    b = QQ.from_int(2)
    assert a + b == Fraction(7, 2)
    assert (a / b).data == Fraction(3, 4)
    assert str(a) == "3/2"
    assert (-a).data == Fraction(-3, 2)
    with pytest.raises(NonUnitError):
        QQ.zero().inverse()


def test_prime_field_arith(F7):
    a, b = F7.from_int(3), F7.from_int(5)
    assert a + b == 1
    assert a * b == 1
    assert a.inverse() == b
    assert a ** (-1) == b
    assert (a - b) == F7.from_int(-2)


def test_extension_field_requires_irreducible():
    with pytest.raises(ValueError):
        ExtensionField(3, [2, 0, 1])  # x^2 + 2 = (x-1)(x+1) over F3
    with pytest.raises(ValueError):
        ExtensionField(5, [0, 0, 1])  # x^2 not monic-irreducible
    F9 = ExtensionField(3, [1, 0, 1])
    u = F9.generator()
    assert u * u == F9.from_int(-1)
    assert (u + 1) * (u + 1) == 2 * u
    assert u.inverse() * u == F9.one()


def test_rabins_test_runs_once_per_modulus(monkeypatch):
    """Building a field twice tests its modulus once; a reducible modulus is refused every time."""
    cases = ((3, [2, 2, 0, 1]), (2, find_irreducible(2, 8)), (101, [99, 0, 1]))  # 2 is no square mod 101
    calls = []
    rabin = fields._is_irreducible_mod_p
    monkeypatch.setattr(fields, "_is_irreducible_mod_p", lambda coeffs, fp: calls.append(coeffs) or rabin(coeffs, fp))
    fields._is_irreducible_modulus.cache_clear()
    for p, modulus in cases:
        assert ExtensionField(p, modulus).modulus == ExtensionField(p, modulus).modulus == tuple(modulus)
        assert calls == [modulus]
        calls.clear()
    for _ in range(3):
        with pytest.raises(ValueError):
            ExtensionField(3, [1, 0, 0, 1])  # x^3 + 1 = (x + 1)^3 over F3
    assert calls == [[1, 0, 0, 1]]


def test_find_irreducible_runs():
    for p, d in ((2, 2), (2, 3), (3, 2), (5, 3)):
        m = find_irreducible(p, d)
        assert len(m) == d + 1 and m[-1] == 1
        ExtensionField(p, m)  # constructor re-checks irreducibility


def test_lift_chain(F3, F9):
    a = F3.from_int(2)
    lifted = lift(a, F9)
    assert lifted.ring == F9 and lifted == F9.from_int(2)
    A = ArtinianAlgebra(F9, [("e", 2)])
    deep = lift(a, A)
    assert deep.ring == A
    with pytest.raises(TowerError):
        lift(F9.generator(), F3)


def test_artinian_truncation():
    A = ArtinianAlgebra(QQ, [("e1", 2), ("e2", 3)])
    e1, e2 = A.generator(0), A.generator(1)
    assert e1 * e1 == A.zero()
    assert e2 * e2 * e2 == A.zero()
    assert not (e2 * e2).is_zero()
    assert A.dimension == 6
    assert A.nil_index == 4
    assert A.residue(e1 + e2 * e2).is_zero()
    assert not A.residue(A.one() + e1).is_zero()


def test_algebras_of_one_shape_share_their_tables():
    """The structure tables depend on the generator orders alone, not on the base or the names."""
    A = ArtinianAlgebra(QQ, [("e", 3), ("d", 2)])
    B = ArtinianAlgebra(ExtensionField(3, [1, 0, 1]), [("a", 3), ("b", 2)])
    for table in ("_monomials", "_index", "monomial_products", "generator_monomials", "_table", "_str_order"):
        assert getattr(A, table) is getattr(B, table), table
    assert ArtinianAlgebra(QQ, [("e", 2), ("d", 3)]).monomial_products is not A.monomial_products
    assert dual_numbers(QQ)._table is dual_numbers(PrimeField(7))._table is dual_numbers(QQ)._table


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 8), min_size=1, max_size=6).filter(lambda orders: math.prod(orders) <= 64))
def test_monomial_products_match_a_brute_force_product(orders):
    A = ArtinianAlgebra(QQ, [(f"e{i}", o) for i, o in enumerate(orders)])
    monomials = list(itertools.product(*(range(o) for o in orders)))
    assert list(A._monomials) == monomials
    for i, a in enumerate(monomials):
        for j, b in enumerate(monomials):
            product = tuple(x + y for x, y in zip(a, b))
            want = monomials.index(product) if all(x < o for x, o in zip(product, orders)) else None
            assert A.monomial_products[i][j] == want
    assert [monomials[m] for m in A.generator_monomials] == [
        tuple(int(i == g) for i in range(len(orders))) for g in range(len(orders))]


def test_artinian_inverse_and_errors():
    A = dual_numbers(QQ)
    e1, e2 = A.generator(0), A.generator(1)
    x = A.one() + 2 * e1 + 3 * e2 + e1 * e2
    assert x * x.inverse() == A.one()
    with pytest.raises(NonUnitError):
        (e1 + e2).inverse()
    y = A.from_int(2) + e1
    assert y * y.inverse() == A.one()


def test_artinian_over_extension(F9):
    A = ArtinianAlgebra(F9, [("e", 2)])
    u = lift(F9.generator(), A)
    e = A.generator("e")
    x = A.one() + u * e
    assert x * x.inverse() == A.one()
    assert A.residue(x) == F9.one()


def test_element_equality_and_hash(F5):
    a = F5.from_int(7)
    assert a == 2 and 2 == a
    assert hash(a) == hash(F5.from_int(2))
    s = {a, F5.from_int(2), F5.from_int(3)}
    assert len(s) == 2
    assert F5.from_int(1) != QQ.from_int(1)


def test_element_str_round_shape(F9):
    u = F9.generator()
    assert str(u + 2) == "u + 2"
    A = ArtinianAlgebra(QQ, [("e1", 2), ("e2", 2)])
    x = A.one() + A.generator(0) * A.generator(1)
    assert str(x) == "1 + e1*e2"
    y = A.one() - 3 * A.generator(0)
    assert str(y) == "1 - 3*e1"


def test_random_elements_live_in_ring(rng, F9):
    A = ArtinianAlgebra(F9, [("a", 3)])
    for _ in range(20):
        x = A.random_element(rng)
        assert x.ring == A
        y = F9.random_element(rng)
        assert y.ring == F9


ARTINIAN_BASES = {"Q": QQ, "F7": PrimeField(7), "F9": ExtensionField(3, [1, 0, 1])}
ARTINIAN_SHAPES = [[("e", 2)], [("e1", 2), ("e2", 2)], [("a", 3), ("b", 2)]]


def _base_elements(base):
    if base == QQ:
        return st.fractions(min_value=-9, max_value=9, max_denominator=9).map(QQ.coerce)
    ints = st.integers(0, base.characteristic - 1)
    if isinstance(base, ExtensionField):
        u = base.generator()
        return st.tuples(ints, ints).map(lambda t: t[0] + t[1] * u)
    return ints.map(base.from_int)


def _naive_mul(A, x, y):
    """Product through exponent dicts, truncating at the generator orders."""
    monos = list(itertools.product(*(range(o) for o in A.orders)))
    out = {}
    for m1, a in zip(monos, A.coordinates(x)):
        for m2, b in zip(monos, A.coordinates(y)):
            e = tuple(i + j for i, j in zip(m1, m2))
            if all(i < o for i, o in zip(e, A.orders)):
                out[e] = out.get(e, A.base.zero()) + a * b
    return A.from_coordinates([out.get(m, A.base.zero()) for m in monos])


@pytest.mark.parametrize("shape", ARTINIAN_SHAPES, ids=lambda s: ",".join(n for n, _ in s))
@pytest.mark.parametrize("base_name", sorted(ARTINIAN_BASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_artinian_ring_laws(base_name, shape, data):
    A = ArtinianAlgebra(ARTINIAN_BASES[base_name], shape)
    coords = st.lists(_base_elements(A.base), min_size=A.dimension, max_size=A.dimension)
    x, y, z = (A.from_coordinates(data.draw(coords)) for _ in range(3))
    assert x * y == _naive_mul(A, x, y)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x and x + (-x) == A.zero()
    nilpotent = x - A.embed_from_below(A.residue(x))
    with pytest.raises(NonUnitError):
        nilpotent.inverse()
    assert nilpotent ** A.nil_index == A.zero()
    if not A.residue(x).is_zero():
        assert x * x.inverse() == A.one()
    assert parse_series(str(x), A).coefficient(0) == x


@pytest.mark.parametrize("base_name", sorted(ARTINIAN_BASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_artinian_elements_print_as_before(base_name, data):
    """``_str`` through ``format_terms`` gives the string of the loop that joined signs itself."""
    base = ARTINIAN_BASES[base_name]
    orders = data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    A = ArtinianAlgebra(base, [(f"e{i}", o) for i, o in enumerate(orders)])
    coords = st.lists(st.one_of(st.just(base.zero()), _base_elements(base)),
                      min_size=A.dimension, max_size=A.dimension)
    x = A.from_coordinates(data.draw(coords))
    assert str(x) == earlier_artinian_str(A, x.data)


# fields of every data format: Fraction, int (below and above 2^64), table
# logs (F9, and F256 in characteristic 2) and tuples (F729), and Artinian
# rings over three of them
MUL_ADD_FIELDS = ["Q", "F7", "F18446744073709551629", "F9:u^2+1", "F256", "F729"]
MUL_ADD_RINGS = MUL_ADD_FIELDS + ["Q[e,d]/(e^3,d^2)", "F7[e,d]/(e^3,d^2)", "F9[e1,e2]/(e1^2,e2^2)"]


@pytest.mark.parametrize("spec", MUL_ADD_RINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_add_is_the_sum_of_the_product(spec, data):
    """The fused raw op of every ring: ``_mul_add(acc, a, b) == _add(acc, _mul(a, b))``, zeros included."""
    ring = parse_ring_spec(spec)
    rng = data.draw(st.randoms(use_true_random=False))
    acc, a, b = (ring.zero() if data.draw(st.integers(0, 4)) == 0 else ring.random_element(rng) for _ in range(3))
    if isinstance(ring, ArtinianAlgebra):
        # sparse coordinates take the loop's zero skips
        a = ring.from_coordinates([c if rng.random() < 0.5 else 0 for c in ring.coordinates(a)])
    assert ring._mul_add(acc.data, a.data, b.data) == ring._add(acc.data, ring._mul(a.data, b.data))


@pytest.mark.parametrize("ring", [PrimeField(101), RationalField(), ExtensionField(3, [1, 0, 1])], ids=repr)
def test_power_multiplications(ring, monkeypatch):
    x = ring.coerce(Fraction(3, 2)) if ring == QQ else ring.from_int(3)
    if isinstance(ring, ExtensionField):
        x = x + ring.generator()
    expected = {}
    for e in (1, 2, 3, 5, 8, 13, 100, -7):
        base = x if e > 0 else x.inverse()
        value = base
        for _ in range(abs(e) - 1):
            value = value * base
        expected[e] = value
    calls = []
    original = ring._mul

    def counting(a, b):
        calls.append(a)
        return original(a, b)

    monkeypatch.setattr(ring, "_mul", counting)
    for e, value in expected.items():
        calls.clear()
        assert x**e == value
        assert len(calls) <= 2 * math.log2(abs(e))
    expected[0] = ring.one()
    for e, count in ((0, 0), (1, 0), (2, 1)):
        calls.clear()
        assert x**e == expected[e]
        assert len(calls) == count
    with pytest.raises(NonUnitError):
        ring.zero() ** -1


TABLE_FIELDS = {q: ExtensionField(p, find_irreducible(p, d))
                for q, p, d in ((4, 2, 2), (8, 2, 3), (9, 3, 2), (243, 3, 5), (256, 2, 8))}


@pytest.mark.parametrize("q", sorted(TABLE_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_log_tables_match_the_kernels(q, data):
    F = TABLE_FIELDS[q]
    p, m = F.p, list(F.modulus)
    elems = st.tuples(*[st.integers(0, p - 1)] * F.degree)
    a, b = data.draw(elems), data.draw(elems)
    la, lb = F._from_tuple(a), F._from_tuple(b)
    assert F._canonical(la) == a and F._canonical(lb) == b
    ka, kb = pure.normalize(list(a)), pure.normalize(list(b))
    pad = TupleField(p, m)._pad
    assert F._canonical(F._mul(la, lb)) == pad(pure.mulmod(ka, kb, m, p))
    assert F._canonical(F._add(la, lb)) == pad(pure.add(ka, kb, p))
    assert F._canonical(F._sub(la, lb)) == pad(pure.sub(ka, kb, p))
    assert F._canonical(F._neg(la)) == pad(pure.sub([], ka, p))
    assert F._is_zero(la) == (not any(a)) and F._is_invertible(la) == any(a)
    if any(a):
        assert F._canonical(F._inv(la)) == pad(pure.invmod(ka, m, p))
    else:
        with pytest.raises(NonUnitError, match=f"division by zero in F{q}"):
            F._inv(la)
        with pytest.raises(NonUnitError):
            F.from_coordinates(a).inverse()


@pytest.mark.parametrize("q", sorted(TABLE_FIELDS))
def test_log_tables_are_a_bijection(q):
    F = TABLE_FIELDS[q]
    log, exp, zech = fields._log_tables(F.p, F.modulus)
    n = q - 1
    assert len(exp) == len(zech) == n
    nonzero = {tuple(code // F.p**i % F.p for i in range(F.degree)) for code in range(1, q)}
    assert set(exp) == nonzero and len(nonzero) == n
    assert all(log[t] == i for i, t in enumerate(exp))
    assert F._zero is None and F._one == 0 and F.from_int(0).data is None and F.from_int(1).data == 0
    assert exp[0] == F._canonical(F._one) and F._canonical(F._zero) == (0,) * F.degree
    # g, of log 1, is the first nonconstant element in base-p order that generates
    for code in range(F.p, F.p**F.degree):
        t = tuple(code // F.p**i % F.p for i in range(F.degree))
        if len({F._canonical(F._from_tuple(t) * k % n) for k in range(n)}) == n:
            break
    assert exp[1] == t


@pytest.mark.parametrize("q", sorted(TABLE_FIELDS))
def test_every_table_element_prints_as_before(q):
    """The one printer of both formats writes each element of a table field as the sorted-terms printer did."""
    F = TABLE_FIELDS[q]
    tuples = TupleField(F.p, F.modulus)
    elements = [None, *range(q - 1)]
    for a in elements:
        t = F._canonical(a)
        assert F._str(a) == earlier_extension_str(F, a) == tuples._str(t)
    assert len({F._str(a) for a in elements}) == q


F625 = ExtensionField(5, find_irreducible(5, 4))


@settings(max_examples=80, deadline=None)
@given(coords=st.tuples(*[st.integers(0, 4)] * 4))
def test_tuple_field_elements_print_as_before(coords):
    F = F625
    assert type(F) is ExtensionField and F.order == 625
    a = F.from_coordinates(coords).data
    assert F._str(a) == earlier_extension_str(F, a)


def test_log_tables_rebuild_to_the_same_logs():
    tables = {q: fields._log_tables(F.p, F.modulus) for q, F in TABLE_FIELDS.items()}
    fields._log_tables.cache_clear()
    for q, F in TABLE_FIELDS.items():
        again = ExtensionField(F.p, F.modulus)
        rebuilt = fields._log_tables(F.p, F.modulus)
        assert rebuilt is not tables[q] and rebuilt == tables[q]
        u, v = F.generator(), again.generator()
        assert (u + 1).data == (v + 1).data and (u * u - 1).data == (v * v - 1).data
        assert Polynomial(F, [u, 1]) == Polynomial(again, [v, 1])


@pytest.mark.parametrize("p, d", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 5), (2, 8)],
                         ids=["F4", "F8", "F9", "F25", "F243", "F256"])
def test_zech_table_is_the_log_of_one_plus(p, d):
    F = ExtensionField(p, find_irreducible(p, d))
    T = TupleField(p, F.modulus)
    log, exp, zech = fields._log_tables(p, F.modulus)
    n = F.order - 1
    assert F._zech is zech and len(zech) == n
    minus_one = log[T._neg(T._one)]
    assert F._neg1 == minus_one
    for k, z in enumerate(zech):
        one_plus = T._add(T._one, exp[k])
        if k == minus_one:
            assert z is None and not any(one_plus)
        else:
            assert exp[z] == one_plus


@pytest.mark.parametrize("q", [4, 8, 9])
def test_log_ring_ops_are_the_field_ops(q):
    F = TABLE_FIELDS[q]
    T = TupleField(F.p, F.modulus)
    elements = [T._zero] + fields._log_tables(F.p, F.modulus)[1]

    for a in elements:
        ka = F._from_tuple(a)
        assert F._is_zero(ka) == T._is_zero(a) and F._is_invertible(ka) == T._is_invertible(a)
        assert F._canonical(F._neg(ka)) == T._neg(a)
        if any(a):
            assert F._canonical(F._inv(ka)) == T._inv(a)
        else:
            for ring, x in ((F, ka), (T, a)):
                with pytest.raises(NonUnitError, match=f"division by zero in F{q}"):
                    ring._inv(x)
        for b in elements:
            kb = F._from_tuple(b)
            assert F._canonical(F._add(ka, kb)) == T._add(a, b)
            assert F._canonical(F._sub(ka, kb)) == T._sub(a, b)
            assert F._canonical(F._mul(ka, kb)) == T._mul(a, b)


@pytest.mark.parametrize("q", sorted(TABLE_FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_table_fields_print_hash_and_sort_as_tuples(q, data):
    F = TABLE_FIELDS[q]
    T = TupleField(F.p, F.modulus)
    coords = st.lists(st.tuples(*[st.integers(0, F.p - 1)] * F.degree), max_size=4)
    a, b = data.draw(coords), data.draw(coords)
    for x, y in zip(a, b):
        ex, ey, tx, ty = F.from_coordinates(x), F.from_coordinates(y), T.from_coordinates(x), T.from_coordinates(y)
        assert type(ex.data) is not tuple and tx.data == x
        assert str(ex) == str(tx) and hash(ex) == hash(tx) and (ex == ey) == (tx == ty)
        assert [c.data for c in F.coordinates(ex)] == list(x)
    pa, pb = Polynomial(F, [F.from_coordinates(c) for c in a]), Polynomial(F, [F.from_coordinates(c) for c in b])
    ta, tb = Polynomial(T, [T.from_coordinates(c) for c in a]), Polynomial(T, [T.from_coordinates(c) for c in b])
    assert str(pa) == str(ta) and hash(pa) == hash(ta) and pa.sort_key() == ta.sort_key()
    assert (pa == pb) == (ta == tb) and (pa.sort_key() < pb.sort_key()) == (ta.sort_key() < tb.sort_key())
    assert str(pa * pb) == str(ta * tb) and (pa * pb).sort_key() == (ta * tb).sort_key()


def _no_tables(p, modulus):
    raise AssertionError("a log table was built")


def _field_without_tables(p, d):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_log_tables", _no_tables)
        return ExtensionField(p, find_irreducible(p, d))


@pytest.mark.parametrize("p, d", [(2, 9), (257, 2), (2**31 - 1, 2)], ids=["F512", "F257^2", "F(2^31-1)^2"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_large_fields_keep_the_kernels(p, d, data):
    F = _field_without_tables(p, d)
    assert F.order > TABLE_MAX_ORDER and type(F) is ExtensionField
    assert F.kernels is generic and F.kernel_arg is F
    x = F.from_coordinates(data.draw(st.tuples(*[st.integers(0, p - 1)] * d).filter(any)))
    assert x.data == F._canonical(x.data)
    assert x * x.inverse() == F.one()
    with pytest.raises(NonUnitError):
        F.zero().inverse()


@pytest.mark.parametrize("p, d", [(3, 2), (2, 8)], ids=["F9", "F256"])
def test_fields_up_to_the_threshold_build_tables(p, d):
    with pytest.raises(AssertionError, match="log table"):
        _field_without_tables(p, d)


@pytest.mark.parametrize("modulus, message", [([1, 1], "degree >= 2"), ([1, 0, 2], "monic"),
                                              ([1, 2, 1], "not irreducible")],
                         ids=["degree-1", "non-monic", "reducible"])
def test_bad_moduli_fail_before_a_table_is_built(modulus, message):
    # each modulus is over F3 and of degree at most 2, so F3[u]/(m) would get tables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_log_tables", _no_tables)
        with pytest.raises(ValueError, match=message):
            ExtensionField(3, modulus)
