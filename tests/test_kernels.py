"""The compiled kernels must agree with the pure-Python reference exactly,
the packed pure kernels with the schoolbook loops they replaced, and the
``generic`` kernels on the discrete logs of a table field with the same
kernels on the tuple format of that field."""

import copy
import inspect
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity import _kernels as kernels
from reciprocity._kernels import generic, pure
from reciprocity.artinian import ArtinianAlgebra
from reciprocity.factor import DEGREE_BUDGET
from reciprocity.errors import NonUnitError
from reciprocity.fields import QQ, TABLE_MAX_ORDER, ExtensionField, PrimeField, TableField, find_irreducible
from reciprocity.parsing import parse_ring_spec
from reciprocity.poly import Polynomial
from support import (RAW_DATA_SPECS, TupleField, earlier_divmod_poly, earlier_gcd, earlier_invmod, earlier_monic,
                     earlier_powmod, leibniz_det, loop_divmod_poly, loop_frobenius_matrix, loop_gcd, loop_invmod, loop_mul,
                     loop_powmod, row_frobenius_matrix, xgcd_invmod)

try:
    from reciprocity._kernels import _core as core
except ImportError:  # pragma: no cover - environment without the extension
    core = None

needs_core = pytest.mark.skipif(core is None, reason="compiled kernels not built")


def random_poly(rng, p, max_deg=8):
    return pure.normalize([rng.randrange(p) for _ in range(rng.randint(0, max_deg + 1))])


@needs_core
@pytest.mark.parametrize("p", [2, 3, 5, 7, 65537])
def test_poly_ops_agree(p):
    rng = random.Random(p)
    for _ in range(200):
        a = random_poly(rng, p)
        b = random_poly(rng, p)
        assert core.add(a, b, p) == pure.add(a, b, p)
        assert core.sub(a, b, p) == pure.sub(a, b, p)
        assert core.mul(a, b, p) == pure.mul(a, b, p)
        if b:
            assert core.divmod_poly(a, b, p) == pure.divmod_poly(a, b, p)
            assert core.rem(a, b, p) == pure.rem(a, b, p)
            assert core.gcd(a, b, p) == pure.gcd(a, b, p)


@needs_core
@pytest.mark.parametrize("p", [3, 7, 31])
def test_modular_inverse_chain_agree(p):
    rng = random.Random(11 * p)
    m = pure.normalize([rng.randrange(p) for _ in range(4)] + [1])
    for _ in range(100):
        a = random_poly(rng, p, 3)
        try:
            expected = pure.invmod(a, m, p)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                core.invmod(a, m, p)
            continue
        assert core.invmod(a, m, p) == expected
        assert core.powmod(a, 2 * p + 1, m, p) == pure.powmod(a, 2 * p + 1, m, p)
        assert core.mulmod(a, a, m, p) == pure.mulmod(a, a, m, p)


@needs_core
@pytest.mark.parametrize("p", [2, 5, 13])
def test_matrix_ops_agree(p):
    rng = random.Random(p + 99)
    for n in (1, 2, 3, 5, 8):
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        b = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        assert core.mat_mul(a, b, p) == pure.mat_mul(a, b, p)
        assert core.mat_det(a, p) == pure.mat_det(a, p)


def test_backend_is_the_built_one():
    assert kernels.BACKEND == ("python" if core is None else "compiled")


def repeated_mulmod(mulmod, invmod, one, a, e, m, arg):
    """a^e mod m by |e| products, the definition the powering loops must meet."""
    if e < 0:
        a, e = invmod(a, m, arg), -e
    out = one
    for _ in range(e):
        out = mulmod(out, a, m, arg)
    return out


def power_exponents(q):
    exps = {0, 1, 2, 3, -1, -2, -5}
    for k in (4, 5, 6):
        exps |= {2**k, 2**k - 1}
    if q is not None:
        exps |= {q, (q - 1) // 2, -q}
    return sorted(exps)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_pure_powmod_is_repeated_mulmod(p):
    rng = random.Random(31 * p)
    m = pure.normalize([rng.randrange(p) for _ in range(3)] + [1])
    for _ in range(20):
        a = random_poly(rng, p, 4)
        for e in power_exponents(p):
            try:
                want = repeated_mulmod(pure.mulmod, pure.invmod, pure.rem([1], m, p), a, e, m, p)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    pure.powmod(a, e, m, p)
                continue
            assert pure.powmod(a, e, m, p) == want, (a, e)


@pytest.mark.parametrize("ring", [ExtensionField(3, [1, 0, 1]), QQ], ids=["F9", "Q"])
def test_generic_powmod_is_repeated_mulmod(ring):
    rng = random.Random(repr(ring))

    def mulmod(a, b, m, r):
        return generic.divmod_poly(generic.mul(a, b, r), m, r)[1]

    def poly(degree):
        return generic._normalize([ring.random_element(rng).data for _ in range(degree + 1)], ring)

    m = poly(2) + [ring._one]
    one = generic.divmod_poly([ring._one], m, ring)[1]
    for _ in range(8):
        a = poly(rng.randint(0, 3))
        for e in power_exponents(getattr(ring, "order", None)):
            try:
                want = repeated_mulmod(mulmod, generic.invmod, one, a, e, m, ring)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    generic.powmod(a, e, m, ring)
                continue
            assert generic.powmod(a, e, m, ring) == want, (a, e)


GENERIC_INVMOD_RINGS = {spec: parse_ring_spec(spec) for spec in ("F9", "F256", "Q")}


@pytest.mark.parametrize("spec", sorted(GENERIC_INVMOD_RINGS))
@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), degrees=st.tuples(st.integers(-1, 6), st.integers(0, 5), st.integers(1, 3)))
def test_generic_invmod_matches_the_full_extended_euclid(spec, rng, degrees):
    """Cofactor-only Euclid against the xgcd-based body it replaced: inputs that are invertible, that share
    a factor with the modulus, zero, constant, of higher degree than the modulus, and constant moduli."""
    ring = GENERIC_INVMOD_RINGS[spec]

    def poly(degree):
        coeffs = [ring._zero if rng.random() < 0.3 else ring.random_element(rng).data for _ in range(degree)]
        return coeffs + [ring.random_element(rng).data] if degree >= 0 else []

    a, m, common = (generic._normalize(poly(d), ring) for d in degrees)
    m = m or [ring._one]
    cases = [(a, m), (generic.mul(a, common, ring), generic.mul(m, common, ring)), ([], m), ([ring._one], m),
             (a, [ring._one]), (generic.mul(a, m, ring), m), (generic.add(generic.mul(m, common, ring), a, ring), m)]
    for x, mod in cases:
        if not mod:
            continue
        got = outcome(generic.invmod, (x, mod, ring))
        assert got == outcome(xgcd_invmod, (x, mod, ring)), (x, mod)
        if got is not ZeroDivisionError and len(mod) > 1:
            assert generic.divmod_poly(generic.mul(x, got, ring), mod, ring)[1] == [ring._one]


@needs_core
@pytest.mark.parametrize("p", [2, 65537, 2**31 - 1])
def test_core_powmod_agrees_with_pure(p):
    rng = random.Random(p)
    exps = [0, 1, 2, 3, 2**31, 2**31 - 1, p, (p - 1) // 2, -1, -p]
    for _ in range(20):
        m = pure.normalize([rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1])
        a = random_poly(rng, p, 6)
        for e in exps:
            try:
                want = pure.powmod(a, e, m, p)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    core.powmod(a, e, m, p)
                continue
            assert core.powmod(a, e, m, p) == want, (a, e, m)


def test_primes_above_pmax_never_reach_core():
    assert kernels.PMAX == 2**31 - 1
    assert PrimeField(2**31 - 1).kernels is kernels
    assert PrimeField(2**61 - 1).kernels is pure
    assert PrimeField(2**61 - 1).kernel_arg == 2**61 - 1


def test_generic_kernels_build_no_elements(monkeypatch):
    ring = ExtensionField(3, [1, 0, 1])

    def no_elements():
        raise AssertionError("built an element for a constant")

    monkeypatch.setattr(ring, "zero", no_elements)
    monkeypatch.setattr(ring, "one", no_elements)
    u = ring.generator().data
    a, m = [u, ring._one, u], [ring._one, ring._zero, ring._one]
    generic.mul(a, a, ring)
    generic.divmod_poly(a, m, ring)
    generic.rem(a, m, ring)
    generic.powmod(a, 10, m, ring)
    generic.frobenius_matrix(m, 9, ring)
    generic.invmod(a, m, ring)
    matrix = [[u, ring._one], [ring._zero, u]]
    generic.mat_mul(matrix, matrix, ring)
    generic.mat_det(matrix, ring)


# rings whose matrices, with entries mostly in the maximal ideal (zero over a
# field), leave the unit-pivot elimination for the division-free block
DET_RINGS = {spec: parse_ring_spec(spec) for spec in
             ("F7[e]/(e^3)", "F7[e,d]/(e^3,d^2)", "Q[a,b]/(a^2,b^2)", "F9[e]/(e^2)", "F7", "Q")}


@pytest.mark.parametrize("spec", sorted(DET_RINGS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(0, 6), unit_share=st.sampled_from([0.0, 0.15, 0.5]))
def test_generic_mat_det_matches_leibniz(spec, seed, n, unit_share):
    ring, rng = DET_RINGS[spec], random.Random(seed)

    def entry():
        x = ring.random_element(rng).data
        if rng.random() < unit_share:
            return x
        return (ring.base._zero,) + x[1:] if isinstance(ring, ArtinianAlgebra) else ring._zero

    a = [[entry() for _ in range(n)] for _ in range(n)]
    kept = copy.deepcopy(a)
    assert generic.mat_det(a, ring) == leibniz_det(a, ring), a
    assert a == kept


def test_generic_mat_det_of_a_nilpotent_scalar_matrix():
    """e*I, 12 x 12 over F7[e]/(e^13), has no unit pivot anywhere and determinant e^12."""
    ring = parse_ring_spec("F7[e]/(e^13)")
    e = ring.generator(0)
    a = [[e.data if i == j else ring._zero for j in range(12)] for i in range(12)]
    assert generic.mat_det(a, ring) == (e ** 12).data


def test_generic_mat_det_of_a_zero_column_is_zero_at_once():
    """32 x 32 over Q with a zero first column: 0, by no division-free block (about 2 s before)."""
    rng = random.Random(32)
    a = [[Fraction(0)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(31)] for _ in range(32)]
    start = time.perf_counter()
    det = generic.mat_det(a, QQ)
    assert time.perf_counter() - start < 0.1
    assert det == QQ._zero


def kernel_calls(p):
    """Kernel name -> strategy of its full argument tuples at p.

    A polynomial may be empty or carry trailing zeros, which both backends
    read as the normalized list; a modulus is monic or any such list.
    """
    coeff = st.integers(0, p - 1)
    poly = st.builds(lambda c, zeros: c + [0] * zeros, st.lists(coeff, max_size=9), st.integers(0, 2))
    modulus = st.one_of(st.lists(coeff, min_size=1, max_size=5).map(lambda c: c + [1]), poly)
    exponent = st.one_of(st.integers(-3, 64),
                         st.sampled_from([p, p - 1, (p - 1) // 2, -p, 2**31, 2**64 + 1, 2**100 - 1, -(2**70 + 3)]))

    def matrix(rows, cols):
        return st.lists(st.lists(coeff, min_size=cols, max_size=cols), min_size=rows, max_size=rows)

    def square():
        """one n x n matrix, 0 <= n <= 5."""
        return st.integers(0, 5).flatmap(lambda n: st.tuples(matrix(n, n)))

    def product():
        """an n x k and a k x m matrix, 0 <= n, k, m <= 4; with k = 0 the second is [], so m is 0."""
        return st.tuples(*[st.integers(0, 4)] * 3).flatmap(
            lambda nkm: st.tuples(matrix(nkm[0], nkm[1]), matrix(nkm[1], nkm[2])))

    with_p = {
        "add": st.tuples(poly, poly),
        "sub": st.tuples(poly, poly),
        "mul": st.tuples(poly, poly),
        "divmod_poly": st.tuples(poly, poly),
        "rem": st.tuples(poly, poly),
        "monic": st.tuples(poly),
        "gcd": st.tuples(poly, poly),
        "invmod": st.tuples(poly, modulus),
        "mulmod": st.tuples(poly, poly, modulus),
        "powmod": st.tuples(poly, exponent, modulus),
        "frobenius_matrix": st.tuples(modulus, st.one_of(st.integers(1, 64), st.sampled_from([p, p**2, 2**64 + 1]))),
        "mat_mul": product(),
        "mat_det": square(),
    }
    calls = {name: args.map(lambda t: (*t, p)) for name, args in with_p.items()}
    calls["normalize"] = st.tuples(st.lists(coeff, max_size=9))
    return calls


def test_kernel_calls_cover_the_namespace():
    exported = {name for name, value in vars(kernels).items()
                if callable(value) and not name.startswith("_") and not isinstance(value, type(kernels))}
    assert exported == set(kernel_calls(2))


IN_PLACE_RINGS = {spec: parse_ring_spec(spec) for spec in RAW_DATA_SPECS}


def raised(fn, *args):
    """fn(*args), or the type and message of the ZeroDivisionError or NonUnitError it raises."""
    try:
        return fn(*args)
    except (ZeroDivisionError, NonUnitError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", sorted(IN_PLACE_RINGS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), degrees=st.tuples(st.integers(-1, 5), st.integers(-1, 4)),
       lead=st.sampled_from(["nonzero", "unit", "non-unit"]), e=st.integers(-3, 12))
def test_in_place_generic_kernels_match_the_earlier_bodies(spec, seed, degrees, lead, e):
    """divmod_poly, monic, gcd, invmod and powmod give the values and raise the errors of the bodies that formed
    a fresh quotient and remainder per step, for divisors with unit and non-unit leads and either degree order."""
    ring, rng = IN_PLACE_RINGS[spec], random.Random(seed)

    def element(kind="any"):
        """Any element, or a nonzero one, a unit, or a nonzero non-unit (a unit over a field)."""
        if kind == "any" and rng.random() < 0.3:
            return ring._zero
        while True:
            x = ring.random_element(rng).data
            if kind == "non-unit" and isinstance(ring, ArtinianAlgebra):
                x = (ring.base._zero,) + x[1:]
            if not ring._is_zero(x) and (kind != "unit" or ring._is_invertible(x)):
                return x

    def poly(degree, lead_kind):
        return [element() for _ in range(degree)] + [element(lead_kind)] if degree >= 0 else []

    a, b = poly(degrees[0], "nonzero"), poly(degrees[1], lead)
    pairs = [(a, b), (b, a), (b, generic.mul(a, b, ring)), (a, [element(lead)])]
    for x, y in pairs:
        assert raised(generic.divmod_poly, x, y, ring) == raised(earlier_divmod_poly, x, y, ring), (x, y)
        kept = list(x)
        assert raised(generic.rem, x, y, ring) == raised(lambda *args: earlier_divmod_poly(*args)[1], x, y, ring)
        assert x == kept
        assert raised(generic.gcd, x, y, ring) == raised(earlier_gcd, x, y, ring), (x, y)
        assert raised(generic.invmod, x, y, ring) == raised(earlier_invmod, x, y, ring), (x, y)
        assert raised(generic.powmod, x, e, y, ring) == raised(earlier_powmod, x, e, y, ring), (x, e, y)
        assert raised(generic.monic, x, ring) == raised(earlier_monic, x, ring), x


def outcome(fn, args):
    """fn(*args), or ZeroDivisionError when it raises that."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@needs_core
@pytest.mark.parametrize("name", sorted(kernel_calls(2)))
@pytest.mark.parametrize("p", [2, 65537, kernels.PMAX])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_core_kernels_agree_with_pure(p, name, data):
    args = data.draw(kernel_calls(p)[name])
    assert outcome(getattr(core, name), args) == outcome(getattr(pure, name), args), args


@needs_core
def test_core_exports_exactly_the_namespace():
    assert {name for name in vars(core) if not name.startswith("_")} == {"BACKEND", *kernel_calls(2)}


# one call of each kernel that takes p, with coefficients below 7
CALLS_AT_7 = {
    "add": ([1, 2], [3]), "sub": ([1, 2], [3]), "mul": ([1, 2], [3]),
    "divmod_poly": ([1, 2, 3], [1, 1]), "rem": ([1, 2, 3], [1, 1]), "monic": ([1, 2],), "gcd": ([1, 2], [3, 1]), "invmod": ([1, 2], [1, 0, 1]),
    "mulmod": ([1, 2], [3], [1, 0, 1]), "powmod": ([1, 2], 5, [1, 0, 1]), "frobenius_matrix": ([1, 2, 1], 7),
    "mat_mul": ([[1, 2]], [[3], [4]]), "mat_det": ([[1, 2], [3, 4]],),
}


@needs_core
@pytest.mark.parametrize("name", sorted(CALLS_AT_7))
def test_core_refuses_p_and_coefficients_out_of_range(name):
    assert set(CALLS_AT_7) | {"normalize"} == set(kernel_calls(2))
    fn, args = getattr(core, name), CALLS_AT_7[name]
    fn(*args, 7)
    for p in (0, 1, 2**31, 2**61 - 1):
        with pytest.raises(ValueError):
            fn(*args, p)
    first = args[0]
    for bad in (7, -1):
        with pytest.raises(ValueError):
            fn([[bad, *first[0][1:]], *first[1:]] if name.startswith("mat_") else [bad, *first], *args[1:], 7)


def leak_calls(p):
    """(kernel, args, the exception it raises or None): each kernel once, and each error path."""
    a, b, m = [40000, 50000, 60000, 1], [30000, 20000, 1], [65000, 300, 400, 500, 1]
    square = [[40000, 50000], [60000, 30000]]
    calls = [("normalize", ([40000, 50000, 0, 0],), None)]
    calls += [(name, (*args, p), None) for name, args in {
        "add": (a, b), "sub": (a, b), "mul": (a, b), "divmod_poly": (a, b), "rem": (a, b),
        "monic": (b,), "gcd": (a, b), "invmod": (a, m), "mulmod": (a, b, m), "powmod": (a, -(2**70 + 3), m),
        "frobenius_matrix": (m, 2**70 + 3),
        "mat_mul": (square, square), "mat_det": (square,),
    }.items()]
    calls += [
        ("divmod_poly", (a, [], p), ZeroDivisionError),
        ("rem", (a, [0, 0], p), ZeroDivisionError),
        ("frobenius_matrix", ([0, 0], p, p), ZeroDivisionError),
        ("frobenius_matrix", (m, 0, p), ValueError),
        ("frobenius_matrix", (m, -(2**70), p), ValueError),
        ("frobenius_matrix", (m, 7.0, p), TypeError),
        ("invmod", (pure.mul(b, [7, 1], p), pure.mul(m, [7, 1], p), p), ZeroDivisionError),
        ("mul", (a, b, 2**31), ValueError),
        ("add", (a, [40000, p], p), ValueError),
        ("mat_mul", ([[40000, p]], [[1], [2]], p), ValueError),
        ("mat_det", ([[2**64, 40000], [1, 2]], p), OverflowError),
        ("gcd", (a, tuple(b), p), TypeError),
        ("mat_mul", (square, [[1, 2], (3, 4)], p), TypeError),
    ]
    return calls


def watched(values):
    """Every list and every int outside the small-int cache in values, nested lists included."""
    for v in values:
        if isinstance(v, (list, tuple)):
            if isinstance(v, list):
                yield v
            yield from watched(v)
        elif isinstance(v, int) and not -5 <= v <= 256:
            yield v


@needs_core
def test_core_leaks_no_memory_or_references():
    calls = leak_calls(65537)
    assert {name for name, _, _ in calls} == set(kernel_calls(2))
    rounds = 1000

    def batch():
        """rounds of every call; the results of the last round."""
        for _ in range(rounds):
            results = []
            for name, args, error in calls:
                try:
                    results.append(getattr(core, name)(*args))
                except Exception as exc:
                    assert type(exc) is error, (name, exc)
                else:
                    assert error is None, name
        return results

    def refcounts(results):
        objects = [*watched(args for _, args, _ in calls), *watched(results)]
        return [sys.getrefcount(o) for o in objects]

    tracemalloc.start()
    try:
        first = batch()
        size, refs = tracemalloc.get_traced_memory()[0], refcounts(first)
        del first
        for _ in range(9):
            last = batch()
        assert refcounts(last) == refs
        del last
        growth = tracemalloc.get_traced_memory()[0] - size
    finally:
        tracemalloc.stop()
    # a leak on any path, one block of at least 8 bytes per call, would grow by 9 * rounds * 8 bytes or more
    assert growth < 9 * rounds, growth


# 2^61 - 1 is above PMAX, so fields of that size run ``pure`` under either backend.
PACKED_PRIMES = [2, 3, 101, 2**31 - 1, 2**61 - 1]


def coefficient_lists(p, max_size=20):
    return st.lists(st.integers(0, p - 1), max_size=max_size).map(pure.normalize)


def moduli(p, max_degree=20):
    """Degree 0 to max_degree, with any lead in [1, p), so monic or not."""
    return st.builds(lambda tail, lead: tail + [lead],
                     st.lists(st.integers(0, p - 1), max_size=max_degree), st.integers(1, p - 1))


@pytest.mark.parametrize("p", PACKED_PRIMES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_packed_mul_and_divmod_match_the_loops(p, data):
    a, b = data.draw(coefficient_lists(p)), data.draw(coefficient_lists(p))
    den = data.draw(moduli(p))
    ab = pure.mul(a, b, p)
    assert ab == loop_mul(a, b, p)
    assert pure.divmod_poly(a, den, p) == loop_divmod_poly(a, den, p)
    assert pure.divmod_poly(ab, den, p) == loop_divmod_poly(ab, den, p)
    for x in (a, ab, a + [0, 0]):
        kept = list(x)
        assert pure.rem(x, den, p) == loop_divmod_poly(x, den, p)[1]
        assert x == kept


def sharing_a_factor(p):
    """(a, m) with a common factor of degree >= 1, so a is not invertible mod m."""
    common = moduli(p, 3).filter(lambda c: len(c) > 1)
    return st.builds(lambda c, u, v: (pure.mul(c, u, p), pure.mul(c, v, p)),
                     common, coefficient_lists(p, 6), moduli(p, 6))


@pytest.mark.parametrize("p", PACKED_PRIMES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_in_place_gcd_and_invmod_match_the_loops(p, data):
    a, b = data.draw(coefficient_lists(p)), data.draw(coefficient_lists(p))
    m = data.draw(moduli(p))
    assert pure.gcd(a, b, p) == loop_gcd(a, b, p)
    assert pure.gcd(a, m, p) == loop_gcd(a, m, p)
    for x in (a, b):
        assert outcome(pure.invmod, (x, m, p)) == outcome(loop_invmod, (x, m, p)), (x, m)
    x, shared = data.draw(sharing_a_factor(p))
    assert outcome(pure.invmod, (x, shared, p)) is ZeroDivisionError
    assert outcome(loop_invmod, (x, shared, p)) is ZeroDivisionError


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_in_place_gcd_and_invmod_edge_cases(p):
    m = [1, 0, 2 % p or 1, p - 1]  # a non-monic cubic
    polys = [[], [1], [p - 1], [0, 1], [1, p - 1], m, pure.mul(m, [1, 1], p)]
    for a in polys:
        for b in polys:
            assert pure.gcd(a, b, p) == loop_gcd(a, b, p), (a, b)
        for mod in ([1], [p - 1], [1, 1], [0, 0, 1], m):
            assert outcome(pure.invmod, (a, mod, p)) == outcome(loop_invmod, (a, mod, p)), (a, mod)
    # zero and multiples of the modulus are not invertible; a constant is
    assert outcome(pure.invmod, ([], m, p)) is ZeroDivisionError
    assert outcome(pure.invmod, (pure.mul(m, [1, 1], p), m, p)) is ZeroDivisionError
    assert pure.invmod([p - 1], m, p) == [p - 1]


def signed(e):
    return st.sampled_from([e, -e])


# The sliding windows change shape around powers of two, on runs of ones and
# on alternating bits; "2^k+c" takes k <= 70 and c in {-1, 0, 1}.
WINDOW_EXPONENTS = {
    "2^k+c": st.builds(lambda k, c: 2**k + c, st.integers(0, 70), st.sampled_from([-1, 0, 1])).flatmap(signed),
    "alternating": st.sampled_from([int("10" * 35, 2), int("01" * 35, 2), int("101" * 23, 2)]).flatmap(signed),
    "100-bit": st.integers(2**99, 2**100 - 1).flatmap(signed),
}


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("exponent", ["0", "1", "2", "-3", "p", "(p^d-1)/2", *WINDOW_EXPONENTS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_packed_powmod_matches_the_loop(p, exponent, data):
    a, m = data.draw(coefficient_lists(p)), data.draw(moduli(p))
    d = len(m) - 1
    if exponent in WINDOW_EXPONENTS:
        e = data.draw(WINDOW_EXPONENTS[exponent])
    else:
        e = {"0": 0, "1": 1, "2": 2, "-3": -3, "p": p, "(p^d-1)/2": (p**d - 1) // 2}[exponent]
    assert outcome(pure.powmod, (a, e, m, p)) == outcome(loop_powmod, (a, e, m, p)), (a, e, m)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_slots_hold_the_largest_sums(p):
    full = [p - 1] * (DEGREE_BUDGET + 1)
    assert pure.mul(full, full, p) == loop_mul(full, full, p)
    for e in (2, 3):
        assert pure.powmod(full[:-1], e, full, p) == loop_powmod(full[:-1], e, full, p)
    # Modulo x^n + x^(n-1), row k is (-1)^(k+1) x^(n-1), and this base's
    # square has high slots n+k = -(k+1) mod p for k < n-2.  The top low
    # slot then nears 1.5n (p-1)^2, past what a slot one bit short holds
    # when p-1 is just under a power of two.  At n = 64 the slot has a
    # spare bit (2n-1 < 2^7), so this case takes n = 63.
    n = DEGREE_BUDGET - 1
    m = [0] * (n - 1) + [1, 1]
    base = pure.normalize([p - 1] * (n - 1) + [(n - 2) * pow(2, -1, p) % p if p > 2 else 0])
    for e in (2, 3):
        assert pure.powmod(base, e, m, p) == loop_powmod(base, e, m, p)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_frobenius_rows_hold_the_largest_sums(p):
    """Every coefficient p - 1, up to DEGREE_BUDGET, and the x^n + x^(n-1) modulus of the powmod bound."""
    for n in (1, 2, 3, 9, DEGREE_BUDGET):
        full = [p - 1] * (n + 1)
        assert pure.frobenius_matrix(full, p, p) == loop_frobenius_matrix(full, p, p), n
    n = DEGREE_BUDGET - 1
    m = [0] * (n - 1) + [1, 1]
    assert pure.frobenius_matrix(m, p, p) == loop_frobenius_matrix(m, p, p)


@needs_core
@pytest.mark.parametrize("p", [2, 65537, kernels.PMAX])
def test_core_frobenius_matrix_agrees_with_pure_at_every_degree(p):
    for n in range(1, DEGREE_BUDGET + 1):
        full = [p - 1] * (n + 1)
        for q in (p, p**2):
            assert core.frobenius_matrix(full, q, p) == pure.frobenius_matrix(full, q, p), (n, q)


FROBENIUS_FIELDS = {
    "F2": PrimeField(2), "F3": PrimeField(3), "F101": PrimeField(101), "F(2^31-1)": PrimeField(2**31 - 1),
    "F(2^61-1)": PrimeField(2**61 - 1), "F9": ExtensionField(3, [1, 0, 1]),
    "F256": ExtensionField(2, find_irreducible(2, 8)), "F729": ExtensionField(3, find_irreducible(3, 6)),
}


@pytest.mark.parametrize("key", list(FROBENIUS_FIELDS))
def test_frobenius_matrix_matches_the_rows(key):
    """One kernel call against x^q by pow_mod and one Polynomial product and remainder per row."""
    field = FROBENIUS_FIELDS[key]
    q, zero, one = field.order, field._zero, field._one
    rng = random.Random(f"frobenius:{key}")
    backends = [field.kernels]
    if isinstance(field, PrimeField):
        backends += [pure] + ([core] if core is not None and field.p <= kernels.PMAX else [])
    assert field.kernels.frobenius_matrix([one], q, field.kernel_arg) == []
    assert field.kernels.frobenius_matrix([zero, one], q, field.kernel_arg) == [[one]]
    for degree in [2, 3, 4, 8, 12] + [rng.randint(2, 16) for _ in range(6)]:
        lead = field.random_element(rng)
        while lead.is_zero():
            lead = field.random_element(rng)
        f = Polynomial(field, [field.random_element(rng) for _ in range(degree)] + [lead])
        want = row_frobenius_matrix(Polynomial.x(field).pow_mod(q, f), f)
        for backend in backends:
            assert backend.frobenius_matrix(f._data, q, field.kernel_arg) == want, (backend, str(f))


# the table fields, up to TABLE_MAX_ORDER, and the tuple format of each, the reference
LOG_FIELDS = {q: ExtensionField(p, find_irreducible(p, d))
              for q, p, d in ((4, 2, 2), (8, 2, 3), (9, 3, 2), (27, 3, 3), (243, 3, 5), (256, 2, 8))}
TUPLE_FIELDS = {q: TupleField(F.p, F.modulus) for q, F in LOG_FIELDS.items()}


def public_functions(module) -> set:
    return {name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_")}


# The argument and result shapes of each generic function: e an element, p a
# polynomial, m a matrix, i an int.  A result of more than one letter is a tuple.
SHAPES = {
    "add": ("pp", "p"), "sub": ("pp", "p"), "mul": ("pp", "p"),
    "divmod_poly": ("pp", "pp"), "rem": ("pp", "p"), "monic": ("p", "p"), "gcd": ("pp", "p"),
    "invmod": ("pp", "p"), "powmod": ("pip", "p"), "frobenius_matrix": ("pi", "m"),
    "mat_mul": ("mm", "m"), "mat_det": ("m", "e"),
}


def convert(shape: str, value, elem):
    """value of the given shape, with elem applied to every element in it."""
    if shape == "e":
        return elem(value)
    if shape == "p":
        return [elem(c) for c in value]
    if shape == "m":
        return [[elem(c) for c in row] for row in value]
    return value


def run_in_format(field, name, canonical_args):
    """generic.name over field on the field's own data, with tuples in and out, or the error raised."""
    args, result = SHAPES[name]
    raw = [convert(s, a, field._from_tuple) for s, a in zip(args, canonical_args)]
    try:
        out = getattr(generic, name)(*raw, field)
    except (ZeroDivisionError, NonUnitError) as exc:
        return type(exc), str(exc)
    if len(result) == 1:
        return convert(result, out, field._canonical)
    return tuple(convert(s, o, field._canonical) for s, o in zip(result, out))


def log_kernel_calls(F):
    """Kernel name -> strategy of its arguments over F, as element tuples, without the ring."""
    q, zero = F.order, (0,) * F.degree
    elem = st.one_of(st.just(zero), st.tuples(*[st.integers(0, F.p - 1)] * F.degree))
    poly = st.lists(elem, max_size=7).map(lambda c: generic._normalize(c, TUPLE_FIELDS[q]))
    divisor = st.builds(lambda tail, lead: tail + [lead], st.lists(elem, max_size=4), elem.filter(any))
    exponent = st.one_of(st.integers(-3, 40), st.sampled_from([q, q - 1, (q - 1) // 2, -q]))

    def matrices(count):
        """count n x n matrices of one random size n, zero-heavy so some are singular."""
        def of_size(n):
            return st.tuples(*[st.lists(st.lists(elem, min_size=n, max_size=n), min_size=n, max_size=n)] * count)
        return st.integers(0, 4).flatmap(of_size)

    return {
        "add": st.tuples(poly, poly),
        "sub": st.tuples(poly, poly),
        "mul": st.tuples(poly, poly),
        "divmod_poly": st.tuples(poly, st.one_of(poly, divisor)),
        "rem": st.tuples(poly, st.one_of(poly, divisor)),
        "monic": st.tuples(poly),
        "gcd": st.tuples(poly, poly),
        "invmod": st.tuples(poly, divisor),
        "powmod": st.tuples(poly, exponent, divisor),
        "frobenius_matrix": st.tuples(divisor, st.one_of(st.integers(1, 40), st.sampled_from([q, q * q]))),
        "mat_mul": matrices(2),
        "mat_det": matrices(1),
    }


def test_log_kernels_cover_the_generic_namespace():
    assert public_functions(generic) == set(SHAPES) == set(log_kernel_calls(LOG_FIELDS[4]))
    assert max(LOG_FIELDS) == TABLE_MAX_ORDER
    for q, F in LOG_FIELDS.items():
        assert type(F) is TableField and F.kernels is generic and F.kernel_arg is F
        assert type(TUPLE_FIELDS[q]) is TupleField and TUPLE_FIELDS[q]._zero == (0,) * F.degree
        # another instance of the field has the same logs
        again = ExtensionField(F.p, F.modulus)
        assert again is not F and (again._zero, again._one, again.generator().data) == (None, 0, F.generator().data)


@pytest.mark.parametrize("name", sorted(public_functions(generic)))
@pytest.mark.parametrize("q", sorted(LOG_FIELDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_log_kernels_agree_with_generic(q, name, data):
    args = data.draw(log_kernel_calls(LOG_FIELDS[q])[name])
    got = run_in_format(LOG_FIELDS[q], name, args)
    assert got == run_in_format(TUPLE_FIELDS[q], name, args), args


def scribble(shape: str, value):
    """Overwrite every list of a result of the given shape in place."""
    if shape == "p":
        value[:] = ["scribbled"] * (len(value) + 1)
    elif shape == "m":
        for row in value:
            row[:] = ["scribbled"] * (len(row) + 1)
        value.append([])


@pytest.mark.parametrize("name", sorted(public_functions(generic)))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generic_results_never_alias_an_argument(name, data):
    """_normalize returns its own argument when it trims nothing, so no result may be an input list."""
    field = TUPLE_FIELDS[9]
    args = data.draw(log_kernel_calls(LOG_FIELDS[9])[name])
    kept = copy.deepcopy(args)
    try:
        out = getattr(generic, name)(*args, field)
    except (ZeroDivisionError, NonUnitError):
        return
    shapes = SHAPES[name][1]
    for shape, value in zip(shapes, [out] if len(shapes) == 1 else out):
        scribble(shape, value)
    assert args == kept


@pytest.mark.parametrize("q", sorted(LOG_FIELDS))
def test_log_kernels_raise_where_generic_does(q):
    zero, one, u = (0,) * LOG_FIELDS[q].degree, TUPLE_FIELDS[q]._one, TUPLE_FIELDS[q].generator().data
    calls = [
        ("invmod", ([u, one], [u, one])),  # u + 1 shares its root with the modulus
        ("invmod", ([], [u, one])),
        ("divmod_poly", ([u], [])),
        ("mat_det", ([[u, one], [u, one]],)),
        ("powmod", ([u], -1, [zero, one, one])),
        ("powmod", ([zero, one], -1, [zero, one, one])),
    ]
    for name, args in calls:
        want = run_in_format(TUPLE_FIELDS[q], name, args)
        assert run_in_format(LOG_FIELDS[q], name, args) == want, name
    errors = [run_in_format(LOG_FIELDS[q], name, args) for name, args in calls]
    assert errors[:3] == [
        (ZeroDivisionError, "element is not invertible modulo the given polynomial"),
        (ZeroDivisionError, "element is not invertible modulo the given polynomial"),
        (ZeroDivisionError, "polynomial division by zero"),
    ]
    assert errors[3] == zero and errors[5][0] is ZeroDivisionError
    # the inverse of a nonzero constant is a lookup that raises for zero, with the field's name
    assert run_in_format(LOG_FIELDS[q], "monic", ([zero],)) == (NonUnitError, f"division by zero in F{q}")
    assert run_in_format(TUPLE_FIELDS[q], "monic", ([zero],)) == (NonUnitError, f"division by zero in F{q}")


def test_log_kernels_touch_no_tuple_arithmetic(monkeypatch):
    F = ExtensionField(3, [1, 0, 1])
    zero, one, u = F._zero, F._one, F.generator().data

    def no_tuples(*args):
        raise AssertionError("a kernel over a table field left the log format")

    for name in ("_canonical", "_from_tuple", "_pad", "_element", "zero", "one", "from_int", "coerce"):
        monkeypatch.setattr(F, name, no_tuples)
    # the F_p kernels that the tuple format multiplies by are out of reach
    monkeypatch.setattr(F, "base", None)
    a, m = [u, one, u], [one, zero, u]
    matrix = [[u, one], [zero, u]]
    calls = {
        "add": (a, m), "sub": (a, m), "mul": (a, a), "divmod_poly": (a, m), "rem": (a, m),
        "monic": (a,), "gcd": (a, m), "invmod": (a, [u, one]), "powmod": (a, -10, [u, one]), "frobenius_matrix": (a, 9),
        "mat_mul": (matrix, matrix), "mat_det": (matrix,),
    }
    assert set(calls) == public_functions(generic)
    for name, args in calls.items():
        getattr(generic, name)(*args, F)
