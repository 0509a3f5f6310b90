import random

import pytest

from reciprocity.artinian import ArtinianAlgebra, dual_numbers
from reciprocity.errors import TowerError
from reciprocity.fields import QQ, AlgebraElement, ExtensionField, PrimeField, lift
from reciprocity.norms import (
    algebra_norm,
    algebra_trace,
    mat_det,
    mat_mul,
    multiplication_matrix,
    relative_norm,
)
from reciprocity.parsing import parse_ring_spec
from support import leibniz_det, norm_det_compat


def test_norm_examples(F2, F3, F4, Q):
    assert algebra_norm(F4.one(), F2) == 1
    u = F4.generator()
    assert algebra_norm(u, F2) == 1  # u * u^2 = u^3 = 1
    A = ArtinianAlgebra(Q, [("e", 2)])
    x = A.one() + 5 * A.generator("e")
    assert algebra_norm(x, Q) == 1


def test_trace_examples(F3, F9, Q):
    # trace of 1 in F_{p^d} is d mod p
    assert algebra_trace(F9.one(), F3) == 2
    u = F9.generator()
    assert algebra_trace(u, F3) == 0
    A = ArtinianAlgebra(Q, [("e", 2)])
    x = Q.coerce(3) * A.one() + 4 * A.generator("e")
    assert algebra_trace(x, Q) == 6  # 2a for a + b*eps


def test_norm_multiplicative(rng, F9, F4, Q):
    D = dual_numbers(Q)
    for ring, base in ((F9, PrimeField(3)), (F4, PrimeField(2)), (D, Q)):
        for _ in range(100):
            r = ring.random_element(rng)
            s = ring.random_element(rng)
            assert algebra_norm(r * s, base) == algebra_norm(r, base) * algebra_norm(s, base)


def test_trace_additive_linear(rng, F9, Q):
    F3 = PrimeField(3)
    D = dual_numbers(Q)
    for ring, base in ((F9, F3), (D, Q)):
        for _ in range(100):
            r = ring.random_element(rng)
            s = ring.random_element(rng)
            assert algebra_trace(r + s, base) == algebra_trace(r, base) + algebra_trace(s, base)
            c = base.random_element(rng)
            assert algebra_trace(lift(c, ring) * r, base) == c * algebra_trace(r, base)


def test_frobenius_norm_oracle(rng, F4, F8, F9):
    # Norm(r) = r^((q-1)/(p-1)) for nonzero r; independent of the matrix route
    for field in (F4, F8, F9):
        p = field.p
        q = field.order
        e = (q - 1) // (p - 1)
        base = PrimeField(p)
        for _ in range(50):
            r = field.random_element(rng)
            if r.is_zero():
                continue
            via_frob = r**e
            assert lift(algebra_norm(r, base), field) == via_frob


def test_norm_det_compat_examples(F2, F4):
    T = [[F4.one()]]
    n, d = norm_det_compat(T, F2)
    assert n == d == F2.one()
    u = F4.generator()
    n2, d2 = norm_det_compat([[u]], F2)
    assert n2 == d2 == 1
    n3, d3 = norm_det_compat([[u, F4.zero()], [F4.zero(), u]], F2)
    assert n3 == d3 == 1


def test_norm_det_compat_random(rng, F4, F8, F9):
    for field in (F4, F8, F9):
        base = PrimeField(field.p)
        for _ in range(50):
            n = rng.randint(1, 3)
            T = [[field.random_element(rng) for _ in range(n)] for _ in range(n)]
            norm, det = norm_det_compat(T, base)
            assert norm == det


def test_full_norm_through_tower(rng, F9):
    F3 = PrimeField(3)
    A = ArtinianAlgebra(F9, [("e", 2)])
    for _ in range(25):
        r = A.random_element(rng)
        s = A.random_element(rng)
        assert algebra_norm(r * s, F3) == algebra_norm(r, F3) * algebra_norm(s, F3)


def test_relative_norm_examples(F3, F9):
    A = ArtinianAlgebra(F9, [("e1", 2), ("e2", 2)])
    u = lift(F9.generator(), A)
    e1e2 = A.generator(0) * A.generator(1)
    x = A.one() + u * e1e2
    rn = relative_norm(x, F3)
    # Norm(1 + u e1 e2) = 1 + tr(u) e1 e2 = 1 since tr(u) = 0
    assert rn.ring.base == F3
    assert rn == rn.ring.one()
    y = A.one() + lift(F9.one(), A) * e1e2
    assert relative_norm(y, F3) == relative_norm(y, F3).ring.one() + 2 * relative_norm(y, F3).ring.generator(0) * relative_norm(y, F3).ring.generator(1)


def test_relative_norm_of_a_nilpotent(F2):
    """N(e) from F256[e]/(e^9) down to F2[e]/(e^9) is det(e*I) over 8 columns, e^8."""
    ring = parse_ring_spec("F256[e]/(e^9)")
    norm = relative_norm(ring.generator(0), F2)
    assert norm == norm.ring.generator(0) ** 8


def test_relative_norm_identity_when_same_base(Q):
    D = dual_numbers(Q)
    x = D.one() + D.generator(0)
    assert relative_norm(x, Q) == x


def test_tower_errors(F5, F9):
    with pytest.raises(TowerError):
        algebra_norm(F9.generator(), F5)


@pytest.mark.parametrize("spec", ["Q", "F7", "F9", "F7[e,d]/(e^3,d^2)"])
def test_raw_matrix_product_and_determinant(rng, spec):
    """mat_mul is the kernel's raw product and mat_det boxes the Leibniz determinant, det(ab) = det a det b."""
    ring = parse_ring_spec(spec)
    for n in range(5):
        for k in (n + 2, n):
            a = [[ring.random_element(rng).data for _ in range(k)] for _ in range(n)]
            b = [[ring.random_element(rng).data for _ in range(n)] for _ in range(k)]
            ab = mat_mul(a, b, ring)
            assert ab == ring.kernels.mat_mul(a, b, ring.kernel_arg)
            assert not any(isinstance(c, AlgebraElement) for row in ab for c in row)
        det_a, det_b = mat_det(a, ring), mat_det(b, ring)  # the square pair, k = n
        assert det_a.ring is ring and det_a == AlgebraElement(ring, leibniz_det(a, ring))
        assert det_a == AlgebraElement(ring, ring.kernels.mat_det(a, ring.kernel_arg))
        assert mat_det(mat_mul(a, b, ring), ring) == det_a * det_b


def test_multiplication_matrix_is_raw(rng, F9):
    """Entries are the raw coordinates over the subfield; the trace is the sum of the diagonal."""
    F3 = PrimeField(3)
    for ring, over in ((F9, F3), (ArtinianAlgebra(F9, [("e", 2)]), F3), (dual_numbers(QQ), QQ)):
        for _ in range(10):
            r = ring.random_element(rng)
            m = multiplication_matrix(r, over)
            assert not any(isinstance(c, AlgebraElement) for row in m for c in row)
            assert algebra_trace(r, over) == sum((AlgebraElement(over, m[i][i]) for i in range(len(m))), over.zero())
