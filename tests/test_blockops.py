import random

import pytest

from reciprocity.artinian import ArtinianAlgebra, dual_numbers
from reciprocity.blockops import (
    BlockOperator,
    cocycle_commutator,
    cocycle_det,
    lie_cocycle,
    lie_cocycle_dual,
    multiplication_operator,
)
from reciprocity.errors import DomainError, NonUnitError, WindowError
from reciprocity.fields import QQ, AlgebraElement, PrimeField
from reciprocity.laurent import LaurentSeries
from reciprocity.parsing import parse_ring_spec
from reciprocity.norms import mat_mul
from reciprocity.symbols import contou_carrere_symbol, tate_residue
from support import (
    compose,
    identity_matrix,
    identity_operator,
    matrix_sum,
    matrix_trace,
    random_block_operator,
    random_laurent_polynomial,
    trace_of_product,
)


def test_multiplication_operator_examples(Q):
    one_op = multiplication_operator(LaurentSeries.one(Q), 4, 4)
    assert one_op == identity_operator(Q, 4, 4)

    z_op = multiplication_operator(LaurentSeries(Q, {1: 1}), 4, 4)
    assert all(Q._is_zero(c) for row in z_op.beta for c in row)
    gamma_entries = [(i, j) for i, row in enumerate(z_op.gamma) for j, c in enumerate(row) if not Q._is_zero(c)]
    assert gamma_entries == [(0, 3)]  # z^{-1} -> z^0

    zinv_op = multiplication_operator(LaurentSeries(Q, {-1: 1}), 4, 4)
    assert all(Q._is_zero(c) for row in zinv_op.gamma for c in row)
    beta_entries = [(i, j) for i, row in enumerate(zinv_op.beta) for j, c in enumerate(row) if not Q._is_zero(c)]
    assert beta_entries == [(3, 0)]  # z^0 -> z^{-1}


def test_multiplication_operator_entries(rng, Q, F7):
    """Entry (r, c) is the coefficient of z^(r - c), rows and columns from z^-wneg up."""
    for ring in (Q, F7):
        for wneg, wpos in ((0, 0), (8, 8), (8, 11), (11, 8)):
            f = random_laurent_polynomial(rng, ring, -4, 4) if wneg else LaurentSeries.constant(ring, 3)
            exps = range(-wneg, wpos)
            m = [[f.coefficient(r - c).data for c in exps] for r in exps]
            assert multiplication_operator(f, wneg, wpos).assemble() == m


@pytest.mark.parametrize("spec", ["Q", "F7", "F9", "F7[e,d]/(e^3,d^2)"])
def test_multiplication_operator_cells_are_raw_coefficients(rng, spec):
    """Each cell of each block is an entry of f.data itself or the ring's raw zero; no element is boxed."""
    ring = parse_ring_spec(spec)
    for _ in range(5):
        f = random_laurent_polynomial(rng, ring, -4, 4)
        op = multiplication_operator(f, 9, 10)
        allowed = {id(c) for c in f.data} | {id(ring._zero)}
        for block in (op.alpha, op.beta, op.gamma, op.delta):
            for row in block:
                for c in row:
                    assert not isinstance(c, AlgebraElement)
                    assert id(c) in allowed


def test_window_too_small(Q):
    with pytest.raises(WindowError):
        multiplication_operator(LaurentSeries(Q, {-2: 1, 3: 1}), 3, 3)
    with pytest.raises(DomainError):
        multiplication_operator(LaurentSeries(Q, {0: 1}, 5), 3, 3)


def test_cocycle_examples(Q, rng):
    unit = multiplication_operator(LaurentSeries(Q, {0: 1, 1: 2, 2: 1}), 6, 6)
    ident = identity_operator(Q, 6, 6)
    assert cocycle_det(unit, ident) == 1
    assert cocycle_det(ident, unit) == 1

    # gamma_1 = 0 forces c = 1
    up = random_block_operator(rng, Q, 3, 3)
    z = Q._zero
    upper = BlockOperator(Q, 3, 3, up.alpha, up.beta, [[z] * 3 for _ in range(3)], up.delta)
    other = random_block_operator(rng, Q, 3, 3)
    assert cocycle_det(upper, other) == 1


def test_cocycle_matches_brute_force(rng, Q, F7):
    """The definition det(delta_1 delta_2 D^-1), D^-1 the 2 x 2 adjugate of D over det D."""
    for ring in (Q, F7):
        for _ in range(30):
            s1 = random_block_operator(rng, ring, 2, 2)
            s2 = random_block_operator(rng, ring, 2, 2)
            d1d2 = mat_mul(s1.delta, s2.delta, ring)
            (a, b), (c, d) = [[AlgebraElement(ring, x) for x in row]
                              for row in matrix_sum(mat_mul(s1.gamma, s2.beta, ring), d1d2, ring)]
            det_d = a * d - b * c
            if det_d.is_zero():
                with pytest.raises(NonUnitError, match="left the cocycle domain"):
                    cocycle_det(s1, s2)
                continue
            inv = det_d.inverse()
            d_inv = [[(d * inv).data, (-b * inv).data], [(-c * inv).data, (a * inv).data]]
            (p, q), (r, t) = [[AlgebraElement(ring, x) for x in row] for row in mat_mul(d1d2, d_inv, ring)]
            assert cocycle_det(s1, s2) == p * t - q * r


def test_cocycle_identity_random(rng, Q, F7):
    for ring in (Q, F7):
        count = 0
        while count < 50:
            s1 = random_block_operator(rng, ring, 3, 3)
            s2 = random_block_operator(rng, ring, 3, 3)
            s3 = random_block_operator(rng, ring, 3, 3)
            try:
                lhs = cocycle_det(s1, s2) * cocycle_det(compose(s1, s2), s3)
                rhs = cocycle_det(s2, s3) * cocycle_det(s1, compose(s2, s3))
            except NonUnitError:
                continue
            assert lhs == rhs
            count += 1


@pytest.mark.parametrize("wneg, wpos", [(0, 0), (0, 3), (3, 0)])
def test_windows_with_an_empty_side(rng, Q, F7, wneg, wpos):
    """An empty window side gives blocks with no rows or no columns; every cocycle is trivial."""
    for ring in (Q, F7):
        const = multiplication_operator(LaurentSeries.constant(ring, 2), wneg, wpos)
        pairs = [(const, const)]
        pairs += [(random_block_operator(rng, ring, wneg, wpos), random_block_operator(rng, ring, wneg, wpos))
                  for _ in range(10)]
        for s1, s2 in pairs:
            assert cocycle_det(s1, s2) == 1
            assert lie_cocycle(s1, s2) == 0
            assert lie_cocycle_dual(s1, s2) == 0
            assert compose(s1, s2).window == (wneg, wpos)


def test_singular_delta_rejected(Q):
    z_op = multiplication_operator(LaurentSeries(Q, {1: 1}), 4, 4)
    with pytest.raises(NonUnitError):
        cocycle_det(z_op, z_op)


@pytest.mark.parametrize("w", [3, 7])
def test_nilpotent_pair_leaves_the_cocycle_domain(w):
    """Multiplication by the constant e of F7[e]/(e^2) gives D = e^2 = 0.

    At both widths the generic elimination finds no unit pivot and returns
    the determinant of D, the non-unit 0, by its division-free block; its
    inverse raises with the cocycle-domain message.
    """
    ring = parse_ring_spec("F7[e]/(e^2)")
    e_op = multiplication_operator(LaurentSeries.constant(ring, ring.generator(0)), w, w)
    message = "gamma_1 beta_2 + delta_1 delta_2 is singular: the pair left the cocycle domain"
    with pytest.raises(NonUnitError) as raised:
        cocycle_det(e_op, e_op)
    assert str(raised.value) == message


def test_commutator_examples(Q):
    unit = multiplication_operator(LaurentSeries(Q, {0: 1, 1: 5}), 6, 6)
    ident = identity_operator(Q, 6, 6)
    assert cocycle_commutator(unit, ident) == 1
    assert cocycle_commutator(unit, unit) == 1


def test_commutator_matches_cc_symbol(Q):
    D = dual_numbers(Q)
    e1, e2 = D.generator(0), D.generator(1)
    f = LaurentSeries(D, {0: D.one(), -1: e1})
    g = LaurentSeries(D, {0: D.one(), 1: e2})
    expected = contou_carrere_symbol(f, g)
    for w in (6, 10):
        opf = multiplication_operator(f, w, w)
        opg = multiplication_operator(g, w, w)
        ratio = cocycle_commutator(opf, opg)
        assert ratio == expected
    # antisymmetry of the ratio
    opf = multiplication_operator(f, 8, 8)
    opg = multiplication_operator(g, 8, 8)
    assert cocycle_commutator(opf, opg) * cocycle_commutator(opg, opf) == D.one()


def test_lie_cocycle_examples(Q):
    z = Q._zero
    o = Q._one
    beta1 = [[z, z, z], [z, z, z], [o, z, z]]
    s1 = BlockOperator(Q, 3, 3, identity_matrix(Q, 3), beta1, [[z] * 3 for _ in range(3)], identity_matrix(Q, 3))
    gamma2 = [[z, z, o], [z, z, z], [z, z, z]]
    s2 = BlockOperator(Q, 3, 3, identity_matrix(Q, 3), [[z] * 3 for _ in range(3)], gamma2, identity_matrix(Q, 3))
    assert lie_cocycle(s1, s2) == 1
    assert lie_cocycle(s1, s1) == 0


def test_trace_of_product_is_the_trace_of_the_product(rng, Q, F7, F9):
    rings = (Q, F7, F9, ArtinianAlgebra(F7, [("e", 3), ("d", 2)]))
    for ring in rings:
        for n, k in ((1, 1), (2, 5), (5, 2), (4, 4), (3, 1)):
            def sparse():
                return ring._zero if rng.random() < 0.4 else ring.random_element(rng).data
            a = [[sparse() for _ in range(k)] for _ in range(n)]
            b = [[sparse() for _ in range(n)] for _ in range(k)]
            assert trace_of_product(a, b, ring) == matrix_trace(mat_mul(a, b, ring), ring)


def full_lie_cocycle(s1, s2):
    """tr(gamma_2 beta_1 - gamma_1 beta_2) over every cell of the blocks."""
    ring = s1.ring
    return trace_of_product(s2.gamma, s1.beta, ring) - trace_of_product(s1.gamma, s2.beta, ring)


def test_multiplication_operators_record_their_corner_triangles(rng, Q, F7):
    """gamma is nonzero only within deg of the corner next to the split, beta only within pole."""
    for ring in (Q, F7):
        for _ in range(20):
            f = random_laurent_polynomial(rng, ring, -4, 4)
            op = multiplication_operator(f, 9, 10)
            support = f.support()
            assert op.pole == max(0, -min(support, default=0))
            assert op.deg == max(0, max(support, default=0))
            for i, row in enumerate(op.gamma):
                for j, c in enumerate(row):
                    assert ring._is_zero(c) or i + (op.wneg - 1 - j) < op.deg
            for j, row in enumerate(op.beta):
                for i, c in enumerate(row):
                    assert ring._is_zero(c) or i + (op.wneg - 1 - j) < op.pole
    op = random_block_operator(rng, Q, 3, 4)
    assert (op.deg, op.pole) == (7, 7)


@pytest.mark.parametrize("spec", ["Q", "F7", "F9", "F7[e,d]/(e^3,d^2)"])
def test_lie_cocycle_matches_the_full_block_trace(rng, spec):
    """The corner-triangle traces equal tr(gamma_2 beta_1 - gamma_1 beta_2) read on every cell.

    Windows run from the exact support bound of the pair up to bound + 5,
    with wneg and wpos apart; operators built from matrices record their
    whole window, so every cell of theirs is read.
    """
    ring = parse_ring_spec(spec)
    for _ in range(12):
        f1 = random_laurent_polynomial(rng, ring, rng.randint(-4, 0), rng.randint(0, 4))
        f2 = random_laurent_polynomial(rng, ring, rng.randint(-4, 0), rng.randint(0, 4))
        bound = max(max(0, -s.offset) + max(0, s.offset + len(s.data) - 1) for s in (f1, f2))
        for wneg, wpos in ((bound, bound), (bound, bound + 1), (bound + 2, bound), (bound + 5, bound + 3)):
            op1 = multiplication_operator(f1, wneg, wpos)
            op2 = multiplication_operator(f2, wneg, wpos)
            assert lie_cocycle(op1, op2) == full_lie_cocycle(op1, op2), (f1, f2, wneg, wpos)
            assert lie_cocycle(op2, op1) == full_lie_cocycle(op2, op1)
    for wneg, wpos in ((1, 1), (2, 4), (4, 2), (3, 3)):
        s1 = random_block_operator(rng, ring, wneg, wpos, invertible_delta=False)
        s2 = random_block_operator(rng, ring, wneg, wpos, invertible_delta=False)
        mixed = multiplication_operator(random_laurent_polynomial(rng, ring, -1, 1), wneg, wpos) \
            if min(wneg, wpos) >= 2 else s2
        for a, b in ((s1, s2), (s1, mixed), (mixed, s1)):
            assert lie_cocycle(a, b) == full_lie_cocycle(a, b)


def test_lie_cocycle_dual_extraction(rng, Q, F7):
    for ring in (Q, F7):
        for _ in range(25):
            s1 = random_block_operator(rng, ring, 3, 3, invertible_delta=False)
            s2 = random_block_operator(rng, ring, 3, 3, invertible_delta=False)
            assert lie_cocycle(s1, s2) == lie_cocycle_dual(s1, s2)


def test_lie_cocycle_equals_tate(Q, rng):
    for _ in range(10):
        f1 = random_laurent_polynomial(rng, Q, -3, 3)
        f2 = random_laurent_polynomial(rng, Q, -3, 3)
        w = 8
        op1 = multiplication_operator(f1, w, w + 1)
        op2 = multiplication_operator(f2, w, w + 1)
        assert lie_cocycle(op1, op2) == tate_residue(f1, f2, w)
    op1 = multiplication_operator(LaurentSeries(Q, {-1: 1}), 6, 7)
    op2 = multiplication_operator(LaurentSeries(Q, {1: 1}), 6, 7)
    assert lie_cocycle(op1, op2) == 1


def test_window_stability_doubling(Q):
    D = dual_numbers(Q)
    e1, e2 = D.generator(0), D.generator(1)
    f = LaurentSeries(D, {0: D.one(), -2: e1, 1: e2 * 3})
    g = LaurentSeries(D, {0: D.one(), 2: e2, -1: e1 * e2})
    w = 8
    a1 = cocycle_commutator(multiplication_operator(f, w, w), multiplication_operator(g, w, w))
    a2 = cocycle_commutator(
        multiplication_operator(f, 2 * w, 2 * w), multiplication_operator(g, 2 * w, 2 * w)
    )
    assert a1 == a2
