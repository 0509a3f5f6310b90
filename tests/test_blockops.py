import random

import pytest

from reciprocity.artinian import dual_numbers
from reciprocity.blockops import (
    BlockOperator,
    cocycle_commutator,
    cocycle_det,
    lie_cocycle,
    lie_cocycle_dual,
    multiplication_operator,
)
from reciprocity.errors import DomainError, NonUnitError, WindowError
from reciprocity.fields import QQ, PrimeField
from reciprocity.laurent import LaurentSeries
from reciprocity.norms import mat_det, mat_identity, mat_inv, mat_mul
from reciprocity.symbols import contou_carrere_symbol, tate_residue
from support import identity_operator, random_block_operator, random_laurent_polynomial


def test_multiplication_operator_examples(Q):
    one_op = multiplication_operator(LaurentSeries.one(Q), 4, 4)
    assert one_op == identity_operator(Q, 4, 4)

    z_op = multiplication_operator(LaurentSeries(Q, {1: 1}), 4, 4)
    assert all(c.is_zero() for row in z_op.beta for c in row)
    gamma_entries = [(i, j) for i, row in enumerate(z_op.gamma) for j, c in enumerate(row) if not c.is_zero()]
    assert gamma_entries == [(0, 3)]  # z^{-1} -> z^0

    zinv_op = multiplication_operator(LaurentSeries(Q, {-1: 1}), 4, 4)
    assert all(c.is_zero() for row in zinv_op.gamma for c in row)
    beta_entries = [(i, j) for i, row in enumerate(zinv_op.beta) for j, c in enumerate(row) if not c.is_zero()]
    assert beta_entries == [(3, 0)]  # z^0 -> z^{-1}


def test_multiplication_operator_entries(rng, Q, F7):
    """Entry (r, c) is the coefficient of z^(r - c), rows and columns from z^-wneg up."""
    for ring in (Q, F7):
        for wneg, wpos in ((0, 0), (8, 8), (8, 11), (11, 8)):
            f = random_laurent_polynomial(rng, ring, -4, 4) if wneg else LaurentSeries.constant(ring, 3)
            exps = range(-wneg, wpos)
            m = [[f.coefficient(r - c) for c in exps] for r in exps]
            assert multiplication_operator(f, wneg, wpos).assemble() == m


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
    z = Q.zero()
    upper = BlockOperator(Q, 3, 3, up.alpha, up.beta, [[z] * 3 for _ in range(3)], up.delta)
    other = random_block_operator(rng, Q, 3, 3)
    assert cocycle_det(upper, other) == 1


def test_cocycle_matches_brute_force(rng, Q, F7):
    for ring in (Q, F7):
        for _ in range(30):
            s1 = random_block_operator(rng, ring, 2, 2)
            s2 = random_block_operator(rng, ring, 2, 2)
            d1d2 = mat_mul(s1.delta, s2.delta, ring)
            d3 = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(mat_mul(s1.gamma, s2.beta, ring), d1d2)]
            det3 = mat_det(d3, ring)
            if det3.is_zero():
                continue
            expected = mat_det(s1.delta, ring) * mat_det(s2.delta, ring) * det3.inverse()
            assert cocycle_det(s1, s2) == expected


def test_cocycle_identity_random(rng, Q, F7):
    for ring in (Q, F7):
        count = 0
        while count < 50:
            s1 = random_block_operator(rng, ring, 3, 3)
            s2 = random_block_operator(rng, ring, 3, 3)
            s3 = random_block_operator(rng, ring, 3, 3)
            try:
                lhs = cocycle_det(s1, s2) * cocycle_det(s1.compose(s2), s3)
                rhs = cocycle_det(s2, s3) * cocycle_det(s1, s2.compose(s3))
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
            assert s1.compose(s2).window == (wneg, wpos)


def test_singular_delta_rejected(Q):
    z_op = multiplication_operator(LaurentSeries(Q, {1: 1}), 4, 4)
    with pytest.raises(NonUnitError):
        cocycle_det(z_op, z_op)


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


def test_non_commuting_rejected(rng, Q):
    while True:
        s = random_block_operator(rng, Q, 3, 3)
        t = random_block_operator(rng, Q, 3, 3)
        if not s.commutes_with(t):
            break
    with pytest.raises(DomainError):
        cocycle_commutator(s, t)


def test_lie_cocycle_examples(Q):
    z = Q.zero()
    o = Q.one()
    beta1 = [[z, z, z], [z, z, z], [o, z, z]]
    s1 = BlockOperator(Q, 3, 3, mat_identity(Q, 3), beta1, [[z] * 3 for _ in range(3)], mat_identity(Q, 3))
    gamma2 = [[z, z, o], [z, z, z], [z, z, z]]
    s2 = BlockOperator(Q, 3, 3, mat_identity(Q, 3), [[z] * 3 for _ in range(3)], gamma2, mat_identity(Q, 3))
    assert lie_cocycle(s1, s2) == 1
    assert lie_cocycle(s1, s1) == 0


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
