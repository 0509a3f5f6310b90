import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity.artinian import ArtinianAlgebra, dual_numbers
from reciprocity.errors import DomainError, NonUnitError, ReciprocityError
from reciprocity.fields import QQ, ExtensionField, PrimeField, lift
from reciprocity.laurent import LaurentSeries, cc_factorize, unit_factorize
from reciprocity.norms import algebra_norm, algebra_trace
from reciprocity.parsing import parse_ring_spec, parse_series
from reciprocity.symbols import (
    LoopMatrix,
    contou_carrere_symbol,
    gelfand_fuchs_cocycle,
    local_commutator,
    residue_coefficient,
    residue_from_dual_symbol,
    tame_symbol,
    tate_residue,
)
from support import (
    bracket,
    earlier_cc_loops,
    matmul,
    random_laurent_polynomial,
    random_principal_unit,
    random_unit_series,
)


def zpow(ring, k, c=1):
    return LaurentSeries(ring, {k: c})


class TestLocalCommutator:
    def test_case1_constant_vs_power(self, Q):
        assert local_commutator(LaurentSeries.constant(Q, 3), zpow(Q, 2), Q) == 9

    def test_case1_norm_over_extension(self, F3, F9):
        # <s0, z^t> = Norm(s0)^t
        u = F9.generator()
        s0 = LaurentSeries.constant(F9, u + 1)
        for t in (1, 2, 3):
            expected = algebra_norm(F9.coerce(u + 1), F3) ** t
            assert local_commutator(s0, zpow(F9, t), F3) == expected

    def test_case2_principal_unit_vs_power(self, Q):
        f = LaurentSeries(Q, {0: 1, 1: 1})
        assert local_commutator(f, zpow(Q, 3), Q) == 1

    def test_case3_powers(self, Q):
        assert local_commutator(zpow(Q, 1), zpow(Q, 1), Q) == 1
        assert local_commutator(zpow(Q, 2), zpow(Q, 5), Q) == 1

    def test_case4_units(self, F7):
        f = LaurentSeries(F7, {0: 1, 2: 3})
        g = LaurentSeries(F7, {0: 1, 5: 4})
        assert local_commutator(f, g, F7) == 1
        assert local_commutator(f, LaurentSeries.constant(F7, 6), F7) == 1

    def test_bimultiplicative_and_skew(self, rng, F7, Q):
        for field in (F7, Q):
            for _ in range(100):
                s1 = random_unit_series(rng, field)
                s2 = random_unit_series(rng, field)
                t = random_unit_series(rng, field)
                lhs = local_commutator(s1 * s2, t, field)
                rhs = local_commutator(s1, t, field) * local_commutator(s2, t, field)
                assert lhs == rhs
                sym = local_commutator(s1, t, field) * local_commutator(t, s1, field)
                assert sym == field.one()

    def test_rejects_non_units(self, Q):
        with pytest.raises(NonUnitError):
            local_commutator(LaurentSeries.zero(Q), zpow(Q, 1), Q)
        with pytest.raises(NonUnitError):
            local_commutator(zpow(Q, 1), LaurentSeries.zero(Q, prec=4), Q)

    def test_agrees_with_unit_factorization(self, rng, F9, F3):
        for field, base in ((F9, F3), (F9, F9)):
            for _ in range(20):
                s = random_unit_series(rng, field)
                t = random_unit_series(rng, field)
                fs, ft = unit_factorize(s), unit_factorize(t)
                value = fs.leading**ft.valuation * ft.leading ** (-fs.valuation)
                assert local_commutator(s, t, base) == algebra_norm(value, base)


class TestTameSymbol:
    def test_spec_examples(self, Q, F5, F3, F9):
        assert tame_symbol(zpow(Q, 1), zpow(Q, 1), Q) == -1
        # <z, 2z> over F5: sign -1 times 1/2 = -3 = 2
        assert tame_symbol(zpow(F5, 1), zpow(F5, 1, 2), F5) == 2
        # over F9/F3 the sign exponent includes the degree
        assert tame_symbol(zpow(F9, 1), zpow(F9, 1), F3) == 1

    def test_skew(self, rng, F7):
        for _ in range(50):
            f = random_unit_series(rng, F7)
            g = random_unit_series(rng, F7)
            assert tame_symbol(f, g, F7) * tame_symbol(g, f, F7) == F7.one()


class TestContouCarrere:
    def test_case1_single_pair(self, Q):
        A = ArtinianAlgebra(Q, [("a", 2), ("b", 2)])
        a, b = A.generator(0), A.generator(1)
        f = LaurentSeries(A, {0: A.one(), 1: -a})
        g = LaurentSeries(A, {0: A.one(), -1: -b})
        assert contou_carrere_symbol(f, g) == A.one() - a * b

    def test_case1_general_exponents(self, Q):
        A = ArtinianAlgebra(Q, [("a", 3), ("b", 3)])
        a, b = A.generator(0), A.generator(1)
        from math import gcd

        for m in range(1, 5):
            for n in range(1, 5):
                f = LaurentSeries(A, {0: A.one(), m: -a})
                g = LaurentSeries(A, {0: A.one(), -n: -b})
                d = gcd(m, n)
                expected = (A.one() - a ** (n // d) * b ** (m // d)) ** d
                assert contou_carrere_symbol(f, g) == expected

    def test_trivial_cases(self, Q):
        A = ArtinianAlgebra(Q, [("a", 2), ("b", 2)])
        a, b = A.generator(0), A.generator(1)
        both_pos = contou_carrere_symbol(
            LaurentSeries(A, {0: A.one(), 2: -a}), LaurentSeries(A, {0: A.one(), 3: -b})
        )
        assert both_pos == A.one()
        both_neg = contou_carrere_symbol(
            LaurentSeries(A, {0: A.one(), -2: -a}), LaurentSeries(A, {0: A.one(), -3: -b})
        )
        assert both_neg == A.one()
        const = contou_carrere_symbol(
            LaurentSeries(A, {0: A.one() - a}), LaurentSeries(A, {0: A.one(), -3: -b})
        )
        assert const == A.one()

    def test_bimultiplicative(self, rng, Q):
        A = ArtinianAlgebra(Q, [("e", 3)])
        for _ in range(25):
            f1 = random_principal_unit(rng, A, -2, 2)
            f2 = random_principal_unit(rng, A, -2, 2)
            g = random_principal_unit(rng, A, -2, 2)
            lhs = contou_carrere_symbol(f1 * f2, g)
            rhs = contou_carrere_symbol(f1, g) * contou_carrere_symbol(f2, g)
            assert lhs == rhs
            sym = contou_carrere_symbol(f1, g) * contou_carrere_symbol(g, f1)
            assert sym == A.one()

    def test_dual_number_closed_form(self, rng, Q):
        # over k[e1,e2]/(e1^2,e2^2): <1+e1 a, 1+e2 b> = 1 - e1 e2 sum(i a_i b_{-i})
        D = dual_numbers(Q)
        e1, e2 = D.generator(0), D.generator(1)
        for _ in range(25):
            alpha = random_laurent_polynomial(rng, Q, -3, 3)
            beta = random_laurent_polynomial(rng, Q, -3, 3)
            f = LaurentSeries.one(D) + alpha.map_coefficients(lambda c: lift(c, D) * e1, D)
            g = LaurentSeries.one(D) + beta.map_coefficients(lambda c: lift(c, D) * e2, D)
            total = Q.zero()
            for i, c in alpha.coeffs.items():
                total = total + Q.from_int(i) * c * beta.coefficient(-i)
            expected = D.one() - lift(total, D) * e1 * e2
            assert contou_carrere_symbol(f, g) == expected

    def test_rejects_outside_domain(self, Q):
        A = ArtinianAlgebra(Q, [("a", 2)])
        bad = LaurentSeries(A, {0: A.one(), -1: A.one()})
        with pytest.raises(DomainError):
            contou_carrere_symbol(bad, LaurentSeries.one(A))


class TestResidues:
    def test_dual_route_examples(self, Q):
        assert residue_from_dual_symbol(zpow(Q, -1), zpow(Q, 1)) == 1
        assert residue_from_dual_symbol(zpow(Q, -2), zpow(Q, 2)) == 2
        a = LaurentSeries(Q, {-1: 1, 2: 5})
        assert residue_from_dual_symbol(a, a) == 0

    def test_coefficient_route_examples(self, Q, F3, F9):
        assert residue_coefficient(zpow(Q, -1), zpow(Q, 1)) == 1
        for n in (-3, 0, 1, 4):
            assert residue_coefficient(zpow(Q, n), zpow(Q, 1)) == (1 if n == -1 else 0)
        u = F9.generator()
        assert residue_coefficient(zpow(F9, -1, u), zpow(F9, 1), F3) == 0

    def test_tate_examples(self, Q):
        assert tate_residue(zpow(Q, -1), zpow(Q, 1), 6) == 1
        f = LaurentSeries(Q, {-2: 3, 1: 2})
        assert tate_residue(f, f, 8) == 0
        assert tate_residue(LaurentSeries.one(Q), f, 8) == 0
        # window 0 leaves V^- empty; the block traces are then empty sums
        assert tate_residue(LaurentSeries.constant(Q, 1), LaurentSeries.constant(Q, 2), 0) == 0

    def test_three_routes_agree(self, rng, Q, F5, F9):
        for field in (Q, F5, F9):
            for _ in range(40):
                alpha = random_laurent_polynomial(rng, field, -4, 4)
                beta = random_laurent_polynomial(rng, field, -4, 4)
                coeff = residue_coefficient(alpha, beta, field)
                dual = residue_from_dual_symbol(alpha, beta, field)
                tate = tate_residue(alpha, beta, 10)
                assert coeff == dual == tate

    def test_trace_compatibility_over_extension(self, rng, F3, F9):
        # normed routes agree after applying the field trace to the Tate value
        for _ in range(20):
            alpha = random_laurent_polynomial(rng, F9, -3, 3)
            beta = random_laurent_polynomial(rng, F9, -3, 3)
            coeff = residue_coefficient(alpha, beta, F3)
            dual = residue_from_dual_symbol(alpha, beta, F3)
            tate = algebra_trace(tate_residue(alpha, beta, 9), F3)
            assert coeff == dual == tate


class TestGelfandFuchs:
    def test_tensor_examples(self, Q):
        A = LoopMatrix.from_tensor([[0, 1], [0, 0]], zpow(Q, -1))
        B = LoopMatrix.from_tensor([[0, 0], [1, 0]], zpow(Q, 1))
        assert gelfand_fuchs_cocycle(A, B) == 1
        assert gelfand_fuchs_cocycle(A, A) == 0
        I = LoopMatrix.from_tensor([[1, 0], [0, 1]], LaurentSeries.one(Q))
        assert gelfand_fuchs_cocycle(I, B) == 0

    def test_cocycle_identity(self, rng, F7):
        def random_loop():
            return LoopMatrix(
                F7,
                [
                    [random_laurent_polynomial(rng, F7, -2, 2) for _ in range(2)]
                    for _ in range(2)
                ],
            )

        for _ in range(50):
            A, B, C = random_loop(), random_loop(), random_loop()
            total = (
                gelfand_fuchs_cocycle(bracket(A, B), C)
                + gelfand_fuchs_cocycle(bracket(B, C), A)
                + gelfand_fuchs_cocycle(bracket(C, A), B)
            )
            assert total == F7.zero()

    def test_skew(self, rng, Q):
        for _ in range(20):
            A = LoopMatrix(
                Q,
                [[random_laurent_polynomial(rng, Q, -2, 2) for _ in range(2)] for _ in range(2)],
            )
            B = LoopMatrix(
                Q,
                [[random_laurent_polynomial(rng, Q, -2, 2) for _ in range(2)] for _ in range(2)],
            )
            assert gelfand_fuchs_cocycle(A, B) + gelfand_fuchs_cocycle(B, A) == Q.zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_diagonal_matches_the_full_product(self, rng, F9, n):
        """The trace of the whole product A dB, truncated entries and their PrecisionError included."""
        def random_loop():
            entries = [[random_laurent_polynomial(rng, F9, -3, 3) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                entries[0][0] = entries[0][0].truncate(rng.randint(-2, 4))
            return LoopMatrix(F9, entries)

        def outcome(fn):
            try:
                return fn()
            except ReciprocityError as exc:
                return type(exc), str(exc)

        def full_product(A, B):
            product = matmul(A, B.derivative())
            trace = sum((product.entries[i][i] for i in range(n)), LaurentSeries.zero(F9))
            return algebra_trace(trace.coefficient(-1), F9)

        for _ in range(20):
            A, B = random_loop(), random_loop()
            assert outcome(lambda: gelfand_fuchs_cocycle(A, B)) == outcome(lambda: full_product(A, B))


# -- the Contou-Carrère symbol against the loops it replaced ---------------------

CC_RINGS = {spec: parse_ring_spec(spec)
            for spec in ("F7[e,d]/(e^3,d^2)", "Q[e1,e2]/(e1^2,e2^2)", "F9[e]/(e^3)", "F2[e]/(e^4)")}


def principal_unit(ring, rng, prec):
    f = random_principal_unit(rng, ring)
    return f if prec is None else f.truncate(prec)


def both_ways(fn, *args):
    """(value now, value with the earlier loops), each the error raised if there is one."""
    outcomes = []
    for loops in (contextlib.nullcontext(), earlier_cc_loops()):
        with loops:
            try:
                value = fn(*args)
            except ReciprocityError as exc:
                value = type(exc), str(exc)
        outcomes.append((value, str(value)))
    return outcomes


@pytest.mark.parametrize("spec", sorted(CC_RINGS))
@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.none() | st.integers(1, 60), st.none() | st.integers(-2, 12))
def test_cc_factorize_matches_the_earlier_loops(spec, rng, f_prec, prec):
    """Exact and truncated inputs; the negative peel of most of them repeats an exponent."""
    f = principal_unit(CC_RINGS[spec], rng, f_prec)
    got, want = both_ways(cc_factorize, f, prec)
    assert got == want


@pytest.mark.parametrize("spec", sorted(CC_RINGS))
@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.none() | st.integers(12, 100), st.none() | st.integers(12, 100))
def test_contou_carrere_symbol_matches_the_earlier_loops(spec, rng, f_prec, g_prec):
    ring = CC_RINGS[spec]
    f, g = principal_unit(ring, rng, f_prec), principal_unit(ring, rng, g_prec)
    got, want = both_ways(contou_carrere_symbol, f, g)
    assert got == want


def test_negative_peel_repeats_exponents():
    ring = CC_RINGS["F2[e]/(e^4)"]
    f = parse_series("e*z^-1 + 1 + e", ring)
    fac = cc_factorize(f)
    exponents = [i for i, _ in fac.neg]
    assert len(set(exponents)) < len(exponents)
    got, want = both_ways(cc_factorize, f)
    assert got == want


# the first symbol-cc pair of the local_symbols benchmark at seed 1
CC_PAIR = (
    "(d + e*d + e^2 + 3*e^2*d)*z^-2 + (5*d + 4*e + 4*e*d + 5*e^2*d)*z^-1 + 1 + 6*d + 4*e + 4*e*d"
    " + 6*e^2 + 4*e^2*d + (3*d + 2*e + 6*e*d + 6*e^2 + 2*e^2*d)*z + (d + 2*e + 6*e*d + 5*e^2 + e^2*d)*z^3",
    "(4*d + 4*e^2*d)*z^-3 + (5*d + 3*e*d + e^2 + 6*e^2*d)*z^-1 + 1 + (4*d + e + 4*e*d + 2*e^2 + 2*e^2*d)*z^2",
)


def test_contou_carrere_products_are_capped(monkeypatch):
    """Vanishing pairs cost no product, the geometric series' leading 1 none, and each peel coefficient's
    powers are formed once, by the factorization (444, then 239, products before)."""
    ring = CC_RINGS["F7[e,d]/(e^3,d^2)"]
    f, g = (parse_series(text, ring) for text in CC_PAIR)
    calls = []
    original = ArtinianAlgebra._mul

    def counting(self, a, b):
        calls.append(1)
        return original(self, a, b)

    monkeypatch.setattr(ArtinianAlgebra, "_mul", counting)
    value = contou_carrere_symbol(f, g)
    assert len(calls) <= 210
    assert str(value) == "1 + 3*e*d + 4*e^2*d"
