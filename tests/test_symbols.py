import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity import laurent, symbols
from reciprocity.artinian import ArtinianAlgebra, dual_numbers
from reciprocity.blockops import cocycle_commutator, multiplication_operator
from reciprocity.errors import DomainError, NonUnitError, PrecisionError, ReciprocityError, WindowError
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
    tate_window,
)
from support import (
    bracket,
    earlier_cc_loops,
    loop_derivative,
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

    def test_dual_route_refuses_a_truncated_input(self, Q):
        """res (1 + z + O(z^2)) d(z^-3) reads the unknown z^3 coefficient; the symbol reads 1 + e1 alpha to O(z^13)."""
        with pytest.raises(PrecisionError, match=r"f is known only to O\(z\^2\); the symbol reads it to O\(z\^13\)"):
            residue_from_dual_symbol(parse_series("1 + z + O(z^2)", Q), zpow(Q, -3))

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


TATE_FIELDS = {"Q": QQ, "F7": PrimeField(7), "F9": ExtensionField(3, [1, 0, 1])}


@pytest.mark.parametrize("spec", sorted(TATE_FIELDS))
@settings(max_examples=30, deadline=None)
@given(rng=st.randoms(use_true_random=False), low=st.integers(-5, 0), high=st.integers(0, 5))
def test_tate_residue_is_the_coefficient_at_every_admissible_window(spec, rng, low, high):
    """One pass at the window given; the value is the same at every window from the support bound up."""
    field = TATE_FIELDS[spec]
    f = random_laurent_polynomial(rng, field, low, high)
    g = random_laurent_polynomial(rng, field, rng.randint(low, 0), rng.randint(0, high))
    pole = max(0, -min(f.support() + g.support(), default=0))
    degree = max(0, max(f.support() + g.support(), default=0))
    needed = pole + degree
    if needed:
        with pytest.raises(WindowError):
            tate_residue(f, g, needed - 1)
    for window in (needed, needed + 1, needed + 5, 2 * needed + 1):
        assert tate_residue(f, g, window) == residue_coefficient(f, g)


def test_one_tate_residue_is_one_lie_cocycle(monkeypatch, Q):
    calls = []
    lie_cocycle = symbols.lie_cocycle
    monkeypatch.setattr(symbols, "lie_cocycle", lambda s1, s2: calls.append(1) or lie_cocycle(s1, s2))
    assert tate_residue(zpow(Q, -1), zpow(Q, 1, 3), 4) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("ring_name", ["Q", "F3", "F7"])
def test_pair_precision_is_the_precision_of_the_product(rng, ring_name):
    """_pair_precision(a, b) is the precision of a * b.derivative(), exact zeros and inexact factors included."""
    ring = {"Q": QQ, "F3": PrimeField(3), "F7": PrimeField(7)}[ring_name]
    char = ring.characteristic

    def series():
        pick = rng.random()
        if pick < 0.15:
            return LaurentSeries.zero(ring)
        if pick < 0.25:
            return LaurentSeries.zero(ring, rng.randint(-3, 4))
        s = random_laurent_polynomial(rng, ring, -4, 4)
        return s.truncate(rng.randint(-4, 6)) if rng.random() < 0.6 else s

    # every exponent of z^3 and z^6 is divisible by 3, so over F3 their derivative is the exact zero
    special = [LaurentSeries(ring, {3: 1}), LaurentSeries(ring, {3: 1, 6: 2}), LaurentSeries(ring, {3: 1}, 5)]
    for _ in range(300):
        a = series()
        b = series() if rng.random() < 0.8 else rng.choice(special)
        assert symbols._pair_precision(a, b, char) == (a * b.derivative()).prec, (a, b)


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
    def test_diagonal_matches_the_full_product(self, rng, Q, F3, F9, n):
        """The trace of the whole product A dB, truncated entries and their PrecisionError included.

        Over F3, 3 b_3 = 0 moves the low end of dB, which the precision of a
        truncated A reads.
        """
        def random_loop(ring):
            entries = [[random_laurent_polynomial(rng, ring, -3, 3) for _ in range(n)] for _ in range(n)]
            for _ in range(rng.randint(0, 2)):
                i, j = rng.randrange(n), rng.randrange(n)
                entries[i][j] = entries[i][j].truncate(rng.randint(-2, 4))
            return LoopMatrix(ring, entries)

        def outcome(fn):
            try:
                return fn()
            except ReciprocityError as exc:
                return type(exc), str(exc)

        def full_product(A, B, ring):
            product = matmul(A, loop_derivative(B))
            trace = sum((product.entries[i][i] for i in range(n)), LaurentSeries.zero(ring))
            return algebra_trace(trace.coefficient(-1), ring)

        for ring in (Q, F3, F9):
            for _ in range(20):
                A, B = random_loop(ring), random_loop(ring)
                assert outcome(lambda: gelfand_fuchs_cocycle(A, B)) == outcome(lambda: full_product(A, B, ring))

    def test_precision_reads_the_low_end_of_dB(self, F3):
        """Over F3, 3 b_3 = 0: dB of z^3 is the exact zero, and dB of z^3 + z^4 starts at z^3.

        With a = z^-4 + O(z^-3), a dB is then the exact zero, and known to
        O(z^0); for b = z^2 + z^4, whose dB starts at z^1, it is known only
        to O(z^-2).
        """
        a = LoopMatrix(F3, [[LaurentSeries(F3, {-4: 1}, -3)]])
        for b, want in (({3: 1}, 0), ({3: 1, 4: 1}, 1)):
            assert gelfand_fuchs_cocycle(a, LoopMatrix(F3, [[LaurentSeries(F3, b)]])) == want
        with pytest.raises(PrecisionError, match=r"O\(z\^-2\)"):
            gelfand_fuchs_cocycle(a, LoopMatrix(F3, [[LaurentSeries(F3, {2: 1, 4: 1})]]))

    def test_from_tensor_scales_and_zero_is_exact(self, rng, Q, F7):
        rings = (Q, F7, ArtinianAlgebra(F7, [("e", 3), ("d", 2)]))
        for ring in rings:
            for _ in range(10):
                alpha = random_laurent_polynomial(rng, ring, -3, 3)
                if rng.random() < 0.5:
                    alpha = alpha.truncate(rng.randint(-2, 4))
                s = [[0, ring.random_element(rng)], [ring.zero(), 3]]
                loop = LoopMatrix.from_tensor(s, alpha)
                assert loop.entries[0][0] == alpha * 0 == LaurentSeries.zero(ring)
                assert loop.entries[1][0] == alpha * ring.zero()
                assert loop.entries[0][1] == alpha * s[0][1]
                assert loop.entries[1][1] == alpha * 3

    def test_entries_over_another_ring_are_refused(self, Q, F7):
        with pytest.raises(DomainError):
            LoopMatrix(Q, [[LaurentSeries.one(Q), LaurentSeries.one(F7)], [LaurentSeries.one(Q)] * 2])


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


def check_positive_peel_counts(f, prec):
    """Before each positive peel of cc_factorize(f, prec), the count is at least the base products the peel
    forms, and at most dim^2 for each of the prec - i places it can visit, the bound under which
    cc_factorize counts none."""
    ring = f.ring
    formed, checked = [0], []
    base_mul_add, divide = ring.base._mul_add, laurent._divide_by_peel

    def counting_mul_add(acc, a, b):
        formed[0] += 1
        return base_mul_add(acc, a, b)

    def counted_divide(work, exponent, powers):
        if exponent < 0:
            return divide(work, exponent, powers)
        bound = laurent._positive_peel_products(work, exponent, powers)
        formed[0] = 0
        with mock.patch.object(ring.base, "_mul_add", counting_mul_add):
            out = divide(work, exponent, powers)
        assert formed[0] <= bound <= ring.dimension ** 2 * (work.prec - exponent)
        checked.append(bound)
        return out

    with mock.patch.object(laurent, "_divide_by_peel", counted_divide):
        try:
            fac = cc_factorize(f, prec)
        except PrecisionError:
            return
    assert len(checked) == sum(i > 0 for i, _ in fac.pos)


@pytest.mark.parametrize("spec", sorted(CC_RINGS))
@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.none() | st.integers(1, 60), st.none() | st.integers(1, 40))
def test_positive_peel_products_bound_the_products_formed(spec, rng, f_prec, prec):
    check_positive_peel_counts(principal_unit(CC_RINGS[spec], rng, f_prec), prec)


@pytest.mark.parametrize("ring, f, prec", [
    ("F7[e,d]/(e^3,d^2)", "1 + e*z + e*z^5", 12),
    ("Q[e,d]/(e^4,d^2)", "1 + e*z^2 + d*z^3 + e*z^9", 24),
    ("F2[e]/(e^4)", "1 + e*z + e*z^4 + e*z^7", 16),
], ids=["gap", "two-gaps", "char-2"])
def test_positive_peel_counts_reach_the_places_a_peel_fills(ring, f, prec):
    """Past a gap of f, a peel's quotient is nonzero where f is zero, and the count must reach it."""
    ring = parse_ring_spec(ring)
    check_positive_peel_counts(parse_series(f, ring, prec), prec)


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


def test_negative_peel_count_is_linear_in_the_nilpotency_index():
    """Sweeps from z^-1 down peel 1 + e z^-5 + e z^-4 over Q[e]/(e^N) 5, 12, 22, ... times.  A sweep
    raises the m-adic order of the negative part, so fewer than N sweeps run, each with exponents rising."""
    for n, peels in ((4, 5), (6, 12), (8, 22), (10, 32), (12, 42), (14, 52), (32, 142)):
        fac = cc_factorize(parse_series("1 + e*z^-5 + e*z^-4", parse_ring_spec(f"Q[e]/(e^{n})")), 2)
        exponents = [i for i, _ in fac.neg]
        assert len(exponents) == peels
        assert 1 + sum(b <= a for a, b in zip(exponents, exponents[1:])) < n


CC_DET_RING = parse_ring_spec("F101[e]/(e^8)")


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_contou_carrere_symbol_is_the_determinant_commutator(rng):
    """At nilpotency 8 the symbol is the det-cocycle commutator of the two multiplication operators at
    window nil_index * tate_window."""
    f, g = random_principal_unit(rng, CC_DET_RING), random_principal_unit(rng, CC_DET_RING)
    w = CC_DET_RING.nil_index * tate_window(f, g)
    det = cocycle_commutator(multiplication_operator(f, w, w), multiplication_operator(g, w, w))
    assert contou_carrere_symbol(f, g) == det


@pytest.mark.parametrize("spec", sorted(CC_RINGS))
@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(3, 12), st.integers(1, 16))
def test_truncated_inputs_are_refused_or_keep_the_symbol(spec, rng, top, prec):
    """Truncating either argument of an exact pair raises PrecisionError or leaves <f, g> as it was.

    f is 1 plus terms up to z^top and g is 1 + b z^-top, so the factors
    (1 - a z^top) of f and (1 - b z^-top) of g pair to 1 - a b, which a
    truncation of f can drop; and the peel of g lowers the precision of a
    truncated g by up to top times the nilpotency order.  With one negative
    term in all, the peels stay far below ``PEEL_BUDGET``.
    """
    ring = CC_RINGS[spec]
    f, g = random_principal_unit(rng, ring, 0, top), random_principal_unit(rng, ring, -top, -top)
    for a, b in ((f, g), (g, f)):
        exact = contou_carrere_symbol(a, b)
        for t, u in ((a.truncate(prec), b), (a, b.truncate(prec))):
            try:
                value = contou_carrere_symbol(t, u)
            except PrecisionError:
                continue
            assert value == exact


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
