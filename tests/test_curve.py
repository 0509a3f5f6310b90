import json
import math
import random
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from reciprocity.cli import main as cli_main
from reciprocity.corpus import random_irreducible, random_rational_pair
from reciprocity.curve import (
    AdeleVector,
    Differential,
    Place,
    RationalFunction,
    _divide_out,
    _pairing_precision,
    _residue_class_norm,
    divisor_of,
    local_expansion,
    relevant_places,
    residue_pairing_sum,
    trace_residue_at_place,
    verify_gf_global,
    verify_residue_theorem,
    verify_residues_local_data,
    verify_wrl,
    verify_wrl_local_data,
    wrl_local_factor,
)
from reciprocity.errors import DomainError, FactorError, TowerError
from reciprocity.fields import QQ, AlgebraElement, ExtensionField, PrimeField, find_irreducible, lift
from reciprocity.laurent import LaurentSeries
from reciprocity.norms import algebra_norm
from reciprocity.poly import Polynomial
from reciprocity.symbols import residue_coefficient
from support import agrees_with, random_factored_rational, rational_derivative, rational_x, sigma_perp_forward


def h_dx(h):
    """h dx, the differential whose residues are those of h."""
    return Differential(h, rational_x(h.field))


def rf(field, num_ints, den_ints=(1,)):
    return RationalFunction(
        field,
        Polynomial(field, num_ints),
        Polynomial(field, den_ints),
    )


class TestPlacesAndDivisors:
    def test_relevant_places_examples(self, Q, F3):
        f, g = rf(Q, (0, 1)), rf(Q, (1, -1))
        names = [str(p) for p in relevant_places(f, g)]
        assert names == ["(x)", "(x - 1)", "infinity"]

        h = rf(F3, (1, 0, 1))
        names3 = [str(p) for p in relevant_places(h, rf(F3, (1,)))]
        assert names3 == ["(x^2 + 1)", "infinity"]

        assert [str(p) for p in relevant_places(rf(Q, (1,)), rf(Q, (1,)))] == ["infinity"]

    def test_place_validation(self, F3):
        with pytest.raises(DomainError):
            Place.finite(Polynomial(F3, [2]))
        p = Place.finite(Polynomial(F3, [1, 0, 1]))
        assert p.degree == 2
        assert p.residue_field.order == 9

    def test_residue_field_over_q_limited(self, Q):
        p = Place.finite(Polynomial(Q, [1, 0, 1]))
        with pytest.raises(TowerError):
            p.residue_field

    def test_divisor_examples(self, Q, F3):
        d = divisor_of(rf(Q, (0, 1)))
        assert d.degree == 0
        assert d.data[Place.infinity(Q)] == -1
        assert divisor_of(rf(Q, (5,))).data == {}

        h = RationalFunction(
            F3,
            Polynomial(F3, (1, 0, 1)),
            Polynomial(F3, (0, 1)),
        )
        dh = divisor_of(h)
        assert dh.degree == 0
        inf = Place.infinity(F3)
        assert dh.data[inf] == -1

    def test_divisor_degree_zero_random(self, rng, F5, F7):
        for field in (F5, F7):
            for _ in range(40):
                f, _ = random_rational_pair(rng, field, 5)
                assert divisor_of(f).degree == 0


class TestLocalExpansion:
    def test_examples(self, Q):
        x = rational_x(Q)
        one = RationalFunction.constant(Q, 1)
        at_zero = Place.finite(Polynomial.x(Q))
        assert local_expansion(one / x, at_zero, 5).coefficient(-1) == 1
        inf = Place.infinity(Q)
        e = local_expansion(x, inf, 5)
        assert e.coefficient(-1) == 1 and len(e.coeffs) == 1
        geom = local_expansion(one / (one - x), at_zero, 5)
        assert geom == LaurentSeries(Q, {i: 1 for i in range(5)}, 5)

    def test_higher_degree_place_refused(self, Q, F9):
        # over Q and F_q a place of degree > 1 has no residue field to expand in
        for field, modulus in ((Q, [1, 0, 1]), (F9, [F9.generator(), 0, 1])):
            p = Place.finite(Polynomial(field, modulus))
            h = RationalFunction(field, Polynomial.one(field), p.poly)
            with pytest.raises(DomainError, match=re.escape(f"place {p} of degree 2 over {field!r}")):
                local_expansion(h, p, 5)

    @pytest.mark.parametrize("p", [7, 101, 2**31 - 1])
    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32), a=st.integers(-2, 2), b=st.integers(-2, 2))
    def test_higher_degree_places_over_f_p_trace_to_the_residue(self, p, d, seed, a, b):
        """At a place P of degree d over F_p the residue of the expansions in k(P), traced, is tr res_P(f dg)."""
        field, rng = PrimeField(p), random.Random(seed)
        place = Place.finite(random_irreducible(rng, field, d))
        power = RationalFunction.from_factored(field, 1, [(place.poly, 1)])
        f, g = random_rational_pair(rng, field, 3)
        f, g = f * power**a, g * power**b
        for q in relevant_places(f, g):
            if q.degree == 1:
                continue
            need = _pairing_precision(f.valuation_at(q), g.valuation_at(q))
            f_q, g_q = local_expansion(f, q, need), local_expansion(g, q, need)
            assert f_q.ring == g_q.ring == q.residue_field
            assert residue_coefficient(f_q, g_q, field) == trace_residue_at_place(Differential(f, g), q), (f, g, q)

    def test_valuation_and_unit_value(self, F3):
        p = Place.finite(Polynomial(F3, [1, 0, 1]))
        h = rf(F3, (1, 0, 1), (0, 1))  # (x^2+1)/x
        assert h.valuation_at(p) == 1
        assert h.valuation_at(Place.infinity(F3)) == -1
        u = rf(F3, (0, 1)).unit_value_at(p, 1)  # x mod x^2+1
        assert u == Polynomial.x(F3)
        assert rf(F3, (0, 1)).unit_value_at(p, -3) == Polynomial.x(F3)  # x^-3 = x^-4 x = x


def divided_unit_value(f, place):
    """(f / P^v)(P) in k[x]/(P), with each multiplicity found by dividing until a remainder appears."""
    p = place.poly
    return _divide_out(f.num, p)[1] * (_divide_out(f.den, p)[1] % p).invmod(p) % p


def both_unit_values(f, g, place):
    """The local factor at a finite place with both unit values formed, whatever the valuations.

    Valuations and unit values come from dividing by P, never from a factor cache.
    """
    p = place.poly
    vf, vg = (_divide_out(h.num, p)[0] - _divide_out(h.den, p)[0] for h in (f, g))
    cls = divided_unit_value(f, place).pow_mod(vg, p) * divided_unit_value(g, place).pow_mod(-vf, p) % p
    value = _residue_class_norm(cls, place)
    return -value if (vf * vg * place.degree) % 2 else value


def test_residue_class_norm_boxes_only_the_determinant(F7, monkeypatch):
    """At a degree-3 place the columns and the matrix are raw data; the one element built is the norm."""
    place = Place.finite(Polynomial(F7, find_irreducible(7, 3)))
    cls = Polynomial(F7, [3, 5, 2])
    want = algebra_norm(place.residue_field.from_coordinates([3, 5, 2]), F7)
    built, init = [], AlgebraElement.__init__

    def counting(self, ring, data):
        built.append(data)
        init(self, ring, data)

    monkeypatch.setattr(AlgebraElement, "__init__", counting)
    value = _residue_class_norm(cls, place)
    monkeypatch.undo()
    assert len(built) <= 1
    assert value == want


class TestWRL:
    def test_local_factor_examples(self, Q):
        x = rational_x(Q)
        g = RationalFunction.constant(Q, 1) - x
        at_zero = Place.finite(Polynomial.x(Q))
        inf = Place.infinity(Q)
        assert wrl_local_factor(x, g, at_zero) == 1
        assert wrl_local_factor(x, g, inf) == 1
        at_one = Place.finite(Polynomial(Q, [-1, 1]))
        assert wrl_local_factor(x, g, at_one) == 1

    def test_degree_two_factor(self, F3):
        f = rf(F3, (1, 0, 1))
        p = Place.finite(Polynomial(F3, [1, 0, 1]))
        assert wrl_local_factor(f, f, p) == 1

    def test_local_factor_forms_only_the_unit_values_it_raises(self, F7, monkeypatch):
        x = rational_x(F7)
        f, g = x**2 * (x + 1), x * (x + 2) / (x**2 + 1)  # x^2 + 1 is irreducible over F7
        places = [place for place in relevant_places(f, g) if not place.is_infinite]
        want = [both_unit_values(f, g, place) for place in places]
        calls = []
        unit_value_at = RationalFunction.unit_value_at
        monkeypatch.setattr(RationalFunction, "unit_value_at",
                            lambda self, place, n: calls.append("f" if self is f else "g") or unit_value_at(self, place, n))
        formed = []
        for place, value in zip(places, want):
            calls.clear()
            assert wrl_local_factor(f, g, place) == value, str(place)
            formed.append((f.valuation_at(place), g.valuation_at(place), "".join(calls)))
        assert sorted(formed) == [(0, -1, "f"), (0, 1, "f"), (1, 0, "g"), (2, 1, "fg")]

    @pytest.mark.parametrize("key", ["Q", "F7", "F9"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_local_factor_at_shared_places_of_high_order(self, key, data):
        """At a degree-1 and a degree-2 place shared by f and g, each of order at least 2 in size
        and of both signs, the local factor is the one formed by dividing until a remainder appears."""
        field = DIFFERENTIAL_FIELDS[key]
        linear, higher = place_pool(key)
        lin = data.draw(st.sampled_from(linear))
        quad = data.draw(st.sampled_from([p for p in higher if p.degree == 2]))
        spare = data.draw(st.sampled_from([p for p in linear + higher if p not in (lin, quad)]))
        zeros, poles, either = st.sampled_from([2, 3]), st.sampled_from([-3, -2]), st.sampled_from([-3, -2, 2, 3])
        f_exps = {lin: data.draw(zeros), quad: data.draw(poles)}
        g_exps = {lin: data.draw(poles), quad: data.draw(either)}
        spare_in = f_exps if data.draw(st.booleans(), label="spare in f") else g_exps
        spare_in[spare] = data.draw(st.sampled_from([-1, 1]))
        leads = st.integers(1, 6).map(field.from_int).filter(lambda c: not c.is_zero())
        f = RationalFunction.from_factored(field, data.draw(leads), f_exps.items())
        g = RationalFunction.from_factored(field, data.draw(leads), g_exps.items())
        places = [place for place in relevant_places(f, g) if not place.is_infinite]
        assert {Place.finite(lin), Place.finite(quad)} <= set(places)
        bare = data.draw(st.sampled_from(["neither", "f", "g", "both"]), label="without a factor cache")
        ff = without_cache(f) if bare in ("f", "both") else f
        gg = without_cache(g) if bare in ("g", "both") else g
        for place in places:
            assert wrl_local_factor(ff, gg, place) == both_unit_values(f, g, place), (f, g, place)

    def test_local_factor_inverts_each_unit_value_once(self, F7, monkeypatch):
        """A negative power swaps num and den: one invmod per unit value, no pow_mod inverts again,
        and a unit value to the power +-1 is its reduced class, raised by no pow_mod."""
        x = rational_x(F7)
        f, g = x**2 * (x + 1) / (x + 3), x * (x + 2) / ((x**2 + 1) * (x + 1) ** 2)
        places = [place for place in relevant_places(f, g) if not place.is_infinite]
        want = [wrl_local_factor(f, g, place) for place in places]
        inversions, exponents = [], []
        invmod, pow_mod = Polynomial.invmod, Polynomial.pow_mod
        monkeypatch.setattr(Polynomial, "invmod", lambda self, m: inversions.append(1) or invmod(self, m))
        monkeypatch.setattr(Polynomial, "pow_mod", lambda self, e, m: exponents.append(e) or pow_mod(self, e, m))
        assert [wrl_local_factor(f, g, place) for place in places] == want
        # the exponent of each unit value formed: v(g) for f's, -v(f) for g's
        powers = [n for p in places for n in (g.valuation_at(p), -f.valuation_at(p)) if n]
        assert len(inversions) == len(powers) == 7
        assert sorted(exponents) == sorted(abs(n) for n in powers if abs(n) > 1) == [2, 2]

    def test_verify_examples(self, Q):
        x = rational_x(Q)
        one = RationalFunction.constant(Q, 1)
        assert verify_wrl(x, one - x).verified
        assert verify_wrl(x, x).verified
        f = (x**2 + 3) / (x - 1)
        assert verify_wrl(f, RationalFunction.constant(Q, 7)).verified

    def test_verify_random_f5_f7(self, rng, F5, F7):
        for field in (F5, F7):
            for i in range(40):
                f, g = random_rational_pair(rng, field, 5, force_higher_place=(i % 5 == 0))
                rep = verify_wrl(f, g)
                assert rep.verified, rep.text()

    @pytest.mark.parametrize("field_name", ["F4", "F2_64_13"])
    def test_verify_random_f4_and_above_2_63(self, rng, request, field_name):
        field = request.getfixturevalue(field_name)
        for i in range(15):
            f, g = random_rational_pair(rng, field, 4, force_higher_place=(i % 3 == 0))
            rep = verify_wrl(f, g)
            assert rep.verified, rep.text()

    def test_verify_factored_q(self, rng, Q):
        for _ in range(15):
            f = random_factored_rational(rng)
            g = random_factored_rational(rng)
            rep = verify_wrl(f, g)
            assert rep.verified, rep.text()

    def test_uncertified_factorization_rejected(self, Q):
        hard = rf(Q, (1, 1, 0, 0, 1))  # x^4+x+1: cannot certify automatically
        with pytest.raises(FactorError):
            relevant_places(hard, rf(Q, (1,)))


class TestResidueTheorem:
    def test_examples(self, Q, F3):
        x = rational_x(Q)
        one = RationalFunction.constant(Q, 1)
        rep = verify_residue_theorem(one / x, x)
        assert rep.verified
        by_place = {r["place"]: r["residue"] for r in rep.places}
        assert by_place["(x)"] == "1" and by_place["infinity"] == "-1"

        assert verify_residue_theorem(x**2 + x, x**3).verified

        h = rf(F3, (1,), (1, 0, 1))
        rep3 = verify_residue_theorem(h, rational_x(F3))
        assert rep3.verified
        assert all(r["residue"] == "0" for r in rep3.places)

    def test_trace_residue_examples(self, Q):
        x = rational_x(Q)
        one = RationalFunction.constant(Q, 1)
        omega = Differential(one / x, x)
        assert trace_residue_at_place(omega, Place.finite(Polynomial.x(Q))) == 1
        assert trace_residue_at_place(omega, Place.infinity(Q)) == -1

    def test_random(self, rng, F5, F7):
        for field in (F5, F7):
            for i in range(40):
                f, g = random_rational_pair(rng, field, 5, force_higher_place=(i % 5 == 0))
                rep = verify_residue_theorem(f, g)
                assert rep.verified, rep.text()

    def test_random_factored_q(self, rng, Q):
        for _ in range(15):
            f = random_factored_rational(rng)
            g = random_factored_rational(rng)
            assert verify_residue_theorem(f, g).verified

    def test_consistency_degree_one(self, rng, F5):
        # at degree-1 places the residue is the z^{-1} coefficient of the expansion
        z_series = LaurentSeries(F5, {1: 1})
        for _ in range(20):
            f, g = random_rational_pair(rng, F5, 4)
            h = f * rational_derivative(g)
            for place in relevant_places(f, g):
                if place.is_infinite or place.degree != 1:
                    continue
                direct = trace_residue_at_place(Differential(f, g), place)
                exp = local_expansion(h, place, 2)
                assert residue_coefficient(exp, z_series, F5) == direct

    def test_precision_independence(self, rng, F5):
        for _ in range(10):
            f, g = random_rational_pair(rng, F5, 4)
            h = f * rational_derivative(g)
            for place in relevant_places(f, g):
                if place.degree != 1 and not place.is_infinite:
                    continue
                if place.is_infinite:
                    a = local_expansion(h, place, 3)
                    b = local_expansion(h, place, 6)
                else:
                    a = local_expansion(h, place, 2)
                    b = local_expansion(h, place, 4)
                assert agrees_with(a, b)


class TestBaseChangeOracle:
    @pytest.mark.parametrize("p", [3, 5])
    def test_higher_degree_residues_split(self, p, rng):
        field = PrimeField(p)
        for _ in range(10):
            f, g = random_rational_pair(rng, field, 4)
            h = f * rational_derivative(g)
            for place in relevant_places(f, g):
                if place.is_infinite or place.degree == 1:
                    continue
                base_value = trace_residue_at_place(Differential(f, g), place)
                ext = ExtensionField(p, [c.data for c in place.poly.coeffs])
                num_k = Polynomial(ext, [lift(c, ext) for c in h.num.coeffs])
                den_k = Polynomial(ext, [lift(c, ext) for c in h.den.coeffs])
                h_k = RationalFunction(ext, num_k, den_k)
                modulus_k = Polynomial(ext, [lift(c, ext) for c in place.poly.coeffs])
                from reciprocity.factor import poly_factor

                fac = poly_factor(modulus_k)
                assert all(q.degree == 1 for q, _, _ in fac.factors)
                total = ext.zero()
                for q, mult, _ in fac.factors:
                    assert mult == 1
                    split_place = Place.finite(q)
                    total = total + trace_residue_at_place(h_dx(h_k), split_place)
                assert total == lift(base_value, ext)


class TestLocalDataMode:
    def test_wrl_and_residues_from_expansions(self, rng, F5):
        # build raw local data from an honest rational pair with linear places
        x = rational_x(F5)
        one = RationalFunction.constant(F5, 1)
        f = x**2 * (one - x)
        g = (one + x) / x
        entries_f = []
        prec = 12
        for place in relevant_places(f, g):
            assert place.degree == 1 or place.is_infinite
            entries_f.append((F5, local_expansion(f, place, prec), local_expansion(g, place, prec)))
        rep = verify_wrl_local_data(entries_f, F5)
        assert rep.verified, rep.text()
        rep2 = verify_residues_local_data(entries_f, F5)
        assert rep2.verified, rep2.text()


class TestSigmaPerp:
    def test_rational_default_true(self, Q):
        x = rational_x(Q)
        one = RationalFunction.constant(Q, 1)
        adele = AdeleVector(one / x)
        assert sigma_perp_forward(adele, [x, x**2, one / (one - x)])

    def test_constant_perturbation_true(self, Q):
        x = rational_x(Q)
        one = RationalFunction.constant(Q, 1)
        at_one = Place.finite(Polynomial(Q, [-1, 1]))
        adele = AdeleVector(one / x, {at_one: LaurentSeries(Q, {0: 9}, 8)})
        # tests regular at the perturbed place
        assert sigma_perp_forward(adele, [x, x**2 + x])

    def test_nonconstant_perturbation_detected(self, Q):
        x = rational_x(Q)
        one = RationalFunction.constant(Q, 1)
        at_one = Place.finite(Polynomial(Q, [-1, 1]))
        adele = AdeleVector(one / x, {at_one: LaurentSeries(Q, {-1: 1}, 8)})
        assert not sigma_perp_forward(adele, [x])

    @pytest.mark.parametrize("field_name", ["Q", "F7"])
    def test_a_deep_pole_component_pairs_to_its_coefficient(self, request, field_name):
        """With default 1 and the component c z^-k at P, the pairing with g is res_P(c z^-k dg) = c k g_k,
        since dg has no residues: g must be expanded far enough to reach g_k."""
        field = request.getfixturevalue(field_name)
        x = rational_x(field)
        one = RationalFunction.constant(field, 1)
        place = Place.finite(Polynomial(field, [-1, 1]))
        c = field.from_int(3)
        for g in (x**3 + 2 * x, x / (x - 1) ** 3, (x - 1) ** 2 / (x + 1), one / (x**2 + x + 3)):
            for k in range(1, 6):
                adele = AdeleVector(one, {place: LaurentSeries(field, {-k: c})})
                g_k = local_expansion(g, place, k + 1).coefficient(k)
                assert residue_pairing_sum(adele, g) == c * k * g_k, (g, k)

    def test_bad_component_places_rejected(self, F3, Q):
        deg2 = Place.finite(Polynomial(F3, [1, 0, 1]))
        with pytest.raises(DomainError):
            AdeleVector(rational_x(F3), {deg2: LaurentSeries.one(F3)})
        with pytest.raises(DomainError):
            AdeleVector(rational_x(Q), {Place.infinity(Q): "not a series"})


class TestGlobalGF:
    def test_examples(self, Q):
        x = rational_x(Q)
        one = RationalFunction.constant(Q, 1)
        rep = verify_gf_global([[1, 0], [0, 1]], [[1, 0], [0, 1]], one / x, x)
        assert rep.verified and rep.global_value == "0"
        nil = verify_gf_global([[0, 1], [0, 0]], [[0, 1], [0, 0]], one / x, x)
        assert nil.verified  # tr(ST) = 0
        rep2 = verify_gf_global(
            [[1, 2], [0, 3]], [[1, 1], [4, 0]], one / (x - 1), x**2
        )
        assert rep2.verified

    def test_random(self, rng, F5):
        for i in range(15):
            f, g = random_rational_pair(rng, F5, 4, force_higher_place=(i % 4 == 0))
            s = [[F5.random_element(rng) for _ in range(2)] for _ in range(2)]
            t = [[F5.random_element(rng) for _ in range(2)] for _ in range(2)]
            rep = verify_gf_global(s, t, f, g)
            assert rep.verified, rep.text()

    @pytest.mark.parametrize("field_name", ["F7", "F9", "Q", "F4", "F2_64_13"])
    def test_random_3x3(self, rng, request, field_name):
        field = request.getfixturevalue(field_name)
        for i in range(15):
            if field is QQ:
                # over Q only declared factorizations are certified
                f, g = random_factored_rational(rng), random_factored_rational(rng)
            else:
                f, g = random_rational_pair(rng, field, 4, force_higher_place=(i % 4 == 0))
            s = [[field.random_element(rng) for _ in range(3)] for _ in range(3)]
            t = [[field.random_element(rng) for _ in range(3)] for _ in range(3)]
            rep = verify_gf_global(s, t, f, g)
            assert rep.verified, rep.text()

    # tr(ST) = 3 over F5, so the sum vanishes only because the residues do
    GF_S = [[1, 2], [3, 4]]
    GF_T = [[2, 0], [1, 1]]

    @pytest.mark.parametrize("swap", [False, True])
    def test_unequal_valuations_at_infinity(self, F5, swap):
        # v_inf(x^2) = -2 and v_inf(1/x^3) = 3: each function must be expanded
        # past the other's valuation, not to a depth set by their sum
        f, g = rf(F5, (0, 0, 1)), rf(F5, (1,), (0, 0, 0, 1))
        if swap:
            f, g = g, f
        rep = verify_gf_global(self.GF_S, self.GF_T, f, g)
        assert rep.verified and rep.global_value == "0", rep.text()

    def test_unequal_valuations_at_finite_place(self, F5):
        # the mirror image of the pair above under x -> 1/x, plus a pole at x = 1
        f = rf(F5, (1,), (0, 0, 1))
        g = rf(F5, (0, 0, 0, 1), (-1, 1))
        rep = verify_gf_global(self.GF_S, self.GF_T, f, g)
        assert rep.verified and rep.global_value == "0", rep.text()
        residues = {row["place"]: row["residue"] for row in rep.places}
        assert residues["(x + 4)"] == "1" and residues["infinity"] == "4"

    def test_one_trace_residue_per_place(self, F5, monkeypatch):
        # x^2 + 2 is irreducible over F5, so f has a degree-2 place besides
        # the degree-1 places and infinity
        import reciprocity.curve as curve

        f = rf(F5, (2, 0, 1), (0, 1))
        g = rf(F5, (0, 1), (1, 1))
        calls = []

        def counted(omega, place):
            calls.append(str(place))
            return trace_residue_at_place(omega, place)

        monkeypatch.setattr(curve, "trace_residue_at_place", counted)
        rep = verify_gf_global(self.GF_S, self.GF_T, f, g)
        assert rep.verified, rep.text()
        places = [str(p) for p in relevant_places(f, g)]
        assert any(row["deg"] == 2 for row in rep.places)
        assert sorted(calls) == sorted(places)

    def test_cli_unequal_valuations(self, capsys):
        argv = ["verify-gf", "-f", "x^2", "-g", "1/x^3", "--field", "F5",
                "-S", "[[1,2],[3,4]]", "-T", "[[2,0],[1,1]]"]
        assert cli_main(argv) == 0
        assert "error" not in capsys.readouterr().err


class TestRationalPower:
    def test_binary_powering(self, F5, monkeypatch):
        f = rf(F5, (1, 2), (3, 0, 1))
        expected = {}
        for e in (1, 2, 3, 5, 8, 13, 100, -7):
            base = f if e > 0 else rf(F5, (1,)) / f
            value = base
            for _ in range(abs(e) - 1):
                value = value * base
            expected[e] = value
        calls = []
        original = RationalFunction.__mul__

        def counting(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(RationalFunction, "__mul__", counting)
        for e, value in expected.items():
            calls.clear()
            assert f**e == value
            assert len(calls) <= 2 * math.log2(abs(e))

    def test_factored_power_keeps_scaled_factors(self, F5):
        x = Polynomial.x(F5)
        pairs = [(x + 1, 2), (x**2 + 2, -1)]
        f = RationalFunction.from_factored(F5, 3, pairs)
        plain = RationalFunction(F5, f.num, f.den)
        for e in (5, -5):
            g = f**e
            assert g == plain**e
            assert g.factors == tuple((p, m * e) for p, m in f.factors)
            assert g.num.leading_coefficient() == F5.from_int(3) ** e
            assert plain.factors is None and (plain**e).factors is None


def test_polynomial_operands_lift_but_never_compare_equal():
    F7 = PrimeField(7)
    x = Polynomial.x(F7)
    f = RationalFunction(F7, x + 1, x)
    assert f * x == RationalFunction(F7, x + 1) == x * f
    assert f + x == RationalFunction(F7, x**2 + x + 1, x) == x + f
    assert x - f == RationalFunction(F7, x**2 - x - 1, x)
    assert f / (x + 1) == RationalFunction(F7, Polynomial.one(F7), x)
    # equal values of different types stay unequal, as their hashes differ
    assert RationalFunction(F7, x) != x and x != RationalFunction(F7, x)
    assert RationalFunction(F7, x) == rational_x(F7)


# -- the residue formula against the series and principal-part routes ---------


def reference_expansion(f, place, prec, margin=16):
    """local_expansion with a fixed surplus of inverse terms, truncated to prec."""
    if f.is_zero():
        return LaurentSeries.zero(f.field, prec)
    if place.is_infinite:
        num_t, den_t = f.num.reversed_coeffs(), f.den.reversed_coeffs()
        s = f.den.degree - f.num.degree
    else:
        a = -place.poly.coefficient(0)
        num_t, den_t = f.num.shift(a), f.den.shift(a)
        s = 0
    vn, vd = num_t.valuation_at_zero(), den_t.valuation_at_zero()
    num_s = LaurentSeries(f.field, dict(enumerate(num_t.coeffs)))
    den_s = LaurentSeries(f.field, dict(enumerate(den_t.coeffs)))
    inv = den_s.inverse(rel_prec=max(prec - s - vn + 2 * vd + margin, 1))
    return (num_s * inv).shift(s).truncate(prec)


def reference_trace_residue(h, place):
    """The three residue routes the remainder formula replaced.

    The t^-1 coefficient at degree-1 places, minus the t coefficient at
    infinity, and the x^-1 coefficient at infinity of the principal part at
    higher-degree places.
    """
    field = h.field
    if h.is_zero():
        return field.zero()
    if place.is_infinite:
        return -reference_expansion(h, place, 2).coefficient(1)
    if place.degree == 1:
        return reference_expansion(h, place, 1).coefficient(-1)
    m, q_part = _divide_out(h.den, place.poly)
    if m == 0:
        return field.zero()
    pm = place.poly**m
    principal = RationalFunction(field, (h.num * q_part.invmod(pm)) % pm, pm)
    return reference_expansion(principal, Place.infinity(field), 2).coefficient(1)


RESIDUE_FIELDS = {
    "Q": QQ,
    "F7": PrimeField(7),
    "F9": ExtensionField(3, [1, 0, 1]),
    "F256": ExtensionField(2, find_irreducible(2, 8)),
    "F2^31-1": PrimeField(2**31 - 1),
    "F2^64+13": PrimeField(2**64 + 13),
}


def _random_pair(rng, field, i):
    if field is QQ:
        return random_factored_rational(rng), random_factored_rational(rng)
    return random_rational_pair(rng, field, 4, force_higher_place=(i % 3 == 0))


class TestResidueFormula:
    @pytest.mark.parametrize("key", RESIDUE_FIELDS)
    def test_matches_reference_at_every_relevant_place(self, key):
        field = RESIDUE_FIELDS[key]
        rng = random.Random(f"residue:{key}")
        seen = {"pole": 0, "no pole": 0, "higher degree": 0}
        for i in range(12):
            f, g = _random_pair(rng, field, i)
            h = f * rational_derivative(g)
            for place in relevant_places(f, g):
                assert trace_residue_at_place(Differential(f, g), place) == reference_trace_residue(h, place), (f, g, place)
                if not place.is_infinite:
                    seen["pole" if h.valuation_at(place) < 0 else "no pole"] += 1
                    seen["higher degree"] += place.degree > 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("key", RESIDUE_FIELDS)
    def test_polynomials_and_zero(self, key):
        field = RESIDUE_FIELDS[key]
        rng = random.Random(f"polynomial:{key}")
        inf = Place.infinity(field)
        x = Place.finite(Polynomial.x(field))
        zero = RationalFunction(field, Polynomial.zero(field))
        for place in (inf, x):
            assert trace_residue_at_place(h_dx(zero), place) == field.zero()
        for _ in range(5):
            coeffs = [field.random_element(rng) for _ in range(rng.randint(1, 6))]
            h = RationalFunction(field, Polynomial(field, coeffs))
            for place in (inf, x):
                assert trace_residue_at_place(h_dx(h), place) == field.zero()
                assert reference_trace_residue(h, place) == field.zero()
        # 1/x^k + x^k: residue 1 at x = 0 only for k = 1, and -1 at infinity
        for k in (1, 2, 3):
            xk = Polynomial(field, [0] * k + [1])
            h = RationalFunction(field, xk * xk + 1, xk)
            expect = field.one() if k == 1 else field.zero()
            assert trace_residue_at_place(h_dx(h), x) == expect
            assert trace_residue_at_place(h_dx(h), inf) == -expect

    def test_residue_theorem_builds_no_series(self, F7, monkeypatch):
        rng = random.Random("no series")
        pairs = [random_rational_pair(rng, F7, 4, force_higher_place=(i % 2 == 0)) for i in range(8)]
        pairs += [(random_factored_rational(rng), random_factored_rational(rng)) for _ in range(4)]

        def refuse(self, *args, **kwargs):
            raise AssertionError("a LaurentSeries was built")

        monkeypatch.setattr(LaurentSeries, "__init__", refuse)
        monkeypatch.setattr(LaurentSeries, "_from_raw", refuse)
        for f, g in pairs:
            assert verify_residue_theorem(f, g).verified


DIFFERENTIAL_FIELDS = {**{k: RESIDUE_FIELDS[k] for k in ("Q", "F7", "F9", "F2^31-1", "F256")}, "F101": PrimeField(101)}


@lru_cache(maxsize=None)
def place_pool(key):
    """Monic irreducibles of degree 1, 2 and 3 over a field of DIFFERENTIAL_FIELDS: (linear, higher)."""
    field = DIFFERENTIAL_FIELDS[key]
    if field is QQ:
        higher = [[1, 0, 1], [2, 0, 1], [1, 1, 1], [-2, 0, 0, 1], [1, 1, 0, 1]]
        return ([Polynomial(QQ, [-a, 1]) for a in (0, 1, -1, 2, -3)],
                [Polynomial(QQ, c) for c in higher])
    rng = random.Random(f"places:{key}")
    pools = []
    for degree, size in ((1, 5), (2, 2), (3, 2)):
        found = set()
        while len(found) < size:
            found.add(random_irreducible(rng, field, degree))
        pools.append(sorted(found, key=Polynomial.sort_key))
    return pools[0], pools[1] + pools[2]


def without_cache(f):
    return RationalFunction(f.field, f.num, f.den)


class TestDifferentialResidues:
    """trace_residue_at_place against the series and principal-part routes of the reduced f g'."""

    @pytest.mark.parametrize("key", DIFFERENTIAL_FIELDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference_of_the_reduced_product(self, key, data):
        field = DIFFERENTIAL_FIELDS[key]
        linear, higher = place_pool(key)
        # four places, each with its own role, and one more of either kind
        shared, double = data.draw(st.lists(st.sampled_from(linear + higher), min_size=2, max_size=2, unique=True))
        rest = [p for p in linear + higher if p not in (shared, double)]
        high = data.draw(st.sampled_from([p for p in higher if p in rest]))
        zero = data.draw(st.sampled_from([p for p in rest if p != high]))
        spare = data.draw(st.lists(st.sampled_from([p for p in rest if p not in (high, zero)]), max_size=1))
        pole, any_exp = st.integers(-2, -1), st.integers(-2, 2)
        f_exps = {shared: data.draw(pole), double: -2, high: data.draw(st.sampled_from([-2, -1, 1, 2])),
                  zero: data.draw(st.integers(1, 2))}
        g_exps = {shared: data.draw(pole), double: data.draw(any_exp), high: data.draw(any_exp),
                  zero: data.draw(st.integers(0, 2))}
        for p in spare:
            f_exps[p], g_exps[p] = data.draw(any_exp), data.draw(any_exp)
        leads = st.integers(1, 6).map(lambda i: field.one() * field.from_int(i)).filter(lambda c: not c.is_zero())
        f = RationalFunction.from_factored(field, data.draw(leads), f_exps.items())
        g = (rational_x(field) if data.draw(st.booleans(), label="g = x")
             else RationalFunction.from_factored(field, data.draw(leads), g_exps.items()))
        places = relevant_places(f, g)
        assert Place.finite(high) in places and Place.finite(zero) in places
        bare = data.draw(st.sampled_from(["neither", "f", "g", "both"]), label="without a factor cache")
        omega = Differential(without_cache(f) if bare in ("f", "both") else f,
                             without_cache(g) if bare in ("g", "both") else g)
        h = f * rational_derivative(g)
        for place in places:
            assert trace_residue_at_place(omega, place) == reference_trace_residue(h, place), (f, g, place)

    def test_a_place_that_is_a_pole_of_neither_divides_nothing(self, F7, monkeypatch):
        x = Polynomial.x(F7)
        f = RationalFunction.from_factored(F7, 3, [(x, 2), (x + 1, -1), (x**2 + 1, 1)])
        g = RationalFunction.from_factored(F7, 2, [(x + 2, -2), (x**2 + x + 3, 1)])
        omega = Differential(f, g)
        divisions = []
        divmod_ = Polynomial.__divmod__
        monkeypatch.setattr(Polynomial, "__divmod__", lambda a, b: divisions.append(b) or divmod_(a, b))
        values = {str(place): trace_residue_at_place(omega, place) for place in relevant_places(f, g)}
        # den / P^(a + 2b) at the pole (x + 1) of f and the double pole (x + 2) of g; none at the zeros
        assert divisions == [x + 1, (x + 2) ** 4]
        assert values["(x)"] == values["(x^2 + 1)"] == values["(x^2 + x + 3)"] == F7.zero()
        assert sum(values.values(), F7.zero()) == F7.zero()


class TestExactExpansionPrecision:
    @pytest.mark.parametrize("key", ["Q", "F7", "F9", "F2^31-1"])
    def test_equals_a_margin_of_sixteen_truncated(self, key):
        field = RESIDUE_FIELDS[key]
        rng = random.Random(f"expansion:{key}")
        kinds = set()
        for i in range(12):
            f, g = _random_pair(rng, field, i)
            for fn in (f, g, f * rational_derivative(g), f / g):
                for place in relevant_places(f, g):
                    if place.degree != 1:
                        continue
                    v = fn.valuation_at(place)
                    kinds.add((place.is_infinite, (v > 0) - (v < 0)))
                    for prec in range(v - 1, v + 5):
                        got = local_expansion(fn, place, prec)
                        assert got.prec == prec
                        assert got == reference_expansion(fn, place, prec), (fn, place, prec)
        # poles and zeros, at finite places and at infinity
        assert {(False, -1), (False, 1), (True, -1), (True, 1)} <= kinds, kinds


class TestPlaceOrder:
    def test_relevant_places_follow_the_polynomial_text(self, F7):
        # "x" is a prefix of "x + 1": the bare text sorts it first, "(x)" would not
        x = Polynomial.x(F7)
        f = RationalFunction.from_factored(F7, 1, [(x, 1), (x + 1, -2), (x + 6, 1), (x**2 + 1, 1)])
        g = RationalFunction.from_factored(F7, 3, [(x + 3, 1), (x**2 + x + 3, -1), (x + 2, 1)])
        finite = relevant_places(f, g)[:-1]
        assert [str(p.poly) for p in finite] == ["x", "x + 1", "x + 2", "x + 3", "x + 6", "x^2 + 1", "x^2 + x + 3"]
        assert [str(p) for p in finite][:2] == ["(x)", "(x + 1)"]
        assert str(relevant_places(f, g)[-1]) == "infinity"

    def test_factor_caches_use_the_polynomial_key(self):
        # "x + 10" sorts before "x + 2" as text, after it by coefficients
        F101 = PrimeField(101)
        x = Polynomial.x(F101)
        pairs = [(x**2 + 2, 1), (x + 10, 2), (x, -1), (x + 2, 1)]
        f = RationalFunction.from_factored(F101, 2, pairs)
        assert [p for p, _ in f.factors] == [x, x + 2, x + 10, x**2 + 2]
        assert RationalFunction(F101, f.num, f.den).factor_pairs() == f.factors
        assert (f * f).factors == tuple((p, 2 * e) for p, e in f.factors)


class TestFromFactored:
    def test_certified_factors_take_no_gcd(self, Q, F7, monkeypatch):
        import reciprocity.curve as curve

        gcds = []
        gcd = Polynomial.gcd
        monkeypatch.setattr(Polynomial, "gcd", lambda a, b: gcds.append((a, b)) or gcd(a, b))
        monkeypatch.setattr(curve, "is_irreducible", lambda p: True)  # every claim proved, by no gcd
        built = {}
        for field in (Q, F7):
            x = Polynomial.x(field)
            pairs = [(x, 2), (x + 1, -1), (x**2 + 1, -2), (x**3 + x + 1, 1)]
            built[field] = RationalFunction.from_factored(field, 3, pairs)
        assert gcds == []
        monkeypatch.undo()
        for field, f in built.items():
            x = Polynomial.x(field)
            assert (f.num, f.den) == (x**2 * (x**3 + x + 1) * field.from_int(3), (x + 1) * (x**2 + 1) ** 2)
            assert not f.trusted and f == RationalFunction(field, f.num, f.den)

    def test_trusted_factors_that_share_a_factor_are_named(self, Q):
        x = Polynomial.x(Q)
        # two quartics without rational roots: unproved claims, both divisible by x^2 + 1,
        # so neither is a place of p1/p2 = (x^2 + 2)/(x^2 + 3), nor of p1 p2
        p1, p2 = (x**2 + 1) * (x**2 + 2), (x**2 + 1) * (x**2 + 3)
        for e in (-1, 1):
            with pytest.raises(FactorError, match=re.escape("factor x^4 + 3*x^2 + 2 shares the factor x^2 + 1 with "
                                                            "x^4 + 4*x^2 + 3")):
                RationalFunction.from_factored(Q, 2, [(p1, 1), (p2, e)])
        # the unproved claim is the one named, also when it comes after the proved x^2 + 1
        with pytest.raises(FactorError, match=re.escape("factor x^4 + 3*x^2 + 2 shares the factor x^2 + 1 with x^2 + 1")):
            RationalFunction.from_factored(Q, 1, [(x**2 + 1, -1), (p1, 1)])
        # a claim that shares nothing is kept, unproved
        f = RationalFunction.from_factored(Q, 2, [(p1, 1), (x**4 + x + 1, -2)])
        assert f.trusted == (p1, x**4 + x + 1) and (f.num, f.den) == (2 * p1, (x**4 + x + 1) ** 2)


class TestUncertifiedFactors:
    ARGS = ["--field", "Q", "--factored", "-f", "(x^4+1)*(x-1)^-1", "-g", "(x+2)*(x^4+x+1)^-1"]

    def test_reported_in_json(self, capsys):
        for command in ("verify-wrl", "verify-residues"):
            assert cli_main([command, "--json", *self.ARGS]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["verified"] is True
            assert report["uncertified_factors"] == ["x^4 + 1", "x^4 + x + 1"]

    def test_reported_in_text(self, capsys):
        assert cli_main(["verify-wrl", *self.ARGS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "uncertified" in line] == [
            "  uncertified factors: x^4 + 1, x^4 + x + 1"
        ]

    def test_gf_report_and_polynomial_order(self, Q):
        x = Polynomial.x(Q)
        f = RationalFunction.from_factored(Q, 1, [(x**4 + x + 1, 1), (x - 1, -1)])
        g = RationalFunction.from_factored(Q, 2, [(x**4 + 1, -1), (x**5 + x + 3, 1)])
        rep = verify_gf_global([[1, 0], [0, 1]], [[1, 0], [0, 2]], f, g)
        assert rep.verified, rep.text()
        assert rep.to_json()["uncertified_factors"] == ["x^4 + 1", "x^4 + x + 1", "x^5 + x + 3"]

    @pytest.mark.parametrize("command, f, g", [
        ("verify-wrl", "x-2", "(x^4+3*x^2+2)*(x^4+4*x^2+3)^-1"),
        ("verify-residues", "(x^4+3*x^2+2)*(x^4+4*x^2+3)^-1", "x-1"),
        ("verify-wrl", "x-2", "(x^4+3*x^2+2)*(x^4+4*x^2+3)"),
    ])
    def test_a_claim_that_shares_a_factor_is_named(self, capsys, command, f, g):
        assert cli_main([command, "--field", "Q", "--factored", "-f", f, "-g", g]) == 2
        assert "declared factor x^4 + 3*x^2 + 2 shares the factor x^2 + 1" in capsys.readouterr().err

    def test_a_claim_that_shares_nothing_verifies(self, capsys):
        assert cli_main(["verify-wrl", "--field", "Q", "--factored", "-f", "x-2", "-g", "(x^4+3*x^2+2)"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  verified: True" in lines and "  uncertified factors: x^4 + 3*x^2 + 2" in lines

    def test_absent_when_every_factor_is_proved(self, capsys):
        for field in ("Q", "F7"):
            assert cli_main(["verify-wrl", "--json", "--field", field, "-f", "(x^2+1)/(x-1)", "-g", "x+2"]) == 0
            assert "uncertified_factors" not in json.loads(capsys.readouterr().out)
        assert cli_main(["verify-wrl", "--field", "F7", "-f", "x^3+x+1", "-g", "x+2"]) == 0
        assert "uncertified" not in capsys.readouterr().out
