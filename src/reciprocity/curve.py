"""Places of P^1, local expansions, and the global verifiers.

A place is a monic irreducible polynomial over the constant field, or the
point at infinity (local parameter 1/x).  Trace residues at every place are
one polynomial remainder: the top coefficient of the P-part of the partial
fractions, or of num mod den at infinity.  A ``Differential`` f dg keeps its
num and den unreduced, so P^m, the power of P in den, is P^(a + 2b) for the
pole orders a of f and b of g at P, read from their factor caches; a place
that is a pole of neither has residue zero and costs no division.  A
base-change oracle in the tests ties that formula to the residues of the
split places upstairs.  Laurent expansions exist at degree-1 places and
infinity, for the Gelfand-Fuchs cocycle and adele components, and over F_p
at every place, with coefficients in its residue field; over Q and F_q
higher-degree places expose the valuation and the unit value in k[x]/(p).

Every global law is a product (reciprocity) or sum (residues, Gelfand-Fuchs)
over the places of a local term (Tate, "Residues of differentials on
curves", 1968), and one loop, ``_global_law``, states them all: it folds the
local terms in place order from the law's identity, writes one row per place
and returns the VerificationReport.  A verifier supplies only its local term
and its row fields, so a new law, or a new route to a local term, is that
term and its rows, not another loop.  Exactness is the contract, so
"verified" means the product is literally 1 or the sum literally 0.
"""

from __future__ import annotations

import operator

from .errors import DomainError, FactorError, TowerError
from .factor import is_irreducible, poly_factor
from .fields import AlgebraElement, BaseField, ExtensionField, PrimeField, power
from .laurent import LaurentSeries
from .norms import mat_det
from .poly import Polynomial
from .symbols import LoopMatrix, gelfand_fuchs_cocycle, residue_coefficient, tame_symbol


class Place:
    """A closed point of P^1: a monic irreducible polynomial, or infinity."""

    __slots__ = ("field", "poly", "_name")

    def __init__(self, field: BaseField, poly: Polynomial | None):
        self.field = field
        self.poly = poly
        self._name = "" if poly is None else str(poly)

    @classmethod
    def finite(cls, poly: Polynomial) -> "Place":
        """The place of an irreducible factor; irreducibility is the caller's claim."""
        if poly.degree < 1:
            raise DomainError("a finite place needs a nonconstant polynomial")
        return cls(poly.field, poly.monic())

    @classmethod
    def infinity(cls, field: BaseField) -> "Place":
        return cls(field, None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    @property
    def residue_field(self) -> BaseField:
        if self.degree == 1:
            return self.field
        if isinstance(self.field, PrimeField):
            return ExtensionField(self.field.p, [c.data for c in self.poly.coeffs])
        raise TowerError(
            "residue fields of higher-degree places are only materialized over prime fields"
        )

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        return self.field == other.field and self.poly == other.poly

    def __hash__(self):
        return hash((self.field.signature, self.poly))

    def __str__(self):
        if self.is_infinite:
            return "infinity"
        return f"({self._name})"

    def __repr__(self):
        return f"Place({self})"

    def sort_key(self):
        # the bare name, not str(self): "(x + 1)" sorts before "(x)"
        if self.is_infinite:
            return (1, 0, "")
        return (0, self.poly.degree, self._name)


class Divisor:
    """Finite formal sum of places with integer multiplicities."""

    __slots__ = ("data",)

    def __init__(self, data: dict):
        self.data = {p: m for p, m in data.items() if m}

    @property
    def degree(self) -> int:
        return sum(m * p.degree for p, m in self.data.items())

    def items(self):
        return sorted(self.data.items(), key=lambda pm: pm[0].sort_key())

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.data == other.data

    def __str__(self):
        if not self.data:
            return "0"
        return " + ".join(f"{m}*{p}" for p, m in self.items())


class RationalFunction:
    """num/den over an exact field; den monic, gcd(num, den) = 1.

    Factored construction caches the irreducible factors so everything
    over Q works without general factorization; `trusted` lists factor
    claims accepted without proof (over Q: degree > 3, or coefficients
    beyond the rational root search).
    """

    __slots__ = ("field", "num", "den", "factors", "trusted")

    def __init__(self, field: BaseField, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one(field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.exact_divide(g)
                den = den.exact_divide(g)
        lc = den.leading_coefficient()
        if not lc == field.one():
            inv = lc.inverse()
            num = num * inv
            den = den * inv
        self.field = field
        self.num = num
        self.den = den
        self.factors = None
        self.trusted = ()

    @classmethod
    def from_factored(cls, field, lead, factor_exponents) -> "RationalFunction":
        """lead * prod(p_i^{e_i}); p_i distinct monic irreducible, e_i != 0.

        An unproved (``trusted``) factor that shares a factor with another
        declared one is no place of the function, so it raises
        ``FactorError``; the declared factors are then pairwise coprime, and
        num and den are built with no gcd.
        """
        lead = field.coerce(lead)
        if lead.is_zero():
            raise DomainError("zero is not a valid factored function")
        trusted = []
        pairs = []
        for p, e in factor_exponents:
            if e == 0:
                continue
            p = p.monic()
            if any(p == q for q, _ in pairs):
                raise FactorError(f"repeated factor {p}")
            verdict = is_irreducible(p)
            if verdict is False:
                raise FactorError(f"declared factor {p} is reducible; split it further")
            if verdict is None:
                trusted.append(p)
            pairs.append((p, e))
        num = Polynomial.constant(field, lead)
        den = Polynomial.one(field)
        for p, e in pairs:
            if e > 0:
                num = num * p**e
            else:
                den = den * p ** (-e)
        for p in trusted:
            for q, _ in pairs:
                if q != p and (shared := p.gcd(q)).degree > 0:
                    raise FactorError(f"declared factor {p} shares the factor {shared} with {q}; split it further")
        # pairwise coprime factors: den is monic and coprime to num, so no gcd
        out = object.__new__(cls)
        out.field, out.num, out.den = field, num, den
        out.factors = tuple(sorted(pairs, key=lambda pe: pe[0].sort_key()))
        out.trusted = tuple(trusted)
        return out

    @classmethod
    def constant(cls, field, c) -> "RationalFunction":
        return cls(field, Polynomial.constant(field, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic (factor caches survive mul/div/pow) ------------------

    def _coerce(self, other):
        """other as a RationalFunction over this field, or None."""
        if isinstance(other, (int, AlgebraElement)):
            other = Polynomial.constant(self.field, self.field.coerce(other))
        if isinstance(other, Polynomial):
            return RationalFunction(self.field, other)
        return other if isinstance(other, RationalFunction) else None

    def _with_factors(self, out: "RationalFunction", other: "RationalFunction", flip: int):
        """out, given the factor cache of self * other^flip when both operands have one."""
        if self.factors is None or other.factors is None:
            return out
        merged = {p: e for p, e in self.factors}
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + flip * e
        out.factors = tuple(sorted(((p, e) for p, e in merged.items() if e),
                                   key=lambda pe: pe[0].sort_key()))
        out.trusted = tuple(set(self.trusted) | set(other.trusted))
        return out

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = RationalFunction(self.field, self.num * other.num, self.den * other.den)
        return self._with_factors(out, other, +1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        out = RationalFunction(self.field, self.num * other.den, self.den * other.num)
        return self._with_factors(out, other, -1)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.field, self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.field, self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        out = RationalFunction(self.field, -self.num, self.den)
        if self.factors is not None:
            out.factors, out.trusted = self.factors, self.trusted
        return out

    def __pow__(self, e: int):
        if e == 0:
            return RationalFunction.constant(self.field, 1)
        base = self if e > 0 else RationalFunction(self.field, self.den, self.num)
        if e < 0 and self.factors is not None:
            base.factors = tuple((p, -m) for p, m in self.factors)
            base.trusted = self.trusted
        # powering from base itself, so the factor cache carries through
        return power(base, abs(e))

    def __eq__(self, other):
        # a Polynomial never equals a RationalFunction: their hashes differ
        other = None if isinstance(other, Polynomial) else self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field == other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((hash(self.num), hash(self.den)))

    def __str__(self):
        num_s = self.num.to_string("x")
        if self.den.degree == 0:
            return num_s
        den_s = self.den.to_string("x")

        def wrap(s):
            return s if s.replace("-", "").replace(".", "").isalnum() and " " not in s else f"({s})"

        return f"{wrap(num_s)}/{wrap(den_s)}"

    def __repr__(self):
        return f"RationalFunction({self})"

    # -- places ----------------------------------------------------------

    def factor_pairs(self):
        """(poly, signed exponent) pairs; factors num and den on demand."""
        if self.factors is not None:
            return self.factors
        if self.is_zero():
            raise DomainError("the zero function has no divisor")
        pairs: dict[Polynomial, int] = {}
        for poly, sign in ((self.num, 1), (self.den, -1)):
            if poly.degree == 0:
                continue
            fac = poly_factor(poly)
            if not fac.certified():
                raise FactorError(
                    f"cannot certify the factorization of {poly}; supply factored input"
                )
            for q, m, _ in fac.factors:
                pairs[q] = pairs.get(q, 0) + sign * m
        self.factors = tuple(sorted(pairs.items(), key=lambda pe: pe[0].sort_key()))
        return self.factors

    def valuation_at(self, place: Place) -> int:
        if place.is_infinite:
            return self.den.degree - self.num.degree
        if self.factors is not None:
            for p, e in self.factors:
                if p == place.poly:
                    return e
            return 0
        return _divide_out(self.num, place.poly)[0] - _divide_out(self.den, place.poly)[0]

    def unit_value_at(self, place: Place, n: int) -> Polynomial:
        """Representative of ((self / p^v) (P))^n in k[x]/(p) at a finite place, v = ``valuation_at``.

        The side that p divides is divided once by p^|v|, then num and den
        are reduced mod p.  A negative n swaps them, so the class is inverted
        by one extended Euclid; for |n| = 1 nothing is raised to a power.
        """
        if place.is_infinite:
            raise DomainError("use leading_unit_at_infinity for the infinite place")
        p = place.poly
        v = self.valuation_at(place)
        num, den = self.num, self.den
        if v > 0:
            num = num.exact_divide(p**v)
        elif v < 0:
            den = den.exact_divide(p ** -v)
        num1, den1 = num % p, den % p
        if n < 0:
            num1, den1, n = den1, num1, -n
        cls = (num1 * den1.invmod(p)) % p
        return cls if n == 1 else cls.pow_mod(n, p)

    def leading_unit_at_infinity(self) -> AlgebraElement:
        """Value of self * x^{v_infinity} at infinity: lc(num)/lc(den)."""
        return self.num.leading_coefficient() / self.den.leading_coefficient()


def _divide_out(poly: Polynomial, p: Polynomial) -> tuple[int, Polynomial]:
    """(m, poly / p^m) for the largest m with p^m | poly; the zero polynomial gives m = 0."""
    m = 0
    while poly:
        q, r = divmod(poly, p)
        if r:
            break
        m, poly = m + 1, q
    return m, poly


# -- divisors and places ------------------------------------------------------


def divisor_of(f: RationalFunction) -> Divisor:
    """Zero/pole divisor.  On P^1 its degree is 0 (winding sum); ``sweep`` checks that on every instance."""
    data = {Place.finite(p): e for p, e in f.factor_pairs()}
    v_inf = f.den.degree - f.num.degree
    if v_inf:
        data[Place.infinity(f.field)] = v_inf
    return Divisor(data)


def relevant_places(f: RationalFunction, g: RationalFunction) -> list[Place]:
    """Support of div(f) + div(g), plus infinity, deterministically ordered."""
    polys = {p: True for fn in (f, g) for p, _ in fn.factor_pairs()}
    finite = sorted((Place.finite(p) for p in polys), key=Place.sort_key)
    return finite + [Place.infinity(f.field)]


def local_expansion(f: RationalFunction, place: Place, prec: int) -> LaurentSeries:
    """Laurent expansion to O(t^prec) in the local parameter t.

    At a degree-1 place x - a the parameter is t = x - a; at infinity it is
    t = 1/x.  At a place P of degree d > 1 over F_p the series lives over
    K = k(P) = F_p[u]/(P): num and den are lifted to K[x], and t = x - u, a
    degree-1 place of K(x) over P, at which the valuation is v_P because P
    is separable; the trace from K to F_p of a residue there is the traced
    residue at P.  Over Q and F_q such a place has no expansion.  For
    f = t^s num(t)/den(t) with valuations vn, vd, r relative terms of 1/den
    give O(t^(s + vn - vd + r)), so r = prec - s - vn + vd is exact.
    """
    if place.degree > 1 and not isinstance(f.field, PrimeField):
        raise DomainError(f"no local expansion at the place {place} of degree {place.degree} over "
                          f"{f.field!r}: residue fields of higher-degree places exist over prime fields only")
    if f.is_zero():
        return LaurentSeries.zero(place.residue_field, prec)
    if place.is_infinite:
        # f(1/t) = t^s rev(num)(t) / rev(den)(t)
        num_t, den_t = f.num.reversed_coeffs(), f.den.reversed_coeffs()
        s = f.den.degree - f.num.degree
    elif place.degree == 1:
        a = -place.poly.coefficient(0)
        num_t, den_t = f.num.shift(a), f.den.shift(a)
        s = 0
    else:
        k = place.residue_field  # Polynomial(k, ...) lifts each coefficient by k.coerce
        theta = k.generator()
        num_t, den_t = Polynomial(k, f.num.coeffs).shift(theta), Polynomial(k, f.den.coeffs).shift(theta)
        s = 0
    vn, vd = num_t.valuation_at_zero(), den_t.valuation_at_zero()
    num_s = LaurentSeries._from_raw(num_t.field, 0, num_t._data)
    den_s = LaurentSeries._from_raw(num_t.field, 0, den_t._data)
    inv = den_s.inverse(rel_prec=max(prec - s - vn + vd, 1))
    return (num_s * inv).shift(s).truncate(prec)


# -- residues -----------------------------------------------------------------


class Differential:
    """f dg as num/den dx, with num and den left unreduced.

    num = f.num (g.num' g.den - g.num g.den') and den = f.den g.den^2, built
    with no gcd; den is monic.  h dx is Differential(h, x).
    """

    __slots__ = ("f", "g", "num", "den")

    def __init__(self, f: RationalFunction, g: RationalFunction):
        gn, gd = g.num, g.den
        self.f, self.g = f, g
        self.num = f.num * (gn.derivative() * gd - gn * gd.derivative())
        self.den = f.den * gd * gd


def trace_residue_at_place(omega: Differential, place: Place) -> AlgebraElement:
    """tr_{k(P)/k} res_P (omega), from one polynomial remainder.

    With P^m exactly dividing den, the P-part of omega is c / P^m dx for
    c = num (den / P^m)^{-1} mod P^m; its traced residue is its x^{-1}
    coefficient at infinity, the x^{deg P^m - 1} coefficient of c (P^m is
    monic).  f and g are reduced, so for their pole orders a and b at P
    (``valuation_at``, from the factor caches) m = a + 2b; a place that is a
    pole of neither gives 0 with no division.  At infinity, dx = -t^{-2} dt
    and only (num mod den) / den has a residue there.
    """
    num, den = omega.num, omega.den
    if place.is_infinite:
        return -(num % den).coefficient(den.degree - 1)
    m = max(-omega.f.valuation_at(place), 0) + 2 * max(-omega.g.valuation_at(place), 0)
    if not m:
        return place.field.zero()
    pm = place.poly**m
    return (num * den.exact_divide(pm).invmod(pm) % pm).coefficient(pm.degree - 1)


# -- reports ------------------------------------------------------------------


class VerificationReport:
    """One row per place, the global value and the verdict; ``uncertified`` lists the factor claims taken on trust."""

    __slots__ = ("kind", "input", "places", "global_value", "verified", "extras", "uncertified")

    def __init__(self, kind: str, input: dict, places: list, global_value: str, verified: bool,
                 extras: dict | None = None, uncertified: list | None = None):
        self.kind, self.input, self.places = kind, input, places
        self.global_value, self.verified = global_value, verified
        self.extras = {} if extras is None else extras
        self.uncertified = [] if uncertified is None else uncertified

    def to_json(self) -> dict:
        out = {
            "input": self.input,
            "places": self.places,
            "global": self.global_value,
            "verified": self.verified,
        }
        if self.uncertified:
            out["uncertified_factors"] = self.uncertified
        if self.extras:
            out.update(self.extras)
        return out

    def text(self) -> str:
        lines = [f"{self.kind}: {', '.join(f'{k}={v}' for k, v in self.input.items())}"]
        for row in self.places:
            body = ", ".join(f"{k}={v}" for k, v in row.items())
            lines.append(f"  {body}")
        lines.append(f"  global: {self.global_value}")
        lines.append(f"  verified: {self.verified}")
        if self.uncertified:
            lines.append(f"  uncertified factors: {', '.join(self.uncertified)}")
        return "\n".join(lines)


def _uncertified(f: RationalFunction, g: RationalFunction) -> list[str]:
    """The factor claims of f and g accepted without proof, in polynomial order."""
    return [str(p) for p in sorted(set(f.trusted) | set(g.trusted), key=Polynomial.sort_key)]


def _pair_input(f: RationalFunction, g: RationalFunction, **more) -> dict:
    """The input of a report on f and g, with more before the field."""
    return {"f": str(f), "g": str(g), **more, "field": repr(f.field)}


def _place_row(place: Place, f: RationalFunction, g: RationalFunction) -> dict:
    """The row fields of a place of f and g: its name, degree and the valuations there."""
    return {"place": str(place), "deg": place.degree, "v_f": f.valuation_at(place), "v_g": g.valuation_at(place)}


def _entry_row(idx: int, kprime: BaseField, base: BaseField) -> dict:
    """The row fields of entry idx of local data, whose series live over kprime."""
    return {"place": f"local#{idx}", "deg": kprime.extension_degree_over(base)}


def _global_law(kind: str, input: dict, terms, op, identity, key: str, check: bool = True,
                **report) -> VerificationReport:
    """The report of a global law: the local terms, folded by op from identity, must give identity.

    terms yields (local term, row fields) in place order, and each row gains
    its term under key.  The verdict also needs check; report passes
    ``extras`` and ``uncertified`` through.
    """
    rows, total = [], identity
    for term, row in terms:
        total = op(total, term)
        row[key] = str(term)
        rows.append(row)
    return VerificationReport(kind, input, rows, str(total), check and total == identity, **report)


# -- Weil reciprocity ---------------------------------------------------------


def wrl_local_factor(f: RationalFunction, g: RationalFunction, place: Place) -> AlgebraElement:
    """(-1)^{v(f)v(g)deg(P)} Norm_{k(P)/k}((f^{v(g)} / g^{v(f)})(P))."""
    vf = f.valuation_at(place)
    vg = g.valuation_at(place)
    if place.is_infinite:
        cf = f.leading_unit_at_infinity()
        cg = g.leading_unit_at_infinity()
        value = cf**vg * cg ** (-vf)
    else:
        # a unit value raised to the power 0 is 1, so it is formed only when needed
        p = place.poly
        cls = f.unit_value_at(place, vg) if vg else Polynomial.one(p.field)
        if vf:
            cls = (cls * g.unit_value_at(place, -vf)) % p
        value = _residue_class_norm(cls, place)
    if (vf * vg * place.degree) % 2:
        return -value
    return value


def _residue_class_norm(cls: Polynomial, place: Place) -> AlgebraElement:
    """Norm_{k(P)/k} of cls, reduced mod P: the determinant of multiplication by cls on k[x]/(P).

    Column 0 is cls itself and column j + 1 is x times column j, reduced mod
    P, on raw data, and the matrix is raw too; so a degree-1 place forms no
    product and no remainder, and only the determinant is boxed.
    """
    field, p = place.field, place.poly
    rem, zero = field.kernels.rem, field._zero
    cols = [cls._data]
    while len(cols) < p.degree:
        cols.append(rem([zero] + cols[-1], p._data, field.kernel_arg))
    return mat_det([[col[i] if i < len(col) else zero for col in cols] for i in range(p.degree)], field)


def verify_wrl(f: RationalFunction, g: RationalFunction) -> VerificationReport:
    """Product over all relevant places of the signed local factors; must be 1."""
    terms = ((wrl_local_factor(f, g, p), _place_row(p, f, g)) for p in relevant_places(f, g))
    return _global_law("weil-reciprocity", _pair_input(f, g), terms, operator.mul, f.field.one(), "local_factor",
                       uncertified=_uncertified(f, g))


def verify_residue_theorem(f: RationalFunction, g: RationalFunction) -> VerificationReport:
    """Sum over all relevant places of tr res_P(f dg); must be 0."""
    omega = Differential(f, g)
    terms = ((trace_residue_at_place(omega, p), _place_row(p, f, g)) for p in relevant_places(f, g))
    return _global_law("residue-theorem", _pair_input(f, g), terms, operator.add, f.field.zero(), "residue",
                       uncertified=_uncertified(f, g))


# -- raw local data mode ------------------------------------------------------


def verify_wrl_local_data(entries, base: BaseField) -> VerificationReport:
    """Weil reciprocity over user-supplied local expansions.

    entries: iterable of (residue field, f series, g series); each series
    lives over its entry's field.  The aggregation is the same signed
    product; correctness of the global input is the caller's business.
    """
    entries = list(entries)
    terms = ((tame_symbol(fs, gs, base), {**_entry_row(i, k, base), "v_f": fs.valuation(), "v_g": gs.valuation()})
             for i, (k, fs, gs) in enumerate(entries))
    return _global_law("weil-reciprocity-local-data", {"entries": len(entries), "field": repr(base)}, terms,
                       operator.mul, base.one(), "local_factor")


def verify_residues_local_data(entries, base: BaseField) -> VerificationReport:
    """Residue theorem over user-supplied local expansions of (alpha, beta)."""
    entries = list(entries)
    terms = ((residue_coefficient(fs, gs, base), _entry_row(i, k, base)) for i, (k, fs, gs) in enumerate(entries))
    return _global_law("residue-theorem-local-data", {"entries": len(entries), "field": repr(base)}, terms,
                       operator.add, base.zero(), "residue")


# -- adeles and the orthogonality check --------------------------------------


class AdeleVector:
    """A rational default plus finitely many replaced local components.

    Components are Laurent series in the local parameter of their place;
    perturbed places must be degree 1 or infinity, since pairing against a
    test function needs its digit expansion there.
    """

    __slots__ = ("default", "components")

    def __init__(self, default: RationalFunction, components: dict | None = None):
        self.default = default
        comps = dict(components or {})
        for place, series in comps.items():
            if not isinstance(place, Place):
                raise DomainError("component keys must be places")
            if not place.is_infinite and place.degree != 1:
                raise DomainError(
                    "perturbed components are supported at degree-1 places and infinity only"
                )
            if not isinstance(series, LaurentSeries):
                raise DomainError("components must be Laurent series")
        self.components = comps


def _pairing_precision(va: int, vb: int) -> int:
    """The precision O(z^n) to expand a and b at, for va, vb at most their valuations.

    The z^-1 coefficient of a db pairs a_i with b_-i, so it needs a through
    z^-vb and b through z^-va; n serves both, and leaves a b' known to
    z^(n - 1 + va), past z^-1.
    """
    return max(2, 1 - min(va, vb))


def residue_pairing_sum(adele: AdeleVector, g: RationalFunction) -> AlgebraElement:
    """sum_x tr res_x(alpha dg) for an adele with rational default.

    At a replaced component alpha, g is expanded at ``_pairing_precision``
    of the first exponent alpha stores and of v(g).
    """
    f = adele.default
    field = f.field
    omega = Differential(f, g)
    places = {p: True for p in relevant_places(f, g)}
    for p in adele.components:
        places[p] = True
    total = field.zero()
    for place in sorted(places, key=Place.sort_key):
        if place in adele.components:
            alpha = adele.components[place]
            g_local = local_expansion(g, place, _pairing_precision(alpha.offset, g.valuation_at(place)))
            total = total + residue_coefficient(alpha, g_local, field)
        else:
            total = total + trace_residue_at_place(omega, place)
    return total


# -- global Gelfand-Fuchs ------------------------------------------------------


def _square_pair(field: BaseField, s, t):
    """S and T as raw data over field; they must be square and of one size."""
    s, t = ([[field.coerce(c).data for c in row] for row in m] for m in (s, t))
    if len(s) != len(t) or any(len(row) != len(s) for row in s + t):
        raise DomainError("S and T must be square matrices of equal size")
    return s, t


def verify_gf_global(s_matrix, t_matrix, f: RationalFunction, g: RationalFunction) -> VerificationReport:
    """sum_x tr_{k(x)/k} res_x tr(ST) f dg over all relevant places; must be 0.

    Degree-1 places and infinity take the full matrix route through the
    local Gelfand-Fuchs cocycle; higher-degree places use the scalar trace
    residue times tr(ST).  The result is cross-checked against tr(ST) times
    the residue-theorem sum, whose trace residues are computed once per
    place and also feed the higher-degree contributions.  S and T are
    checked once, here, and every place builds its loops from their raw data.

    At those places f and g are expanded at ``_pairing_precision`` of their
    valuations there.
    """
    field = f.field
    s_m, t_m = _square_pair(field, s_matrix, t_matrix)
    # tr(ST) = sum_ij S_ij T_ji, without the rest of the product
    tr_st = field._zero
    for s_row, t_col in zip(s_m, zip(*t_m)):
        for s, t in zip(s_row, t_col):
            tr_st = field._mul_add(tr_st, s, t)
    tr_st = AlgebraElement(field, tr_st)
    omega = Differential(f, g)
    places = relevant_places(f, g)
    residues = [trace_residue_at_place(omega, place) for place in places]
    cross = tr_st * sum(residues, field.zero())

    def term(place: Place, residue: AlgebraElement) -> AlgebraElement:
        if place.degree > 1:
            return tr_st * residue
        need = _pairing_precision(f.valuation_at(place), g.valuation_at(place))
        # at infinity the expansions are in t = 1/x and dg = (dg/dt) dt,
        # so the cocycle in t is already the residue there
        a_loop = LoopMatrix._tensor(s_m, local_expansion(f, place, need))
        b_loop = LoopMatrix._tensor(t_m, local_expansion(g, place, need))
        return gelfand_fuchs_cocycle(a_loop, b_loop, field)

    terms = ((term(p, r), {"place": str(p), "deg": p.degree}) for p, r in zip(places, residues))
    return _global_law("gelfand-fuchs-global", _pair_input(f, g, n=len(s_m)), terms, operator.add, field.zero(),
                       "residue", cross.is_zero(), extras={"cross_check": str(cross)}, uncertified=_uncertified(f, g))
