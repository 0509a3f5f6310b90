"""Univariate polynomial factorization.

f is made monic once, and a linear polynomial is its own factor over every
field: the degree-<=1 base case.  Every later stage returns monic values
(gcds, exact quotients of monic by monic, p-th roots of monic polynomials)
and normalizes nothing again.

Every field shares one squarefree decomposition, ``_squarefree`` (Musser's
algorithm, with p-th roots in characteristic p).  Over a finite field the
full chain runs on degree 2 and more: that decomposition, distinct-degree
splitting, then equal-degree splitting (Cantor-Zassenhaus, with the trace
construction in characteristic 2) for every degree, roots included.  Each
squarefree part f of degree 2 or more gets its Frobenius matrix, the rows
x^(q*i) mod f, from one ``frobenius_matrix`` kernel call, which also gives
x^q mod f as row 1.  Distinct-degree splitting starts at x^q and steps from
x^(q^d) to x^(q^(d+1)) by one product with that matrix.  In odd
characteristic the equal-degree split of a degree-d part raises the norm
r * r^q * ... * r^(q^(d-1)) of a random r to (q-1)/2, its Frobenius images
coming through the same matrix.  The randomized splits draw from a generator with a fixed
seed, created at the first split that draws, so a factorization that splits
nothing seeds none; the factors are returned in a canonical order, so the
output does not depend on the seed.

Over the rationals only content extraction, the squarefree decomposition
and rational-root splitting are attempted.  Factors of degree <= 3 without
rational roots are certified irreducible; anything bigger is returned
uncertified and callers must treat it as irreducible or reject it.  The root
search refuses constant or leading coefficients of 2^40 or more, and no
field factors above degree DEGREE_BUDGET.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import DomainError, FactorError
from .fields import AlgebraElement, ExtensionField, PrimeField, RationalField
from .poly import Polynomial, _from_data, _trim

# seed of the randomized equal-degree splits; the output does not depend on it
SEED = 0x1718
# largest degree factored, and largest |e| of a `^` literal the parser takes:
# degree 64 factors in under a second over F256, degree 128 takes ~6 s
DEGREE_BUDGET = 64
# rational roots are searched only while |a0| and |an| stay below this:
# up to about 10^6 trial divisions each
ROOT_SEARCH_BOUND = 2**40


class Factorization(namedtuple("Factorization", "field lead factors")):
    """lead * prod(factor^multiplicity); factors monic, certified unless noted.

    ``factors`` is a tuple of (Polynomial, int multiplicity, bool certified).
    """

    __slots__ = ()

    def certified(self) -> bool:
        return all(c for _, _, c in self.factors)


def _frobenius_root(c: AlgebraElement, field) -> AlgebraElement:
    # p-th root in F_q: c^(q/p)
    q = field.order
    return c ** (q // field.characteristic)


def _squarefree(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Monic f over any field -> [(g_i, i)] with f = prod g_i^i, each g_i squarefree.

    Musser's algorithm; the p-th roots are taken only in characteristic p,
    since over Q a nonconstant f has a nonzero derivative and the loop ends
    with c = 1.
    """
    field = f.field
    p = field.characteristic
    out: dict[int, Polynomial] = {}

    def accumulate(g: Polynomial, mult: int):
        if g.degree >= 1:
            out[mult] = out[mult] * g if mult in out else g

    def helper(f: Polynomial, outer: int):
        d = f.derivative()
        if d.is_zero():
            # f is a p-th power
            root = _pth_root_poly(f)
            helper(root, outer * p)
            return
        c = f.gcd(d)
        if c.degree == 0:  # f is squarefree: the loop below would only divide by 1
            accumulate(f, outer)
            return
        w = f.exact_divide(c)
        i = 1
        while w.degree >= 1:
            y = w.gcd(c)
            z = w.exact_divide(y)
            accumulate(z, i * outer)
            w = y
            c = c.exact_divide(y)
            i += 1
        if c.degree >= 1:
            root = _pth_root_poly(c)
            helper(root, outer * p)

    def _pth_root_poly(g: Polynomial) -> Polynomial:
        coeffs = []
        for i in range(0, g.degree + 1, p):
            coeffs.append(_frobenius_root(g.coefficient(i), field))
        return Polynomial(field, coeffs)

    if f.degree >= 1:  # 1 has no parts, and its zero derivative is no p-th power over Q
        helper(f, 1)
    return [(out[mult], mult) for mult in sorted(out)]


class _Frobenius:
    """The q-th power map of F_q[x]/(f), from one kernel call on first use.

    ``frobenius_matrix`` returns the Frobenius matrix of f, whose row i is
    x^(q*i) mod f, with x^q mod f as row 1 (von zur Gathen and Shoup,
    "Computing Frobenius maps and factoring polynomials", 1992).  Since
    c^q = c for every c in F_q, h(x)^q = sum h_i x^(q*i), so a call is one
    vector-matrix product with that matrix.  Reduced mod a factor of f, the
    images are those of that factor's map.
    """

    def __init__(self, f: Polynomial):
        self.f = f
        self._matrix = None

    def matrix(self) -> list[list]:
        if self._matrix is None:
            field = self.f.field
            self._matrix = field.kernels.frobenius_matrix(self.f._data, field.order, field.kernel_arg)
        return self._matrix

    def xq(self) -> Polynomial:
        """x^q mod f, row 1 of the matrix; deg f >= 2."""
        field = self.f.field
        return _from_data(field, _trim(field, self.matrix()[1][:]))

    def __call__(self, h: Polynomial) -> Polynomial:
        """h^q mod f, for h of degree below deg f."""
        field = self.f.field
        row = field.kernels.mat_mul([h._data], self.matrix()[: len(h._data)], field.kernel_arg)[0]
        return _from_data(field, _trim(field, row))


def _distinct_degree(f: Polynomial, frobenius: _Frobenius | None = None) -> list[tuple[Polynomial, int]]:
    """Squarefree monic f -> [(product of irreducibles of degree d, d)].

    Step d takes gcd(rest, h - x) with h = x^(q^d) mod f.  x^q mod f is
    row 1 of the Frobenius matrix of f (``_Frobenius``, one kernel call,
    which the equal-degree split of f's parts reuses); each later step is
    h <- h^q, one product with that matrix.  h stays reduced mod f, not
    mod rest: the gcd with rest is the same.
    """
    field = f.field
    if frobenius is None:
        frobenius = _Frobenius(f)
    out = []
    x = Polynomial.x(field)
    h = None
    d = 0
    rest = f
    while rest.degree > 2 * (d + 1) - 1:
        d += 1
        h = frobenius.xq() if h is None else frobenius(h)
        g = rest.gcd(h - x)
        if g.degree >= 1:
            out.append((g, d))
            rest = rest.exact_divide(g)
    if rest.degree >= 1:
        out.append((rest, rest.degree))
    return out


def _equal_degree_split(f: Polynomial, d: int, draws, frobenius: _Frobenius) -> list[Polynomial]:
    """Monic squarefree f, all irreducible factors of degree d; frobenius is that of a multiple of f.

    draws() returns the generator the random r come from; it is called only
    when f has more than one factor to split.

    In odd characteristic each factor's residue field is F_(q^d), where
    r^((q^d-1)/2) = N(r)^((q-1)/2) for the norm N(r) = r * r^q * ... *
    r^(q^(d-1)), since (q^d-1)/2 = (q-1)/2 * (1 + q + ... + q^(d-1)).  The
    images r^(q^i) mod f come from the Frobenius matrix, so the one power
    is to (q-1)/2; at d = 1 the norm is r itself.
    """
    field = f.field
    q = field.order
    if f.degree == d:
        return [f]
    rng = draws()
    while True:
        r = Polynomial(field, [field.random_element(rng) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        if field.characteristic == 2:
            # the trace sum_(i < md) r^(2^i) mod f, by Horner on raw lists:
            # t <- t^2 + r from t = r mod f, since squaring is additive
            m = field.degree if isinstance(field, ExtensionField) else 1
            k, arg, fd = field.kernels, field.kernel_arg, f._data
            t = rd = k.rem(r._data, fd, arg)
            for _ in range(m * d - 1):
                t = k.rem(k.add(k.mul(t, t, arg), rd, arg), fd, arg)
            g = f.gcd(_from_data(field, t))
        else:
            norm = image = r
            for _ in range(d - 1):
                image = frobenius(image) % f
                norm = (norm * image) % f
            g = f.gcd(norm.pow_mod((q - 1) // 2, f) - Polynomial.one(field))
        if 0 < g.degree < f.degree:
            left = _equal_degree_split(g, d, draws, frobenius)
            right = _equal_degree_split(f.exact_divide(g), d, draws, frobenius)
            return left + right


def _factor_finite(f: Polynomial) -> list[tuple[Polynomial, int, bool]]:
    """Monic f of degree 2 or more over a finite field."""
    rng = None

    def draws() -> random.Random:
        nonlocal rng
        if rng is None:
            rng = random.Random(SEED)
        return rng

    out = []
    for g, mult in _squarefree(f):
        frobenius = _Frobenius(g)
        for h, d in _distinct_degree(g, frobenius):
            for irr in _equal_degree_split(h, d, draws, frobenius):
                out.append((irr, mult, True))
    out.sort(key=lambda t: t[0].sort_key())
    return out


# -- rationals -------------------------------------------------------------


def _rational_roots(f: Polynomial) -> list[Fraction]:
    """Rational roots of a nonzero polynomial over Q, with repetition ignored."""
    # scale to integer coefficients
    denom = 1
    for c in f.coeffs:
        denom = denom * c.data.denominator // gcd(denom, c.data.denominator)
    ints = [int(c.data * denom) for c in f.coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]  # x = 0 handled by caller through valuation stripping
    if not ints:
        return []
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    if len(ints) == 2:
        return [Fraction(-ints[0], ints[1])]
    a0, an = abs(ints[0]), abs(ints[-1])
    if max(a0, an) >= ROOT_SEARCH_BOUND:
        raise DomainError(
            f"the rational root search of {f} needs |a0|, |an| < 2^40; supply the factors with --factored"
        )
    roots = set()
    for r in _divisors(a0):
        for s in _divisors(an):
            for cand in (Fraction(r, s), Fraction(-r, s)):
                num = Fraction(0)
                for c in reversed(ints):
                    num = num * cand + c
                if num == 0:
                    roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _factor_rational(f: Polynomial) -> list[tuple[Polynomial, int, bool]]:
    """Monic f of degree 2 or more over Q."""
    field = f.field
    out = []
    # strip x^k
    v = f.valuation_at_zero()
    if v:
        out.append((Polynomial.x(field), v, True))
        f = Polynomial(field, f.coeffs[v:])
    for g, mult in _squarefree(f):
        remaining = g
        for root in _rational_roots(g):
            lin = Polynomial(field, [-root, 1])
            q, r = divmod(remaining, lin)
            if r.is_zero():
                out.append((lin, mult, True))
                remaining = q
        if remaining.degree >= 1:
            # no rational roots left: certified irreducible up to cubics
            out.append((remaining, mult, remaining.degree <= 3))
    out.sort(key=lambda t: t[0].sort_key())
    return out


def poly_factor(f: Polynomial) -> Factorization:
    """Factor f over its field; exact round-trip lead * prod(factors^mult) == f."""
    if f.is_zero():
        raise FactorError("cannot factor the zero polynomial")
    field = f.field
    lead = f.leading_coefficient()
    monic = f.monic()
    if monic.degree > DEGREE_BUDGET:
        raise DomainError(f"cannot factor degree {monic.degree}: the budget is degree {DEGREE_BUDGET}")
    if monic.degree == 0:
        return Factorization(field, lead, ())
    if monic.degree == 1:
        return Factorization(field, lead, ((monic, 1, True),))
    if isinstance(field, (PrimeField, ExtensionField)):
        factors = _factor_finite(monic)
    elif isinstance(field, RationalField):
        factors = _factor_rational(monic)
    else:
        raise FactorError(f"factorization over {field!r} is not supported")
    return Factorization(field, lead, tuple(factors))


def is_irreducible(f: Polynomial):
    """True/False over finite fields; over Q returns None when uncertifiable."""
    if f.degree < 1:
        return False
    field = f.field
    if isinstance(field, RationalField):
        if f.degree == 1:
            return True
        if f.valuation_at_zero() > 0:
            return False
        try:
            if _rational_roots(f):
                return False
        except DomainError:  # the root search is over budget: the claim stays unproved
            return None
        if f.degree <= 3:
            return True
        if not f.gcd(f.derivative()).is_constant():
            return False
        return None
    facs = poly_factor(f)
    return len(facs.factors) == 1 and facs.factors[0][1] == 1
