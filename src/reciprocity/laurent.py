"""Truncated formal Laurent series over any exact coefficient ring.

A series stores a dict {exponent: nonzero coefficient}, together with a
precision bound ``prec``: coefficients at exponents >= prec are unknown.
``prec=None`` means the series is exact (finite support, every coefficient
known).  Negative support is always finite and explicit.  An int or ring
element added to or multiplied by a series acts as the constant series.

Precision is tracked, never guessed: a product knows its coefficients only
up to min(low_f + prec_g, low_g + prec_f), and asking for a coefficient at
or beyond prec raises PrecisionError.

A series is a *declared unit* when its lowest stored coefficient is
invertible in the ring (for fields: nonzero; over an Artinian ring:
invertible modulo the maximal ideal).  Only declared units can be inverted;
the principal-unit factorization below divides by (1 - c z^k) factors with
nilpotent c instead: the geometric series of c is finite, and dividing
a series s by the factor is the sum of shifts s + sum_j (s c^j) z^(j k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .artinian import ArtinianAlgebra
from .errors import DomainError, NonUnitError, PrecisionError
from .fields import AlgebraElement, CoefficientRing, power
from .formatting import format_terms, split_sign

DEFAULT_PRECISION = 32
# largest precision a series is parsed at: a product of two dense series
# costs prec^2 coefficient products, about 2.5 s over Q at 512
PRECISION_BUDGET = 512


def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LaurentSeries:
    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring: CoefficientRing, coeffs: dict, prec: int | None = None):
        clean = {}
        for e, c in coeffs.items():
            if not isinstance(c, AlgebraElement) or c.ring != ring:
                c = ring.coerce(c)
            if not c.is_zero():
                if prec is None or e < prec:
                    clean[e] = c
        self.ring = ring
        self.coeffs = clean
        self.prec = prec

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring, prec: int | None = None):
        return cls(ring, {}, prec)

    @classmethod
    def one(cls, ring):
        return cls(ring, {0: ring.one()})

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {0: c})

    @classmethod
    def monomial(cls, ring, exponent: int):
        """z^exponent, exactly."""
        return cls(ring, {exponent: ring.one()})

    # -- structure ------------------------------------------------------

    @property
    def low(self) -> int:
        """Lowest exponent with a (known) nonzero coefficient."""
        if self.coeffs:
            return min(self.coeffs)
        if self.prec is not None:
            return self.prec
        return 0

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        """No known nonzero coefficient (exact zero when prec is None)."""
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.prec is None

    def coefficient(self, e: int) -> AlgebraElement:
        if self.prec is not None and e >= self.prec:
            raise PrecisionError(
                f"coefficient of z^{e} is beyond the tracked precision O(z^{self.prec})"
            )
        return self.coeffs.get(e, self.ring.zero())

    def known_coefficient(self, e: int) -> AlgebraElement:
        """Coefficient if it is stored, zero otherwise (no precision check)."""
        return self.coeffs.get(e, self.ring.zero())

    def valuation(self) -> int:
        """Exponent of the lowest invertible coefficient."""
        if not self.coeffs:
            if self.prec is None:
                raise NonUnitError("the zero series has no valuation")
            raise PrecisionError("series is zero to working precision; valuation unknown")
        for e in sorted(self.coeffs):
            if self.coeffs[e].is_invertible():
                return e
        if self.prec is None:
            raise NonUnitError(
                "series has no invertible coefficient (reduction mod the maximal ideal is zero)"
            )
        raise PrecisionError("no invertible coefficient below the precision bound")

    def is_unit(self) -> bool:
        """Declared unit: lowest stored coefficient invertible."""
        if not self.coeffs:
            return False
        return self.coeffs[min(self.coeffs)].is_invertible()

    def leading_term(self) -> tuple[int, AlgebraElement]:
        """(v, c) for the lowest stored term c z^v of a declared unit."""
        if self.is_zero():
            raise NonUnitError("cannot factorize the zero series")
        if not self.is_unit():
            raise NonUnitError("series is not a declared unit")
        v = min(self.coeffs)
        return v, self.coeffs[v]

    # -- arithmetic -------------------------------------------------------

    def _check_ring(self, other: "LaurentSeries"):
        if self.ring != other.ring:
            raise DomainError("series live over different coefficient rings")

    def __add__(self, other):
        if isinstance(other, (int, AlgebraElement)):
            other = LaurentSeries.constant(self.ring, self.ring.coerce(other))
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check_ring(other)
        prec = _min_prec(self.prec, other.prec)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return LaurentSeries(self.ring, out, prec)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, AlgebraElement, LaurentSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentSeries(self.ring, {e: -c for e, c in self.coeffs.items()}, self.prec)

    def __mul__(self, other):
        if isinstance(other, (int, AlgebraElement)):
            other = LaurentSeries.constant(self.ring, self.ring.coerce(other))
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check_ring(other)
        if (self.is_zero() and self.prec is None) or (other.is_zero() and other.prec is None):
            return LaurentSeries.zero(self.ring)
        p1 = None if other.prec is None else other.prec + self.low
        p2 = None if self.prec is None else self.prec + other.low
        prec = _min_prec(p1, p2)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if prec is not None and e >= prec:
                    continue
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return LaurentSeries(self.ring, out, prec)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z^k."""
        return LaurentSeries(
            self.ring,
            {e + k: c for e, c in self.coeffs.items()},
            None if self.prec is None else self.prec + k,
        )

    def inverse(self, rel_prec: int | None = None) -> "LaurentSeries":
        """Inverse of a declared unit.

        The result carries relative precision min(available, requested);
        inverting an exact series defaults to DEFAULT_PRECISION relative
        terms unless it is a monomial (then the inverse is exact too).
        """
        if not self.coeffs:
            raise NonUnitError("cannot invert the zero series")
        v = min(self.coeffs)
        c = self.coeffs[v]
        if not c.is_invertible():
            raise NonUnitError("series is not a declared unit (lowest coefficient not invertible)")
        cinv = c.inverse()
        if len(self.coeffs) == 1:
            # a monomial inverts exactly; rel_prec only matters for genuine tails
            prec = None if self.prec is None else self.prec - 2 * v
            return LaurentSeries(self.ring, {-v: cinv}, prec)
        avail = None if self.prec is None else self.prec - v
        want = rel_prec if rel_prec is not None else (avail if avail is not None else DEFAULT_PRECISION)
        m = want if avail is None else min(want, avail)
        # u = 1 + h with h of valuation >= 1; invert by the standard recurrence
        h = {e - v: cv * cinv for e, cv in self.coeffs.items() if e != v}
        b = {0: self.ring.one()}
        for n in range(1, m):
            acc = self.ring.zero()
            for k, hk in h.items():
                if 0 < k <= n and (n - k) in b:
                    acc = acc + hk * b[n - k]
            if not acc.is_zero():
                b[n] = -acc
        out = {e - v: bv * cinv for e, bv in b.items()}
        return LaurentSeries(self.ring, out, m - v)

    def power(self, n: int, rel_prec: int | None = None) -> "LaurentSeries":
        if n < 0:
            return self.inverse(rel_prec).power(-n)
        if n == 0:
            return LaurentSeries.one(self.ring)
        return power(self, n)

    def __pow__(self, n: int):
        return self.power(n)

    def derivative(self) -> "LaurentSeries":
        out = {}
        for e, c in self.coeffs.items():
            d = self.ring.from_int(e) * c
            if not d.is_zero():
                out[e - 1] = d
        return LaurentSeries(self.ring, out, None if self.prec is None else self.prec - 1)

    def truncate(self, prec: int) -> "LaurentSeries":
        return LaurentSeries(self.ring, self.coeffs, _min_prec(self.prec, prec))

    def map_coefficients(self, fn, ring: CoefficientRing | None = None) -> "LaurentSeries":
        ring = ring or self.ring
        return LaurentSeries(ring, {e: fn(c) for e, c in self.coeffs.items()}, self.prec)

    def residue_reduction(self) -> "LaurentSeries":
        """Reduce coefficients modulo the maximal ideal (Artinian rings)."""
        if not isinstance(self.ring, ArtinianAlgebra):
            return self
        ring = self.ring
        return LaurentSeries(ring.base, {e: ring.residue(c) for e, c in self.coeffs.items()}, self.prec)

    # -- comparisons and printing ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.ring == other.ring and self.prec == other.prec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(
            (
                self.ring.signature,
                self.prec,
                tuple(sorted((e, self.ring._canonical(c.data)) for e, c in self.coeffs.items())),
            )
        )

    def to_string(self, var: str = "z") -> str:
        terms = []
        for e in sorted(self.coeffs):
            s, neg = split_sign(self.coeffs[e])
            terms.append((s, neg, e))
        body = format_terms(terms, var)
        if self.prec is not None:
            tail = f"O({var}^{self.prec})"
            if not terms:
                return tail
            return f"{body} + {tail}"
        return body

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentSeries({self.ring!r}, {self.to_string()!r})"


# -- unit factorization over a field -----------------------------------------


@dataclass(frozen=True)
class UnitFactorization:
    """f = leading * z^valuation * prod_{i}(1 + tail_i z^i), up to prec."""

    ring: CoefficientRing
    leading: AlgebraElement
    valuation: int
    tail: tuple
    prec: int | None


def unit_factorize(f: LaurentSeries, prec: int | None = None) -> UnitFactorization:
    """Unique factorization s0 z^s prod(1 + s_i z^i) of a nonzero series.

    The series must be a declared unit (over a field: any nonzero series).
    ``prec`` is the absolute precision the data should represent; it
    defaults to the series' own precision, or valuation + DEFAULT_PRECISION
    for exact series.
    """
    v, s0 = f.leading_term()
    target = prec
    if target is None:
        target = f.prec if f.prec is not None else v + DEFAULT_PRECISION
    if f.prec is not None:
        target = min(target, f.prec)
    n_rel = target - v
    u = f.shift(-v) * s0.inverse()
    u = u.truncate(n_rel)
    tail = []
    for i in range(1, n_rel):
        ci = u.known_coefficient(i)
        if ci.is_zero():
            continue
        tail.append((i, ci))
        factor = LaurentSeries(f.ring, {0: f.ring.one(), i: ci})
        u = (u * factor.inverse(n_rel)).truncate(n_rel)
    return UnitFactorization(f.ring, s0, v, tuple(tail), target)


# -- principal-unit factorization over an Artinian ring -----------------------


@dataclass(frozen=True)
class PrincipalUnitFactorization:
    """f = prod(1 - neg_i z^{-i}) * prod(1 - pos_i z^{i}), up to prec.

    Negative-exponent coefficients are nilpotent; positive ones (including
    the z^0 factor) lie in the maximal ideal.  The neg list is in peel order
    (most negative exponent first) and may repeat exponents.
    """

    ring: ArtinianAlgebra
    neg: tuple
    pos: tuple
    prec: int | None


def is_principal_unit(f: LaurentSeries) -> bool:
    """Does f reduce to the constant series 1 modulo the maximal ideal?"""
    if not isinstance(f.ring, ArtinianAlgebra):
        return False
    red = f.residue_reduction()
    return red.coeffs == {0: f.ring.base.one()}


def nilpotent_powers(c: AlgebraElement) -> list[AlgebraElement]:
    """[c, c^2, ...] up to the last nonzero power of a nonzero nilpotent c; c^nil_index is 0."""
    powers = [c]
    for _ in range(c.ring.nil_index - 2):
        p = powers[-1] * c
        if p.is_zero():
            break
        powers.append(p)
    return powers


def _divide_by_peel(work: LaurentSeries, exponent: int, c: AlgebraElement) -> LaurentSeries:
    """work / (1 - c z^exponent) = work + sum_k (work c^k) z^(k exponent), finite by nilpotency."""
    out = work
    for k, ck in enumerate(nilpotent_powers(c), 1):
        out = out + (work * ck).shift(k * exponent)
    return out


def cc_factorize(f: LaurentSeries, prec: int | None = None) -> PrincipalUnitFactorization:
    """Peel a principal unit into (1 - c z^{+-i}) factors.

    Negative factors are peeled from the most negative exponent upward,
    sweeping until the negative part is exactly zero (this terminates by the
    nilpotency filtration); then the z^0 factor, then positive factors in
    ascending order up to the target precision.
    """
    ring = f.ring
    if not isinstance(ring, ArtinianAlgebra):
        raise DomainError("principal-unit factorization needs an Artinian coefficient ring")
    if not is_principal_unit(f):
        raise DomainError(
            "series is not a principal unit (reduction mod the maximal ideal must be 1)"
        )
    target = prec
    if target is None:
        target = f.prec if f.prec is not None else max(f.coeffs, default=0) + 1
    if f.prec is not None:
        target = min(target, f.prec)

    neg = []
    deepest = abs(min((e for e in f.coeffs if e < 0), default=0))
    guard = (ring.nil_index + 1) * (deepest + 2) * 8 + 32
    work = f
    while True:
        neg_exps = [e for e in work.coeffs if e < 0]
        if not neg_exps:
            break
        if len(neg) > guard:
            raise AssertionError("negative peeling failed to terminate")
        e = min(neg_exps)
        c = work.coeffs[e]
        if not ring.is_nilpotent(c):
            raise DomainError("negative coefficient is not nilpotent; input outside the domain")
        a = -c
        neg.append((-e, a))
        work = _divide_by_peel(work, e, a)

    pos = []
    c0 = work.known_coefficient(0)
    a0 = ring.one() - c0
    if not a0.is_zero():
        if not ring.is_nilpotent(a0):
            raise DomainError("constant term does not reduce to 1")
        pos.append((0, a0))
        work = work * c0.inverse()
    bound = target if work.prec is None else min(target, work.prec)
    for i in range(1, bound):
        ci = work.known_coefficient(i)
        if ci.is_zero():
            continue
        if not ring.is_nilpotent(ci):
            raise DomainError("positive coefficient outside the maximal ideal")
        ai = -ci
        pos.append((i, ai))
        work = _divide_by_peel(work, i, ai)
    if work.prec is not None and work.prec < target:
        raise PrecisionError("not enough precision to factorize to the requested bound")
    return PrincipalUnitFactorization(ring, tuple(neg), tuple(pos), target)
