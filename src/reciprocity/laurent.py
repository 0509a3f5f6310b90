"""Truncated formal Laurent series over any exact coefficient ring.

A series is ``offset``, ``data`` and ``prec``: ``data`` is a dense list of
the ring's raw element data (see :mod:`reciprocity.fields`), entry i the
coefficient of z^(offset + i), with no zero at either end; coefficients at
exponents >= prec are unknown, and ``prec=None`` means the series is exact.
The zero series has ``data == []`` and ``offset == 0``.  Lists are never
mutated, so series share them.  Only the public constructor and the parser
coerce: arithmetic builds results on raw data through the unchecked
``_from_raw``, and multiplies through the ring's ``kernels``.  ``coeffs``,
``coefficient`` and ``leading_term`` box elements at the boundary.  An int
or ring element added to or multiplied by a series acts as a constant.

Precision is tracked, never guessed: a product knows its coefficients only
up to min(low_f + prec_g, low_g + prec_f) (``product_precision``), and
asking for a coefficient at or beyond prec raises PrecisionError.

A series is a *declared unit* when its lowest stored coefficient is
invertible in the ring (for fields: nonzero; over an Artinian ring:
invertible modulo the maximal ideal).  Only declared units can be inverted;
the principal-unit factorization below peels (1 - c z^k) factors with
nilpotent c instead, in sweeps from z^-1 down: the quotient w' of a series w
by the factor solves w'[t] = w[t] + c w'[t - k], a first-order recurrence
run in place on w's raw list with one fused multiply-add per nonzero
coefficient (``ArtinianAlgebra._mul_add``), finite because c is nilpotent.
"""

from __future__ import annotations

from collections import namedtuple

from .artinian import ArtinianAlgebra
from .errors import DomainError, NonUnitError, PrecisionError
from .fields import AlgebraElement, CoefficientRing, power
from .formatting import format_terms, power_string, split_sign

DEFAULT_PRECISION = 32
# largest precision a series is parsed at: a product of two dense series
# costs prec^2 coefficient products, about 2.5 s over Q at 512
PRECISION_BUDGET = 512
# most base products the peels of one factorization form, negative and positive
# together: a negative peel counts length times ``_mul_add_cost``, a positive one
# the products its nonzero cells can form (``_positive_peel_products``); 10^6 take 0.8-2.5 s
# over Q[e]/(e^64) and 0.2-0.3 s over F7 or F101 (pure backend, one x86-64 core)
PEEL_BUDGET = 10**6


def _min_prec(a: int | None, b: int | None) -> int | None:
    return b if a is None else a if b is None else min(a, b)


def product_precision(low_a: int, prec_a: int | None, low_b: int, prec_b: int | None) -> int | None:
    """The precision of a product from each factor's ``low`` and ``prec``; neither is the exact zero."""
    return _min_prec(None if prec_b is None else prec_b + low_a, None if prec_a is None else prec_a + low_b)


class LaurentSeries:
    __slots__ = ("ring", "offset", "data", "prec")

    def __init__(self, ring: CoefficientRing, coeffs: dict, prec: int | None = None):
        raw = {e: (c if isinstance(c, AlgebraElement) and c.ring == ring else ring.coerce(c)).data
               for e, c in coeffs.items()}
        offset = min(raw, default=0)
        data = [ring._zero] * (max(raw, default=offset - 1) - offset + 1)
        for e, c in raw.items():
            data[e - offset] = c
        self._set(ring, offset, data, prec)

    @classmethod
    def _from_raw(cls, ring: CoefficientRing, offset: int, data: list, prec: int | None = None):
        """sum data[i] z^(offset + i) + O(z^prec), taking data as it is: no coercion or check."""
        self = object.__new__(cls)
        self._set(ring, offset, data, prec)
        return self

    def _set(self, ring, offset: int, data: list, prec: int | None):
        """Store data cut below prec and stripped of zeros at both ends."""
        if prec is not None and offset + len(data) > prec:
            data = data[:max(prec - offset, 0)]
        is_zero = ring._is_zero
        hi = len(data)
        while hi and is_zero(data[hi - 1]):
            hi -= 1
        lo = 0
        while lo < hi and is_zero(data[lo]):
            lo += 1
        if lo or hi < len(data):
            data = data[lo:hi]
        self.ring, self.offset, self.data, self.prec = ring, offset + lo if data else 0, data, prec

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring, prec: int | None = None):
        return cls._from_raw(ring, 0, [], prec)

    @classmethod
    def one(cls, ring):
        return cls._from_raw(ring, 0, [ring._one])

    @classmethod
    def constant(cls, ring, c):
        return cls._from_raw(ring, 0, [ring.coerce(c).data])

    # -- structure ------------------------------------------------------

    @property
    def low(self) -> int:
        """Lowest exponent with a (known) nonzero coefficient."""
        return self.offset if self.data else self.prec if self.prec is not None else 0

    @property
    def coeffs(self) -> dict:
        """{exponent: nonzero coefficient}, as elements."""
        ring = self.ring
        return {self.offset + i: AlgebraElement(ring, c) for i, c in enumerate(self.data) if not ring._is_zero(c)}

    def support(self):
        is_zero = self.ring._is_zero
        return [self.offset + i for i, c in enumerate(self.data) if not is_zero(c)]

    def is_zero(self) -> bool:
        """No known nonzero coefficient (exact zero when prec is None)."""
        return not self.data

    def is_exact(self) -> bool:
        return self.prec is None

    def _at(self, e: int):
        """Raw coefficient of z^e as stored (zero outside the data; no precision check)."""
        i = e - self.offset
        return self.data[i] if 0 <= i < len(self.data) else self.ring._zero

    def coefficient(self, e: int) -> AlgebraElement:
        if self.prec is not None and e >= self.prec:
            raise PrecisionError(f"coefficient of z^{e} is beyond the tracked precision O(z^{self.prec})")
        return AlgebraElement(self.ring, self._at(e))

    def valuation(self) -> int:
        """Exponent of the lowest invertible coefficient."""
        if not self.data:
            if self.prec is None:
                raise NonUnitError("the zero series has no valuation")
            raise PrecisionError("series is zero to working precision; valuation unknown")
        for i, c in enumerate(self.data):
            if self.ring._is_invertible(c):
                return self.offset + i
        if self.prec is None:
            raise NonUnitError("series has no invertible coefficient (reduction mod the maximal ideal is zero)")
        raise PrecisionError("no invertible coefficient below the precision bound")

    def is_unit(self) -> bool:
        """Declared unit: lowest stored coefficient invertible."""
        return bool(self.data) and self.ring._is_invertible(self.data[0])

    def leading_term(self) -> tuple[int, AlgebraElement]:
        """(v, c) for the lowest stored term c z^v of a declared unit."""
        if self.is_zero():
            raise NonUnitError("cannot factorize the zero series")
        if not self.is_unit():
            raise NonUnitError("series is not a declared unit")
        return self.offset, AlgebraElement(self.ring, self.data[0])

    # -- arithmetic -------------------------------------------------------

    def _operand(self, other):
        """other as a series over this ring, or None if it is no series, int or element."""
        if isinstance(other, (int, AlgebraElement)):
            return LaurentSeries.constant(self.ring, other)
        if not isinstance(other, LaurentSeries):
            return None
        if self.ring != other.ring:
            raise DomainError("series live over different coefficient rings")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        ring, prec = self.ring, _min_prec(self.prec, other.prec)
        if not (self.data and other.data):
            s = self if self.data else other
            return LaurentSeries._from_raw(ring, s.offset, s.data, prec)
        a, b = (self, other) if self.offset <= other.offset else (other, self)
        # b starts d places into a: a, zeros up to b, the part of b past a; then sum the overlap
        d, x, y = b.offset - a.offset, a.data, b.data
        out = x + [ring._zero] * (d - len(x)) + y[max(len(x) - d, 0):]
        add = ring._add
        for i in range(d, min(len(x), d + len(y))):
            out[i] = add(x[i], y[i - d])
        return LaurentSeries._from_raw(ring, a.offset, out, prec)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, AlgebraElement, LaurentSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        ring = self.ring
        return LaurentSeries._from_raw(ring, self.offset, ring.kernels.sub([], self.data, ring.kernel_arg), self.prec)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        if (not self.data and self.prec is None) or (not other.data and other.prec is None):
            return LaurentSeries.zero(ring)
        prec = product_precision(self.low, self.prec, other.low, other.prec)
        offset = self.offset + other.offset
        a, b = self.data, other.data
        if prec is not None:
            # only the first prec - offset product terms are known
            n = max(prec - offset, 0)
            a, b = a[:n], b[:n]
        return LaurentSeries._from_raw(ring, offset, ring.kernels.mul(a, b, ring.kernel_arg), prec)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z^k."""
        prec = None if self.prec is None else self.prec + k
        return LaurentSeries._from_raw(self.ring, self.offset + k, self.data, prec)

    def inverse(self, rel_prec: int | None = None) -> "LaurentSeries":
        """Inverse of a declared unit.

        The result carries relative precision min(available, requested);
        inverting an exact series defaults to DEFAULT_PRECISION relative
        terms unless it is a monomial (then the inverse is exact too).
        """
        if not self.data:
            raise NonUnitError("cannot invert the zero series")
        ring, v, data = self.ring, self.offset, self.data
        if not ring._is_invertible(data[0]):
            raise NonUnitError("series is not a declared unit (lowest coefficient not invertible)")
        cinv = ring._inv(data[0])
        if len(data) == 1:
            # a monomial inverts exactly; rel_prec only matters for genuine tails
            return LaurentSeries._from_raw(ring, -v, [cinv], None if self.prec is None else self.prec - 2 * v)
        avail = None if self.prec is None else self.prec - v
        want = rel_prec if rel_prec is not None else (avail if avail is not None else DEFAULT_PRECISION)
        m = want if avail is None else min(want, avail)
        # u = 1 + h with h of valuation >= 1; invert by the standard recurrence
        add, mul = ring._add, ring._mul
        h = [(k, mul(c, cinv)) for k, c in enumerate(data[1:m], 1) if not ring._is_zero(c)]
        b = [ring._one]
        for n in range(1, m):
            acc = ring._zero
            for k, hk in h:
                if k > n:
                    break
                acc = add(acc, mul(hk, b[n - k]))
            b.append(ring._neg(acc))
        return LaurentSeries._from_raw(ring, -v, [mul(x, cinv) for x in b], m - v)

    def power(self, n: int, rel_prec: int | None = None) -> "LaurentSeries":
        if n < 0:
            return self.inverse(rel_prec).power(-n)
        if n == 0:
            return LaurentSeries.one(self.ring)
        if self.prec is None and len(self.data) == 1:
            # an exact monomial c z^v is c^n z^(n v): only its coefficient is raised
            return LaurentSeries._from_raw(self.ring, n * self.offset, [power(AlgebraElement(self.ring, self.data[0]), n).data])
        return power(self, n)

    def __pow__(self, n: int):
        return self.power(n)

    def derivative(self) -> "LaurentSeries":
        ring = self.ring
        out = [ring._mul(ring.from_int(self.offset + i).data, c) for i, c in enumerate(self.data)]
        return LaurentSeries._from_raw(ring, self.offset - 1, out, None if self.prec is None else self.prec - 1)

    def truncate(self, prec: int) -> "LaurentSeries":
        return LaurentSeries._from_raw(self.ring, self.offset, self.data, _min_prec(self.prec, prec))

    def map_coefficients(self, fn, ring: CoefficientRing | None = None) -> "LaurentSeries":
        ring = ring or self.ring
        return LaurentSeries(ring, {e: fn(c) for e, c in self.coeffs.items()}, self.prec)

    # -- comparisons and printing ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.ring == other.ring and self.prec == other.prec
                and self.offset == other.offset and self.data == other.data)

    def __hash__(self):
        canonical = self.ring._canonical
        return hash((self.ring.signature, self.prec, self.offset, tuple(canonical(c) for c in self.data)))

    def to_string(self, var: str = "z") -> str:
        ring, offset = self.ring, self.offset
        terms = [(*split_sign(ring, c), power_string(var, offset + i))
                 for i, c in enumerate(self.data) if not ring._is_zero(c)]
        if self.prec is not None:
            terms.append((f"O({var}^{self.prec})", False, ""))
        return format_terms(terms)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentSeries({self.ring!r}, {self.to_string()!r})"


# -- unit factorization over a field -----------------------------------------


class UnitFactorization(namedtuple("UnitFactorization", "ring leading valuation tail prec")):
    """f = leading * z^valuation * prod_{i}(1 + tail_i z^i), up to prec."""

    __slots__ = ()


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
    n_rel, ring, tail = target - v, f.ring, []
    u = (f.shift(-v) * s0.inverse()).truncate(n_rel)
    for i in range(1, n_rel):
        ci = u._at(i)
        if ring._is_zero(ci):
            continue
        tail.append((i, AlgebraElement(ring, ci)))
        factor = LaurentSeries._from_raw(ring, 0, [ring._one] + [ring._zero] * (i - 1) + [ci])
        u = (u * factor.inverse(n_rel)).truncate(n_rel)
    return UnitFactorization(ring, s0, v, tuple(tail), target)


# -- principal-unit factorization over an Artinian ring -----------------------


class PrincipalUnitFactorization(namedtuple("PrincipalUnitFactorization", "ring neg pos prec neg_powers pos_powers")):
    """f = prod(1 - neg_i z^{-i}) * prod(1 - pos_i z^{i}), up to prec.

    Negative-exponent coefficients are nilpotent; positive ones (including
    the z^0 factor) lie in the maximal ideal.  The neg list is in peel order
    (sweeps from z^-1 down) and repeats exponents only across sweeps.  ``neg_powers``
    and ``pos_powers`` hold, entry for entry, the ``nilpotent_powers`` of each
    coefficient that the peel divided by, so the symbol forms none of them
    again; the z^0 factor, which no peel divides by, has ``None``.
    """

    __slots__ = ()


def is_principal_unit(f: LaurentSeries) -> bool:
    """Does f reduce to the constant series 1 modulo the maximal ideal?"""
    ring = f.ring
    if not isinstance(ring, ArtinianAlgebra):
        return False
    # over a local ring an element reduces to zero exactly when it is not invertible
    rest = [c for i, c in enumerate(f.data) if f.offset + i != 0] + [ring._sub(f._at(0), ring._one)]
    return not any(map(ring._is_invertible, rest))


def nilpotent_powers(ring: ArtinianAlgebra, c) -> tuple:
    """(c, c^2, ...) of raw data up to the last nonzero power of a nonzero nilpotent c; c^nil_index is 0."""
    powers = [c]
    for _ in range(ring.nil_index - 2):
        p = ring._mul(powers[-1], c)
        if ring._is_zero(p):
            break
        powers.append(p)
    return tuple(powers)


def _divide_by_peel(work: LaurentSeries, exponent: int, powers: tuple) -> LaurentSeries:
    """work / (1 - c z^exponent), by the recurrence w'[t] = w[t] + c w'[t - exponent].

    ``powers`` is ``nilpotent_powers`` of the raw coefficient c, K of them:
    c^(K+1) = 0, so the quotient is work * sum_{k <= K} c^k z^(k exponent)
    and reaches K |exponent| places past work, below it for a negative
    exponent and above it for a positive one.  The recurrence runs in place
    on one list extended by those places, one ``_mul_add`` per nonzero
    coefficient it carries.  A negative peel carries the unknown part above
    prec down, so prec falls by the extension; a positive one keeps prec and
    extends no further than it.
    """
    ring = work.ring
    c, mul_add, zero = powers[0], ring._mul_add, ring._zero
    step = abs(exponent)
    ext = step * len(powers)
    prec = work.prec
    if exponent < 0:
        # descending: w'[t + step] is final before w'[t] reads it
        out = [zero] * ext + work.data
        for i in range(len(out) - 1 - step, -1, -1):
            x = out[i + step]
            if x != zero:
                out[i] = mul_add(out[i], c, x)
        return LaurentSeries._from_raw(ring, work.offset - ext, out, None if prec is None else prec - ext)
    out = work.data + [zero] * _positive_extension(work, step, len(powers))
    for i in range(step, len(out)):
        x = out[i - step]
        if x != zero:
            out[i] = mul_add(out[i], c, x)
    return LaurentSeries._from_raw(ring, work.offset, out, prec)


def _positive_extension(work: LaurentSeries, step: int, k: int) -> int:
    """The places a positive peel at exponent step extends work by, k = len(powers): k*step, and no further than prec."""
    ext = step * k
    return ext if work.prec is None else min(ext, work.prec - work.offset - len(work.data))


def _positive_peel_products(work: LaurentSeries, step: int, powers: tuple) -> int:
    """At least the base products ``_divide_by_peel(work, step, powers)`` forms, step > 0, counted before it runs.

    The recurrence w'[t + step] = w[t + step] + c w'[t] reads w'[t] for every
    t at least step below the end of the extended list, and a nonzero w'[t]
    costs one product per structure constant (i, j, k) with c_i and w'[t]_j
    nonzero.  Each w'[t] is tracked as the bit mask of the coordinates it can
    have nonzero: those of w[t] and each k that c w'[t - step] reaches.  A
    product that cancels leaves its bit set, so the count is never below the
    products the peel forms.
    """
    ring = work.ring
    zero, dim = ring.base._zero, ring.dimension
    c = powers[0]
    weight, reach = [0] * dim, [0] * dim  # per coordinate j of w'[t]: products formed, bits reached
    for i, row in ring._table:
        if c[i] != zero:
            for j, k in row:
                weight[j] += 1
                reach[j] |= 1 << k
    masks = [sum(1 << j for j, y in enumerate(x) if y != zero) for x in work.data]
    masks += [0] * _positive_extension(work, step, len(powers))
    seen = {}  # mask -> (products, bits reached)
    total = 0
    for t in range(len(masks) - step):
        mask = masks[t]
        if mask:
            if mask not in seen:
                js = [j for j in range(dim) if mask >> j & 1]
                bits = 0
                for j in js:
                    bits |= reach[j]
                seen[mask] = (sum(weight[j] for j in js), bits)
            products, bits = seen[mask]
            total += products
            masks[t + step] |= bits
    return total


def _peel_cost(cost: int, sign: str) -> int:
    """cost, the base products of the peels so far; a DomainError past PEEL_BUDGET."""
    if cost > PEEL_BUDGET:
        raise DomainError(f"{sign} peeling takes more than {PEEL_BUDGET} base products: the budget is products <= {PEEL_BUDGET}")
    return cost


def cc_factorize(f: LaurentSeries, prec: int | None = None) -> PrincipalUnitFactorization:
    """Peel a principal unit into (1 - c z^{+-i}) factors.

    Negative factors are peeled in sweeps from z^-1 down to the lowest
    exponent until the negative part is zero; each sweep raises its m-adic
    order, so fewer than nil_index run.  Then come the z^0 factor and the
    positive factors up to the target.  The peels of both signs count their
    base products against one PEEL_BUDGET, a positive peel before it runs
    and only the products its nonzero cells can form, and a DomainError
    names the sign of the peel that passes it.
    """
    ring = f.ring
    if not isinstance(ring, ArtinianAlgebra):
        raise DomainError("principal-unit factorization needs an Artinian coefficient ring")
    if not is_principal_unit(f):
        raise DomainError(
            "series is not a principal unit (reduction mod the maximal ideal must be 1)"
        )
    # the factors reach z^0 at least, and by default one past the highest exponent
    target = max(1, prec if prec is not None else f.prec if f.prec is not None else f.offset + len(f.data))
    if f.prec is not None:
        target = min(target, f.prec)

    is_zero, neg_raw = ring._is_zero, ring._neg
    neg, neg_powers = [], []
    work, cost, e = f, 0, 0
    while work.offset < 0:
        e = e - 1 if e > work.offset else -1  # down to the lowest exponent, then a new sweep
        c = work._at(e)
        if is_zero(c):
            continue
        a = neg_raw(c)
        cost = _peel_cost(cost + len(work.data) * ring._mul_add_cost(a), "negative")
        neg.append((-e, AlgebraElement(ring, a)))
        neg_powers.append(nilpotent_powers(ring, a))
        work = _divide_by_peel(work, e, neg_powers[-1])
        if work.prec is not None and work.prec < target:  # a negative peel lowers prec, a positive one keeps it
            raise PrecisionError(f"not enough precision to factorize to O(z^{target}): the negative peels leave O(z^{work.prec})")

    pos, pos_powers = [], []
    c0 = work._at(0)
    a0 = ring._sub(ring._one, c0)
    if not is_zero(a0):
        pos.append((0, AlgebraElement(ring, a0)))
        pos_powers.append(None)
        work = work * LaurentSeries._from_raw(ring, 0, [ring._inv(c0)])
    # no positive peel reads past the target, so an exact work stops growing there
    work = work.truncate(target)
    # peel i visits at most target - i places, each forming at most dim^2
    # products; when that sum fits the budget, no peel's products need counting
    counted = cost + ring.dimension ** 2 * target * (target - 1) // 2 > PEEL_BUDGET
    for i in range(1, target):
        ci = work._at(i)
        if is_zero(ci):
            continue
        ai = neg_raw(ci)
        pos.append((i, AlgebraElement(ring, ai)))
        pos_powers.append(nilpotent_powers(ring, ai))
        if counted:
            cost = _peel_cost(cost + _positive_peel_products(work, i, pos_powers[-1]), "positive")
        work = _divide_by_peel(work, i, pos_powers[-1])
    return PrincipalUnitFactorization(ring, tuple(neg), tuple(pos), target,
                                      tuple(neg_powers), tuple(pos_powers))
