"""Oracles and seeded instance generators that only the tests use.

The library keeps what its own commands call; the independent checks the
tests compare it against live here: tuple-format extension fields,
expanding a factorization back into what it factors, comparing truncated
series, the whole loop-matrix product, the norm/determinant
compatibility of block matrices, adele
orthogonality over a list of test functions, the schoolbook loops of the
packed F_p kernels, the earlier series arithmetic on dicts of elements,
Contou-Carrère loops and tokenizer, and random series, operators and
factored rational functions.
"""

from __future__ import annotations

import contextlib
import random
from math import gcd
from unittest import mock

from reciprocity import laurent, symbols
from reciprocity._kernels import generic, pure
from reciprocity.artinian import ArtinianAlgebra
from reciprocity.blockops import BlockOperator
from reciprocity.curve import AdeleVector, RationalFunction, residue_pairing_sum
from reciprocity.errors import DomainError, ExpressionError, NonUnitError, PrecisionError, TowerError
from reciprocity.factor import Factorization
from reciprocity.fields import AlgebraElement, BaseField, ExtensionField, QQ, power
from reciprocity.formatting import format_terms, split_sign
from reciprocity.laurent import DEFAULT_PRECISION, LaurentSeries, PrincipalUnitFactorization, UnitFactorization
from reciprocity.norms import (
    algebra_norm,
    mat_det,
    mat_identity,
    multiplication_matrix,
    relative_norm,
    vector_basis,
)
from reciprocity.poly import Polynomial
from reciprocity.symbols import LoopMatrix

# -- small constructions --------------------------------------------------------


def rational_x(field: BaseField) -> RationalFunction:
    """The rational function x."""
    return RationalFunction(field, Polynomial.x(field))


def evaluate(poly: Polynomial, x) -> AlgebraElement:
    """poly(x), by Horner's rule on elements."""
    acc = poly.field.zero()
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def xgcd(a: Polynomial, b: Polynomial):
    """Monic g and s, t with s*a + t*b = g, by the generic extended Euclid over the field."""
    f = a.field
    return tuple(Polynomial(f, [AlgebraElement(f, c) for c in data])
                 for data in generic.xgcd(a._data, b._data, f))


class TupleField(ExtensionField):
    """F_p[u]/(m) with tuple data at every order: the reference for the table fields.

    ``ExtensionField`` switches to discrete-log data only when it is built
    itself, so this subclass keeps tuples and the F_p ``mulmod``/``invmod``.
    It has the signature of the table field of the same modulus, so elements
    of the two must never meet in one operation.
    """


def identity_operator(ring, wneg: int, wpos: int) -> BlockOperator:
    z = ring.zero()
    return BlockOperator(
        ring,
        wneg,
        wpos,
        mat_identity(ring, wneg),
        [[z] * wpos for _ in range(wneg)],
        [[z] * wneg for _ in range(wpos)],
        mat_identity(ring, wpos),
    )


def matmul(a: LoopMatrix, b: LoopMatrix) -> LoopMatrix:
    """The product AB of two loop matrices."""
    if b.n != a.n or b.ring != a.ring:
        raise DomainError("size or ring mismatch in loop-matrix product")
    n = a.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentSeries.zero(a.ring)
            for t in range(n):
                acc = acc + a.entries[i][t] * b.entries[t][j]
            row.append(acc)
        out.append(row)
    return LoopMatrix(a.ring, out)


def bracket(a: LoopMatrix, b: LoopMatrix) -> LoopMatrix:
    """[A, B] = AB - BA of two loop matrices."""
    ab, ba = matmul(a, b), matmul(b, a)
    return LoopMatrix(a.ring, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab.entries, ba.entries)])


# -- oracles ------------------------------------------------------------------


def agrees_with(a: LaurentSeries, b: LaurentSeries) -> bool:
    """Equal coefficients on the range where both series are known."""
    assert a.ring == b.ring
    bound = a.prec if b.prec is None else b.prec if a.prec is None else min(a.prec, b.prec)
    ca, cb, zero = a.coeffs, b.coeffs, a.ring.zero()
    return all(ca.get(e, zero) == cb.get(e, zero) for e in set(ca) | set(cb) if bound is None or e < bound)


def expand(fac):
    """The polynomial or series a factorization describes, multiplied back out."""
    if isinstance(fac, Factorization):
        out = Polynomial.constant(fac.field, fac.lead)
        for f, m, _ in fac.factors:
            out = out * f**m
        return out
    ring = fac.ring
    if isinstance(fac, UnitFactorization):
        out = LaurentSeries(ring, {fac.valuation: fac.leading})
        for i, c in fac.tail:
            out = out * LaurentSeries(ring, {0: ring.one(), i: c})
    else:
        assert isinstance(fac, PrincipalUnitFactorization)
        out = LaurentSeries.one(ring)
        for i, c in fac.neg:
            out = out * LaurentSeries(ring, {0: ring.one(), -i: -c})
        for i, c in fac.pos:
            if i == 0:
                out = out * (ring.one() - c)
            else:
                out = out * LaurentSeries(ring, {0: ring.one(), i: -c})
    return out if fac.prec is None else out.truncate(fac.prec)


def norm_det_compat(T, over: BaseField):
    """(Norm_{k'/k}(det_{k'} T), det_k of T as a block matrix over k).

    T is a square matrix of elements of one extension field k'; callers
    assert the two components are equal.
    """
    if not T or any(len(row) != len(T) for row in T):
        raise ValueError("T must be a nonempty square matrix")
    kprime = T[0][0].ring
    for row in T:
        for t in row:
            if t.ring != kprime:
                raise TowerError("matrix entries live in different rings")
    norm = algebra_norm(mat_det(T, kprime), over)
    d = len(vector_basis(kprime, over))
    n = len(T)
    big = [[over.zero()] * (n * d) for _ in range(n * d)]
    for i in range(n):
        for j in range(n):
            block = multiplication_matrix(T[i][j], over)
            for bi in range(d):
                for bj in range(d):
                    big[i * d + bi][j * d + bj] = block[bi][bj]
    return norm, mat_det(big, over)


def sigma_perp_forward(adele: AdeleVector, tests) -> bool:
    """True iff the residue pairing with every test function vanishes.

    For adeles of the form rational + locally-constant perturbations the
    theorem of residues forces True (tests must be regular at perturbed
    places for the constant part to pair to zero); nonconstant
    perturbations are computed honestly and typically detected as False.
    """
    return all(residue_pairing_sum(adele, g).is_zero() for g in tests)


# -- the F_p kernels as schoolbook loops ----------------------------------------
# ``pure.mul``, ``pure.divmod_poly`` and ``pure.powmod`` pack coefficients into
# big ints; these are the same contracts with one ``% p`` per coefficient
# product, the bodies the packed ones replaced.


def loop_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return pure.normalize(out)


def loop_divmod_poly(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(num)
    dd = len(den) - 1
    if len(r) - 1 < dd:
        return [], pure.normalize(r)
    inv_lead = pow(den[dd], p - 2, p)
    q = [0] * (len(r) - dd)
    for k in range(len(r) - 1, dd - 1, -1):
        c = r[k] % p
        if c:
            c = (c * inv_lead) % p
            q[k - dd] = c
            for j in range(dd + 1):
                r[k - dd + j] = (r[k - dd + j] - c * den[j]) % p
    return pure.normalize(q), pure.normalize(r)


def loop_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m, left to right, one schoolbook product and remainder per step."""
    if e < 0:
        a = pure.invmod(a, m, p)
        e = -e
    base = loop_divmod_poly(a, m, p)[1]
    result = loop_divmod_poly([1], m, p)[1]
    for bit in bin(e)[2:]:
        result = loop_divmod_poly(loop_mul(result, result, p), m, p)[1]
        if bit == "1":
            result = loop_divmod_poly(loop_mul(result, base, p), m, p)[1]
    return result


# -- the Contou-Carrère loops the symbol replaced ---------------------------------
# ``symbols._double_product`` skips the pairs whose powers vanish, and
# ``laurent._divide_by_peel`` divides by a peel factor as a sum of shifts; these
# are the bodies they replaced, which form every power and multiply by the
# whole geometric series, its leading 1 included.


def loop_double_product(ring, fac_a, fac_b):
    acc = ring.one()
    for i, a in fac_a.pos:
        if i == 0 or a.is_zero():
            continue
        for j, b in fac_b.neg:
            if j == 0 or b.is_zero():
                continue
            d = gcd(i, j)
            t = a ** (j // d) * b ** (i // d)
            if t.is_zero():
                continue
            acc = acc * (ring.one() - t) ** d
    return acc


def divide_by_geometric_series(work: LaurentSeries, exponent: int, powers) -> LaurentSeries:
    """work * (1 - c z^exponent)^{-1}, the inverse as sum_k c^k z^{k*exponent}, finite by nilpotency.

    c is powers[0], raw; the other powers are formed again.
    """
    ring = work.ring
    c = AlgebraElement(ring, powers[0])
    terms = {0: ring.one()}
    power = c
    k = 1
    while not power.is_zero():
        terms[k * exponent] = power
        power = power * c
        k += 1
        if k > ring.nil_index + 1:
            raise AssertionError("geometric inverse failed to terminate")
    return work * LaurentSeries(ring, terms)


# -- the series arithmetic on dicts of elements ----------------------------------
# ``LaurentSeries`` keeps a dense list of raw coefficients and builds its
# results unchecked; this is the earlier class, a dict {exponent: nonzero
# element} re-checked by its constructor, with the earlier principal-unit
# factorization and Contou-Carrère symbol on top.  Printing, precision and
# errors must match the library's for every operation.


class ReferenceSeries:
    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring, coeffs: dict, prec: int | None = None):
        clean = {}
        for e, c in coeffs.items():
            if not isinstance(c, AlgebraElement) or c.ring != ring:
                c = ring.coerce(c)
            if not c.is_zero() and (prec is None or e < prec):
                clean[e] = c
        self.ring, self.coeffs, self.prec = ring, clean, prec

    @classmethod
    def of(cls, s: LaurentSeries) -> "ReferenceSeries":
        return cls(s.ring, s.coeffs, s.prec)

    @property
    def low(self) -> int:
        if self.coeffs:
            return min(self.coeffs)
        return self.prec if self.prec is not None else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int) -> AlgebraElement:
        if self.prec is not None and e >= self.prec:
            raise PrecisionError(f"coefficient of z^{e} is beyond the tracked precision O(z^{self.prec})")
        return self.coeffs.get(e, self.ring.zero())

    def valuation(self) -> int:
        if not self.coeffs:
            if self.prec is None:
                raise NonUnitError("the zero series has no valuation")
            raise PrecisionError("series is zero to working precision; valuation unknown")
        for e in sorted(self.coeffs):
            if is_unit(self.coeffs[e]):
                return e
        if self.prec is None:
            raise NonUnitError("series has no invertible coefficient (reduction mod the maximal ideal is zero)")
        raise PrecisionError("no invertible coefficient below the precision bound")

    def leading_term(self):
        if self.is_zero():
            raise NonUnitError("cannot factorize the zero series")
        v = min(self.coeffs)
        if not is_unit(self.coeffs[v]):
            raise NonUnitError("series is not a declared unit")
        return v, self.coeffs[v]

    def _operand(self, other) -> "ReferenceSeries":
        if isinstance(other, (int, AlgebraElement)):
            return ReferenceSeries(self.ring, {0: self.ring.coerce(other)})
        if self.ring != other.ring:
            raise DomainError("series live over different coefficient rings")
        return other

    def __add__(self, other):
        other = self._operand(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return ReferenceSeries(self.ring, out, _min_prec(self.prec, other.prec))

    def __neg__(self):
        return ReferenceSeries(self.ring, {e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._operand(other)
        if (self.is_zero() and self.prec is None) or (other.is_zero() and other.prec is None):
            return ReferenceSeries(self.ring, {})
        p1 = None if other.prec is None else other.prec + self.low
        p2 = None if self.prec is None else self.prec + other.low
        prec = _min_prec(p1, p2)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if prec is None or e < prec:
                    out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return ReferenceSeries(self.ring, out, prec)

    def shift(self, k: int) -> "ReferenceSeries":
        return ReferenceSeries(self.ring, {e + k: c for e, c in self.coeffs.items()},
                               None if self.prec is None else self.prec + k)

    def truncate(self, prec: int) -> "ReferenceSeries":
        return ReferenceSeries(self.ring, self.coeffs, _min_prec(self.prec, prec))

    def inverse(self, rel_prec: int | None = None) -> "ReferenceSeries":
        if not self.coeffs:
            raise NonUnitError("cannot invert the zero series")
        v = min(self.coeffs)
        c = self.coeffs[v]
        if not is_unit(c):
            raise NonUnitError("series is not a declared unit (lowest coefficient not invertible)")
        cinv = c.inverse()
        if len(self.coeffs) == 1:
            return ReferenceSeries(self.ring, {-v: cinv}, None if self.prec is None else self.prec - 2 * v)
        avail = None if self.prec is None else self.prec - v
        want = rel_prec if rel_prec is not None else (avail if avail is not None else DEFAULT_PRECISION)
        m = want if avail is None else min(want, avail)
        h = {e - v: cv * cinv for e, cv in self.coeffs.items() if e != v}
        b = {0: self.ring.one()}
        for n in range(1, m):
            acc = self.ring.zero()
            for k, hk in h.items():
                if 0 < k <= n and (n - k) in b:
                    acc = acc + hk * b[n - k]
            if not acc.is_zero():
                b[n] = -acc
        return ReferenceSeries(self.ring, {e - v: bv * cinv for e, bv in b.items()}, m - v)

    def power(self, n: int, rel_prec: int | None = None) -> "ReferenceSeries":
        if n < 0:
            return self.inverse(rel_prec).power(-n)
        if n == 0:
            return ReferenceSeries(self.ring, {0: self.ring.one()})
        return power(self, n)

    def derivative(self) -> "ReferenceSeries":
        out = {e - 1: self.ring.from_int(e) * c for e, c in self.coeffs.items()}
        return ReferenceSeries(self.ring, out, None if self.prec is None else self.prec - 1)

    def __str__(self):
        terms = [(*split_sign(self.coeffs[e]), e) for e in sorted(self.coeffs)]
        if self.prec is None:
            return format_terms(terms, "z")
        return f"{format_terms(terms, 'z')} + O(z^{self.prec})" if terms else f"O(z^{self.prec})"


def is_unit(x: AlgebraElement) -> bool:
    """x is invertible in its ring."""
    return x.ring._is_invertible(x.data)


def _min_prec(a, b):
    return b if a is None else a if b is None else min(a, b)


def reference_divide_by_peel(work: ReferenceSeries, exponent: int, c: AlgebraElement) -> ReferenceSeries:
    """work / (1 - c z^exponent) as work + sum_k (work c^k) z^(k exponent)."""
    out, ck = work, c
    for k in range(1, work.ring.nil_index):
        if ck.is_zero():
            break
        out = out + (work * ck).shift(k * exponent)
        ck = ck * c
    return out


def reference_cc_factorize(f: ReferenceSeries, prec: int | None = None) -> PrincipalUnitFactorization:
    ring = f.ring
    if not isinstance(ring, ArtinianAlgebra):
        raise DomainError("principal-unit factorization needs an Artinian coefficient ring")
    rest = {e: c for e, c in f.coeffs.items() if e != 0}
    if any(is_unit(c) for c in rest.values()) or is_unit(f.coeffs.get(0, ring.zero()) - 1):
        raise DomainError("series is not a principal unit (reduction mod the maximal ideal must be 1)")
    target = prec
    if target is None:
        target = f.prec if f.prec is not None else max(f.coeffs, default=0) + 1
    if f.prec is not None:
        target = min(target, f.prec)

    def powers(c: AlgebraElement) -> tuple:
        out = [c]
        while not (out[-1] * c).is_zero():
            out.append(out[-1] * c)
        return tuple(x.data for x in out)

    neg, work = [], f
    while any(e < 0 for e in work.coeffs):
        e = min(work.coeffs)
        if is_unit(work.coeffs[e]):
            raise DomainError("negative coefficient is not nilpotent; input outside the domain")
        neg.append((-e, -work.coeffs[e]))
        work = reference_divide_by_peel(work, e, -work.coeffs[e])
    pos = []
    c0 = work.coeffs.get(0, ring.zero())
    a0 = ring.one() - c0
    if not a0.is_zero():
        if is_unit(a0):
            raise DomainError("constant term does not reduce to 1")
        pos.append((0, a0))
        work = work * c0.inverse()
    for i in range(1, target if work.prec is None else min(target, work.prec)):
        ci = work.coeffs.get(i, ring.zero())
        if ci.is_zero():
            continue
        if is_unit(ci):
            raise DomainError("positive coefficient outside the maximal ideal")
        pos.append((i, -ci))
        work = reference_divide_by_peel(work, i, -ci)
    if work.prec is not None and work.prec < target:
        raise PrecisionError("not enough precision to factorize to the requested bound")
    return PrincipalUnitFactorization(ring, tuple(neg), tuple(pos), target, tuple(powers(c) for _, c in neg),
                                      tuple(None if i == 0 else powers(c) for i, c in pos))


def reference_cc_symbol(f: ReferenceSeries, g: ReferenceSeries) -> AlgebraElement:
    """<f, g> from the reference factorizations and the earlier double-product loop."""
    ring = f.ring
    if not isinstance(ring, ArtinianAlgebra) or g.ring != ring:
        raise DomainError("the symbol needs two series over one Artinian ring")
    m = ring.nil_index

    def deepest(s: ReferenceSeries) -> int:
        return abs(min((e for e in s.coeffs if e < 0), default=0))

    fac_f = reference_cc_factorize(f, max(2, m * deepest(g) * (m - 1) + 2))
    fac_g = reference_cc_factorize(g, max(2, m * deepest(f) * (m - 1) + 2))
    value = loop_double_product(ring, fac_f, fac_g) * loop_double_product(ring, fac_g, fac_f).inverse()
    return relative_norm(value, ring.base)


@contextlib.contextmanager
def earlier_cc_loops():
    """Inside the block, contou_carrere_symbol and cc_factorize run the earlier loops."""
    with mock.patch.object(symbols, "_double_product", loop_double_product), \
            mock.patch.object(laurent, "_divide_by_peel", divide_by_geometric_series):
        yield


_PUNCTUATION = {"(": "LPAREN", ")": "RPAREN", **dict.fromkeys("+-*/^", "OP")}


def loop_tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, column) of each token by the earlier per-character loop; it reads any Unicode digit as an INT."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], col))
            i = j
        elif ch in _PUNCTUATION:
            tokens.append((_PUNCTUATION[ch], ch, col))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", column=col)
    tokens.append(("EOF", "", n + 1))
    return tokens


# -- seeded generators ----------------------------------------------------------


_Q_QUADRATICS = ([1, 0, 1], [2, 0, 1], [1, 1, 1], [3, -1, 1], [5, 0, 1])


def random_factored_rational(rng: random.Random, field: BaseField = QQ,
                             linear_roots=(-3, -2, -1, 0, 1, 2, 3)) -> RationalFunction:
    """A rational function over Q built from declared irreducible factors."""
    pairs = []
    for a in rng.sample(linear_roots, k=rng.randint(1, 3)):
        e = rng.choice([-2, -1, 1, 2])
        pairs.append((Polynomial(field, [-a, 1]), e))
    if rng.random() < 0.6:
        quad = Polynomial(field, rng.choice(_Q_QUADRATICS))
        pairs.append((quad, rng.choice([-1, 1])))
    lead = field.from_int(rng.choice([1, 2, 3, -1, -2]))
    return RationalFunction.from_factored(field, lead, pairs)


def random_laurent_polynomial(rng: random.Random, ring, min_exp: int = -4, max_exp: int = 4,
                              density: float = 0.6) -> LaurentSeries:
    """An exact series with support in [min_exp, max_exp] (possibly zero)."""
    coeffs = {}
    for e in range(min_exp, max_exp + 1):
        if rng.random() < density:
            c = ring.random_element(rng)
            if not c.is_zero():
                coeffs[e] = c
    return LaurentSeries(ring, coeffs)


def random_unit_series(rng: random.Random, field: BaseField, min_val: int = -3,
                       max_val: int = 3, prec: int | None = None,
                       terms: int = 4) -> LaurentSeries:
    """A declared unit over a field: invertible lowest coefficient."""
    v = rng.randint(min_val, max_val)
    while True:
        lead = field.random_element(rng)
        if not lead.is_zero():
            break
    coeffs = {v: lead}
    for _ in range(terms):
        e = v + rng.randint(1, 6)
        c = field.random_element(rng)
        if not c.is_zero():
            coeffs[e] = c
    return LaurentSeries(field, coeffs, prec)


def random_principal_unit(rng: random.Random, ring: ArtinianAlgebra, min_exp: int = -3,
                          max_exp: int = 3) -> LaurentSeries:
    """1 + (maximal-ideal coefficients), nilpotent below z^0; exact."""
    coeffs = {0: ring.one()}
    for e in range(min_exp, max_exp + 1):
        if rng.random() < 0.6:
            c = ring.random_element(rng)
            nil = c - ring.embed_from_below(ring.residue(c))
            if not nil.is_zero():
                coeffs[e] = coeffs.get(e, ring.zero()) + nil
    return LaurentSeries(ring, coeffs)


def random_matrix(rng: random.Random, ring, n: int):
    """n x n entries, from -4..4 over Q and uniform over other rings."""

    def entry():
        if ring == QQ:
            return ring.from_int(rng.randint(-4, 4))
        return ring.random_element(rng)

    return [[entry() for _ in range(n)] for _ in range(n)]


def random_block_operator(rng: random.Random, ring, wneg: int, wpos: int,
                          invertible_delta: bool = True) -> BlockOperator:
    while True:
        alpha = random_matrix(rng, ring, wneg)
        delta = random_matrix(rng, ring, wpos)
        beta = [[ring.random_element(rng) for _ in range(wpos)] for _ in range(wneg)]
        gamma = [[ring.random_element(rng) for _ in range(wneg)] for _ in range(wpos)]
        op = BlockOperator(ring, wneg, wpos, alpha, beta, gamma, delta)
        if not invertible_delta:
            return op
        try:
            if is_unit(mat_det(delta, ring)):
                return op
        except NonUnitError:
            pass
