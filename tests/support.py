"""Oracles and seeded instance generators that only the tests use.

The library keeps what its own commands call; the independent checks the
tests compare it against live here: tuple-format extension fields,
expanding a factorization back into what it factors, comparing truncated
series, the whole loop-matrix and window-operator products, the identity,
sum and trace of raw matrices, the norm/determinant compatibility of block
matrices, the block trace read cell by cell, the derivatives of a rational
function and of a loop matrix, adele orthogonality over a list of test
functions, the schoolbook loops of the
packed and in-place F_p kernels, the row-by-row Frobenius matrix, the
generic extended Euclid, the Leibniz determinant, the finite-field factoring chain that normalized
every stage, the printers and generic divisions that boxed elements and
formed a fresh quotient per step, Miller-Rabin to all 14 bases, the
earlier series arithmetic on dicts of elements, Contou-Carrère loops,
tokenizer and expression tree, and random series, operators and factored rational functions.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from fractions import Fraction
from math import gcd
from unittest import mock

from reciprocity import factor, laurent, symbols
from reciprocity._kernels import generic, pure
from reciprocity.artinian import ArtinianAlgebra
from reciprocity.blockops import BlockOperator
from reciprocity.curve import AdeleVector, RationalFunction, residue_pairing_sum
from reciprocity.errors import DomainError, ExpressionError, NonUnitError, PrecisionError, TowerError
from reciprocity.factor import DEGREE_BUDGET, Factorization
from reciprocity.fields import _MR_WITNESSES, AlgebraElement, BaseField, ExtensionField, QQ, power
from reciprocity.laurent import DEFAULT_PRECISION, LaurentSeries, PrincipalUnitFactorization, UnitFactorization
from reciprocity.norms import (
    algebra_norm,
    mat_det,
    mat_mul,
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


def rational_derivative(f: RationalFunction) -> RationalFunction:
    """df/dx, reduced: (num' den - num den') / den^2."""
    return RationalFunction(f.field, f.num.derivative() * f.den - f.num * f.den.derivative(), f.den * f.den)


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
                 for data in generic_xgcd(a._data, b._data, f))


class TupleField(ExtensionField):
    """F_p[u]/(m) with tuple data at every order: the reference for the table fields.

    ``ExtensionField`` switches to discrete-log data only when it is built
    itself, so this subclass keeps tuples and the F_p ``mulmod``/``invmod``.
    It has the signature of the table field of the same modulus, so elements
    of the two must never meet in one operation.
    """


# -- raw matrices: lists of rows of a ring's raw data, as the library's -----------


def identity_matrix(ring, n: int) -> list[list]:
    """The raw n x n identity."""
    return [[ring._one if i == j else ring._zero for j in range(n)] for i in range(n)]


def matrix_sum(a, b, ring) -> list[list]:
    """a + b of two raw matrices."""
    return [[ring._add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matrix_trace(a, ring) -> AlgebraElement:
    """The trace of a raw square matrix, boxed."""
    t = ring._zero
    for i in range(len(a)):
        t = ring._add(t, a[i][i])
    return AlgebraElement(ring, t)


def identity_operator(ring, wneg: int, wpos: int) -> BlockOperator:
    z = ring._zero
    return BlockOperator(
        ring,
        wneg,
        wpos,
        identity_matrix(ring, wneg),
        [[z] * wpos for _ in range(wneg)],
        [[z] * wneg for _ in range(wpos)],
        identity_matrix(ring, wpos),
    )


def compose(s: BlockOperator, t: BlockOperator) -> BlockOperator:
    """The operator S T on the window of S and T, from the product of their whole matrices."""
    m, w = mat_mul(s.assemble(), t.assemble(), s.ring), s.wneg
    return BlockOperator(s.ring, w, s.wpos, [r[:w] for r in m[:w]], [r[w:] for r in m[:w]],
                         [r[:w] for r in m[w:]], [r[w:] for r in m[w:]])


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


def loop_derivative(a: LoopMatrix) -> LoopMatrix:
    """dA/dz, entry by entry."""
    return LoopMatrix(a.ring, [[c.derivative() for c in row] for row in a.entries])


def bracket(a: LoopMatrix, b: LoopMatrix) -> LoopMatrix:
    """[A, B] = AB - BA of two loop matrices."""
    ab, ba = matmul(a, b), matmul(b, a)
    return LoopMatrix(a.ring, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab.entries, ba.entries)])


# -- oracles ------------------------------------------------------------------


def trace_of_product(a, b, ring) -> AlgebraElement:
    """tr(a b) of a raw n x k and k x n matrix, summed over every cell without forming a b.

    The reference for ``blockops.lie_cocycle``, which reads only the corner
    triangles where a multiplication operator's blocks can be nonzero.
    """
    t = ring._zero
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            t = ring._add(t, ring._mul(x, b[j][i]))
    return AlgebraElement(ring, t)


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
    norm = algebra_norm(mat_det([[t.data for t in row] for row in T], kprime), over)
    d = len(vector_basis(kprime, over))
    n = len(T)
    big = [[over._zero] * (n * d) for _ in range(n * d)]
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
# big ints or reduce lazily, and ``pure.gcd`` and ``pure.invmod`` reduce their
# remainder sequences in place; these are the same contracts with one ``% p``
# per coefficient product and fresh lists per step, the bodies they replaced.
# ``loop_frobenius_matrix`` builds the rows of ``pure.frobenius_matrix`` from them.


def scalar_mul(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    if c == 0:
        return []
    return pure.normalize([(x * c) % p for x in a])


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


def loop_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd, one fresh quotient and remainder per step."""
    a, b = list(a), list(b)
    while b:
        a, b = b, loop_divmod_poly(a, b, p)[1]
    return pure.monic(a, p)


def loop_invmod(a: list[int], m: list[int], p: int) -> list[int]:
    """a^-1 mod m by extended Euclid, with s1 <- s0 - q*s1 a full product and a difference."""
    r0, r1 = list(a), list(m)
    s0, s1 = [1], []
    while r1:
        q, r = loop_divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, pure.sub(s0, loop_mul(q, s1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return loop_divmod_poly(scalar_mul(s0, pow(r0[0], -1, p), p), m, p)[1]


def loop_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m, left to right, one schoolbook product and remainder per step."""
    if e < 0:
        a = loop_invmod(a, m, p)
        e = -e
    base = loop_divmod_poly(a, m, p)[1]
    result = loop_divmod_poly([1], m, p)[1]
    for bit in bin(e)[2:]:
        result = loop_divmod_poly(loop_mul(result, result, p), m, p)[1]
        if bit == "1":
            result = loop_divmod_poly(loop_mul(result, base, p), m, p)[1]
    return result


def loop_frobenius_matrix(m: list[int], q: int, p: int) -> list[list[int]]:
    """The rows x^(q*i) mod m, i < deg m, by the schoolbook loops, each padded to deg m entries."""
    n = len(m) - 1
    xq = loop_powmod([0, 1], q, m, p)
    rows = [[1], xq][:n]
    while len(rows) < n:
        rows.append(loop_divmod_poly(loop_mul(rows[-1], xq, p), m, p)[1])
    return [row + [0] * (n - len(row)) for row in rows]


# -- the Frobenius matrix row by row ----------------------------------------------
# ``field.kernels.frobenius_matrix`` forms x^q and every later row in one call;
# this is the body it replaced, x^q by one ``pow_mod`` and each later row as a
# ``Polynomial`` product and remainder.


def row_frobenius_matrix(xq: Polynomial, f: Polynomial) -> list[list]:
    """Rows x^(q*i) mod f for i < deg f, each padded to deg f entries; xq is x^q mod f and deg f >= 2."""
    powers = [Polynomial.one(f.field), xq]
    while len(powers) < f.degree:
        powers.append((powers[-1] * xq) % f)
    return [g._data + [f.field._zero] * (f.degree - len(g._data)) for g in powers]


# -- the route the cut Miller-Rabin replaced ------------------------------------


def is_prime_all_bases(n: int) -> bool:
    """Miller-Rabin to all 14 prime bases, the loop ``fields.is_prime`` cut to the bases n needs."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- the generic extended Euclid ``generic.invmod`` replaced ----------------------
# ``generic.invmod`` tracks only the cofactor of a; these are the full extended
# Euclid, which also built the cofactor t of the modulus, and the invmod on top
# of it, which reduced the monic cofactor mod m once more.


def generic_xgcd(a: list, b: list, ring) -> tuple[list, list, list]:
    """Monic g and s, t with s*a + t*b = g, on raw data over any ring."""
    r0, r1 = list(a), list(b)
    s0, s1 = [ring._one], []
    t0, t1 = [], [ring._one]
    while r1:
        q, r = generic.divmod_poly(r0, r1, ring)
        r0, r1 = r1, r
        s0, s1 = s1, generic.sub(s0, generic.mul(q, s1, ring), ring)
        t0, t1 = t1, generic.sub(t0, generic.mul(q, t1, ring), ring)
    if not r0:
        return [], s0, t0
    c = [ring._inv(r0[-1])]
    return generic.mul(r0, c, ring), generic.mul(s0, c, ring), generic.mul(t0, c, ring)


def xgcd_invmod(a: list, m: list, ring) -> list:
    g, s, _ = generic_xgcd(a, m, ring)
    if len(g) != 1:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return generic.divmod_poly(s, m, ring)[1]


def leibniz_det(a: list, ring):
    """det a on raw data over any commutative ring: the signed sum over all n! permutations."""
    n, det = len(a), ring._zero
    for perm in itertools.permutations(range(n)):
        term = ring._one
        for i, j in enumerate(perm):
            term = ring._mul(term, a[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        det = ring._sub(det, term) if inversions % 2 else ring._add(det, term)
    return det


# -- the printers and generic divisions the raw-data ones replaced ---------------
# ``Polynomial.to_string`` prints raw data through ``formatting.split_sign`` on
# (ring, data), ``ExtensionField._str`` writes its terms straight from the
# coordinates, ``ArtinianAlgebra._str`` joins its terms through
# ``formatting.format_terms``, and the generic kernels reduce in place
# (``generic._reduce``); these are the bodies they replaced, which boxed every
# coefficient, sorted the terms, joined signs in their own loop, and formed a
# fresh quotient and remainder per step.


# Q with negative fractions, F_p, table fields, a tuple field (F625), and an
# Artinian ring, whose nonzero non-units make leads that have no inverse
RAW_DATA_SPECS = ("Q", "F7", "F9", "F256", "F625", "F7[e,d]/(e^3,d^2)")


def earlier_term_string(coeff_str: str, var: str, exponent: int) -> str:
    """One product term, e.g. ('3', 'z', -1) -> '3*z^-1'."""
    if exponent == 0 or not var:
        return coeff_str
    if exponent == 1:
        var_part = var
    else:
        var_part = f"{var}^{exponent}"
    if coeff_str == "1":
        return var_part
    if any(ch in coeff_str for ch in " +-"):
        coeff_str = f"({coeff_str})"
    return f"{coeff_str}*{var_part}"


def earlier_format_terms(terms, var: str, descending: bool = False) -> str:
    """Join (coeff_str, is_negative, exponent) triples into an expression, sorted by exponent."""
    terms = sorted(terms, key=lambda t: t[2], reverse=descending)
    if not terms:
        return "0"
    parts = []
    for i, (coeff, neg, e) in enumerate(terms):
        body = earlier_term_string(coeff, var, e)
        if i == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def earlier_split_sign(elem) -> tuple[str, bool]:
    """String of |elem| and a negativity flag (rationals only; others positive)."""
    data = elem.data
    if isinstance(data, Fraction) and data < 0:
        return str(-data), True
    return str(elem), False


def earlier_poly_to_string(poly: Polynomial, var: str = "x") -> str:
    terms = []
    for i, c in enumerate(poly.coeffs):
        if c.is_zero():
            continue
        s, neg = earlier_split_sign(c)
        terms.append((s, neg, i))
    return earlier_format_terms(terms, var, descending=True)


def earlier_extension_str(field: ExtensionField, a) -> str:
    terms = [(str(c), False, i) for i, c in enumerate(field._canonical(a)) if c]
    return earlier_format_terms(terms, field.name, descending=True)


def earlier_artinian_str(ring: ArtinianAlgebra, a) -> str:
    """ArtinianAlgebra._str as its own loop: signs joined and coefficients parenthesized here."""
    parts = []
    for i in ring._str_order:
        if ring.base._is_zero(a[i]):
            continue
        mono = ring._monomial_str(ring._monomials[i])
        coeff, neg = earlier_split_sign(AlgebraElement(ring.base, a[i]))
        if mono:
            if coeff == "1":
                body = mono
            else:
                if any(ch in coeff for ch in " +-"):
                    coeff = f"({coeff})"
                body = f"{coeff}*{mono}"
        else:
            body = coeff
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts) or "0"


def earlier_divmod_poly(num: list, den: list, ring) -> tuple[list, list]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(num)
    dd = len(den) - 1
    if len(r) - 1 < dd:
        return [], r
    inv_lead = ring._inv(den[dd])
    q = [ring._zero] * (len(r) - dd)
    for k in range(len(r) - 1, dd - 1, -1):
        c = r[k]
        if not ring._is_zero(c):
            c = ring._mul(c, inv_lead)
            q[k - dd] = c
            for j in range(dd + 1):
                r[k - dd + j] = ring._sub(r[k - dd + j], ring._mul(c, den[j]))
    return generic._normalize(q, ring), generic._normalize(r, ring)


def earlier_monic(a: list, ring) -> list:
    return generic.mul(a, [ring._inv(a[-1])], ring) if a else []


def earlier_gcd(a: list, b: list, ring) -> list:
    while b:
        a, b = b, earlier_monic(earlier_divmod_poly(a, b, ring)[1], ring)
    return earlier_monic(a, ring)


def earlier_invmod(a: list, m: list, ring) -> list:
    r0, r1 = list(a), list(m)
    s0, s1 = [ring._one], []
    while r1:
        q, r = earlier_divmod_poly(r0, r1, ring)
        r0, r1 = r1, r
        s0, s1 = s1, generic.sub(s0, generic.mul(q, s1, ring), ring)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return generic.mul(s0, [ring._inv(r0[0])], ring)


def earlier_powmod(a: list, e: int, m: list, ring) -> list:
    if e < 0:
        a = earlier_invmod(a, m, ring)
        e = -e
    base = earlier_divmod_poly(a, m, ring)[1]
    result = earlier_divmod_poly([ring._one], m, ring)[1]
    for bit in bin(e)[2:]:
        result = earlier_divmod_poly(generic.mul(result, result, ring), m, ring)[1]
        if bit == "1":
            result = earlier_divmod_poly(generic.mul(result, base, ring), m, ring)[1]
    return result


# -- the finite-field factoring chain before one normalization per factorization ---
# ``poly_factor`` makes f monic once, returns a linear polynomial as its own
# factor and seeds its generator at the first split that draws; this is the
# chain it replaced, which seeds up front, runs every degree through all three
# stages and makes monic again what already is.


def earlier_poly_factor(f: Polynomial, rng: random.Random | None = None) -> Factorization:
    """f over a finite field factored by the earlier chain; rng defaults to a fresh one at ``factor.SEED``."""
    field = f.field
    lead = f.leading_coefficient()
    monic = f.monic()
    if monic.degree == 0:
        return Factorization(field, lead, ())
    if rng is None:
        rng = random.Random(factor.SEED)
    out = []
    for g, mult in _earlier_squarefree(monic):
        frobenius = factor._Frobenius(g)
        for h, d in _earlier_distinct_degree(g, frobenius):
            for irr in _earlier_equal_degree_split(h, d, rng, frobenius):
                out.append((irr, mult, True))
    out.sort(key=lambda t: t[0].sort_key())
    return Factorization(field, lead, tuple(out))


def _earlier_squarefree(f: Polynomial) -> list[tuple[Polynomial, int]]:
    field = f.field
    p = field.characteristic
    out: dict[int, Polynomial] = {}

    def accumulate(g: Polynomial, mult: int):
        if g.degree >= 1:
            out[mult] = out.get(mult, Polynomial.one(field)) * g

    def pth_root(g: Polynomial) -> Polynomial:
        return Polynomial(field, [factor._frobenius_root(g.coefficient(i), field) for i in range(0, g.degree + 1, p)])

    def helper(f: Polynomial, outer: int):
        d = f.derivative()
        if d.is_zero():
            helper(pth_root(f), outer * p)
            return
        c = f.gcd(d)
        if c.degree == 0:
            accumulate(f, outer)
            return
        w = f.exact_divide(c)
        i = 1
        while w.degree >= 1:
            y = w.gcd(c)
            accumulate(w.exact_divide(y), i * outer)
            w = y
            c = c.exact_divide(y)
            i += 1
        if c.degree >= 1:
            helper(pth_root(c), outer * p)

    helper(f.monic(), 1)
    return [(out[mult].monic(), mult) for mult in sorted(out)]


def _earlier_distinct_degree(f: Polynomial, frobenius) -> list[tuple[Polynomial, int]]:
    x = Polynomial.x(f.field)
    out, h, d, rest = [], None, 0, f
    while rest.degree > 2 * (d + 1) - 1:
        d += 1
        h = frobenius.xq() if h is None else frobenius(h)
        g = rest.gcd(h - x)
        if g.degree >= 1:
            out.append((g.monic(), d))
            rest = rest.exact_divide(g)
    if rest.degree >= 1:
        out.append((rest.monic(), rest.degree))
    return out


def _earlier_equal_degree_split(f: Polynomial, d: int, rng: random.Random, frobenius) -> list[Polynomial]:
    field = f.field
    q = field.order
    if f.degree == d:
        return [f.monic()]
    while True:
        r = Polynomial(field, [field.random_element(rng) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        if field.characteristic == 2:
            m = field.degree if isinstance(field, ExtensionField) else 1
            t = Polynomial.zero(field)
            power_ = r % f
            for _ in range(m * d):
                t = (t + power_) % f
                power_ = (power_ * power_) % f
            g = f.gcd(t)
        else:
            norm = image = r
            for _ in range(d - 1):
                image = frobenius(image) % f
                norm = (norm * image) % f
            g = f.gcd(norm.pow_mod((q - 1) // 2, f) - Polynomial.one(field))
        if 0 < g.degree < f.degree:
            left = _earlier_equal_degree_split(g.monic(), d, rng, frobenius)
            right = _earlier_equal_degree_split(f.exact_divide(g).monic(), d, rng, frobenius)
            return left + right


# -- the Contou-Carrère loops the symbol replaced ---------------------------------
# ``symbols._double_product`` skips the pairs whose powers vanish, and
# ``laurent._divide_by_peel`` divides by a peel factor by a first-order
# recurrence; these are the first bodies they replaced, which form every power
# and multiply by the whole geometric series, its leading 1 included.  The sum
# of shifts that came between is ``reference_divide_by_peel`` below.


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
        terms = [(*earlier_split_sign(self.coeffs[e]), e) for e in self.coeffs]
        if self.prec is None:
            return earlier_format_terms(terms, "z")
        return f"{earlier_format_terms(terms, 'z')} + O(z^{self.prec})" if terms else f"O(z^{self.prec})"


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
    target = max(target, 1)

    def powers(c: AlgebraElement) -> tuple:
        out = [c]
        while not (out[-1] * c).is_zero():
            out.append(out[-1] * c)
        return tuple(x.data for x in out)

    neg, work = [], f
    while any(e < 0 for e in work.coeffs):
        # one sweep: z^-1, z^-2, ... down to the lowest exponent, which the peels lower
        e = -1
        while e >= min(work.coeffs, default=0):
            if e in work.coeffs:
                c = work.coeffs[e]
                if is_unit(c):
                    raise DomainError("negative coefficient is not nilpotent; input outside the domain")
                neg.append((-e, -c))
                work = reference_divide_by_peel(work, e, -c)
                if work.prec is not None and work.prec < target:
                    raise PrecisionError(f"not enough precision to factorize to O(z^{target}): "
                                         f"the negative peels leave O(z^{work.prec})")
            e -= 1
    pos = []
    c0 = work.coefficient(0)
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

    prec_f, prec_g = (m - 1) ** 2 * deepest(g) + 1, (m - 1) ** 2 * deepest(f) + 1
    for name, s, needed in (("f", f, prec_f), ("g", g, prec_g)):
        if s.prec is not None and s.prec < needed:
            raise PrecisionError(f"{name} is known only to O(z^{s.prec}); the symbol reads it to O(z^{needed})")
    fac_f = reference_cc_factorize(f, prec_f)
    fac_g = reference_cc_factorize(g, prec_g)
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


def tree_parse(text: str, series_var: str | None = None):
    """The expression tree of text, by recursive descent over ``loop_tokenize``, with the library's errors.

    Nodes: ("num", n), ("name", word, column), ("neg", child), (op, left,
    right) for op in `+-*/`, ("^", base, e) and ("O", e).  The differential
    tests evaluate it with an evaluator of their own, so the oracle shares
    no code with the one-pass parser.
    """
    tokens = loop_tokenize(text)
    pos = 0

    def peek() -> str:
        return tokens[pos][1]

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1][1]

    def error(message: str):
        # at the end of the input, the column of the last token
        column = tokens[pos][2] if tokens[pos][0] != "EOF" else tokens[pos - 1][2] if pos else 1
        raise ExpressionError(message, column=column)

    def expect(word: str, kind: str):
        if peek() != word:
            error(f"expected {kind!r}")
        take()

    def expr():
        node = term()
        while peek() in ("+", "-"):
            node = (take(), node, term())
        return node

    def term():
        node = factor()
        while peek() in ("*", "/"):
            node = (take(), node, factor())
        return node

    def factor():
        if peek() in ("+", "-"):
            return ("neg", factor()) if take() == "-" else factor()
        node = atom()
        if peek() != "^":
            return node
        take()
        e = signed_int()
        if abs(e) > DEGREE_BUDGET:
            raise DomainError(f"exponent {e} is above the budget: |e| <= {DEGREE_BUDGET}")
        return ("^", node, e)

    def signed_int() -> int:
        if peek() == "(":
            take()
            value = signed_int()
            expect(")", "RPAREN")
            return value
        sign = -1 if peek() in ("+", "-") and take() == "-" else 1
        if tokens[pos][0] != "INT":
            error("expected an integer exponent")
        return sign * int(take())

    def atom():
        kind, word, column = tokens[pos]
        if kind == "INT":
            take()
            return ("num", int(word))
        if kind == "NAME":
            take()
            return big_o() if word == "O" and series_var is not None else ("name", word, column)
        if kind == "LPAREN":
            take()
            node = expr()
            expect(")", "RPAREN")
            return node
        error("unexpected end of input" if kind == "EOF" else f"unexpected {word!r}")

    def big_o():
        expect("(", "LPAREN")
        if tokens[pos][0] != "NAME":
            error("expected 'NAME'")
        if take() != series_var:
            error(f"precision marker must use {series_var!r}")
        e = 1
        if peek() == "^":
            take()
            e = signed_int()
        expect(")", "RPAREN")
        return ("O", e)

    node = expr()
    if tokens[pos][0] != "EOF":
        error(f"unexpected {peek()!r}")
    return node


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
    """n x n raw entries, from -4..4 over Q and uniform over other rings."""

    def entry():
        if ring == QQ:
            return ring.from_int(rng.randint(-4, 4)).data
        return ring.random_element(rng).data

    return [[entry() for _ in range(n)] for _ in range(n)]


def random_block_operator(rng: random.Random, ring, wneg: int, wpos: int,
                          invertible_delta: bool = True) -> BlockOperator:
    while True:
        alpha = random_matrix(rng, ring, wneg)
        delta = random_matrix(rng, ring, wpos)
        beta = [[ring.random_element(rng).data for _ in range(wpos)] for _ in range(wneg)]
        gamma = [[ring.random_element(rng).data for _ in range(wneg)] for _ in range(wpos)]
        op = BlockOperator(ring, wneg, wpos, alpha, beta, gamma, delta)
        if not invertible_delta:
            return op
        try:
            if is_unit(mat_det(delta, ring)):
                return op
        except NonUnitError:
            pass
