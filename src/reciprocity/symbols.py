"""Local pairings on the field of Laurent series.

Multiplicative side: the unsigned commutator Norm((S^{v(T)}/T^{v(S)})(0)),
its signed tame-symbol variant, and the Contou-Carrère symbol over an
Artinian coefficient ring.  The sign (-1)^{v(S)v(T)[k':k]} is deliberately
NOT part of the unsigned commutator; the tame symbol folds it in the way
the classical formula does.

Additive side: residues of alpha d(beta) by three independent routes --
the z^{-1} coefficient, the block-operator trace tr(gamma_2 beta_1 -
gamma_1 beta_2) on one window at or above the support bound, and
extraction from the Contou-Carrère symbol over dual numbers.  All three
agree exactly, at every admissible window; the tests enforce it.

The Gelfand-Fuchs cocycle tr res tr_matrix(A dB) on matrix loop algebras
closes the list.
"""

from __future__ import annotations

from math import gcd

from .artinian import ArtinianAlgebra, dual_coefficient, dual_numbers
from .blockops import lie_cocycle, multiplication_operator, support_bound
from .errors import DomainError, PrecisionError, WindowError
from .fields import AlgebraElement, BaseField, lift
from .laurent import LaurentSeries, cc_factorize, product_precision
from .norms import algebra_norm, algebra_trace, relative_norm

SymbolValue = AlgebraElement

# largest Tate-residue window: building the operators slices O(window^2)
# cells, and the two block traces read only their corner triangles, about
# 0.05 s at 256 over Q with 129 terms per input (pure backend, one x86-64
# core)
WINDOW_BUDGET = 256


def local_commutator(S: LaurentSeries, T: LaurentSeries, base: BaseField) -> SymbolValue:
    """Norm_{k'/base}((S^{v(T)} / T^{v(S)})(0)); carries no sign.

    Only the valuations and leading coefficients of S and T enter.
    """
    if S.ring != T.ring or not isinstance(S.ring, BaseField):
        raise DomainError("both series must be units over one coefficient field")
    vS, lS = S.leading_term()
    vT, lT = T.leading_term()
    return algebra_norm(lS**vT * lT ** (-vS), base)


def tame_symbol(f: LaurentSeries, g: LaurentSeries, base: BaseField) -> SymbolValue:
    """(-1)^{v(f)v(g)[k':base]} Norm_{k'/base}((f^{v(g)}/g^{v(f)})(0))."""
    unsigned = local_commutator(f, g, base)
    d = f.ring.extension_degree_over(base)
    exponent = f.valuation() * g.valuation() * d
    if exponent % 2:
        return -unsigned
    return unsigned


def contou_carrere_symbol(
    f: LaurentSeries, g: LaurentSeries, base: BaseField | None = None
) -> SymbolValue:
    """The symbol <f, g> of two principal units over an Artinian ring.

    Returns Norm along the residue-field part of the ratio of double
    products prod(1 - a_i^{j/(i,j)} bbar_j^{i/(i,j)})^{(i,j)} over the
    analogous product with the roles swapped; (i,j) is the gcd.  The
    products are finite, and read f to O(z^((m - 1)^2 P + 1)) with m =
    nil_index and P the pole order of g (g likewise): a product of m
    elements of the maximal ideal is 0, so a term the peels of g reach sums
    at most m - 1 of g's exponents and g's negative factors j are at most
    (m - 1) P; ``_double_product`` pairs f's positive factor i with j only
    if i / gcd(i, j) <= m - 1, the most powers a nilpotent has, so
    i <= (m - 1)^2 P.  An input known to less raises ``PrecisionError``.
    """
    ring = f.ring
    if not isinstance(ring, ArtinianAlgebra) or g.ring != ring:
        raise DomainError("the symbol needs two series over one Artinian ring")
    if base is None:
        base = ring.base
    m_nil = ring.nil_index
    prec_f = (m_nil - 1) ** 2 * max(-g.offset, 0) + 1
    prec_g = (m_nil - 1) ** 2 * max(-f.offset, 0) + 1
    for name, s, needed in (("f", f, prec_f), ("g", g, prec_g)):
        if s.prec is not None and s.prec < needed:
            raise PrecisionError(f"{name} is known only to O(z^{s.prec}); the symbol reads it to O(z^{needed})")
    fac_f = cc_factorize(f, prec_f)
    fac_g = cc_factorize(g, prec_g)

    numerator = _double_product(ring, fac_f, fac_g)
    denominator = _double_product(ring, fac_g, fac_f)
    value = numerator * denominator.inverse()
    return relative_norm(value, base)


def _double_product(ring: ArtinianAlgebra, fac_a, fac_b) -> AlgebraElement:
    """prod over i, j > 0 of (1 - a_i^(j/d) b_j^(i/d))^d, d = gcd(i, j).

    a_i runs over the positive factors of fac_a and b_j over the negative
    factors of fac_b, with the powers their factorizations keep.  A factor
    whose power of a_i or b_j is past the last nonzero one is 1, and is
    skipped before any product is formed.  The products run on raw data.
    """
    mul, is_zero, acc = ring._mul, ring._is_zero, ring._one
    neg_powers = [(j, powers) for (j, _), powers in zip(fac_b.neg, fac_b.neg_powers)]
    for (i, _), a_powers in zip(fac_a.pos, fac_a.pos_powers):
        if i == 0:
            continue
        for j, b_powers in neg_powers:
            d = gcd(i, j)
            x, y = j // d, i // d
            if x > len(a_powers) or y > len(b_powers):
                continue
            t = mul(a_powers[x - 1], b_powers[y - 1])
            if not is_zero(t):
                factor = ring._sub(ring._one, t)
                for _ in range(d):
                    acc = mul(acc, factor)
    return AlgebraElement(ring, acc)


def residue_from_dual_symbol(
    alpha: LaurentSeries, beta: LaurentSeries, base: BaseField | None = None
) -> SymbolValue:
    """tr res(alpha d beta), extracted from <1 + e1 alpha, 1 + e2 beta>.

    The symbol over k'[e1,e2]/(e1^2,e2^2) is 1 + e1 e2 c; c is returned and
    must equal tr_{k'/base} of the z^{-1} coefficient of alpha d(beta).
    """
    ring = alpha.ring
    if not isinstance(ring, BaseField) or beta.ring != ring:
        raise DomainError("dual-number residue needs series over one field")
    if base is None:
        base = ring
    duals = dual_numbers(ring)
    e1, e2 = duals.generator(0), duals.generator(1)
    f = LaurentSeries.one(duals) + alpha.map_coefficients(lambda c: lift(c, duals) * e1, duals)
    g = LaurentSeries.one(duals) + beta.map_coefficients(lambda c: lift(c, duals) * e2, duals)
    return dual_coefficient(contou_carrere_symbol(f, g, base), "dual symbol")


def residue_coefficient(
    alpha: LaurentSeries, beta: LaurentSeries, base: BaseField | None = None
) -> SymbolValue:
    """tr_{k'/base} of the z^{-1} coefficient of alpha * d(beta)/dz."""
    ring = alpha.ring
    if beta.ring != ring:
        raise DomainError("series live over different rings")
    if base is None:
        base = ring if isinstance(ring, BaseField) else ring.base
    h = alpha * beta.derivative()
    c = h.coefficient(-1)
    return algebra_trace(c, base)


def tate_window(f1: LaurentSeries, f2: LaurentSeries) -> int:
    """The least window ``tate_residue`` takes: the larger pole order plus the larger degree of f1, f2."""
    (p1, d1), (p2, d2) = support_bound(f1), support_bound(f2)
    return max(p1, p2) + max(d1, d2)


def tate_residue(f1: LaurentSeries, f2: LaurentSeries, window: int) -> SymbolValue:
    """res f1 df2 as the block trace tr(gamma_2 beta_1 - gamma_1 beta_2), one ``lie_cocycle``.

    The multiplication operators of f1, f2 are restricted to the window
    z^{-window}..z^{window}; the window runs from ``tate_window`` of the
    inputs to WINDOW_BUDGET.  The traces read the same cells at every such
    window, so the value does not depend on it; the tests check this.
    """
    if window > WINDOW_BUDGET:
        raise DomainError(f"window {window} is above the budget: window <= {WINDOW_BUDGET}")
    if not (f1.is_exact() and f2.is_exact()):
        raise DomainError("Tate residues need exact Laurent polynomials")
    if f1.ring != f2.ring:
        raise DomainError("series live over different rings")
    needed = tate_window(f1, f2)
    if window < needed:
        raise WindowError(f"window {window} is below the required bound {needed}")
    return lie_cocycle(multiplication_operator(f1, window, window + 1),
                       multiplication_operator(f2, window, window + 1))


class LoopMatrix:
    """A square matrix of Laurent series over one ring."""

    __slots__ = ("ring", "n", "entries")

    def __init__(self, ring, entries):
        self.ring = ring
        self.n = len(entries)
        for row in entries:
            if len(row) != self.n:
                raise DomainError("loop matrices must be square")
            if any(c.ring is not ring and c.ring != ring for c in row):
                raise DomainError("series live over different coefficient rings")
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def from_tensor(cls, s, alpha: LaurentSeries) -> "LoopMatrix":
        """The pure tensor S (x) alpha: entry (i, j) is alpha * S[i][j]; S must be square."""
        ring = alpha.ring
        s = [[ring.coerce(c).data for c in row] for row in s]
        if any(len(row) != len(s) for row in s):
            raise DomainError("loop matrices must be square")
        return cls._tensor(s, alpha)

    @classmethod
    def _tensor(cls, s, alpha: LaurentSeries) -> "LoopMatrix":
        """S (x) alpha for a square S of raw data over alpha's ring, which is not checked again.

        Each entry scales alpha's raw coefficients, one ``_mul`` each; a zero
        S[i][j] gives the exact zero series, as ``alpha * 0`` does.
        """
        ring = alpha.ring
        mul, data = ring._mul, alpha.data
        zero = LaurentSeries.zero(ring)

        def scaled(c):
            if ring._is_zero(c):
                return zero
            return LaurentSeries._from_raw(ring, alpha.offset, [mul(x, c) for x in data], alpha.prec)

        out = object.__new__(cls)
        out.ring, out.n = ring, len(s)
        out.entries = tuple(tuple(scaled(c) for c in row) for row in s)
        return out


def _derivative_low(b: LaurentSeries, char: int) -> int | None:
    """``low`` of b.derivative(), read off b's data; None when that derivative is the exact zero.

    The derivative's coefficient of z^(e - 1) is e b_e, zero exactly where
    b_e is or the characteristic divides e.
    """
    is_zero = b.ring._is_zero
    for i, c in enumerate(b.data):
        e = b.offset + i
        if (e % char if char else e) and not is_zero(c):
            return e - 1
    return None if b.prec is None else b.prec - 1


def _pair_precision(a: LaurentSeries, b: LaurentSeries, char: int) -> int | None:
    """The precision of a * b.derivative(), by ``product_precision`` on a and the derivative's low end.

    None when the product is exact, the exact zero included.
    """
    if not a.data and a.prec is None:
        return None
    low = _derivative_low(b, char)
    if low is None:
        return None
    return product_precision(a.low, a.prec, low, None if b.prec is None else b.prec - 1)


def gelfand_fuchs_cocycle(A: LoopMatrix, B: LoopMatrix, base: BaseField | None = None) -> SymbolValue:
    """tr_{k'/base} res tr_matrix(A dB); equals tr(ST) res(alpha d beta) on tensors.

    Only the diagonal of A dB enters the trace, and of it only the z^-1
    coefficient: sum over i, t of sum_e e a_(-e) b_e, with a = A[i][t] and
    b = B[t][i], one dot product on raw data per entry pair.  No derivative,
    product or sum of series is formed.  A pair whose product a dB[t][i]
    would be known only below z^-1 raises the PrecisionError the product
    route raises, with the precision of the whole sum in its message.
    """
    if A.n != B.n or A.ring != B.ring:
        raise DomainError("loop matrices must match in size and ring")
    ring = A.ring
    if base is None:
        base = ring if isinstance(ring, BaseField) else ring.base
    add, mul, char = ring._add, ring._mul, ring.characteristic
    prec, total = None, ring._zero
    scalars = {}  # e -> the raw data of the integer e
    for i, row in enumerate(A.entries):
        for a, b_row in zip(row, B.entries):
            b = b_row[i]
            p = _pair_precision(a, b, char)
            if p is not None and (prec is None or p < prec):
                prec = p
            x, y = a.data, b.data
            # e runs where both b_e and a_(-e) are stored
            for e in range(max(b.offset, 1 - a.offset - len(x)), min(b.offset + len(y), 1 - a.offset)):
                if e % char if char else e:
                    s = scalars.get(e)
                    if s is None:
                        s = scalars[e] = ring.from_int(e).data
                    total = add(total, mul(mul(x[-e - a.offset], y[e - b.offset]), s))
    if prec is not None and prec <= -1:
        raise PrecisionError(f"coefficient of z^-1 is beyond the tracked precision O(z^{prec})")
    return algebra_trace(AlgebraElement(ring, total), base)
