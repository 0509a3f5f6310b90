"""Local pairings on the field of Laurent series.

Multiplicative side: the unsigned commutator Norm((S^{v(T)}/T^{v(S)})(0)),
its signed tame-symbol variant, and the Contou-Carrère symbol over an
Artinian coefficient ring.  The sign (-1)^{v(S)v(T)[k':k]} is deliberately
NOT part of the unsigned commutator; the tame symbol folds it in the way
the classical formula does.

Additive side: residues of alpha d(beta) by three independent routes --
the z^{-1} coefficient, the block-operator trace tr(gamma_2 beta_1 -
gamma_1 beta_2) on a stability-checked window, and extraction from the
Contou-Carrère symbol over dual numbers.  All three agree exactly; the
tests and the acceptance suite enforce it.

The Gelfand-Fuchs cocycle tr res tr_matrix(A dB) on matrix loop algebras
closes the list.
"""

from __future__ import annotations

from math import gcd

from .artinian import ArtinianAlgebra, dual_coefficient, dual_numbers
from .blockops import lie_cocycle, multiplication_operator
from .errors import DomainError, WindowError
from .fields import AlgebraElement, BaseField, lift
from .laurent import LaurentSeries, cc_factorize
from .norms import algebra_norm, algebra_trace, relative_norm

SymbolValue = AlgebraElement

# largest Tate-residue window: building the operators and the two block
# traces costs O(window^2), about 0.1 s at 256 over Q with 129 terms per
# input (pure backend, one Xeon core)
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
    products are finite because negative peel coefficients are nilpotent
    and positive ones lie in the maximal ideal, whose nilpotency order
    bounds the contributing exponents.
    """
    ring = f.ring
    if not isinstance(ring, ArtinianAlgebra) or g.ring != ring:
        raise DomainError("the symbol needs two series over one Artinian ring")
    if base is None:
        base = ring.base
    m_nil = ring.nil_index
    # positive factors of one argument pair against negative factors of the
    # other; peeling can push negative support down to nil_index * initial
    prec_f = max(2, m_nil * max(-g.offset, 0) * (m_nil - 1) + 2)
    prec_g = max(2, m_nil * max(-f.offset, 0) * (m_nil - 1) + 2)
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


def tate_residue(f1: LaurentSeries, f2: LaurentSeries, window: int) -> SymbolValue:
    """res f1 df2 as the block trace tr(gamma_2 beta_1 - gamma_1 beta_2).

    The multiplication operators of f1, f2 are restricted to the window
    z^{-window}..z^{window}; the window must be at least the larger pole
    order plus the larger polynomial degree of the two inputs, and at most
    WINDOW_BUDGET.  The value is recomputed at window+5 and must agree
    (window independence).
    """
    if window > WINDOW_BUDGET:
        raise DomainError(f"window {window} is above the budget: window <= {WINDOW_BUDGET}")
    if not (f1.is_exact() and f2.is_exact()):
        raise DomainError("Tate residues need exact Laurent polynomials")
    if f1.ring != f2.ring:
        raise DomainError("series live over different rings")

    def bound(series: LaurentSeries) -> tuple[int, int]:
        return max(0, -series.offset), max(0, series.offset + len(series.data) - 1)

    p1, d1 = bound(f1)
    p2, d2 = bound(f2)
    needed = max(p1, p2) + max(d1, d2)
    if window < needed:
        raise WindowError(f"window {window} is below the required bound {needed}")

    def value_at(w: int) -> AlgebraElement:
        op1 = multiplication_operator(f1, w, w + 1)
        op2 = multiplication_operator(f2, w, w + 1)
        return lie_cocycle(op1, op2)

    first = value_at(window)
    second = value_at(window + 5)
    if first != second:
        raise AssertionError("Tate residue failed window stability")
    return first


class LoopMatrix:
    """A square matrix of Laurent series."""

    __slots__ = ("ring", "n", "entries")

    def __init__(self, ring, entries):
        self.ring = ring
        self.n = len(entries)
        for row in entries:
            if len(row) != self.n:
                raise DomainError("loop matrices must be square")
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def from_tensor(cls, s, alpha: LaurentSeries) -> "LoopMatrix":
        """The pure tensor S (x) alpha: entry (i, j) is alpha * S[i][j]."""
        ring = alpha.ring
        return cls(ring, [[alpha * ring.coerce(c) for c in row] for row in s])

    def derivative(self) -> "LoopMatrix":
        return LoopMatrix(self.ring, [[c.derivative() for c in row] for row in self.entries])


def gelfand_fuchs_cocycle(A: LoopMatrix, B: LoopMatrix, base: BaseField | None = None) -> SymbolValue:
    """tr_{k'/base} res tr_matrix(A dB); equals tr(ST) res(alpha d beta) on tensors.

    Only the diagonal of A dB enters the trace: sum_i sum_t A[i][t] dB[t][i],
    n^2 series products.
    """
    if A.n != B.n or A.ring != B.ring:
        raise DomainError("loop matrices must match in size and ring")
    ring = A.ring
    if base is None:
        base = ring if isinstance(ring, BaseField) else ring.base
    dB = B.derivative().entries
    t = LaurentSeries.zero(ring)
    for i, row in enumerate(A.entries):
        for a, db in zip(row, dB):
            t = t + a * db[i]
    return algebra_trace(t.coefficient(-1), base)
