"""Finite-window operators on the polarized space V = V^- (+) V^+.

The window keeps basis exponents z^{-wneg}..z^{-1} (V^-) and z^0..z^{wpos-1}
(V^+), both ordered by ascending exponent; outside the window an operator is
the identity by contract.  An operator is stored through its four blocks

    alpha: V^- -> V^-     beta:  V^+ -> V^-
    gamma: V^- -> V^+     delta: V^+ -> V^+

each a list of rows of the ring's raw data, as every matrix of
:mod:`reciprocity.norms` is; only a cocycle value is boxed as an element.
The determinant 2-cocycle of a pair with invertible delta blocks is
det(delta_1 delta_2 (gamma_1 beta_2 + delta_1 delta_2)^{-1}), computed as
det(delta_1 delta_2) / det(gamma_1 beta_2 + delta_1 delta_2).  Its ratio in
the two orders (``cocycle_commutator``) is defined for every pair in the
cocycle domain.  For commuting operators, such as two multiplication
operators, it is the commutator of their lifts to the determinant central
extension; for a pair that does not commute it is only that ratio.  Over
dual numbers it gives the Lie cocycle (``lie_cocycle_dual``).  The additive
(Lie) cocycle is tr(gamma_2 beta_1) - tr(gamma_1 beta_2), each trace summed
term by term without forming the product.  The multiplication operator of a
Laurent polynomial is Toeplitz: every row of every block is a slice of one
list of its raw coefficients.  Its gamma block (z^c -> z^r, c < 0 <= r) holds
the coefficient of z^(r - c), which is zero once r - c exceeds the degree,
and its beta block is zero once c - r exceeds the pole order; so the nonzero
cells of each sit in the corner triangle next to the split of the window, of
side the degree for gamma and the pole order for beta.  An operator records
both sides (``deg`` and ``pole``); one built from bare blocks records its
whole window.  A trace then reads only the triangle both blocks can be
nonzero on, and costs O(min(deg_2, pole_1)^2) cells however large the
window.  Correctness of the identity-tail model is a window stability
statement: all outputs are unchanged once the window reaches the support
bounds (``support_bound``), which the tests assert by recomputing on larger
windows.
"""

from __future__ import annotations

from .artinian import ArtinianAlgebra, dual_coefficient, dual_numbers
from .errors import DomainError, NonUnitError, WindowError
from .fields import AlgebraElement, BaseField, CoefficientRing, lift
from .laurent import LaurentSeries
from .norms import mat_det, mat_mul

SymbolValue = AlgebraElement


class BlockOperator:
    """An operator on the window through its four blocks.

    ``deg`` and ``pole`` bound where gamma and beta can be nonzero: gamma
    only at cells (i, j) with i + (wneg - 1 - j) < deg, beta only at cells
    (j, i) with the same sum below pole, both counted from the corner next
    to the split.  They default to the whole window.
    """

    __slots__ = ("ring", "wneg", "wpos", "alpha", "beta", "gamma", "delta", "deg", "pole")

    def __init__(self, ring: CoefficientRing, wneg: int, wpos: int, alpha, beta, gamma, delta,
                 deg: int | None = None, pole: int | None = None):
        if len(alpha) != wneg or len(delta) != wpos:
            raise WindowError("block shapes do not match the window")
        if any(len(r) != wneg for r in alpha) or any(len(r) != wpos for r in beta):
            raise WindowError("block shapes do not match the window")
        if any(len(r) != wneg for r in gamma) or any(len(r) != wpos for r in delta):
            raise WindowError("block shapes do not match the window")
        self.ring = ring
        self.wneg = wneg
        self.wpos = wpos
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.delta = delta
        self.deg = wneg + wpos if deg is None else deg
        self.pole = wneg + wpos if pole is None else pole

    @property
    def window(self) -> tuple[int, int]:
        return (self.wneg, self.wpos)

    def assemble(self):
        """Full matrix on basis [z^-wneg .. z^-1, z^0 .. z^{wpos-1}]."""
        top = [list(ra) + list(rb) for ra, rb in zip(self.alpha, self.beta)]
        bottom = [list(rg) + list(rd) for rg, rd in zip(self.gamma, self.delta)]
        return top + bottom

    def lift_dual(self, target: ArtinianAlgebra, eps: AlgebraElement) -> "BlockOperator":
        """1 + eps * self, over the Artinian ring `target`."""
        ring, mul, add, e = self.ring, target._mul, target._add, eps.data

        def lifted(block, one=False):
            rows = [[mul(lift(AlgebraElement(ring, c), target).data, e) for c in row] for row in block]
            for i in range(len(rows) if one else 0):
                rows[i][i] = add(target._one, rows[i][i])
            return rows

        return BlockOperator(target, self.wneg, self.wpos, lifted(self.alpha, True), lifted(self.beta),
                             lifted(self.gamma), lifted(self.delta, True))

    def __eq__(self, other):
        if not isinstance(other, BlockOperator):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.window == other.window
            and self.assemble() == other.assemble()
        )

    def __repr__(self):
        return f"BlockOperator(window=({self.wneg},{self.wpos}), ring={self.ring!r})"


def support_bound(f: LaurentSeries) -> tuple[int, int]:
    """(pole order, degree) of f, both at least 0: the sides of its operator's beta and gamma triangles."""
    return max(0, -f.offset), max(0, f.offset + len(f.data) - 1)


def multiplication_operator(f: LaurentSeries, wneg: int, wpos: int) -> BlockOperator:
    """Window matrix of multiplication by an exact Laurent polynomial."""
    if not f.is_exact():
        raise DomainError("multiplication operators need exact (finite) Laurent polynomials")
    ring = f.ring
    pole, deg = support_bound(f)
    if wneg < pole + deg or wpos < pole + deg:
        raise WindowError(
            f"window ({wneg},{wpos}) is below the support bound {pole + deg} of the multiplier"
        )
    n, data, zero = wneg + wpos, f.data, ring._zero
    # line[k] is the raw coefficient of z^(n - 1 - k), so the row of exponent
    # r, entries z^(r - c) for c = -wneg .. wpos - 1, starts at k = wpos - 1 - r,
    # and its part in each block is one slice of the line
    line = [data[i] if 0 <= (i := e - f.offset) < len(data) else zero for e in range(n - 1, -n, -1)]
    neg_rows, pos_rows = range(wpos + wneg - 1, wpos - 1, -1), range(wpos - 1, -1, -1)
    alpha = [line[k:k + wneg] for k in neg_rows]
    beta = [line[k + wneg:k + n] for k in neg_rows]
    gamma = [line[k:k + wneg] for k in pos_rows]
    delta = [line[k + wneg:k + n] for k in pos_rows]
    return BlockOperator(ring, wneg, wpos, alpha, beta, gamma, delta, deg, pole)


def cocycle_det(s1: BlockOperator, s2: BlockOperator) -> SymbolValue:
    """det(delta_1 delta_2 (gamma_1 beta_2 + delta_1 delta_2)^{-1}).

    The determinant is multiplicative over a commutative ring, so this is
    det(delta_1 delta_2) / det(gamma_1 beta_2 + delta_1 delta_2), and no
    matrix is inverted.  Raises ``NonUnitError`` when the denominator is
    not a unit.
    """
    if s1.window != s2.window or s1.ring != s2.ring:
        raise WindowError("operators live on different windows")
    ring = s1.ring
    d1d2 = mat_mul(s1.delta, s2.delta, ring)
    # gamma_1 beta_2 has inner dimension wneg; with wneg = 0 it is the zero block,
    # which a matrix product with no inner terms cannot shape
    d3 = [list(map(ring._add, g, d)) for g, d in zip(mat_mul(s1.gamma, s2.beta, ring), d1d2)] if s1.wneg else d1d2
    # mat_det is total, so a singular d3 comes back as a non-unit whose inverse raises
    try:
        inv_det3 = mat_det(d3, ring).inverse()
    except NonUnitError:
        raise NonUnitError(
            "gamma_1 beta_2 + delta_1 delta_2 is singular: the pair left the cocycle domain"
        ) from None
    return mat_det(d1d2, ring) * inv_det3


def cocycle_commutator(s: BlockOperator, t: BlockOperator) -> SymbolValue:
    """c(S,T)/c(T,S), the ratio of the determinant cocycle in the two orders.

    When S and T commute, as two multiplication operators do, this is the
    commutator of their lifts to the determinant central extension.  For a
    pair that does not commute it is still defined, but is no commutator.
    ``cocycle_det`` raises ``WindowError`` for operators on different windows
    and ``NonUnitError`` for a pair outside the cocycle domain.
    """
    return cocycle_det(s, t) * cocycle_det(t, s).inverse()


def _corner_trace(gamma, beta, side: int, ring: CoefficientRing):
    """Raw tr(gamma beta) summed over the corner triangle i + (wneg - 1 - j) < side only.

    gamma is wpos x wneg and beta wneg x wpos, both raw; the cells outside
    the triangle are zero in one of the two factors.
    """
    add, mul, is_zero = ring._add, ring._mul, ring._is_zero
    last = len(beta) - 1
    t = ring._zero
    for i in range(min(side, len(gamma))):
        row = gamma[i]
        for j in range(last, max(last - (side - i), -1), -1):
            x, y = row[j], beta[j][i]
            if not is_zero(x) and not is_zero(y):
                t = add(t, mul(x, y))
    return t


def lie_cocycle(s1: BlockOperator, s2: BlockOperator) -> SymbolValue:
    """tr(gamma_2 beta_1 - gamma_1 beta_2), each trace read on its corner triangle (``_corner_trace``).

    gamma_2 beta_1 can be nonzero only where both triangles are, of side
    min(deg_2, pole_1); the mirror term has side min(deg_1, pole_2).
    """
    if s1.window != s2.window or s1.ring != s2.ring:
        raise WindowError("operators live on different windows")
    ring = s1.ring
    t = ring._sub(_corner_trace(s2.gamma, s1.beta, min(s2.deg, s1.pole), ring),
                  _corner_trace(s1.gamma, s2.beta, min(s1.deg, s2.pole), ring))
    return AlgebraElement(ring, t)


def lie_cocycle_dual(s1: BlockOperator, s2: BlockOperator) -> SymbolValue:
    """The same cocycle extracted from the determinant cocycle over dual numbers.

    Lifts to 1 + eps_i S_i over k[e1,e2]/(e1^2,e2^2), forms their cocycle
    ratio (``cocycle_commutator``), and reads off the e1*e2 coordinate.
    """
    ring = s1.ring
    if not isinstance(ring, BaseField):
        raise DomainError("dual-number extraction needs operators over a field")
    d = dual_numbers(ring)
    e1, e2 = d.generator(0), d.generator(1)
    ratio = cocycle_commutator(s1.lift_dual(d, e1), s2.lift_dual(d, e2))
    return dual_coefficient(ratio, "dual commutator ratio")
