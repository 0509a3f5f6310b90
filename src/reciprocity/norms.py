"""Norms, traces and exact linear algebra over the coefficient towers.

The norm (resp. trace) of r over a subfield k is the determinant (resp.
trace) of the k-linear multiplication-by-r map on its parent ring.  Both are
computed from explicit multiplication matrices; nothing here uses Frobenius
shortcuts, which stay available to the tests as an independent oracle.  The
relative norm along the field part of an Artinian ring is likewise the
determinant of one matrix, of multiplication over the Artinian ring with the
same generators over the smaller field.  Extension-field and Artinian
coordinates are read and built only through the ring's own ``coordinates``
and ``from_coordinates`` (see :mod:`reciprocity.fields` and
:mod:`reciprocity.artinian`).

A matrix is a list of rows of the ring's raw data; only a determinant or a
trace is boxed as an element.  ``mat_mul`` and ``mat_det`` are one call each
to the ring's kernels (see :mod:`reciprocity.fields`): Gaussian elimination
modulo p over F_p, and the generic elimination of
:mod:`reciprocity._kernels.generic` elsewhere, which pivots on units and
finishes a block with no unit pivot by a division-free determinant, so the
determinant of a matrix over a local ring is exact, a non-unit included.
"""

from __future__ import annotations

from functools import reduce

from .artinian import ArtinianAlgebra
from .errors import TowerError
from .fields import AlgebraElement, BaseField, CoefficientRing, ExtensionField


# -- vector space structure over a subfield ---------------------------------


def vector_basis(ring: CoefficientRing, over: BaseField) -> list[AlgebraElement]:
    """Basis of ring as a vector space over the subfield `over`."""
    if ring == over:
        return [over.one()]
    if isinstance(ring, ExtensionField) and over == ring.base:
        return [ring.from_coordinates([0] * i + [1]) for i in range(ring.degree)]
    if isinstance(ring, ArtinianAlgebra):
        inner = vector_basis(ring.base, over)
        return [m * ring.embed_from_below(b) for m in ring.basis() for b in inner]
    raise TowerError(f"{ring!r} is not an algebra over {over!r}")


def coordinates(elem: AlgebraElement, over: BaseField) -> list[AlgebraElement]:
    """Coordinates of elem w.r.t. vector_basis(elem.ring, over)."""
    ring = elem.ring
    if ring == over:
        return [elem]
    if isinstance(ring, ExtensionField) and over == ring.base:
        return ring.coordinates(elem)
    if isinstance(ring, ArtinianAlgebra):
        return [x for c in ring.coordinates(elem) for x in coordinates(c, over)]
    raise TowerError(f"{ring!r} is not an algebra over {over!r}")


def multiplication_matrix(r: AlgebraElement, over: BaseField) -> list[list]:
    """Raw matrix of x -> r*x on r's parent ring, over the subfield `over`."""
    basis = vector_basis(r.ring, over)
    cols = [[c.data for c in coordinates(r * b, over)] for b in basis]
    n = len(basis)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# -- matrix helpers ----------------------------------------------------------


def mat_mul(a: list[list], b: list[list], ring: CoefficientRing) -> list[list]:
    """a b of raw matrices, as a raw matrix."""
    return ring.kernels.mat_mul(a, b, ring.kernel_arg)


def mat_det(a: list[list], ring: CoefficientRing) -> AlgebraElement:
    """Determinant of a raw matrix over a field or a local ring."""
    return AlgebraElement(ring, ring.kernels.mat_det(a, ring.kernel_arg))


# -- norms and traces --------------------------------------------------------


def algebra_norm(r: AlgebraElement, over: BaseField) -> AlgebraElement:
    """det of multiplication-by-r on its parent, as an element of `over`."""
    if r.ring == over:
        return r
    return mat_det(multiplication_matrix(r, over), over)


def algebra_trace(r: AlgebraElement, over: BaseField) -> AlgebraElement:
    """trace of multiplication-by-r on its parent, as an element of `over`."""
    if r.ring == over:
        return r
    m = multiplication_matrix(r, over)
    return AlgebraElement(over, reduce(over._add, (m[i][i] for i in range(len(m))), over._zero))


# -- relative norm along the residue-field part ------------------------------


def relative_norm(elem: AlgebraElement, down_to: BaseField) -> AlgebraElement:
    """Norm along the field part of the coefficient ring, keeping nilpotents.

    For elem in A = k'[e..]/(..) with k' an extension of `down_to`, this is
    the determinant over A0 = down_to[e..]/(..) of multiplication by elem on
    A as a free A0-module with basis vector_basis(k', down_to).  For plain
    field elements it reduces to algebra_norm.
    """
    ring = elem.ring
    if isinstance(ring, BaseField):
        return algebra_norm(elem, down_to)
    if not isinstance(ring, ArtinianAlgebra):
        raise TowerError(f"unsupported ring {ring!r}")
    kprime = ring.base
    kprime.extension_degree_over(down_to)  # TowerError unless k' is down_to or above it
    target = ring if kprime == down_to else ArtinianAlgebra(down_to, ring.generators)
    cols = []
    for b in vector_basis(kprime, down_to):
        parts = [coordinates(c, down_to) for c in ring.coordinates(elem * ring.embed_from_below(b))]
        cols.append([target.from_coordinates(row).data for row in zip(*parts)])
    n = len(cols)
    return mat_det([[cols[j][i] for j in range(n)] for i in range(n)], target)
