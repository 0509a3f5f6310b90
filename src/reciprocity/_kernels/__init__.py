"""Raw-data arithmetic kernels for polynomials and matrices.

The package namespace exports the F_p kernels the library calls, from the
compiled extension ``_core`` (the hand-written C file ``_core.c``) when it
is built and from ``pure`` otherwise; ``BACKEND`` says which is live.  A
``PrimeField`` names this namespace as its ``kernels`` (extension fields
reach it through their prime field), so each call looks the function up
here when it runs.  ``_core`` keeps coefficients in int64 slots and refuses
a p above ``PMAX`` with ``ValueError``: a prime above ``PMAX`` names ``pure``
instead.  Every other ring, extension fields included, names ``generic``,
which has the same functions with the ring in place of p.  The namespace
exports only what library code calls, and ``_core`` defines nothing else.
"""

from __future__ import annotations

from . import generic, pure

try:
    from . import _core as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = pure

BACKEND: str = _impl.BACKEND
PMAX = 2**31 - 1

normalize = _impl.normalize
add = _impl.add
sub = _impl.sub
neg = _impl.neg
mul = _impl.mul
divmod_poly = _impl.divmod_poly
monic = _impl.monic
gcd = _impl.gcd
invmod = _impl.invmod
mulmod = _impl.mulmod
powmod = _impl.powmod
mat_mul = _impl.mat_mul
mat_det = _impl.mat_det
mat_inv = _impl.mat_inv
