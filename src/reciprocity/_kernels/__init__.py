"""Raw-data arithmetic kernels for polynomials and matrices.

The package namespace exports the F_p kernels the library calls, from the
compiled extension ``_core`` when it is built and from ``pure`` otherwise;
``RECIPROCITY_PURE=1`` forces ``pure`` (any value other than unset, empty
or 1 is a ``ValueError`` at import), and ``BACKEND`` says which is live.
A ``PrimeField`` names this namespace as its ``kernels`` (extension fields
reach it through their prime field), so each call looks the function up
here when it runs.  ``_core`` types p as a C ``long long``: a prime above
``PMAX`` names ``pure`` instead.  Every other ring, extension fields
included, names ``generic``, which has the same functions with the ring in
place of p.  The namespace exports only what library code calls: ``pure``
and ``_core`` also define ``xgcd`` (``_core``'s ``invmod`` uses it, and
hands a prime above ``PMAX`` to ``pure.xgcd``), and ``_core`` still compiles
an ``eval_at`` that nothing reads.
"""

from __future__ import annotations

import os

from . import generic, pure

_FORCE_PURE = os.environ.get("RECIPROCITY_PURE", "")
if _FORCE_PURE not in ("", "1"):
    raise ValueError(f"RECIPROCITY_PURE must be unset, empty or 1, not {_FORCE_PURE!r}")
if _FORCE_PURE:
    _impl = pure
else:
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
