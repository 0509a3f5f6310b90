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

The contract keeps one rule per topic.  Every kernel is total on its ring:
it raises only where no value exists.  The F_p rules, which ``pure`` and
``_core`` meet alike:

- Every entry, of a polynomial or a matrix, is an int in [0, p), which
  ``_core`` checks and ``pure`` does not.
- A polynomial is a little-endian list of them.  Every result is a new
  list without trailing zeros, and ``[]`` is zero.
- A polynomial argument may carry trailing zeros, and every kernel reads it
  as its normalized list, so ``divmod_poly([1, 0], [1], p)`` is
  ``([1], [])``.
- A zero divisor or modulus raises ``ZeroDivisionError``, and so does an
  inverse that does not exist (``invmod``, ``powmod`` with e < 0).
  ``invmod(a, [], p)`` is the inverse of a constant a.
- ``rem(a, m, p)`` is ``divmod_poly(a, m, p)[1]``, reduced in place with
  no quotient formed.
- ``frobenius_matrix(m, q, p)`` returns the deg m rows x^(q*i) mod m,
  i < deg m, each padded with zeros to deg m entries, for q >= 1; row 1 is
  x^q mod m.  A q below 1 raises ``ValueError``.
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
mul = _impl.mul
divmod_poly = _impl.divmod_poly
rem = _impl.rem
monic = _impl.monic
gcd = _impl.gcd
invmod = _impl.invmod
mulmod = _impl.mulmod
powmod = _impl.powmod
frobenius_matrix = _impl.frobenius_matrix
mat_mul = _impl.mat_mul
mat_det = _impl.mat_det
