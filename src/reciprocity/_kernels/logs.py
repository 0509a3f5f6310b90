"""Polynomial and matrix kernels of the table fields, run on discrete logs.

An ``ExtensionField`` of at most ``TABLE_MAX_ORDER`` elements names this
module as its ``kernels`` and its shared :class:`LogRing` as its
``kernel_arg``.  Each function has the name and contract of the
:mod:`generic` function it calls: it maps the element tuples it is given to
their discrete logs once, runs that unchanged function with the log ring in
place of the field, and maps the result back to tuples.  So each algorithm
exists once, in ``generic``, and element data is a tuple outside the call.
"""

from __future__ import annotations

from ..errors import NonUnitError
from . import generic


class LogRing:
    """The raw-op ring of ``generic`` on the discrete logs of one table field.

    Zero is ``None`` and an int k in [0, q-1) stands for g^k, g the primitive
    element of the tables.  A product adds logs and an inverse negates one; a
    negation adds log(-1); a sum g^a + g^b = g^a (1 + g^(b-a)) is one lookup
    in the Zech table Z(k) = log(1 + g^k), which is ``None`` where
    1 + g^k = 0 (Huber, "Some comments on Zech's logarithms", IEEE Trans. IT
    1990).  ``log`` maps each nonzero element tuple to its log, ``exp``
    lists g^0 .. g^(q-2) twice and ``zero_tuple`` is the field's zero.
    ``fields._log_tables`` builds one per (p, modulus) and every field with
    that modulus shares it, so nothing may mutate it.
    """

    is_field = True
    _zero, _one = None, 0

    def __init__(self, log: dict, exp: list, zech: list, zero_tuple: tuple):
        self.log, self.exp, self.zech, self.zero_tuple = log, exp, zech, zero_tuple
        self.units = len(zech)
        # log(-1): the one k with 1 + g^k = 0
        self.neg1 = zech.index(None)

    def _add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        # b - a lies in (-(q-1), q-1), and a negative index wraps to (b - a) mod (q-1)
        z = self.zech[b - a]
        return None if z is None else (a + z) % self.units

    def _sub(self, a, b):
        return self._add(a, None if b is None else (b + self.neg1) % self.units)

    def _mul(self, a, b):
        return None if a is None or b is None else (a + b) % self.units

    def _neg(self, a):
        return None if a is None else (a + self.neg1) % self.units

    def _inv(self, a):
        if a is None:
            raise NonUnitError(f"division by zero in F{self.units + 1}")
        return -a % self.units

    def _is_zero(self, a):
        return a is None

    def _is_invertible(self, a):
        return a is not None


def _logs(a: list, ring: LogRing) -> list:
    get = ring.log.get
    return [get(c) for c in a]


def _tuples(a: list, ring: LogRing) -> list:
    exp, zero = ring.exp, ring.zero_tuple
    return [zero if k is None else exp[k] for k in a]


def add(a: list, b: list, ring: LogRing) -> list:
    return _tuples(generic.add(_logs(a, ring), _logs(b, ring), ring), ring)


def sub(a: list, b: list, ring: LogRing) -> list:
    return _tuples(generic.sub(_logs(a, ring), _logs(b, ring), ring), ring)


def neg(a: list, ring: LogRing) -> list:
    return _tuples(generic.neg(_logs(a, ring), ring), ring)


def mul(a: list, b: list, ring: LogRing) -> list:
    return _tuples(generic.mul(_logs(a, ring), _logs(b, ring), ring), ring)


def divmod_poly(num: list, den: list, ring: LogRing) -> tuple[list, list]:
    q, r = generic.divmod_poly(_logs(num, ring), _logs(den, ring), ring)
    return _tuples(q, ring), _tuples(r, ring)


def monic(a: list, ring: LogRing) -> list:
    return _tuples(generic.monic(_logs(a, ring), ring), ring)


def gcd(a: list, b: list, ring: LogRing) -> list:
    return _tuples(generic.gcd(_logs(a, ring), _logs(b, ring), ring), ring)


def xgcd(a: list, b: list, ring: LogRing) -> tuple[list, list, list]:
    g, s, t = generic.xgcd(_logs(a, ring), _logs(b, ring), ring)
    return _tuples(g, ring), _tuples(s, ring), _tuples(t, ring)


def invmod(a: list, m: list, ring: LogRing) -> list:
    return _tuples(generic.invmod(_logs(a, ring), _logs(m, ring), ring), ring)


def powmod(a: list, e: int, m: list, ring: LogRing) -> list:
    return _tuples(generic.powmod(_logs(a, ring), e, _logs(m, ring), ring), ring)


def eval_at(a: list, x, ring: LogRing):
    k = generic.eval_at(_logs(a, ring), ring.log.get(x), ring)
    return ring.zero_tuple if k is None else ring.exp[k]


def mat_mul(a: list, b: list, ring: LogRing) -> list:
    out = generic.mat_mul([_logs(row, ring) for row in a], [_logs(row, ring) for row in b], ring)
    return [_tuples(row, ring) for row in out]


def mat_det(a: list, ring: LogRing):
    k = generic.mat_det([_logs(row, ring) for row in a], ring)
    return ring.zero_tuple if k is None else ring.exp[k]


def mat_inv(a: list, ring: LogRing) -> list:
    return [_tuples(row, ring) for row in generic.mat_inv([_logs(row, ring) for row in a], ring)]
