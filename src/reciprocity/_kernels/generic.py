"""Dense polynomial and matrix arithmetic over any coefficient ring.

Same function names and contracts as ``pure``, with the ring in place of p:
polynomials are little-endian lists of the ring's raw element data with no
trailing zeros, matrices are lists of rows, and entries combine through the
ring's ``_add``, ``_sub``, ``_mul``, ``_neg``, ``_inv``, ``_is_zero`` and
``_is_invertible``; the constants are the ring's stored raw ``_zero`` and
``_one``.  ``mat_det`` eliminates on unit pivots and, at a first column
with no unit left, returns 0 if it is all zero (always, over a field) or
finishes the block by a division-free determinant, so it is total, a
non-unit determinant over a local ring included.  Nothing here reads the
data itself, so one body serves every data format: Fractions over Q, tuples
over large F_q, discrete logs over a table field and coordinate tuples over
an Artinian ring.  As in ``pure``, division reduces in place:
``divmod_poly``, ``gcd``, ``invmod``, ``powmod`` and the rows of
``frobenius_matrix`` run one ``_reduce`` on a list of their own, ``gcd``
and ``rem`` form no quotient, and ``monic`` is one scalar pass.
"""

from __future__ import annotations


def _normalize(a: list, ring) -> list:
    """a without trailing zeros; a itself when it has none, so callers pass a list they just built."""
    n = len(a)
    while n and ring._is_zero(a[n - 1]):
        n -= 1
    return a if n == len(a) else a[:n]


def add(a: list, b: list, ring) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ring._add(out[i], c)
    return _normalize(out, ring)


def sub(a: list, b: list, ring) -> list:
    out = [ring._sub(x, y) for x, y in zip(a, b)] + a[len(b):] + [ring._neg(c) for c in b[len(a):]]
    return _normalize(out, ring)


def mul(a: list, b: list, ring) -> list:
    if not a or not b:
        return []
    zero = ring._zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ring._is_zero(x):
            continue
        for j, y in enumerate(b):
            # the stored zero itself (padding) adds nothing, and a slot that
            # still holds it takes its first product without a sum
            if y is not zero:
                p, o = ring._mul(x, y), out[i + j]
                out[i + j] = p if o is zero else ring._add(o, p)
    return _normalize(out, ring)


def _reduce(r: list, den: list, ring, q: list | None = None) -> None:
    """Reduce r mod den in place, like ``pure._reduce``; with q given, write the quotient into it.

    Step k takes c = r[k] / lead(den) and subtracts c*den from r, shifted to
    k.  The lead cell itself is not computed, since it becomes zero, and
    neither is a product with the stored zero; at the end r is cut to its
    deg den low cells and trimmed.  den's lead is inverted at the first step,
    so a reduction that runs none inverts nothing.  den is nonempty, and q
    has room for len(r) - deg den coefficients.
    """
    dd = len(den) - 1
    zero, is_zero, times, minus = ring._zero, ring._is_zero, ring._mul, ring._sub
    # no ring has None as an inverse (it is the zero of a table field)
    inv_lead = None
    for k in range(len(r) - 1, dd - 1, -1):
        c = r[k]
        if is_zero(c):
            continue
        if inv_lead is None:
            inv_lead = ring._inv(den[dd])
        c = times(c, inv_lead)
        lo = k - dd
        if q is not None:
            q[lo] = c
        for j in range(dd):
            d = den[j]
            if d is not zero:
                r[lo + j] = minus(r[lo + j], times(c, d))
    n = min(len(r), dd)
    while n and is_zero(r[n - 1]):
        n -= 1
    del r[n:]


def rem(a: list, m: list, ring) -> list:
    """a mod m, reduced in place in a copy of a; no quotient is formed."""
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    _reduce(r, m, ring)
    return r


def _scale(a: list, c, ring) -> list:
    """c*a for a unit c, one product per nonzero coefficient; a zero stays the stored zero."""
    zero, is_zero, times = ring._zero, ring._is_zero, ring._mul
    return [zero if is_zero(x) else times(x, c) for x in a]


def divmod_poly(num: list, den: list, ring) -> tuple[list, list]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(num)
    dd = len(den) - 1
    if len(r) - 1 < dd:
        return [], r
    q = [ring._zero] * (len(r) - dd)
    _reduce(r, den, ring, q)
    return _normalize(q, ring), r


def monic(a: list, ring) -> list:
    return _scale(a, ring._inv(a[-1]), ring) if a else []


def gcd(a: list, b: list, ring) -> list:
    """Monic gcd by a remainder sequence reduced in place (``_reduce``); no quotient is formed."""
    a, b = list(a), list(b)
    # a monic remainder at each step keeps Fraction sizes down over Q
    while b:
        _reduce(a, b, ring)
        a, b = b, monic(a, ring)
    return monic(a, ring)


def invmod(a: list, m: list, ring) -> list:
    """a^-1 mod m by extended Euclid, tracking only the cofactor s of a (s*a = r mod m), like ``pure.invmod``.

    The remainders are reduced in place (``_reduce``), each writing its quotient into a fresh list.
    """
    r0, r1 = list(a), list(m)
    s0, s1 = [ring._one], []
    while r1:
        q = [ring._zero] * max(len(r0) - len(r1) + 1, 0)
        _reduce(r0, r1, ring, q)
        r0, r1 = r1, r0
        s0, s1 = s1, sub(s0, mul(q, s1, ring), ring)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    # the cofactor of the last nonzero remainder has degree below deg m
    return _scale(s0, ring._inv(r0[0]), ring)


def powmod(a: list, e: int, m: list, ring) -> list:
    """a^e mod m, left to right like ``pure.powmod``: square, then multiply by the base; each product reduced in place."""
    if e < 0:
        a = invmod(a, m, ring)
        e = -e
    base = rem(a, m, ring)
    result = rem([ring._one], m, ring)
    for bit in bin(e)[2:]:
        result = rem(mul(result, result, ring), m, ring)
        if bit == "1":
            result = rem(mul(result, base, ring), m, ring)
    return result


def frobenius_matrix(m: list, q: int, ring) -> list:
    """The rows x^(q*i) mod m for i < deg m, each padded to deg m entries, like ``pure.frobenius_matrix``.

    Row 1 is x^q by ``powmod``, and each later row one ``mul`` by it, reduced in place.
    """
    if q < 1:
        raise ValueError(f"q must be at least 1, not {q}")
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(m) - 1
    rows = [[ring._one]]
    if n > 1:
        xq = powmod([ring._zero, ring._one], q, m, ring)
        rows.append(xq)
        while len(rows) < n:
            rows.append(rem(mul(rows[-1], xq, ring), m, ring))
    return [row + [ring._zero] * (n - len(row)) for row in rows[:n]]


def mat_mul(a: list, b: list, ring) -> list:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[ring._zero] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if ring._is_zero(c):
                continue
            bt = b[t]
            oi = out[i]
            for j in range(m):
                if not ring._is_zero(bt[j]):
                    oi[j] = ring._add(oi[j], ring._mul(c, bt[j]))
    return out


def _det_division_free(a: list, ring):
    """det a with no division, by Bird's iteration X <- mu(X) a, n - 1 times from X = a.

    mu(X) keeps the strict upper triangle of X, zeros the lower one and puts
    -(x_(i+1,i+1) + ... + x_(n,n)) at (i, i); det a is (-1)^(n-1) times the
    (1, 1) entry of the last X.  O(n^4) ring products (R. S. Bird, "A simple
    division-free algorithm for computing determinants", IPL 111, 2011).
    """
    n = len(a)
    if not n:
        return ring._one
    x = a
    for _ in range(n - 1):
        mu, tail = [], ring._zero
        for i in range(n - 1, -1, -1):
            mu.append([ring._zero] * i + [ring._neg(tail)] + x[i][i + 1:])
            tail = ring._add(tail, x[i][i])
        x = mat_mul(mu[::-1], a, ring)
    return x[0][0] if n % 2 else ring._neg(x[0][0])


def mat_det(a: list, ring):
    """Determinant by elimination on unit pivots; a column with no unit left gives 0 or its block's ``_det_division_free``."""
    n = len(a)
    m = [list(row) for row in a]
    det = ring._one
    for col in range(n):
        pivot = next((r for r in range(col, n) if ring._is_invertible(m[r][col])), -1)
        if pivot < 0:
            if all(ring._is_zero(m[r][col]) for r in range(col, n)):
                return ring._zero
            return ring._mul(det, _det_division_free([row[col:] for row in m[col:]], ring))
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = ring._neg(det)
        pv = m[col][col]
        det = ring._mul(det, pv)
        inv = ring._inv(pv)
        for r in range(col + 1, n):
            f = ring._mul(m[r][col], inv)
            if not ring._is_zero(f):
                mr, mc = m[r], m[col]
                for j in range(col, n):
                    mr[j] = ring._sub(mr[j], ring._mul(f, mc[j]))
    return det

