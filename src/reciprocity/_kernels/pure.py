"""Pure-Python kernels for dense arithmetic modulo a prime.

Polynomials over F_p are plain lists of ints in ``[0, p)``, little-endian
(index = exponent), with no trailing zeros; ``[]`` is the zero polynomial.
Matrices are lists of row lists.  These functions are the reference
semantics; the compiled module ``_core`` mirrors them exactly (``powmod``
loops in the other bit order there, with the same results).
"""

from __future__ import annotations

BACKEND = "python"


def normalize(a: list[int]) -> list[int]:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return normalize(out)


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = (x - y) % p
    return normalize(out)


def neg(a: list[int], p: int) -> list[int]:
    return [(-c) % p for c in a]


def scalar_mul(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    if c == 0:
        return []
    return normalize([(x * c) % p for x in a])


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return normalize(out)


def divmod_poly(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(num)
    dd = len(den) - 1
    if len(r) - 1 < dd:
        return [], normalize(r)
    inv_lead = pow(den[dd], p - 2, p)
    q = [0] * (len(r) - dd)
    for k in range(len(r) - 1, dd - 1, -1):
        c = r[k] % p
        if c:
            c = (c * inv_lead) % p
            q[k - dd] = c
            for j in range(dd + 1):
                r[k - dd + j] = (r[k - dd + j] - c * den[j]) % p
    return normalize(q), normalize(r)


def rem(a: list[int], m: list[int], p: int) -> list[int]:
    return divmod_poly(a, m, p)[1]


def monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    lead = a[-1]
    if lead == 1:
        return list(a)
    return scalar_mul(a, pow(lead, p - 2, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p)


def xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Monic g and s, t with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    c = pow(r0[-1], p - 2, p)
    return scalar_mul(r0, c, p), scalar_mul(s0, c, p), scalar_mul(t0, c, p)


def invmod(a: list[int], m: list[int], p: int) -> list[int]:
    g, s, _ = xgcd(a, m, p)
    if g != [1]:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return rem(s, m, p)


def mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    return rem(mul(a, b, p), m, p)


def powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m by left-to-right binary powering.

    For each bit of e from the top: square, then multiply by the reduced
    base when the bit is set.  Every multiply has the base as one factor, so
    a base of degree <= 1 (x for x^q) costs O(deg m) per set bit instead of
    a full product.  ``_core`` keeps the right-to-left loop; a^e mod m is
    unique, so both give the same list.
    """
    if e < 0:
        a = invmod(a, m, p)
        e = -e
    base = rem(a, m, p)
    result = rem([1], m, p)
    for bit in bin(e)[2:]:
        result = mulmod(result, result, m, p)
        if bit == "1":
            result = mulmod(result, base, m, p)
    return result


def eval_at(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def mat_mul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] = (oi[j] + c * bt[j]) % p
    return out


def mat_det(a: list[list[int]], p: int) -> int:
    n = len(a)
    m = [row[:] for row in a]
    det = 1
    for col in range(n):
        pivot = -1
        for r in range(col, n):
            if m[r][col] % p:
                pivot = r
                break
        if pivot < 0:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = (-det) % p
        pv = m[col][col] % p
        det = (det * pv) % p
        inv = pow(pv, p - 2, p)
        for r in range(col + 1, n):
            f = (m[r][col] * inv) % p
            if f:
                mr, mc = m[r], m[col]
                for j in range(col, n):
                    mr[j] = (mr[j] - f * mc[j]) % p
    return det % p


def mat_inv(a: list[list[int]], p: int) -> list[list[int]]:
    n = len(a)
    m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = -1
        for r in range(col, n):
            if m[r][col] % p:
                pivot = r
                break
        if pivot < 0:
            raise ZeroDivisionError("matrix is singular modulo p")
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col] % p, p - 2, p)
        m[col] = [(c * inv) % p for c in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                mr, mc = m[r], m[col]
                for j in range(2 * n):
                    mr[j] = (mr[j] - f * mc[j]) % p
    return [row[n:] for row in m]
