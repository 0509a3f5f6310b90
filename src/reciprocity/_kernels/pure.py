"""Pure-Python kernels for dense arithmetic modulo a prime.

Polynomials over F_p are plain lists of ints in ``[0, p)``, little-endian
(index = exponent), with no trailing zeros; ``[]`` is the zero polynomial.
Matrices are lists of row lists.  These functions are the reference
semantics.  ``mul`` and ``powmod`` pack a polynomial into one big int, a
coefficient per slot of bits, so a product is one C-level multiply, and
``divmod_poly`` reduces lazily; the compiled module ``_core`` keeps the
schoolbook loops (``powmod`` in the other bit order), with identical results.
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


def _pack(a: list[int], s: int) -> int:
    """sum a[i] * 2^(s*i): one int with a[i] in the s-bit slot i."""
    x = 0
    for c in reversed(a):
        x = (x << s) | c
    return x


def _unpack(x: int, s: int, n: int, p: int) -> list[int]:
    """The n lowest s-bit slots of x, each taken mod p."""
    mask = (1 << s) - 1
    out = []
    for _ in range(n):
        out.append((x & mask) % p)
        x >>= s
    return out


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    """a*b by Kronecker substitution: one big-int product of a and b packed.

    Coefficient i goes to the s-bit slot i of one int, with
    s = 2*bitlen(p-1) + bitlen(min(len a, len b)).  The bound rests on the
    input contract, coefficients in [0, p): a product coefficient is a sum
    of at most min(len a, len b) terms, each at most (p-1)^2, so it fits its
    slot and nothing carries into the next.  After the one multiply each slot
    is read off and taken mod p (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, section 8.4).
    """
    if not a or not b:
        return []
    s = 2 * (p - 1).bit_length() + min(len(a), len(b)).bit_length()
    return normalize(_unpack(_pack(a, s) * _pack(b, s), s, len(a) + len(b) - 1, p))


def divmod_poly(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder by lazy reduction.

    Each step reduces only the coefficient about to lead; the others take
    their products unreduced, and the remainder is reduced once at the end.
    A monic divisor skips the inverse of its lead.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return [], normalize(num)
    lead = den[dd]
    inv_lead = 1 if lead == 1 else pow(lead, -1, p)
    r = list(num)
    q = [0] * (len(r) - dd)
    for k in range(len(r) - 1, dd - 1, -1):
        c = r[k] * inv_lead % p
        if c:
            lo = k - dd
            q[lo] = c
            for j in range(dd):
                r[lo + j] -= c * den[j]
    return normalize(q), normalize([x % p for x in r[:dd]])


def rem(a: list[int], m: list[int], p: int) -> list[int]:
    return divmod_poly(a, m, p)[1]


def monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    lead = a[-1]
    if lead == 1:
        return list(a)
    return scalar_mul(a, pow(lead, -1, p), p)


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
    c = pow(r0[-1], -1, p)
    return scalar_mul(r0, c, p), scalar_mul(s0, c, p), scalar_mul(t0, c, p)


def invmod(a: list[int], m: list[int], p: int) -> list[int]:
    """a^-1 mod m by extended Euclid, tracking only the cofactor s of a (s*a = r mod m)."""
    r0, r1 = list(a), list(m)
    s0, s1 = [1], []
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return rem(scalar_mul(s0, pow(r0[0], -1, p), p), m, p)


def mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    return rem(mul(a, b, p), m, p)


def powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m by left-to-right binary powering on packed residues.

    With n = deg m, a residue r is one int with r[i] in the s-bit slot i,
    s = 2*bitlen(p-1) + bitlen(2n).  The rows x^(n+k) mod m for k < n-1 are
    packed once per call: row 0 is the monic tail -m/lead, and each next row
    is the last one shifted up a slot and reduced.  For each bit of e from
    the top, r is squared, then multiplied by the base when the bit is set.
    Each is one big-int product; its high slot n+k, taken mod p, times row k
    is added to the n low slots.  The bound rests on the input contract,
    coefficients in [0, p), which every residue keeps: a low slot then holds
    a sum of at most n + (n-1) terms, each at most (p-1)^2, so it fits its
    slot, and one pass taking each of the n slots mod p gives the reduced
    residue.  ``_core`` keeps its right-to-left loop; a^e mod m is unique,
    so both give the same list.
    """
    if e < 0:
        a = invmod(a, m, p)
        e = -e
    base = rem(a, m, p)
    n = len(m) - 1
    s = 2 * (p - 1).bit_length() + (2 * n).bit_length()
    mask, low, shifts = (1 << s) - 1, (1 << (n * s)) - 1, range(0, n * s, s)
    lead = m[n]
    inv_lead = 1 if lead == 1 else pow(lead, -1, p)
    # for n <= 1 no product has a high slot, and row 0 goes unused
    rows = [_pack([-c * inv_lead % p for c in m[:n]], s)]

    def reduce(x: int) -> int:
        acc = x & low
        x >>= n * s
        for row in rows:
            if not x:  # a product by a short base has fewer high slots
                break
            acc += (x & mask) % p * row
            x >>= s
        out = 0
        for shift in shifts:
            out |= (acc >> shift & mask) % p << shift
        return out

    while len(rows) < n - 1:
        rows.append(reduce(rows[-1] << s))
    b = _pack(base, s)
    r = _pack(rem([1], m, p), s)
    # S squares, M multiplies by the base
    for step in bin(e)[2:].replace("1", "SM").replace("0", "S"):
        r = reduce(r * (r if step == "S" else b))
    return normalize(_unpack(r, s, n, p))


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
        inv = pow(pv, -1, p)
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
        inv = pow(m[col][col], -1, p)
        m[col] = [(c * inv) % p for c in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                mr, mc = m[r], m[col]
                for j in range(2 * n):
                    mr[j] = (mr[j] - f * mc[j]) % p
    return [row[n:] for row in m]
