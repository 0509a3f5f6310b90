"""Pure-Python kernels for dense arithmetic modulo a prime.

Polynomials over F_p are plain lists of ints in ``[0, p)``, little-endian
(index = exponent); results carry no trailing zeros, and ``[]`` is the
zero polynomial.  A polynomial argument may carry trailing zeros: every
kernel reads it as its normalized list, as ``_core`` does, and those that
copy an argument copy it with ``normalize``.  Matrices are
lists of row lists.  These functions are the reference semantics (the
package docstring states the contract).  ``mul`` packs a polynomial into
one big int, a coefficient per slot of bits, so a product is one C-level
multiply.  ``powmod`` and ``frobenius_matrix`` share one packing of the
residues mod m with its reduction rows (``_packing``) and one
sliding-window powering (``_power``); ``frobenius_matrix`` forms x^q that
way and each later row as one more packed product.  A packed product is
reduced mod p in every slot at once, by a multiply with a precomputed
reciprocal of p that is exact below the slots' bound 2^t (Granlund and
Montgomery, "Division by invariant integers using multiplication", PLDI
1994), so each coefficient is reduced once and never by its own ``%``.
``mat_mul`` likewise adds an entry's products unreduced and reduces it
once.  ``divmod_poly``, ``gcd`` and ``invmod`` reduce lazily, each
remainder in place in its own list, and ``gcd`` and ``rem`` form no
quotient.  The compiled module ``_core``, the C
file ``_core.c``, runs schoolbook loops on int64 buffers, each product
reduced as it is formed, and a right-to-left binary powering, with
identical results.
"""

from __future__ import annotations

import re

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


def _slots(x: int, s: int, n: int) -> list[int]:
    """The n lowest s-bit slots of x, read as they are: slots already in [0, p)."""
    mask = (1 << s) - 1
    out = []
    for _ in range(n):
        out.append(x & mask)
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


def _reduce(r: list[int], den: list[int], inv_lead: int, p: int, q: list[int] | None = None) -> None:
    """Reduce r mod den in place, lazily; with q given, write the quotient into it.

    Each step reduces only the coefficient about to lead; the others take
    their products unreduced, and the remainder is reduced once at the end,
    in the list r itself, which ends normalized.  inv_lead is the inverse of
    den's lead, and q has room for len(r) - deg den coefficients.
    """
    dd = len(den) - 1
    for k in range(len(r) - 1, dd - 1, -1):
        c = r[k] * inv_lead % p
        if c:
            lo = k - dd
            if q is not None:
                q[lo] = c
            for j in range(dd):
                r[lo + j] -= c * den[j]
    del r[dd:]
    _settle(r, p)


def _settle(a: list[int], p: int) -> None:
    """Take every entry of a mod p and drop the zeros on top, in place."""
    a[:] = [x % p for x in a]
    while a and not a[-1]:
        a.pop()


def _inverse_lead(a: list[int], p: int) -> int:
    lead = a[-1]
    return 1 if lead == 1 else pow(lead, -1, p)


def divmod_poly(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder by lazy reduction (``_reduce``).

    A monic divisor skips the inverse of its lead.  The quotient's top
    coefficient is num's lead over den's, nonzero, so both results come out
    normalized and neither is copied again.
    """
    if den and not den[-1]:
        den = normalize(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    r = normalize(num)
    if len(r) - 1 < dd:
        return [], r
    q = [0] * (len(r) - dd)
    _reduce(r, den, _inverse_lead(den, p), p, q)
    return q, r


def rem(a: list[int], m: list[int], p: int) -> list[int]:
    """a mod m by lazy reduction (``_reduce``) in a copy of a; no quotient is formed."""
    if m and not m[-1]:
        m = normalize(m)
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    r = normalize(a)
    if len(r) >= len(m):
        _reduce(r, m, _inverse_lead(m, p), p)
    return r


def monic(a: list[int], p: int) -> list[int]:
    a = normalize(a)
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd by a remainder sequence in two lists, each reduced in place; no quotient is formed."""
    a, b = normalize(a), normalize(b)
    while b:
        _reduce(a, b, _inverse_lead(b, p), p)
        a, b = b, a
    return a if not a or a[-1] == 1 else monic(a, p)


def invmod(a: list[int], m: list[int], p: int) -> list[int]:
    """a^-1 mod m by extended Euclid, tracking only the cofactor s of a (s*a = r mod m).

    The remainders are reduced in place (``_reduce``).  A quotient mostly
    has one or two terms, so s0 - q*s1 is a schoolbook loop over q.
    """
    r0, r1 = normalize(a), normalize(m)
    s0, s1 = [1], []
    while r1:
        dq = len(r0) - len(r1) + 1
        q = [0] * max(dq, 0)
        _reduce(r0, r1, _inverse_lead(r1, p), p, q)
        s = s0 + [0] * (dq + len(s1) - 1 - len(s0))
        for i, c in enumerate(q):
            if c:
                for j, x in enumerate(s1):
                    s[i + j] -= c * x
        _settle(s, p)
        r0, r1 = r1, r0
        s0, s1 = s1, s
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    # the cofactor of the last nonzero remainder has degree below deg m
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0]


def mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    return rem(mul(a, b, p), m, p)


def _window(bits: int) -> int:
    """The sliding-window width with the fewest expected products for an exponent of this many bits.

    Width 1 is plain binary powering, about bits/2 products by the base.
    A width w > 1 first forms b^2 and the odd powers b^3, ..., b^(2^w - 1),
    2^(w-1) products, and then multiplies about once per w + 1 bits
    (Menezes, van Oorschot and Vanstone, *Handbook of Applied Cryptography*,
    Alg. 14.85).
    """

    def cost(w: int) -> float:
        return (1 << (w - 1) if w > 1 else 0) + bits / (w + 1)

    w = 1
    while cost(w + 1) < cost(w):
        w += 1
    return w


def _packing(m: list[int], p: int):
    """(s, reduce): the packed residues mod m and their reduction, m normalized of degree n >= 0.

    A residue r is one int with r[i] in [0, p) in the s-bit slot i.  The rows
    x^(n+k) mod m for k < n-1 are packed once: row 0 is the monic tail
    -m/lead, and each next row is the last one shifted up a slot and
    reduced.  ``reduce`` takes the product of two residues, one big-int
    multiply, and settles its n-1 high slots; each high slot n+k times row k
    is added to the n low slots, and the sum is settled.  The bound rests on
    the input contract, coefficients in [0, p), which every residue keeps:
    a product slot holds a sum of at most n terms and a low slot of the sum
    at most n + (n-1), each at most (p-1)^2, so every slot stays below
    2^t, t = 2*bitlen(p-1) + bitlen(2n), and nothing carries into the next.

    ``settle`` takes every slot mod p at once, by exact division by the
    invariant p (Granlund and Montgomery, "Division by invariant integers
    using multiplication", PLDI 1994).  With k = t + bitlen(p-1) and
    R = floor(2^k/p) + 1, the quotient floor(x*R / 2^k) is floor(x/p) for
    every x < 2^t: x*R / 2^k exceeds x/p by x*(R - 2^k/p) / 2^k <= x/2^k
    < 2^-bitlen(p-1) <= 1/p, too little to carry x/p, whose fraction is at
    most (p-1)/p, past the next integer.  A slot is s = t + bitlen(R) bits
    wide, so x*R fits in it: one multiply by R, a shift by k and a mask of
    each slot's quotient bits give every quotient, and one multiply by p and
    one subtraction every remainder, with no Python step per slot.
    """
    n = len(m) - 1
    b = (p - 1).bit_length()
    t = 2 * b + (2 * n).bit_length()
    k = t + b
    big_r = (1 << k) // p + 1
    s = t + big_r.bit_length()
    mask, low = (1 << s) - 1, (1 << (n * s)) - 1
    quotients = _pack([(1 << (s - k)) - 1] * n, s)
    inv_lead = _inverse_lead(m, p)
    # for n <= 1 no product has a high slot, and row 0 goes unused
    rows = [_pack([-c * inv_lead % p for c in m[:n]], s)]

    def settle(x: int) -> int:
        return x - ((x * big_r >> k) & quotients) * p

    def reduce(x: int) -> int:
        acc = x & low
        x = settle(x >> n * s)
        for row in rows:
            if not x:  # a product by a short residue has fewer high slots
                break
            acc += (x & mask) * row
            x >>= s
        return settle(acc)

    while len(rows) < n - 1:
        rows.append(reduce(rows[-1] << s))
    return s, reduce


def _power(base: int, e: int, reduce) -> int:
    """base^e for e >= 1 on packed residues, by left-to-right sliding windows.

    The odd powers of the base up to 2^w - 1 are formed once, w = ``_window``
    of e's bit length.  The bits of e, from the top, split into runs of
    zeros and windows of at most w bits that begin and end with a 1: r
    starts as the first window's power; then a run squares r once per bit,
    and a window squares r once per bit and multiplies it by the window's
    odd power.
    """
    w = _window(e.bit_length())
    odd = [base]  # odd[i] is the base to the power 2i + 1
    if w > 1:
        square = reduce(base * base)
        while len(odd) < 1 << (w - 1):
            odd.append(reduce(odd[-1] * square))
    windows = re.findall("0+|1" if w == 1 else f"0+|1(?:[01]{{0,{w - 2}}}1)?", bin(e)[2:])
    r = odd[int(windows[0], 2) >> 1]
    for window in windows[1:]:
        for _ in window:
            r = reduce(r * r)
        if window[0] == "1":
            r = reduce(r * odd[int(window, 2) >> 1])
    return r


def powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m by sliding windows (``_power``) on packed residues (``_packing``).

    ``_core`` reads e's bits once and runs a right-to-left binary loop on C
    buffers; a^e mod m is unique, so both give the same list.
    """
    m = normalize(m)
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    if e < 0:
        a = invmod(a, m, p)
        e = -e
    if not e:
        return rem([1], m, p)
    s, reduce = _packing(m, p)
    return normalize(_slots(_power(_pack(rem(a, m, p), s), e, reduce), s, len(m) - 1))


def frobenius_matrix(m: list[int], q: int, p: int) -> list[list[int]]:
    """The rows x^(q*i) mod m for i < deg m, each padded to deg m entries; q >= 1.

    Row 1, x^q, comes by ``powmod``'s sliding windows, and each later row is
    one product by it, all on the same packed residues and reduction rows
    (``_packing``), so the rows are read off the packed ints only at the end.
    """
    if q < 1:
        raise ValueError(f"q must be at least 1, not {q}")
    m = normalize(m)
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(m) - 1
    s, reduce = _packing(m, p)
    rows = [1]
    if n > 1:
        xq = _power(1 << s, q, reduce)
        rows.append(xq)
        while len(rows) < n:
            rows.append(reduce(rows[-1] * xq))
    return [_slots(r, s, n) for r in rows[:n]]


def mat_mul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    """a*b with one reduction per entry: each output row adds its products unreduced and is taken mod p once."""
    m = len(b[0]) if b else 0
    out = []
    for ai in a:
        acc = [0] * m
        for c, bt in zip(ai, b, strict=True):
            if c:
                for j in range(m):
                    acc[j] += c * bt[j]
        out.append([x % p for x in acc])
    return out


def mat_det(a: list[list[int]], p: int) -> int:
    n = len(a)
    m = [row[:] for row in a]
    det = 1
    for col in range(n):
        pivot = -1
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot < 0:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = (-det) % p
        pv = m[col][col]
        det = (det * pv) % p
        inv = pow(pv, -1, p)
        for r in range(col + 1, n):
            f = (m[r][col] * inv) % p
            if f:
                mr, mc = m[r], m[col]
                for j in range(col, n):
                    mr[j] = (mr[j] - f * mc[j]) % p
    return det

