"""Exact coefficient fields and their elements.

Three base fields are supported:

* the rationals, with :class:`fractions.Fraction` data,
* prime fields F_p, with int data in ``[0, p)``,
* extension fields F_p[u]/(m) for a monic irreducible m.  A field of at most
  ``TABLE_MAX_ORDER`` (256) elements is a :class:`TableField`, whose data is
  the discrete log of the element to a primitive element, or ``None`` for
  zero; a larger one has fixed-length tuples of ints as data (coefficient i
  of u^i) and multiplies and inverts by the F_p kernels ``mulmod``/``invmod``.
  Outside this module an F_q element is read and built only through
  ``coordinates``/``from_coordinates``, ``_canonical`` (the tuple in both
  formats) and the raw operations.

Every element is an :class:`AlgebraElement` pointing at its parent ring; the
parent implements the raw operations on the underlying data.  Each ring also
names, once, the module that does its raw polynomial and matrix arithmetic:
``ring.kernels.fn(..., ring.kernel_arg)``.  A prime field uses the F_p
kernels of :mod:`reciprocity._kernels` with its p; every other ring, table
fields included, uses :mod:`reciprocity._kernels.generic` with itself.
Values are immutable and operations are pure, so everything here is safe to
share between threads.

:func:`power` is the one binary-powering loop of the package: elements,
polynomials, rational functions and Laurent series all raise to positive
exponents through it.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

from . import _kernels
from ._kernels import generic
from .errors import NonUnitError, TowerError

# psi_k of OEIS A014233: the least odd composite that is a strong
# pseudoprime to each of the first k prime bases, so Miller-Rabin to the
# first k bases is exact below psi_k.  Base 43 rejects psi_13 itself; field
# specs at or above psi_13 are rejected before any primality test
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
           341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)
PRIME_TEST_BOUND = _MR_PSI[-1]
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

# extension fields with at most this many elements multiply by log tables;
# 256 is the largest order at which building them was measured to pay off
TABLE_MAX_ORDER = 256


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < PRIME_TEST_BOUND (3.3e24).

    Only the first k prime bases run, k the least index with n < psi_k; from
    PRIME_TEST_BOUND on, all 14 do.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoefficientRing:
    """Common protocol for every coefficient ring in the tower.

    Each subclass stores the raw data of 0 and 1 as ``_zero`` and ``_one``.
    The raw operations take and return data, never elements: ``_add``,
    ``_sub``, ``_mul``, ``_neg`` and ``_inv``, and ``_mul_add(acc, a, b)``,
    acc + a b in one call, which a ring overrides where fusing the two
    saves work (an Artinian product makes one per structure constant).
    """

    characteristic = 0

    def __init__(self):
        self.kernels = generic
        self.kernel_arg = self

    # raw-data operations; subclasses implement all of them
    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul_add(self, acc, a, b):
        return self._add(acc, self._mul(a, b))

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _is_invertible(self, a) -> bool:
        raise NotImplementedError

    def _canonical(self, a):
        return a

    def _str(self, a) -> str:
        raise NotImplementedError

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, self._zero)

    def one(self) -> AlgebraElement:
        return AlgebraElement(self, self._one)

    def from_int(self, n: int) -> AlgebraElement:
        raise NotImplementedError

    def coerce(self, x) -> AlgebraElement:
        """Coerce an int, Fraction, or element lower in the tower."""
        if isinstance(x, AlgebraElement):
            return lift(x, self)
        if isinstance(x, int):
            return self.from_int(x)
        raise TowerError(f"cannot coerce {x!r} into {self}")

    def random_element(self, rng) -> AlgebraElement:
        raise NotImplementedError

    @property
    def signature(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, CoefficientRing) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)


class BaseField(CoefficientRing):
    """A coefficient ring that is a field (rationals, F_p, F_p[u]/(m))."""

    @property
    def prime_subfield(self) -> "BaseField":
        return self

    def extension_degree_over(self, base: "BaseField") -> int:
        if self == base:
            return 1
        raise TowerError(f"{self} is not an extension of {base}")


class RationalField(BaseField):
    """The field of rational numbers; element data is Fraction."""

    characteristic = 0
    _zero, _one = Fraction(0), Fraction(1)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _mul_add(self, acc, a, b):
        return acc + a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if a == 0:
            raise NonUnitError("division by zero in Q")
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _is_invertible(self, a):
        return a != 0

    def _str(self, a):
        return str(a)

    def from_int(self, n):
        return AlgebraElement(self, Fraction(n))

    def coerce(self, x):
        if isinstance(x, Fraction):
            return AlgebraElement(self, x)
        return super().coerce(x)

    def random_element(self, rng):
        return AlgebraElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    @property
    def signature(self):
        return ("Q",)

    def __repr__(self):
        return "Q"


class PrimeField(BaseField):
    """F_p for a prime p; element data is an int in [0, p)."""

    _zero, _one = 0, 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        # the compiled kernels take p as a C long long
        self.kernels = _kernels if p <= _kernels.PMAX else _kernels.pure
        self.kernel_arg = p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _mul_add(self, acc, a, b):
        return (acc + a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        if a % self.p == 0:
            raise NonUnitError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a % self.p == 0

    def _is_invertible(self, a):
        return a % self.p != 0

    def _str(self, a):
        return str(a)

    def from_int(self, n):
        return AlgebraElement(self, n % self.p)

    def random_element(self, rng):
        return AlgebraElement(self, rng.randrange(self.p))

    @property
    def order(self) -> int:
        return self.p

    @property
    def signature(self):
        return ("Fp", self.p)

    def __repr__(self):
        return f"F{self.p}"


def _prime_divisors(n: int) -> set[int]:
    primes = set()
    q = 2
    while q * q <= n:
        while n % q == 0:
            primes.add(q)
            n //= q
        q += 1
    if n > 1:
        primes.add(n)
    return primes


def _is_irreducible_mod_p(coeffs: list[int], fp: PrimeField) -> bool:
    """Rabin's test for a monic polynomial given as an int list over F_p."""
    d = len(coeffs) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    k, p = fp.kernels, fp.p
    x = [0, 1]
    xq = k.powmod(x, p**d, coeffs, p)
    if k.sub(xq, x, p):
        return False
    for q in _prime_divisors(d):
        xe = k.powmod(x, p ** (d // q), coeffs, p)
        if k.gcd(k.sub(xe, x, p), coeffs, p) != [1]:
            return False
    return True


def power(x, e: int):
    """x**e for e >= 1 by binary powering, low bit first.

    It starts from x itself and skips the last squaring, so x**1 multiplies
    nothing and x**2 once.  A truncated series takes its prec from the order
    of the products; this is the order the series layer has always used.
    """
    result = None
    while True:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if not e:
            return result
        x = x * x


def find_irreducible(p: int, d: int) -> list[int]:
    """Lexicographically first monic irreducible of degree d over F_p, as a new list."""
    return list(_first_irreducible(p, d))


@lru_cache(maxsize=32)
def _first_irreducible(p: int, d: int) -> tuple[int, ...]:
    if d == 1:
        return (0, 1)
    fp = PrimeField(p)
    # iterate constant-first coefficient vectors
    total = p**d
    for code in range(total):
        coeffs = []
        c = code
        for _ in range(d):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        if coeffs[0] != 0 and _is_irreducible_mod_p(coeffs, fp):
            return tuple(coeffs)
    raise ValueError(f"no irreducible polynomial of degree {d} over F_{p}")


@lru_cache(maxsize=32)
def _is_irreducible_modulus(p: int, modulus: tuple[int, ...]) -> bool:
    """Rabin's verdict on a monic modulus over F_p, kept per (p, modulus) as ``_log_tables`` is.

    The candidate scan of ``_first_irreducible`` calls the uncached test, so
    only the moduli that fields are built on are kept.
    """
    return _is_irreducible_mod_p(list(modulus), PrimeField(p))


@lru_cache(maxsize=32)
def _log_tables(p: int, modulus: tuple[int, ...]) -> tuple[dict, list, list]:
    """Discrete-log and Zech tables ``(log, exp, zech)`` of F_p[u]/(m).

    ``log`` maps each nonzero element tuple to its exponent in [0, q-1) to
    a primitive element g, ``exp`` lists the tuples g^0 .. g^(q-2), and
    ``zech[k]`` is log(1 + g^k), ``None`` where 1 + g^k = 0.  g is the
    first nonconstant element, in base-p order, with g^((q-1)/r) != 1 for
    every prime r | q-1, so the logs are a function of p and m alone: every
    field with this p and m, and every rebuild of the tables, gives the same
    ones.  The tables are one walk of the powers of g (Huber, "Some comments
    on Zech's logarithms", 1990).  Every field with this p and m shares the
    cached tables, so nothing may mutate them.
    """
    m, d = list(modulus), len(modulus) - 1
    n = p**d - 1
    exponents = [n // r for r in _prime_divisors(n)]
    for code in range(p, p**d):
        g = _kernels.normalize([code // p**i % p for i in range(d)])
        if all(_kernels.powmod(g, e, m, p) != [1] for e in exponents):
            break
    log, exp, x = {}, [], (1,) + (0,) * (d - 1)
    for i in range(n):
        log[x] = i
        exp.append(x)
        y = _kernels.mulmod(list(x), g, m, p)
        x = tuple(y) + (0,) * (d - len(y))
    zech = [log.get(((t[0] + 1) % p,) + t[1:]) for t in exp]
    return log, exp, zech


class ExtensionField(BaseField):
    """F_p[u]/(m) for monic irreducible m.

    The constructor checks m (by Rabin's test, run once per p and m), then
    picks the element data format from the order, before anything else sees
    the field: with at most ``TABLE_MAX_ORDER`` elements it returns a
    :class:`TableField`, whose data is a discrete log.  A larger field is an
    ``ExtensionField`` itself, with a tuple of ints as data: the tuple always
    has length deg(m), and index i holds the coefficient of u^i.  Its sums
    are coordinate-wise, and its products and inverses call the F_p kernels.
    Both formats share every method that converts at the boundary:
    ``_canonical`` gives the tuple and ``_from_tuple`` takes it, so ``==``,
    ``hash``, printing and ``coordinates`` read the same in both.
    """

    # the generator's name in expressions and printed elements
    name = "u"

    def __new__(cls, p: int, modulus):
        base = PrimeField(p)
        coeffs = base.kernels.normalize([c % p for c in modulus])
        if len(coeffs) < 3:
            raise ValueError("extension modulus must have degree >= 2")
        if coeffs[-1] != 1:
            raise ValueError("extension modulus must be monic")
        modulus = tuple(coeffs)
        if not _is_irreducible_modulus(p, modulus):
            raise ValueError("extension modulus is not irreducible over F_p")
        if cls is ExtensionField and p ** (len(coeffs) - 1) <= TABLE_MAX_ORDER:
            cls = TableField
        self = super().__new__(cls)
        # the checked modulus, which __init__ (and TableField's tables) read
        self.base, self.modulus, self.degree = base, modulus, len(coeffs) - 1
        return self

    def __init__(self, p: int, modulus):
        super().__init__()
        self.p = self.characteristic = p
        zero = (0,) * self.degree
        self._zero, self._one = self._from_tuple(zero), self._from_tuple((1,) + zero[1:])

    def _pad(self, lst):
        return tuple(lst) + (0,) * (self.degree - len(lst))

    def _from_tuple(self, t: tuple):
        """The raw data of the element with coordinate tuple t."""
        return t

    def _element(self, ints) -> AlgebraElement:
        """sum ints[i] u^i, for at most deg(m) ints in [0, p)."""
        return AlgebraElement(self, self._from_tuple(self._pad(ints)))

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _mul(self, a, b):
        return self._pad(self.base.kernels.mulmod(list(a), list(b), list(self.modulus), self.p))

    def _neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def _inv(self, a):
        try:
            return self._pad(self.base.kernels.invmod(list(a), list(self.modulus), self.p))
        except ZeroDivisionError:
            raise NonUnitError(f"division by zero in {self!r}") from None

    def _is_zero(self, a):
        return not any(a)

    def _is_invertible(self, a):
        return any(a)

    def _canonical(self, a):
        return tuple(a)

    def _str(self, a):
        """sum c_i u^i from the top power down, written straight from ``_canonical(a)``.

        The one printer of both data formats.  A coordinate is an int in
        [0, p), so no coefficient needs parentheses, and every sign is "+".
        """
        t, name = self._canonical(a), self.name
        parts = []
        for i in range(len(t) - 1, 0, -1):
            c = t[i]
            if c:
                u = name if i == 1 else f"{name}^{i}"
                parts.append(u if c == 1 else f"{c}*{u}")
        if t[0]:
            parts.append(str(t[0]))
        return " + ".join(parts) or "0"

    def from_int(self, n):
        return self._element([n % self.p])

    def coerce(self, x):
        if isinstance(x, AlgebraElement) and x.ring == self.base:
            return self._element([x.data])
        return super().coerce(x)

    def random_element(self, rng):
        return self._element([rng.randrange(self.p) for _ in range(self.degree)])

    def generator(self) -> AlgebraElement:
        return self._element([0, 1])

    def coordinates(self, elem: AlgebraElement) -> list[AlgebraElement]:
        """F_p coordinates of elem in the basis 1, u, .., u^(d-1)."""
        return [AlgebraElement(self.base, c) for c in self._canonical(elem.data)]

    def from_coordinates(self, coords) -> AlgebraElement:
        """The element with the given F_p coordinates (elements or ints), in basis order."""
        return self._element([self.base.coerce(c).data for c in coords])

    @property
    def order(self) -> int:
        return self.p**self.degree

    @property
    def prime_subfield(self) -> BaseField:
        return self.base

    def extension_degree_over(self, base: BaseField) -> int:
        if self == base:
            return 1
        if base == self.base:
            return self.degree
        raise TowerError(f"{self} is not an extension of {base}")

    @property
    def signature(self):
        return ("Fq", self.p, self.modulus)

    def __repr__(self):
        return f"F{self.p ** self.degree}"


class TableField(ExtensionField):
    """An extension field of at most ``TABLE_MAX_ORDER`` elements; data is a discrete log.

    Zero is ``None`` and an int k in [0, q-1) stands for g^k, g the
    primitive element of ``_log_tables``.  A product adds logs and an inverse
    negates one; a negation adds log(-1); a sum g^a + g^b = g^a (1 + g^(b-a))
    is one lookup in the Zech table Z(k) = log(1 + g^k), which is ``None``
    where 1 + g^k = 0 (Huber, "Some comments on Zech's logarithms", IEEE
    Trans. IT 1990).  The logs depend on p and m alone, so equal data means
    equal elements in any two instances of the field.
    """

    def __init__(self, p: int, modulus):
        self._log, self._exp, self._zech = _log_tables(p, self.modulus)
        self._units = len(self._zech)
        # log(-1): the one k with 1 + g^k = 0
        self._neg1 = self._zech.index(None)
        self._zero_tuple = (0,) * self.degree
        super().__init__(p, modulus)

    def _from_tuple(self, t):
        return self._log.get(t)

    def _add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        # b - a lies in (-(q-1), q-1), and a negative index wraps to (b - a) mod (q-1)
        z = self._zech[b - a]
        return None if z is None else (a + z) % self._units

    def _sub(self, a, b):
        return self._add(a, None if b is None else (b + self._neg1) % self._units)

    def _mul(self, a, b):
        return None if a is None or b is None else (a + b) % self._units

    def _neg(self, a):
        return None if a is None else (a + self._neg1) % self._units

    def _inv(self, a):
        if a is None:
            raise NonUnitError(f"division by zero in {self!r}")
        return -a % self._units

    def _is_zero(self, a):
        return a is None

    def _is_invertible(self, a):
        return a is not None

    def _canonical(self, a):
        return self._zero_tuple if a is None else self._exp[a]


QQ = RationalField()


class AlgebraElement:
    """An element of a coefficient ring, behaving like a number."""

    __slots__ = ("ring", "data")

    def __init__(self, ring: CoefficientRing, data):
        self.ring = ring
        self.data = data

    def _pair(self, other):
        if isinstance(other, AlgebraElement):
            if other.ring == self.ring:
                return self, other
            return common_pair(self, other)
        if isinstance(other, (int, Fraction)):
            return self, self.ring.coerce(other)
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return AlgebraElement(a.ring, a.ring._add(a.data, b.data))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return AlgebraElement(a.ring, a.ring._sub(a.data, b.data))

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return AlgebraElement(a.ring, a.ring._sub(b.data, a.data))

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return AlgebraElement(a.ring, a.ring._mul(a.data, b.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return AlgebraElement(a.ring, a.ring._mul(a.data, a.ring._inv(b.data)))

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return AlgebraElement(a.ring, a.ring._mul(b.data, a.ring._inv(a.data)))

    def __neg__(self):
        return AlgebraElement(self.ring, self.ring._neg(self.data))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return self.ring.one()
        if e < 0:
            return power(self.inverse(), -e)
        return power(self, e)

    def inverse(self) -> "AlgebraElement":
        return AlgebraElement(self.ring, self.ring._inv(self.data))

    def is_zero(self) -> bool:
        return self.ring._is_zero(self.data)

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.ring._canonical(a.data) == b.ring._canonical(b.data)

    def __hash__(self):
        return hash((self.ring.signature, self.ring._canonical(self.data)))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return self.ring._str(self.data)

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"


def lift(elem: AlgebraElement, target: CoefficientRing) -> AlgebraElement:
    """Embed elem into target along the tower, or raise TowerError."""
    if elem.ring == target:
        return elem
    # Artinian algebras embed their base; extension fields embed F_p.
    embed = getattr(target, "embed_from_below", None)
    if embed is not None:
        return embed(elem)
    if isinstance(target, ExtensionField) and elem.ring == target.base:
        return target.coerce(elem)
    raise TowerError(f"cannot lift element of {elem.ring!r} into {target!r}")


def common_pair(a: AlgebraElement, b: AlgebraElement):
    """Bring two elements into a common ring (the higher of the two)."""
    try:
        return a, lift(b, a.ring)
    except TowerError:
        pass
    try:
        return lift(a, b.ring), b
    except TowerError:
        return None
