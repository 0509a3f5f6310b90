"""Expression grammar and field/ring spec strings.

Grammar: integers, one variable (`x` for rational functions, `z` for
series), `+ - * /`, `^` with a literal integer exponent e, |e| <= 64
(`factor.DEGREE_BUDGET`), parentheses, and declared generator names.  A
power of a polynomial, rational function or exact series whose degree would
pass the same budget is refused before it is built, so `((x+2)^64)^64` fails
at once.  Series expressions may end in `+ O(z^N)`, which truncates the
precision to N; printing a series emits the same marker, so text output
round-trips.  Series are parsed at a precision of at most
`laurent.PRECISION_BUDGET`.

Evaluation: integers and generator names are coefficient-ring elements, and
`+ - *` stay in the operands' own types until the variable enters.  Only `/`
and a negative `^` lift to the top type: RationalFunction for rational input,
and for series `inverse`/`power` at the parse precision.

Field specs: `Q`, `F5`, `F9:u^2+1` (modulus over F_p in `u`; omitted
modulus picks the lexicographically first irreducible).  Ring specs:
`Q[e1,e2]/(e1^2,e2^2)` with one pure-power relation per generator.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import wraps

from .artinian import ArtinianAlgebra
from .curve import RationalFunction
from .errors import DomainError, ExpressionError, FactorError
from .factor import DEGREE_BUDGET
from .fields import PRIME_TEST_BOUND, BaseField, ExtensionField, PrimeField, QQ, find_irreducible, is_prime
from .laurent import DEFAULT_PRECISION, PRECISION_BUDGET, LaurentSeries
from .poly import Polynomial

# -- tokens -------------------------------------------------------------------


@dataclass
class Token:
    kind: str  # INT NAME OP LPAREN RPAREN EOF
    text: str
    column: int


# the kind of a token by its first character; any other first character
# starts a NAME if it is a letter or "_" and is unexpected if not, so a
# non-ASCII digit such as "²" is refused, never read as an integer
_KIND = {"(": "LPAREN", ")": "RPAREN", **dict.fromkeys("+-*/^", "OP"), **dict.fromkeys("0123456789", "INT")}
# each match is (whitespace, token): ASCII digits, a run of str.isalnum()
# characters and "_" (which is what \w is), or one other non-space character
# (\s is str.isspace()).  re compiles it on the first call and caches it.
_TOKEN = r"(\s*)([0-9]+|\w+|\S)"


def _tokenize(text: str) -> list[Token]:
    tokens = []
    col = 1
    for space, word in re.findall(_TOKEN, text):
        col += len(space)
        kind = _KIND.get(word[0])
        if kind is None:
            if not (word[0].isalpha() or word[0] == "_"):
                raise ExpressionError(f"unexpected character {word[0]!r}", column=col)
            kind = "NAME"
        tokens.append(Token(kind, word, col))
        col += len(word)
    tokens.append(Token("EOF", "", len(text) + 1))
    return tokens


# -- AST ----------------------------------------------------------------------


@dataclass
class Num:
    value: int


@dataclass
class Name:
    name: str
    column: int


@dataclass
class Neg:
    child: object


@dataclass
class BinOp:
    op: str
    left: object
    right: object


@dataclass
class Pow:
    base: object
    exponent: int


@dataclass
class BigO:
    exponent: int


class _Parser:
    def __init__(self, tokens: list[Token], series_var: str | None):
        self.tokens = tokens
        self.pos = 0
        self.series_var = series_var

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _last_column(self) -> int:
        if self.pos == 0:
            return 1
        return self.tokens[self.pos - 1].column

    def error(self, message: str):
        tok = self.current
        col = self._last_column() if tok.kind == "EOF" else tok.column
        raise ExpressionError(message, column=col)

    def advance(self) -> Token:
        tok = self.current
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        if self.current.kind != kind:
            self.error(f"expected {kind!r}")
        return self.advance()

    def parse(self):
        node = self.expr()
        if self.current.kind != "EOF":
            self.error(f"unexpected {self.current.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.current.kind == "OP" and self.current.text in "+-":
            op = self.advance().text
            right = self.term()
            node = BinOp(op, node, right)
        return node

    def term(self):
        node = self.factor()
        while self.current.kind == "OP" and self.current.text in "*/":
            op = self.advance().text
            right = self.factor()
            node = BinOp(op, node, right)
        return node

    def factor(self):
        if self.current.kind == "OP" and self.current.text == "-":
            self.advance()
            return Neg(self.factor())
        if self.current.kind == "OP" and self.current.text == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.current.kind == "OP" and self.current.text == "^":
            self.advance()
            e = self.signed_int()
            if abs(e) > DEGREE_BUDGET:
                raise DomainError(f"exponent {e} is above the budget: |e| <= {DEGREE_BUDGET}")
            return Pow(base, e)
        return base

    def signed_int(self) -> int:
        sign = 1
        if self.current.kind == "LPAREN":
            self.advance()
            value = self.signed_int()
            self.expect("RPAREN")
            return value
        if self.current.kind == "OP" and self.current.text in "+-":
            if self.advance().text == "-":
                sign = -1
        tok = self.current
        if tok.kind != "INT":
            self.error("expected an integer exponent")
        self.advance()
        return sign * int(tok.text)

    def atom(self):
        tok = self.current
        if tok.kind == "INT":
            self.advance()
            return Num(int(tok.text))
        if tok.kind == "NAME":
            self.advance()
            if tok.text == "O" and self.series_var is not None:
                self.expect("LPAREN")
                var = self.expect("NAME")
                if var.text != self.series_var:
                    self.error(f"precision marker must use {self.series_var!r}")
                if self.current.kind == "OP" and self.current.text == "^":
                    self.advance()
                    e = self.signed_int()
                else:
                    e = 1
                self.expect("RPAREN")
                return BigO(e)
            return Name(tok.text, tok.column)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN")
            return node
        self.error(f"unexpected {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input")


def parse_ast(text: str, series_var: str | None = None):
    return _Parser(_tokenize(text), series_var).parse()


# -- evaluation ---------------------------------------------------------------


# every binary operator but `/`, which ``divide`` takes to the top type
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class _Evaluator:
    """The one AST walk; subclasses say how ``/`` and a negative ``^`` reach the top type."""

    def __init__(self, ring, var: str, x):
        self.ring = ring
        self.names = _ring_names(ring)
        self.var = var
        self.x = x

    def eval(self, node):
        if isinstance(node, Num):
            return self.ring.from_int(node.value)
        if isinstance(node, Name):
            if node.name == self.var:
                return self.x
            if node.name in self.names:
                return self.names[node.name]
            raise ExpressionError(f"unknown name {node.name!r}", column=node.column)
        if isinstance(node, Neg):
            return -self.eval(node.child)
        if isinstance(node, Pow):
            base = self.eval(node.base)
            _check_power(base, node.exponent)
            return base**node.exponent if node.exponent >= 0 else self.power(base, node.exponent)
        if isinstance(node, BigO):
            return LaurentSeries.zero(self.ring, node.exponent)
        left = self.eval(node.left)
        right = self.eval(node.right)
        return _OPERATORS.get(node.op, self.divide)(left, right)


def _check_power(base, exponent: int):
    """Refuse base**exponent before it is built if its degree is above DEGREE_BUDGET.

    The degree grows with the exponent for a polynomial, for a rational
    function (the larger of its numerator and denominator degrees) and for an
    exact series raised to a positive power (its support width); a truncated
    series keeps its precision, and ring elements stay constants.
    """
    if isinstance(base, RationalFunction):
        degree = max(base.num.degree, base.den.degree)
    elif isinstance(base, Polynomial):
        degree = base.degree
    elif isinstance(base, LaurentSeries) and base.is_exact() and base.data and exponent > 0:
        degree = len(base.data) - 1
    else:
        return
    if degree * abs(exponent) > DEGREE_BUDGET:
        raise DomainError(
            f"a power of degree {degree * abs(exponent)} is above the budget: degree <= {DEGREE_BUDGET}"
        )


class _RationalEvaluator(_Evaluator):
    def __init__(self, field: BaseField, var: str = "x"):
        super().__init__(field, var, Polynomial.x(field))

    def polynomial(self, value, error: Exception | None) -> Polynomial:
        """value as a Polynomial; raises error if it has a denominator."""
        if isinstance(value, RationalFunction):
            if value.den.degree != 0:
                raise error
            return value.num
        return value if isinstance(value, Polynomial) else Polynomial.constant(self.ring, value)

    def lift(self, value) -> RationalFunction:
        if isinstance(value, RationalFunction):
            return value
        return RationalFunction(self.ring, self.polynomial(value, None))

    def divide(self, left, right):
        return self.lift(left) / right

    def power(self, base, e: int):
        return self.lift(base) ** e


class _SeriesEvaluator(_Evaluator):
    def __init__(self, ring, prec: int):
        super().__init__(ring, "z", LaurentSeries.monomial(ring, 1))
        self.prec = prec

    def lift(self, value) -> LaurentSeries:
        return value if isinstance(value, LaurentSeries) else LaurentSeries.constant(self.ring, value)

    def divide(self, left, right):
        return left * self.lift(right).inverse(rel_prec=self.prec)

    def power(self, base, e: int):
        return self.lift(base).power(e, rel_prec=self.prec)


def _ring_names(ring) -> dict:
    """Generator name -> element of ring, for the Artinian and F_q generators."""
    names = {}
    base = ring
    if isinstance(ring, ArtinianAlgebra):
        names = {name: ring.generator(i) for i, name in enumerate(ring.names)}
        base = ring.base
    if isinstance(base, ExtensionField):
        names[base.name] = ring.coerce(base.generator())
    return names


def _bounded_depth(parse):
    """parse, with input nested deeper than the interpreter's stack an ExpressionError."""

    @wraps(parse)
    def bounded(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except RecursionError:
            raise ExpressionError("expression nests too deeply") from None

    return bounded


@_bounded_depth
def parse_rational(text: str, field: BaseField) -> RationalFunction:
    """Parse a rational function in x over the field."""
    evaluator = _RationalEvaluator(field)
    return evaluator.lift(evaluator.eval(parse_ast(text)))


@_bounded_depth
def parse_series(text: str, ring, prec: int = DEFAULT_PRECISION) -> LaurentSeries:
    """Parse a Laurent series in z over the coefficient ring, at most PRECISION_BUDGET."""
    if prec > PRECISION_BUDGET:
        raise DomainError(f"precision {prec} is above the budget: prec <= {PRECISION_BUDGET}")
    evaluator = _SeriesEvaluator(ring, prec)
    return evaluator.lift(evaluator.eval(parse_ast(text, series_var="z")))


@_bounded_depth
def parse_polynomial(text: str, field: BaseField) -> Polynomial:
    """Parse a polynomial in u over the field, as a field modulus is written."""
    evaluator = _RationalEvaluator(field, "u")
    value = evaluator.eval(parse_ast(text))
    return evaluator.polynomial(value, ExpressionError("expected a polynomial, found a denominator"))


@_bounded_depth
def parse_factored_rational(text: str, field: BaseField) -> RationalFunction:
    """Parse a product of declared-irreducible factors into a cached form.

    The expression tree is walked structurally: `*`, `/`, `^` and unary
    minus combine factors; every other subtree is evaluated and becomes one
    declared factor (its leading coefficient joins the constant).
    """
    ast = parse_ast(text)
    evaluator = _RationalEvaluator(field)
    constant = [field.one()]
    factors: dict[Polynomial, int] = {}

    def walk(node, power: int):
        if isinstance(node, BinOp) and node.op in "*/":
            walk(node.left, power)
            walk(node.right, power if node.op == "*" else -power)
            return
        if isinstance(node, Pow):
            walk(node.base, power * node.exponent)
            return
        if isinstance(node, Neg):
            constant[0] = constant[0] * field.from_int(-1) ** power
            walk(node.child, power)
            return
        if isinstance(node, Num):
            constant[0] = constant[0] * field.from_int(node.value) ** power
            return
        error = FactorError("factored input must be a product of polynomial factors")
        poly = evaluator.polynomial(evaluator.eval(node), error)
        if poly.is_zero():
            raise FactorError("zero factor in factored input")
        lc = poly.leading_coefficient()
        constant[0] = constant[0] * lc**power
        if poly.degree == 0:
            return
        _check_power(poly, power)
        poly = poly.monic()
        factors[poly] = factors.get(poly, 0) + power

    walk(ast, 1)
    pairs = [(p, e) for p, e in factors.items() if e]
    return RationalFunction.from_factored(field, constant[0], pairs)


# -- field and ring specs -----------------------------------------------------


def parse_field_spec(spec: str) -> BaseField:
    s = spec.strip()
    if s in ("Q", "QQ"):
        return QQ
    if not s.startswith("F"):
        raise ExpressionError(f"unknown field spec {spec!r}")
    body = s[1:]
    modulus_text = None
    if ":" in body:
        body, modulus_text = body.split(":", 1)
    try:
        q = int(body)
    except ValueError:
        raise ExpressionError(f"unknown field spec {spec!r}") from None
    if q < 2:
        raise ExpressionError(f"invalid field size {q}")
    if q >= PRIME_TEST_BOUND:
        # above it is_prime is no longer exact, and gets slow long before int() gives up
        raise DomainError(f"field size of {q.bit_length()} bits is too large: q must be below {PRIME_TEST_BOUND}")
    if is_prime(q):
        if modulus_text is not None:
            raise ExpressionError("prime fields take no modulus")
        return PrimeField(q)
    p, d = _prime_power(q)
    if p is None:
        raise ExpressionError(f"{q} is not a prime power")
    if modulus_text is None:
        return ExtensionField(p, find_irreducible(p, d))
    modulus = parse_polynomial(modulus_text, PrimeField(p))
    if modulus.degree != d:
        raise ExpressionError(f"modulus degree {modulus.degree} does not match F{q}")
    return ExtensionField(p, [c.data for c in modulus.coeffs])


def _prime_power(q: int):
    """(p, d) with q = p^d, p prime and d >= 2, or (None, None); exact roots, no trial division."""
    d = 1
    for r in filter(is_prime, range(2, q.bit_length() + 1)):
        while (p := _integer_root(q, r)) ** r == q:
            q, d = p, d * r
    return (q, d) if d > 1 and is_prime(q) else (None, None)


def _integer_root(n: int, d: int) -> int:
    """floor(n^(1/d)), by Newton's method from a float estimate above it."""
    e = math.log2(n) / d + 1e-9
    x = int(2**e) + 2 if e < 1000 else 1 << -(-n.bit_length() // d)
    while (y := ((d - 1) * x + n // x ** (d - 1)) // d) < x:
        x = y
    return x


def parse_ring_spec(spec: str):
    """`Q[e1,e2]/(e1^2,e2^2)` -> ArtinianAlgebra; a bare field spec -> field."""
    s = spec.strip()
    if "[" not in s:
        return parse_field_spec(s)
    head, rest = s.split("[", 1)
    base = parse_field_spec(head)
    if "]" not in rest:
        raise ExpressionError("ring spec is missing ']'")
    names_part, tail = rest.split("]", 1)
    names = [n.strip() for n in names_part.split(",") if n.strip()]
    tail = tail.strip()
    if not tail.startswith("/(") or not tail.endswith(")"):
        raise ExpressionError("ring spec needs relations of the form /(e1^2,e2^2)")
    rels = {}
    for chunk in tail[2:-1].split(","):
        chunk = chunk.strip()
        if "^" not in chunk:
            raise ExpressionError(f"relation {chunk!r} must be a pure power")
        name, order_text = chunk.split("^", 1)
        name = name.strip()
        try:
            order = int(order_text)
        except ValueError:
            raise ExpressionError(f"bad exponent in relation {chunk!r}") from None
        if name in rels:
            raise ExpressionError(f"duplicate relation for {name!r}")
        rels[name] = order
    if set(rels) != set(names):
        raise ExpressionError("relations must cover each generator exactly once")
    return ArtinianAlgebra(base, [(n, rels[n]) for n in names])
