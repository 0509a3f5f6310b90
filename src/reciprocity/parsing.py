"""Expression grammar and field/ring spec strings.

Grammar: integers, one variable (`x` for rational functions, `z` for
series), `+ - * /`, `^` with a literal (possibly negative) integer
exponent, parentheses, and declared generator names.  Series expressions
may end in `+ O(z^N)`, which truncates the precision to N; printing a
series emits the same marker, so text output round-trips.

Field specs: `Q`, `F5`, `F9:u^2+1` (modulus over F_p in `u`; omitted
modulus picks the lexicographically first irreducible).  Ring specs:
`Q[e1,e2]/(e1^2,e2^2)` with one pure-power relation per generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

from .artinian import ArtinianAlgebra
from .curve import RationalFunction
from .errors import ExpressionError, FactorError
from .factor import is_irreducible
from .fields import BaseField, ExtensionField, PrimeField, QQ, find_irreducible, is_prime
from .laurent import DEFAULT_PRECISION, LaurentSeries
from .poly import Polynomial

# -- tokens -------------------------------------------------------------------


@dataclass
class Token:
    kind: str  # INT NAME OP LPAREN RPAREN EOF
    text: str
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], col))
            i = j
        elif ch in "+-*/^":
            tokens.append(Token("OP", ch, col))
            i += 1
        elif ch == "(":
            tokens.append(Token("LPAREN", ch, col))
            i += 1
        elif ch == ")":
            tokens.append(Token("RPAREN", ch, col))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", column=col)
    tokens.append(Token("EOF", "", n + 1))
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

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.current
        if tok.kind != kind or (text is not None and tok.text != text):
            what = text or kind
            self.error(f"expected {what!r}")
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
            return Pow(base, self.signed_int())
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


class _RationalContext:
    def __init__(self, field: BaseField, names: dict):
        self.field = field
        self.names = names

    def eval(self, node):
        if isinstance(node, Num):
            return RationalFunction.constant(self.field, node.value)
        if isinstance(node, Name):
            if node.name == "x":
                return RationalFunction.x(self.field)
            if node.name in self.names:
                return RationalFunction.constant(self.field, self.names[node.name])
            raise ExpressionError(f"unknown name {node.name!r}", column=node.column)
        if isinstance(node, Neg):
            return -self.eval(node.child)
        if isinstance(node, Pow):
            return self.eval(node.base) ** node.exponent
        if isinstance(node, BigO):
            raise ExpressionError("O(...) is only meaningful in series expressions")
        if isinstance(node, BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
        raise AssertionError(f"unhandled node {node!r}")


class _SeriesContext:
    def __init__(self, ring, names: dict, prec: int):
        self.ring = ring
        self.names = names
        self.prec = prec

    def eval(self, node):
        if isinstance(node, Num):
            return LaurentSeries.constant(self.ring, node.value)
        if isinstance(node, Name):
            if node.name == "z":
                return LaurentSeries.monomial(self.ring, 1)
            if node.name in self.names:
                return LaurentSeries.constant(self.ring, self.names[node.name])
            raise ExpressionError(f"unknown name {node.name!r}", column=node.column)
        if isinstance(node, Neg):
            return -self.eval(node.child)
        if isinstance(node, Pow):
            return self.eval(node.base).power(node.exponent, rel_prec=self.prec)
        if isinstance(node, BigO):
            return LaurentSeries.zero(self.ring, node.exponent)
        if isinstance(node, BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left * right.inverse(rel_prec=self.prec)
        raise AssertionError(f"unhandled node {node!r}")


def _ring_names(ring) -> dict:
    names = {}
    base = ring
    if isinstance(ring, ArtinianAlgebra):
        for i, name in enumerate(ring.names):
            names[name] = ring.generator(i)
        base = ring.base
    if isinstance(base, ExtensionField):
        gen = base.generator()
        if isinstance(ring, ArtinianAlgebra):
            gen = ring.embed_from_below(gen)
        names[base.name] = gen
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
    ast = parse_ast(text)
    return _RationalContext(field, _ring_names(field)).eval(ast)


@_bounded_depth
def parse_series(text: str, ring, prec: int = DEFAULT_PRECISION) -> LaurentSeries:
    """Parse a Laurent series in z over the coefficient ring."""
    ast = parse_ast(text, series_var="z")
    return _SeriesContext(ring, _ring_names(ring), prec).eval(ast)


def parse_polynomial(text: str, field: BaseField, var: str = "x") -> Polynomial:
    """Parse a polynomial (a rational function with trivial denominator)."""
    normalized = text.replace(var, "x") if var != "x" else text
    rf = parse_rational(normalized, field)
    if rf.den.degree != 0:
        raise ExpressionError("expected a polynomial, found a denominator")
    return rf.num


@_bounded_depth
def parse_factored_rational(text: str, field: BaseField) -> RationalFunction:
    """Parse a product of declared-irreducible factors into a cached form.

    The expression tree is walked structurally: `*`, `/`, `^` and unary
    minus combine factors; every other subtree is evaluated and becomes one
    declared factor (its leading coefficient joins the constant).
    """
    ast = parse_ast(text)
    constant = [field.one()]
    factors: dict[Polynomial, int] = {}

    def walk(node, power: int):
        if isinstance(node, BinOp) and node.op == "*":
            walk(node.left, power)
            walk(node.right, power)
            return
        if isinstance(node, BinOp) and node.op == "/":
            walk(node.left, power)
            walk(node.right, -power)
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
        value = _RationalContext(field, _ring_names(field)).eval(node)
        if value.den.degree != 0:
            raise FactorError("factored input must be a product of polynomial factors")
        poly = value.num
        if poly.is_zero():
            raise FactorError("zero factor in factored input")
        lc = poly.leading_coefficient()
        constant[0] = constant[0] * lc**power
        if poly.degree == 0:
            return
        poly = poly.monic()
        factors[poly] = factors.get(poly, 0) + power

    walk(ast, 1)
    pairs = [(p, e) for p, e in factors.items() if e]
    for p, _ in pairs:
        if is_irreducible(p) is False:
            raise FactorError(f"declared factor {p} is reducible; split it further")
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
    if is_prime(q):
        if modulus_text is not None:
            raise ExpressionError("prime fields take no modulus")
        return PrimeField(q)
    p, d = _prime_power(q)
    if p is None:
        raise ExpressionError(f"{q} is not a prime power")
    if modulus_text is None:
        return ExtensionField(p, find_irreducible(p, d))
    modulus = parse_polynomial(modulus_text, PrimeField(p), var="u")
    if modulus.degree != d:
        raise ExpressionError(f"modulus degree {modulus.degree} does not match F{q}")
    return ExtensionField(p, [c.data for c in modulus.coeffs])


def _prime_power(q: int):
    p = 2
    while p * p <= q:
        if q % p == 0:
            d = 0
            n = q
            while n % p == 0:
                n //= p
                d += 1
            return (p, d) if n == 1 else (None, None)
        p += 1
    return (q, 1)


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
