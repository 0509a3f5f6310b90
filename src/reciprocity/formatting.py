"""Small helpers for printing algebraic values in re-parseable form."""

from __future__ import annotations

from fractions import Fraction


def needs_parens(s: str) -> bool:
    return any(ch in s for ch in " +-")


def term_string(coeff_str: str, var: str, exponent: int) -> str:
    """One product term, e.g. ('3', 'z', -1) -> '3*z^-1'."""
    if exponent == 0 or not var:
        return coeff_str
    if exponent == 1:
        var_part = var
    else:
        var_part = f"{var}^{exponent}"
    if coeff_str == "1":
        return var_part
    if needs_parens(coeff_str):
        coeff_str = f"({coeff_str})"
    return f"{coeff_str}*{var_part}"


def format_terms(terms, var: str) -> str:
    """Join (coeff_str, is_negative, exponent) triples, in the order given, into an expression.

    coeff_str must be the string of the absolute value when is_negative.
    """
    if not terms:
        return "0"
    parts = []
    for i, (coeff, neg, e) in enumerate(terms):
        body = term_string(coeff, var, e)
        if i == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def split_sign(ring, data) -> tuple[str, bool]:
    """String of |x| and a negativity flag for the element of ring with raw data.

    Only a rational (Fraction data) is ever negative; every other element
    prints as ``ring._str(data)``, so no element is boxed to print it.
    """
    if isinstance(data, Fraction) and data < 0:
        return str(-data), True
    return ring._str(data), False
