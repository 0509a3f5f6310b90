"""Small helpers for printing algebraic values in re-parseable form."""

from __future__ import annotations

from fractions import Fraction


def needs_parens(s: str) -> bool:
    return any(ch in s for ch in " +-")


def power_string(var: str, exponent: int) -> str:
    """The variable part of a term, e.g. ('z', -1) -> 'z^-1'; empty at exponent 0."""
    if exponent == 0:
        return ""
    return var if exponent == 1 else f"{var}^{exponent}"


def format_terms(terms) -> str:
    """Join (coeff_str, is_negative, var_part) triples, in the order given, into an expression.

    The one printer of polynomials, series and Artinian elements.  coeff_str
    is the string of the absolute value when is_negative; an empty var_part
    leaves the coefficient alone, and ('3', True, 'z^-1') reads '-3*z^-1'.
    """
    parts = []
    for coeff, neg, var_part in terms:
        if var_part:
            if coeff == "1":
                coeff = var_part
            else:
                coeff = f"({coeff})*{var_part}" if needs_parens(coeff) else f"{coeff}*{var_part}"
        if parts:
            parts.append(f"- {coeff}" if neg else f"+ {coeff}")
        else:
            parts.append(f"-{coeff}" if neg else coeff)
    return " ".join(parts) or "0"


def split_sign(ring, data) -> tuple[str, bool]:
    """String of |x| and a negativity flag for the element of ring with raw data.

    Only a rational (Fraction data) is ever negative; every other element
    prints as ``ring._str(data)``, so no element is boxed to print it.
    """
    if isinstance(data, Fraction) and data < 0:
        return str(-data), True
    return ring._str(data), False
