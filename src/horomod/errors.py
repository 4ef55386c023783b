"""The error contract shared across the library.

ValidationError maps to CLI exit code 3, ResourceError to exit code 4.
clip bounds what a message echoes of its input, and check_size refuses
a number past a cap or past what str can print; binomial is comb capped
at BIG, so no count is multiplied out past it.  DIM_CAP is the default
cap on every dimension: of a module, a character or a product.
"""

from math import comb
from typing import Optional

# Python's default limit on the digits of an int read from a string or
# printed.  No number read from outside has a longer run of digits, and
# no number past it is printed.
MAX_DIGITS = 4300
# The least number of more than MAX_DIGITS digits.
BIG = 10**MAX_DIGITS
DIM_CAP = 2000


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class ResourceError(RuntimeError):
    """A configured size or iteration cap was exceeded."""


def clip(text: str) -> str:
    """text as an error message echoes it: its first 20 characters and
    "..." if it is longer."""
    return text if len(text) <= 20 else text[:20] + "..."


def binomial(n: int, k: int) -> int:
    """comb(n, k); or BIG once (n/d)^d <= comb(n, k), d = min(k, n - k),
    passes it by bit length, so no binomial that big is multiplied out."""
    d = min(k, n - k)
    if d > 0 and ((n // d).bit_length() - 1) * d >= BIG.bit_length():
        return BIG
    return comb(n, k)


def check_size(what: str, n: int, cap: Optional[int] = None) -> int:
    """n, refused when it exceeds cap or has too many digits to print.
    The message shows n, or "of more than MAX_DIGITS digits" for a
    number str could not print."""
    shown = n if n < BIG else f"of more than {MAX_DIGITS} digits"
    if cap is not None and n > cap:
        raise ResourceError(f"{what} {shown} exceeds cap {cap}")
    if n >= BIG:
        raise ResourceError(f"{what} {shown} cannot be printed")
    return n
