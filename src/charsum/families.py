"""Constructors for the polynomial families under study.

Nine CM cubics f_n (one per class-number-one imaginary quadratic field),
the derived quartics/sextics g_n obtained from f_n(x^2), and the
Legendre / Newton / Edwards forms.  Integer coefficients are stored in
factored form exactly as they are usually printed, and expanded once at
import, so the tables stay auditable against the literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

from .algebra import FpPolynomial, as_modulus, cubic_discriminant_test
from .exceptions import BadReductionError, ConstraintViolation

N_VALUES = (1, 2, 3, 7, 11, 19, 43, 67, 163)


def _expand(factors: tuple[tuple[int, int], ...]) -> int:
    return prod(q**e for q, e in factors)


# x^3 + C1 * a^2 * x + C0 * a^3, with C1, C0 kept factored.
_DEPRESSED = {
    11: (((2, 5), (3, 1), (11, 1)), ((2, 4), (7, 1), (11, 2))),
    19: (((2, 3), (19, 1)), ((2, 1), (19, 2))),
    43: (((2, 4), (5, 1), (43, 1)), ((2, 1), (3, 1), (7, 1), (43, 2))),
    67: (((2, 3), (5, 1), (11, 1), (67, 1)), ((2, 1), (7, 1), (31, 1), (67, 2))),
    163: (
        ((2, 4), (5, 1), (23, 1), (29, 1), (163, 1)),
        ((2, 1), (7, 1), (11, 1), (19, 1), (127, 1), (163, 2)),
    ),
}

DEPRESSED_CONSTANTS = {
    n: (-_expand(c1), _expand(c0)) for n, (c1, c0) in _DEPRESSED.items()
}

# x * (x^2 + B a x + C a^2) for n = 2, 7
_MONIC_QUADRATIC = {2: (4, 2), 7: (21, 112)}


def _check_reduction(n: int, a: int, p: int, coeffs) -> None:
    if p % 2 == 0 or (2 * a * n) % p == 0:
        raise BadReductionError(f"bad reduction: p={p} divides 2*a*n for n={n}")
    # a few primes kill the discriminant without dividing 2an (e.g. n=11, p=3)
    c = [x % p for x in coeffs]
    rep = cubic_discriminant_test(c[2], c[1], c[0], p)
    if rep.symbol == 0:
        raise BadReductionError(f"singular reduction: disc(f_{n}) = 0 mod {p}")


def cubic_coeffs(n: int, a: int) -> list[int]:
    """Integer coefficients (c0, c1, c2, 1) of f_n with parameter a."""
    if n not in N_VALUES:
        raise ValueError(f"n must be one of {N_VALUES}")
    if n == 1:
        return [0, a, 0, 1]
    if n == 3:
        return [a, 0, 0, 1]
    if n in _MONIC_QUADRATIC:
        b, c = _MONIC_QUADRATIC[n]
        return [0, c * a * a, b * a, 1]
    c1, c0 = DEPRESSED_CONSTANTS[n]
    return [c0 * a**3, c1 * a * a, 0, 1]


def cubic_poly(n: int, a: int, p) -> FpPolynomial:
    """The CM cubic f_n with parameter a, reduced mod p."""
    coeffs = cubic_coeffs(n, a)
    f = FpPolynomial.make(p, coeffs)  # validates the modulus
    if a % f.p == 0:
        raise BadReductionError(f"bad reduction: a = 0 mod {f.p}")
    _check_reduction(n, a, f.p, coeffs)
    return f


def derived_poly(n: int, a: int, p) -> FpPolynomial:
    """The derived family g_n: quartic for n in {1, 2, 7}, else f_n(x^2)."""
    f = cubic_poly(n, a, p)  # validates n and the reduction
    if n == 1:
        return FpPolynomial.make(f.modulus, [a, 0, 0, 0, 1])
    if n in _MONIC_QUADRATIC:
        b, c = _MONIC_QUADRATIC[n]
        return FpPolynomial.make(f.modulus, [c * a * a, 0, b * a, 0, 1])
    return f.at_x_squared()


def quadratic_part(n: int, a: int, p) -> tuple[int, int, int]:
    """Coefficients (A, B, C) of f_n(x)/x for the quartic families n in {1,2,7}."""
    p = as_modulus(p)
    if n == 1:
        return (1, 0, a % p)
    if n in _MONIC_QUADRATIC:
        b, c = _MONIC_QUADRATIC[n]
        return (1, b * a % p, c * a * a % p)
    raise ValueError("quadratic part only defined for n in {1, 2, 7}")


@dataclass(frozen=True)
class FormParams:
    """Parameters for the Legendre cubic, Newton quartic, or Edwards quartic."""

    kind: str  # "legendre" | "newton" | "edwards"
    beta: Optional[int] = None
    k: Optional[int] = None
    c: Optional[int] = None
    d: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("legendre", "newton", "edwards"):
            raise ValueError(f"unknown form kind {self.kind!r}")


def form_poly(params: FormParams, p) -> FpPolynomial:
    """Build the form's polynomial mod p, enforcing its constraint flags."""
    p = as_modulus(p)
    if params.kind == "legendre":
        beta = params.beta % p if params.beta is not None else None
        if beta is None:
            raise ConstraintViolation("beta_missing")
        if beta in (0, 1):
            raise ConstraintViolation("beta_degenerate", f"beta = {beta} mod {p}")
        # x (x - 1) (x - beta)
        return FpPolynomial.make(p, [0, beta, -(1 + beta), 1])
    if params.kind == "newton":
        if params.beta is None or params.k is None:
            raise ConstraintViolation("newton_params_missing")
        beta, k = params.beta % p, params.k % p
        if k == 0:
            raise ConstraintViolation("k_zero")
        if beta in (0, 1, p - 1):
            raise ConstraintViolation("beta_degenerate", f"beta = {beta} mod {p}")
        # (k^2 x^2 - 1)(x^2 - beta)
        k2 = k * k % p
        return FpPolynomial.make(p, [beta, 0, -(k2 * beta + 1), 0, k2])
    # edwards: (x^2 - c^2)(c^2 d x^2 - 1)
    if params.c is None or params.d is None:
        raise ConstraintViolation("edwards_params_missing")
    c, d = params.c % p, params.d % p
    guard = c * d % p * ((1 - pow(c, 4, p) * d) % p) % p
    if guard == 0:
        raise ConstraintViolation("cd(1-c^4 d)_zero")
    c2 = c * c % p
    return FpPolynomial.make(p, [c2, 0, -(c2 * c2 % p * d + 1), 0, c2 * d])


def parse_family_id(family: str) -> tuple[str, Optional[int]]:
    """'f11' -> ('f', 11); 'legendre' -> ('legendre', None)."""
    family = family.strip().lower()
    if family in ("legendre", "newton", "edwards"):
        return family, None
    if family and family[0] in "fg" and family[1:].isdigit():
        n = int(family[1:])
        if n in N_VALUES:
            return family[0], n
    raise ValueError(f"unknown family id {family!r}")
