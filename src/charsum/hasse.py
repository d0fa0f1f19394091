"""The Hasse (Deuring) polynomial H and everything it certifies.

H(x) = (-1)^m sum_k C(m,k)^2 x^k with m = (p-1)/2.  For the Legendre
cubic x(x-1)(x-beta), H(beta) mod p is the trace of Frobenius, so the
character sum is the negated centered lift -- exact once 2 sqrt(p) < p/2,
i.e. for p >= 17 (below that we fall back to direct summation, which is
free at that size).

The printed congruence "S = +H(beta)" found in parts of the literature
has the wrong sign; the p = 5, beta = 2 witness (S = 2, H(2) = 3 = -2)
settles it, and the point-count convention #E = p + 1 + (H(beta) mod p)
is the normative one.  Factor counting uses Frobenius-gcd degrees over a
vectorised polynomial layer, not full factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import ec
from .algebra import FpPolynomial, as_modulus, centered_lift, inv_mod
from .oracle import SumValue, char_sum_coeffs

_FROBENIUS_CAP = 1_000_000  # keeps convolution sums inside int64
_HASSE_CAP = 1 << 26  # the coefficient table is O(p) memory; beyond this, refuse


@lru_cache(maxsize=32)
def _hasse_coeffs(p: int) -> np.ndarray:
    """Coefficient vector of H mod p, built by the running binomial ratio."""
    if p >= _HASSE_CAP:
        raise ValueError(f"Hasse-polynomial evaluation refused for p >= 2^26 (got {p})")
    m = (p - 1) // 2
    sign = p - 1 if m % 2 else 1
    out = np.zeros(m + 1, dtype=np.int64)
    # inverses of 1..m by the standard recurrence
    inv = [0] * (m + 2)
    if m >= 1:
        inv[1] = 1
        for i in range(2, m + 1):
            inv[i] = (p - p // i) * inv[p % i] % p
    b = 1  # C(m, k) mod p
    for k in range(m + 1):
        out[k] = sign * b * b % p
        if k < m:
            b = b * ((m - k) % p) % p * inv[k + 1] % p
    return out


@dataclass(frozen=True)
class HassePolynomial:
    """H over F_p: degree m = (p-1)/2, palindromic squared-binomial coefficients."""

    p: int
    m: int
    coeffs: tuple[int, ...]

    @classmethod
    def build(cls, p) -> "HassePolynomial":
        p = as_modulus(p)
        c = _hasse_coeffs(p)
        return cls(p=p, m=(p - 1) // 2, coeffs=tuple(int(x) for x in c))

    def as_poly(self) -> FpPolynomial:
        return FpPolynomial.make(self.p, self.coeffs)


def hasse_eval(beta: int, p) -> int:
    """H(beta) mod p in O(p) multiplications; no factorials stored."""
    p = as_modulus(p)
    c = _hasse_coeffs(p)
    acc = 0
    b = beta % p
    for k in range(len(c) - 1, -1, -1):
        acc = (acc * b + int(c[k])) % p
    return acc


def hasse_eval_batch(betas: Sequence[int], p) -> np.ndarray:
    """H(beta) mod p for a vector of betas (Horner over the cached table)."""
    p = as_modulus(p)
    c = _hasse_coeffs(p)
    xs = np.asarray(betas, dtype=np.int64) % p
    acc = np.zeros(len(xs), dtype=np.int64)
    for k in range(len(c) - 1, -1, -1):
        acc = (acc * xs + int(c[k])) % p
    return acc


def is_supersingular(beta: int, p) -> bool:
    """y^2 = x(x-1)(x-beta) is supersingular iff H(beta) = 0 mod p."""
    p = as_modulus(p)
    if beta % p in (0, 1):
        raise ValueError("beta in {0, 1} is a degenerate curve")
    return hasse_eval(beta, p) == 0


def legendre_form_sum(beta: int, p) -> SumValue:
    """Exact S for the Legendre cubic x(x-1)(x-beta).

    For p >= 17 the trace lift is certified (|a_p| <= 2 sqrt(p) < p/2) and
    S = -lift(H(beta)); smaller p delegate to direct summation.  From
    ec.GROUP_ORDER_MIN_P on, the O(p) evaluation of H gives way to the
    O(p^1/4) group-order search, which certifies the same a_p.
    """
    p = as_modulus(p)
    b = beta % p
    if b in (0, 1):
        raise ValueError("beta in {0, 1} is a degenerate curve")
    coeffs = (0, b, (-(1 + b)) % p, 1)
    if p < 17:
        return SumValue(char_sum_coeffs(coeffs, p), method="legendre_form/oracle_small_p")
    if p >= ec.GROUP_ORDER_MIN_P:
        s, points = ec.cubic_sum(coeffs, p)
        return SumValue(s, method="legendre_form/group_order", parts=(("a_p", -s), ("points", points)))
    ap = centered_lift(hasse_eval(b, p), p)
    return SumValue(-ap, method="legendre_form/hasse_lift", parts=(("a_p", ap),))


def legendre_form_sum_batch(betas: Sequence[int], p) -> np.ndarray:
    """Vectorised legendre_form_sum for p >= 17 (trace lifts, negated)."""
    p = as_modulus(p)
    if p < 17:
        raise ValueError("batch lift needs p >= 17")
    h = hasse_eval_batch(betas, p)
    lifted = np.where(h > p // 2, h - p, h)
    return -lifted


# ---------------------------------------------------------------------------
# vectorised polynomial layer for the Frobenius-gcd computations


def _npoly_trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    return a[: nz[-1] + 1] if len(nz) else a[:0]


def _npoly_mulmod(a: np.ndarray, b: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    prod = np.convolve(a, b) % p
    return _npoly_rem(prod, h, p)


def _npoly_rem(r: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    """r mod h for monic h."""
    r = r % p
    dh = len(h) - 1
    for i in range(len(r) - 1, dh - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            r[i - dh : i] = (r[i - dh : i] - c * h[:dh]) % p
    return _npoly_trim(r[:dh].copy() if len(r) >= dh else r.copy())


def _npoly_monic(a: np.ndarray, p: int) -> np.ndarray:
    a = _npoly_trim(a % p)
    if len(a) == 0 or a[-1] == 1:
        return a
    return a * inv_mod(int(a[-1]), p) % p


def _npoly_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a, b = _npoly_trim(a % p), _npoly_trim(b % p)
    while len(b):
        b_monic = _npoly_monic(b, p)
        a, b = b_monic, _npoly_rem(a.copy(), b_monic, p)
    return _npoly_monic(a, p)


def _npoly_powmod_x(e: int, h: np.ndarray, p: int) -> np.ndarray:
    """x^e mod h by square-and-multiply."""
    result = np.array([1], dtype=np.int64)
    base = _npoly_rem(np.array([0, 1], dtype=np.int64), h, p)
    while e:
        if e & 1:
            result = _npoly_mulmod(result, base, h, p)
        e >>= 1
        if e:
            base = _npoly_mulmod(base, base, h, p)
    return result


def _npoly_pow(base: np.ndarray, e: int, h: np.ndarray, p: int) -> np.ndarray:
    result = np.array([1], dtype=np.int64)
    base = _npoly_rem(base.copy(), h, p)
    while e:
        if e & 1:
            result = _npoly_mulmod(result, base, h, p)
        e >>= 1
        if e:
            base = _npoly_mulmod(base, base, h, p)
    return result


def _hasse_np(p: int) -> np.ndarray:
    if p > _FROBENIUS_CAP:
        raise ValueError(f"Frobenius factor counting supports p <= {_FROBENIUS_CAP}")
    return _hasse_coeffs(p).copy()


def squarefree_check(p) -> bool:
    """True iff gcd(H, H') is constant, i.e. H has simple roots."""
    p = as_modulus(p)
    if p <= 3:
        raise ValueError("needs p > 3")
    h = _hasse_np(p)
    dh = (np.arange(len(h), dtype=np.int64) * h % p)[1:]
    g = _npoly_gcd(h, dh, p)
    return len(g) <= 1


@dataclass(frozen=True)
class FactorCounts:
    """Linear/quadratic factor counts of H over F_p and the class number h(-p)."""

    p: int
    N1: int
    N2: int
    h: int


def factor_counts(p) -> FactorCounts:
    """N1 = deg gcd(H, x^p - x), N2 from the degree-2 Frobenius gcd.

    Uses modular Frobenius powering, never full factorization; the class
    number is computed independently by reduced-form enumeration so the
    two can be checked against each other.
    """
    p = as_modulus(p)
    if p <= 3:
        raise ValueError("needs p > 3")
    h = _npoly_monic(_hasse_np(p), p)
    xp = _npoly_powmod_x(p, h, p)
    sub = (xp.copy() if len(xp) >= 2 else np.concatenate([xp, np.zeros(2 - len(xp), dtype=np.int64)]))
    sub[1] = (sub[1] - 1) % p
    n1 = len(_npoly_gcd(h, _npoly_trim(sub), p)) - 1
    xp2 = _npoly_pow(xp, p, h, p)
    sub2 = (xp2.copy() if len(xp2) >= 2 else np.concatenate([xp2, np.zeros(2 - len(xp2), dtype=np.int64)]))
    sub2[1] = (sub2[1] - 1) % p
    n2 = (len(_npoly_gcd(h, _npoly_trim(sub2), p)) - 1 - n1) // 2
    return FactorCounts(p=p, N1=max(n1, 0), N2=max(n2, 0), h=class_number(p))


def expected_linear_count(p: int, h: int) -> int:
    """Class-number formula for N1: 0 when p = 1 mod 4, else 3 h(-p).

    Holds at every prime (checked against Frobenius gcds by the harness).
    """
    return 0 if p % 4 == 1 else 3 * h


def printed_quadratic_count(p: int, h: int) -> int:
    """The three-congruence-class formula for N2 as printed in the literature.

    Known erratum: it contradicts N1 + 2 N2 = deg H already at p = 13
    (printed 1, true 3).  Kept for status reporting only; the sound
    invariant is quadratic_count_identity below.
    """
    if p % 4 == 1:
        return h // 2
    if p % 8 == 3:
        return (3 * h - 1) // 2
    return (h - 1) // 2  # p = 7 mod 8


def quadratic_count_identity(fc: FactorCounts) -> bool:
    """H is squarefree with every root in F_p^2, so N1 + 2 N2 = (p-1)/2."""
    return fc.N1 + 2 * fc.N2 == (fc.p - 1) // 2


def factor_count_formulas_hold(fc: FactorCounts) -> bool:
    """Linear-factor formula plus the degree identity (the sound pair)."""
    return fc.N1 == expected_linear_count(fc.p, fc.h) and quadratic_count_identity(fc)


# ---------------------------------------------------------------------------
# class numbers by reduced-form enumeration


def class_number_of_discriminant(d: int) -> int:
    """Number of reduced primitive forms (a, b, c) of discriminant d < 0.

    Reduced: |b| <= a <= c with b >= 0 when |b| = a or a = c.  Exhaustive
    enumeration with a <= sqrt(|d|/3); exact.
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError("discriminant must be negative and 0 or 1 mod 4")
    count = 0
    a_max = math.isqrt(-d // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            count += 1
    return count


def class_number(p) -> int:
    """h of Q(sqrt(-p)): discriminant -p for p = 3 mod 4, else -4p."""
    p = as_modulus(p)
    if p <= 3:
        raise ValueError("needs p > 3")
    d = -p if p % 4 == 3 else -4 * p
    return class_number_of_discriminant(d)
