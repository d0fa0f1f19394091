"""Independent output checks; none of this calls charsum.

- p < 2^26: a direct sum of Legendre symbols with numpy (a table of
  squares, then Horner over all of F_p).
- f_n above that: a group-order certificate.  For a random x0 with
  r = f(x0) != 0, the point (r x0, r^2) lies on
  y^2 = x^3 + r c2 x^2 + r^2 c1 x + r^3 c0, which is the curve itself when
  r is a square and its quadratic twist when it is not; the group orders
  are p + 1 + S and p + 1 - S.  S must also satisfy the Hasse bound.
- Hasse rows: N1 + 2 N2 = (p-1)/2, and N1 = 0 (p = 1 mod 4) or 3h, with h
  counted here by reduced binary quadratic forms.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from workloads import CM_N, Query, cubic_coeffs, derived_coeffs

DIRECT_CAP = 1 << 26


class WrongValue(Exception):
    """The program answered, and the answer is wrong."""


# ---------------------------------------------------------------------------
# direct summation


@lru_cache(maxsize=2)
def _chi(p: int) -> np.ndarray:
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    x = np.arange(1, p, dtype=np.int64)
    chi[x * x % p] = 1
    return chi


def direct_sum(coeffs, p: int) -> int:
    """sum_x (f(x)|p) for f with little-endian coefficients, p < 2^26."""
    x = np.arange(p, dtype=np.int64)
    v = np.full(p, coeffs[-1] % p, dtype=np.int64)
    for c in reversed(coeffs[:-1]):  # Horner in place: v < p < 2^26 keeps v * x + c in int64
        v *= x
        v += c % p
        np.remainder(v, p, out=v)
    return int(_chi(p)[v].sum(dtype=np.int64))


# ---------------------------------------------------------------------------
# group-order certificate on y^2 = x^3 + a2 x^2 + a4 x + a6


def _ec_add(P, Q, a2: int, a4: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - a2 - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k: int, P, a2: int, a4: int, p: int):
    acc = None
    while k:
        if k & 1:
            acc = _ec_add(acc, P, a2, a4, p)
        P = _ec_add(P, P, a2, a4, p)
        k >>= 1
    return acc


def group_order_certifies(coeffs, p: int, S: int, rng: random.Random) -> bool:
    """True iff S passes the Hasse bound and the order test on E and its twist."""
    if S * S > 4 * p:
        return False
    c0, c1, c2 = coeffs[0], coeffs[1], coeffs[2]
    need = {1, -1}
    while need:
        x0 = rng.randrange(p)
        r = (((x0 + c2) * x0 + c1) * x0 + c0) % p
        if r == 0:
            continue
        chi = 1 if pow(r, (p - 1) // 2, p) == 1 else -1
        if chi not in need:
            continue
        need.discard(chi)
        point = (r * x0 % p, r * r % p)
        a2, a4 = r * c2 % p, r * r % p * c1 % p
        if _ec_mul(p + 1 + chi * S, point, a2, a4, p) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# class numbers and Hasse rows


def class_number(p: int) -> int:
    """h(-p) for p = 3 mod 4, h(-4p) otherwise, by reduced forms."""
    d = -p if p % 4 == 3 else -4 * p
    count = 0
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c) or math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            count += 1
    return count


# ---------------------------------------------------------------------------


def query_poly(q: Query) -> list[int]:
    """The polynomial whose character sum the query asks for."""
    p, prm = q.p, dict(q.params)
    if q.kind == "evaluate":
        return list(q.coeffs)
    if q.family == "legendre":
        b = prm["beta"]
        return [0, b % p, -(1 + b) % p, 1]
    if q.family == "newton":
        k2, b = prm["k"] ** 2 % p, prm["beta"] % p
        return [b, 0, -(k2 * b + 1) % p, 0, k2]
    if q.family == "edwards":
        c2, d = prm["c"] ** 2 % p, prm["d"] % p
        return [c2, 0, -(c2 * c2 * d + 1) % p, 0, c2 * d % p]
    n = int(q.family[1:])
    return (cubic_coeffs if q.family[0] == "f" else derived_coeffs)(n, prm["a"], p)


class Checker:
    """Checks answers to queries; raises WrongValue with the case on a mismatch."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"check:{seed}")

    def expected_sum(self, q: Query, S: int) -> bool:
        if q.p < DIRECT_CAP:
            return direct_sum(query_poly(q), q.p) == S
        if q.family and q.family[0] == "f" and int(q.family[1:]) in CM_N:
            return group_order_certifies(query_poly(q), q.p, S, self.rng)
        raise WrongValue(f"no independent check for {q}")

    def check(self, q: Query, answer: tuple) -> None:
        if q.kind == "hasse_row":
            n1, n2, h = answer
            p = q.p
            h_own = class_number(p)
            ok = (
                n1 + 2 * n2 == (p - 1) // 2
                and n1 == (0 if p % 4 == 1 else 3 * h_own)
                and h == h_own
            )
            if not ok:
                raise WrongValue(f"{q}: N1={n1} N2={n2} h={h}, own h={h_own}")
            return
        S = answer[0]
        if q.kind == "count":
            affine, projective = answer[1], answer[2]
            if affine != q.p + S or projective != q.p + 1 + S:
                raise WrongValue(f"{q}: S={S} but affine={affine} projective={projective}")
        if not self.expected_sum(q, S):
            raise WrongValue(f"{q}: S={S} is wrong")
