"""Affine Weierstrass arithmetic over F_p and the group-order trace sign.

Curves are y^2 = x^3 + a2 x^2 + a4 x + a6 over F_p, p odd; the constant
term never enters the group law, and the point at infinity is None.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import legendre

Point = Optional[tuple[int, int]]

_POINTS_TRIED = 32


def add(P: Point, Q: Point, a2: int, a4: int, p: int) -> Point:
    """P + Q on y^2 = x^3 + a2 x^2 + a4 x + a6."""
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


def multiply(k: int, P: Point, a2: int, a4: int, p: int) -> Point:
    """k P for k >= 0, by left-to-right double-and-add."""
    R = None
    for bit in bin(k)[2:]:
        R = add(R, R, a2, a4, p)
        if bit == "1":
            R = add(R, P, a2, a4, p)
    return R


def trace_sign(coeffs: Sequence[int], u: int, p: int) -> Optional[int]:
    """The s in {u, -u} with S(f) = s, for the monic cubic f = (c0, c1, c2, 1).

    #E = p + 1 + S(f) for E: y^2 = f(x).  With r = f(x0) != 0 the point
    (r x0, r^2) lies on y^2 = r^3 f(X / r), the twist of E by r, whose
    order is p + 1 + chi(r) S(f); so no square root is needed.  A point
    certifies the sign when exactly one of (p + 1 +- u) kills it.  None
    when every point tried leaves both signs standing, which by Mestre's
    theorem can persist only for p <= 229.
    """
    c0, c1, c2 = (c % p for c in coeffs[:3])
    for x0 in range(1, min(p, _POINTS_TRIED + 1)):
        r = (((x0 + c2) * x0 + c1) * x0 + c0) % p
        if r == 0:
            continue
        a2, a4 = r * c2 % p, r * r % p * c1 % p
        P = (r * x0 % p, r * r % p)
        Q = multiply(p + 1, P, a2, a4, p)
        R = multiply(u, P, a2, a4, p)
        plus = add(Q, R, a2, a4, p) is None  # (p + 1 + u) P = O
        minus = Q == R  # (p + 1 - u) P = O
        if plus != minus:
            return legendre(r, p) * (u if plus else -u)
    return None
