"""Affine Weierstrass arithmetic over F_p and genus-1 traces by group order.

Curves are y^2 = x^3 + a2 x^2 + a4 x + a6 over F_p, p odd; the constant
term never enters the group law, and the point at infinity is None.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .algebra import legendre
from .exceptions import TraceUndecidedError

Point = Optional[tuple[int, int]]

_POINTS_TRIED = 32

# Smallest p whose genus-1 sums go by group order.  Below it both paths
# take under 0.2 ms (at 2^9..2^10 the warm-table Hasse lift 0.17 ms, the
# search 0.08 ms), so the paper's Hasse lift keeps the small primes, with
# a margin above Mestre's bound 229 under which the search may not decide;
# at 2^18 the lift takes 100 ms against 0.28 ms.
GROUP_ORDER_MIN_P = 1 << 10


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


def negate(P: Point, p: int) -> Point:
    return None if P is None else (P[0], -P[1] % p)


def multiply(k: int, P: Point, a2: int, a4: int, p: int) -> Point:
    """k P for k >= 0, by left-to-right double-and-add."""
    R = None
    for bit in bin(k)[2:]:
        R = add(R, R, a2, a4, p)
        if bit == "1":
            R = add(R, P, a2, a4, p)
    return R


def _twist_points(coeffs: Sequence[int], p: int) -> Iterator[tuple[int, Point, int, int]]:
    """(chi(r), P, a2, a4) for x0 = 1, 2, ... with r = f(x0) != 0.

    For the monic cubic f = (c0, c1, c2, 1) and E: y^2 = f(x), the point
    P = (r x0, r^2) lies on y^2 = r^3 f(X / r) = X^3 + a2 X^2 + a4 X + r^3 c0,
    the twist of E by r, whose order is p + 1 + chi(r) S(f); so no square
    root is needed.
    """
    c0, c1, c2 = (c % p for c in coeffs[:3])
    for x0 in range(1, min(p, _POINTS_TRIED + 1)):
        r = (((x0 + c2) * x0 + c1) * x0 + c0) % p
        if r:
            yield legendre(r, p), (r * x0 % p, r * r % p), r * c2 % p, r * r % p * c1 % p


def trace_sign(coeffs: Sequence[int], u: int, p: int) -> Optional[int]:
    """The s in {u, -u} with S(f) = s, for the monic cubic f = (c0, c1, c2, 1).

    #E = p + 1 + S(f) for E: y^2 = f(x).  A point of a twist certifies the
    sign when exactly one of (p + 1 +- u) kills it.  None when every point
    tried leaves both signs standing, which by Mestre's theorem can persist
    only for p <= 229.
    """
    for chi, P, a2, a4 in _twist_points(coeffs, p):
        Q = multiply(p + 1, P, a2, a4, p)
        R = multiply(u, P, a2, a4, p)
        plus = add(Q, R, a2, a4, p) is None  # (p + 1 + u) P = O
        minus = Q == R  # (p + 1 - u) P = O
        if plus != minus:
            return chi * (u if plus else -u)
    return None


def _interval_orders(P: Point, a2: int, a4: int, p: int, bound: int) -> Optional[list[int]]:
    """Every t with |t| <= bound and (p + 1 + t) P = O, by baby-step giant-step.

    Baby steps store x(jP) for 1 <= j <= m; the giant steps walk
    G_k = -((p + 1) P + k (2m + 1) P), and x(G_k) = x(jP) gives
    t = k (2m + 1) +- j, the sign read off y.  None when P has order
    <= 2m + 1, too small to tell the candidates apart.
    """
    m = max(1, math.isqrt(bound))
    baby: dict[int, tuple[int, int]] = {}
    R = None
    for j in range(1, m + 1):
        R = add(R, P, a2, a4, p)
        if R is None or R[1] == 0 or R[0] in baby:
            return None
        baby[R[0]] = (j, R[1])
    stride = 2 * m + 1
    step = add(add(R, R, a2, a4, p), P, a2, a4, p)
    if step is None:
        return None
    back = negate(step, p)
    kmax = (bound + m) // stride
    G = add(negate(multiply(p + 1, P, a2, a4, p), p), multiply(kmax, step, a2, a4, p), a2, a4, p)
    hits = []
    for k in range(-kmax, kmax + 1):
        if G is None:
            hits.append(k * stride)
        elif G[0] in baby:
            j, y = baby[G[0]]
            hits.append(k * stride + (j if G[1] == y else -j))
        G = add(G, back, a2, a4, p)
    return [t for t in hits if abs(t) <= bound]


def cubic_sum(coeffs: Sequence[int], p: int) -> tuple[int, int]:
    """S(f) for the monic squarefree cubic f = (c0, c1, c2, 1), and the points used.

    Each point of a twist (see _twist_points) gives, in O(p^1/4) group
    operations, every S with |S| <= 2 sqrt(p) that its twist's order
    p + 1 + chi(r) S allows; the true S is always among them.  The sets
    are intersected until one value is left, which certifies itself.
    Raises TraceUndecidedError when the points tried leave several.
    """
    bound = math.isqrt(4 * p)
    left: Optional[set[int]] = None
    tried = 0
    for chi, P, a2, a4 in _twist_points(coeffs, p):
        tried += 1
        hits = _interval_orders(P, a2, a4, p, bound)
        if hits is None:
            continue
        found = {chi * t for t in hits}
        left = found if left is None else left & found
        if len(left) == 1:
            return left.pop(), tried
    raise TraceUndecidedError(
        f"group order leaves the trace undecided at p = {p} after {tried} points; "
        "a unique trace is certain only for p > 229 (Mestre's bound)"
    )
