"""Prime-field scalar and polynomial arithmetic.

Residues are kept canonical in [0, p); the centered lift into (-p/2, p/2)
is a separate, explicitly named conversion.  Root finding is sublinear in
p (Frobenius powering plus randomized splitting); nothing here ever scans
the whole field -- exhaustive scans are reserved for the oracle module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

DEFAULT_SEED = 12345

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (bound, bases): the first k prime bases are deterministic below each bound;
# the bounds are the least strong pseudoprimes to those bases
_MR_TIERS = ((3_215_031_751, 4), (3_825_123_056_546_413_051, 9))


def _strong_probable_prime(n: int, bases: Sequence[int]) -> bool:
    """Miller-Rabin to the given bases, for odd n > max(bases)."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24 (covers 63 bits).

    Uses the fewest bases proven for n's size: 4 below 3.2e9, 9 below
    3.8e18, all 12 above.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    k = next((k for bound, k in _MR_TIERS if n < bound), len(_MR_BASES))
    return _strong_probable_prime(n, _MR_BASES[:k])


def next_prime(n: int) -> int:
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


@dataclass(frozen=True)
class OddPrime:
    """A validated odd prime modulus."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int):
            raise TypeError(f"modulus must be int, got {type(p).__name__}")
        if p < 3 or p % 2 == 0:
            raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
        if p >= (1 << 63):
            raise ValueError("modulus must fit in 63 bits")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")

    def __int__(self) -> int:
        return self.p


def as_modulus(p) -> int:
    """Accept an OddPrime or a plain int and return the int value."""
    return p.p if isinstance(p, OddPrime) else int(p)


# ---------------------------------------------------------------------------
# quadratic symbols


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol needs odd positive denominator")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(a: int, p) -> int:
    """Legendre symbol (a|p): 0 on multiples of p, +-1 otherwise."""
    p = as_modulus(p)
    return jacobi(a % p, p)


def legendre_euler(a: int, p) -> int:
    """Legendre symbol via Euler's criterion a^((p-1)/2); cross-check path."""
    p = as_modulus(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), n != 0.  Multiplicative in both arguments."""
    if n == 0:
        raise ValueError("kronecker symbol undefined for n = 0")
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 and a % 8 in (3, 5):
            sign = -sign
    if n == 1:
        return sign
    return sign * jacobi(a, n)


def inv_mod(a: int, p) -> int:
    p = as_modulus(p)
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def centered_lift(r: int, p) -> int:
    """Representative of r mod p in (-p/2, p/2)."""
    p = as_modulus(p)
    r %= p
    return r - p if r > p // 2 else r


def sqrt_mod(a: int, p) -> Optional[int]:
    """Square root of a mod p, or None when a is a non-residue.

    Returns the smaller of the two roots (deterministic).  Tonelli-Shanks
    with the smallest non-residue as the auxiliary generator.
    """
    p = as_modulus(p)
    a %= p
    if a == 0:
        return 0
    if legendre_euler(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_euler(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


from functools import lru_cache


_FACTORIAL_CAP = 1 << 22  # the O(p) table is for congruence work, not big p


@lru_cache(maxsize=256)
def half_factorials_mod(p: int) -> tuple[int, ...]:
    """Table of k! mod p for k = 0 .. (p-1)/2 (enough for binomial congruences)."""
    if p > _FACTORIAL_CAP:
        raise ValueError(f"factorial-table congruences support p <= {_FACTORIAL_CAP}")
    m = (p - 1) // 2
    table = [1] * (m + 1)
    for k in range(1, m + 1):
        table[k] = table[k - 1] * k % p
    return tuple(table)


def binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for 0 <= n <= (p-1)/2 (no carries, Lucas not needed)."""
    if k < 0 or k > n:
        return 0
    fact = half_factorials_mod(p)
    return fact[n] * pow(fact[k] * fact[n - k] % p, p - 2, p) % p


def power_sum(t: int, p) -> int:
    """Sum of x^t over all of F_p, with the convention 0^0 = 0.

    Equals p - 1 when (p-1) | t (including t = 0 under the convention),
    and 0 otherwise.
    """
    if t < 0:
        raise ValueError("exponent must be >= 0")
    p = as_modulus(p)
    return p - 1 if t % (p - 1) == 0 else 0


# ---------------------------------------------------------------------------
# dense polynomials over F_p (little-endian coefficient lists)


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a: Sequence[int], b: Sequence[int], p: int) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return _trim(out)


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _trim(out)


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pscale(a: Sequence[int], s: int, p: int) -> list:
    s %= p
    return _trim([ai * s % p for ai in a])


def _pdivmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list, list]:
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    if len(r) - 1 < db:
        return [], _trim(r)
    inv_lb = inv_mod(lb, p)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            c = c * inv_lb % p
            q[i - db] = c
            for j, bj in enumerate(b):
                r[i - db + j] = (r[i - db + j] - c * bj) % p
    return _trim(q), _trim(r)


def _pmonic(a: Sequence[int], p: int) -> list:
    a = _trim(list(a))
    if not a or a[-1] == 1:
        return a
    return _pscale(a, inv_mod(a[-1], p), p)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list:
    """Monic gcd."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmonic(a, p)


def _ppowmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list:
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        e >>= 1
        if e:
            base = _pdivmod(_pmul(base, base, p), mod, p)[1]
    return result


def _pderiv(a: Sequence[int], p: int) -> list:
    return _trim([i * a[i] % p for i in range(1, len(a))])


def _peval(a: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


@dataclass(frozen=True)
class FpPolynomial:
    """Dense polynomial over F_p; coeffs[i] is the coefficient of x^i.

    The empty tuple is the zero polynomial; otherwise the leading
    coefficient is nonzero and every entry is reduced into [0, p).
    """

    modulus: OddPrime
    coeffs: tuple[int, ...]

    def __post_init__(self):
        p = self.modulus.p
        if self.coeffs and self.coeffs[-1] % p == 0:
            raise ValueError("leading coefficient must be nonzero (use make())")
        for c in self.coeffs:
            if not 0 <= c < p:
                raise ValueError("coefficients must be reduced into [0, p)")

    @classmethod
    def make(cls, p, coeffs: Iterable[int]) -> "FpPolynomial":
        mod = p if isinstance(p, OddPrime) else OddPrime(p)
        reduced = _trim([c % mod.p for c in coeffs])
        return cls(mod, tuple(reduced))

    @classmethod
    def from_roots(cls, p, roots: Iterable[int], lc: int = 1) -> "FpPolynomial":
        mod = p if isinstance(p, OddPrime) else OddPrime(p)
        acc = [lc % mod.p]
        for r in roots:
            acc = _pmul(acc, [(-r) % mod.p, 1], mod.p)
        return cls.make(mod, acc)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: int) -> int:
        return _peval(self.coeffs, x, self.p)

    def monic(self) -> "FpPolynomial":
        return FpPolynomial.make(self.modulus, _pmonic(self.coeffs, self.p))

    def times_x(self) -> "FpPolynomial":
        if self.is_zero:
            return self
        return FpPolynomial(self.modulus, (0,) + self.coeffs)

    def at_x_squared(self) -> "FpPolynomial":
        """The composition f(x^2)."""
        out: list[int] = []
        for c in self.coeffs:
            out.append(c)
            out.append(0)
        return FpPolynomial.make(self.modulus, out[:-1] if out else out)

    def derivative(self) -> "FpPolynomial":
        return FpPolynomial.make(self.modulus, _pderiv(self.coeffs, self.p))

    def scale(self, s: int) -> "FpPolynomial":
        return FpPolynomial.make(self.modulus, _pscale(self.coeffs, s, self.p))

    def __mul__(self, other: "FpPolynomial") -> "FpPolynomial":
        return FpPolynomial.make(self.modulus, _pmul(self.coeffs, other.coeffs, self.p))


def roots_in_fp(f: FpPolynomial, seed: int = DEFAULT_SEED) -> list[int]:
    """All roots of f in F_p with multiplicity, sorted.

    Distinct roots come from gcd(f, x^p - x) computed by Frobenius powering
    modulo f, then randomized equal-degree splitting -- polylogarithmic in
    p, never a scan of the field.  Multiplicities by deflation.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has every element as a root")
    p = f.p
    c = list(f.coeffs)
    # multiplicity of the root 0 = index of the first nonzero coefficient
    zero_mult = 0
    while c[0] == 0:
        zero_mult += 1
        c.pop(0)
    c = _pmonic(c, p)
    roots = [0] * zero_mult
    if len(c) > 1:
        xp = _ppowmod([0, 1], p, c, p)
        g = _pgcd(_psub(xp, [0, 1], p), c, p)
        rng = random.Random(seed)
        distinct = _split_into_roots(g, p, rng)
        for r in distinct:
            rem = c
            while True:
                q, s = _pdivmod(rem, [(-r) % p, 1], p)
                if s:
                    break
                roots.append(r)
                rem = q
    return sorted(roots)


def _split_into_roots(g: list, p: int, rng: random.Random) -> list[int]:
    """Roots of a squarefree product of distinct linear factors."""
    d = len(g) - 1
    if d <= 0:
        return []
    if d == 1:
        return [(-g[0]) * inv_mod(g[1], p) % p]
    while True:
        t = rng.randrange(p)
        h = _ppowmod([t, 1], (p - 1) // 2, g, p)
        w = _pgcd(_psub(h, [1], p), g, p)
        if 0 < len(w) - 1 < d:
            other = _pdivmod(g, w, p)[0]
            return _split_into_roots(w, p, rng) + _split_into_roots(other, p, rng)


# ---------------------------------------------------------------------------
# cubic discriminant test


@dataclass(frozen=True)
class CubicDiscriminantReport:
    """(D|p) for a monic cubic, and the factor-count parity it implies."""

    D: int
    symbol: int
    parity_factor_count: str  # "odd" | "even" | "degenerate"


def cubic_discriminant_test(a: int, b: int, c: int, p) -> CubicDiscriminantReport:
    """Discriminant test for x^3 + a x^2 + b x + c over F_p.

    D = a^2 b^2 - 4 b^3 - 4 a^3 c - 27 c^2 + 18 a b c.  When D != 0 the
    number s of irreducible factors satisfies (D|p) = (-1)^(s+1).
    """
    p = as_modulus(p)
    a, b, c = a % p, b % p, c % p
    D = (
        a * a % p * b % p * b
        - 4 * b * b % p * b
        - 4 * a * a % p * a % p * c
        - 27 * c * c
        + 18 * a * b % p * c
    ) % p
    sym = legendre(D, p)
    if sym == 0:
        parity = "degenerate"
    elif sym == 1:
        parity = "odd"
    else:
        parity = "even"
    return CubicDiscriminantReport(D=D, symbol=sym, parity_factor_count=parity)
