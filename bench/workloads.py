"""Seeded query streams for the three benchmark workloads.

Nothing here imports charsum: the program under test receives only the
generated family, params and p, or coefficient tuples.  Each stream is an
endless sequence of *units* (a list of queries); a run always stops on a
unit boundary, so the mix inside a run does not depend on how fast the
program is.

- cm_large: a unit is a block of 72 queries, one per (family, size slot):
  nine CM cubics f_n times eight slots, seven at [2^30, 2^31) and one at
  [2^61, 2^62), in shuffled order.  Every prime is fresh and split for its
  family, (-n|p) = 1.
- curves_mid: a unit is a sweep of ten queries on one fresh prime in
  [2^18, 2^19).  Each query's shape is the next card of a shuffled deck of
  the seven shapes, so shapes are drawn uniformly and every run holds them
  in near-equal shares.  Prime sizes follow a golden-ratio sequence, so the
  sizes in any run cover the range evenly and the run median does not
  hinge on a dozen random draws.
- campaign_small: a unit is one full campaign pass: every prime
  5 <= p < 2^10 in increasing order, each with one query of every shape
  and one Hasse-toolkit row.  Queries of the x^(2k) + a shape, whether
  drawn as such or as a split quartic x^4 + c, are asked only where the
  Weil bound certifies an exact value (power_ks).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Iterator, Optional

CM_N = (1, 2, 3, 7, 11, 19, 43, 67, 163)

# f_n = x^3 + (c2 a) x^2 + (c1 a^2) x + c0 a^3 as (c2, c1, c0): the families
# x(x^2 + Bax + Ca^2) and the depressed cubics; f1 = x^3 + ax and f3 = x^3 + a
CM_CUBIC = {
    2: (4, 2, 0),
    7: (21, 112, 0),
    11: (0, -1056, 13552),
    19: (0, -152, 722),
    43: (0, -3440, 77658),
    67: (0, -29480, 1948226),
    163: (0, -8697680, 9873093538),
}

SHAPES = ("legendre", "quartic", "newton", "edwards", "g_n", "f_n", "power_2k")
CM_SMALL_SLOT = (1 << 30, 1 << 31)
CM_LARGE_SLOT = (1 << 61, 1 << 62)
MID_RANGE = (1 << 18, 1 << 19)
CAMPAIGN_RANGE = (5, 1 << 10)
POWER_K = range(2, 13)
MID_SWEEP = 10  # curves_mid queries per prime
HASH_PREFIX = 512  # queries hashed into the stream fingerprint
_GOLDEN = 0.6180339887498949

WORKLOADS = ("cm_large", "curves_mid", "campaign_small")


@dataclass(frozen=True)
class Query:
    """One call into the library.

    kind "count" calls closedform.point_count(family, params, p); kind
    "evaluate" calls closedform.evaluate on the polynomial with `coeffs`
    (little-endian); kind "hasse_row" calls hasse.factor_counts(p).
    """

    kind: str
    shape: str
    p: int
    family: Optional[str] = None
    params: tuple = ()
    coeffs: tuple = ()
    size: str = ""


# ---------------------------------------------------------------------------
# number theory used by the generator (independent of charsum)

_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for q in _SMALL:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL:
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


def jacobi(a: int, n: int) -> int:
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


def cubic_coeffs(n: int, a: int, p: int) -> list[int]:
    """f_n(x) for parameter a, little-endian, reduced mod p."""
    if n == 1:
        return [0, a % p, 0, 1]
    if n == 3:
        return [a % p, 0, 0, 1]
    c2, c1, c0 = CM_CUBIC[n]
    return [c0 * a**3 % p, c1 * a * a % p, c2 * a % p, 1]


def derived_coeffs(n: int, a: int, p: int) -> list[int]:
    """g_n: x^4 + a, x^4 + B a x^2 + C a^2 (n = 2, 7), else f_n(x^2)."""
    if n == 1:
        return [a % p, 0, 0, 0, 1]
    if n in (2, 7):
        c2, c1, _ = CM_CUBIC[n]
        return [c1 * a * a % p, 0, c2 * a % p, 0, 1]
    f = cubic_coeffs(n, a, p)
    return [f[0], 0, f[1], 0, f[2], 0, 1]


def _cubic_disc(c: list[int], p: int) -> int:
    c0, c1, c2 = c[0], c[1], c[2]
    return (
        c2 * c2 * c1 * c1 - 4 * c1**3 - 4 * c2**3 * c0 - 27 * c0 * c0 + 18 * c2 * c1 * c0
    ) % p


def good_reduction(n: int, a: int, p: int) -> bool:
    return (2 * a * n) % p != 0 and _cubic_disc(cubic_coeffs(n, a, p), p) != 0


def poly_from_roots(roots, lc: int, p: int) -> list[int]:
    acc = [lc % p]
    for r in roots:
        nxt = [0] * (len(acc) + 1)
        for i, c in enumerate(acc):
            nxt[i] = (nxt[i] - r * c) % p
            nxt[i + 1] = (nxt[i + 1] + c) % p
        acc = nxt
    return acc


def _random_prime(rng: random.Random, lo: int, hi: int, ok) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if is_prime(p) and ok(p):
            return p


def power_ks(p: int) -> list[int]:
    """k in 2..12 with p = 2kf + 1 whose exact value the Weil bound certifies."""
    return [k for k in POWER_K if (p - 1) % (2 * k) == 0 and 4 * (2 * k - 1) ** 2 < p]


# ---------------------------------------------------------------------------
# shape generators for one prime


class ShapeSource:
    """Draws sweeps of shape queries on one prime at a time.

    Run-to-run spread comes mostly from how many queries take each code
    path, so the draws are balanced where a parameter decides the path:
    f_n and g_n take (n, split or inert at p) from a shuffled deck of the 18
    pairs, and successive Newton and Edwards queries alternate between a
    square and a non-square beta or d, the parameter that decides whether
    the quartic splits (half split, as for random parameters).
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict[str, list[tuple[int, bool]]] = {"f_n": [], "g_n": []}
        self.shape_deck: list[str] = []
        self.asked = {"newton": 0, "edwards": 0}

    def sweep(self, p: int, shapes) -> list[Query]:
        """One query of each shape, in shuffled order."""
        order = list(shapes)
        self.rng.shuffle(order)
        return [self.query(s, p) for s in order]

    def draw(self, p: int, n: int) -> list[Query]:
        """n queries whose shapes are the next cards of a shuffled deck of SHAPES."""
        out = []
        for _ in range(n):
            if not self.shape_deck:
                self.shape_deck = list(SHAPES)
                self.rng.shuffle(self.shape_deck)
            out.append(self.query(self.shape_deck.pop(), p))
        return out

    def _draw_n(self, shape: str, p: int) -> int:
        """Next (n, split) pair from the deck that p can serve."""
        deck = self.decks[shape]
        for attempt in range(2):
            for i, (n, split) in enumerate(deck):
                if good_reduction(n, 1, p) and (attempt or (jacobi(-n, p) == 1) == split):
                    del deck[i]
                    return n
            fresh = [(n, split) for n in CM_N for split in (True, False)]
            self.rng.shuffle(fresh)
            deck.extend(fresh)
        raise ValueError(f"no CM family has good reduction at p = {p}")

    def _with_character(self, p: int, lo: int, hi: int, square: bool) -> int:
        """Random x in [lo, hi) that is a square mod p or not, when one exists."""
        for _ in range(64):
            x = self.rng.randrange(lo, hi)
            if (pow(x, (p - 1) // 2, p) == 1) == square:
                break
        return x

    def query(self, shape: str, p: int) -> Query:
        rng = self.rng
        if shape in self.asked:
            square = self.asked[shape] % 2 == 0
            self.asked[shape] += 1
        if shape == "legendre":
            return Query("count", shape, p, family="legendre", params=(("beta", rng.randrange(2, p)),))
        if shape == "quartic":
            while True:
                roots = rng.sample(range(p), 4)
                coeffs = poly_from_roots(roots, rng.randrange(1, p), p)
                # a split x^4 + c has the x^(2k) + a shape: ask it only where
                # that shape is asked, k = 2 in power_ks(p)
                if coeffs[4] != 1 or any(coeffs[1:4]) or 2 in power_ks(p):
                    return Query("evaluate", shape, p, coeffs=tuple(coeffs))
        if shape == "newton":
            beta = self._with_character(p, 2, p - 1, square)
            return Query("count", shape, p, family="newton", params=(("beta", beta), ("k", rng.randrange(1, p))))
        if shape == "edwards":
            while True:
                c, d = rng.randrange(1, p), self._with_character(p, 1, p, not square)
                if (1 - pow(c, 4, p) * d) % p:
                    return Query("count", shape, p, family="edwards", params=(("c", c), ("d", d)))
        if shape in ("g_n", "f_n"):
            n = self._draw_n(shape, p)
            while True:
                a = rng.randrange(1, p)
                if good_reduction(n, a, p):
                    break
            fam = shape[0] + str(n)
            return Query("count", shape, p, family=fam, params=(("a", a),))
        if shape == "power_2k":
            k = rng.choice(power_ks(p))
            coeffs = [rng.randrange(1, p)] + [0] * (2 * k - 1) + [1]
            return Query("evaluate", shape, p, coeffs=tuple(coeffs))
        raise ValueError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# streams


def _cm_large_units(rng: random.Random) -> Iterator[list[Query]]:
    while True:
        slots = [(n, slot) for n in CM_N for slot in range(8)]
        rng.shuffle(slots)
        unit = []
        for n, slot in slots:
            lo, hi = CM_LARGE_SLOT if slot == 7 else CM_SMALL_SLOT
            p = _random_prime(rng, lo, hi, lambda q, n=n: jacobi(-n, q) == 1)
            a = rng.randrange(1, p)
            size = "2^61" if slot == 7 else "2^30"
            unit.append(Query("count", "f_n", p, family=f"f{n}", params=(("a", a),), size=size))
        yield unit


def _curves_mid_units(rng: random.Random) -> Iterator[list[Query]]:
    lo, hi = MID_RANGE
    phase = rng.random()
    source = ShapeSource(rng)
    used: set[int] = set()
    j = 0
    while True:
        target = lo + int(((phase + j * _GOLDEN) % 1.0) * (hi - lo))
        j += 1
        p = target | 1
        while p < hi and (p in used or not is_prime(p) or not power_ks(p)):
            p += 2
        if p >= hi:
            continue
        used.add(p)
        yield source.draw(p, MID_SWEEP)


def campaign_primes() -> list[int]:
    lo, hi = CAMPAIGN_RANGE
    return [p for p in range(lo, hi) if is_prime(p)]


def _campaign_units(rng: random.Random) -> Iterator[list[Query]]:
    primes = campaign_primes()
    source = ShapeSource(rng)
    while True:
        unit = []
        for p in primes:
            shapes = [s for s in SHAPES if s != "power_2k" or power_ks(p)]
            unit.extend(source.sweep(p, shapes))
            unit.append(Query("hasse_row", "hasse_row", p))
        yield unit


def units(workload: str, seed: int) -> Iterator[list[Query]]:
    """The endless unit stream of a workload; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cm_large":
        return _cm_large_units(rng)
    if workload == "curves_mid":
        return _curves_mid_units(rng)
    if workload == "campaign_small":
        return _campaign_units(rng)
    raise ValueError(f"unknown workload {workload!r}")


def stream_hash(workload: str, seed: int, n: int = HASH_PREFIX) -> str:
    """sha256 of the first n queries of the stream, in canonical JSON."""
    h = hashlib.sha256()
    count = 0
    for unit in units(workload, seed):
        for q in unit:
            if count == n:
                return h.hexdigest()
            h.update(json.dumps(asdict(q), sort_keys=True).encode())
            h.update(b"\n")
            count += 1
    raise AssertionError("unreachable")
