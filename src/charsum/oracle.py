"""Ground truth by direct summation, plus the range-verification harness.

Everything here evaluates character sums by literally summing Legendre
symbols over F_p (via a quadratic-residue table built from squares, so it
shares no code path with the closed forms it is used to check).  The
tables are O(p) memory, so every sum refuses p >= 2^26.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .algebra import FpPolynomial, as_modulus, is_prime

_ORACLE_CAP = 1 << 26  # chi table is O(p) memory; beyond this, refuse


@lru_cache(maxsize=64)
def _chi_table(p: int) -> np.ndarray:
    """chi[x] for x in [0, p): 0 at 0, +1 on squares, -1 elsewhere."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    x = np.arange(1, p, dtype=np.int64)
    chi[(x * x) % p] = 1
    return chi


@lru_cache(maxsize=64)
def _xs(p: int) -> np.ndarray:
    return np.arange(p, dtype=np.int64)


def _eval_all(coeffs: Sequence[int], p: int) -> np.ndarray:
    """Values f(x) for every x in F_p (Horner, int64-safe for p < 2^31)."""
    xs = _xs(p)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + c) % p
    return vals


def char_sum_coeffs(coeffs: Sequence[int], p: int) -> int:
    """Exact sum of Legendre symbols of f(x) over x in [0, p)."""
    if p >= _ORACLE_CAP:
        raise ValueError(f"direct summation refused for p >= 2^26 (got {p})")
    chi = _chi_table(p)
    vals = _eval_all([c % p for c in coeffs], p)
    return int(chi[vals].sum(dtype=np.int64))


@dataclass(frozen=True)
class SumValue:
    """Exact integer value of a character sum plus method provenance.

    When residue_only is set, only value mod modulus is certified; the
    stored value is then the canonical residue in [0, modulus).
    """

    value: int
    method: str
    residue_only: bool = False
    modulus: Optional[int] = None
    parts: Optional[tuple[tuple[str, int], ...]] = None

    def part(self, name: str) -> Optional[int]:
        for k, v in self.parts or ():
            if k == name:
                return v
        return None

    def agrees_with(self, exact: int) -> bool:
        if self.residue_only:
            return (self.value - exact) % self.modulus == 0
        return self.value == exact


def char_sum_direct(f: FpPolynomial) -> SumValue:
    """S(f) by direct summation; the oracle every closed form is tested against."""
    return SumValue(char_sum_coeffs(f.coeffs, f.p), method="oracle")


def jacobsthal_direct(kind: str, k: int, a: int, p) -> SumValue:
    """phi_k(a) = sum chi(x) chi(x^k + a), or psi_k(a) = sum chi(x^k + a).

    Direct summation; does not require any congruence condition on p.
    """
    p = as_modulus(p)
    if p >= _ORACLE_CAP:
        raise ValueError(f"direct summation refused for p >= 2^26 (got {p})")
    if kind not in ("phi", "psi"):
        raise ValueError("kind must be 'phi' or 'psi'")
    if k < 1:
        raise ValueError("k must be >= 1")
    a %= p
    if a == 0:
        raise ValueError("a must be nonzero mod p")
    chi = _chi_table(p)
    xs = _xs(p)
    xk = np.ones(p, dtype=np.int64)
    base, e = xs, k
    while e:
        if e & 1:
            xk = (xk * base) % p
        e >>= 1
        if e:
            base = (base * base) % p
    terms = chi[(xk + a) % p].astype(np.int64)
    if kind == "phi":
        terms = terms * chi[xs]
    return SumValue(int(terms.sum()), method="oracle")


@dataclass(frozen=True)
class PointCount:
    """Affine count of y^2 = f(x) and the projective count p + 1 + S."""

    affine: int
    projective: int


def affine_point_count(f: FpPolynomial) -> PointCount:
    """#{(x, y) in F_p^2 : y^2 = f(x)} = p + S(f), exactly.

    The projective figure adds the single point at infinity of the
    plane-curve convention; for degree-6 models the smooth curve may carry
    two points at infinity, which this deliberately does not assert.
    """
    s = char_sum_coeffs(f.coeffs, f.p)
    return PointCount(affine=f.p + s, projective=f.p + 1 + s)


def primes_in(lo: int, hi: int) -> list[int]:
    """Odd primes in [lo, hi)."""
    return [n for n in range(max(lo, 3) | 1, hi, 2) if is_prime(n)]


# ---------------------------------------------------------------------------
# verification harness


@dataclass(frozen=True)
class CaseRecord:
    p: int
    params: tuple[tuple[str, int], ...]
    closed: Optional[int]
    oracle: int
    match: bool
    u_chosen: Optional[int] = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "params": dict(self.params),
            "closed": self.closed,
            "oracle": self.oracle,
            "match": self.match,
            "u_chosen": self.u_chosen,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    """Per-(family, p, params) comparison of a closed form against the oracle."""

    family: str
    p_max: int
    cases: list[CaseRecord] = field(default_factory=list)
    conventions: dict = field(default_factory=dict)
    errata: list[str] = field(default_factory=list)

    def add(self, rec: CaseRecord):
        self.cases.append(rec)
        if not rec.match and "fallback" not in rec.note and "probe" not in rec.note:
            self.errata.append(
                f"{self.family}: mismatch at p={rec.p} params={dict(rec.params)}: "
                f"closed={rec.closed} oracle={rec.oracle} {rec.note}".strip()
            )

    def finalize(self) -> "VerificationReport":
        self.cases.sort(key=lambda r: (r.p, r.params))
        return self

    @property
    def mismatches(self) -> list[CaseRecord]:
        return [r for r in self.cases if not r.match]

    @property
    def unexplained(self) -> list[CaseRecord]:
        """Live mismatches: not a structural fallback, not a status probe."""
        return [
            r
            for r in self.cases
            if not r.match and "fallback" not in r.note and "probe" not in r.note
        ]

    @property
    def fallback_count(self) -> int:
        return sum(1 for r in self.cases if "fallback" in r.note)

    def as_dict(self) -> dict:
        self.finalize()
        return {
            "family": self.family,
            "p_max": self.p_max,
            "cases": [c.as_dict() for c in self.cases],
            "conventions": self.conventions,
            "errata": list(self.errata),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        self.finalize()
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["family", "p", "params", "closed", "oracle", "match", "u_chosen", "note"])
        for c in self.cases:
            w.writerow(
                [
                    self.family,
                    c.p,
                    ";".join(f"{k}={v}" for k, v in c.params),
                    c.closed,
                    c.oracle,
                    int(c.match),
                    c.u_chosen,
                    c.note,
                ]
            )
        return buf.getvalue()


def verify_range(
    family: str,
    p_max: int,
    param_grid: Iterable[dict],
    evaluator: Callable[[dict, int], SumValue],
    poly_builder: Callable[[dict, int], FpPolynomial],
    reduction_filter: Callable[[dict, int], bool] = lambda params, p: True,
) -> VerificationReport:
    """Compare a closed-form evaluator against the oracle over a prime range.

    For every odd prime p <= p_max passing the reduction filter and every
    parameter dict in the grid, evaluates both sides.  Structural fallbacks
    (NotSplit) are recorded, never silently dropped; any live mismatch
    lands in the errata list.
    """
    from .exceptions import BadReductionError, NotSplitError

    report = VerificationReport(family=family, p_max=p_max)
    grid = list(param_grid)
    for p in primes_in(3, p_max + 1):
        for params in grid:
            if not reduction_filter(params, p):
                continue
            try:
                poly = poly_builder(params, p)
            except BadReductionError:
                continue
            oracle_value = char_sum_coeffs(poly.coeffs, p)
            key = tuple(sorted(params.items()))
            try:
                closed = evaluator(params, p)
            except NotSplitError:
                report.add(
                    CaseRecord(
                        p=p,
                        params=key,
                        closed=None,
                        oracle=oracle_value,
                        match=True,
                        note="oracle_fallback:not_split",
                    )
                )
                continue
            except BadReductionError:
                continue
            report.add(
                CaseRecord(
                    p=p,
                    params=key,
                    closed=closed.value,
                    oracle=oracle_value,
                    match=closed.agrees_with(oracle_value),
                    u_chosen=closed.part("u"),
                    note="fallback" if "fallback" in closed.method else "",
                )
            )
    return report.finalize()
