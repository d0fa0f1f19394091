"""Closed-form character-sum evaluators.

Every evaluator returns a SumValue naming its method and is required to
match the direct-summation oracle on its validated range.  Structural
failures (a quartic that does not split, bad reduction) raise typed
errors; the `evaluate` dispatcher catches them and falls back to the
oracle, always reporting which path produced the number and logging the
reason at INFO.

From ec.GROUP_ORDER_MIN_P on, every genus-1 sum takes its trace from the
O(p^1/4) group-order search: squarefree cubics directly, and quartics
with a rational root r through x = r + 1/t, which turns them into cubics.
Only quartics with no rational root still fall back there.

The CM cubics take the sign of u from the one rule cm.SIGN_RULE names
for each family; the quartic reduction composes the cross-ratio
parameters with the trace-of-Frobenius lift, so
S(quartic) = -1 - chi(alpha) * lift(H(beta)).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import cm, ec, families, hasse
from .algebra import (
    DEFAULT_SEED,
    FpPolynomial,
    as_modulus,
    binom_mod,
    centered_lift,
    cubic_discriminant_test,
    inv_mod,
    legendre,
    roots_in_fp,
    _pderiv,
    _pdivmod,
    _peval,
    _pgcd,
    _pmonic,
    _pmul,
)
from .exceptions import BadReductionError, NotSplitError
from .oracle import PointCount, SumValue, char_sum_coeffs, char_sum_direct

log = logging.getLogger(__name__)


def _oracle_fallback(coeffs: Sequence[int], p: int, reason: str) -> int:
    log.info("oracle fallback (reason %s) at p = %d for coefficients %s", reason, p, coeffs)
    return char_sum_coeffs(coeffs, p)


def eval_constant(c: int, p) -> SumValue:
    """S of a constant polynomial: p * chi(c).  Defined for harness totality."""
    p = as_modulus(p)
    return SumValue(p * legendre(c, p), method="constant")


def eval_linear(a: int, b: int, p) -> SumValue:
    """S(ax + b) = 0 for a != 0 (change of variables)."""
    p = as_modulus(p)
    if a % p == 0:
        raise ValueError("leading coefficient is 0 mod p; use eval_constant")
    return SumValue(0, method="linear")


def eval_quadratic(a: int, b: int, c: int, p) -> SumValue:
    """S(ax^2+bx+c) = (a|p) * (-1), or (a|p) * (p-1) when b^2 = 4ac."""
    p = as_modulus(p)
    if a % p == 0:
        return eval_linear(b, c, p)
    chi_a = legendre(a, p)
    disc = (b * b - 4 * a * c) % p
    value = chi_a * ((p - 1) if disc == 0 else -1)
    return SumValue(value, method="quadratic", parts=(("disc", disc),))


def eval_cubic_cm(n: int, a: int, p) -> SumValue:
    """S(f_n) for the nine CM cubic families.

    Inert p gives 0.  Split p: the representation search yields the
    candidate traces; for n in {1, 3} the quartic/sextic class of a picks
    the candidate by a congruence mod p, for the rest S = chi(a) * u with
    the family's sign rule (cm.SIGN_RULE).
    """
    p = as_modulus(p)
    families.cubic_poly(n, a, p)  # validates good reduction
    if cm.is_inert(n, p).inert:
        return SumValue(0, method="cubic_cm/inert", parts=(("u", 0),))
    rule = cm.SIGN_RULE[n]
    reps = cm.representations_4p(n, p)
    base = cm.base_trace(n, p, reps)
    chi_a = legendre(a, p)
    if n in (1, 3):
        w = 4 if n == 1 else 6
        tau = base * pow(a % p, (p - 1) // w, p) % p
        hits = [s * r.u for r in reps for s in (1, -1) if (s * r.u) % p == tau]
        if len(hits) != 1:
            raise RuntimeError(f"trace selection ambiguous at n={n}, p={p}, a={a}")
        value = hits[0]
        return SumValue(
            value,
            method=f"cubic_cm/{rule}",
            parts=(("u", value * chi_a), ("chi_a", chi_a), ("base", base)),
        )
    return SumValue(
        chi_a * base, method=f"cubic_cm/{rule}", parts=(("u", base), ("chi_a", chi_a))
    )


# ---------------------------------------------------------------------------
# quartic reduction


@dataclass(frozen=True)
class QuarticReduction:
    """Cross-ratio data of a split quartic; roots stored sorted (canonical).

    The sum value is invariant under all 24 root orderings even though
    (alpha, beta) themselves are not; the sorted tuple is the canonical
    representative of the permutation class.
    """

    roots: tuple[int, int, int, int]
    alpha: int
    beta: int

    @classmethod
    def from_roots(cls, roots, p: int) -> "QuarticReduction":
        ordered = tuple(sorted(roots))
        alpha, beta = cross_ratio_params(ordered, p)
        return cls(roots=ordered, alpha=alpha, beta=beta)


def cross_ratio_params(roots: Sequence[int], p: int) -> tuple[int, int]:
    """(alpha, beta) of the reduction for the given root ordering.

    With f = (x+a_1)..(x+a_4) and a_i = -root_i:
    alpha = (a1-a4)(a2-a3), beta = (a1-a3)(a2-a4)/alpha.
    """
    a = [(-r) % p for r in roots]
    alpha = (a[0] - a[3]) * (a[1] - a[2]) % p
    if alpha == 0:
        raise ValueError("repeated roots have no cross ratio")
    beta = (a[0] - a[2]) * (a[1] - a[3]) % p * inv_mod(alpha, p) % p
    return alpha, beta


def quartic_reduce(f: FpPolynomial, seed: int = DEFAULT_SEED) -> SumValue:
    """S of a quartic that splits over F_p (or degenerates to lower degree).

    Four distinct roots: S = -1 - chi(alpha) * a_p(beta) with a_p the
    trace lift of H(beta); invariant under the 24 root orderings.
    Repeated roots: square factors drop out of chi, leaving a quadratic
    sum plus corrections at the rational roots.  Squarefree with one or
    two rational roots: the cubic of _rational_root_cubic, from
    ec.GROUP_ORDER_MIN_P on.  Any other quartic raises NotSplitError.
    """
    p = f.p
    if f.degree != 4:
        raise ValueError("quartic_reduce needs degree 4")
    chi_lc = legendre(f.leading, p)
    mono = f.monic()
    roots = roots_in_fp(mono, seed=seed)
    mult = Counter(roots)

    if len(roots) == 4 and all(m == 1 for m in mult.values()):
        qr = QuarticReduction.from_roots(roots, p)
        lf = hasse.legendre_form_sum(qr.beta, p)
        value = chi_lc * (-1 + legendre(qr.alpha, p) * lf.value)
        parts = (("alpha", qr.alpha), ("beta", qr.beta), ("legendre_sum", lf.value))
        via = lf.method.split("/", 1)[1]
        if via == "hasse_lift":
            return SumValue(value, method="quartic_cross_ratio", parts=parts)
        if via == "group_order":
            parts += lf.parts
        return SumValue(value, method=f"quartic_cross_ratio/{via}", parts=parts)

    # deflate the rational roots; q is the rootless cofactor
    q = list(mono.coeffs)
    for r, m in mult.items():
        for _ in range(m):
            q = _pdivmod(q, [(-r) % p, 1], p)[0]
    q_deg = len(q) - 1

    odd_part = [1]
    for r, m in mult.items():
        if m % 2:
            odd_part = _pmul(odd_part, [(-r) % p, 1], p)
    if q_deg > 0:
        q_is_square = False
        if q_deg == 4:
            g = _pgcd(q, _pderiv(q, p), p)
            if len(g) - 1 == 2 and _pmul(g, g, p) == _pmonic(q, p):
                q_is_square = True
        if not q_is_square:
            odd_part = _pmul(odd_part, q, p)

    du = len(odd_part) - 1
    if du >= 3:
        # squarefree: a root of multiplicity 2 would leave a quadratic q
        if roots and p >= ec.GROUP_ORDER_MIN_P:
            return _rational_root_cubic(mono, roots[0], chi_lc)
        raise NotSplitError(f"quartic does not split over F_{p}")
    if du == 0:
        s_u = p
    else:  # du == 2; distinct factors, so this is a plain quadratic sum
        s_u = eval_quadratic(odd_part[2], odd_part[1], odd_part[0], p).value
    corr = sum(legendre(_peval(odd_part, r, p), p) for r in mult)
    return SumValue(chi_lc * (s_u - corr), method="quartic_degenerate")


def _rational_root_cubic(mono: FpPolynomial, r: int, chi_lc: int) -> SumValue:
    """S(chi_lc * mono) for a monic squarefree quartic with the rational root r.

    x = r + 1/t maps F_p^* onto F_p minus {r}, where mono vanishes, and
    g(t) = t^4 mono(r + 1/t) is the cubic whose coefficients are the Taylor
    coefficients of mono at r, reversed; so S(mono) = S(g) - chi(g(0)),
    with g(0) = 1.
    """
    p = mono.p
    b = list(mono.coeffs)  # Horner's shift: b becomes the coefficients of mono(x + r)
    for i in range(len(b)):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] = (b[j] + r * b[j + 1]) % p
    g = eval_cubic_group_order(FpPolynomial.make(mono.modulus, b[:0:-1]))
    return SumValue(
        chi_lc * (g.value - 1),
        method="rational_root_cubic",
        parts=(("root", r), ("a_p", -chi_lc * g.value), ("points", g.part("points"))),
    )


def eval_cubic_group_order(f: FpPolynomial) -> SumValue:
    """S of a squarefree cubic from the group order of y^2 = f(x) (ec.cubic_sum)."""
    if f.degree != 3:
        raise ValueError("needs degree 3")
    s, points = ec.cubic_sum(f.monic().coeffs, f.p)
    value = legendre(f.leading, f.p) * s
    return SumValue(value, method="cubic_group_order", parts=(("a_p", -value), ("points", points)))


def eval_split_cubic(f: FpPolynomial, seed: int = DEFAULT_SEED) -> SumValue:
    """S of a cubic with all roots rational, via the Legendre-form lift."""
    p = f.p
    if f.degree != 3:
        raise ValueError("needs degree 3")
    chi_lc = legendre(f.leading, p)
    roots = roots_in_fp(f.monic(), seed=seed)
    mult = Counter(roots)
    if len(roots) != 3:  # a cubic has 0, 1, or 3 rational roots
        raise NotSplitError(f"cubic does not split over F_{p}")
    if len(mult) == 3:
        r1, r2, r3 = sorted(mult)
        beta = (r3 - r1) * inv_mod(r2 - r1, p) % p
        lf = hasse.legendre_form_sum(beta, p)
        scale = chi_lc * legendre(r2 - r1, p)
        return SumValue(
            scale * lf.value,
            method="cubic_legendre_shift",
            parts=(("beta", beta), ("legendre_sum", lf.value)),
        )
    if len(mult) == 2:  # double + simple root
        (ra, ma), (rb, mb) = mult.items()
        double, single = (ra, rb) if ma == 2 else (rb, ra)
        return SumValue(
            -chi_lc * legendre(double - single, p), method="cubic_degenerate"
        )
    # triple root: chi((x-r)^3) = chi(x-r), a full character sum, which is 0
    return SumValue(0, method="cubic_degenerate")


def split_transform(
    f: FpPolynomial, evaluator: Optional[Callable[[FpPolynomial], SumValue]] = None
) -> SumValue:
    """S(f(x^2)) = S(x f(x)) + S(f(x)), with both parts from the evaluator."""
    ev = evaluator if evaluator is not None else evaluate
    s_xf = ev(f.times_x())
    s_f = ev(f)
    if s_xf.residue_only or s_f.residue_only:
        raise ValueError("split transform needs exact sub-evaluations")
    return SumValue(
        s_xf.value + s_f.value,
        method=f"split_transform[{s_xf.method}+{s_f.method}]",
        parts=(("xf", s_xf.value), ("f", s_f.value)),
    )


def eval_derived_gn(n: int, a: int, p, seed: int = DEFAULT_SEED) -> SumValue:
    """S(g_n) by the transformation identity.

    Quartic families (n in {1,2,7}): S = A + S(f_n) with A the quadratic
    sum of f_n(x)/x.  Sextic families: S = S(x f_n) + S(f_n), the quartic
    part through quartic_reduce: the cross-ratio reduction, or the
    rational root 0 from ec.GROUP_ORDER_MIN_P on; below that it falls back
    to the oracle when x f_n does not split.
    """
    p = as_modulus(p)
    cubic = eval_cubic_cm(n, a, p)
    extra: tuple = ()
    if n in (1, 2, 7):
        qa, qb, qc = families.quadratic_part(n, a, p)
        head = eval_quadratic(qa, qb, qc, p)
        method = "derived_quartic"
    else:
        xf = families.cubic_poly(n, a, p).times_x()
        try:
            head = quartic_reduce(xf, seed=seed)
            method = "derived_sextic"
            if head.method == "rational_root_cubic":
                method, extra = "derived_sextic/rational_root_cubic", head.parts
        except NotSplitError:
            head = SumValue(_oracle_fallback(xf.coeffs, p, "not_split"), method="oracle")
            method = "derived_sextic/oracle_fallback"
    return SumValue(
        head.value + cubic.value,
        method=method,
        parts=(("head", head.value), ("cubic", cubic.value), ("u", cubic.part("u"))) + extra,
    )


def eval_form(params: families.FormParams, p, seed: int = DEFAULT_SEED) -> SumValue:
    """S of a Legendre / Newton / Edwards form.

    The Legendre cubic goes straight to the trace lift; the quartics go
    through quartic_reduce.  Their roots +-1/k (Newton) and +-c (Edwards)
    are rational, so from ec.GROUP_ORDER_MIN_P on they never fall back;
    below it a quartic with no F_p splitting (e.g. Edwards with
    (d|p) = -1) falls back to the oracle.
    """
    p = as_modulus(p)
    poly = families.form_poly(params, p)
    if params.kind == "legendre":
        lf = hasse.legendre_form_sum(params.beta, p)
        return SumValue(lf.value, method=f"form_legendre/{lf.method.split('/', 1)[1]}", parts=lf.parts)
    try:
        sv = quartic_reduce(poly, seed=seed)
        return SumValue(sv.value, method=f"form_{params.kind}/{sv.method}", parts=sv.parts)
    except NotSplitError:
        return SumValue(
            _oracle_fallback(poly.coeffs, p, "not_split"), method=f"form_{params.kind}/oracle_fallback"
        )


def eval_newton_k1(beta: int, p) -> SumValue:
    """S((x^2-1)(x^2-beta)) = A_beta + S(F_beta), A_beta from the quadratic sum."""
    p = as_modulus(p)
    b = beta % p
    if b in (0, 1):
        raise ValueError("beta in {0, 1} is degenerate")
    a_part = eval_quadratic(1, -(1 + b), b, p)
    lf = hasse.legendre_form_sum(b, p)
    return SumValue(
        a_part.value + lf.value,
        method="newton_k1",
        parts=(("A", a_part.value), ("legendre_sum", lf.value)),
    )


# ---------------------------------------------------------------------------
# power sums x^(2k) + a via the binomial congruences


@dataclass(frozen=True)
class PowerSumParams:
    """k >= 1 with p = 2kf + 1 and a nonzero cofactor decomposition."""

    k: int
    f: int
    a: int
    p: int

    @classmethod
    def make(cls, k: int, a: int, p: int) -> "PowerSumParams":
        if k < 1:
            raise ValueError("k must be >= 1")
        if (p - 1) % (2 * k):
            raise ValueError(f"p = {p} is not of the form 2kf + 1 for k = {k}")
        a %= p
        if a == 0:
            raise ValueError("a must be nonzero mod p")
        return cls(k=k, f=(p - 1) // (2 * k), a=a, p=p)


def psi_closed(k: int, a: int, p) -> SumValue:
    """psi_k(a) = S(x^k + a).

    gcd(k, p-1) = 1: exactly 0 (x -> x^k permutes F_p).  Otherwise needs
    p = 2kf + 1 and equals -sum_{i>=1} C(kf, 2fi) a^(f(k-2i)) mod p; the
    i = 0 term of the printed range is excluded (regression: k=3, p=13,
    a=1 must give -2, not -3).  Exact lift when (k-1) sqrt(p) < p/2.
    """
    p = as_modulus(p)
    if a % p == 0:
        raise ValueError("a must be nonzero mod p")
    if k < 1:
        raise ValueError("k must be >= 1")
    if math.gcd(k, p - 1) == 1:
        return SumValue(0, method="psi/bijection")
    ps = PowerSumParams.make(k, a, p)
    total = 0
    for i in range(1, k // 2 + 1):
        total = (
            total + binom_mod(k * ps.f, 2 * ps.f * i, p) * pow(ps.a, ps.f * (k - 2 * i), p)
        ) % p
    r = (-total) % p
    if 4 * (k - 1) * (k - 1) < p:
        return SumValue(centered_lift(r, p), method="psi/binomial")
    return SumValue(r, method="psi/binomial", residue_only=True, modulus=p)


def _permutation_zero(k: int, p: int) -> bool:
    """phi_k vanishes when p = j+1 (mod 2j) for j = k or (k even) j = k/2."""
    js = [k] + ([k // 2] if k % 2 == 0 else [])
    return any((p - 1) % j == 0 and ((p - 1) // j) % 2 == 1 for j in js)


def phi_closed(k: int, a: int, p) -> SumValue:
    """phi_k(a) = S of chi(x) chi(x^k + a).

    Zero by the permutation argument when p = k+1 (mod 2k) (and for even
    k when p = k/2+1 mod k); otherwise needs p = 2kf + 1 and equals
    -sum_{i>=1} C(kf, (2i-1)f) a^(f(k-2i+1)) mod p.  The i = 0 term
    vanishes through C(n, -f) = 0.  Exact lift when k sqrt(p) < p/2
    (phi_k = S(x(x^k+a)), a degree-(k+1) squarefree sum).
    """
    p = as_modulus(p)
    if a % p == 0:
        raise ValueError("a must be nonzero mod p")
    if k < 1:
        raise ValueError("k must be >= 1")
    if _permutation_zero(k, p):
        return SumValue(0, method="phi/permutation_zero")
    if math.gcd(k, p - 1) == 1:
        # x -> x^k is a bijection with odd inverse exponent, so this is a
        # quadratic sum in disguise
        return SumValue(-1, method="phi/bijection")
    ps = PowerSumParams.make(k, a, p)
    total = 0
    for i in range(1, (k + 2) // 2 + 1):
        total = (
            total
            + binom_mod(k * ps.f, (2 * i - 1) * ps.f, p)
            * pow(ps.a, ps.f * (k - 2 * i + 1), p)
        ) % p
    r = (-total) % p
    if 4 * k * k < p:
        return SumValue(centered_lift(r, p), method="phi/binomial")
    return SumValue(r, method="phi/binomial", residue_only=True, modulus=p)


def eval_power_2k(k: int, a: int, p) -> SumValue:
    """S(x^(2k) + a) = phi_k(a) + psi_k(a); the -a variant is a substitution.

    Exact when both parts lift, or when the degree-2k Weil bound
    (2k-1) sqrt(p) < p/2 certifies the combined residue.
    """
    p = as_modulus(p)
    phi = phi_closed(k, a, p)
    psi = psi_closed(k, a, p)
    parts = (("phi", phi.value), ("psi", psi.value))
    if not phi.residue_only and not psi.residue_only:
        return SumValue(phi.value + psi.value, method="power_2k", parts=parts)
    r = (phi.value + psi.value) % p
    if 4 * (2 * k - 1) ** 2 < p:
        return SumValue(centered_lift(r, p), method="power_2k", parts=parts)
    return SumValue(r, method="power_2k", residue_only=True, modulus=p, parts=parts)


# ---------------------------------------------------------------------------
# dispatch, point counts, audits


def _match_cubic_family(f: FpPolynomial) -> Optional[tuple[int, int]]:
    """Recognize a monic cubic as f_n for some (n, a), if possible."""
    p = f.p
    if f.degree != 3 or f.leading != 1:
        return None
    c0, c1, c2 = f.coeffs[0], f.coeffs[1], f.coeffs[2]
    candidates: list[tuple[int, int]] = []
    if c2 == 0 and c0 == 0 and c1 != 0:
        candidates.append((1, c1))
    if c2 == 0 and c1 == 0 and c0 != 0:
        candidates.append((3, c0))
    if c2 != 0 and c0 == 0:
        for n, (b, c) in ((2, (4, 2)), (7, (21, 112))):
            if b % p == 0:
                continue
            a = c2 * inv_mod(b, p) % p
            if c * a * a % p == c1:
                candidates.append((n, a))
    if c2 == 0 and c0 != 0 and c1 != 0:
        for n, (k1, k0) in families.DEPRESSED_CONSTANTS.items():
            if k1 % p == 0 or k0 % p == 0:
                continue
            a2 = c1 * inv_mod(k1, p) % p
            a3 = c0 * inv_mod(k0, p) % p
            if a2 == 0:
                continue
            a = a3 * inv_mod(a2, p) % p
            if a * a % p == a2 and pow(a, 3, p) == a3:
                candidates.append((n, a))
    for n, a in candidates:
        try:
            families.cubic_poly(n, a, p)
            return n, a
        except BadReductionError:
            continue
    return None


def _match_monomial_plus_const(f: FpPolynomial) -> Optional[tuple[int, int]]:
    """x^(2k) + a shape (monic, even degree, nonzero constant)."""
    d = f.degree
    if d < 4 or d % 2 or f.leading != 1 or f.coeffs[0] == 0:
        return None
    if any(c for c in f.coeffs[1:-1]):
        return None
    return d // 2, f.coeffs[0]


def evaluate(f: FpPolynomial, method: str = "auto", seed: int = DEFAULT_SEED) -> SumValue:
    """Evaluate S(f), trying closed forms by degree and shape.

    method="closed" raises NotSplitError instead of falling back (and
    returns a certified residue-only value as it stands);
    method="oracle" skips the closed forms entirely.
    """
    if method == "oracle":
        return char_sum_direct(f)
    p = f.p
    if f.is_zero:
        return SumValue(0, method="constant")
    d = f.degree
    if d == 0:
        return eval_constant(f.coeffs[0], p)
    if d == 1:
        return eval_linear(f.coeffs[1], f.coeffs[0], p)
    if d == 2:
        return eval_quadratic(f.coeffs[2], f.coeffs[1], f.coeffs[0], p)
    try:
        if d == 3:
            monic = f.monic()
            hit = _match_cubic_family(monic)
            if hit is not None:
                sv = eval_cubic_cm(hit[0], hit[1], p)
                if f.leading == 1:
                    return sv
                return SumValue(legendre(f.leading, p) * sv.value, method=sv.method, parts=sv.parts)
            c0, c1, c2 = monic.coeffs[:3]
            if p >= ec.GROUP_ORDER_MIN_P and cubic_discriminant_test(c2, c1, c0, p).symbol:
                return eval_cubic_group_order(f)
            return eval_split_cubic(f, seed=seed)
        mono = _match_monomial_plus_const(f)
        if mono is not None and (p - 1) % (2 * mono[0]) == 0:
            sv = eval_power_2k(mono[0], mono[1], p)
            # a residue-only value goes on to the exact paths below
            if not sv.residue_only or method == "closed":
                return sv
        if d == 4:
            return quartic_reduce(f, seed=seed)
        if d == 6 and f.leading == 1 and not any(f.coeffs[1::2]):
            half = FpPolynomial.make(p, f.coeffs[0::2])
            if half.degree == 3:
                hit = _match_cubic_family(half)
                if hit is not None:
                    return eval_derived_gn(hit[0], hit[1], p, seed=seed)
    except NotSplitError:
        if method == "closed":
            raise
        return SumValue(_oracle_fallback(f.coeffs, p, "not_split"), method="oracle_fallback")
    if method == "closed":
        raise NotSplitError(f"no closed form for degree {d} shape")
    return SumValue(_oracle_fallback(f.coeffs, p, "no_closed_form"), method="oracle_fallback")


def point_count(family: str, params: dict, p, method: str = "auto") -> tuple[PointCount, SumValue]:
    """Affine and projective point counts of the family's curve y^2 = f(x)."""
    p = as_modulus(p)
    kind, n = families.parse_family_id(family)
    if method == "oracle":
        sv = char_sum_direct(_family_poly(family, params, p))
    elif kind == "f":
        sv = eval_cubic_cm(n, params["a"], p)
    elif kind == "g":
        sv = eval_derived_gn(n, params["a"], p)
    elif kind == "legendre":
        sv = hasse.legendre_form_sum(params["beta"], p)
    else:
        sv = eval_form(families.FormParams(kind=kind, **params), p)
    if sv.residue_only:
        raise ValueError("cannot count points from a residue-only sum")
    return PointCount(affine=p + sv.value, projective=p + 1 + sv.value), sv


def _family_poly(family: str, params: dict, p: int) -> FpPolynomial:
    kind, n = families.parse_family_id(family)
    if kind == "f":
        return families.cubic_poly(n, params["a"], p)
    if kind == "g":
        return families.derived_poly(n, params["a"], p)
    return families.form_poly(families.FormParams(kind=kind, **params), p)


def weil_audit(
    family_ids: Sequence[str] = ("g1", "g2", "g3", "g7", "g11", "g19", "g43", "g67", "g163"),
    p_max: int = 300,
    a_values: Sequence[int] = (1, 2, 3),
) -> dict:
    """Oracle sweep of |S|/sqrt(p) per derived family.

    Asserted bounds: the genus bound on the smooth-model trace,
    |S + chi(lc)| <= 2g sqrt(p) (the even-degree model carries two points
    at infinity when the leading coefficient is a square), and the
    unconditional Weil bound |S| <= (deg - 1) sqrt(p).  The sharper
    2 sqrt(p) claim is recorded observationally; S(x^6 + 1) = 7 over F_7
    (ratio ~2.65) already violates it, and raw |S| can exceed
    2g sqrt(p) by the infinity correction (e.g. S = -41 at p = 103).
    """
    from .oracle import primes_in

    out: dict = {
        "p_max": p_max,
        "families": {},
        "genus_bound_violations": [],
        "weil_bound_violations": [],
        "two_sqrt_violations": [],
    }
    for fam in family_ids:
        kind, n = families.parse_family_id(fam)
        quartic = kind == "g" and n in (1, 2, 7)
        two_g = 2 if quartic else 4
        max_ratio, max_case = 0.0, None
        for p in primes_in(3, p_max + 1):
            for a in a_values:
                try:
                    poly = _family_poly(fam, {"a": a}, p)
                except BadReductionError:
                    continue
                s = char_sum_coeffs(poly.coeffs, p)
                ratio = abs(s) / math.sqrt(p)
                if ratio > max_ratio:
                    max_ratio, max_case = ratio, (p, a, s)
                trace = s + legendre(poly.leading, p)
                if abs(trace) > two_g * math.sqrt(p):
                    out["genus_bound_violations"].append(
                        {"family": fam, "p": p, "a": a, "S": s, "trace": trace}
                    )
                if abs(s) > (poly.degree - 1) * math.sqrt(p):
                    out["weil_bound_violations"].append(
                        {"family": fam, "p": p, "a": a, "S": s}
                    )
                if ratio > 2.0:
                    out["two_sqrt_violations"].append(
                        {"family": fam, "p": p, "a": a, "S": s, "ratio": round(ratio, 4)}
                    )
        out["families"][fam] = {
            "max_ratio": round(max_ratio, 4),
            "worst_case": max_case,
            "genus_coefficient": two_g,
        }
    return out
