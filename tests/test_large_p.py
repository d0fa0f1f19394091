"""Cross-validation of the fast paths beyond the oracle's comfort range.

The scan and Cornacchia representation searches must agree everywhere;
the CM evaluators' signs at large p are pinned by the trace congruence,
which is oracle-independent and exact, so the O(log p) path can be
checked against it directly.  Past the trace congruence's own cap the
values are checked by the order of a point on the curve y^2 = f(x).
"""

import math
import random
import time
import tracemalloc

import pytest

from charsum import closedform as cf
from charsum import cm, ec, families, hasse, oracle
from charsum.algebra import FpPolynomial, centered_lift, legendre, next_prime, sqrt_mod


def test_cornacchia_matches_scan_at_seven_digits():
    for n in (1, 2, 3, 7, 11, 19, 43, 67, 163):
        p = next_prime(10_000_019 + n)
        scan = {(r.u, r.v) for r in cm.representations_4p(n, p, method="scan")}
        fast = {(r.u, r.v) for r in cm.representations_4p(n, p, method="cornacchia")}
        assert scan == fast, (n, p)


def test_unit_class_rules_match_trace_congruence_at_large_p():
    # the n = 1 and n = 3 base rules against the exact binomial congruence
    for n, rule in ((1, "quartic_unit_class"), (3, "sextic_unit_class")):
        count = 0
        p = 200_003
        while count < 3:
            p = next_prime(p)
            if cm.is_inert(n, p).inert:
                continue
            reps = cm.representations_4p(n, p)
            base = cm.RULES[rule](n, p, reps)
            assert base % p == cm.base_trace_residue(n, p), (n, p)
            count += 1


def test_symbol_rules_match_trace_congruence_at_large_p():
    for n in (2, 7, 11, 19, 43, 67, 163):
        count = 0
        p = 300_007
        while count < 2:
            p = next_prime(p)
            if (2 * n) % p == 0 or cm.is_inert(n, p).inert:
                continue
            u = cm.normalized_u(n, p)
            assert u % p == cm.base_trace_residue(n, p), (n, p, u)
            count += 1


def test_eval_cubic_cm_large_p_internal_consistency():
    # closed value at p ~ 2^18, all a-classes, against the generalized
    # congruence S = base * a^((p-1)/w) mod p with the certified lift
    p = next_prime(1 << 18)
    while cm.is_inert(1, p).inert:
        p = next_prime(p)
    for a in (1, 2, 3, 5, 7):
        v = cf.eval_cubic_cm(1, a, p).value
        base = cm.base_trace_residue(1, p)
        expect = centered_lift(base * pow(a, (p - 1) // 4, p), p)
        assert v == expect, (p, a, v, expect)


def test_phi_bijection_branch():
    from charsum.oracle import jacobsthal_direct

    # gcd(k, p-1) = 1 with odd k: phi collapses to a quadratic sum
    for k, p in ((5, 7), (3, 5), (7, 11)):
        sv = cf.phi_closed(k, 2, p)
        assert sv.value == -1 and sv.method == "phi/bijection"
        assert jacobsthal_direct("phi", k, 2, p).value == -1


def _split_prime(n: int, start: int) -> int:
    p = next_prime(start)
    while (2 * n) % p == 0 or cm.is_inert(n, p).inert:
        p = next_prime(p)
    return p


def _point_order_divides(order: int, coeffs, p: int) -> bool:
    """order * P = O for the first point P with x >= 1 on y^2 = f(x)."""
    c0, c1, c2 = coeffs[:3]
    x = 1
    while True:
        y = sqrt_mod(((x + c2) * x + c1) * x + c0, p)
        if y:
            return ec.multiply(order, (x, y), c2 % p, c1 % p, p) is None
        x += 1


def test_closed_forms_answer_at_2_61():
    # every f_n, and the quartic derived families, past the old 2^31 cap:
    # |S| is a representation u, and p + 1 + S kills a point on the curve
    for n in families.N_VALUES:
        p = _split_prime(n, 1 << 61)
        mags = {r.u for r in cm.representations_4p(n, p)}
        for a in (1, 2, 3):
            t0 = time.perf_counter()
            s = cf.eval_cubic_cm(n, a, p).value
            assert time.perf_counter() - t0 < 0.05, (n, a)
            assert abs(s) in mags, (n, a, p, s)
            assert _point_order_divides(p + 1 + s, families.cubic_coeffs(n, a), p), (n, a, p)
            assert cf.evaluate(FpPolynomial.make(p, families.cubic_coeffs(n, a))).value == s
            if n in (1, 2, 7):
                g = cf.eval_derived_gn(n, a, p)
                assert g.value == g.part("head") + s, (n, a, p)


def test_hasse_cap_refuses_before_allocating():
    p = next_prime(1 << 26)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^26"):
            hasse.hasse_eval(2, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_jacobsthal_oracle_cap_refuses_before_allocating():
    p = next_prime(1 << 26)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^26"):
            oracle.jacobsthal_direct("psi", 2, 1, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _certified(coeffs, s: int, p: int) -> bool:
    """S for the monic cubic (c0, c1, c2, 1) passes the group-order certificate.

    |S| <= 2 sqrt(p); p + 1 + S kills a point of y^2 = f(x), and p + 1 - S a
    point of its twist by the least non-residue d, y^2 = d^3 f(x / d).
    """
    c0, c1, c2 = (c % p for c in coeffs[:3])
    d = next(d for d in range(2, p) if legendre(d, p) == -1)
    twist = (c0 * d**3 % p, c1 * d * d % p, c2 * d % p)
    return (
        s * s <= 4 * p
        and _point_order_divides(p + 1 + s, (c0, c1, c2), p)
        and _point_order_divides(p + 1 - s, twist, p)
    )


def _quartic_certified(coeffs, r: int, s: int, p: int) -> bool:
    """S(f) for the quartic f with f(r) = 0 passes the certificate on its cubic.

    t^4 f(r + 1/t) = g(t) = b1 t^3 + b2 t^2 + b3 t + b4 with b_j the Taylor
    coefficients of f at r, and S(f) = S(g) - (b4|p); the monic g / b1 has
    the sum (b1|p) S(g).
    """
    b = [sum(coeffs[i] * math.comb(i, j) * pow(r, i - j, p) for i in range(j, 5)) % p for j in range(5)]
    assert b[0] == 0, "r is not a root"
    inv = pow(b[1], -1, p)
    monic = (b[4] * inv % p, b[3] * inv % p, b[2] * inv % p)
    return _certified(monic, legendre(b[1], p) * (s + legendre(b[4], p)), p)


def _with_character(rng, p: int, chi: int) -> int:
    while True:
        x = rng.randrange(2, p - 1)
        if legendre(x, p) == chi:
            return x


@pytest.mark.parametrize("bits", (30, 40))
def test_genus_one_values_certified_past_the_oracle_cap(bits):
    rng = random.Random(bits)
    p = next_prime(1 << bits)
    beta = rng.randrange(2, p)
    _, sv = cf.point_count("legendre", {"beta": beta}, p)
    assert sv.method == "legendre_form/group_order"
    assert _certified((0, beta, -(1 + beta)), sv.value, p)
    for chi in (1, -1):  # the second root pair splits, or not
        beta, k = _with_character(rng, p, chi), rng.randrange(2, p)
        prm = families.FormParams(kind="newton", beta=beta, k=k)
        s = cf.point_count("newton", {"beta": beta, "k": k}, p)[1].value
        assert _quartic_certified(families.form_poly(prm, p).coeffs, pow(k, -1, p), s, p), (chi, beta, k)
        c, d = rng.randrange(2, p), _with_character(rng, p, chi)
        prm = families.FormParams(kind="edwards", c=c, d=d)
        s = cf.point_count("edwards", {"c": c, "d": d}, p)[1].value
        assert _quartic_certified(families.form_poly(prm, p).coeffs, c, s, p), (chi, c, d)
    roots = rng.sample(range(p), 4)
    f = FpPolynomial.from_roots(p, roots, lc=rng.randrange(1, p))
    sv = cf.evaluate(f)
    assert sv.method == "quartic_cross_ratio/group_order"
    assert _quartic_certified(f.coeffs, roots[0], sv.value, p)
    for n in (3, 11, 19, 43):
        a = rng.randrange(1, p)
        sv = cf.eval_derived_gn(n, a, p)
        cubic = [c % p for c in families.cubic_coeffs(n, a)]
        assert _certified(cubic, sv.part("cubic"), p), (n, a)
        assert _quartic_certified([0] + cubic, 0, sv.part("head"), p), (n, a)


def test_quartic_metamorphic_identity_at_2_30():
    # S(c f(u x + v)) = (c|p) S(f), on quartics with a rational root
    rng = random.Random(1 << 30)
    p = next_prime(1 << 30)
    for _ in range(6):
        f = FpPolynomial.from_roots(p, [rng.randrange(p)]) * FpPolynomial.make(
            p, [rng.randrange(p) for _ in range(3)] + [1]
        )
        c, u, v = rng.randrange(1, p), rng.randrange(1, p), rng.randrange(p)
        out, power = [0] * 5, [1]  # power = (u x + v)^i
        for fi in f.coeffs:
            for j, pj in enumerate(power):
                out[j] = (out[j] + c * fi * pj) % p
            power = [(v * a + u * b) % p for a, b in zip(power + [0], [0] + power)]
        g = FpPolynomial.make(p, out)
        assert cf.evaluate(g).value == legendre(c, p) * cf.evaluate(f).value, (f.coeffs, c, u, v)


def test_genus_one_forms_answer_in_milliseconds_at_2_30():
    p = next_prime(1 << 30)
    calls = [
        lambda: cf.point_count("legendre", {"beta": 7}, p),
        lambda: cf.point_count("newton", {"beta": 3, "k": 5}, p),
        lambda: cf.point_count("edwards", {"c": 3, "d": 2}, p),
        lambda: cf.evaluate(FpPolynomial.from_roots(p, [3, 17, 12345, 999999], lc=7)),
    ]
    for call in calls:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t0)
        assert best < 0.050, best
