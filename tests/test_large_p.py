"""Cross-validation of the fast paths beyond the oracle's comfort range.

The scan and Cornacchia representation searches must agree everywhere;
the CM evaluators' signs at large p are pinned by the trace congruence,
which is oracle-independent and exact, so the O(log p) path can be
checked against it directly.  Past the trace congruence's own cap the
values are checked by the order of a point on the curve y^2 = f(x).
"""

import time
import tracemalloc

import pytest

from charsum import closedform as cf
from charsum import cm, ec, families, hasse, oracle
from charsum.algebra import FpPolynomial, centered_lift, next_prime, sqrt_mod


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
            hasse.legendre_form_sum(2, p)
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
