"""The group-order genus-1 trace (ec.cubic_sum) and the paths routed to it.

Below 2^26 the oracle and the Hasse lift are the ground truth; the
search must agree with both, certify a unique trace, and refuse with a
typed error where it cannot.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charsum import closedform as cf
from charsum import ec, hasse
from charsum.algebra import FpPolynomial, centered_lift, legendre, next_prime, roots_in_fp
from charsum.exceptions import CharsumError, NotSplitError, TraceUndecidedError
from charsum.oracle import char_sum_coeffs, primes_in

MID_PRIMES = primes_in(ec.GROUP_ORDER_MIN_P, 1 << 14)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _squarefree_cubic(coeffs, p):
    c0, c1, c2, c3 = (c % p for c in coeffs)
    disc = c2 * c2 * c1 * c1 - 4 * c3 * c1**3 - 4 * c2**3 * c0 - 27 * c3 * c3 * c0 * c0 + 18 * c3 * c2 * c1 * c0
    return c3 != 0 and disc % p != 0


@SETTINGS
@given(p=st.sampled_from(MID_PRIMES), coeffs=st.lists(st.integers(0, 1 << 14), min_size=4, max_size=4))
def test_cubic_group_order_matches_oracle(p, coeffs):
    assume(_squarefree_cubic(coeffs, p))
    f = FpPolynomial.make(p, coeffs)
    sv = cf.eval_cubic_group_order(f)
    assert sv.value == char_sum_coeffs(f.coeffs, p)
    assert sv.part("a_p") == -sv.value and sv.part("points") >= 1
    assert cf.evaluate(f).value == sv.value


@SETTINGS
@given(
    p=st.sampled_from(MID_PRIMES),
    lc=st.integers(1, 1 << 14),
    r=st.integers(0, 1 << 14),
    tail=st.lists(st.integers(0, 1 << 14), min_size=3, max_size=3),
)
def test_quartic_with_one_rational_root_matches_oracle(p, lc, r, tail):
    # (x - r) times a cubic with no root in F_p
    h = FpPolynomial.make(p, tail + [1])
    assume(lc % p and not roots_in_fp(h))
    f = FpPolynomial.from_roots(p, [r], lc=lc) * h
    sv = cf.evaluate(f)
    assert sv.method == "rational_root_cubic"
    assert sv.part("root") == r % p
    assert sv.value == char_sum_coeffs(f.coeffs, p)


@SETTINGS
@given(
    p=st.sampled_from(MID_PRIMES),
    lc=st.integers(1, 1 << 14),
    roots=st.lists(st.integers(0, 1 << 14), min_size=2, max_size=2),
    b=st.integers(0, 1 << 14),
    c=st.integers(0, 1 << 14),
)
def test_quartic_with_two_rational_roots_matches_oracle(p, lc, roots, b, c):
    # (x - r1)(x - r2) times a quadratic with no root in F_p
    assume(lc % p and (roots[0] - roots[1]) % p and legendre(b * b - 4 * c, p) == -1)
    f = FpPolynomial.from_roots(p, roots, lc=lc) * FpPolynomial.make(p, [c, b, 1])
    sv = cf.evaluate(f)
    assert sv.method == "rational_root_cubic"
    assert sv.value == char_sum_coeffs(f.coeffs, p)


def test_hasse_lift_equals_group_order():
    rng = random.Random(2024)
    for _ in range(40):
        p = next_prime(rng.randrange(1 << 10, 1 << rng.randrange(11, 21)))
        beta = rng.randrange(2, p)
        ap = centered_lift(hasse.hasse_eval(beta, p), p)
        s, _ = ec.cubic_sum((0, beta, -(1 + beta), 1), p)
        assert s == -ap, (p, beta)
        sv = hasse.legendre_form_sum(beta, p)
        assert sv.method == "legendre_form/group_order" and sv.value == s
        assert sv.part("a_p") == ap and sv.part("points") >= 1


def test_crossover_keeps_the_old_paths_below_it():
    below, at = 1021, ec.GROUP_ORDER_MIN_P + 9  # 1033 is prime
    assert hasse.legendre_form_sum(5, below).method == "legendre_form/hasse_lift"
    assert hasse.legendre_form_sum(5, at).method == "legendre_form/group_order"
    # (x - 1)(x^3 + 5): x^3 + 5 has no root mod 1021 (-5 is not a cube there)
    f = FpPolynomial.make(below, [-5, 5, 0, -1, 1])
    with pytest.raises(NotSplitError):
        cf.quartic_reduce(f)
    assert cf.evaluate(f).method == "oracle_fallback"
    assert cf.evaluate(f).value == char_sum_coeffs(f.coeffs, below)


def test_undecided_trace_raises_a_typed_error():
    # y^2 = x(x-1)(x-2) over F_5: every point tried leaves several traces
    with pytest.raises(TraceUndecidedError, match="229") as exc:
        ec.cubic_sum((0, 2, -3, 1), 5)
    assert isinstance(exc.value, CharsumError) and not isinstance(exc.value, RuntimeError)
    # no wrong value is let out at any small prime: it answers right or raises
    for p in primes_in(3, 240):
        for beta in range(2, p):
            try:
                s, _ = ec.cubic_sum((0, beta, -(1 + beta), 1), p)
            except TraceUndecidedError:
                assert p <= 229
                continue
            assert s == char_sum_coeffs((0, beta, -(1 + beta), 1), p), (p, beta)
