import random
from itertools import permutations

import pytest

from charsum import closedform as cf
from charsum import families, hasse
from charsum.algebra import FpPolynomial, legendre
from charsum.exceptions import BadReductionError, NotSplitError
from charsum.oracle import char_sum_coeffs, jacobsthal_direct, primes_in


def test_eval_linear():
    assert cf.eval_linear(3, 1, 11).value == 0
    assert cf.eval_linear(1, 0, 7).value == 0
    assert cf.eval_linear(5, 2, 13).value == 0
    with pytest.raises(ValueError):
        cf.eval_linear(11, 2, 11)


def test_eval_constant():
    assert cf.eval_constant(2, 7).value == 7  # 2 is a QR mod 7
    assert cf.eval_constant(3, 7).value == -7
    assert cf.eval_constant(7, 7).value == 0


def test_eval_quadratic_examples():
    assert cf.eval_quadratic(1, 0, 1, 5).value == -1
    assert cf.eval_quadratic(1, 2, 1, 7).value == 6
    assert cf.eval_quadratic(2, 0, 0, 7).value == 6
    # a = 0 mod p delegates to the linear case
    assert cf.eval_quadratic(7, 3, 1, 7).value == 0


def test_eval_quadratic_against_oracle():
    rng = random.Random(8)
    for p in primes_in(3, 300)[::3]:
        for _ in range(25):
            a = rng.randrange(1, p)
            b, c = rng.randrange(p), rng.randrange(p)
            assert cf.eval_quadratic(a, b, c, p).value == char_sum_coeffs((c, b, a), p)


def test_eval_cubic_cm_witnesses():
    assert cf.eval_cubic_cm(1, 1, 5).value == -2
    assert cf.eval_cubic_cm(1, 1, 7).value == 0
    assert cf.eval_cubic_cm(3, 1, 13).value == -2
    with pytest.raises(BadReductionError):
        cf.eval_cubic_cm(3, 3, 3)


def test_eval_cubic_cm_signed_sweep():
    for n in families.N_VALUES:
        for p in primes_in(3, 400):
            for a in (1, 2, 3):
                try:
                    poly = families.cubic_poly(n, a, p)
                except BadReductionError:
                    continue
                sv = cf.eval_cubic_cm(n, a, p)
                assert sv.value == char_sum_coeffs(poly.coeffs, p), (n, a, p)


def test_quartic_reduce_witness_and_degenerates():
    f = FpPolynomial.from_roots(7, [0, 6, 5, 4])  # x(x+1)(x+2)(x+3)
    sv = cf.quartic_reduce(f)
    # beta lands in the cross-ratio orbit {2, 4, 6} of the example's 6
    assert sv.value == -1 and sv.part("beta") in (2, 4, 6)
    # x^2 (x+1)(x+2) over F_7
    g = FpPolynomial.make(7, [0, 0, 2, 3, 1])
    assert cf.quartic_reduce(g).value == char_sum_coeffs(g.coeffs, 7) == -2
    # perfect square (x^2-1)^2 over F_5: p - 2
    h = FpPolynomial.from_roots(5, [1, 4, 1, 4])
    assert cf.quartic_reduce(h).value == 3
    # square of an irreducible quadratic: (x^2+1)^2 over F_7 gives p
    q = FpPolynomial.make(7, [1, 0, 1]) * FpPolynomial.make(7, [1, 0, 1])
    assert cf.quartic_reduce(q).value == 7
    with pytest.raises(NotSplitError):
        cf.quartic_reduce(FpPolynomial.make(7, [3, 0, 1, 0, 1]))


def test_quartic_reduce_random_vs_oracle():
    rng = random.Random(9)
    for p in primes_in(5, 500)[::4]:
        for _ in range(15):
            roots = rng.sample(range(p), 4) if p > 4 else [0, 1, 2, 3]
            f = FpPolynomial.from_roots(p, roots)
            assert cf.quartic_reduce(f).value == char_sum_coeffs(f.coeffs, p), (p, roots)


def test_quartic_permutation_invariance():
    rng = random.Random(10)
    for p in primes_in(17, 200)[::2]:
        roots = rng.sample(range(p), 4)
        f = FpPolynomial.from_roots(p, roots)
        expected = char_sum_coeffs(f.coeffs, p)
        for perm in permutations(roots):
            alpha, beta = cf.cross_ratio_params(perm, p)
            s = -1 + legendre(alpha, p) * hasse.legendre_form_sum(beta, p).value
            assert s == expected, (p, perm)


def test_split_transform_examples():
    f = FpPolynomial.make(5, [1, 0, 1])  # x^2 + 1
    sv = cf.split_transform(f)
    assert sv.value == -3
    g = FpPolynomial.from_roots(7, [1, 3])  # (x-1)(x-3)
    assert cf.split_transform(g).value == -5
    c = FpPolynomial.make(7, [3])
    assert cf.split_transform(c).value == cf.eval_constant(3, 7).value


def test_split_transform_matches_derived():
    # compositional identity: S(f_n(x^2)) equals S(g_n) for the sextics,
    # and S(g_n) - chi(g_n(0)) for the quartics (stripped x^2 factor)
    for n in families.N_VALUES:
        for p in primes_in(3, 150):
            for a in (1, 2):
                try:
                    f = families.cubic_poly(n, a, p)
                    g = families.derived_poly(n, a, p)
                except BadReductionError:
                    continue
                lhs = cf.split_transform(f).value
                rhs = char_sum_coeffs(g.coeffs, p)
                if n in (1, 2, 7):
                    rhs -= legendre(g(0), p)
                assert lhs == rhs, (n, a, p)


def test_eval_derived_witnesses():
    assert cf.eval_derived_gn(1, 1, 5).value == -3
    assert cf.eval_derived_gn(1, 1, 7).value == -1
    assert cf.eval_derived_gn(3, 1, 7).value == 7


def test_eval_derived_sweep():
    for n in families.N_VALUES:
        for p in primes_in(3, 300):
            for a in (1, 2, 3):
                try:
                    g = families.derived_poly(n, a, p)
                except BadReductionError:
                    continue
                sv = cf.eval_derived_gn(n, a, p)
                assert sv.value == char_sum_coeffs(g.coeffs, p), (n, a, p, sv)


def test_eval_form_and_newton_k1():
    sv = cf.eval_form(families.FormParams(kind="newton", k=1, beta=3), 7)
    assert sv.value == -5
    assert cf.eval_newton_k1(3, 7).value == -5
    assert cf.eval_newton_k1(2, 5).value == 1
    # legendre kind delegates to the trace lift
    sv = cf.eval_form(families.FormParams(kind="legendre", beta=2), 19)
    assert sv.value == char_sum_coeffs((0, 2, (-(3)) % 19, 1), 19)


def test_newton_k1_equals_form_path():
    # exhaustive over beta for small p, sampled beyond
    for p in primes_in(5, 100):
        for beta in range(2, p - 1):
            a = cf.eval_newton_k1(beta, p).value
            b = cf.eval_form(families.FormParams(kind="newton", k=1, beta=beta), p).value
            assert a == b == char_sum_coeffs((beta, 0, (-(beta + 1)) % p, 0, 1), p), (p, beta)
    rng = random.Random(11)
    for p in primes_in(101, 500)[::5]:
        for _ in range(8):
            beta = rng.randrange(2, p - 1)
            a = cf.eval_newton_k1(beta, p).value
            b = cf.eval_form(families.FormParams(kind="newton", k=1, beta=beta), p).value
            assert a == b, (p, beta)


def test_edwards_form_against_oracle():
    rng = random.Random(12)
    for p in primes_in(5, 300)[::4]:
        for _ in range(10):
            c, d = rng.randrange(1, p), rng.randrange(1, p)
            try:
                prm = families.FormParams(kind="edwards", c=c, d=d)
                poly = families.form_poly(prm, p)
            except Exception:
                continue
            sv = cf.eval_form(prm, p)
            assert sv.value == char_sum_coeffs(poly.coeffs, p), (p, c, d)
            if legendre(d, p) == -1:
                assert "fallback" in sv.method


def test_psi_closed():
    assert cf.psi_closed(3, 1, 13).agrees_with(-2)  # index-range regression
    assert cf.psi_closed(2, 1, 5).value == -1
    assert cf.psi_closed(5, 1, 7).value == 0  # gcd(5, 6) = 1
    with pytest.raises(ValueError):
        cf.psi_closed(4, 1, 7)  # 4 | 6 fails and gcd != 1


def test_phi_closed():
    assert cf.phi_closed(3, 1, 13).agrees_with(-3)
    assert cf.phi_closed(2, 1, 5).agrees_with(-2)
    assert cf.phi_closed(2, 1, 7).value == 0  # 7 = 3 mod 4
    assert cf.phi_closed(2, 5, 7).value == 0


def test_phi_psi_residues_match_oracle():
    for k in range(2, 7):
        for p in primes_in(5, 300):
            if (p - 1) % (2 * k):
                continue
            for a in (1, 2, 7):
                if a % p == 0:
                    continue
                psi = cf.psi_closed(k, a, p)
                phi = cf.phi_closed(k, a, p)
                assert psi.agrees_with(jacobsthal_direct("psi", k, a, p).value)
                assert phi.agrees_with(jacobsthal_direct("phi", k, a, p).value)


def test_eval_power_2k():
    sv = cf.eval_power_2k(2, 1, 5)
    assert sv.agrees_with(-3)
    assert sv.part("phi") is not None and sv.part("psi") is not None
    # k = 1 reduces to the quadratic sum
    assert cf.eval_power_2k(1, 1, 5).value == cf.eval_quadratic(1, 0, 1, 5).value
    # minus-a variant by substitution
    p = 29
    assert cf.eval_power_2k(2, -3, p).value == char_sum_coeffs(((-3) % p, 0, 0, 0, 1), p)


def test_power_2k_grid():
    for k in (2, 3):
        for p in primes_in(5, 400):
            if (p - 1) % (2 * k):
                continue
            for a in (1, 3):
                coeffs = [a] + [0] * (2 * k - 1) + [1]
                assert cf.eval_power_2k(k, a, p).agrees_with(char_sum_coeffs(coeffs, p))


def test_point_count():
    pc, sv = cf.point_count("g3", {"a": 1}, 7)
    assert (pc.affine, pc.projective) == (14, 15)
    pc, _ = cf.point_count("f1", {"a": 1}, 5)
    assert (pc.affine, pc.projective) == (3, 4)
    pc, _ = cf.point_count("f1", {"a": 1}, 7)
    assert (pc.affine, pc.projective) == (7, 8)
    pc, _ = cf.point_count("legendre", {"beta": 2}, 7)
    assert pc.projective == 8  # supersingular: S = 0


def test_evaluate_dispatcher():
    # every path reports a method and matches the oracle
    rng = random.Random(13)
    for p in primes_in(5, 120)[::2]:
        for _ in range(12):
            deg = rng.randrange(0, 7)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = FpPolynomial.make(p, coeffs)
            sv = cf.evaluate(f)
            assert sv.method
            if not sv.residue_only:
                assert sv.value == char_sum_coeffs(f.coeffs, p), (p, coeffs, sv)


def test_evaluate_recognizes_families():
    f = families.cubic_poly(11, 2, 31)
    sv = cf.evaluate(f)
    assert sv.method.startswith("cubic_cm")
    assert sv.value == char_sum_coeffs(f.coeffs, 31)
    g = families.derived_poly(19, 1, 23)
    sv = cf.evaluate(g)
    assert sv.method.startswith("derived")
    assert sv.value == char_sum_coeffs(g.coeffs, 23)
    m = FpPolynomial.make(13, [1, 0, 0, 0, 0, 0, 1])  # x^6 + 1
    sv = cf.evaluate(m)
    assert sv.agrees_with(char_sum_coeffs(m.coeffs, 13))


def test_evaluate_power_2k_residue_only_goes_on_to_exact_paths():
    # x^(2k) + a with 4(2k-1)^2 >= p: the binomial congruence certifies only
    # a residue, so evaluate answers through the quartic / sextic / oracle paths
    assert cf.eval_power_2k(2, 1, 5).residue_only
    assert cf.evaluate(FpPolynomial.make(5, [1, 0, 0, 0, 1])).value == -3
    for k, p in ((2, 5), (2, 13), (2, 17), (2, 29), (3, 7), (3, 13), (3, 19)):
        for a in range(1, p):
            f = FpPolynomial.make(p, [a] + [0] * (2 * k - 1) + [1])
            sv = cf.evaluate(f)
            assert not sv.residue_only, (k, p, a, sv)
            assert sv.value == char_sum_coeffs(f.coeffs, p), (k, p, a, sv)
    # method="closed" keeps the certified residue
    assert cf.evaluate(FpPolynomial.make(5, [1, 0, 0, 0, 1]), method="closed").residue_only


def test_evaluate_closed_raises_on_unreachable():
    # irreducible quintic has no closed path
    f = FpPolynomial.make(7, [1, 1, 0, 0, 0, 1])
    with pytest.raises(NotSplitError):
        cf.evaluate(f, method="closed")
    assert cf.evaluate(f).method == "oracle_fallback"


def test_weil_audit_report():
    audit = cf.weil_audit(p_max=60, a_values=(1,))
    assert audit["genus_bound_violations"] == []
    # the degree-6 witness: S(x^6+1) = 7 over F_7 violates 2 sqrt(p)
    assert any(
        v["family"] == "g3" and v["p"] == 7 for v in audit["two_sqrt_violations"]
    )
    empty = cf.weil_audit(p_max=2)
    assert all(info["worst_case"] is None for info in empty["families"].values())


def test_oracle_fallbacks_log_their_reason_once(caplog):
    # below the group-order crossover a quartic with no F_p splitting still
    # falls back; each fallback logs one INFO record naming the reason
    p = 7
    quartic = FpPolynomial.make(p, [1, 0, 0, 1, 1])  # x^4 + x^3 + 1 has no root mod 7
    edwards = families.FormParams(kind="edwards", c=1, d=3)  # (3|7) = -1
    n, q = next((n, q) for q in primes_in(5, 200) for n in (3, 11)
                if cf.eval_derived_gn(n, 1, q).method.endswith("oracle_fallback"))
    calls = (
        lambda: cf.evaluate(quartic),
        lambda: cf.eval_form(edwards, p),
        lambda: cf.eval_derived_gn(n, 1, q),
    )
    for call in calls:
        caplog.clear()
        with caplog.at_level("INFO", logger="charsum"):
            sv = call()
        assert sv.method.endswith("oracle_fallback")
        records = [r for r in caplog.records if "oracle fallback" in r.getMessage()]
        assert len(records) == 1 and records[0].levelname == "INFO"
        assert "reason not_split" in records[0].getMessage()
