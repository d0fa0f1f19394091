import json
from importlib import resources

import pytest

from charsum import cm, ec, families, oracle
from charsum.oracle import char_sum_coeffs, primes_in


def test_is_inert_examples():
    assert cm.is_inert(1, 7).inert
    assert not cm.is_inert(1, 5).inert
    assert not cm.is_inert(3, 13).inert
    with pytest.raises(ValueError):
        cm.is_inert(3, 3)


def test_representations_examples():
    reps = cm.representations_4p(1, 5)
    assert {(r.u, r.v) for r in reps} == {(4, 2), (2, 4)}
    reps = cm.representations_4p(3, 13)
    assert {(r.u, r.v) for r in reps} == {(7, 1), (5, 3), (2, 4)}
    assert cm.representations_4p(1, 7) == []


def test_representation_invariants():
    for r in cm.representations_4p(3, 13):
        assert r.u * r.u + 3 * r.v * r.v == 52
        assert r.primitive == (r.gcd_uv <= 2)
    for r in cm.representations_p(1, 13):
        assert r.u * r.u + r.v * r.v == 13


def test_inert_xor_representation():
    for n in cm.VALID_N:
        for p in primes_in(3, 2000)[::3]:
            if (2 * n) % p == 0:
                continue
            inert = cm.is_inert(n, p).inert
            reps = cm.representations_4p(n, p)
            assert inert == (not reps), (n, p)


def test_parity_fact_n_3_mod_4():
    # for n = 3 mod 4, u and v share parity in any representation of 4p
    for n in (3, 7, 11, 19, 43, 67, 163):
        for p in primes_in(3, 500):
            if (2 * n) % p == 0:
                continue
            for r in cm.representations_4p(n, p):
                assert r.u % 2 == r.v % 2, (n, p, r)


def test_cornacchia_agrees_with_scan():
    for n in cm.VALID_N:
        for p in primes_in(5, 400):
            if (2 * n) % p == 0:
                continue
            scan = {(r.u, r.v) for r in cm.representations_4p(n, p, method="scan")}
            fast = {(r.u, r.v) for r in cm.representations_4p(n, p, method="cornacchia")}
            assert scan == fast, (n, p, scan, fast)


def test_cornacchia_large_prime():
    p = 2**31 - 1  # = 3 mod 4, inert for n = 1
    assert cm.cornacchia(1, p) is None
    p2 = 1073741831  # prime, 7 mod 8
    sol = cm.cornacchia(7, p2)
    if sol is not None:
        x, y = sol
        assert x * x + 7 * y * y == p2


def test_normalized_u_deterministic_and_matches_oracle_base():
    from charsum import families

    for n in cm.VALID_N:
        for p in primes_in(3, 300):
            try:
                poly = families.cubic_poly(n, 1, p)
            except Exception:
                continue
            u1 = cm.normalized_u(n, p)
            u2 = cm.normalized_u(n, p)
            assert u1 == u2
            s = char_sum_coeffs(poly.coeffs, p)
            if cm.is_inert(n, p).inert:
                assert u1 is None
            else:
                assert u1 == s, (n, p, u1, s)


def test_some_representation_matches_oracle_magnitude():
    from charsum import families

    for n in cm.VALID_N:
        for p in primes_in(3, 300):
            for a in (1, 2, 3):
                try:
                    poly = families.cubic_poly(n, a, p)
                except Exception:
                    continue
                if cm.is_inert(n, p).inert:
                    continue
                s = abs(char_sum_coeffs(poly.coeffs, p))
                mags = {r.u for r in cm.representations_4p(n, p)}
                assert s in mags, (n, p, a, s, mags)


def test_trace_residue_against_oracle():
    from charsum import families

    for n in cm.VALID_N:
        for p in primes_in(3, 200):
            try:
                poly = families.cubic_poly(n, 1, p)
            except Exception:
                continue
            if cm.is_inert(n, p).inert:
                continue
            s = char_sum_coeffs(poly.coeffs, p)
            assert (s - cm.base_trace_residue(n, p)) % p == 0, (n, p)


def test_conventions_table_loaded():
    table = cm.load_conventions()
    assert set(table) == {f"f{n}" for n in cm.VALID_N}
    for entry in table.values():
        assert entry["rule"] in cm.RULES


def test_normalized_u_witness_values():
    # pinned witnesses: S(x^3+x; F_5) = -2, S(x^3+1; F_13) = -2, inert at 7
    assert cm.normalized_u(1, 5) == -2
    assert cm.normalized_u(3, 13) == -2
    assert cm.normalized_u(1, 7) is None


def test_group_order_sign_matches_oracle():
    # every split p < 3000 of the families with unit group {+-1}; a point
    # leaving both signs standing is allowed only below Mestre's bound
    for n in (2, 7, 11, 19, 43, 67, 163):
        for p in primes_in(3, 3000):
            try:
                poly = families.cubic_poly(n, 1, p)
            except Exception:
                continue
            if cm.is_inert(n, p).inert:
                continue
            s = char_sum_coeffs(poly.coeffs, p)
            (rep,) = cm.representations_4p(n, p)
            sign = ec.trace_sign(families.cubic_coeffs(n, 1), rep.u, p)
            assert sign == s or (sign is None and p <= 229), (n, p, sign, s)
            assert cm.RULES["group_order"](n, p, [rep]) == s, (n, p)


def test_pin_conventions_regenerates_shipped_table():
    table, errata = oracle.pin_conventions(p_train=500, p_verify=2000)
    shipped = json.loads(
        resources.files("charsum").joinpath("data/conventions.json").read_text()
    )
    assert errata == []
    assert json.loads(json.dumps(table)) == shipped
    assert {shipped[f]["rule"] for f in ("f2", "f11")} == {"group_order"}
