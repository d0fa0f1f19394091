import pytest

from charsum import cm, ec, families
from charsum.cli import SUITES
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
    # SIGN_RULE is the one table of sign rules: one registered rule per
    # family, and the cubic-cm suite reports the same table
    assert set(cm.SIGN_RULE) == set(cm.VALID_N)
    for rule in cm.SIGN_RULE.values():
        assert rule in cm.RULES
    probe = {r.family: r for r in SUITES["cubic-cm"](200, None)}["cubic_cm_printed_selector"]
    assert {f: s["rule"] for f, s in probe.conventions.items()} == {
        f"f{n}": rule for n, rule in cm.SIGN_RULE.items()
    }


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


def test_cubic_cm_suite_reports_the_printed_selector():
    reports = {r.family: r for r in SUITES["cubic-cm"](2000, None)}
    assert all(not r.unexplained for r in reports.values())
    probe = reports["cubic_cm_printed_selector"]
    assert sorted(e.split(":")[0] for e in probe.errata) == ["f1", "f11", "f2", "f3", "f7"]
    first = {
        f: (s["printed_selector"], s.get("first_p")) for f, s in probe.conventions.items()
    }
    assert first == {
        "f1": ("indecisive", 5),
        "f2": ("indecisive", 3),
        "f3": ("indecisive", 7),
        "f7": ("wrong", 23),
        "f11": ("wrong", 31),
        "f19": ("consistent", None),
        "f43": ("consistent", None),
        "f67": ("consistent", None),
        "f163": ("consistent", None),
    }
    assert cm.SIGN_RULE[2] == cm.SIGN_RULE[11] == "group_order"


def _signed_splits(n, lo, hi):
    for p in primes_in(lo, hi):
        try:
            poly = families.cubic_poly(n, 1, p)
        except Exception:
            continue
        if not cm.is_inert(n, p).inert:
            yield p, char_sum_coeffs(poly.coeffs, p)


def _rule_agrees(rule, n, splits):
    for p, s in splits:
        try:
            if rule(n, p, cm.representations_4p(n, p)) != s:
                return False
        except Exception:
            return False
    return True


def test_pin_conventions_regenerates_shipped_table():
    # train every registered rule against the oracle below 500, take the
    # first one that agrees (group_order, the O(log p) rule, is registered
    # last), then verify the choice up to 2000
    regenerated = {}
    for n in cm.VALID_N:
        train = list(_signed_splits(n, 3, 500))
        regenerated[n] = next(
            name for name, rule in cm.RULES.items() if _rule_agrees(rule, n, train)
        )
        assert _rule_agrees(cm.RULES[regenerated[n]], n, _signed_splits(n, 500, 2000)), n
    assert regenerated == cm.SIGN_RULE
    assert {regenerated[n] for n in (2, 11)} == {"group_order"}
