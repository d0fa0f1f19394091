import random

import pytest

from charsum.algebra import (
    _MR_BASES,
    FpPolynomial,
    OddPrime,
    centered_lift,
    cubic_discriminant_test,
    is_prime,
    jacobi,
    kronecker,
    legendre,
    legendre_euler,
    _strong_probable_prime,
    next_prime,
    power_sum,
    roots_in_fp,
    sqrt_mod,
)
from charsum.oracle import primes_in


def test_odd_prime_validation():
    OddPrime(3)
    OddPrime(2**31 - 1)  # Mersenne prime, right at the cap boundary... is prime
    with pytest.raises(ValueError):
        OddPrime(2)
    with pytest.raises(ValueError):
        OddPrime(9)
    OddPrime(2**31 + 11)  # no cap below 2^63
    with pytest.raises(ValueError):
        OddPrime(2**63 + 29)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_rejects_the_pseudoprimes_at_the_tier_bounds():
    # strong pseudoprimes to 2, 3, 5, 7 and to the first nine primes
    assert _strong_probable_prime(3215031751, _MR_BASES[:4])
    assert not is_prime(3215031751)
    assert _strong_probable_prime(3825123056546413051, _MR_BASES[:9])
    assert not is_prime(3825123056546413051)


def test_tiered_is_prime_matches_all_twelve_bases():
    rng = random.Random(63)
    sample = []
    for bits in range(6, 64):
        sample += [rng.randrange(1 << (bits - 1), 1 << bits) | 1 for _ in range(40)]
        sample += [next_prime(rng.randrange(1 << (bits - 1), 1 << bits)) for _ in range(5)]
        # products of two primes near sqrt, the hardest composites for trial division
        q = next_prime(rng.randrange(1 << (bits // 2 - 1), 1 << (bits // 2)))
        sample.append(q * next_prime(q))
    sample = [n for n in sample if n < 1 << 63]
    for n in sample:
        full = all(n % q for q in _MR_BASES) and _strong_probable_prime(n, _MR_BASES)
        assert is_prime(n) == (full or n in _MR_BASES), n
    assert sum(map(is_prime, sample)) > 250


def test_legendre_examples():
    assert legendre(4, 7) == 1
    assert legendre(0, 13) == 0
    assert legendre(2, 13) == -1


def test_legendre_euler_agreement():
    for p in primes_in(3, 1000):
        for a in range(p):
            assert legendre(a, p) == legendre_euler(a, p)


def test_legendre_multiplicative():
    rng = random.Random(0)
    for p in primes_in(3, 200):
        for _ in range(20):
            a, b = rng.randrange(p), rng.randrange(p)
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_kronecker_examples():
    assert kronecker(7, 3) == 1
    assert kronecker(2, 3) == -1
    assert kronecker(5, 1) == 1
    with pytest.raises(ValueError):
        kronecker(3, 0)


def test_kronecker_even_denominator():
    # (a|2) = 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
    assert kronecker(4, 2) == 0
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(-1, 2) == 1


def test_kronecker_multiplicative_in_both():
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.randrange(-30, 31), rng.randrange(-30, 31)
        m, n = rng.randrange(1, 30), rng.randrange(1, 30)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_matches_jacobi_on_odd():
    for n in range(1, 60, 2):
        for a in range(-20, 20):
            assert kronecker(a, n) == jacobi(a % n, n) if n > 1 else True


def test_sqrt_mod():
    assert sqrt_mod(4, 7) == 2
    assert sqrt_mod(3, 7) is None
    assert sqrt_mod(2, 7) == 3  # roots {3, 4}, smaller one
    assert sqrt_mod(0, 13) == 0
    for p in primes_in(3, 300):
        for a in range(p):
            r = sqrt_mod(a, p)
            if legendre(a, p) == -1:
                assert r is None
            else:
                assert r is not None and r * r % p == a
                assert r <= p - r or r == 0


def test_centered_lift():
    assert centered_lift(3, 7) == 3
    assert centered_lift(4, 7) == -3
    assert centered_lift(0, 7) == 0
    for p in (5, 13, 101):
        for r in range(p):
            v = centered_lift(r, p)
            assert -p / 2 < v < p / 2 and v % p == r


def test_power_sum_examples():
    assert power_sum(6, 7) == 6
    assert power_sum(3, 7) == 0
    assert power_sum(0, 7) == 6


def test_power_sum_matches_literal():
    # literal summation under the 0^0 = 0 convention
    for p in primes_in(3, 200):
        for t in range(0, 3 * (p - 1) + 1, max(1, (p - 1) // 3)):
            literal = sum(pow(x, t, p) if (x or t) else 0 for x in range(p)) % p
            assert power_sum(t, p) == literal


def test_roots_in_fp_examples():
    f = FpPolynomial.make(7, [-1, 0, 1])  # x^2 - 1
    assert roots_in_fp(f) == [1, 6]
    g = FpPolynomial.make(7, [1, 0, 1])  # x^2 + 1
    assert roots_in_fp(g) == []
    h = FpPolynomial.from_roots(7, [0, 6, 5, 4])  # x(x+1)(x+2)(x+3)
    assert roots_in_fp(h) == [0, 4, 5, 6]


def test_roots_in_fp_exhaustive_scan():
    rng = random.Random(2)
    for p in primes_in(3, 500)[::7]:
        for _ in range(5):
            deg = rng.randrange(1, 7)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = FpPolynomial.make(p, coeffs)
            found = roots_in_fp(f)
            scan = [x for x in range(p) if f(x) == 0]
            assert sorted(set(found)) == scan
            # multiplicity: deflation must leave no further factor
            for r in set(found):
                k = found.count(r)
                from charsum.algebra import _pdivmod

                c = list(f.coeffs)
                for _ in range(k):
                    c, rem = _pdivmod(c, [(-r) % p, 1], p)
                    assert rem == []
                assert not c or (sum(c[i] * pow(r, i, p) for i in range(len(c))) % p != 0)


def test_roots_in_fp_multiplicity():
    f = FpPolynomial.from_roots(11, [3, 3, 5])
    assert roots_in_fp(f) == [3, 3, 5]


def test_cubic_discriminant_examples():
    rep = cubic_discriminant_test(0, 1, 1, 5)  # x^3 + x + 1
    assert rep.D == 4 and rep.symbol == 1 and rep.parity_factor_count == "odd"
    rep = cubic_discriminant_test(0, -1, 0, 7)  # x^3 - x
    assert rep.D == 4 and rep.symbol == 1 and rep.parity_factor_count == "odd"
    rep = cubic_discriminant_test(0, 0, 0, 5)  # x^3
    assert rep.parity_factor_count == "degenerate"


def test_cubic_discriminant_parity_law():
    # (D|p) = (-1)^(s+1) with s the number of irreducible factors
    rng = random.Random(3)
    for p in primes_in(3, 500)[::9]:
        for _ in range(10):
            a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            rep = cubic_discriminant_test(a, b, c, p)
            if rep.symbol == 0:
                continue
            f = FpPolynomial.make(p, [c, b, a, 1])
            nroots = len(set(roots_in_fp(f)))
            # distinct-root count determines s for squarefree cubics:
            # 3 roots -> s=3, 1 root -> s=2, 0 roots -> s=1
            s = {3: 3, 1: 2, 0: 1}[nroots]
            assert rep.symbol == (-1) ** (s + 1), (p, a, b, c)


def test_fp_polynomial_invariants():
    f = FpPolynomial.make(7, [8, 14, 1])  # reduces to 1 + 0x + x^2
    assert f.coeffs == (1, 0, 1)
    assert f.degree == 2
    assert f(3) == (9 + 1) % 7
    z = FpPolynomial.make(7, [7, 14])
    assert z.is_zero and z.degree == -1
    with pytest.raises(ValueError):
        FpPolynomial(OddPrime(7), (1, 7))
