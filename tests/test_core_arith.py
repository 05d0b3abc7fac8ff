"""Tests for the exact elementary arithmetic layer.

Expected values follow the module contract examples: trivial cases are
asserted directly, derived cases against brute-force oracles written here
(divisor scans, coprimality counts, direct partial sums).
"""

import math
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab.core_arith import (
    FACTORIZE_LIMIT,
    Factorization,
    divisors,
    factorize,
    gcd_s,
    harmonic_sum,
    is_power_free,
    is_s_prime,
    jordan_totient,
    klee_phi,
    mobius,
    sigma_ks,
    sigma_real,
    tau_s,
    zeta,
)

EULER_GAMMA = 0.5772156649


# --- brute-force oracles -----------------------------------------------------


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def brute_gcd_s(m: int, n: int, s: int) -> int:
    best = 0
    limit = max(m, n)
    for l in range(1, limit + 1):
        ls = l**s
        if ls > limit:
            break
        if (m == 0 or m % ls == 0) and (n == 0 or n % ls == 0):
            best = ls
    return best


def brute_klee(n: int, s: int) -> int:
    return sum(1 for m in range(1, n + 1) if brute_gcd_s(m, n, s) == 1)


def brute_phi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def brute_tau_s(n: int, s: int) -> int:
    return sum(1 for l in range(1, n + 1) if l**s <= n and n % l**s == 0)


def brute_sigma_ks(n: int, k: int, s: int) -> int:
    return sum((l**s) ** k for l in range(1, n + 1) if n % l**s == 0)


# --- factorize ---------------------------------------------------------------


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert brute_is_prime(97)
    assert factorize(97).factors == ((97, 1),)


def test_factorize_rejects_zero_and_overflow():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(FACTORIZE_LIMIT + 1)


# Prime and composite n where trial division to sqrt(n) would take minutes.
_HARD_N = (
    2**61 - 1,  # Mersenne prime
    2**63 - 25,  # largest prime below 2**63
    FACTORIZE_LIMIT,  # 7**2 * 73 * 127 * 337 * 92737 * 649657
    2147483647 * 2147483629,  # two ~31-bit primes
    3037000493**2,  # square of the largest prime below sqrt(2**63)
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
)


@pytest.mark.parametrize("n", _HARD_N)
def test_factorize_hard_inputs_match_sympy_in_bounded_time(n):
    start = time.perf_counter()
    got = factorize(n)
    elapsed = time.perf_counter() - start
    assert got.factors == tuple(sorted(sympy.factorint(n).items()))
    assert elapsed < 0.5, f"factorize({n}) took {elapsed:.3f} s"


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2),))
    with pytest.raises(ValueError):
        Factorization(12, ((2, 0), (3, 1)))


# 2097133 * 2097143 is a 42-bit semiprime of the two largest primes below 2**21
@pytest.mark.parametrize("n", [1, 2, 12, 2**62, 2**61 - 1, 2**63 - 25, 2097133 * 2097143], ids=str)
def test_factorize_result_is_a_checked_factorization(n):
    # factorize skips the check that direct construction makes; the two must agree
    f = factorize(n)
    assert type(f) is Factorization
    assert f == Factorization(n, f.factors)
    assert repr(f) == f"Factorization(n={n}, factors={f.factors!r})"
    assert hash(f) == hash(Factorization(n, f.factors))
    with pytest.raises(AttributeError):
        f.n = n + 1
    with pytest.raises(AttributeError):
        f.factors = ()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    prev = 0
    for p, e in f.factors:
        assert p > prev and e >= 1
        assert brute_is_prime(p)
        prod *= p**e
        prev = p
    assert prod == n


def test_divisors_sorted_and_complete():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


# --- mobius ------------------------------------------------------------------


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0


def test_mobius_against_definition():
    for n in range(1, 400):
        square_factor = any(n % (p * p) == 0 for p in range(2, n + 1) if p * p <= n)
        omega = sum(1 for p in range(2, n + 1) if brute_is_prime(p) and n % p == 0)
        expected = 0 if square_factor else (-1) ** omega
        assert mobius(n) == expected


# --- generalized gcd ---------------------------------------------------------


def test_gcd_s_examples():
    assert gcd_s(4, 8, 2) == 4
    assert gcd_s(12, 18, 1) == 6
    assert gcd_s(8, 27, 3) == 1


def test_gcd_s_zero_handling():
    assert gcd_s(0, 8, 2) == 4
    assert gcd_s(8, 0, 3) == 8
    with pytest.raises(ValueError):
        gcd_s(0, 0, 2)


def test_gcd_s_matches_brute_force_grid():
    for s in (1, 2, 3, 4):
        for m in range(0, 101):
            for n in range(0, 101):
                if m == 0 and n == 0:
                    continue
                assert gcd_s(m, n, s) == brute_gcd_s(m, n, s), (m, n, s)


def test_is_s_prime():
    assert is_s_prime(3, 4, 2)
    assert not is_s_prime(4, 8, 2)
    for n in (1, 7, 36):
        assert is_s_prime(1, n, 2)


def test_gcd_lcm_identity():
    # (m**s, n**s)_s * [m**s, n**s] == m**s * n**s
    for s in (1, 2, 3):
        for m in range(1, 101):
            for n in range(1, 101):
                ms, ns = m**s, n**s
                assert gcd_s(ms, ns, s) * math.lcm(ms, ns) == ms * ns


# --- totients ----------------------------------------------------------------


def test_jordan_examples():
    assert jordan_totient(10, 1) == 4
    assert jordan_totient(2, 2) == brute_klee(4, 2) == 3
    for s in (1, 2, 3):
        assert jordan_totient(1, s) == 1


def test_klee_examples():
    assert klee_phi(4, 2) == 3
    assert klee_phi(6, 1) == 2
    assert klee_phi(12, 2) == 9


def test_klee_against_direct_count():
    for s in (1, 2, 3):
        for n in range(1, 61):
            assert klee_phi(n, s) == brute_klee(n, s), (n, s)


def test_klee_s1_is_euler_phi():
    for n in range(1, 301):
        assert klee_phi(n, 1) == brute_phi(n)


def test_klee_jordan_identity():
    for s in (1, 2, 3):
        for n in range(1, 201):
            assert klee_phi(n**s, s) == jordan_totient(n, s)


def test_jordan_divisor_sum_identity():
    # sum over d | n of J_s(d) equals n**s
    for s in (1, 2, 3):
        for n in range(1, 501):
            assert sum(jordan_totient(d, s) for d in divisors(n)) == n**s


# --- divisor-counting and divisor-sum functions ------------------------------


def test_tau_s_examples():
    assert tau_s(16, 2) == 3
    assert tau_s(6, 1) == 4
    assert tau_s(8, 3) == 2


def test_sigma_ks_examples():
    assert sigma_ks(12, 1, 2) == 5
    assert sigma_ks(6, 1, 1) == 12
    assert sigma_ks(16, 2, 2) == 273


def test_tau_sigma_against_brute_force():
    for s in (1, 2, 3):
        for n in range(1, 201):
            assert tau_s(n, s) == brute_tau_s(n, s)
            assert sigma_ks(n, 1, s) == brute_sigma_ks(n, 1, s)
    for n in range(1, 101):
        assert sigma_ks(n, 2, 2) == brute_sigma_ks(n, 2, 2)


def test_classical_specializations():
    for n in range(1, 301):
        assert tau_s(n, 1) == len(divisors(n))
        assert sigma_ks(n, 1, 1) == sum(divisors(n))


def test_is_power_free():
    assert is_power_free(6, 2)
    assert not is_power_free(12, 2)
    assert is_power_free(4, 3)
    assert not is_power_free(8, 3)
    assert is_power_free(1, 2)
    for n in range(1, 200):
        expected = all(n % (k**2) for k in range(2, n + 1) if k * k <= n)
        assert is_power_free(n, 2) == expected


def test_sigma_real_examples():
    assert sigma_real(2, -3.0) == 1.125
    assert sigma_real(1, 7.3) == 1.0
    assert sigma_real(6, 1.0) == 12.0


# --- zeta and harmonic sums --------------------------------------------------


def test_zeta_at_even_integers():
    assert abs(zeta(2.0) - math.pi**2 / 6) <= 1e-10
    assert abs(zeta(4.0) - math.pi**4 / 90) <= 1e-10


def test_zeta_large_argument_against_partial_sum():
    direct = math.fsum(n ** (-20.0) for n in range(1, 65))  # tail < 65**-19
    assert abs(zeta(20.0) - direct) <= 1e-10
    assert f"{zeta(20.0):.10f}" == "1.0000009540"


def test_zeta_domain():
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            zeta(bad)


def test_harmonic_examples():
    assert harmonic_sum(1) == 1.0
    assert abs(harmonic_sum(4) - 25 / 12) < 1e-14
    assert abs(harmonic_sum(100) - math.log(100) - EULER_GAMMA) < 0.01
    assert harmonic_sum(4.9) == harmonic_sum(4)
    with pytest.raises(ValueError):
        harmonic_sum(0.5)


def test_harmonic_log_bound_over_range():
    # |H(x) - ln x - gamma| <= 1/x for integer x in [10, 1e5]; the theorem
    # states O(1/x) with no constant, so the observed max ratio is reported.
    total = 0.0
    max_ratio = 0.0
    for x in range(1, 10**5 + 1):
        total += 1.0 / x
        if x >= 10:
            err = abs(total - math.log(x) - EULER_GAMMA)
            assert err <= 1.0 / x, x
            max_ratio = max(max_ratio, err * x)
    print(f"harmonic bound: max observed |H(x)-ln x-gamma|*x = {max_ratio:.6f}")
    assert harmonic_sum(10**5) == total


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=1, max_value=4),
)
def test_gcd_s_divides_both(m, n, s):
    if m == 0 and n == 0:
        return
    g = gcd_s(m, n, s)
    root = round(g ** (1.0 / s))
    assert root**s == g  # g is an s-th power
    if m:
        assert m % g == 0
    if n:
        assert n % g == 0


# --- independent oracles (sympy) ---------------------------------------------

# small n cover every shape often, mid-size n stay on trial division, and
# the whole declared domain reaches Miller-Rabin and rho
_ORACLE_N = st.one_of(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**10),
    st.integers(min_value=1, max_value=FACTORIZE_LIMIT),
)


@settings(max_examples=200, deadline=None)
@given(_ORACLE_N)
def test_factorize_matches_sympy_factorint(n):
    assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items()))


@settings(max_examples=200, deadline=None)
@given(_ORACLE_N)
def test_mobius_matches_sympy(n):
    assert mobius(n) == int(sympy.mobius(n))


@settings(max_examples=200, deadline=None)
@given(_ORACLE_N)
def test_divisors_and_tau_match_sympy(n):
    assert divisors(n) == sympy.divisors(n)
    assert tau_s(n, 1) == sympy.divisor_count(n)


@settings(max_examples=200, deadline=None)
@given(_ORACLE_N)
def test_jordan_totient_order_one_matches_sympy_totient(n):
    assert jordan_totient(n, 1) == sympy.totient(n)
