"""Exact elementary arithmetic functions.

Everything divisor-indexed is computed from prime factorizations with plain
Python integers, so values are exact at any size the factorizer accepts.
factorize runs trial division by small primes, then a deterministic
Miller-Rabin test and Pollard-Brent rho on what is left, so every n up to
FACTORIZE_LIMIT factors in well under a second. Floating-point enters only
where the contract is a real number (zeta, harmonic sums, real-exponent
divisor sums).

This module imports no numpy: it is the layer the command line starts on,
and it also holds the pieces that the cheap commands share with the sieving
modules (ResourceLimitError, the shift decomposition h = m**s * k, the
exact scalar c_r^s(n) of `crsum --method exact` with its digit check, and
power_at_most, which sizes every power r**s held to a budget from bit
lengths before forming it). Every command pays for its imports, so its two
records, Factorization and HDecomposition, are NamedTuples, not dataclasses
(which would pull in inspect, ast and dis): immutable and hashable, with
tuple equality and unpacking.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

# Declared domain bound for factorize(). The Miller-Rabin bases below are
# proven for every n below 3.18e23, far past this bound.
FACTORIZE_LIMIT = 2**63 - 1

# Trial division stops past this cutoff. Dense tables factor every r up to
# about 1e5, all below the cutoff squared, so they never leave the wheel.
_TRIAL_LIMIT = 1024

# The first 12 primes: a strong-probable-prime test to all of them is a
# proof of primality for n < 3.18e23 (Sorenson and Webster, Math. Comp. 86,
# 2017). The first 9 alone are fooled by 3825123056546413051.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Steps of Brent's rho per gcd: the differences x - y are multiplied mod n
# and one gcd of the product tests the whole batch.
_RHO_BATCH = 128

# Python's default int-to-str limit, the digit budget of c_r^s values when
# the limit is off or absent (before Python 3.10.7 and 3.11).
_DEFAULT_STR_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)


class ResourceLimitError(RuntimeError):
    """A computation was rejected because it exceeds a declared budget."""


# A NamedTuple body cannot define __new__, so Factorization checks its
# fields in a subclass of this one.
class _FactorizationFields(NamedTuple):
    n: int
    factors: tuple[tuple[int, int], ...]

    def divisors(self) -> list[int]:
        """All positive divisors of n, sorted ascending."""
        divs = [1]
        for p, e in self.factors:
            pk = 1
            block = []
            for _ in range(e):
                pk *= p
                block.extend(d * pk for d in divs)
            divs.extend(block)
        divs.sort()
        return divs


class Factorization(_FactorizationFields):
    """An integer n together with its prime-power decomposition, as a NamedTuple (n, factors).

    factors is ordered by prime, each exponent >= 1, and the product of
    p**e reconstructs n. n == 1 has an empty factor list. Construction
    checks all of this; factorize, correct by construction, builds its
    result with _make, which skips the check.
    """

    __slots__ = ()

    def __new__(cls, n: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
        if n < 1:
            raise ValueError(f"Factorization requires n >= 1, got {n}")
        prod = 1
        prev_p = 0
        for p, e in factors:
            if p <= prev_p:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            prod *= p**e
            prev_p = p
        if prod != n:
            raise ValueError(f"factors reconstruct {prod}, expected {n}")
        return super().__new__(cls, n, factors)


def _check_positive(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_exponent(s: int) -> None:
    """Validate the fixed exponent of the theory: an integer s >= 1."""
    _check_positive("s", s)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 37 below 3.18e23."""
    d = n - 1
    twos = (d & -d).bit_length() - 1
    d >>= twos
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n by Brent's variant of Pollard rho.

    The walk x -> x*x + c starts at 2; when a walk finds only n itself,
    the next c is tried.
    """
    c = 0
    while True:
        c += 1
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _large_prime_factors(n: int) -> list[int]:
    """Prime factors of n with multiplicity, for n with no prime factor below _TRIAL_LIMIT."""
    if _is_prime(n):
        return [n]
    d = _rho_divisor(n)
    return _large_prime_factors(d) + _large_prime_factors(n // d)


def factorize(n: int) -> Factorization:
    """Factor n exactly: trial division (2, 3, then 6k+-1) up to
    _TRIAL_LIMIT, then Miller-Rabin and Pollard-Brent rho on a cofactor
    still at least the square of the next trial divisor.

    Raises ValueError for n < 1 or n above FACTORIZE_LIMIT.
    """
    _check_positive("n", n)
    if n > FACTORIZE_LIMIT:
        raise ValueError(f"n exceeds the declared factorization bound {FACTORIZE_LIMIT}")
    m = n
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    p = 5
    while p * p <= m:
        if p > _TRIAL_LIMIT:  # m >= p*p has no prime factor below p
            primes = _large_prime_factors(m)
            factors.extend((q, primes.count(q)) for q in sorted(set(primes)))
            return Factorization._make((n, tuple(factors)))
        for q in (p, p + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                factors.append((q, e))
        p += 6
    if m > 1:
        factors.append((m, 1))
    return Factorization._make((n, tuple(factors)))


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n."""
    return factorize(n).divisors()


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)**(number of primes)."""
    f = factorize(n)
    if any(e >= 2 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def _check_r_n(r: int, n: int) -> None:
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def power_at_most(base: int, s: int, bound: int) -> int | None:
    """base**s if it is at most bound, else None, for base >= 1 and s, bound >= 0.

    With bits = base.bit_length(), base**s >= 2**((bits - 1) * s), which is
    past bound once (bits - 1) * s reaches bound.bit_length(). Only a power
    that passes this test is formed, and it has fewer than twice the bits of
    bound, so a huge s costs no more than a small one. Every check of an
    integer power against a budget (the int-to-str digits, the float range,
    EXPONENTIAL_ROUTE_LIMIT, int64) is made here.
    """
    if (base.bit_length() - 1) * s >= bound.bit_length():
        return None
    power = base**s
    return power if power <= bound else None


def cr_sum_exact(r: int, n: int, s: int) -> int:
    """Exact c_r^s(n) from the divisor-sum representation.

    For n > 0 a d**s that divides n is at most n, so no larger power is
    formed. For n = 0 every d | r contributes (d**s divides 0), which
    reproduces the identity c_r^s(0) = jordan_totient(r, s); that sum is
    held to _check_digits(r, s) before it is formed.
    """
    check_exponent(s)
    _check_r_n(r, n)
    if n == 0:
        _check_digits(r, s)
    total = 0
    for d in divisors(r):
        ds = d**s if n == 0 else power_at_most(d, s, n)
        if ds is not None and n % ds == 0:
            total += mobius(r // d) * ds
    return total


def _check_digits(r_max: int, s: int, value: int | None = None) -> None:
    """Refuse c_r^s values Python cannot print: more than sys.get_int_max_str_digits() digits.

    Hoelder's evaluation c_r^s(n) = mu(r/m) J_s(r) / J_s(r/m) gives
    |c_r^s(n)| <= J_s(r) <= r**s - 1 for r >= 2, so every value of a table
    over r <= r_max prints once r_max**s <= 10**limit, which power_at_most
    decides without forming a longer power. A single value is checked as it
    is. Either way the check runs before any output. With the limit off (0),
    or on a Python without one, Python's default limit still bounds r**s.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    name = "int-to-str limit"
    if not limit:
        limit, name = _DEFAULT_STR_DIGITS, "default int-to-str limit"
    if value is None:
        too_long = power_at_most(r_max, s, 10**limit) is None
    else:
        too_long = abs(value) >= 10**limit
    if too_long:
        raise ResourceLimitError(
            f"c_r^s values for r <= {r_max} at s = {s} exceed the {name} of {limit} digits"
        )


def gcd_s(m: int, n: int, s: int) -> int:
    """Generalized GCD: the largest l**s dividing both m and n.

    Equals the largest s-th power dividing gcd(m, n); s=1 recovers the
    ordinary gcd. With one argument zero it is the largest s-th power
    dividing the other (everything divides 0). Both zero is a domain error.
    """
    check_exponent(s)
    if m < 0 or n < 0:
        raise ValueError("gcd_s takes nonnegative arguments")
    g = math.gcd(m, n)
    if g == 0:
        raise ValueError("gcd_s(0, 0, s) is undefined")
    return g if s == 1 else decompose_h(g, s).m ** s


def is_s_prime(m: int, n: int, s: int) -> bool:
    """True iff m and n are relatively s-prime: gcd_s(m, n, s) == 1."""
    return gcd_s(m, n, s) == 1


def is_power_free(n: int, s: int) -> bool:
    """True iff no k**s with k > 1 divides n (n is s-th power free)."""
    check_exponent(s)
    _check_positive("n", n)
    return all(e < s for _, e in factorize(n).factors)


class HDecomposition(NamedTuple):
    """h = m**s * k with k s-th power free and m maximal, as a NamedTuple (h, m, k)."""

    h: int
    m: int
    k: int


def decompose_h(h: int, s: int) -> HDecomposition:
    """Split h into its maximal s-th power part m**s and power-free part k."""
    check_exponent(s)
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    m = 1
    k = 1
    for p, e in factorize(h).factors:
        m *= p ** (e // s)
        k *= p ** (e % s)
    return HDecomposition(h=h, m=m, k=k)


def jordan_totient(n: int, s: int) -> int:
    """Jordan totient J_s(n) = n**s * prod(1 - p**-s), computed exactly."""
    check_exponent(s)
    out = 1
    for p, e in factorize(n).factors:
        out *= p ** (s * e) - p ** (s * (e - 1))
    return out


def klee_phi(n: int, s: int) -> int:
    """Count of 1 <= m <= n with gcd_s(m, n, s) == 1.

    Computed by Mobius inversion over the s-th power divisors of n:
    sum over squarefree d with d**s | n of mu(d) * n / d**s. Satisfies
    klee_phi(n**s, s) == jordan_totient(n, s) and klee_phi(n, 1) = Euler phi.
    """
    check_exponent(s)
    ps = [p for p, e in factorize(n).factors if e >= s]
    total = 0
    for mask in range(1 << len(ps)):
        d = 1
        bits = 0
        for i, p in enumerate(ps):
            if mask >> i & 1:
                d *= p
                bits += 1
        total += (-1) ** bits * (n // d**s)
    return total


def tau_s(n: int, s: int) -> int:
    """Number of s-th powers l**s dividing n; tau_s(n, 1) is the divisor count."""
    check_exponent(s)
    out = 1
    for _, e in factorize(n).factors:
        out *= e // s + 1
    return out


def sigma_ks(n: int, k: int, s: int) -> int:
    """Sum of (d**s)**k over all d with d**s | n, exactly."""
    check_exponent(s)
    _check_positive("k", k)
    out = 1
    for p, e in factorize(n).factors:
        q = p ** (s * k)
        out *= sum(q**j for j in range(e // s + 1))
    return out


def sigma_real(n: int, x: float) -> float:
    """Classical divisor power sum with real exponent: sum of d**x over d | n.

    Accumulated over divisors in ascending order.
    """
    total = 0.0
    for d in divisors(n):
        total += float(d) ** x
    return total


def zeta(x: float) -> float:
    """Riemann zeta for real x > 1 to absolute accuracy <= 1e-10.

    Partial sum to N plus the integral tail N**(1-x)/(x-1) and the endpoint
    correction -N**-x/2, with N chosen so the next Euler-Maclaurin term
    x/12 * N**-(x+1) is below 1e-12.
    """
    if not x > 1:
        raise ValueError(f"zeta requires x > 1, got {x}")
    # the quotient overflows for x past about 2e297, whose (x + 1)-th roots all round to 1.0
    scale = min(x / (12 * 1e-12), sys.float_info.max)
    n_terms = max(10, math.ceil(scale ** (1.0 / (x + 1.0))))
    partial = math.fsum(k ** (-x) for k in range(1, n_terms + 1))
    tail = n_terms ** (1.0 - x) / (x - 1.0)
    return partial + tail - 0.5 * n_terms ** (-x)


def harmonic_sum(x: float) -> float:
    """Sum of 1/n over n <= x, accumulated as floats in increasing n."""
    if x < 1:
        raise ValueError(f"harmonic_sum requires x >= 1, got {x}")
    total = 0.0
    for n in range(1, math.floor(x) + 1):
        total += 1.0 / n
    return total
