"""Empirical verification of the correlation asymptotics and bound lemmas.

Shifted correlation sums sum_{n<=N} f(n) g(n+h) are compared against their
predicted main terms over an increasing N schedule, and the four product
bound lemmas are checked on (r, k, s, h, N) grids. All c-product sums are
accumulated in exact integers; floats appear only in final ratios, bounds
with real exponents, and report serialization.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import BinaryIO, Callable, NamedTuple, Sequence

import numpy as np

from .core_arith import (  # HDecomposition and decompose_h are re-exported
    HDecomposition,
    ResourceLimitError,
    check_exponent,
    decompose_h,
    power_at_most,
    sigma_real,
    zeta,
)
from .cr_sum import (
    MAX_SIGMA_LIMIT,  # the sigma-row budget, declared next to the sieve it guards
    _ascending_sums,
    _check_cells,
    _cr_column,
    _dirichlet_sieve,
    _int_dtype,
    _mobius_row,
    _power_row,
    _python_op,
    _write_rows,
)
from .expansion import ExpansionCoefficients, as_plain_n, sigma_expansion

LEMMA_IDS = ("L1", "L2", "L3", "L4")

# Largest lemma grid, in points. Each point holds a slot in seven report
# columns; its line of output is written one block of points at a time.
MAX_LEMMA_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# Correlation sums and main terms
# ---------------------------------------------------------------------------


def correlation_sum(
    f: Callable[[int], float], g: Callable[[int], float], h: int, n_limit: int
) -> float:
    """sum_{n=1}^{N} f(n) * g(n+h), accumulated in ascending n."""
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if n_limit < 1:
        raise ValueError(f"N must be >= 1, got {n_limit}")
    total = 0.0
    for n in range(1, n_limit + 1):
        total += f(n) * g(n + h)
    return total


def _check_family_pair(
    coeffs_f: ExpansionCoefficients, coeffs_g: ExpansionCoefficients, r_limit: int
) -> None:
    if coeffs_f.s != coeffs_g.s:
        raise ValueError(f"families must share s, got {coeffs_f.s} and {coeffs_g.s}")
    if r_limit < 0:
        raise ValueError(f"R must be >= 0, got {r_limit}")
    if r_limit > min(coeffs_f.r_max, coeffs_g.r_max):
        raise ValueError(
            f"R = {r_limit} exceeds the truncations {coeffs_f.r_max}, {coeffs_g.r_max}"
        )


def theorem1_main(
    coeffs_f: ExpansionCoefficients, coeffs_g: ExpansionCoefficients, r_limit: int
) -> float:
    """Per-N multiplier sum_{r <= R} fhat(r) ghat(r) Phi_s(r**s).

    This is theorem2_main at h = 0, because c_r^s(0) and Phi_s(r**s) are the
    same integers.
    """
    return theorem2_main(coeffs_f, coeffs_g, 0, r_limit)


def theorem2_main(
    coeffs_f: ExpansionCoefficients,
    coeffs_g: ExpansionCoefficients,
    h: int,
    r_limit: int,
) -> float:
    """Per-N multiplier sum_{r <= R} fhat(r) ghat(r) c_r^s(h), added in ascending r."""
    _check_family_pair(coeffs_f, coeffs_g, r_limit)
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if r_limit == 0:
        return 0.0
    c_at_h = _cr_column(h, coeffs_f.s, r_limit)[1:]
    weights = coeffs_f.coeffs[:r_limit] * coeffs_g.coeffs[:r_limit]
    return float(_ascending_sums(_python_op(operator.mul, weights, c_at_h), -1))


# ---------------------------------------------------------------------------
# The sigma-pair corollary (the split h = m**s * k is core_arith.decompose_h)
# ---------------------------------------------------------------------------


def _check_corollary_exponents(a: float, b: float) -> None:
    if not 1.5 < a < math.inf:
        raise ValueError(f"a must be finite and exceed 1.5, got {a}")
    if not 1.5 < b < math.inf:
        raise ValueError(f"b must be finite and exceed 1.5, got {b}")


def corollary_main(a: float, b: float, s: int, h: int) -> float:
    """Per-N multiplier zeta(a+1) zeta(b+1) / zeta(a+b+2) * sigma_{-(a+b+1)s}(m)."""
    _check_corollary_exponents(a, b)
    check_exponent(s)
    m = decompose_h(h, s).m
    return zeta(a + 1.0) * zeta(b + 1.0) / zeta(a + b + 2.0) * sigma_real(m, -(a + b + 1.0) * s)


def corollary_lhs(a: float, b: float, s: int, h: int, n_limit: int) -> float:
    """The literal sum sum_{n<=N} sigma_{as}(n)/n**as * sigma_{bs}(n+h)/(n+h)**bs.

    sigma here is the classical divisor power sum with real exponent.
    """
    _check_corollary_exponents(a, b)
    check_exponent(s)
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if n_limit < 1:
        raise ValueError(f"N must be >= 1, got {n_limit}")
    f = _sigma_ratio_values(a * s, n_limit)
    g = _sigma_ratio_values(b * s, n_limit + h)
    return float(_ascending_sums(f[1:] * g[1 + h :], -1))


def _sigma_ratio_values(x: float, limit: int) -> np.ndarray:
    """values[n] = sigma_x(n) / n**x for n <= limit (slot 0 unused).

    The f and g values of every correlation run come from here. Each entry
    is sigma_real(n, x) / float(n) ** x bit for bit: one power row feeds
    both the sieve and the elementwise division.
    """
    pw = _power_row(limit, x)
    values = _dirichlet_sieve(pw, None)
    values[1:] /= pw[1:]
    return values


# ---------------------------------------------------------------------------
# Correlation reports over an N schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationConfig:
    """Parameters of one correlation run.

    kind selects the predicted main term: "t1" (equal arguments, weight
    Phi_s(r**s)), "t2" (shift h, weight c_r^s(h)), or "corollary" (the
    sigma-pair with exponents a, b). t1/t2 drive the s = 1 closed-form
    sigma family with parameters k and r_truncation.
    """

    kind: str
    s: int
    h: int
    schedule: tuple[int, ...]
    a: float | None = None
    b: float | None = None
    k: int | None = None
    r_truncation: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("t1", "t2", "corollary"):
            raise ValueError(f"unknown kind {self.kind!r}")
        check_exponent(self.s)
        if self.h < 0:
            raise ValueError(f"h must be >= 0, got {self.h}")
        if not self.schedule:
            raise ValueError("schedule must be nonempty")
        if any(n < 1 for n in self.schedule):
            raise ValueError("schedule entries must be >= 1")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValueError("schedule must be strictly increasing")
        if self.kind == "corollary":
            if self.a is None or self.b is None:
                raise ValueError("corollary runs need a and b")
            _check_corollary_exponents(self.a, self.b)
            if self.h < 1:
                raise ValueError("corollary runs need h >= 1")
            if self.k is not None or self.r_truncation is not None:
                raise ValueError("corollary runs take no k or R")
        else:
            if self.a is not None or self.b is not None:
                raise ValueError("t1/t2 runs take no a or b")
            if self.s != 1:
                raise ValueError("t1/t2 runs use the s = 1 sigma family")
            if self.k is None or self.k < 1:
                raise ValueError("t1/t2 runs need k >= 1")
            if self.r_truncation is None or self.r_truncation < 1:
                raise ValueError("t1/t2 runs need a truncation R >= 1")
            if self.kind == "t1" and self.h != 0:
                raise ValueError("t1 compares equal arguments; h must be 0")


class CorrelationRecord(NamedTuple):
    n_limit: int
    lhs: float
    main_term: float
    ratio: float


@dataclass(frozen=True)
class CorrelationReport:
    theorem: str  # "T1" | "T2" | "corollary"
    weight_kind: str  # "phi" | "cr_at_h"
    s: int
    h: int
    params: tuple[tuple[str, float | int], ...]
    records: tuple[CorrelationRecord, ...]

    def write_json(self, handle: BinaryIO) -> None:
        """Write the report as one line of JSON, ASCII bytes."""
        params = ",".join(f'"{key}":{_json_number(val)}' for key, val in self.params)
        head = '{"theorem":"%s","params":{%s},"records":[' % (self.theorem, params)
        record = b'{"N":%d,"lhs":%.17g,"main_term":%.17g,"ratio":%.17g}'
        _write_rows(handle, head.encode("ascii"), record, self._columns(), b",", b"]}\n")

    def write_csv(self, handle: BinaryIO) -> None:
        """Write the records as CSV (header N,lhs,main_term,ratio), ASCII bytes."""
        head, record = b"N,lhs,main_term,ratio\n", b"%d,%.17g,%.17g,%.17g\n"
        _write_rows(handle, head, record, self._columns(), b"", b"")

    def _columns(self) -> list[tuple]:  # N, lhs, main_term and ratio
        return list(zip(*self.records)) or [()]


def _json_number(value: float | int) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans are not report numbers")
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


def run_correlation_report(config: CorrelationConfig) -> CorrelationReport:
    """Drive one correlation run over the N schedule.

    The left-hand sums are accumulated in a single ascending-n pass with
    values recorded at each schedule point, so every record matches a
    direct correlation_sum of the same functions.
    """
    n_top = config.schedule[-1]
    if config.kind == "corollary":
        assert config.a is not None and config.b is not None
        multiplier = corollary_main(config.a, config.b, config.s, config.h)
        f_values = _sigma_ratio_values(config.a * config.s, n_top)
        g_values = _sigma_ratio_values(config.b * config.s, n_top + config.h)
        theorem = "corollary"
        weight_kind = "cr_at_h"
        params: tuple[tuple[str, float | int], ...] = (
            ("a", config.a),
            ("b", config.b),
            ("s", config.s),
            ("h", config.h),
        )
    else:
        assert config.k is not None and config.r_truncation is not None
        family = as_plain_n(sigma_expansion(config.k, 1, config.r_truncation))
        # T1 is T2 at h = 0 (validated above): c_r^s(0) = Phi_s(r**s).
        multiplier = theorem2_main(family, family, config.h, config.r_truncation)
        theorem, weight_kind = ("T1", "phi") if config.kind == "t1" else ("T2", "cr_at_h")
        f_values = g_values = _sigma_ratio_values(float(config.k), n_top + config.h)
        params = (
            ("k", config.k),
            ("s", config.s),
            ("h", config.h),
            ("R", config.r_truncation),
        )
    if multiplier == 0.0:
        raise ValueError("degenerate configuration: the predicted main term is zero")

    terms = f_values[1 : n_top + 1] * g_values[1 + config.h : n_top + config.h + 1]
    lhs_values = _ascending_sums(terms, [n - 1 for n in config.schedule]).tolist()
    records = []
    for n, lhs in zip(config.schedule, lhs_values):
        main_term = n * multiplier
        records.append(
            CorrelationRecord(n_limit=n, lhs=lhs, main_term=main_term, ratio=lhs / main_term)
        )
    return CorrelationReport(
        theorem=theorem,
        weight_kind=weight_kind,
        s=config.s,
        h=config.h,
        params=params,
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# Lemma bound grids
# ---------------------------------------------------------------------------


class LemmaEntry(NamedTuple):
    r: int
    k: int
    s: int
    h: int
    n_limit: int
    measured: float
    bound: float
    normalized: float
    passed: bool


@dataclass(frozen=True, eq=False)
class LemmaCheckReport:
    """One lemma grid at one (s, h) as columns with a slot per point; points run r, then k, then N.

    r, k and n_limit are int columns, measured, bound and normalized float64, passed bool.
    The writers hand the six number columns to _write_rows, with s and h
    written into the row template once.
    """

    lemma_id: str
    s: int
    h: int
    r: np.ndarray
    k: np.ndarray
    n_limit: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    normalized: np.ndarray
    passed: np.ndarray

    @property
    def max_normalized(self) -> float:
        return float(self.normalized.max())

    @property
    def all_pass(self) -> bool:
        return bool(self.passed.all())

    @property
    def entries(self) -> tuple[LemmaEntry, ...]:
        """The points as LemmaEntry tuples, built on each access."""
        s, h = self.s, self.h
        points = zip(*(column.tolist() for column in (*self._columns(), self.passed)))
        return tuple(LemmaEntry(r, k, s, h, n, *rest) for r, k, n, *rest in points)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.r, self.k, self.n_limit, self.measured, self.bound, self.normalized)

    def write_json(self, handle: BinaryIO) -> None:
        """Write the report as one line of JSON, ASCII bytes, one block of points at a time."""
        point = b'{"r":%%d,"k":%%d,"s":%d,"h":%d,"N":%%d,"measured":%%.17g,"bound":%%.17g,'
        head = b'{"lemma":"%s","grid":[' % self.lemma_id.encode("ascii")
        tail = b'],"max_normalized":%.17g}\n' % self.max_normalized
        row = point % (self.s, self.h) + b'"normalized":%.17g}'
        _write_rows(handle, head, row, self._columns(), b",", tail)

    def write_csv(self, handle: BinaryIO) -> None:
        """Write the points as CSV (header r,k,s,h,N,measured,bound,normalized), ASCII bytes."""
        head = b"r,k,s,h,N,measured,bound,normalized\n"
        row = b"%%d,%%d,%d,%d,%%d,%%.17g,%%.17g,%%.17g\n" % (self.s, self.h)
        _write_rows(handle, head, row, self._columns(), b"", b"")


def _float_column(exact: np.ndarray, lemma_id: str, what: str) -> np.ndarray:
    """exact as float64, rounded as float(int) rounds; a value past the float range is refused."""
    try:
        return exact.astype(np.float64)
    except OverflowError:
        raise ResourceLimitError(f"{lemma_id} {what} exceeds the float range") from None


def _axis_length(axis: Sequence[int]) -> int:
    """len(axis), also for a range of more than sys.maxsize values, where len() overflows."""
    if isinstance(axis, range) and axis:
        return (axis[-1] - axis[0]) // axis.step + 1
    return len(axis)


def lemma_check(
    lemma_id: str,
    r_values: Sequence[int],
    k_values: Sequence[int],
    s: int,
    h: int,
    n_values: Sequence[int],
) -> LemmaCheckReport:
    """Check one product-sum lemma on the grid r_values x k_values x n_values at one (s, h).

    Points run r, then k, then N, each in the order given.
    L1: sum c_r(n) c_k(n) <= N tau_s(r**s) tau_s(k**s) (r**s, k**s)_s, no shift.
    L2: deviation of the shifted sum from delta_{r,k} N c_r^s(h), normalized
        by r**s k**s ln(r**s k**s); reported, never asserted (the pair
        r = k = 1 is skipped, the log scale vanishes there).
    L3: |shifted sum| <= sqrt(N) sqrt(N+h) sqrt(r**s k**s) tau_s(r**s) tau_s(k**s).
    L4: shifted sum <= 2 N Phi_s(r**s) tau(k), requiring h <= N.

    Grids beyond MAX_LEMMA_POINTS, counted from the axis lengths, or with an
    r or k past it (the longest axis a grid can have) are rejected before any
    axis is built, and grids whose hit rows or mu sieves (below) pass
    MAX_TABLE_CELLS before anything is built. Then a float-range test from bit
    lengths (power_at_most) rejects an L1 bound past gcd(r, k)**s, an L2/L3
    scale r**s k**s and an L4 bound past Phi_s(r**s) >= r**(s - 1) at or past
    2**max_exp; exact float conversions decide the cases below that.
    The grid is the C-order broadcast of the r, k and N axes. By Cohen's
    definition each sum_{n<=N} c_r^s(n) c_k^s(n + h) is the sum over d | r,
    e | k of mu(r/d) mu(k/e) d**s e**s C[e, d], where C, the count of n <= N
    with d**s | n and e**s | n + h, is a product of 0/1 hit rows and mu is a
    Dirichlet sieve along each axis, over every N at once; no r is
    factorized. Each exact column picks int64 or Python ints from a bound on
    its values (cr_sum._int_dtype). tau(r), L2's c_r^s(h) and L4's
    Phi_s(r**s) = c_r^s(0) are Dirichlet-sieved columns indexed by value.
    Exact bounds stay ints and each float column follows the operation order
    of the formulas.
    """
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"lemma_id must be one of {LEMMA_IDS}, got {lemma_id!r}")
    count = math.prod(map(_axis_length, (r_values, k_values, n_values)))
    if count > MAX_LEMMA_POINTS:
        raise ResourceLimitError(f"lemma grid of {count} points exceeds {MAX_LEMMA_POINTS}")
    # L2 skips r**s k**s = 1, where its bound is 0, so a grid of only r = k = 1 is empty.
    skip_unit = lemma_id == "L2"
    if count == 0 or (skip_unit and max(r_values) * max(k_values) <= 1):
        raise ValueError("lemma grid is empty")
    if max(max(r_values), max(k_values)) > MAX_LEMMA_POINTS:  # the tau column runs to it
        raise ResourceLimitError(f"lemma grid r or k exceeds {MAX_LEMMA_POINTS}")
    if min(r_values) < 1 or min(k_values) < 1:
        raise ValueError("grid r and k must be >= 1")
    check_exponent(s)
    if min(n_values) < 1:
        raise ValueError("grid N must be >= 1")
    if h < 0:
        raise ValueError("grid h must be >= 0")
    if lemma_id == "L1" and h != 0:
        raise ValueError("L1 has no shift; grid points must have h = 0")
    if lemma_id == "L4" and h > min(n_values):
        first = next(n for n in n_values if n < h)
        raise ValueError(f"L4 requires h <= N, got h={h}, N={first}")
    r_axis, k_axis, n_axis = np.array(r_values), np.array(k_values), np.array(n_values)
    r_max, k_max, n_max = max(r_values), max(k_values), max(n_values)
    d_count, e_count = (  # the d <= max r with d**s <= N and e <= max k with e**s <= N + h
        bisect_left(range(1, top + 1), True, key=lambda d: power_at_most(d, s, bound) is None)
        for top, bound in ((r_max, n_max), (k_max, n_max + h))
    )
    _check_cells((d_count + e_count) * (n_max + h + 1), "lemma hit rows")
    tops = sorted(set(n_values))  # the mu sieves fill every k <= max k, then every r <= max r
    _check_cells(max((k_max + 1) * d_count, (r_max + 1) * len(k_axis)) * len(tops), "lemma mu sieves")
    if lemma_id == "L1":
        gcd = np.gcd.outer(r_axis, k_axis)
        base, power, what = int(gcd.max()), s, "bound N tau(r) tau(k) gcd(r, k)**s >="
    elif lemma_id == "L4":
        base, power, what = r_max, s - 1, "bound 2 N Phi_s(r**s) tau(k) >="
    else:
        base, power, what = r_max * k_max, s, "scale r**s k**s up to"
    if power_at_most(base, power, 2**sys.float_info.max_exp - 1) is None:
        raise ResourceLimitError(f"{lemma_id} {what} {base}**{power} exceeds the float range")

    # the grid is the broadcast of its axes; C order runs r, then k, then N
    r, k, n = r_axis[:, None, None], k_axis[None, :, None], n_axis[None, None, :]
    # tau_s(r**s, s) = tau(r) and (r**s, k**s)_s = gcd(r, k)**s: the L1 and
    # L3 bounds never factorize r**s, which may pass the factorize limit.
    tau = _dirichlet_sieve(np.ones(max(r_max, k_max) + 1, dtype=np.int64), None)
    tau_r, tau_k = tau[r], tau[k]
    taus = int(tau_r.max()) * int(tau_k.max())
    if lemma_id == "L1":  # the bound is at most gcd(r, k)**s N tau(r) tau(k)
        gcd_power = gcd.astype(_int_dtype(base, s, n_max * taus)) ** s
        exact_bound = gcd_power[:, :, None] * n * tau_r * tau_k
        bound = _float_column(exact_bound, lemma_id, "bound")
    elif lemma_id in ("L2", "L3"):
        if lemma_id == "L2":  # |sum - N c_r^s(h)| <= 2 N r**s k**s
            dtype = _int_dtype(r_max * k_max, s, 2 * n_max)
        else:  # sum**2 <= (N r**s k**s)**2 and the right side; object if either passes int64
            dtype = np.result_type(
                _int_dtype(r_max * k_max, 2 * s, n_max**2),
                _int_dtype(r_max * k_max, s, n_max * (n_max + h) * taus**2),
            )
        rk = np.multiply.outer(r_axis.astype(dtype) ** s, k_axis.astype(dtype) ** s)[:, :, None]
        rk_float = _float_column(rk, lemma_id, "scale r**s k**s")
        if lemma_id == "L2":
            logs = np.array([math.log(x) for x in rk.ravel().tolist()]).reshape(rk.shape)
            with np.errstate(over="ignore"):
                bound = rk_float * logs
            if not np.isfinite(bound).all():
                raise ResourceLimitError("L2 scale r**s k**s ln(r**s k**s) exceeds the float range")
        else:  # L3's float bound and the right side of its exact test
            bound = np.sqrt(n) * np.sqrt(n + h) * np.sqrt(rk_float) * tau_r * tau_k
            n_exact = n.astype(dtype)
            square = n_exact * (n_exact + h) * rk * (tau_r * tau_k).astype(dtype) ** 2
        del rk, rk_float  # else both stay bound through the sums and the report columns

    # C[e, d] = #{n <= N : d**s | n, e**s | n + h}, block by block between consecutive N; then
    # mu along e, whose partial sums are integers of at most tau(k) (2N + h) < 2**53, as
    # e**s C <= N + e**s (exact in float64), and along d, at most tau(r) tau(k) N (2N + h)
    mu = _mobius_row(max(r_max, k_max))
    powers = np.array([d**s for d in range(1, max(d_count, e_count) + 1)])
    hits_d, hits_e = np.zeros((n_max + 1, d_count)), np.zeros((n_max + h + 1, e_count))
    for hits in (hits_d, hits_e):  # [d**s | n] at [n, d - 1]: a window of n is one slice
        for i in range(hits.shape[1]):
            hits[:: powers[i], i] = 1.0
    counts = np.zeros((e_count + 1, len(tops), d_count))
    total, prev = 0, 0
    for t, top in enumerate(tops):
        total = total + hits_e[prev + 1 + h : top + h + 1].T @ hits_d[prev + 1 : top + 1]
        counts[1 : e_count + 1, t], prev = total, top
    del hits_d, hits_e
    counts[1 : e_count + 1] *= powers[:e_count, None, None]
    counts = _dirichlet_sieve(counts.reshape(e_count + 1, -1), mu[: k_max + 1, None])[k_axis]
    sum_dtype = _int_dtype(n_max, 1, int(tau[: r_max + 1].max()) * int(tau_k.max()) * (2 * n_max + h))
    counts = np.moveaxis(counts.reshape(len(k_axis), len(tops), d_count), 2, 0)
    counts = counts.astype(np.int64).astype(sum_dtype, copy=False) * powers[:d_count, None, None]
    counts = np.pad(counts, ((1, 0), (0, 0), (0, 0))).reshape(d_count + 1, -1)
    sums = _dirichlet_sieve(counts, mu[: r_max + 1, None].astype(sum_dtype, copy=False))[r_axis]
    del counts
    sums = sums.reshape(len(r_axis), len(k_axis), len(tops))[:, :, np.searchsorted(tops, n_axis)]

    if lemma_id == "L2":  # c_r^s(h) from the exact column; c_r^s(0) = J_s(r) <= r**s, a float here
        c_h = _cr_column(h, s, r_max).astype(dtype, copy=False)
        sums = abs(sums - np.where(r == k, c_h[r] * n, 0))
    elif lemma_id == "L3":
        sums = abs(sums)
    elif lemma_id == "L4":  # the rows leave out n = 0: Phi_s(r**s) = c_r^s(0) from the exact column
        # Phi_s(r**s) <= r**s, so the bound is at most 2 N r**s tau(k)
        phi_dtype = _int_dtype(r_max, s, 2 * n_max * int(tau_k.max()))
        phi = _cr_column(0, s, r_max).astype(phi_dtype, copy=False)
        exact_bound = phi[r] * 2 * n * tau_k
        bound = _float_column(exact_bound, lemma_id, "bound")
    measured = _float_column(sums, lemma_id, "sum")
    if lemma_id == "L2":
        passed = True
    elif lemma_id == "L3":  # exactly: sum**2 <= N (N+h) r**s k**s tau(r)**2 tau(k)**2
        passed = (sums.astype(dtype) ** 2 <= square).astype(bool)
    else:
        passed = sums <= exact_bound
    keep = np.broadcast_to((r > 1) | (k > 1) if skip_unit else True, sums.shape)
    r, k, n, measured, bound, passed = (
        np.broadcast_to(x, sums.shape)[keep] for x in (r, k, n, measured, bound, passed)
    )
    return LemmaCheckReport(lemma_id, s, h, r, k, n, measured, bound, measured / bound, passed)
