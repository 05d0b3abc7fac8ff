"""Empirical verification of the correlation asymptotics and bound lemmas.

Shifted correlation sums sum_{n<=N} f(n) g(n+h) are compared against their
predicted main terms over an increasing N schedule, and the four product
bound lemmas are checked on (r, k, s, h, N) grids. All c-product sums are
accumulated in exact integers; floats appear only in final ratios, bounds
with real exponents, and report serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core_arith import (
    check_exponent,
    factorize,
    gcd_s,
    jordan_totient,
    sigma_real,
    tau_s,
    zeta,
)
from .cr_sum import CRSumTable, build_table, cr_sum_exact, cr_values_fixed_n
from .expansion import ExpansionCoefficients, as_plain_n, sigma_expansion

LEMMA_IDS = ("L1", "L2", "L3", "L4")


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
    """Per-N multiplier sum_{r <= R} fhat(r) ghat(r) Phi_s(r**s)."""
    _check_family_pair(coeffs_f, coeffs_g, r_limit)
    s = coeffs_f.s
    total = 0.0
    for r in range(1, r_limit + 1):
        total += coeffs_f.coeffs[r - 1] * coeffs_g.coeffs[r - 1] * jordan_totient(r, s)
    return total


def theorem2_main(
    coeffs_f: ExpansionCoefficients,
    coeffs_g: ExpansionCoefficients,
    h: int,
    r_limit: int,
) -> float:
    """Per-N multiplier sum_{r <= R} fhat(r) ghat(r) c_r^s(h).

    At h = 0 this equals theorem1_main exactly, because c_r^s(0) and
    Phi_s(r**s) are the same integers.
    """
    _check_family_pair(coeffs_f, coeffs_g, r_limit)
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if r_limit == 0:
        return 0.0
    s = coeffs_f.s
    c_at_h = cr_values_fixed_n(h, s, r_limit)
    total = 0.0
    for r in range(1, r_limit + 1):
        total += coeffs_f.coeffs[r - 1] * coeffs_g.coeffs[r - 1] * c_at_h[r]
    return total


# ---------------------------------------------------------------------------
# The shift decomposition h = m**s * k and the sigma-pair corollary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HDecomposition:
    """h = m**s * k with k s-th power free and m maximal."""

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


def _check_corollary_exponents(a: float, b: float) -> None:
    if not a > 1.5:
        raise ValueError(f"a must exceed 1.5, got {a}")
    if not b > 1.5:
        raise ValueError(f"b must exceed 1.5, got {b}")


def corollary_main(a: float, b: float, s: int, h: int) -> float:
    """Per-N multiplier zeta(a+1) zeta(b+1) / zeta(a+b+2) * sigma_{-(a+b+1)s}(m)."""
    _check_corollary_exponents(a, b)
    check_exponent(s)
    m = decompose_h(h, s).m
    return zeta(a + 1.0) * zeta(b + 1.0) / zeta(a + b + 2.0) * sigma_real(m, -(a + b + 1.0) * s)


def sigma_power_array(limit: int, x: float) -> np.ndarray:
    """arr[n] = sum of d**x over d | n for n <= limit (slot 0 unused).

    Sieved over d in ascending order, which matches the addend order of
    sigma_real exactly, so arr[n] == sigma_real(n, x) bit for bit.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    arr = np.zeros(limit + 1, dtype=np.float64)
    for d in range(1, limit + 1):
        arr[d::d] += float(d) ** x
    return arr


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
    return _running_sums(f, g, h, (n_limit,))[0]


def _sigma_ratio_values(x: float, limit: int) -> np.ndarray:
    """values[n] = sigma_x(n) / n**x for n <= limit (slot 0 unused).

    The f and g values of every correlation run come from here. Each entry
    is sigma_real(n, x) / float(n) ** x bit for bit: the powers use scalar
    float ** (libm pow), which numpy's vectorized ** does not match.
    """
    values = sigma_power_array(limit, x)
    for n in range(1, limit + 1):
        values[n] /= float(n) ** x
    return values


def _running_sums(f: np.ndarray, g: np.ndarray, h: int, schedule: Sequence[int]) -> list[float]:
    """sum_{n<=N} f[n] * g[n + h] for each N of an ascending schedule.

    One pass in ascending n, so each sum equals correlation_sum of the same
    values bit for bit.
    """
    sums = []
    total = 0.0
    start = 1
    for stop in schedule:
        for n in range(start, stop + 1):
            total += f[n] * g[n + h]
        sums.append(float(total))
        start = stop + 1
    return sums


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
        else:
            if self.s != 1:
                raise ValueError("t1/t2 runs use the s = 1 sigma family")
            if self.k is None or self.k < 1:
                raise ValueError("t1/t2 runs need k >= 1")
            if self.r_truncation is None or self.r_truncation < 1:
                raise ValueError("t1/t2 runs need a truncation R >= 1")
            if self.kind == "t1" and self.h != 0:
                raise ValueError("t1 compares equal arguments; h must be 0")


@dataclass(frozen=True)
class CorrelationRecord:
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

    def to_json_text(self) -> str:
        params = ",".join(f'"{key}":{_json_number(val)}' for key, val in self.params)
        records = ",".join(
            '{"N":%d,"lhs":%s,"main_term":%s,"ratio":%s}'
            % (rec.n_limit, _fmt17(rec.lhs), _fmt17(rec.main_term), _fmt17(rec.ratio))
            for rec in self.records
        )
        return '{"theorem":"%s","params":{%s},"records":[%s]}\n' % (self.theorem, params, records)

    def to_csv_text(self) -> str:
        lines = ["N,lhs,main_term,ratio"]
        lines.extend(
            f"{rec.n_limit},{_fmt17(rec.lhs)},{_fmt17(rec.main_term)},{_fmt17(rec.ratio)}"
            for rec in self.records
        )
        return "\n".join(lines) + "\n"


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


def _json_number(value: float | int) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans are not report numbers")
    if isinstance(value, int):
        return str(value)
    return _fmt17(value)


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
        if config.kind == "t1":
            multiplier = theorem1_main(family, family, config.r_truncation)
            theorem = "T1"
            weight_kind = "phi"
        else:
            multiplier = theorem2_main(family, family, config.h, config.r_truncation)
            theorem = "T2"
            weight_kind = "cr_at_h"
        f_values = g_values = _sigma_ratio_values(float(config.k), n_top + config.h)
        params = (
            ("k", config.k),
            ("s", config.s),
            ("h", config.h),
            ("R", config.r_truncation),
        )
    if multiplier == 0.0:
        raise ValueError("degenerate configuration: the predicted main term is zero")

    lhs_values = _running_sums(f_values, g_values, config.h, config.schedule)
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


@dataclass(frozen=True)
class LemmaGridPoint:
    r: int
    k: int
    s: int
    h: int
    n_limit: int


@dataclass(frozen=True)
class LemmaEntry:
    r: int
    k: int
    s: int
    h: int
    n_limit: int
    measured: float
    bound: float
    normalized: float
    passed: bool


@dataclass(frozen=True)
class LemmaCheckReport:
    lemma_id: str
    entries: tuple[LemmaEntry, ...]
    max_normalized: float
    all_pass: bool

    def to_json_text(self) -> str:
        grid = ",".join(
            '{"r":%d,"k":%d,"s":%d,"h":%d,"N":%d,"measured":%s,"bound":%s,"normalized":%s}'
            % (
                e.r,
                e.k,
                e.s,
                e.h,
                e.n_limit,
                _fmt17(e.measured),
                _fmt17(e.bound),
                _fmt17(e.normalized),
            )
            for e in self.entries
        )
        return '{"lemma":"%s","grid":[%s],"max_normalized":%s}\n' % (
            self.lemma_id,
            grid,
            _fmt17(self.max_normalized),
        )

    def to_csv_text(self) -> str:
        lines = ["r,k,s,h,N,measured,bound,normalized"]
        lines.extend(
            f"{e.r},{e.k},{e.s},{e.h},{e.n_limit},"
            f"{_fmt17(e.measured)},{_fmt17(e.bound)},{_fmt17(e.normalized)}"
            for e in self.entries
        )
        return "\n".join(lines) + "\n"


def build_lemma_grid(
    r_values: Iterable[int],
    k_values: Iterable[int],
    s_values: Iterable[int],
    h_values: Iterable[int],
    n_values: Iterable[int],
) -> list[LemmaGridPoint]:
    """Cartesian grid of lemma check points in deterministic order."""
    return [
        LemmaGridPoint(r=r, k=k, s=s, h=h, n_limit=n)
        for s in s_values
        for r in r_values
        for k in k_values
        for h in h_values
        for n in n_values
    ]


def _product_sum(row_r: Sequence[int], row_k: Sequence[int], h: int, n_limit: int) -> int:
    """Exact integer sum over n = 1..N of c_r(n) * c_k(n + h) from table rows."""
    return sum(x * y for x, y in zip(row_r[1 : n_limit + 1], row_k[1 + h : n_limit + h + 1]))


def lemma_check(lemma_id: str, points: Iterable[LemmaGridPoint]) -> LemmaCheckReport:
    """Check one product-sum lemma over a grid.

    L1: sum c_r(n) c_k(n) <= N tau_s(r**s) tau_s(k**s) (r**s, k**s)_s, no shift.
    L2: deviation of the shifted sum from delta_{r,k} N c_r^s(h), normalized
        by r**s k**s ln(r**s k**s); reported, never asserted (points with
        r = k = 1 are excluded, the log scale vanishes there).
    L3: |shifted sum| <= sqrt(N) sqrt(N+h) sqrt(r**s k**s) tau_s(r**s) tau_s(k**s).
    L4: shifted sum <= 2 N Phi_s(r**s) tau(k), requiring h <= N.
    """
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"lemma_id must be one of {LEMMA_IDS}, got {lemma_id!r}")
    grid = list(points)
    if lemma_id == "L2":
        grid = [p for p in grid if p.r**p.s * p.k**p.s > 1]
    if not grid:
        raise ValueError("lemma grid is empty")
    for p in grid:
        if p.r < 1 or p.k < 1:
            raise ValueError("grid r and k must be >= 1")
        check_exponent(p.s)
        if p.n_limit < 1:
            raise ValueError("grid N must be >= 1")
        if p.h < 0:
            raise ValueError("grid h must be >= 0")
        if lemma_id == "L1" and p.h != 0:
            raise ValueError("L1 has no shift; grid points must have h = 0")
        if lemma_id == "L4" and p.h > p.n_limit:
            raise ValueError(f"L4 requires h <= N, got h={p.h}, N={p.n_limit}")

    tables: dict[int, CRSumTable] = {}
    for s in sorted({p.s for p in grid}):
        pts = [p for p in grid if p.s == s]
        r_top = max(max(p.r, p.k) for p in pts)
        n_top = max(p.n_limit + p.h for p in pts)
        tables[s] = build_table(r_top, n_top, s)

    def check_point(p: LemmaGridPoint) -> LemmaEntry:
        table = tables[p.s]
        row_r = table.row(p.r)
        row_k = table.row(p.k)
        total = _product_sum(row_r, row_k, p.h, p.n_limit)
        rs = p.r**p.s
        ks = p.k**p.s
        if lemma_id == "L1":
            bound = p.n_limit * tau_s(rs, p.s) * tau_s(ks, p.s) * gcd_s(rs, ks, p.s)
            measured = float(total)
            passed = total <= bound
            normalized = measured / bound
            bound_f = float(bound)
        elif lemma_id == "L2":
            main = p.n_limit * cr_sum_exact(p.r, p.h, p.s) if p.r == p.k else 0
            deviation = abs(total - main)
            scale = rs * ks * math.log(rs * ks)
            measured = float(deviation)
            bound_f = scale
            normalized = deviation / scale
            passed = True
        elif lemma_id == "L3":
            bound_f = (
                math.sqrt(p.n_limit)
                * math.sqrt(p.n_limit + p.h)
                * math.sqrt(rs * ks)
                * tau_s(rs, p.s)
                * tau_s(ks, p.s)
            )
            measured = float(abs(total))
            passed = measured <= bound_f
            normalized = measured / bound_f
        else:  # L4
            bound = 2 * p.n_limit * jordan_totient(p.r, p.s) * tau_s(p.k, 1)
            measured = float(total)
            passed = total <= bound
            normalized = measured / bound
            bound_f = float(bound)
        return LemmaEntry(
            r=p.r,
            k=p.k,
            s=p.s,
            h=p.h,
            n_limit=p.n_limit,
            measured=measured,
            bound=bound_f,
            normalized=normalized,
            passed=passed,
        )

    entries = [check_point(p) for p in grid]
    return LemmaCheckReport(
        lemma_id=lemma_id,
        entries=tuple(entries),
        max_normalized=max(e.normalized for e in entries),
        all_pass=all(e.passed for e in entries),
    )
