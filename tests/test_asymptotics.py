"""Tests for correlation sums, main terms, the sigma-pair corollary, and
the lemma bound grids."""

import functools
import io
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crlab import asymptotics, cr_sum
from crlab.asymptotics import (
    MAX_SIGMA_LIMIT,
    CorrelationConfig,
    _sigma_ratio_values,
    correlation_sum,
    corollary_lhs,
    corollary_main,
    decompose_h,
    lemma_check,
    run_correlation_report,
    theorem1_main,
    theorem2_main,
)
from crlab.core_arith import HDecomposition, is_power_free, jordan_totient, sigma_real, tau_s, zeta
from crlab.cr_sum import (
    ResourceLimitError,
    _ascending_sums,
    _dirichlet_sieve,
    _power_row,
    build_table,
    cr_sum_exact,
)
from crlab.expansion import ExpansionCoefficients, as_plain_n, sigma_expansion

# zeta(3)**2 / zeta(6), frozen from a 30-digit mpmath evaluation
ZETA3_SQ_OVER_ZETA6 = 1.4203083034891934
# the same times sigma_{-5}(2) = 1 + 2**-5
COROLLARY_CONSTANT_H2 = 1.4646929379732306


def unit_family(s: int = 1) -> ExpansionCoefficients:
    return ExpansionCoefficients(s=s, argument_mode="plain_n", coeffs=(1.0,), provenance="x")


def sigma_row(limit: int, x: float) -> np.ndarray:
    """sigma_x(n) for n <= limit: the sigma row that _sigma_ratio_values divides."""
    return _dirichlet_sieve(_power_row(limit, x), None)


def text_written(write) -> str:
    """The ASCII text that write(handle) writes to a binary handle."""
    buffer = io.BytesIO()
    write(buffer)
    return buffer.getvalue().decode("ascii")


# --- correlation_sum ---------------------------------------------------------


def test_correlation_sum_examples():
    assert correlation_sum(lambda n: 1.0, lambda n: 1.0, 7, 10) == 10.0
    assert correlation_sum(float, float, 0, 3) == 14.0
    f = lambda n: sigma_real(n, 1.0) / n
    assert abs(correlation_sum(f, f, 1, 2) - 3.5) < 1e-12


def test_correlation_sum_validation():
    with pytest.raises(ValueError):
        correlation_sum(float, float, -1, 10)
    with pytest.raises(ValueError):
        correlation_sum(float, float, 0, 0)


# --- theorem main terms ------------------------------------------------------


def test_theorem1_main_examples():
    for s in (1, 2, 3):
        assert theorem1_main(unit_family(s), unit_family(s), 1) == 1.0
    zero = ExpansionCoefficients(s=1, argument_mode="plain_n", coeffs=(0.0,) * 5, provenance="x")
    assert theorem1_main(zero, zero, 5) == 0.0


def test_theorem1_main_monotone_in_r():
    fam = sigma_expansion(1, 1, 200)
    partials = [theorem1_main(fam, fam, r) for r in (1, 2, 5, 20, 100, 200)]
    assert all(b > a for a, b in zip(partials, partials[1:]))
    assert partials[-1] - partials[-2] < 1e-4  # converging


def test_theorem_main_preconditions():
    f1 = sigma_expansion(1, 1, 10)
    f2 = sigma_expansion(1, 2, 10)
    with pytest.raises(ValueError):
        theorem1_main(f1, f2, 5)
    with pytest.raises(ValueError):
        theorem1_main(f1, f1, 11)
    with pytest.raises(ValueError):
        theorem2_main(f1, f1, -1, 5)


def test_theorem2_equals_theorem1_at_h_zero():
    families = [
        as_plain_n(sigma_expansion(1, 1, 50)),
        sigma_expansion(2, 2, 30),
        ExpansionCoefficients(s=3, argument_mode="plain_n", coeffs=(0.5, -0.25, 0.125), provenance="x"),
    ]
    for fam in families:
        # the scalar loop over Phi_s(r**s) that theorem1_main replaced
        total = 0.0
        for r in range(1, fam.r_max + 1):
            total += fam.coeffs[r - 1] * fam.coeffs[r - 1] * jordan_totient(r, fam.s)
        t1 = theorem1_main(fam, fam, fam.r_max)
        assert t1.hex() == theorem2_main(fam, fam, 0, fam.r_max).hex() == total.hex()


def test_theorem1_main_past_the_float_range():
    # J_400(r) passes 2**1024 from r = 6 on, where the scalar loop's float * int
    # raised OverflowError; each term is now the exact product rounded once
    f = ExpansionCoefficients(s=400, argument_mode="plain_n", coeffs=(1.0,) * 30, provenance="x")
    g = replace(f, coeffs=(2.0**-1000,) * 30)
    assert jordan_totient(6, 400) > 2**1024
    total = 0.0
    for r in range(1, 31):
        total += float(Fraction(2.0**-1000) * jordan_totient(r, 400))
    assert theorem1_main(f, g, 30).hex() == total.hex()


def test_theorem2_main_examples():
    for h in (0, 1, 5):
        assert theorem2_main(unit_family(), unit_family(), h, 1) == 1.0

    def brute_mobius(n):
        count = 0
        p = 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                count += 1
            p += 1
        if n > 1:
            count += 1
        return -1 if count % 2 else 1

    fam = as_plain_n(sigma_expansion(1, 1, 1000))
    expected = sum(zeta(2.0) ** 2 * brute_mobius(r) / r**4 for r in range(1, 1001))
    assert abs(theorem2_main(fam, fam, 1, 1000) - expected) < 1e-12


# --- decompose_h -------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    f=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
    g=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
    s=st.sampled_from((1, 2, 3, 17)),
    h=st.integers(min_value=0, max_value=3000),
    cut=st.integers(min_value=0, max_value=60),
)
def test_theorem2_main_matches_scalar_loop_bitwise(f, g, s, h, cut):
    # the loop theorem2_main replaced, on c values from cr_sum_exact
    fam_f = ExpansionCoefficients(s=s, argument_mode="plain_n", coeffs=tuple(f), provenance="x")
    fam_g = ExpansionCoefficients(s=s, argument_mode="plain_n", coeffs=tuple(g), provenance="x")
    r_limit = min(cut, len(f), len(g))
    total = 0.0
    for r in range(1, r_limit + 1):
        total += f[r - 1] * g[r - 1] * cr_sum_exact(r, h, s)
    assert theorem2_main(fam_f, fam_g, h, r_limit).hex() == total.hex()


def test_decompose_examples():
    d = decompose_h(12, 2)
    assert (d.m, d.k) == (2, 3)
    for h in (1, 5, 36):
        d1 = decompose_h(h, 1)
        assert (d1.m, d1.k) == (h, 1)
    d32 = decompose_h(32, 2)
    assert (d32.m, d32.k) == (4, 2)


def test_decompose_record_keeps_its_fields():
    d = decompose_h(72, 2)
    assert (d.h, d.m, d.k) == (72, 6, 2)
    assert d == HDecomposition(h=72, m=6, k=2)
    assert repr(d) == "HDecomposition(h=72, m=6, k=2)"
    with pytest.raises(AttributeError):
        d.m = 1


def test_decompose_roundtrip():
    for s in (1, 2, 3):
        for h in range(1, 10_001):
            d = decompose_h(h, s)
            assert d.m**s * d.k == h
            assert is_power_free(d.k, s)


def test_decompose_m_is_maximal():
    for s in (2, 3):
        for h in range(1, 1001):
            d = decompose_h(h, s)
            best = max(
                m
                for m in range(1, h + 1)
                if m**s <= h and h % m**s == 0 and is_power_free(h // m**s, s)
            )
            assert d.m == best, (h, s)


# --- corollary ---------------------------------------------------------------


def test_corollary_main_examples():
    assert abs(corollary_main(2.0, 2.0, 1, 1) - ZETA3_SQ_OVER_ZETA6) < 1e-10
    assert abs(corollary_main(2.0, 2.0, 1, 2) - COROLLARY_CONSTANT_H2) < 1e-10
    assert corollary_main(2.0, 2.0, 1, 2) == corollary_main(2.0, 2.0, 1, 1) * (1 + 2.0**-5)
    # any h whose power part is trivial gives the pure zeta ratio
    assert corollary_main(1.7, 2.3, 2, 3) == zeta(2.7) * zeta(3.3) / zeta(6.0)


def test_corollary_preconditions():
    with pytest.raises(ValueError):
        corollary_main(1.5, 2.0, 1, 1)
    with pytest.raises(ValueError):
        corollary_main(2.0, 1.2, 1, 1)
    with pytest.raises(ValueError):
        corollary_main(2.0, 2.0, 1, 0)


def test_corollary_lhs_single_term():
    assert corollary_lhs(2.0, 2.0, 1, 1, 1) == 1.25  # sigma_2(1)/1 * sigma_2(2)/4


def test_corollary_lhs_matches_literal_correlation():
    f = lambda n: sigma_real(n, 2.0) / float(n) ** 2.0
    g = lambda n: sigma_real(n, 2.0) / float(n) ** 2.0
    for n_limit in (2, 17, 40):
        assert corollary_lhs(2.0, 2.0, 1, 1, n_limit) == correlation_sum(f, g, 1, n_limit)


def test_sigma_power_array_matches_sigma_real_bitwise():
    for x in (2.0, -5.0, 3.7):
        arr = sigma_row(200, x)
        for n in range(1, 201):
            assert arr[n] == sigma_real(n, x)


# Limits drawn freely, plus k*k - 1, k*k and k*k + 1, the edges of the
# sieve's isqrt(L) split.
_SIEVE_LIMITS = st.one_of(
    st.integers(min_value=1, max_value=3000),
    st.builds(
        lambda k, e: max(1, k * k + e),
        st.integers(min_value=1, max_value=54),
        st.sampled_from((-1, 0, 1)),
    ),
)


@settings(max_examples=40, deadline=None)
@given(limit=_SIEVE_LIMITS, x=st.sampled_from((2.0, -3.5, 0.5, 1.7, 3)))
def test_sigma_sieve_matches_sigma_real_bitwise(limit, x):
    # oracle: sigma_real sums float(d) ** x over the divisor list of n
    arr = sigma_row(limit, x)
    ratios = _sigma_ratio_values(x, limit)
    assert arr.shape == ratios.shape == (limit + 1,)
    for n in range(1, limit + 1):
        expected = sigma_real(n, x)
        assert arr[n].hex() == expected.hex()
        assert ratios[n].hex() == (expected / float(n) ** x).hex()


@pytest.mark.parametrize(
    "x, limit",
    [
        (0, 1), (0.0, 3000), (1, 3000), (1.0, 3000), (2, 3000), (2.0, 3000),
        # limit**x on both sides of 2**53 (the square root is past MAX_SIGMA_LIMIT)
        (3.0, 208063), (3, 208064), (4, 9741), (4.0, 9742),
        (20.0, 100),  # far past 2**53, where int64 powers would wrap
        (2.5, 100), (-2.0, 100),
        # where Python's ** special-cases its operands or a vectorized pow could round differently
        (math.inf, 1), (-math.inf, 50), (math.nan, 50), (-0.0, 50), (1e-300, 50),
        (-1074.5, 3), (53.0, 2), (54.0, 2),
        # the corollary's exponents
        (1.75, 100_000), (2.5, 100_000), (-3.5, 100_000),
    ],
)
def test_power_row_matches_scalar_pow_bitwise(x, limit):
    # np.float_power calls libm pow per entry, as Python's float ** does
    expected = [0.0] + [float(d) ** x for d in range(1, limit + 1)]
    assert [v.hex() for v in _power_row(limit, x).tolist()] == [v.hex() for v in expected]


def test_power_row_past_the_float_range_is_refused():
    assert _power_row(2, 1023.0)[2] == 2.0**1023
    for limit, x in ((2, 1024.0), (1000, 400), (103, 5000.0)):
        with pytest.raises(ResourceLimitError, match="float range"):
            _power_row(limit, x)
    assert _power_row(10, -400.0)[10] == 0.0  # underflow is not refused


def test_sigma_rows_respect_budget():
    with pytest.raises(ResourceLimitError):
        sigma_row(MAX_SIGMA_LIMIT + 1, 2.0)
    with pytest.raises(ResourceLimitError):
        _sigma_ratio_values(2.0, MAX_SIGMA_LIMIT + 1)


def test_running_sums_match_correlation_sum_bitwise():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(320)
    g = rng.standard_normal(310)
    for h in (0, 1, 9):
        # a one-entry schedule, and one whose last N + h is the end of g
        for schedule in ((37,), (1, 2, 50, 299, 309 - h)):
            top = schedule[-1]
            sums = _ascending_sums(f[1 : top + 1] * g[1 + h : top + h + 1], [n - 1 for n in schedule])
            expected = [correlation_sum(f.item, g.item, h, n) for n in schedule]
            assert [v.hex() for v in sums] == [v.hex() for v in expected]


def test_corollary_ratio_improves_with_n():
    lo = corollary_lhs(2.0, 2.0, 1, 2, 200) / (200 * corollary_main(2.0, 2.0, 1, 2))
    hi = corollary_lhs(2.0, 2.0, 1, 2, 2000) / (2000 * corollary_main(2.0, 2.0, 1, 2))
    assert abs(hi - 1.0) < abs(lo - 1.0)


# --- correlation reports -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        CorrelationConfig(kind="t9", s=1, h=0, schedule=(10,))
    with pytest.raises(ValueError):
        CorrelationConfig(kind="t1", s=1, h=0, schedule=())
    with pytest.raises(ValueError):
        CorrelationConfig(kind="t1", s=1, h=0, schedule=(10, 10), k=1, r_truncation=10)
    with pytest.raises(ValueError):
        CorrelationConfig(kind="t1", s=1, h=2, schedule=(10,), k=1, r_truncation=10)
    with pytest.raises(ValueError):
        CorrelationConfig(kind="corollary", s=1, h=2, schedule=(10,))  # missing a, b
    with pytest.raises(ValueError):
        CorrelationConfig(kind="t2", s=2, h=1, schedule=(10,), k=1, r_truncation=10)
    with pytest.raises(ValueError, match="no a or b"):
        CorrelationConfig(kind="t2", s=1, h=1, schedule=(10,), a=2.0, k=1, r_truncation=10)
    with pytest.raises(ValueError, match="no k or R"):
        CorrelationConfig(kind="corollary", s=1, h=1, schedule=(10,), a=2.0, b=2.0, k=1)


def test_run_correlation_report_records():
    config = CorrelationConfig(
        kind="corollary", s=1, h=1, schedule=(10, 100, 500), a=2.0, b=2.0
    )
    report = run_correlation_report(config)
    assert report.theorem == "corollary"
    assert [rec.n_limit for rec in report.records] == [10, 100, 500]
    for rec in report.records:
        assert rec.main_term == rec.n_limit * corollary_main(2.0, 2.0, 1, 1)
        assert rec.ratio == rec.lhs / rec.main_term
        assert rec.lhs == corollary_lhs(2.0, 2.0, 1, 1, rec.n_limit)


def test_report_lhs_matches_independent_correlation_sum():
    # oracle: correlation_sum over sigma_real closures, which shares no code
    # with the reports' f/g builder or running sums
    def ratio(x):
        return lambda n: sigma_real(n, x) / float(n) ** x

    schedule = (1, 7, 60, 150)
    for a, b, s, h in ((2.0, 2.0, 1, 1), (1.8, 2.1, 2, 4), (2.5, 1.6, 1, 7)):
        report = run_correlation_report(
            CorrelationConfig(kind="corollary", s=s, h=h, schedule=schedule, a=a, b=b)
        )
        f, g = ratio(a * s), ratio(b * s)
        for rec in report.records:
            assert rec.lhs == correlation_sum(f, g, h, rec.n_limit)
    for k in (1, 2):
        report = run_correlation_report(
            CorrelationConfig(kind="t1", s=1, h=0, schedule=schedule, k=k, r_truncation=20)
        )
        f = ratio(float(k))
        for rec in report.records:
            assert rec.lhs == correlation_sum(f, f, 0, rec.n_limit)


def test_run_t1_and_t2_reports():
    fam = as_plain_n(sigma_expansion(1, 1, 200))
    t1 = run_correlation_report(
        CorrelationConfig(kind="t1", s=1, h=0, schedule=(100, 1000), k=1, r_truncation=200)
    )
    assert t1.theorem == "T1" and t1.weight_kind == "phi"
    assert 0.8 < t1.records[-1].ratio < 1.2
    # the Phi_s(r**s)-weighted reference, bit for bit
    assert [rec.main_term for rec in t1.records] == [
        n * theorem1_main(fam, fam, 200) for n in (100, 1000)
    ]

    t2 = run_correlation_report(
        CorrelationConfig(kind="t2", s=1, h=2, schedule=(100, 1000), k=1, r_truncation=200)
    )
    assert t2.theorem == "T2" and t2.weight_kind == "cr_at_h"
    assert t2.records[-1].main_term == 1000 * theorem2_main(fam, fam, 2, 200)


def test_report_serialization_roundtrip():
    config = CorrelationConfig(kind="corollary", s=1, h=2, schedule=(10, 50), a=2.0, b=2.0)
    report = run_correlation_report(config)
    parsed = json.loads(text_written(report.write_json))
    assert parsed["theorem"] == "corollary"
    assert parsed["params"] == {"a": 2.0, "b": 2.0, "s": 1, "h": 2}
    assert len(parsed["records"]) == 2
    assert parsed["records"][0]["N"] == 10
    assert parsed["records"][1]["ratio"] == report.records[1].ratio

    csv_text = text_written(report.write_csv)
    lines = csv_text.splitlines()
    assert lines[0] == "N,lhs,main_term,ratio"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == report.records[0].lhs


def test_report_determinism():
    config = CorrelationConfig(kind="corollary", s=2, h=4, schedule=(20, 60), a=1.8, b=2.1)
    a = text_written(run_correlation_report(config).write_json)
    b = text_written(run_correlation_report(config).write_json)
    assert a == b


# --- lemma checks ------------------------------------------------------------


def test_lemma1_equality_at_unit_point():
    report = lemma_check("L1", (1,), (1,), 1, 0, (50,))
    entry = report.entries[0]
    assert entry.measured == entry.bound == 50.0
    assert report.all_pass and report.max_normalized == 1.0


def test_lemma1_example_bound():
    report = lemma_check("L1", (2,), (2,), 1, 0, (100,))
    assert report.entries[0].bound == 800.0
    assert report.entries[0].measured <= 800.0


def test_lemma2_diagonal_structure():
    # at r = k the main term is N * c_r^s(h); the deviation stays bounded
    entries = [e for r in (2, 3, 6) for e in lemma_check("L2", (r,), (r,), 1, 0, (100, 500)).entries]
    assert [(e.r, e.n_limit) for e in entries] == [(r, n) for r in (2, 3, 6) for n in (100, 500)]
    table = build_table(6, 500, 1)
    for entry in entries:
        row = table.row(entry.r)
        total = sum(row[n] * row[n] for n in range(1, entry.n_limit + 1))
        main = entry.n_limit * cr_sum_exact(entry.r, 0, 1)
        assert entry.measured == abs(total - main)
        assert entry.passed


def test_lemma2_filters_unit_point():
    report = lemma_check("L2", (1, 2), (1,), 1, 0, (100,))
    assert len(report.entries) == 1
    assert (report.entries[0].r, report.entries[0].k) == (2, 1)
    with pytest.raises(ValueError):
        lemma_check("L2", (1,), (1,), 1, 0, (100,))


def test_lemma4_r1_bound():
    # with r = 1 the left side is sum of c_k^s(n+h) and the bound is 2N tau(k)
    report = lemma_check("L4", (1,), (6,), 1, 3, (100,))
    entry = report.entries[0]
    assert entry.bound == 2 * 100 * 4  # tau(6) = 4
    assert entry.passed


def test_lemma_preconditions():
    with pytest.raises(ValueError):
        lemma_check("L5", (1,), (1,), 1, 0, (10,))
    with pytest.raises(ValueError):
        lemma_check("L1", (), (1,), 1, 0, (10,))
    with pytest.raises(ValueError):
        lemma_check("L1", (2,), (2,), 1, 1, (10,))  # L1 has no shift
    with pytest.raises(ValueError):
        lemma_check("L4", (2,), (2,), 1, 20, (10,))  # h > N


def test_lemma_bounds_small_grid_all_lemmas():
    r_values = range(1, 7)
    for s in (1, 2):
        assert lemma_check("L1", r_values, r_values, s, 0, (50, 200)).all_pass
        for h in (0, 2):
            assert lemma_check("L3", r_values, r_values, s, h, (50, 200)).all_pass
            assert lemma_check("L4", r_values, r_values, s, h, (50, 200)).all_pass
            rep2 = lemma_check("L2", r_values, r_values, s, h, (50, 200))
            assert math.isfinite(rep2.max_normalized)


def test_lemma_report_serialization():
    report = lemma_check("L3", (2,), (3,), 1, 1, (100,))
    parsed = json.loads(text_written(report.write_json))
    assert parsed["lemma"] == "L3"
    assert parsed["grid"][0]["r"] == 2
    assert parsed["grid"][0]["N"] == 100
    assert parsed["max_normalized"] == report.max_normalized
    lines = text_written(report.write_csv).splitlines()
    assert lines[0] == "r,k,s,h,N,measured,bound,normalized"
    assert len(lines) == 2


class _ByteCounter:
    """A binary sink that keeps only the number of bytes written."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, data: bytes) -> None:
        self.size += len(data)


def test_lemma_json_writer_memory_is_one_text_block():
    # the points go out _TEXT_BLOCK at a time: the writer holds one block of
    # text, its row pieces and its Python values, never the whole text
    report = lemma_check("L4", range(1, 257), range(1, 257), 1, 0, (10, 20, 30, 40))
    points = len(report.r)
    assert points == 2**18
    sink = _ByteCounter()
    tracemalloc.start()
    try:
        report.write_json(sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size == len(text_written(report.write_json)) > 20 * 10**6
    block_text = sink.size * cr_sum._TEXT_BLOCK // points
    assert peak < 8 * block_text < sink.size // 8


def _lemma_peak(lemma_id: str, axis: range) -> int:
    """tracemalloc peak bytes of one lemma_check over axis x axis at s = 1, N = 10."""
    tracemalloc.start()
    try:
        lemma_check(lemma_id, axis, axis, 1, 0, (10,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_lemma_l3_memory_is_near_l4():
    # L3 decides sum**2 <= N (N+h) r**s k**s tau(r)**2 tau(k)**2 in int64 when
    # both sides fit, so it holds no Python int per point, and its r**s k**s
    # scale is dropped once the test's right side is built: a 300 x 300 grid
    # peaks near L4, whose report columns have the same bytes
    axis = range(1, 301)
    assert _lemma_peak("L3", axis) < 1.1 * _lemma_peak("L4", axis)


@pytest.mark.parametrize(
    "lemma_id, h, ratio",
    # L3's own bound is the loosest; test_lemma_l3_memory_is_near_l4 holds it near L4's
    [("L1", 0, 2.2), ("L2", 3, 2.0), ("L3", 0, 2.5), ("L4", 0, 1.9)],
)
def test_lemma_memory_is_near_its_report_columns(lemma_id, h, ratio):
    # the grid is the broadcast of its axes, with no point index and no copy
    # of the sieved rows, and every exact column (the sums, L1's gcd(r, k)**s,
    # L2's r**s k**s and c_r^s(h), L3's exact test, L4's Phi_s(r**s)) is int64
    # where its bound fits, not a Python int per point, so a 300 x 300 grid
    # peaks near its seven columns
    axis = range(1, 301)
    tracemalloc.start()
    try:
        report = lemma_check(lemma_id, axis, axis, 1, h, (10,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = (*report._columns(), report.passed)
    assert peak <= ratio * sum(column.nbytes for column in columns)


def _exact_product_sum(r: int, k: int, s: int, h: int, n_limit: int) -> int:
    # oracle: per-n divisor sums from cr_sum_exact, no sieve and no matrix
    return sum(_c(r, n, s) * _c(k, n + h, s) for n in range(1, n_limit + 1))


@functools.lru_cache(maxsize=None)
def _c(r: int, n: int, s: int) -> int:
    return cr_sum_exact(r, n, s)


def _expected_measured(lemma_id: str, r: int, k: int, s: int, h: int, n_limit: int) -> float:
    total = _exact_product_sum(r, k, s, h, n_limit)
    if lemma_id == "L2":
        main = n_limit * cr_sum_exact(r, h, s) if r == k else 0
        return float(abs(total - main))
    if lemma_id == "L3":
        return float(abs(total))
    return float(total)


def _assert_measured_matches_oracle(lemma_id, r_values, k_values, s, h, n_values) -> None:
    report = lemma_check(lemma_id, r_values, k_values, s, h, n_values)
    kept = [
        (r, k, s, h, n)
        for r in r_values
        for k in k_values
        if lemma_id != "L2" or r**s * k**s > 1
        for n in n_values
    ]
    assert [(e.r, e.k, e.s, e.h, e.n_limit) for e in report.entries] == kept
    for e, point in zip(report.entries, kept):
        assert e.measured == _expected_measured(lemma_id, *point)


@st.composite
def _lemma_grids(draw):
    lemma_id = draw(st.sampled_from(asymptotics.LEMMA_IDS))
    # one call per (s, h); each axis unsorted and possibly repeated, so sums
    # are built block by block across several N of the same shape
    max_h = 0 if lemma_id == "L1" else 9
    grids = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        s = draw(st.integers(min_value=1, max_value=3))
        h = draw(st.integers(min_value=0, max_value=max_h))
        axis = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3)
        r_values, k_values = draw(axis), draw(axis)
        if lemma_id == "L2" and set(r_values) == set(k_values) == {1}:
            r_values.append(2)
        n_axis = st.lists(st.integers(min_value=max(h, 1), max_value=240), min_size=1, max_size=3)
        grids.append((r_values, k_values, s, h, draw(n_axis)))
    return lemma_id, grids


@settings(max_examples=60, deadline=None)
@given(case=_lemma_grids())
def test_lemma_measured_matches_exact_oracle(case):
    # small r x k x N grids at mixed s and h, in any N order
    lemma_id, grids = case
    for grid in grids:
        _assert_measured_matches_oracle(lemma_id, *grid)


def test_lemma_measured_repeated_unsorted_points():
    r_values = (12, 6, 1, 12, 30)
    k_values = (7, 5, 30, 7, 12)
    n_values = (90, 17, 60, 90, 5)
    for s, h in ((2, 3), (1, 3), (1, 4), (2, 0), (1, 0)):
        for lemma_id in ("L2", "L3", "L4"):
            _assert_measured_matches_oracle(lemma_id, r_values, k_values, s, h, n_values)
        if h == 0:
            _assert_measured_matches_oracle("L1", r_values, k_values, s, h, n_values)


def test_lemma_sums_fall_back_to_python_ints_past_int64(monkeypatch):
    # N * 30**5 * 30**5 > 2**63 although every c value fits the int64 grid
    dtypes = []
    int_dtype = asymptotics._int_dtype

    def spy(*args):
        dtypes.append(int_dtype(*args))
        return dtypes[-1]

    monkeypatch.setattr(asymptotics, "_int_dtype", spy)
    # the largest r, k and N come last, so a bound taken from the first ones fails
    _assert_measured_matches_oracle("L3", (28, 30), (29, 30), 5, 1, (7, 20_000))
    assert dtypes and all(dtype is object for dtype in dtypes)


@pytest.mark.parametrize("lemma_id, k_max, h", [("L1", 3, 0), ("L3", 1, 0), ("L4", 3, 2)])
def test_lemma_at_r_1_takes_an_exponent_past_int64(lemma_id, k_max, h):
    # numpy's int64 ** takes no exponent of 2**63 or more; at r = 1 every
    # bound stays small, so the grid is checked, not refused
    k_values = range(1, k_max + 1)
    _assert_measured_matches_oracle(lemma_id, (1,), k_values, 2**63, h, (10,))
    assert lemma_check(lemma_id, (1,), k_values, 2**63, h, (10,)).all_pass


def test_lemma_grid_point_budget(monkeypatch):
    monkeypatch.setattr(asymptotics, "MAX_LEMMA_POINTS", 12)
    assert len(lemma_check("L3", range(1, 4), range(1, 3), 1, 0, (5, 6)).entries) == 12

    def no_rows(*args, **kwargs):
        raise AssertionError("rows sieved for an over-budget grid")

    monkeypatch.setattr(asymptotics, "_sieve_rows", no_rows)
    with pytest.raises(ResourceLimitError):
        lemma_check("L3", range(1, 4), range(1, 3), 1, 0, (5, 6, 7))


def test_lemma_rows_are_held_to_the_rows_sieved(monkeypatch):
    # r = 1..6 and k = 3..8 share 3..6, but each axis is sieved on its own:
    # the budget counts the 12 rows of both axes, N + h + 1 = 11 cells each
    monkeypatch.setattr(cr_sum, "MAX_TABLE_CELLS", 132)
    assert lemma_check("L3", range(1, 7), range(3, 9), 1, 2, (4, 8)).all_pass
    monkeypatch.setattr(cr_sum, "MAX_TABLE_CELLS", 131)

    def no_rows(*args, **kwargs):
        raise AssertionError("rows sieved for an over-budget grid")

    monkeypatch.setattr(asymptotics, "_sieve_rows", no_rows)
    with pytest.raises(ResourceLimitError, match="table of 132 cells exceeds budget 131"):
        lemma_check("L3", range(1, 7), range(3, 9), 1, 2, (4, 8))


def test_lemma_sums_are_held_to_the_work_budget(monkeypatch):
    # 6 r * 6 k * max N 8 = 288 multiply-adds; the shorter N = 4 adds none
    monkeypatch.setattr(asymptotics, "MAX_LEMMA_WORK", 288)
    assert lemma_check("L3", range(1, 7), range(3, 9), 1, 2, (4, 8)).all_pass
    monkeypatch.setattr(asymptotics, "MAX_LEMMA_WORK", 287)

    def no_rows(*args, **kwargs):
        raise AssertionError("rows sieved for an over-budget grid")

    monkeypatch.setattr(asymptotics, "_sieve_rows", no_rows)
    with pytest.raises(ResourceLimitError, match="lemma sums of 288 multiply-adds exceed 287"):
        lemma_check("L3", range(1, 7), range(3, 9), 1, 2, (4, 8))


def test_lemma_grid_values_are_held_to_the_longest_axis(monkeypatch):
    # the tau and exact columns run to the largest r or k, so an r or k past
    # MAX_LEMMA_POINTS is refused before anything is built
    with pytest.raises(ResourceLimitError, match="r or k exceeds"):
        lemma_check("L2", (10**9,), (1,), 1, 0, (1,))
    monkeypatch.setattr(asymptotics, "MAX_LEMMA_POINTS", 12)
    assert lemma_check("L4", (12, 5), (1,), 1, 0, (3,)).all_pass
    assert lemma_check("L1", (1,), (12,), 1, 0, (3,)).all_pass

    def nothing_built(*args, **kwargs):
        raise AssertionError("a column was built for an over-budget r or k")

    for name in ("_sieve_rows", "_dirichlet_sieve", "_cr_column"):
        monkeypatch.setattr(asymptotics, name, nothing_built)
    over = (("L4", (13, 5), (1,)), ("L1", (1,), (2, 13)), ("L2", (13,), (13,)))
    for lemma_id, r_values, k_values in over:
        with pytest.raises(ResourceLimitError, match="exceeds 12"):
            lemma_check(lemma_id, r_values, k_values, 1, 0, (3,))


def _sympy_tau_power(m: int, s: int) -> int:
    # tau_s(m, s): the divisors of m that are perfect s-th powers
    return sum(1 for d in sympy.divisors(m) if sympy.integer_nthroot(d, s)[1])


def _sympy_gcd_power(a: int, b: int, s: int) -> int:
    # (a, b)_s: the largest l**s dividing gcd(a, b)
    out = 1
    for p, e in sympy.factorint(sympy.gcd(a, b)).items():
        out *= int(p) ** (s * (e // s))
    return out


def test_lemma_bounds_past_factorize_limit():
    # 39**12 and 40**12 are past 2**63 - 1, where factorize stops
    s = 12
    assert 39**s > 2**63
    axes = ((39, 40), (39, 40))
    l1 = lemma_check("L1", *axes, s, 0, (10, 20))
    l3 = [lemma_check("L3", *axes, s, h, (10, 20)) for h in (0, 3)]
    assert l1.all_pass and all(report.all_pass for report in l3)
    for lemma_id, report in [("L1", l1)] + [("L3", report) for report in l3]:
        for e in report.entries:
            rs, ks = e.r**s, e.k**s
            tau_r, tau_k = _sympy_tau_power(rs, s), _sympy_tau_power(ks, s)
            assert (tau_r, tau_k) == (sympy.divisor_count(e.r), sympy.divisor_count(e.k))
            if lemma_id == "L1":
                expected = float(e.n_limit * tau_r * tau_k * _sympy_gcd_power(rs, ks, s))
            else:
                n, h = e.n_limit, e.h
                expected = math.sqrt(n) * math.sqrt(n + h) * math.sqrt(rs * ks) * tau_r * tau_k
            assert e.bound == expected, (lemma_id, e)
    _assert_measured_matches_oracle("L1", *axes, s, 0, (10, 20))
    for h in (0, 3):
        _assert_measured_matches_oracle("L3", *axes, s, h, (10, 20))


def _scalar_point(lemma_id: str, r: int, k: int, s: int, h: int, n: int, total: int):
    # oracle: the per-point arithmetic lemma_check ran before its report became
    # columns, on Python ints and floats, one point at a time
    tau_r, tau_k = tau_s(r, 1), tau_s(k, 1)
    rs, ks = r**s, k**s
    if lemma_id == "L1":
        bound = n * tau_r * tau_k * math.gcd(r, k) ** s
        measured = float(total)
        return measured, float(bound), measured / bound, total <= bound
    if lemma_id == "L2":
        main = n * cr_sum_exact(r, h, s) if r == k else 0
        deviation = abs(total - main)
        scale = rs * ks * math.log(rs * ks)
        return float(deviation), scale, deviation / scale, True
    if lemma_id == "L3":
        bound = math.sqrt(n) * math.sqrt(n + h) * math.sqrt(rs * ks) * tau_r * tau_k
        measured = float(abs(total))
        return measured, bound, measured / bound, total**2 <= n * (n + h) * rs * ks * tau_r**2 * tau_k**2
    bound = 2 * n * jordan_totient(r, s) * tau_k
    measured = float(total)
    return measured, float(bound), measured / bound, total <= bound


@st.composite
def _lemma_column_grids(draw):
    lemma_id = draw(st.sampled_from(asymptotics.LEMMA_IDS))
    h = 0 if lemma_id == "L1" else draw(st.integers(min_value=0, max_value=9))
    if draw(st.booleans()):
        # s = 12 with r, k in {39, 40}: r**s passes 2**63, so rows and sums are Python ints
        s, axis = 12, st.lists(st.sampled_from((39, 40)), min_size=1, max_size=3)
    else:
        s = draw(st.integers(min_value=1, max_value=3))
        value = st.one_of(st.just(1), st.integers(min_value=1, max_value=40))
        axis = st.lists(value, min_size=1, max_size=4)
    r_values, k_values = draw(axis), draw(axis)
    if lemma_id == "L2" and set(r_values) == set(k_values) == {1}:
        r_values.append(2)
    n_values = draw(st.lists(st.integers(min_value=max(h, 1), max_value=120), min_size=1, max_size=3))
    return lemma_id, r_values, k_values, s, h, n_values


@settings(max_examples=80, deadline=None)
@given(grid=_lemma_column_grids())
@example(grid=("L2", [1, 2, 1], [1, 3], 1, 4, [9, 3, 9]))  # the unit pair skipped, twice
@example(grid=("L3", [9, 1], [11, 1], 3, 0, [3, 1, 2]))  # equality at r = k = 1, where sqrt(3) * sqrt(3) < 3
@example(grid=("L4", [40, 39], [39, 40], 12, 5, [20, 10]))
@example(grid=("L3", [2, 1], [1, 2], 15, 0, [1]))  # (r k)**s = 2**30: decided in int64
@example(grid=("L3", [2, 1], [1, 2], 16, 0, [1]))  # 2**32 past isqrt(2**63): in Python ints
@example(grid=("L2", [3, 2, 1], [2, 3], 40, 0, [5, 2]))  # N c_r^s(0) = N J_40(r) past int64
@example(grid=("L2", [2, 3], [3, 2], 40, 3, [4]))  # c_r^40(3) = mu(r)
@example(grid=("L4", [30, 1, 30, 7], [12, 40], 1, 3, [10]))  # tau up to k = 40, Phi_s up to r = 30
@example(grid=("L1", [6], [40, 1], 2, 0, [5]))  # tau to max k = 40 past max r = 6
def test_lemma_columns_match_scalar_points_bitwise(grid):
    # every column value against the old per-point arithmetic, floats by hex
    lemma_id, r_values, k_values, s, h, n_values = grid
    report = lemma_check(lemma_id, r_values, k_values, s, h, n_values)
    points = [
        (r, k, n)
        for r in r_values
        for k in k_values
        if lemma_id != "L2" or r * k > 1
        for n in n_values
    ]
    expected = [
        _scalar_point(lemma_id, r, k, s, h, n, _exact_product_sum(r, k, s, h, n)) for r, k, n in points
    ]
    assert list(zip(report.r.tolist(), report.k.tolist(), report.n_limit.tolist())) == points
    for column, i in ((report.measured, 0), (report.bound, 1), (report.normalized, 2)):
        assert [x.hex() for x in column.tolist()] == [e[i].hex() for e in expected]
    assert report.passed.dtype == bool
    assert report.passed.tolist() == [e[3] for e in expected]


@pytest.mark.parametrize(
    "lemma_id, axis, s, h",
    [
        ("L1", 12, 400, 0),
        ("L2", 12, 400, 0),
        ("L2", 40, 96, 0),  # 40**192 is a float, 40**192 * ln(40**192) is not
        ("L3", 40, 100, 0),
        ("L3", 40, 100, 3),
    ],
)
def test_lemma_grid_past_the_float_range_exits_before_sieving(monkeypatch, lemma_id, axis, s, h):
    # an L1 bound, an L2/L3 scale r**s k**s or an L2 scale r**s k**s ln(r**s k**s)
    # past the float range is refused before any row is sieved
    def no_rows(*args, **kwargs):
        raise AssertionError("rows sieved for a grid past the float range")

    monkeypatch.setattr(asymptotics, "_sieve_rows", no_rows)
    with pytest.raises(ResourceLimitError, match="float range"):
        lemma_check(lemma_id, range(1, axis + 1), range(1, axis + 1), s, h, (10,))


def test_lemma_l4_bound_past_the_float_range_is_refused():
    # the L4 bound 2 N Phi_s(r**s) tau(k) needs Phi_s(r**s) from the rows
    with pytest.raises(ResourceLimitError, match="float range"):
        lemma_check("L4", range(1, 13), range(1, 13), 400, 3, (10,))


def test_lemma_grid_just_inside_the_float_range():
    # 40**192 < 2**1024 <= 40**200: s = 96 keeps every scale a float
    report = lemma_check("L3", (39, 40), (40,), 96, 0, (10,))
    assert report.all_pass
    assert report.bound.tolist()[1] == math.sqrt(10) * math.sqrt(10) * math.sqrt(40**192) * 8 * 8
