"""Tests for correlation sums, main terms, the sigma-pair corollary, and
the lemma bound grids."""

import json
import math

import pytest

from crlab.asymptotics import (
    CorrelationConfig,
    LemmaGridPoint,
    build_lemma_grid,
    correlation_sum,
    corollary_lhs,
    corollary_main,
    decompose_h,
    lemma_check,
    run_correlation_report,
    sigma_power_array,
    theorem1_main,
    theorem2_main,
)
from crlab.core_arith import is_power_free, jordan_totient, sigma_real, zeta
from crlab.cr_sum import build_table, cr_sum_exact
from crlab.expansion import ExpansionCoefficients, as_plain_n, sigma_expansion

# zeta(3)**2 / zeta(6), frozen from a 30-digit mpmath evaluation
ZETA3_SQ_OVER_ZETA6 = 1.4203083034891934
# the same times sigma_{-5}(2) = 1 + 2**-5
COROLLARY_CONSTANT_H2 = 1.4646929379732306


def unit_family(s: int = 1) -> ExpansionCoefficients:
    return ExpansionCoefficients(s=s, argument_mode="plain_n", coeffs=(1.0,), provenance="x")


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
        assert theorem2_main(fam, fam, 0, fam.r_max) == theorem1_main(fam, fam, fam.r_max)


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


def test_decompose_examples():
    d = decompose_h(12, 2)
    assert (d.m, d.k) == (2, 3)
    for h in (1, 5, 36):
        d1 = decompose_h(h, 1)
        assert (d1.m, d1.k) == (h, 1)
    d32 = decompose_h(32, 2)
    assert (d32.m, d32.k) == (4, 2)


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
        arr = sigma_power_array(200, x)
        for n in range(1, 201):
            assert arr[n] == sigma_real(n, x)


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
    t1 = run_correlation_report(
        CorrelationConfig(kind="t1", s=1, h=0, schedule=(100, 1000), k=1, r_truncation=200)
    )
    assert t1.theorem == "T1" and t1.weight_kind == "phi"
    assert 0.8 < t1.records[-1].ratio < 1.2

    t2 = run_correlation_report(
        CorrelationConfig(kind="t2", s=1, h=2, schedule=(100, 1000), k=1, r_truncation=200)
    )
    assert t2.theorem == "T2" and t2.weight_kind == "cr_at_h"
    fam = as_plain_n(sigma_expansion(1, 1, 200))
    assert t2.records[-1].main_term == 1000 * theorem2_main(fam, fam, 2, 200)


def test_report_serialization_roundtrip():
    config = CorrelationConfig(kind="corollary", s=1, h=2, schedule=(10, 50), a=2.0, b=2.0)
    report = run_correlation_report(config)
    parsed = json.loads(report.to_json_text())
    assert parsed["theorem"] == "corollary"
    assert parsed["params"] == {"a": 2.0, "b": 2.0, "s": 1, "h": 2}
    assert len(parsed["records"]) == 2
    assert parsed["records"][0]["N"] == 10
    assert parsed["records"][1]["ratio"] == report.records[1].ratio

    csv_text = report.to_csv_text()
    lines = csv_text.splitlines()
    assert lines[0] == "N,lhs,main_term,ratio"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == report.records[0].lhs


def test_report_determinism():
    config = CorrelationConfig(kind="corollary", s=2, h=4, schedule=(20, 60), a=1.8, b=2.1)
    a = run_correlation_report(config).to_json_text()
    b = run_correlation_report(config).to_json_text()
    assert a == b


# --- lemma checks ------------------------------------------------------------


def test_lemma1_equality_at_unit_point():
    report = lemma_check("L1", [LemmaGridPoint(1, 1, 1, 0, 50)])
    entry = report.entries[0]
    assert entry.measured == entry.bound == 50.0
    assert report.all_pass and report.max_normalized == 1.0


def test_lemma1_example_bound():
    report = lemma_check("L1", [LemmaGridPoint(2, 2, 1, 0, 100)])
    assert report.entries[0].bound == 800.0
    assert report.entries[0].measured <= 800.0


def test_lemma2_diagonal_structure():
    # at r = k the main term is N * c_r^s(h); the deviation stays bounded
    pts = [LemmaGridPoint(r, r, 1, 0, n) for r in (2, 3, 6) for n in (100, 500)]
    report = lemma_check("L2", pts)
    table = build_table(6, 500, 1)
    for entry in report.entries:
        row = table.row(entry.r)
        total = sum(row[n] * row[n] for n in range(1, entry.n_limit + 1))
        main = entry.n_limit * cr_sum_exact(entry.r, 0, 1)
        assert entry.measured == abs(total - main)
        assert entry.passed


def test_lemma2_filters_unit_point():
    report = lemma_check("L2", [LemmaGridPoint(1, 1, 1, 0, 100), LemmaGridPoint(2, 1, 1, 0, 100)])
    assert len(report.entries) == 1
    assert (report.entries[0].r, report.entries[0].k) == (2, 1)
    with pytest.raises(ValueError):
        lemma_check("L2", [LemmaGridPoint(1, 1, 1, 0, 100)])


def test_lemma4_r1_bound():
    # with r = 1 the left side is sum of c_k^s(n+h) and the bound is 2N tau(k)
    report = lemma_check("L4", [LemmaGridPoint(1, 6, 1, 3, 100)])
    entry = report.entries[0]
    assert entry.bound == 2 * 100 * 4  # tau(6) = 4
    assert entry.passed


def test_lemma_preconditions():
    with pytest.raises(ValueError):
        lemma_check("L5", [LemmaGridPoint(1, 1, 1, 0, 10)])
    with pytest.raises(ValueError):
        lemma_check("L1", [])
    with pytest.raises(ValueError):
        lemma_check("L1", [LemmaGridPoint(2, 2, 1, 1, 10)])  # L1 has no shift
    with pytest.raises(ValueError):
        lemma_check("L4", [LemmaGridPoint(2, 2, 1, 20, 10)])  # h > N


def test_lemma_bounds_small_grid_all_lemmas():
    grid0 = build_lemma_grid(range(1, 7), range(1, 7), (1, 2), (0,), (50, 200))
    grid_h = build_lemma_grid(range(1, 7), range(1, 7), (1, 2), (0, 2), (50, 200))
    assert lemma_check("L1", grid0).all_pass
    assert lemma_check("L3", grid_h).all_pass
    assert lemma_check("L4", grid_h).all_pass
    rep2 = lemma_check("L2", grid_h)
    assert math.isfinite(rep2.max_normalized)


def test_lemma_report_serialization():
    report = lemma_check("L3", [LemmaGridPoint(2, 3, 1, 1, 100)])
    parsed = json.loads(report.to_json_text())
    assert parsed["lemma"] == "L3"
    assert parsed["grid"][0]["r"] == 2
    assert parsed["grid"][0]["N"] == 100
    assert parsed["max_normalized"] == report.max_normalized
    lines = report.to_csv_text().splitlines()
    assert lines[0] == "r,k,s,h,N,measured,bound,normalized"
    assert len(lines) == 2
