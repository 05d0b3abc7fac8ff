"""Tests for the Cohen-Ramanujan sum routes, tables, and identities."""

import cmath
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab.core_arith import divisors, gcd_s, jordan_totient, klee_phi, mobius, sigma_ks
from crlab.cr_sum import (
    EXPONENTIAL_ROUTE_LIMIT,
    CRSumTable,
    ResourceLimitError,
    _grid_dtype,
    build_table,
    cr_sum_exact,
    cr_sum_exponential,
    cr_sum_period_row,
    cr_values_fixed_n,
    orthogonality_value,
    power_free_absorption_check,
    ramanujan_sum_oracle,
    s_reduced_residues,
)


def brute_classical_ramanujan(r: int, n: int) -> int:
    """Classical c_r(n) as the literal exponential sum, summed with cmath."""
    total = 0 + 0j
    for m in range(1, r + 1):
        if math.gcd(m, r) == 1:
            total += cmath.exp(2j * cmath.pi * m * n / r)
    assert abs(total.imag) < 1e-9
    return round(total.real)


# --- exact route -------------------------------------------------------------


def test_cr_sum_exact_examples():
    assert cr_sum_exact(2, 4, 2) == 3
    for n in (0, 1, 5, 17):
        assert cr_sum_exact(1, n, 3) == 1
    assert cr_sum_exact(6, 1, 1) == 1
    assert cr_sum_exact(2, 0, 2) == jordan_totient(2, 2) == 3


def test_cr_sum_exact_validation():
    with pytest.raises(ValueError):
        cr_sum_exact(0, 1, 1)
    with pytest.raises(ValueError):
        cr_sum_exact(2, -1, 1)
    with pytest.raises(ValueError):
        cr_sum_exact(2, 1, 0)


def test_value_at_zero_identity():
    for s in (1, 2, 3, 4):
        for r in range(1, 51):
            assert cr_sum_exact(r, 0, s) == jordan_totient(r, s) == klee_phi(r**s, s)


def test_periodicity():
    for s in (1, 2, 3):
        for r in range(1, 21):
            period = r**s
            for n in range(0, 101):
                assert cr_sum_exact(r, n + period, s) == cr_sum_exact(r, n, s)


def test_boundedness():
    for s in (1, 2, 3):
        for r in range(1, 41):
            for n in range(1, 101):
                assert abs(cr_sum_exact(r, n, s)) <= sigma_ks(n, 1, s)


# --- exponential route -------------------------------------------------------


def test_cr_sum_exponential_examples():
    v = cr_sum_exponential(2, 1, 2)
    assert abs(v - (-1)) < 1e-9
    assert abs(v.imag) < 1e-9
    assert abs(cr_sum_exponential(1, 9, 3) - 1) < 1e-12
    assert abs(cr_sum_exponential(2, 4, 2) - cr_sum_exact(2, 4, 2)) < 1e-9


def test_exponential_route_limit():
    with pytest.raises(ResourceLimitError):
        cr_sum_exponential(EXPONENTIAL_ROUTE_LIMIT + 1, 1, 1)
    with pytest.raises(ResourceLimitError):
        cr_sum_exponential(3000, 5, 3)  # 3000**3 > 1e7


def test_residue_system_matches_gcd_definition():
    for s in (1, 2):
        for r in range(1, 13):
            period = r**s
            expected = {h for h in range(1, period + 1) if gcd_s(h, period, s) == 1}
            assert set(s_reduced_residues(r, s).tolist()) == expected


def test_dual_route_agreement_sample():
    for s in (1, 2, 3):
        for r in (1, 2, 3, 5, 8, 12):
            for n in range(0, 30):
                exact = cr_sum_exact(r, n, s)
                approx = cr_sum_exponential(r, n, s)
                assert abs(approx - exact) < 1e-6
                assert abs(approx.imag) < 1e-9


# --- classical oracle --------------------------------------------------------


def test_ramanujan_oracle_examples():
    assert ramanujan_sum_oracle(6, 1) == mobius(6) == 1
    assert ramanujan_sum_oracle(4, 4) == brute_classical_ramanujan(4, 4) == 2
    for n in (1, 2, 9):
        assert ramanujan_sum_oracle(1, n) == 1


def test_ramanujan_oracle_against_brute_exponential():
    for r in range(1, 25):
        for n in range(1, 25):
            assert ramanujan_sum_oracle(r, n) == brute_classical_ramanujan(r, n)


def test_s1_reduction_to_classical():
    for r in range(1, 41):
        for n in range(1, 41):
            assert cr_sum_exact(r, n, 1) == ramanujan_sum_oracle(r, n)


# --- orthogonality -----------------------------------------------------------


def test_orthogonality_examples():
    assert orthogonality_value(6, 2, 3, 1) == 0
    assert orthogonality_value(2, 2, 2, 2) == klee_phi(4, 2) == 3
    assert orthogonality_value(4, 1, 1, 1) == 1


def test_orthogonality_preconditions():
    with pytest.raises(ValueError):
        orthogonality_value(6, 4, 2, 1)
    with pytest.raises(ValueError):
        orthogonality_value(6, 2, 5, 1)
    # the sum has r**s terms: 2**24 exceeds the budget although each row fits
    with pytest.raises(ResourceLimitError):
        orthogonality_value(2, 1, 1, 24)


def test_orthogonality_grid():
    for s in (1, 2):
        for r in range(1, 11):
            for d in divisors(r):
                for t in divisors(r):
                    expected = jordan_totient(d, s) if d == t else 0
                    assert orthogonality_value(r, d, t, s) == expected


# --- batch tables ------------------------------------------------------------


def test_build_table_examples():
    ones = build_table(1, 5, 2)
    assert ones.values == ((1, 1, 1, 1, 1, 1),)

    table = build_table(10, 100, 1)
    for r in range(1, 11):
        for n in range(0, 101):
            assert table.value(r, n) == cr_sum_exact(r, n, 1)

    col = build_table(5, 0, 2)
    for r in range(1, 6):
        assert col.value(r, 0) == jordan_totient(r, 2)


def test_table_invariants():
    for s in (1, 2):
        table = build_table(12, 60, s)
        for r in range(1, 13):
            assert table.value(r, 0) == jordan_totient(r, s)
        for n in range(0, 61):
            assert table.value(1, n) == 1
        for r in range(1, 13):
            for n in range(1, 61):
                assert abs(table.value(r, n)) <= sigma_ks(n, 1, s)


def test_table_is_immutable_and_validated():
    table = build_table(3, 4, 1)
    assert isinstance(table.values, tuple)
    with pytest.raises(TypeError):
        table.values[0][0] = 99  # tuples reject item assignment
    with pytest.raises(ValueError):
        table.value(4, 0)
    with pytest.raises(ValueError):
        table.value(1, 5)
    with pytest.raises(ValueError):
        CRSumTable(s=1, r_max=2, n_max=4, values=((1,),))


def test_table_memory_budget():
    with pytest.raises(ResourceLimitError):
        build_table(100_000, 10_000, 1)


def test_table_csv_format():
    table = build_table(2, 2, 1)
    assert table.to_csv_text() == (
        "r,n,value\n1,0,1\n1,1,1\n1,2,1\n2,0,1\n2,1,-1\n2,2,1\n"
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=1, max_value=4),
)
def test_build_table_matches_exact(r_max, n_max, s):
    table = build_table(r_max, n_max, s)
    for r in range(1, r_max + 1):
        assert table.row(r) == tuple(cr_sum_exact(r, n, s) for n in range(n_max + 1))


def test_build_table_object_dtype_fallback():
    # 11**17 * 5 < 2**63 <= 12**17 * 5: the two shapes straddle the int64 bound.
    assert _grid_dtype(11, 17) is np.int64
    assert _grid_dtype(12, 17) is object
    for r_max in (11, 12):
        table = build_table(r_max, 40, 17)
        for r in range(1, r_max + 1):
            for n in range(41):
                assert table.value(r, n) == cr_sum_exact(r, n, 17)
    # At s = 18 the values themselves overflow int64.
    assert build_table(12, 0, 18).value(12, 0) == jordan_totient(12, 18) > 2**63


def test_cr_sum_period_row_matches_exact():
    for s in (1, 2, 3):
        for r in (1, 2, 6, 12, 30):
            row = cr_sum_period_row(r, s)
            assert len(row) == r**s
            assert all(type(v) is int for v in row)
            assert row == tuple(cr_sum_exact(r, n, s) for n in range(r**s))
    with pytest.raises(ResourceLimitError):
        cr_sum_period_row(3163, 2)


def test_write_csv_matches_text_export():
    for r_max, n_max, s in ((1, 0, 1), (1, 7, 2), (4, 0, 3), (12, 30, 1), (6, 9, 2)):
        table = build_table(r_max, n_max, s)
        buffer = io.BytesIO()
        table.write_csv(buffer)
        expected = "r,n,value\n" + "".join(
            f"{r},{n},{table.value(r, n)}\n" for r in range(1, r_max + 1) for n in range(n_max + 1)
        )
        assert buffer.getvalue() == table.to_csv_text().encode() == expected.encode()
    assert any(v < 0 for row in build_table(12, 30, 1).values for v in row)


def test_cr_values_fixed_n_matches_exact():
    for s in (1, 2, 3):
        for n in (0, 1, 7, 12, 36, 100):
            values = cr_values_fixed_n(n, s, 60)
            for r in range(1, 61):
                assert values[r] == cr_sum_exact(r, n, s)


# --- power-free absorption ---------------------------------------------------


def first_power_free(s: int, count: int) -> list[int]:
    out = []
    k = 1
    while len(out) < count:
        if all(k % (b**s) for b in range(2, k + 1) if b**s <= k):
            out.append(k)
        k += 1
    return out


def test_absorption_examples():
    assert power_free_absorption_check(3, 2, 3, 2)
    assert power_free_absorption_check(5, 1, 1, 2)
    assert power_free_absorption_check(4, 2, 5, 2)


def test_absorption_grid():
    for s in (2, 3):
        kgrid = first_power_free(s, 5)
        for r in range(1, 21):
            for m in range(1, 6):
                for k in kgrid:
                    assert power_free_absorption_check(r, m, k, s), (r, m, k, s)


def test_absorption_rejects_non_power_free():
    with pytest.raises(ValueError):
        power_free_absorption_check(3, 2, 4, 2)
    with pytest.raises(ValueError):
        power_free_absorption_check(3, 2, 8, 3)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=3),
)
def test_exact_route_periodic_and_bounded(r, n, s):
    value = cr_sum_exact(r, n, s)
    assert value == cr_sum_exact(r, n + r**s, s)
    if n >= 1:
        assert abs(value) <= sigma_ks(n, 1, s)
