"""Tests for the Cohen-Ramanujan sum routes, tables, and identities."""

import cmath
import io
import math
import operator
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crlab import cr_sum
from crlab.cli import main as cli_main
from crlab.core_arith import divisors, gcd_s, jordan_totient, klee_phi, mobius, sigma_ks
from crlab.cr_sum import (
    EXPONENTIAL_ROUTE_LIMIT,
    CRSumTable,
    ResourceLimitError,
    _int_dtype,
    build_table,
    cr_sum_exact,
    cr_sum_exponential,
    orthogonality_grid,
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


def text_written(write) -> str:
    """The ASCII text that write(handle) writes to a binary handle."""
    buffer = io.BytesIO()
    write(buffer)
    return buffer.getvalue().decode("ascii")


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


def test_exponential_route_keeps_no_residue_system():
    # a residue system near the route limit is an int64 array of up to 10**7 entries;
    # none may outlive the call that sieved it
    tracemalloc.start()
    try:
        for r in (999983, 999979, 999961):
            cr_sum_exponential(r, 1, 1)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 2**20


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


def _sympy_jordan(d: int, s: int) -> int:
    out = 1
    for p, e in sympy.factorint(d).items():
        out *= int(p) ** (s * e) - int(p) ** (s * (e - 1))
    return out


def test_orthogonality_grid_matches_pairs_and_sympy():
    for r, s in [(r, s) for s in (1, 2) for r in range(1, 25)] + [(2520, 1), (12, 3)]:
        grid = orthogonality_grid(r, s)
        divs = [int(d) for d in sympy.divisors(r)]
        assert [(d, t) for d, t, _ in grid] == [(d, t) for d in divs for t in divs]
        for d, t, value in grid:
            if d != t:
                assert value == 0
            elif s == 1:
                assert value == int(sympy.totient(d))
            else:
                assert value == _sympy_jordan(d, s)
            if r <= 24 or d * t % 7 == 0:
                assert value == orthogonality_value(r, d, t, s)


def _spy_int_dtype(monkeypatch) -> list:
    """Record each dtype that cr_sum._int_dtype returns."""
    dtypes = []
    int_dtype = cr_sum._int_dtype

    def spy(*args):
        dtypes.append(int_dtype(*args))
        return dtypes[-1]

    monkeypatch.setattr(cr_sum, "_int_dtype", spy)
    return dtypes


def test_orthogonality_object_dtype_path(monkeypatch):
    expected = orthogonality_grid(12, 2)
    monkeypatch.setattr(cr_sum, "_INT64_LIMIT", 1)
    dtypes = _spy_int_dtype(monkeypatch)
    assert orthogonality_grid(12, 2) == expected
    assert orthogonality_value(12, 4, 4, 2) == jordan_totient(4, 2)
    assert dtypes and all(dtype is object for dtype in dtypes)


def test_orthogonality_multiplies_in_int64_below_the_cauchy_schwarz_bound(monkeypatch):
    # every partial Mobius difference is at most tau(r)**2 r**s = 15**2 * 144**3 < 2**63
    dtypes = _spy_int_dtype(monkeypatch)
    assert orthogonality_value(144, 72, 72, 3) == jordan_totient(72, 3) == 314496
    assert dtypes == [np.int64]


@pytest.mark.parametrize(
    "base, s, factor, dtype",
    [
        (11, 17, 5, np.int64),  # exact columns at s = 17: 11**17 * 5 < 2**63 <= 12**17 * 5
        (12, 17, 5, object),
        (144, 6, 1, np.int64),  # 144**6 < 2**63 <= 144**9
        (144, 9, 1, object),
        (3037000499, 2, 1, np.int64),  # L3's sum**2 <= (N rk**s)**2; 3037000499 = isqrt(2**63 - 1)
        (3037000500, 2, 1, object),
        (2, 60, 1, np.int64),
        (2, 64, 1, object),
        (3037, 2, 10**12, np.int64),  # the same at N = 10**6
        (3038, 2, 10**12, object),
        (922337203, 1, 10**10, np.int64),  # L3's N (N+h) rk**s taus**2 at taus = 10**5
        (922337204, 1, 10**10, object),
        (2, 62, 1, np.int64),  # 2**62 < 2**63
        (2, 62, 2, object),  # 2 * 2**62 = 2**63
        (1, 1, 2**63 - 1, np.int64),
        (1, 1, 2**63, object),
        (1, 62, 1, np.int64),
        (1, 63, 1, object),  # numpy's int64 ** takes no exponent of 2**63 or more
        (1, 2**63, 1, object),
    ],
)
def test_int_dtype_edges(base, s, factor, dtype):
    assert _int_dtype(base, s, factor) is dtype


def test_orthogonality_grid_budgets(monkeypatch):
    def no_work(*args):
        raise AssertionError("divisors worked on for an over-budget grid")

    monkeypatch.setattr(cr_sum, "factorize", no_work)
    with pytest.raises(ResourceLimitError):
        orthogonality_grid(2, 24)  # r**s = 2**24 > EXPONENTIAL_ROUTE_LIMIT
    with pytest.raises(ValueError):
        orthogonality_grid(0, 1)


def test_orthogonality_grid_past_the_old_period_rows(monkeypatch):
    # tau(720720) = 240 period rows of 720721 cells each would be 1.7 * 10**8 cells;
    # the divisor route holds 240**2 gcd powers and builds no row
    def no_rows(*args):
        raise AssertionError("a c-row was sieved for orthogonality")

    monkeypatch.setattr(cr_sum, "_sieve_rows", no_rows)
    monkeypatch.setattr(cr_sum, "_mobius_terms", no_rows)
    start = time.perf_counter()
    grid = orthogonality_grid(720720, 1)
    assert time.perf_counter() - start < 1.0
    divs = [int(d) for d in sympy.divisors(720720)]
    assert [(d, t) for d, t, _ in grid] == [(d, t) for d in divs for t in divs]
    expected = [int(sympy.totient(d)) if d == t else 0 for d in divs for t in divs]
    assert [value for _, _, value in grid] == expected
    assert all(isinstance(value, Fraction) for _, _, value in grid)


# --- batch tables ------------------------------------------------------------


def test_build_table_examples():
    ones = build_table(1, 5, 2)
    assert ones.values.tolist() == [[1, 1, 1, 1, 1, 1]]

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
    assert isinstance(table.values, np.ndarray) and table.values.dtype == np.int64
    with pytest.raises(ValueError):
        table.values[0][0] = 99  # a read-only ndarray rejects item assignment
    with pytest.raises(ValueError):
        table.values[0, 0] = 99
    assert type(table.value(3, 4)) is int
    assert table.row(2) == (1, -1, 1, -1, 1) and all(type(v) is int for v in table.row(2))
    # the caller's array keeps its own flags
    grid = np.ones((2, 3), dtype=np.int64)
    assert not CRSumTable(s=1, r_max=2, n_max=2, values=grid).values.flags.writeable
    assert grid.flags.writeable
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
    assert text_written(table.write_csv) == (
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
    # tables on both sides of the exact-column int64 edge at s = 17 (test_int_dtype_edges)
    for r_max in (11, 12):
        table = build_table(r_max, 40, 17)
        for r in range(1, r_max + 1):
            for n in range(41):
                assert table.value(r, n) == cr_sum_exact(r, n, 17)
    # At s = 18 the values themselves overflow int64.
    assert build_table(12, 0, 18).value(12, 0) == jordan_totient(12, 18) > 2**63


@pytest.mark.parametrize("r_max, n_max, s", [(2, 1, 20000), (3, 1, 3 * 10**8)])
def test_build_table_holds_the_digit_budget(monkeypatch, r_max, n_max, s):
    # J_s(r) near 2**20000 or 3**(3 * 10**8) cannot be printed: refused before any row is built
    def no_rows(*args, **kwargs):
        raise AssertionError("rows built past the digit budget")

    monkeypatch.setattr(cr_sum, "_table_rows", no_rows)
    with pytest.raises(ResourceLimitError, match="int-to-str limit"):
        build_table(r_max, n_max, s)


def test_sieve_row_over_one_period_matches_exact():
    # table and period rows, column 0 = J_s(r) included; sieved rows leave column 0 at 0
    for s in (1, 2, 3):
        for r in (1, 2, 6, 12, 30):
            row = cr_sum._table_rows((r,), r**s - 1, s)[0].tolist()
            assert len(row) == r**s
            assert all(type(v) is int for v in row)
            assert row == [cr_sum_exact(r, n, s) for n in range(r**s)]
            assert build_table(r, r**s - 1, s).row(r) == tuple(row)
            sieved = cr_sum._sieve_rows((r,), r**s - 1, s)
            assert sieved.dtype == np.int64
            assert sieved[0].tolist() == [0] + row[1:]


def test_sieve_rows_without_column_zero_never_form_a_huge_power():
    # at s = 10**7 only d = 1 has d**s <= 50, so c_r^s(n) = mu(r) for 1 <= n <= 50;
    # c_r^s(0) = J_s(r) would have millions of digits and is left out. Forming
    # 30**(10**7) alone takes seconds; the sieve returns at once.
    start = time.perf_counter()
    rows = cr_sum._sieve_rows((30, 7, 4, 1), 50, 10**7)
    assert time.perf_counter() - start < 1.0
    assert rows.dtype == np.int64
    assert rows.tolist() == [[0] + [mu] * 50 for mu in (-1, -1, 0, 1)]


def test_sieve_rows_without_column_zero_are_int64():
    # n >= 1 values are sums of distinct divisors d**s of n, at most sigma(n),
    # so sieved rows stay int64 where a table over the same r and s is object
    assert cr_sum._sieve_rows((2,), 100, 62).dtype == np.int64
    r_values, n_max, s = (210, 2**16, 10**5, 1), 2500, 4
    assert _int_dtype(max(r_values), s) is object
    rows = cr_sum._sieve_rows(r_values, n_max, s)
    assert rows.dtype == np.int64
    for r, row in zip(r_values, rows.tolist()):
        assert row == [0] + [cr_sum_exact(r, n, s) for n in range(1, n_max + 1)], r
    table_rows = cr_sum._table_rows(r_values, n_max, s)
    assert table_rows.dtype == object
    assert table_rows[:, 0].tolist() == [jordan_totient(r, s) for r in r_values]
    assert table_rows[:, 1:].tolist() == rows[:, 1:].tolist()


def test_sieve_rows_cost_follows_the_rows_asked_for(monkeypatch):
    # each row's terms come from factorize(r), so no Mobius table up to the
    # largest r is built and a large or prime r costs 2**omega(r) strides
    def no_table(limit):
        raise AssertionError(f"_mobius_row({limit}) built for a few asked rows")

    monkeypatch.setattr(cr_sum, "_mobius_row", no_table)
    # unsorted, with a repeat: row i belongs to r_values[i]
    r_values = [10**9 + 7, 1, 2**20, 2 * 3 * 5 * 7 * 11 * 13, 10**6, 2 * 3 * 5 * 7 * 11 * 13]
    for r in set(r_values):
        expected = {(int(d), int(sympy.mobius(r // d))) for d in sympy.divisors(r)}
        assert set(cr_sum._mobius_terms(r)) == {(d, m) for d, m in expected if m}
    n_max = 1200
    for s in (1, 2):
        rows = cr_sum._table_rows(r_values, n_max, s)
        assert rows.shape == (len(r_values), n_max + 1)
        for r, row in zip(r_values, rows.tolist()):
            assert row == [cr_sum_exact(r, n, s) for n in range(n_max + 1)], (r, s)
        assert cr_sum._sieve_rows(r_values, n_max, s)[:, 1:].tolist() == rows[:, 1:].tolist()


def test_write_csv_matches_text_export():
    for r_max, n_max, s in ((1, 0, 1), (1, 7, 2), (4, 0, 3), (12, 30, 1), (6, 9, 2)):
        table = build_table(r_max, n_max, s)
        buffer = io.BytesIO()
        table.write_csv(buffer)
        expected = "r,n,value\n" + "".join(
            f"{r},{n},{table.value(r, n)}\n" for r in range(1, r_max + 1) for n in range(n_max + 1)
        )
        assert buffer.getvalue() == expected.encode()
    assert any(v < 0 for row in build_table(12, 30, 1).values for v in row)


@pytest.mark.parametrize(
    "r_max, n_max, s, block",
    [
        (7, 1, 2, 6),  # three rows a block, then a single row
        (5, 3, 1, 4),  # one row fills a block exactly
        (4, 9, 3, 5),  # a row longer than a block still makes a block
        (16, 4, 17, 15),  # s = 17: int64 blocks, then object blocks once J_17(r) >= 2**63 (r >= 14)
    ],
)
def test_streamed_table_crosses_block_boundaries(tmp_path, monkeypatch, r_max, n_max, s, block):
    expected = "r,n,value\n" + "".join(
        f"{r},{n},{cr_sum_exact(r, n, s)}\n" for r in range(1, r_max + 1) for n in range(n_max + 1)
    )
    written = io.BytesIO()
    build_table(r_max, n_max, s).write_csv(written)
    monkeypatch.setattr(cr_sum, "_BLOCK_CELLS", block)
    blocks = []
    table_rows = cr_sum._table_rows

    def spy(r_values, n, s):
        blocks.append(table_rows(r_values, n, s))
        return blocks[-1]

    monkeypatch.setattr(cr_sum, "_table_rows", spy)
    streamed = io.BytesIO()
    cr_sum._stream_table_csv(streamed, r_max, n_max, s)
    assert streamed.getvalue() == written.getvalue() == expected.encode()
    assert len(blocks) > 1 and sum(len(b) for b in blocks) == r_max
    path = tmp_path / "t.csv"
    assert cli_main(["table", "--r", str(r_max), "--n", str(n_max), "--s", str(s), "--out", str(path)]) == 0
    assert path.read_bytes() == streamed.getvalue()
    assert len(blocks[-1]) == 1
    if s == 17:
        assert {b.dtype for b in blocks} == {np.dtype(np.int64), np.dtype(object)}


class _ByteCounter:
    """A binary sink that keeps only the number of bytes written."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, data: bytes) -> None:
        self.size += len(data)


def _streaming_peak(r_max: int, n_max: int, s: int) -> tuple[int, int]:
    """(tracemalloc peak bytes, CSV bytes) of streaming one table into a byte counter."""
    sink = _ByteCounter()
    tracemalloc.start()
    try:
        cr_sum._stream_table_csv(sink, r_max, n_max, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, sink.size


def test_streamed_table_memory_is_one_block():
    # tracemalloc tracks numpy buffers, so the peak counts the sieved block
    block_bytes = cr_sum._BLOCK_CELLS * 8
    small, small_size = _streaming_peak(30, 20000, 2)
    large, large_size = _streaming_peak(300, 20000, 2)
    assert large_size > 60 * 10**6 and large_size > 9 * small_size
    assert abs(large - small) < block_bytes
    assert max(small, large) < 3 * block_bytes


def test_tall_table_keeps_no_state_per_r():
    # 2**16 + 1 rows of one column in one block, more r than a cache of 2**16
    # entries would hold: each r is factorized for its row and nothing per r
    # outlives the table, so the peak stays near the block and nothing is held
    tracemalloc.start()
    try:
        cr_sum._stream_table_csv(_ByteCounter(), 2**16 + 1, 0, 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cr_sum._BLOCK_CELLS * 8
    assert held < 2**20


def test_streamed_wide_row_memory_is_the_row_and_one_tile():
    # a single row wider than a block is held as int64 once; its text goes
    # out one n-window at a time, so nothing else grows with the row
    for n_max in (2**21 - 1, 2**22 - 1):
        peak, size = _streaming_peak(1, n_max, 1)
        assert size > 11 * (n_max + 1)
        assert peak - 8 * (n_max + 1) < cr_sum._BLOCK_CELLS * 8


# 0, +-(10**k - 1), +-10**k and +-(2**63 - 1): every digit width and sign at its edges
_EDGE_VALUES = [0, 2**63 - 1, -(2**63 - 1)] + [
    v for k in range(1, 19) for v in (10**k - 1, 10**k, 1 - 10**k, -(10**k))
]


@st.composite
def _csv_blocks(draw):
    rows = draw(st.sampled_from((1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001)))
    n_max = draw(st.integers(min_value=0, max_value=3000 // rows - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = (rows, n_max + 1)
    spread = draw(st.sampled_from(("mixed", "one chunk", "999 and 1000")))
    if spread == "one chunk":  # every tile takes its values from one lookup
        grid = rng.integers(-999, 1000, size=shape)
    elif spread == "999 and 1000":  # tiles of one chunk and of two, side by side
        grid = rng.choice([0, 1, -1, 999, -999, 1000, -1000], size=shape)
    else:
        pick = rng.integers(0, 3, size=shape)
        grid = np.select(
            [pick == 0, pick == 1],
            [rng.choice(_EDGE_VALUES, size=shape), rng.integers(-999, 1000, size=shape)],
            rng.integers(-(2**63) + 1, 2**63, size=shape),
        )
    # cuts change the tile shape partway: r labels crossing 999 -> 1000, short last tiles
    cuts = sorted(draw(st.lists(st.integers(min_value=1, max_value=rows), max_size=3)))
    blocks = np.split(grid, cuts)
    for i, block in enumerate(blocks):
        if draw(st.booleans()):  # an object block, as past int64, with Python ints beyond it
            blocks[i] = block.astype(object) * draw(st.sampled_from((1, 10**20)))
    tile = draw(st.sampled_from((1, 5, 64, 2**16)))
    # a budget of 1 cell builds the ",n," labels of a wide row per window
    budget = draw(st.sampled_from((1, cr_sum._BLOCK_CELLS)))
    return blocks, n_max, tile, budget


@settings(max_examples=100, deadline=None)
@given(case=_csv_blocks())
@example(case=([np.arange(-500, 501, dtype=np.int64).reshape(1001, 1)], 0, 2**16, 2**20))  # r to 1001 in one tile
@example(case=([np.full((1, 2000), -(2**63 - 1), dtype=np.int64)], 1999, 64, 2**20))  # a row of 32 tiles
@example(case=([np.zeros((3, 5), dtype=np.int64), np.ones((2, 5), dtype=object) * 10**30], 4, 7, 2**20))
@example(case=([np.arange(-999, 1001, dtype=np.int64).reshape(40, 50)], 49, 8, 2**20))  # windows over rows
@example(case=([np.arange(-999, 1001, dtype=np.int64).reshape(40, 50)], 49, 8, 1))
@example(case=([np.full((4, 3), 1000), np.full((5, 3), -999)], 2, 2, 2**20))  # wide tiles, then small
@example(case=([np.array([[10**6, 0, 1], [-2, 3, -(10**6)]])], 2, 2**16, 2**20))  # wide at both tile ends
@example(case=([np.arange(1000, 1300, dtype=np.int64).reshape(300, 1) * -1], 0, 64, 2**20))  # column 0 of --n 0
@example(case=([np.array([[999, 1000, -1000, -999, 2**63 - 1, -(2**63 - 1), 1000, 999, -999]])], 8, 4, 2**20))
@example(case=([cr_sum._table_rows(range(1, 21), 4, 17)], 4, 16, 2**20))  # past int64 in column 0 only
@example(case=([np.arange(-999, 1001).reshape(40, 50).astype(object)], 49, 64, 2**20))  # small object values
def test_write_csv_matches_fstring_oracle(case):
    blocks, n_max, tile, budget = case
    expected = "r,n,value\n" + "".join(
        f"{r},{n},{v}\n"
        for r, row in enumerate((row for block in blocks for row in block.tolist()), start=1)
        for n, v in enumerate(row)
    )
    written = io.BytesIO()
    with mock.patch.object(cr_sum, "_TILE_CELLS", tile):
        with mock.patch.object(cr_sum, "_BLOCK_CELLS", budget):
            cr_sum._write_csv(written, blocks, n_max)
    assert written.getvalue() == expected.encode()


@pytest.mark.parametrize(
    "r_max, n_max, tile, budget, builds",
    [
        (50, 30, 2**15, 2**20, 1),  # rows narrower than a tile
        (5, 29, 8, 2**20, 1),  # four windows a row, labels within the budget
        (5, 29, 8, 1, 4 * 5),  # past the budget: one build per window of each row
    ],
)
def test_table_n_labels_are_built_once_per_table(monkeypatch, r_max, n_max, tile, budget, builds):
    table = build_table(r_max, n_max, 1)
    expected = text_written(table.write_csv).encode()
    monkeypatch.setattr(cr_sum, "_TILE_CELLS", tile)
    monkeypatch.setattr(cr_sum, "_BLOCK_CELLS", budget)
    leads = []
    label_words = cr_sum._label_words

    def spy(*args):
        leads.append(args[-2])
        return label_words(*args)

    monkeypatch.setattr(cr_sum, "_label_words", spy)
    written = io.BytesIO()
    cr_sum._write_csv(written, [table.values], n_max)
    assert written.getvalue() == expected
    assert leads.count(b",") == builds
    # ",n," labels take the fewest words their text needs: ",19998," two
    assert label_words(0, 19999, b",", b",").shape == (19999, 2)


def test_cr_values_fixed_n_matches_exact():
    for s in (1, 2, 3):
        for n in (0, 1, 7, 12, 36, 100):
            values = cr_sum._cr_column(n, s, 60).tolist()
            for r in range(1, 61):
                assert values[r] == cr_sum_exact(r, n, s)


@st.composite
def fixed_n_cases(draw):
    """(n, s, r_max) with n = 0 or n = m**s * k, so the root part is m, which
    often has divisors above r_max: k < 2**s is s-th power free. n stays
    below 2**62, in the factorize domain. s = 17 and 30 put r_max >= 12 and
    r_max >= 5 on the object path, where r_max**s * (bits + 1) >= 2**63."""
    s = draw(st.sampled_from((1, 2, 3, 4, 17, 30)))
    r_max = draw(st.integers(min_value=1, max_value=60))
    m = draw(st.integers(min_value=1, max_value=min(10**4, 2 ** (60 // s))))
    k = draw(st.integers(min_value=1, max_value=min(2**s - 1, 2**62 // m**s)))
    n = draw(st.sampled_from((0, m**s * k)))
    return n, s, r_max


@settings(max_examples=150, deadline=None)
@given(fixed_n_cases())
@example((0, 1, 1))
@example((5, 3, 1))
@example((231**4 * 5, 4, 60))  # the root part 231 has divisors 77 and 231 above r_max
@example((0, 17, 60))
@example((6**17 * 5, 17, 40))
def test_cr_values_fixed_n_sieve_matches_exact(case):
    n, s, r_max = case
    column = cr_sum._cr_column(n, s, r_max)
    values = column.tolist()
    assert values == [0] + [cr_sum_exact(r, n, s) for r in range(1, r_max + 1)]
    assert all(type(v) is int for v in values)
    assert column.dtype == _int_dtype(r_max, s, r_max.bit_length() + 1)


def test_exact_column_budget(monkeypatch):
    # an exact column over r holds r_max + 1 values; it is refused before it is built
    with pytest.raises(ResourceLimitError, match="exact column of 1000000000 values"):
        cr_sum._cr_column(1, 1, 10**9)
    monkeypatch.setattr(cr_sum, "MAX_TABLE_CELLS", 50)
    assert len(cr_sum._cr_column(1, 1, 50)) == 51
    with pytest.raises(ResourceLimitError, match="exact column of 51 values"):
        cr_sum._cr_column(0, 1, 51)


def test_cr_values_object_column_holds_values_past_int64():
    column = cr_sum._cr_values_at_root(0, 30, 12)
    assert column.dtype == object
    assert column.tolist() == [0] + [jordan_totient(r, 30) for r in range(1, 13)]
    assert column[12] > 2**63


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5000))
@example(1)
@example(4)
@example(3481)  # 59**2: the last prime of the isqrt split, squared
def test_mobius_row_matches_pointwise_mobius(limit):
    mu = cr_sum._mobius_row(limit)
    assert mu.dtype == np.int64
    assert mu.tolist() == [0] + [mobius(n) for n in range(1, limit + 1)]


def test_mobius_row_matches_sympy():
    assert cr_sum._mobius_row(3000).tolist() == [0] + [int(sympy.mobius(n)) for n in range(1, 3001)]


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


# --- Python's float bits for columns of exact ints ------------------------------

# near 0, at the 2**53 edge of the exact float64 ints and the int64 edge, and past 2**1024
_EDGE_INTS = st.one_of(
    st.integers(-1000, 1000),
    st.sampled_from((2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1)),
    st.integers(-(2**63) + 1, 2**63 - 1),
    st.integers(2**1024, 2**1100),
).flatmap(lambda v: st.sampled_from((v, -v)))


def _int_array(values, as_object):
    """values as int64, or as Python ints in an object array when asked or when one is past int64."""
    if as_object or any(abs(v) >= 2**63 for v in values):
        return np.array(values, dtype=object)
    return np.array(values, dtype=np.int64)


def _python_or_exact(op, a, b):
    """Python's a * b or a / b; only where Python raises OverflowError, the exact value rounded once."""
    try:
        return op(a, b)
    except OverflowError:
        return float(op(Fraction(a), b))


@st.composite
def _op_cases(draw):
    """(op, x, n, as_object): floats times ints, or floats or ints (numerators of / only) over nonzero ints."""
    op = draw(st.sampled_from((operator.mul, operator.truediv)))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    numerators = _EDGE_INTS if op is operator.truediv and draw(st.booleans()) else floats
    x = draw(st.lists(numerators, min_size=1, max_size=12))
    ints = _EDGE_INTS.filter(bool) if op is operator.truediv else _EDGE_INTS
    n = draw(st.lists(ints, min_size=len(x), max_size=len(x)))
    return op, x, n, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_op_cases())
@example((operator.truediv, [2**53 - 1, 2**53 + 1, -(2**53), 0, -7, 2**63 - 1], [2**53 + 1, 2**53 - 1, 3, 5, 2**63 - 1, 3], False))
@example((operator.mul, [-0.0, 1.5, -3.0, -2.5, 1e-300], [7, 0, 0, 2**53 + 1, 2**1100], False))
@example((operator.truediv, [1.0, -1.0, 5e-324, -0.0, 1e-300], [2**1060, 2**1100, 3, 5, -(2**1024)], True))
def test_python_op_matches_pythons_operators(case):
    op, xs, ns, as_object = case
    x = np.array(xs) if type(xs[0]) is float else _int_array(xs, as_object)
    n = _int_array(ns, as_object)
    try:
        expected = [_python_or_exact(op, a, b) for a, b in zip(xs, ns)]
    except OverflowError:  # a result past the float range: Python refuses it, and so does the column
        with pytest.raises(OverflowError):
            cr_sum._python_op(op, x, n)
        return
    with np.errstate(over="ignore"):  # Python's float * int also overflows to inf
        got = cr_sum._python_op(op, x, n)
    assert got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]
