"""Tests for expansion families, evaluation, mean values, and shifts."""

import io
import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crlab import cr_sum
from crlab.core_arith import divisors, jordan_totient, sigma_real, tau_s, zeta
from crlab.cr_sum import ResourceLimitError, cr_sum_exact
from crlab.expansion import (
    MAX_SERIES_R,
    ExpansionCoefficients,
    as_plain_n,
    coefficients_from_csv_text,
    evaluate,
    is_period_exact,
    mean_value_coefficients,
    shift_coefficients,
    sigma_expansion,
    tau_weighted_norm,
    write_coefficients_csv,
)


def coefficients_csv(family: ExpansionCoefficients) -> str:
    """The ASCII text that write_coefficients_csv writes for family."""
    buffer = io.BytesIO()
    write_coefficients_csv(buffer, family)
    return buffer.getvalue().decode("ascii")


def brute_phi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def brute_mobius(n: int) -> int:
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


def sigma_over_n(n: int) -> float:
    return sigma_real(n, 1.0) / n


def f_row(f, n_limit: int) -> np.ndarray:
    """The float64 row f(n) for n <= n_limit, slot 0 unused."""
    return np.array([0.0] + [f(n) for n in range(1, n_limit + 1)])


def mean_value(f, r: int, s: int, n_limit: int) -> float:
    return mean_value_coefficients(f_row(f, n_limit), (r,), s)[0]


def c_row(q: int, s: int):
    """n -> c_q^s(n) as a float, from the divisor-sum oracle."""
    return lambda n: float(cr_sum_exact(q, n, s))


# --- closed-form family ------------------------------------------------------


def test_sigma_expansion_coefficient_examples():
    fam = sigma_expansion(1, 1, 5)
    assert abs(fam.coefficient(1) - 1.6449341) < 1e-6
    assert abs(fam.coefficient(2) - 0.4112335) < 1e-6
    fam22 = sigma_expansion(2, 2, 3)
    assert abs(fam22.coefficient(1) - 1.2020569) < 1e-6
    # r**((k + 1) s) on both sides of 2**53 (4**26 = 2**52, then 2**53 itself); past int64 at 63
    for k, s in ((25, 1), (52, 1), (20, 3), (62, 1)):
        z = zeta(k + 1)
        expected = [z / r ** ((k + 1) * s) for r in range(1, 41)]
        assert _hexes(sigma_expansion(k, s, 40).coeffs) == _hexes(expected)


def test_sigma_expansion_structure():
    fam = sigma_expansion(1, 2, 50)
    assert fam.argument_mode == "n_to_s"
    assert fam.r_max == 50
    assert all(c > 0 for c in fam.coeffs)
    assert all(a > b for a, b in zip(fam.coeffs, fam.coeffs[1:]))
    for r in range(1, 51):
        assert fam.coefficient(r) == zeta(2.0) / r**4


def test_family_validation():
    with pytest.raises(ValueError):
        ExpansionCoefficients(s=0, argument_mode="plain_n", coeffs=(1.0,), provenance="x")
    with pytest.raises(ValueError):
        ExpansionCoefficients(s=1, argument_mode="weird", coeffs=(1.0,), provenance="x")
    with pytest.raises(ValueError):
        sigma_expansion(0, 1, 5)


def test_sigma_expansion_held_to_series_budget(monkeypatch):
    assert sigma_expansion(1, 1, MAX_SERIES_R).r_max == MAX_SERIES_R
    monkeypatch.setattr("crlab.expansion.zeta", None)  # nothing is built past the budget
    with pytest.raises(ResourceLimitError):
        sigma_expansion(1, 1, MAX_SERIES_R + 1)


def test_as_plain_n():
    fam = sigma_expansion(1, 1, 4)
    plain = as_plain_n(fam)
    assert plain.argument_mode == "plain_n"
    assert plain.coeffs.tobytes() == fam.coeffs.tobytes()
    with pytest.raises(ValueError):
        as_plain_n(sigma_expansion(1, 2, 4))


def test_coefficients_are_one_read_only_column():
    # every family holds one float64 column; conversions and replace() share it
    fam = sigma_expansion(1, 1, 4)
    assert fam.coeffs.dtype == np.float64 and fam.coeffs.shape == (4,)
    with pytest.raises(ValueError):
        fam.coeffs[0] = 1.0
    for other in (as_plain_n(fam), replace(fam, provenance="y")):
        assert np.shares_memory(other.coeffs, fam.coeffs)
    column = np.array([0.5, 0.25])
    family = ExpansionCoefficients(s=1, argument_mode="plain_n", coeffs=column, provenance="x")
    assert np.shares_memory(family.coeffs, column) and column.flags.writeable
    assert family != replace(family)  # families compare by identity
    means = mean_value_coefficients(f_row(lambda n: 1.0, 16), (1, 2), 2)
    assert means.dtype == np.float64 and not means.flags.writeable


# --- evaluation --------------------------------------------------------------


def test_evaluate_empty_truncation_is_zero():
    empty = ExpansionCoefficients(s=1, argument_mode="plain_n", coeffs=(), provenance="x")
    assert evaluate(empty, 7) == 0.0


def test_evaluate_requires_positive_n():
    fam = sigma_expansion(1, 1, 3)
    with pytest.raises(ValueError):
        evaluate(fam, 0)


def test_evaluate_converges_with_tail_bound():
    # |evaluate(R) - sigma(n)/n| <= zeta(2) * sigma(n) * sum_{r>R} 1/r**2
    for R in (1000, 10000):
        fam = sigma_expansion(1, 1, R)
        tail = zeta(2.0) * (1.0 / R)  # sum_{r>R} r**-2 < 1/R
        for n in range(1, 51):
            err = abs(evaluate(fam, n) - sigma_over_n(n))
            assert err <= tail * sigma_real(n, 1.0), (R, n, err)


def test_evaluate_error_shrinks_with_r():
    errs = {}
    for R in (1000, 10000):
        fam = sigma_expansion(1, 1, R)
        errs[R] = max(abs(evaluate(fam, n) - sigma_over_n(n)) for n in range(1, 21))
    assert errs[10000] < errs[1000]


def test_evaluate_n_to_s_uses_power_argument():
    # The divisor representation gives, for any s,
    #   sum_r c_r^s(n**s) / r**((k+1)s) = sigma_{ks}(n) / (zeta((k+1)s) n**ks),
    # so the zeta(k+1)-weighted family sums to the target scaled by
    # zeta(k+1)/zeta((k+1)s); at s = 1 the scale is 1.
    fam = sigma_expansion(1, 2, 200)
    scale = zeta(2.0) / zeta(4.0)
    for n in (1, 2, 3, 6, 10):
        target = scale * sigma_real(n, 2.0) / n**2
        assert abs(evaluate(fam, n) - target) < 1e-4


def test_evaluate_n_to_s_beyond_factorization_bound():
    # At n = 2**32, n**s = 2**64 is past what factorize accepts; only n is factorized.
    fam = sigma_expansion(1, 2, 10)
    for n in (3, 12, 3**20 * 5, 2**32):
        expected = sum(coef * cr_sum_exact(r, n**2, 2) for r, coef in enumerate(fam.coeffs, start=1))
        assert evaluate(fam, n) == pytest.approx(expected, rel=1e-12)


# Coefficient families for the loop oracles: signed floats, zeros of both signs.
_COEFFS = st.lists(
    st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.sampled_from((0.0, -0.0, 5e-324)),
    ),
    min_size=1,
    max_size=80,
)


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=80, deadline=None)
@given(
    coeffs=_COEFFS,
    s=st.sampled_from((1, 2, 3, 4, 12)),
    n=st.integers(min_value=1, max_value=5000),
    mode=st.sampled_from(("plain_n", "n_to_s")),
)
@example(coeffs=[0.5] * 22, s=12, n=462, mode="n_to_s")  # J_12(21) < 2**53 < J_12(22), both in int64
@example(coeffs=[1.0, -1.0, 0.25], s=53, n=6, mode="n_to_s")  # J_53(2) = 2**53 - 1, past it J_53(3)
def test_evaluate_and_tau_norm_match_scalar_loops_bitwise(coeffs, s, n, mode):
    # the loops the array reductions replaced, on c values from cr_sum_exact and tau from factorize
    family = ExpansionCoefficients(s=s, argument_mode=mode, coeffs=tuple(coeffs), provenance="x")
    arg = n if mode == "plain_n" else n**s
    total = norm = 0.0
    for r, coef in enumerate(coeffs, start=1):
        total += coef * cr_sum_exact(r, arg, s)
        norm += abs(coef) * tau_s(r, 1)
    assert evaluate(family, n).hex() == total.hex()
    assert tau_weighted_norm(family).hex() == norm.hex()


_SIGMA_3000 = sigma_expansion(1, 1, 3000).coeffs


@settings(max_examples=80, deadline=None)
@given(
    coeffs=_COEFFS,
    s=st.sampled_from((1, 2, 3, 4, 9, 12)),
    h=st.one_of(st.integers(min_value=0, max_value=5000), st.sampled_from((720720, 2**40 * 3**9))),
)
@example(coeffs=[1.0] * 67, s=9, h=1)  # float64 division of c_67^9(1) by J_9(67) > 2**53 is off by an ulp
@example(coeffs=list(_SIGMA_3000), s=1, h=0)
@example(coeffs=list(_SIGMA_3000), s=1, h=1)
@example(coeffs=list(_SIGMA_3000), s=1, h=9)
@example(coeffs=list(_SIGMA_3000), s=1, h=10**7)
@example(coeffs=[1.0 / r for r in range(1, 11)], s=20, h=1)  # J_20(r) >= 2**53 from r = 7
@example(coeffs=[1.0 / r for r in range(1, 11)], s=20, h=6**20)
@example(coeffs=list(sigma_expansion(5000, 1, 50).coeffs), s=1, h=10**7)  # 0.0 * -q = -0.0
@example(coeffs=[1.0, -1.0, 0.5], s=53, h=2**53)  # J_53(2) = 2**53 - 1 divides in float64, J_53(3) as a Python int
def test_shift_coefficients_match_scalar_loop_bitwise(coeffs, s, h):
    # the per-r loop of Python int / int that the float64 array division
    # replaced: s = 9, 12 and 20 pass r**s = 2**53, past which a float64
    # division of the two ints would no longer be Python's int / int; a
    # product of -0.0 is written as 0.0, every other product keeps its bits
    family = ExpansionCoefficients(s=s, argument_mode="plain_n", coeffs=tuple(coeffs), provenance="x")
    expected = [
        coef * (cr_sum_exact(r, h, s) / jordan_totient(r, s)) + 0.0
        for r, coef in enumerate(coeffs, start=1)
    ]
    assert _hexes(shift_coefficients(family, h).coeffs) == _hexes(expected)


def test_sigma_expansion_past_the_float_range_underflows_honestly():
    # exp = 512: 3**512 converts to float, 4**512 = 2**1024 does not; the
    # quotient at r = 4 is a subnormal and from r = 5 on it rounds to 0.0
    z = zeta(2.0)
    fam = sigma_expansion(1, 256, 6)
    assert _hexes(fam.coeffs[:3]) == _hexes((z, z / 2**512, z / 3**512))
    with pytest.raises(OverflowError):
        z / 4**512
    assert fam.coeffs[3] == float(Fraction(z) / 4**512) > 0.0
    assert fam.coeffs[3] < 2.0**-1022
    assert fam.coeffs[4:].tolist() == [0.0, 0.0]
    # r**exp is never formed once the quotient must underflow
    assert sigma_expansion(10**12, 1, 1000).coeffs[1:].tolist() == [0.0] * 999


def test_evaluate_terms_past_the_float_range_round_once():
    # c_7^400(7**400) = J_400(7) = 7**400 - 1 is past the float range; the
    # term is the exact product rounded once
    c7 = 7**400 - 1
    tiny = ExpansionCoefficients(s=400, argument_mode="n_to_s", coeffs=(0.0,) * 6 + (1e-300,), provenance="x")
    assert evaluate(tiny, 7) == float(Fraction(1e-300) * c7)
    n = 2**63 - 1  # = 7**2 * 73 * 127 * 337 * 92737 * 649657
    fam = sigma_expansion(1, 400, 50)
    total = 0.0
    for r, coef in enumerate(fam.coeffs, start=1):
        c = cr_sum_exact(r, n**400, 400)
        total += float(Fraction(coef) * c) if abs(c) >= 2**1024 else coef * c
    assert evaluate(fam, n).hex() == total.hex()


# --- mean values -------------------------------------------------------------


def test_mean_value_examples():
    f = c_row(2, 2)
    assert mean_value(f, 2, 2, 16) == 1.0
    assert mean_value(lambda n: 1.0, 2, 2, 16) == 0.0
    for N in (1, 7, 16):
        assert mean_value(lambda n: 1.0, 1, 2, N) == 1.0
    assert mean_value_coefficients(f_row(f, 16), (2, 1, 2), 2).tolist() == [1.0, 0.0, 1.0]
    assert mean_value_coefficients(f_row(f, 16), (), 2).tolist() == []
    for r_values, n_limit in (((0,), 16), ((1, -1), 16), ((1,), 0)):
        with pytest.raises(ValueError):
            mean_value_coefficients(f_row(f, n_limit), r_values, 2)


def test_mean_value_partial_period_matches_exact_oracle():
    # N < r**s (1001**2 is past a million; 30**13 needs object-dtype cells and
    # strides past int64) and N around one period of c_7^2
    f = lambda n: sigma_real(n, 2.0) / float(n) ** 2.0
    cases = ((1001, 2, 2000), (30, 13, 20000), (7, 2, 30), (7, 2, 48), (7, 2, 49), (7, 2, 100))
    for r, s, N in cases:
        total = 0.0
        for n in range(1, N + 1):
            total += f(n) * cr_sum_exact(r, n, s)
        assert mean_value(f, r, s, N) == total / N / jordan_totient(r, s), (r, s, N)


def test_mean_value_row_held_to_table_budget(monkeypatch):
    # the rows cover n = 0..N: one row of 48 cells fits, two rows or a 49th cell do not
    monkeypatch.setattr(cr_sum, "MAX_TABLE_CELLS", 48)
    # c_7^2(n) = -1 for 1 <= n < 49
    assert mean_value(lambda n: 1.0, 7, 2, 47) == -47.0 / 47 / jordan_totient(7, 2)

    def no_sieve(*args):
        raise AssertionError("mean-value row sieved past the cell budget")

    monkeypatch.setattr(cr_sum, "_mobius_terms", no_sieve)
    with pytest.raises(ResourceLimitError):
        mean_value(lambda n: 1.0, 7, 2, 48)
    with pytest.raises(ResourceLimitError):
        mean_value_coefficients(f_row(lambda n: 1.0, 24), (7, 1), 2)


def _oracle_mean_value(f_values, r: int, s: int) -> float:
    """The finite mean value as a plain loop over n with exact c_r^s(n)."""
    n_limit = len(f_values) - 1
    total = 0.0
    for n in range(1, n_limit + 1):
        total += f_values[n] * cr_sum_exact(r, n, s)
    return total / n_limit / jordan_totient(r, s)


@st.composite
def _mean_value_cases(draw):
    """(f_values, r_values, s): N from 1 up, below one period or across whole periods."""
    s = draw(st.sampled_from((1, 1, 2, 3, 13)))
    r_top = 30 if s == 13 else {1: 60, 2: 12, 3: 5}[s]
    r_values = draw(st.lists(st.integers(1, r_top), min_size=1, max_size=4))
    r = r_values[0]
    if s < 13 and draw(st.booleans()):
        n_limit = r**s * draw(st.integers(1, max(1, 400 // r**s)))  # whole periods of r_values[0]
    else:
        n_limit = draw(st.integers(1, 400))
    entries = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, -1.0)),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    f_values = [0.0] + draw(st.lists(entries, min_size=n_limit, max_size=n_limit))
    return f_values, r_values, s


@settings(max_examples=80, deadline=None)
@given(case=_mean_value_cases())
@example(case=([0.0, 1.0, -2.5, 3.0], [1, 2, 3], 53))  # J_53(2) = 2**53 - 1, past it J_53(3)
def test_mean_value_coefficients_match_loop_oracle(case):
    f_values, r_values, s = case
    got = mean_value_coefficients(np.array(f_values), r_values, s)
    expected = [_oracle_mean_value(f_values, r, s) for r in r_values]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_mean_value_object_grid_matches_loop_oracle():
    # J_13(r) <= 30**13, which passes 2**63, so the J_s(r) divisors are Python ints
    assert cr_sum._int_dtype(30, 13) is object
    f_values = [0.0] + [(-1.0) ** n * n / 7 for n in range(1, 301)]
    r_values = (30, 2, 29, 1)
    got = mean_value_coefficients(np.array(f_values), r_values, 13)
    expected = [_oracle_mean_value(f_values, r, 13) for r in r_values]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_mean_value_rows_in_blocks_match_loop_oracle(monkeypatch):
    # 301 cells a row and 700-cell blocks: (2, 20) in int64, (30, 1) in
    # object cells (30**13 * 5 >= 2**63), then 7 alone in int64
    monkeypatch.setattr(cr_sum, "_BLOCK_CELLS", 700)
    f_values = [0.0] + [(-1.0) ** n * n / 7 for n in range(1, 301)]
    r_values = (2, 20, 30, 1, 7)
    got = mean_value_coefficients(np.array(f_values), r_values, 13)
    expected = [_oracle_mean_value(f_values, r, 13) for r in r_values]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


@settings(max_examples=60, deadline=None)
@given(case=_mean_value_cases(), rows_per_block=st.integers(0, 3))
@example(case=([0.0] + [(-1.0) ** n * n / 7 for n in range(1, 301)], [2, 20, 30, 1, 7], 13), rows_per_block=2)
@example(case=([0.0, -0.0, -0.0], [1, 2, 3], 1), rows_per_block=0)
def test_mean_value_blocks_match_per_row_running_sums(case, rows_per_block):
    # several blocks and a last one-row block; 0 rows a block means a budget below one row
    f_values, r_values, s = case
    budget = max(1, rows_per_block * len(f_values))
    with mock.patch.object(cr_sum, "_BLOCK_CELLS", budget):
        got = mean_value_coefficients(np.array(f_values), r_values, s)
    expected = [_oracle_mean_value(f_values, r, s) + 0.0 for r in r_values]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_is_period_exact():
    assert is_period_exact(2, 2, 16)
    assert not is_period_exact(2, 2, 15)
    assert is_period_exact(1, 3, 5)


def test_mean_value_orthogonality_recovery():
    for s in (1, 2):
        for q in range(1, 5):
            f = c_row(q, s)
            for r in range(1, 5):
                n_full = math.lcm(q, r) ** s
                value = mean_value(f, r, s, n_full)
                assert value == (1.0 if q == r else 0.0), (q, r, s)


def test_coefficient_recovery_within_truncation_tail():
    R, N = 300, 3000
    fam = as_plain_n(sigma_expansion(1, 1, R))
    values = [evaluate(fam, n) for n in range(1, N + 1)]
    f = lambda n: values[n - 1]
    tail_bound = zeta(2.0) * sum(1.0 / q**2 for q in range(R + 1, 100_000))
    for r in range(1, 6):
        recovered = mean_value(f, r, 1, N)
        assert abs(recovered - zeta(2.0) / r**2) <= tail_bound, r


# --- shift transform ---------------------------------------------------------


def test_shift_h_zero_is_identity():
    fam = as_plain_n(sigma_expansion(1, 1, 30))
    shifted = shift_coefficients(fam, 0)
    assert shifted.coeffs.tobytes() == fam.coeffs.tobytes()
    assert shifted.provenance == "shifted(h=0)"


def test_shift_r1_entry_never_changes():
    fam = as_plain_n(sigma_expansion(1, 1, 10))
    for h in (0, 1, 4, 9):
        assert shift_coefficients(fam, h).coefficient(1) == fam.coefficient(1)


def test_shift_closed_form_at_h_one():
    # s=1, fhat(r) = zeta(2)/r**2, h=1: ghat(r) = zeta(2) mu(r) / (r**2 phi(r))
    fam = as_plain_n(sigma_expansion(1, 1, 40))
    shifted = shift_coefficients(fam, 1)
    for r in range(1, 41):
        expected = zeta(2.0) / r**2 * (brute_mobius(r) / brute_phi(r))
        assert abs(shifted.coefficient(r) - expected) < 1e-15


def test_shift_requires_plain_mode():
    with pytest.raises(ValueError):
        shift_coefficients(sigma_expansion(1, 2, 10), 1)
    with pytest.raises(ValueError):
        shift_coefficients(as_plain_n(sigma_expansion(1, 1, 10)), -1)


def test_shifted_series_is_absolutely_convergent():
    # Truncations of the shifted series form a Cauchy sequence: the step from
    # R=1000 to R=10000 is within the absolute tail sum of the shifted family.
    for h in (1, 2, 3):
        lo = shift_coefficients(as_plain_n(sigma_expansion(1, 1, 1000)), h)
        hi = shift_coefficients(as_plain_n(sigma_expansion(1, 1, 10000)), h)
        for n in (1, 7, 30):
            step = abs(evaluate(hi, n) - evaluate(lo, n))
            tail = sigma_real(n, 1.0) * sum(abs(c) for c in hi.coeffs[1000:])
            # at n=1 every term of the step is positive and the bound is met
            # with equality, so allow for summation-order rounding
            assert step <= tail * (1.0 + 1e-6) + 1e-15


# --- norms and serialization -------------------------------------------------


def test_tau_weighted_norm_examples():
    zero = ExpansionCoefficients(s=1, argument_mode="plain_n", coeffs=(0.0,) * 8, provenance="x")
    assert tau_weighted_norm(zero) == 0.0

    fam = sigma_expansion(1, 1, 10)
    brute_tau = lambda n: sum(1 for d in range(1, n + 1) if n % d == 0)
    expected = sum(zeta(2.0) * brute_tau(r) / r**2 for r in range(1, 11))
    assert abs(tau_weighted_norm(fam) - expected) < 1e-12

    single = ExpansionCoefficients(
        s=1, argument_mode="plain_n", coeffs=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0), provenance="x"
    )
    assert tau_weighted_norm(single) == 4.0


def test_tau_weighted_norm_matches_factorized_tau_bitwise():
    # oracle: tau_s(r, 1) from factorize, added in ascending r
    signs = ExpansionCoefficients(
        s=1,
        argument_mode="plain_n",
        coeffs=tuple((-1.0) ** r * math.sqrt(r) / 7.0 for r in range(1, 2501)),
        provenance="x",
    )
    for family in (sigma_expansion(1, 1, 3000), sigma_expansion(2, 2, 1), signs):
        expected = 0.0
        for r, coef in enumerate(family.coeffs, start=1):
            expected += abs(coef) * tau_s(r, 1)
        assert tau_weighted_norm(family).hex() == expected.hex()
    empty = ExpansionCoefficients(s=1, argument_mode="plain_n", coeffs=(), provenance="x")
    assert tau_weighted_norm(empty) == 0.0
    assert shift_coefficients(empty, 9).coeffs.shape == (0,)
    assert coefficients_csv(empty) == "r,coefficient\n"  # the header only


def test_csv_roundtrip_preserves_bits():
    fam = sigma_expansion(2, 2, 25)
    text = coefficients_csv(fam)
    assert text.startswith("r,coefficient\n1,")
    back = coefficients_from_csv_text(text, s=2, argument_mode="n_to_s")
    assert back.coeffs.tobytes() == fam.coeffs.tobytes()


def test_csv_rejects_bad_input():
    with pytest.raises(ValueError):
        coefficients_from_csv_text("oops\n1,2\n", 1, "plain_n")
    with pytest.raises(ValueError):
        coefficients_from_csv_text("r,coefficient\n2,0.5\n", 1, "plain_n")
