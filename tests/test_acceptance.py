"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Exact identities are asserted with zero tolerance; asymptotic statements are
checked as convergence trends at the stated desk-scale parameters.
"""

import json
import math
import time

import numpy as np

from crlab.asymptotics import (
    corollary_lhs,
    corollary_main,
    lemma_check,
)
from crlab.cli import main as cli_main
from crlab.core_arith import (
    divisors,
    gcd_s,
    jordan_totient,
    klee_phi,
    sigma_ks,
    sigma_real,
    zeta,
)
from crlab.cr_sum import (
    build_table,
    cr_sum_exact,
    cr_sum_exponential,
    ramanujan_sum_oracle,
    orthogonality_value,
)
from crlab.expansion import (
    ExpansionCoefficients,
    evaluate,
    mean_value_coefficients,
    shift_coefficients,
    sigma_expansion,
)

# zeta(3)**2/zeta(6) * (1 + 2**-5), frozen from a 30-digit mpmath evaluation
COROLLARY_CONSTANT = 1.4646929379732306


def values_row(f, n_limit: int) -> np.ndarray:
    """The float64 row f(n) for n <= n_limit, slot 0 unused."""
    return np.array([0.0] + [f(n) for n in range(1, n_limit + 1)])


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_c1_dual_definition_agreement():
    start = time.perf_counter()
    worst = 0.0
    worst_imag = 0.0
    for s in (1, 2, 3):
        table = build_table(30, 200, s)
        for r in range(1, 31):
            for n in range(0, 201):
                approx = cr_sum_exponential(r, n, s)
                worst = max(worst, abs(approx - table.value(r, n)))
                worst_imag = max(worst_imag, abs(approx.imag))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and worst_imag < 1e-9 and elapsed < 60.0
    report(
        "C1 dual-definition",
        ok,
        f"max |exp-exact| {worst:.2e}, max |Im| {worst_imag:.2e}, {elapsed:.1f}s",
    )


def test_c2_orthogonality_exact():
    start = time.perf_counter()
    checked = 0
    exact = True
    for s in (1, 2, 3):
        for r in range(1, 13):
            for d in divisors(r):
                for t in divisors(r):
                    value = orthogonality_value(r, d, t, s)
                    expected = jordan_totient(d, s) if d == t else 0
                    exact = exact and value == expected
                    checked += 1
    elapsed = time.perf_counter() - start
    ok = exact and elapsed < 30.0
    report("C2 orthogonality", ok, f"{checked} (r,d,t,s) tuples exact, {elapsed:.1f}s")


def test_c3_identity_suite():
    start = time.perf_counter()
    ok_zero = all(
        cr_sum_exact(r, 0, s) == jordan_totient(r, s) == klee_phi(r**s, s)
        for s in (1, 2, 3, 4)
        for r in range(1, 201)
    )
    ok_jordan_sum = all(
        sum(jordan_totient(d, s) for d in divisors(n)) == n**s
        for s in (1, 2, 3)
        for n in range(1, 501)
    )
    ok_gcd_lcm = all(
        gcd_s(m**s, n**s, s) * math.lcm(m**s, n**s) == m**s * n**s
        for s in (1, 2, 3)
        for m in range(1, 101)
        for n in range(1, 101)
    )
    ok_hoelder = all(
        cr_sum_exact(r, n, 1) == ramanujan_sum_oracle(r, n)
        for r in range(1, 101)
        for n in range(1, 101)
    )
    ok_bounded = True
    for s in (1, 2, 3):
        table = build_table(100, 200, s)
        for n in range(1, 201):
            bound = sigma_ks(n, 1, s)
            if any(abs(table.value(r, n)) > bound for r in range(1, 101)):
                ok_bounded = False
    elapsed = time.perf_counter() - start
    ok = ok_zero and ok_jordan_sum and ok_gcd_lcm and ok_hoelder and ok_bounded
    report(
        "C3 identity suite",
        ok,
        f"zero-column {ok_zero}, jordan-sum {ok_jordan_sum}, gcd-lcm {ok_gcd_lcm}, "
        f"hoelder {ok_hoelder}, bounded {ok_bounded}, {elapsed:.1f}s",
    )


def test_c4_lemma_bounds():
    start = time.perf_counter()
    r_values = range(1, 11)
    schedule = (100, 500, 2000)
    shifts = (0, 1, 5)

    # one lemma_check call per (s, h)
    shapes = [(s, h) for s in (1, 2) for h in shifts]
    ok_l1 = all(lemma_check("L1", r_values, r_values, s, 0, schedule).all_pass for s in (1, 2))
    ok_l3 = all(lemma_check("L3", r_values, r_values, s, h, schedule).all_pass for s, h in shapes)
    ok_l4 = all(lemma_check("L4", r_values, r_values, s, h, schedule).all_pass for s, h in shapes)

    # L2: the reported max normalized constant per N must be finite and,
    # beyond N = 500, non-increasing within a 2x slack band.
    max_by_n = {}
    for n_limit in schedule:
        max_by_n[n_limit] = max(
            lemma_check("L2", r_values, r_values, s, h, (n_limit,)).max_normalized
            for s, h in shapes
        )
    ok_l2_finite = all(math.isfinite(v) for v in max_by_n.values())
    ok_l2_trend = max_by_n[2000] <= 2.0 * max_by_n[500]
    elapsed = time.perf_counter() - start
    ok = ok_l1 and ok_l3 and ok_l4 and ok_l2_finite and ok_l2_trend and elapsed < 120.0
    report(
        "C4 lemma bounds",
        ok,
        f"L1 {ok_l1}, L3 {ok_l3}, L4 {ok_l4}, "
        f"L2 max-normalized {max_by_n[100]:.4f}/{max_by_n[500]:.4f}/{max_by_n[2000]:.4f} "
        f"at N=100/500/2000, {elapsed:.1f}s",
    )


def test_c5_expansion_convergence():
    start = time.perf_counter()
    max_err = {}
    for r_top in (10**3, 10**4):
        family = sigma_expansion(1, 1, r_top)
        max_err[r_top] = max(
            abs(evaluate(family, n) - sigma_real(n, 1.0) / n) for n in range(1, 51)
        )
    elapsed = time.perf_counter() - start
    ok = max_err[10**4] <= 0.05 and max_err[10**4] < max_err[10**3] and elapsed < 60.0
    report(
        "C5 expansion convergence",
        ok,
        f"max err {max_err[10**3]:.2e} at R=1e3 -> {max_err[10**4]:.2e} at R=1e4, {elapsed:.1f}s",
    )


def test_c6_mean_value_extraction_exact():
    start = time.perf_counter()
    exact = True
    for s in (1, 2):
        for q in range(1, 7):
            f = lambda n: float(cr_sum_exact(q, n, s))
            for r in range(1, 7):
                n_full = math.lcm(q, r) ** s
                for multiple in (1, 2):
                    (value,) = mean_value_coefficients(values_row(f, multiple * n_full), (r,), s)
                    expected = 1.0 if q == r else 0.0
                    exact = exact and value == expected
    elapsed = time.perf_counter() - start
    report("C6 mean-value extraction", exact, f"delta recovery exact for q,r<=6, s<=2, {elapsed:.1f}s")


def test_c7_corollary_trend():
    start = time.perf_counter()
    constant = corollary_main(2.0, 2.0, 1, 2)
    digits_ok = abs(constant - COROLLARY_CONSTANT) / COROLLARY_CONSTANT < 1e-10

    ratios = {}
    for n_limit in (10**3, 10**5):
        ratios[n_limit] = corollary_lhs(2.0, 2.0, 1, 2, n_limit) / (n_limit * constant)
    in_band = 0.9 <= ratios[10**5] <= 1.1
    closer = abs(ratios[10**5] - 1.0) < abs(ratios[10**3] - 1.0)
    elapsed = time.perf_counter() - start
    ok = digits_ok and in_band and closer and elapsed < 120.0
    report(
        "C7 corollary trend",
        ok,
        f"constant {constant:.12g} (10+ digits {digits_ok}), "
        f"ratio {ratios[10**3]:.6f} at N=1e3 -> {ratios[10**5]:.6f} at N=1e5, {elapsed:.1f}s",
    )


def test_c8_shift_transform_check():
    # Build f = sigma(n)/n (s = 1), extract a plain-n family by full-period
    # mean values, and verify the shift transform two ways:
    #   h = 0 must reproduce the family bit for bit;
    #   h in {1, 3}: the shifted family must match a direct mean-value
    #   extraction of n -> f(n+h), within the family's measured truncation
    #   tail (the max residual |evaluate(family, n) - f(n)| on the window).
    start = time.perf_counter()
    f = lambda n: sigma_real(n, 1.0) / n
    r_top = 6
    n_full = math.lcm(*range(1, r_top + 1)) * 336  # 20160, whole periods for r <= 6
    extracted = ExpansionCoefficients(
        s=1,
        argument_mode="plain_n",
        coeffs=mean_value_coefficients(values_row(f, n_full), range(1, r_top + 1), 1),
        provenance="mean_value_extracted",
    )
    window = range(1, 61)
    tail = max(abs(evaluate(extracted, n) - f(n)) for n in window)

    ok_h0 = shift_coefficients(extracted, 0).coeffs.tobytes() == extracted.coeffs.tobytes()

    deviations = {}
    for h in (1, 3):
        shifted = shift_coefficients(extracted, h)
        direct = tuple(
            mean_value_coefficients(values_row(lambda n: f(n + h), n_full), range(1, r_top + 1), 1)
        )
        deviations[h] = max(abs(a - b) for a, b in zip(direct, shifted.coeffs))
    ok_track = all(dev <= tail for dev in deviations.values())
    elapsed = time.perf_counter() - start
    ok = ok_h0 and ok_track
    report(
        "C8 shift check",
        ok,
        f"h=0 exact {ok_h0}; coefficient deviation {deviations[1]:.2e} (h=1), "
        f"{deviations[3]:.2e} (h=3) vs measured tail {tail:.2e}, {elapsed:.1f}s",
    )


def test_c9_determinism(tmp_path):
    start = time.perf_counter()
    # identical configs -> byte-identical files
    pairs = []
    for tag in ("one", "two"):
        t = tmp_path / f"table_{tag}.csv"
        c = tmp_path / f"corr_{tag}.json"
        l = tmp_path / f"lemma_{tag}.json"
        assert cli_main(["table", "--r", "15", "--n", "120", "--s", "2", "--out", str(t)]) == 0
        assert cli_main([
            "correlate", "--a", "2", "--b", "2", "--s", "1", "--h", "2",
            "--N", "100,1000", "--out", str(c),
        ]) == 0
        assert cli_main([
            "lemmas", "--which", "3", "--rmax", "6", "--kmax", "6", "--s", "1",
            "--h", "1", "--N", "100,500", "--out", str(l),
        ]) == 0
        pairs.append((t.read_bytes(), c.read_bytes(), l.read_bytes()))
    ok_reruns = pairs[0] == pairs[1]

    # sanity: the files carry the expected shapes
    parsed = json.loads((tmp_path / "corr_one.json").read_text())
    ok_schema = parsed["theorem"] == "corollary" and len(parsed["records"]) == 2
    elapsed = time.perf_counter() - start
    ok = ok_reruns and ok_schema
    report(
        "C9 determinism",
        ok,
        f"re-runs byte-identical {ok_reruns}, {elapsed:.1f}s",
    )
