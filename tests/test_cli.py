"""CLI behavior: outputs, formats, exit codes, and determinism."""

import contextlib
import io
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from crlab import asymptotics, cr_sum
from crlab.asymptotics import MAX_SIGMA_LIMIT
from crlab.cli import EXIT_ASSERTION, EXIT_IO, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main, parse_schedule
from crlab.core_arith import jordan_totient, sigma_real, zeta
from crlab.cr_sum import cr_sum_exact
from crlab.expansion import MAX_SERIES_R


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- schedule parsing --------------------------------------------------------


def test_parse_schedule():
    assert parse_schedule("10") == (10,)
    assert parse_schedule("1,5,10") == (1, 5, 10)
    for bad in ("", "5,2", "3,3", "0", "a,b"):
        with pytest.raises(ValueError):
            parse_schedule(bad)


# --- crsum -------------------------------------------------------------------


def test_crsum_exact(capsys):
    code, out, _ = run_cli(capsys, "crsum", "--r", "2", "--n", "4", "--s", "2")
    assert code == EXIT_OK
    assert out == "3\n"


def test_crsum_trivial(capsys):
    code, out, _ = run_cli(capsys, "crsum", "--r", "1", "--n", "9", "--s", "3")
    assert code == EXIT_OK
    assert out == "1\n"


def test_crsum_both_modes(capsys):
    code, out, _ = run_cli(capsys, "crsum", "--r", "2", "--n", "1", "--s", "2", "--method", "both")
    assert code == EXIT_OK
    assert out == "-1 / -1.000000\n"


def test_crsum_both_mismatch_exits_one(capsys, monkeypatch):
    # the exponential route disagreeing with the exact one is a failed check, not a crash
    monkeypatch.setattr(cr_sum, "cr_sum_exponential", lambda r, n, s: complex(0.5, 0.0))
    code, out, err = run_cli(capsys, "crsum", "--r", "2", "--n", "1", "--s", "2", "--method", "both")
    assert code == EXIT_ASSERTION
    assert out == "-1 / 0.500000\n"
    assert "mismatch" in err


def test_crsum_usage_errors(capsys):
    code, _, err = run_cli(capsys, "crsum", "--r", "0", "--n", "1", "--s", "1")
    assert code == EXIT_USAGE
    assert "error" in err
    with pytest.raises(SystemExit) as excinfo:
        main(["crsum", "--r", "2", "--n", "1"])  # missing --s
    assert excinfo.value.code == 2


def test_crsum_resource_error(capsys):
    code, _, err = run_cli(capsys, "crsum", "--r", "4000", "--n", "1", "--s", "3", "--method", "exponential")
    assert code == EXIT_RESOURCE
    assert "resource" in err


# --- table -------------------------------------------------------------------


def test_table_output_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _, _ = run_cli(capsys, "table", "--r", "10", "--n", "50", "--s", "2", "--out", str(out1))
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "table", "--r", "10", "--n", "50", "--s", "2", "--out", str(out2))
    assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header, first = out1.read_text().splitlines()[:2]
    assert header == "r,n,value"
    assert first == "1,0,1"


_CORRELATE = ["correlate", "--a", "2", "--b", "2", "--s", "1", "--h", "2", "--N", "10,100,1000"]
_LEMMAS = ["lemmas", "--which", "3", "--rmax", "5", "--kmax", "4", "--s", "2", "--h", "1", "--N", "10,20"]


@pytest.mark.parametrize(
    "argv, head",
    [
        (["table", "--r", "9", "--n", "33", "--s", "2"], b"r,n,value\n1,0,1\n"),
        (["orthogonality", "--r", "12", "--s", "2"], b"d,t,value\n1,1,1\n"),
        (["expand", "--k", "1", "--s", "1", "--R", "30"], b"r,coefficient\n1,"),
        (["shift", "--k", "1", "--R", "30", "--h", "4"], b"r,coefficient\n1,"),
        (["meanvalue", "--k", "2", "--s", "1", "--N", "600", "--R", "9"], b"r,coefficient\n1,"),
        (_CORRELATE, b'{"theorem":"corollary","params":{"a":2,"b":2,"s":1,"h":2},"records":[{"N":10,'),
        (_CORRELATE + ["--format", "csv"], b"N,lhs,main_term,ratio\n10,"),
        (_LEMMAS, b'{"lemma":"L3","grid":[{"r":1,"k":1,"s":2,"h":1,"N":10,'),
        (_LEMMAS + ["--format", "csv"], b"r,k,s,h,N,measured,bound,normalized\n1,1,2,1,10,"),
    ],
    ids=["table", "orthogonality", "expand", "shift", "meanvalue", "correlate-json",
         "correlate-csv", "lemmas-json", "lemmas-csv"],
)
def test_stdout_matches_file(tmp_path, capsysbinary, monkeypatch, argv, head):
    # binary stdout, a text-only stdout and --out carry the same bytes
    path = tmp_path / "out"
    assert main(argv) == EXIT_OK
    streamed = capsysbinary.readouterr().out
    assert streamed.startswith(head) and streamed.endswith(b"\n")
    assert main(argv + ["--out", str(path)]) == EXIT_OK
    assert streamed == path.read_bytes()
    # report rows go out in blocks; blocks of 2 rows must not change a byte
    monkeypatch.setattr(cr_sum, "_TEXT_BLOCK", 2)
    with contextlib.redirect_stdout(io.StringIO()) as text_out:
        assert main(argv) == EXIT_OK
    assert text_out.getvalue().encode() == streamed


def test_table_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "table", "--r", "2", "--n", "2", "--s", "1",
        "--out", str(tmp_path / "missing" / "t.csv"),
    )
    assert code == EXIT_IO
    assert "I/O" in err


@contextlib.contextmanager
def int_str_digits(limit):
    """Set Python's int-to-str digit limit for the duration of the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_table_over_budget_writes_no_output(tmp_path, capsysbinary, monkeypatch):
    def no_sieve(*args):
        raise AssertionError("a row was sieved for an over-budget table")

    # every sieved row starts from the Mobius terms of its r
    monkeypatch.setattr(cr_sum, "_mobius_terms", no_sieve)
    path = tmp_path / "t.csv"
    for argv in (
        ["--r", "2", "--n", "0", "--s", "20000"],  # 2**20000 has 6021 digits
        ["--r", "100000", "--n", "10000", "--s", "1"],  # 10**9 cells
    ):
        for out in (["--out", str(path)], []):
            with int_str_digits(4300):
                assert main(["table", *argv, *out]) == EXIT_RESOURCE
            captured = capsysbinary.readouterr()
            assert b"resource" in captured.err and captured.out == b""
            assert not path.exists()
    assert b"resource error: table: 1000100000 cells exceed budget" in captured.err


def test_table_and_crsum_digit_budget_edge(capsys):
    with int_str_digits(640):
        # every |c_r^s(n)| <= r**s - 1, and 10**640 - 1 has 640 digits
        code, out, _ = run_cli(capsys, "table", "--r", "10", "--n", "0", "--s", "640")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == f"10,0,{jordan_totient(10, 640)}"
        code, out, err = run_cli(capsys, "table", "--r", "10", "--n", "0", "--s", "641")
        assert code == EXIT_RESOURCE and out == ""
        assert "int-to-str limit of 640 digits" in err
        # crsum checks the value it prints, so a small value at a large s still prints
        code, out, _ = run_cli(capsys, "crsum", "--r", "2", "--n", "1", "--s", "5000")
        assert (code, out) == (EXIT_OK, "-1\n")
        code, out, _ = run_cli(capsys, "crsum", "--r", "10", "--n", "0", "--s", "640")
        assert (code, out) == (EXIT_OK, f"{jordan_totient(10, 640)}\n")
        code, out, err = run_cli(capsys, "crsum", "--r", "10", "--n", "0", "--s", "641")
        assert code == EXIT_RESOURCE and out == "" and "int-to-str" in err
    code, out, err = run_cli(capsys, "crsum", "--r", "720720", "--n", "0", "--s", "20000")
    assert code == EXIT_RESOURCE and out == "" and "int-to-str" in err


def test_digit_budget_holds_with_the_int_to_str_limit_off(capsys):
    # limit 0 switches Python's check off; the default limit still bounds r**s
    with int_str_digits(0):
        for argv in (
            ["crsum", "--r", "400", "--n", "0", "--s", "10000000"],
            ["table", "--r", "12", "--n", "0", "--s", "10000000"],
            ["crsum", "--r", "10", "--n", "0", "--s", "4301"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_RESOURCE and out == ""
            assert "default int-to-str limit of 4300 digits" in err
        # 10**4300 - 1 has 4300 digits, and J_s(10) < 10**s
        code, out, _ = run_cli(capsys, "crsum", "--r", "10", "--n", "0", "--s", "4300")
        assert (code, out) == (EXIT_OK, f"{jordan_totient(10, 4300)}\n")


def test_threads_flag_is_rejected(tmp_path):
    for argv in (
        ["table", "--r", "5", "--n", "10", "--s", "1", "--out", str(tmp_path / "t.csv")],
        ["lemmas", "--which", "1", "--rmax", "2", "--kmax", "2", "--s", "1", "--N", "10"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--threads", "2"])
        assert excinfo.value.code == 2


# --- orthogonality -----------------------------------------------------------


def test_orthogonality_grid_csv(tmp_path, capsys):
    path = tmp_path / "orth.csv"
    code, out, _ = run_cli(capsys, "orthogonality", "--r", "6", "--s", "1", "--out", str(path))
    assert code == EXIT_OK
    assert "all exact" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "d,t,value"
    assert len(lines) == 1 + 16  # divisors of 6: 1,2,3,6 -> 16 pairs
    values = {}
    for line in lines[1:]:
        d, t, v = line.split(",")
        values[(int(d), int(t))] = int(v)
    assert values[(2, 3)] == 0 and values[(3, 2)] == 0
    assert values[(6, 6)] == 2  # J_1(6) = phi(6)


def test_orthogonality_perturbed_diagonal_exits_one(tmp_path, capsys, monkeypatch):
    # a diagonal value off J_s(d) is counted and reported; the CSV is still written
    orthogonality_grid = cr_sum.orthogonality_grid

    def perturbed(r, s):
        grid = orthogonality_grid(r, s)
        d, t, value = grid[-1]
        return grid[:-1] + [(d, t, value + 1)]

    monkeypatch.setattr(cr_sum, "orthogonality_grid", perturbed)
    path = tmp_path / "orth.csv"
    code, out, err = run_cli(capsys, "orthogonality", "--r", "6", "--s", "1", "--out", str(path))
    assert code == EXIT_ASSERTION
    assert err == "orthogonality r=6 s=1: 1/16 pairs FAILED\n"
    assert out == ""
    assert path.read_text().splitlines()[-1] == "6,6,3"


def test_orthogonality_over_budget_exits_before_summing(capsys, monkeypatch):
    # 6**12 is about 2.2e9 terms per (d, t) pair; the budget must stop the
    # run before any period row is sieved or summed
    def no_rows(*args):
        raise AssertionError("period rows sieved for an over-budget r**s")

    monkeypatch.setattr(cr_sum, "_mobius_terms", no_rows)
    code, out, err = run_cli(capsys, "orthogonality", "--r", "6", "--s", "12")
    assert code == EXIT_RESOURCE
    assert "resource" in err
    assert out == ""


# --- expand / meanvalue / shift ----------------------------------------------


def test_expand_writes_coefficients(tmp_path, capsys):
    path = tmp_path / "coeffs.csv"
    code, out, _ = run_cli(
        capsys, "expand", "--k", "1", "--s", "1", "--R", "5", "--n", "2", "--out", str(path)
    )
    assert code == EXIT_OK
    assert "tau-weighted norm" in out and "evaluate(n=2)" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "r,coefficient"
    assert len(lines) == 6
    from crlab.core_arith import zeta

    assert float(lines[1].split(",")[1]) == zeta(2.0)


def test_meanvalue_single(capsys):
    code, out, _ = run_cli(
        capsys, "meanvalue", "--method", "crsum", "--k", "2", "--r", "2", "--s", "2", "--N", "16"
    )
    assert code == EXIT_OK
    assert out == "1 (period-exact)\n"


def test_meanvalue_range_csv(tmp_path, capsys):
    path = tmp_path / "mv.csv"
    code, _, _ = run_cli(
        capsys, "meanvalue", "--method", "one", "--s", "1", "--N", "12",
        "--R", "3", "--out", str(path),
    )
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0] == "r,coefficient"
    assert float(lines[1].split(",")[1]) == 1.0  # constant function, r = 1
    assert float(lines[2].split(",")[1]) == 0.0  # full periods of c_2


def test_meanvalue_sigma_csv_matches_independent_oracle(tmp_path, capsys):
    for k, s, N in ((1, 1, 300), (2, 2, 200)):
        path = tmp_path / f"mv_{k}_{s}.csv"
        code, _, _ = run_cli(
            capsys, "meanvalue", "--method", "sigma", "--k", str(k), "--s", str(s),
            "--N", str(N), "--R", "4", "--out", str(path),
        )
        assert code == EXIT_OK
        x = float(k * s)
        expected = ["r,coefficient"]
        for r in range(1, 5):
            total = 0.0
            for n in range(1, N + 1):
                total += sigma_real(n, x) / float(n) ** x * cr_sum_exact(r, n, s)
            expected.append(f"{r},{total / N / jordan_totient(r, s):.17g}")
        assert path.read_text().splitlines() == expected


def test_meanvalue_out_needs_range(tmp_path, capsys):
    path = tmp_path / "mv.csv"
    code, out, err = run_cli(
        capsys, "meanvalue", "--method", "one", "--s", "1", "--N", "10", "--out", str(path)
    )
    assert code == EXIT_USAGE
    assert "--R" in err
    assert out == ""
    assert not path.exists()


def test_shift_h_zero_matches_expand(tmp_path, capsys):
    a = tmp_path / "expand.csv"
    b = tmp_path / "shift0.csv"
    run_cli(capsys, "expand", "--k", "1", "--s", "1", "--R", "8", "--out", str(a))
    code, _, _ = run_cli(capsys, "shift", "--k", "1", "--s", "1", "--R", "8", "--h", "0", "--out", str(b))
    assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_shift_rejects_higher_s(capsys):
    code, _, err = run_cli(capsys, "shift", "--k", "1", "--s", "2", "--R", "4", "--h", "1")
    assert code == EXIT_USAGE


# --- correlate ---------------------------------------------------------------


def test_correlate_json(tmp_path, capsys):
    path = tmp_path / "corr.json"
    code, out, _ = run_cli(
        capsys, "correlate", "--a", "2", "--b", "2", "--s", "1", "--h", "2",
        "--N", "100,1000", "--format", "json", "--out", str(path),
    )
    assert code == EXIT_OK
    assert "ratio" in out
    parsed = json.loads(path.read_text())
    assert parsed["theorem"] == "corollary"
    assert [r["N"] for r in parsed["records"]] == [100, 1000]
    assert abs(parsed["records"][-1]["ratio"] - 1.0) < 0.05


def test_correlate_csv_and_determinism(tmp_path, capsys):
    paths = [tmp_path / "c1.csv", tmp_path / "c2.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys, "correlate", "--method", "t2", "--s", "1", "--h", "1", "--k", "1",
            "--R", "50", "--N", "50,200", "--format", "csv", "--out", str(path),
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_text().splitlines()[0] == "N,lhs,main_term,ratio"


def _forbid_sigma_rows(monkeypatch):
    # the budget must stop the run before any sigma row is filled
    def no_rows(*args, **kwargs):
        raise AssertionError("a sigma row was allocated for an over-budget N")

    monkeypatch.setattr(np, "float_power", no_rows)


def test_correlate_over_budget_exits_before_allocating(capsys, monkeypatch):
    _forbid_sigma_rows(monkeypatch)
    over = str(MAX_SIGMA_LIMIT + 1)
    for argv in (
        ("--method", "corollary", "--a", "2", "--b", "2", "--s", "1", "--h", "1"),
        ("--method", "t2", "--k", "1", "--R", "5", "--s", "1", "--h", "2"),
    ):
        code, out, err = run_cli(capsys, "correlate", *argv, "--N", over)
        assert code == EXIT_RESOURCE
        assert "resource" in err
        assert out == ""


def test_meanvalue_sigma_over_budget_exits_before_allocating(capsys, monkeypatch):
    _forbid_sigma_rows(monkeypatch)
    code, out, err = run_cli(
        capsys, "meanvalue", "--method", "sigma", "--k", "1", "--s", "1",
        "--N", str(MAX_SIGMA_LIMIT + 1),
    )
    assert code == EXIT_RESOURCE
    assert "resource" in err
    assert out == ""


def test_correlate_rejects_unsorted_schedule(capsys):
    code, _, err = run_cli(
        capsys, "correlate", "--a", "2", "--b", "2", "--s", "1", "--h", "1", "--N", "100,10"
    )
    assert code == EXIT_USAGE
    assert "ascending" in err


CORRELATE = ("correlate", "--s", "1", "--N", "10")
MEANVALUE_ONE = ("meanvalue", "--method", "one", "--s", "1", "--N", "12")


@pytest.mark.parametrize(
    "argv, message",
    [
        (CORRELATE + ("--method", "t1", "--k", "1", "--R", "5", "--a", "2"), "no a or b"),
        (CORRELATE + ("--method", "t2", "--k", "1", "--R", "5", "--h", "1", "--b", "2"), "no a or b"),
        (CORRELATE + ("--a", "2", "--b", "2", "--h", "1", "--k", "1"), "no k or R"),
        (CORRELATE + ("--a", "2", "--b", "2", "--h", "1", "--R", "5"), "no k or R"),
        (MEANVALUE_ONE + ("--k", "3"), "no --k"),
        (MEANVALUE_ONE + ("--r", "2", "--R", "3"), "not both"),
    ],
    ids=["t1-a", "t2-b", "corollary-k", "corollary-R", "one-k", "r-and-R"],
)
def test_ignored_flags_are_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert message in err
    assert out == ""


@pytest.mark.parametrize(
    "method",
    [("--method", "one"), ("--method", "crsum", "--k", "2"), ("--method", "sigma", "--k", "1")],
    ids=["one", "crsum", "sigma"],
)
@pytest.mark.parametrize(
    "extent, message",
    [
        (("--N", "10", "--R", "0"), "--R must be >= 1, got 0"),
        (("--N", "10", "--R", "-3"), "--R must be >= 1, got -3"),
        (("--N", "0", "--R", "0"), "--R must be >= 1, got 0"),
        (("--N", "0", "--R", "5"), "--N must be >= 1, got 0"),
        (("--N", "0"), "--N must be >= 1, got 0"),
        (("--N", "-2", "--r", "3"), "--N must be >= 1, got -2"),
        (("--N", "10", "--r", "0"), "--r must be >= 1, got 0"),
    ],
)
def test_meanvalue_rejects_an_empty_truncation(tmp_path, capsys, monkeypatch, method, extent, message):
    # refused before any row is built
    monkeypatch.setattr(cr_sum, "_mobius_terms", None)
    _forbid_sigma_rows(monkeypatch)
    path = tmp_path / "mv.csv"
    to_file = ("--out", str(path)) if "--R" in extent else ()  # --out needs --R
    code, out, err = run_cli(capsys, "meanvalue", *method, "--s", "1", *extent, *to_file)
    assert code == EXIT_USAGE
    assert message in err
    assert out == ""
    assert not path.exists()


def test_meanvalue_r_defaults_to_one(capsys):
    code, out, _ = run_cli(capsys, *MEANVALUE_ONE)
    assert code == EXIT_OK
    assert out == "1 (period-exact)\n"


def test_meanvalue_prints_zero_not_negative_zero(capsys):
    # the only term is c_2(1) * c_4(1) = -1.0 * 0 = -0.0; a loop from 0.0 gives +0.0
    code, out, _ = run_cli(
        capsys, "meanvalue", "--method", "crsum", "--k", "2", "--s", "1", "--N", "1", "--r", "4"
    )
    assert code == EXIT_OK
    assert out == "0 (partial periods)\n"


@pytest.mark.parametrize(
    "method",
    [("--method", "one"), ("--method", "crsum", "--k", "7"), ("--method", "sigma", "--k", "1")],
    ids=["one", "crsum", "sigma"],
)
def test_meanvalue_over_cell_budget_exits_before_sieving(capsys, monkeypatch, method):
    def no_sieve(*args):
        raise AssertionError("a row was sieved for an over-budget grid")

    monkeypatch.setattr(cr_sum, "_mobius_terms", no_sieve)
    _forbid_sigma_rows(monkeypatch)
    n_limit = 999
    r_top = cr_sum.MAX_TABLE_CELLS // (n_limit + 1) + 1  # R * (N + 1) just past the budget
    for extent in (("--N", str(n_limit), "--R", str(r_top)),
                   ("--N", str(cr_sum.MAX_TABLE_CELLS), "--r", "3")):
        code, out, err = run_cli(capsys, "meanvalue", *method, "--s", "1", *extent)
        assert code == EXIT_RESOURCE
        assert "resource error: meanvalue rows: " in err and str(cr_sum.MAX_TABLE_CELLS) in err
        assert out == ""


def test_meanvalue_one_is_crsum_with_q_one(tmp_path, capsys):
    paths = [tmp_path / "one.csv", tmp_path / "crsum.csv"]
    for path, method in zip(paths, (("--method", "one"), ("--method", "crsum", "--k", "1"))):
        code, _, _ = run_cli(
            capsys, "meanvalue", *method, "--s", "2", "--N", "500", "--R", "12", "--out", str(path)
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_meanvalue_crsum_needs_no_period_row(capsys):
    # q**s = 30**13 is far past the 10**7 period limit; only n <= N is sieved
    code, out, err = run_cli(
        capsys, "meanvalue", "--method", "crsum", "--k", "30", "--s", "13", "--N", "100", "--r", "3"
    )
    assert code == EXIT_OK, err
    total = 0.0
    for n in range(1, 101):
        total += float(cr_sum_exact(30, n, 13)) * cr_sum_exact(3, n, 13)
    assert out == f"{total / 100 / jordan_totient(3, 13):.6g} (partial periods)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--k", "1", "--s", "1"),
        ("shift", "--k", "1", "--s", "1", "--h", "2"),
        ("correlate", "--method", "t1", "--k", "1", "--s", "1", "--N", "10"),
        ("correlate", "--method", "t2", "--k", "1", "--s", "1", "--h", "2", "--N", "10"),
    ],
    ids=["expand", "shift", "t1", "t2"],
)
def test_series_commands_held_to_r_budget(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--R", str(MAX_SERIES_R + 1))
    assert code == EXIT_RESOURCE
    assert "resource" in err and str(MAX_SERIES_R) in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, expected",
    [
        # sigma_expansion's z / r**exp and evaluate's coef * c past the float range
        (("expand", "--k", "1", "--s", "400", "--R", "50", "--n", "9223372036854775807"), EXIT_OK),
        (("shift", "--k", "5000", "--s", "1", "--R", "50", "--h", "10000000"), EXIT_OK),
        # the sigma row's 103**5000 (and 100**300) is past the float range
        (("correlate", "--method", "t2", "--k", "5000", "--R", "30", "--s", "1", "--h", "3",
          "--N", "10,100"), EXIT_RESOURCE),
        (("correlate", "--method", "corollary", "--a", "300", "--b", "2", "--s", "1", "--h", "2",
          "--N", "10,100"), EXIT_RESOURCE),
        (("meanvalue", "--method", "sigma", "--k", "1", "--s", "400", "--N", "1000", "--R", "1"),
         EXIT_RESOURCE),
        # r**s k**s past the float range: the L3 sqrt and the L2 scale
        (("lemmas", "--which", "3", "--rmax", "40", "--kmax", "40", "--s", "100", "--N", "10"),
         EXIT_RESOURCE),
        (("lemmas", "--which", "2", "--rmax", "12", "--kmax", "12", "--s", "400", "--N", "10"),
         EXIT_RESOURCE),
        # f = c_200^400(n) leaves out slot 0, J_400(200), which is past the float range
        (("meanvalue", "--method", "crsum", "--k", "200", "--s", "400", "--N", "1", "--R", "5"),
         EXIT_OK),
        # J_400(6) and J_400(7) are past it too: each mean is divided as Python ints divide
        (("meanvalue", "--method", "one", "--s", "400", "--N", "3", "--R", "7"), EXIT_OK),
    ],
    ids=["expand", "shift", "t2", "corollary", "meanvalue", "L3", "L2", "meanvalue-crsum",
         "meanvalue-one"],
)
def test_series_past_the_float_range_exit_cleanly(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    if expected == EXIT_RESOURCE:
        assert "float range" in err and out == ""
    else:
        assert err == "" and out.startswith("r,coefficient\n")


def test_shift_past_the_float_range_keeps_in_range_bits(capsys):
    # only fhat(1) = zeta(5001) survives: every later z / r**5001 underflows
    # to 0.0, and a product with a negative c_r(h) / phi(r) is written as 0, not -0
    code, out, _ = run_cli(capsys, "shift", "--k", "5000", "--s", "1", "--R", "50", "--h", "10000000")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1] == f"1,{zeta(5001.0):.17g}"
    assert all(float(line.split(",")[1]) == 0.0 for line in lines[2:])
    assert len(lines) == 51 and not any(line.endswith(",-0") for line in lines)


def test_meanvalue_underflowed_mean_prints_zero(capsys):
    # mean -1 over n <= 3 divided by J_400(7) > 2**1024 rounds to -0.0, written as 0
    code, out, _ = run_cli(capsys, "meanvalue", "--method", "one", "--s", "400", "--N", "3", "--r", "7")
    assert code == EXIT_OK
    assert out == "0 (partial periods)\n"
    code, out, _ = run_cli(capsys, "meanvalue", "--method", "one", "--s", "400", "--N", "3", "--r", "6")
    assert code == EXIT_OK
    assert out == f"{float(Fraction(1, jordan_totient(6, 400))):.6g} (partial periods)\n"


# --- lemmas ------------------------------------------------------------------


def test_lemmas_all_pass(tmp_path, capsys):
    path = tmp_path / "l4.json"
    code, out, _ = run_cli(
        capsys, "lemmas", "--which", "4", "--rmax", "5", "--kmax", "5", "--s", "2",
        "--h", "3", "--N", "100", "--out", str(path),
    )
    assert code == EXIT_OK
    assert "within bound" in out
    parsed = json.loads(path.read_text())
    assert parsed["lemma"] == "L4"
    assert len(parsed["grid"]) == 25


def test_lemmas_l2_reports_constant(tmp_path, capsys):
    path = tmp_path / "l2.json"
    code, out, _ = run_cli(
        capsys, "lemmas", "--which", "2", "--rmax", "4", "--kmax", "4", "--s", "1",
        "--h", "1", "--N", "100,500", "--out", str(path),
    )
    assert code == EXIT_OK
    assert "max normalized constant" in out


def test_lemmas_stdout_report_is_pure_json(capsys):
    code, out, _ = run_cli(
        capsys, "lemmas", "--which", "3", "--rmax", "3", "--kmax", "3", "--s", "1",
        "--h", "1", "--N", "50",
    )
    assert code == EXIT_OK
    parsed = json.loads(out)
    assert parsed["lemma"] == "L3"


def test_lemmas_l1_rejects_shift(capsys):
    argv = ["lemmas", "--which", "1", "--rmax", "3", "--kmax", "3", "--s", "1", "--N", "50"]
    code, out, err = run_cli(capsys, *argv, "--h", "5")
    assert code == EXIT_USAGE
    assert "shift" in err
    assert out == ""
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["lemma"] == "L1"


def test_lemmas_failed_points_exit_one(tmp_path, capsys, monkeypatch):
    # one point marked failed: the report is still written, the count goes to stderr
    lemma_check = asymptotics.lemma_check

    def one_failure(*args):
        report = lemma_check(*args)
        passed = report.passed.copy()
        passed[4] = False
        return replace(report, passed=passed)

    monkeypatch.setattr(asymptotics, "lemma_check", one_failure)
    path = tmp_path / "l3.json"
    code, out, err = run_cli(
        capsys, "lemmas", "--which", "3", "--rmax", "3", "--kmax", "3", "--s", "1",
        "--h", "1", "--N", "50", "--out", str(path),
    )
    assert code == EXIT_ASSERTION
    assert err == "L3: 1/9 grid points EXCEED bound\n"
    assert out == ""
    assert len(json.loads(path.read_text())["grid"]) == 9


def test_lemmas_l3_equality_passes(tmp_path, capsys):
    # at r = k = 1, h = 0, N = 3 the sum is exactly the bound 3, while the float
    # bound sqrt(3) * sqrt(3) rounds below it
    path = tmp_path / "l3.json"
    code, out, err = run_cli(
        capsys, "lemmas", "--which", "3", "--rmax", "9", "--kmax", "11", "--s", "3",
        "--h", "0", "--N", "1,2,3", "--out", str(path),
    )
    assert (code, err) == (EXIT_OK, "")
    assert out == "L3: all 297 grid points within bound\n"
    point = next(p for p in json.loads(path.read_text())["grid"] if (p["r"], p["k"], p["N"]) == (1, 1, 3))
    assert point["measured"] == 3.0 and point["bound"] < 3.0


def test_lemmas_l2_scale_past_the_float_range_exits_four(capsys):
    # 40**192 is a float but 40**192 * ln(40**192) is not; JSON has no inf
    code, out, err = run_cli(
        capsys, "lemmas", "--which", "2", "--rmax", "40", "--kmax", "40", "--s", "96", "--N", "10",
    )
    assert code == EXIT_RESOURCE
    assert "float range" in err and out == ""


@pytest.mark.parametrize(
    "which, s",
    # L1: gcd(2, 2)**1023 passes the bit-length test, N tau(r) tau(k) times it does not;
    # L4: 2**1023 passes it, 2 N Phi_1024(2**1024) tau(k) does not
    [("1", "1023"), ("4", "1024")],
)
def test_lemmas_bound_past_the_float_range_exits_four(capsys, which, s):
    code, out, err = run_cli(
        capsys, "lemmas", "--which", which, "--rmax", "2", "--kmax", "2", "--s", s, "--N", "1",
    )
    assert code == EXIT_RESOURCE
    assert "bound exceeds the float range" in err and out == ""


def test_lemmas_over_point_budget_exits_before_building(capsys, monkeypatch):
    # 10**8 points over only two hit rows of N + 1 = 2 cells
    def no_rows(*args, **kwargs):
        raise AssertionError("lemma sums begun for an over-budget grid")

    monkeypatch.setattr(asymptotics, "_mobius_row", no_rows)
    code, out, err = run_cli(
        capsys, "lemmas", "--which", "3", "--rmax", "10000", "--kmax", "10000", "--s", "1",
        "--N", "1",
    )
    assert code == EXIT_RESOURCE
    assert "resource" in err and str(asymptotics.MAX_LEMMA_POINTS) in err
    assert out == ""


def test_lemmas_over_hit_row_budget_names_the_hit_rows(capsys, monkeypatch):
    # d <= 1 and e <= 2 divide some n <= N + h: 3 hit rows of N + h + 1 cells
    def no_rows(*args, **kwargs):
        raise AssertionError("lemma sums begun for an over-budget grid")

    monkeypatch.setattr(asymptotics, "_mobius_row", no_rows)
    code, out, err = run_cli(
        capsys, "lemmas", "--which", "3", "--rmax", "2", "--kmax", "2", "--s", "1",
        "--h", "49999990", "--N", "1",
    )
    assert code == EXIT_RESOURCE
    assert "resource error: lemma hit rows: 149999976 cells exceed budget 50000000" in err
    assert out == ""


# --- decompose ---------------------------------------------------------------


def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--h", "12", "--s", "2")
    assert code == EXIT_OK
    assert out == "h=12 m=2 k=3\n"


def test_decompose_past_trial_division(capsys):
    h = 2**61 - 1  # prime: m = 1 and k = h
    code, out, _ = run_cli(capsys, "decompose", "--h", str(h), "--s", "2")
    assert code == EXIT_OK
    assert out == f"h={h} m=1 k={h}\n"
    p = 3037000493  # the largest prime below sqrt(2**63)
    code, out, _ = run_cli(capsys, "decompose", "--h", str(p**2), "--s", "2")
    assert code == EXIT_OK
    assert out == f"h={p**2} m={p} k=1\n"
