"""CLI behavior: outputs, formats, exit codes, and determinism."""

import contextlib
import io
import json
import os

import pytest

from crlab import cr_sum
from crlab.cli import EXIT_ASSERTION, EXIT_IO, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main, parse_schedule


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


def test_table_stdout_matches_file(tmp_path, capsysbinary):
    path = tmp_path / "t.csv"
    argv = ["table", "--r", "9", "--n", "33", "--s", "2"]
    assert main(argv) == EXIT_OK
    streamed = capsysbinary.readouterr().out
    assert main(argv + ["--out", str(path)]) == EXIT_OK
    assert streamed == path.read_bytes()
    assert streamed.startswith(b"r,n,value\n1,0,1\n")
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


def test_orthogonality_over_budget_exits_before_summing(capsys, monkeypatch):
    # 6**12 is about 2.2e9 terms per (d, t) pair; the budget must stop the
    # run before any period row is sieved or summed
    def no_rows(r, s):
        raise AssertionError(f"period row c_{r}^{s} built for an over-budget r**s")

    monkeypatch.setattr(cr_sum, "cr_sum_period_row", no_rows)
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


def test_correlate_rejects_unsorted_schedule(capsys):
    code, _, err = run_cli(
        capsys, "correlate", "--a", "2", "--b", "2", "--s", "1", "--h", "1", "--N", "100,10"
    )
    assert code == EXIT_USAGE
    assert "ascending" in err


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


# --- decompose ---------------------------------------------------------------


def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--h", "12", "--s", "2")
    assert code == EXIT_OK
    assert out == "h=12 m=2 k=3\n"
