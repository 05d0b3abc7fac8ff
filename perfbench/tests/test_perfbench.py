"""Tests of the benchmark itself: span arithmetic, failure accounting, a
tiny pass of every workload, and the BENCHMARK.json contract."""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import harness
import tracing
import workloads
from tracing import POOL_MAP, Span

ROOT = Path(__file__).resolve().parents[2]


# --- span arithmetic ---------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4.0)
    assert tracing.covered([(-5, 2), (9, 15)], 0, 10) == pytest.approx(3.0)
    assert tracing.covered([(2, 3), (2, 3)], 0, 10) == pytest.approx(1.0)


def test_self_time_of_synthetic_nest_across_two_threads():
    # build_table [0, 10] on thread 1 hands rows to the pool [1, 9]; two pool
    # threads run divisors spans that overlap in time; one has a child.
    spans = [
        Span(1, 0, "cr_sum.build_table", 1, 0, 0.0, 10.0),
        Span(2, 1, POOL_MAP, 1, 0, 1.0, 9.0, work=2),
        Span(3, 2, "core_arith.divisors", 2, 0, 2.0, 4.0),
        Span(4, 2, "core_arith.divisors", 3, 0, 3.0, 6.0),
        Span(5, 4, "core_arith.factorize", 3, 0, 4.0, 5.0),
        Span(6, 1, "core_arith.mobius_range", 1, 0, 9.5, 9.8),
        Span(7, 0, "cli.main", 1, 1, 20.0, 21.0),
    ]
    selfs = tracing.self_times(spans)
    # The pool is transparent: its children [2, 6] and mobius_range [9.5, 9.8]
    # are build_table's, and their union (4.3) is not its self time.
    assert selfs[1] == pytest.approx(10.0 - 4.3)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(3.0 - 1.0)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(0.3)

    stats = tracing.function_stats(spans)
    assert stats["core_arith.divisors"].calls == 2
    assert stats["core_arith.divisors"].total_s == pytest.approx(5.0)
    assert stats["core_arith.divisors"].self_s == pytest.approx(4.0)
    assert stats[POOL_MAP].total_s == pytest.approx(8.0)
    assert stats[POOL_MAP].work == 2
    assert set(tracing.function_stats(spans, cmd=1)) == {"cli.main"}


def test_live_tracer_keeps_pool_work_under_its_caller():
    modules = harness.crlab_modules()
    original = modules["cr_sum"].build_table
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        table = modules["cr_sum"].build_table(8, 40, 1, threads=2)
    finally:
        tracer.uninstall()
    assert modules["cr_sum"].build_table is original
    spans = tracer.spans()
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    (build,) = by_name["cr_sum.build_table"]
    (pool,) = by_name[POOL_MAP]
    assert build.work == table.r_max * (table.n_max + 1)
    assert pool.parent == build.sid and pool.work == 8
    assert {sp.parent for sp in by_name["core_arith.divisors"]} == {pool.sid}
    assert {sp.thread for sp in by_name["core_arith.divisors"]} - {threading.get_ident()}
    selfs = tracing.self_times(spans)
    assert 0 < selfs[build.sid] <= build.end - build.start


# --- failure accounting ------------------------------------------------------


def _corrupt_table(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    r, n, value = lines[-1].rstrip("\n").split(",")
    lines[-1] = f"{r},{n},{int(value) + 1}\n"
    path.write_text("".join(lines))


def _corrupt_json_number(path: Path) -> None:
    report = json.loads(path.read_text())
    entries = report.get("records") or report.get("grid")
    entries[0]["lhs" if "lhs" in entries[0] else "measured"] += 1.0
    path.write_text(json.dumps(report))


def _corrupt_orthogonality(path: Path) -> None:
    path.write_text(path.read_text().replace("\n1,1,1\n", "\n1,1,2\n"))


@pytest.mark.parametrize(
    "workload, index, corrupt",
    [
        ("table", 1, _corrupt_table),
        ("numeric", 0, _corrupt_json_number),
        ("numeric", 1, _corrupt_json_number),
        ("numeric", 2, _corrupt_json_number),
        ("numeric", 3, _corrupt_json_number),
        ("numeric", 7, _corrupt_orthogonality),
    ],
)
def test_corrupted_output_is_a_failed_command(tmp_path, monkeypatch, workload, index, corrupt):
    cmds = workloads.commands(workload, 7, tmp_path, size="smoke")
    clean = harness.subprocess_pass(cmds, tmp_path, None)
    assert [r.problems for r in clean] == [[] for _ in cmds]

    digests = {name: workloads.sha256_file(tmp_path / name) for c in cmds for name in c.outputs}
    target = tmp_path / cmds[index].outputs[0]
    real_spawn = harness.spawn

    def spawn_then_corrupt(args, log, timeout):
        result = real_spawn(args, log, timeout)
        if str(target) in args:
            corrupt(target)
        return result

    monkeypatch.setattr(harness, "spawn", spawn_then_corrupt)
    for expected in (None, digests):
        runs = harness.subprocess_pass(cmds, tmp_path, expected)
        failed = [r.index for r in runs if r.problems]
        assert failed == [index]
        if expected is not None:
            assert any("SHA-256" in p for p in runs[index].problems)


def test_wrong_decompose_output_and_bad_exit_are_failures(tmp_path):
    (cmd,) = [c for c in workloads.commands("numeric", 7, tmp_path, size="smoke") if c.argv[0] == "decompose"][:1]
    h = int(cmd.argv[cmd.argv.index("--h") + 1])
    assert workloads.find_problems(cmd, 0, f"h={h} m=1 k={h}\n", tmp_path, None) == []
    assert workloads.find_problems(cmd, 0, f"h={h} m=1 k=1\n", tmp_path, None)
    assert workloads.find_problems(cmd, 4, f"h={h} m=1 k={h}\n", tmp_path, None) == ["exit code 4"]


# --- smoke pass of every workload --------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass(tmp_path, workload):
    cmds = workloads.commands(workload, 11, tmp_path, size="smoke")
    runs = harness.subprocess_pass(cmds, tmp_path, None)
    assert all(r.problems == [] and r.returncode == 0 for r in runs)
    assert all(r.rss_mb > 1 and r.wall_s > 0 for r in runs)

    modules = harness.crlab_modules()
    tracer = tracing.Tracer()
    counts: dict = {}
    traced = harness.inprocess_pass(cmds, tmp_path, None, modules, tracer, counts)
    assert all(r.problems == [] for r in traced)
    metrics = harness.layer_metrics(tracer.spans(), counts)
    assert set(metrics) == set(harness.PER_LAYER) - {"trace.overhead_frac"}
    assert metrics["cli.main.self_s"] > 0


def test_seed_picks_parameters_deterministically(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.commands(workload, 3, tmp_path)
        b = workloads.commands(workload, 3, tmp_path)
        assert [c.argv for c in a] == [c.argv for c in b]
    assert [c.argv for c in workloads.commands("numeric", 1, tmp_path)] != [
        c.argv for c in workloads.commands("numeric", 2, tmp_path)
    ]


def test_every_default_seed_output_has_a_digest(tmp_path):
    for workload in workloads.WORKLOADS:
        digests = workloads.expected_digests(workload, workloads.DEFAULT_SEED)
        names = {n for c in workloads.commands(workload, workloads.DEFAULT_SEED, tmp_path) for n in c.outputs}
        assert set(digests) == names
        assert workloads.expected_digests(workload, workloads.DEFAULT_SEED + 1) is None


# --- reporting and the BENCHMARK.json contract -------------------------------


def test_high_percentile_needs_ten_samples_above():
    assert harness.high_percentile([1.0] * 10) is None
    values = list(range(20, 0, -1))
    assert harness.high_percentile(values) == (50.0, 10)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.PER_LAYER


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
