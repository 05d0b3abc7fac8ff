"""Measurement, checking and reporting for one benchmark run (see run.py)."""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

import crlab
import numpy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

COMMAND_TIMEOUT_S = 60.0
# No run plans to measure for longer than this, whatever --seconds says.
RUN_BUDGET_S = 120.0
# Set-up samples: a few before every pass, so they span the run, and at least SETUP_SAMPLES.
SETUP_PER_PASS = 3
SETUP_SAMPLES = 9

# Per-layer metrics: name -> (unit, better). BENCHMARK.json lists the same.
PER_LAYER = {
    "core_arith.factorize.calls": ("count", "lower"),
    "core_arith.factorize.self_s": ("s", "lower"),
    "core_arith.factorize.hit_ratio": ("ratio", "higher"),
    "core_arith.mobius_range.self_s": ("s", "lower"),
    "cr_sum.build_table.self_s": ("s", "lower"),
    "cr_sum.build_table.cells_per_s": ("cells/s", "higher"),
    "cr_sum.CRSumTable.to_csv_text.self_s": ("s", "lower"),
    "cr_sum.CRSumTable.to_csv_text.bytes_per_s": ("B/s", "higher"),
    "cr_sum.cr_sum_period_row.self_s": ("s", "lower"),
    "cr_sum.cr_sum_period_row.hit_ratio": ("ratio", "higher"),
    "cr_sum.cr_values_fixed_n.self_s": ("s", "lower"),
    "cr_sum.orthogonality_value.self_s": ("s", "lower"),
    "expansion.tau_weighted_norm.self_s": ("s", "lower"),
    "expansion.shift_coefficients.self_s": ("s", "lower"),
    "expansion.evaluate.self_s": ("s", "lower"),
    "expansion.mean_value_coefficient.self_s": ("s", "lower"),
    "asymptotics.sigma_power_array.self_s": ("s", "lower"),
    "asymptotics.sigma_power_array.n_per_s": ("n/s", "higher"),
    "asymptotics.run_correlation_report.self_s": ("s", "lower"),
    "asymptotics.run_correlation_report.n_per_s": ("n/s", "higher"),
    "asymptotics.lemma_check.self_s": ("s", "lower"),
    "asymptotics.lemma_check.terms_per_s": ("terms/s", "higher"),
    "parallel.ordered_parallel_map.total_s": ("s", "lower"),
    "parallel.ordered_parallel_map.items": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CRLAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class CommandRun:
    index: int
    wall_s: float
    rss_mb: float
    returncode: int
    problems: list[str] = field(default_factory=list)


def spawn(args: list[str], log: Path, timeout: float) -> tuple[float, float, int, bool]:
    """Run `python *args` to completion: (wall s, peak RSS MB, exit code, timed out).

    Peak RSS is the child's own, from os.wait4; RUSAGE_CHILDREN would give
    the largest of every child reaped so far.
    """
    fired = threading.Event()
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=child_env(), cwd=ROOT, stdout=out, stderr=out)

        def kill() -> None:
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, fired.is_set()


def subprocess_pass(cmds, out_dir: Path, digests) -> list[CommandRun]:
    runs = []
    log = out_dir / "stdout.txt"
    for i, cmd in enumerate(cmds):
        wall, rss, code, timed_out = spawn(["-m", "crlab.cli", *cmd.argv], log, COMMAND_TIMEOUT_S)
        stdout = log.read_text(errors="replace")
        if timed_out:
            problems = [f"timed out after {COMMAND_TIMEOUT_S:g} s"]
        else:
            problems = workloads.find_problems(cmd, code, stdout, out_dir, digests)
            if code != 0:
                problems.append(stdout.strip()[-300:])
        runs.append(CommandRun(i, wall, rss, code, problems))
    return runs


def measure_setup(samples: int) -> list[float]:
    """Wall times of fresh interpreters that import crlab.cli and exit."""
    log = OUT / "setup.txt"
    times = []
    for _ in range(samples):
        wall, _, code, _ = spawn(["-c", "import crlab.cli"], log, COMMAND_TIMEOUT_S)
        if code != 0:
            fail(f"`import crlab.cli` failed:\n{log.read_text(errors='replace')}")
        times.append(wall)
    return times


# --- in-process passes -------------------------------------------------------


def clear_caches(modules: dict) -> None:
    """Empty every lru_cache in crlab, as a fresh process would start."""
    for mod in modules.values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and callable(getattr(value, "cache_info", None)):
                value.cache_clear()


def inprocess_pass(cmds, out_dir: Path, digests, modules: dict, tracer=None, cache_counts=None) -> list[CommandRun]:
    """One pass through crlab.cli.main in this process, traced when a tracer is given."""
    runs = []
    for i, cmd in enumerate(cmds):
        clear_caches(modules)
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.cmd = i
            tracer.install(modules)
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = modules["cli"].main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash in crlab is a failed command, not a failed run
            code = 1
            stderr.write(repr(exc))
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if cache_counts is not None:
            for name in tracing.CACHED:
                mod, _, attr = name.partition(".")
                fn = getattr(modules.get(mod), attr, None)
                if fn is not None and hasattr(fn, "cache_info"):
                    info = fn.cache_info()
                    hits, misses = cache_counts.get(name, (0, 0))
                    cache_counts[name] = (hits + info.hits, misses + info.misses)
        problems = workloads.find_problems(cmd, code, stdout.getvalue(), out_dir, digests)
        if code != 0:
            problems.append(stderr.getvalue().strip()[-300:])
        runs.append(CommandRun(i, wall, 0.0, code, problems))
    return runs


def layer_metrics(spans, cache_counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_frac excluded)."""
    stats = tracing.function_stats(spans)
    empty = tracing.FunctionStats()

    def rate(name: str) -> float:
        st = stats.get(name, empty)
        return st.work / st.self_s if st.self_s > 0 else 0.0

    def hit_ratio(name: str) -> float:
        hits, misses = cache_counts.get(name, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    out = {}
    for metric in PER_LAYER:
        func, _, kind = metric.rpartition(".")
        st = stats.get(func, empty)
        if kind == "self_s":
            out[metric] = st.self_s
        elif kind == "calls":
            out[metric] = st.calls
        elif kind == "total_s":
            out[metric] = st.total_s
        elif kind == "items":
            out[metric] = st.work
        elif kind == "hit_ratio":
            out[metric] = hit_ratio(func)
        elif kind.endswith("_per_s"):
            out[metric] = rate(func)
    return out


def per_command_stats(spans, n_cmds: int) -> list[dict]:
    """Calls, total and self seconds per traced function for each command."""
    selfs = tracing.self_times(spans)
    return [
        {name: asdict(st) for name, st in sorted(tracing.function_stats(spans, i, selfs).items())}
        for i in range(n_cmds)
    ]


# --- reporting ---------------------------------------------------------------


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the sample with exactly ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def environment(load_before: tuple[float, ...]) -> dict:
    nproc = None
    if shutil.which("nproc"):
        done = subprocess.run(["nproc"], capture_output=True, text=True, check=False)
        nproc = int(done.stdout) if done.returncode == 0 else None
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
        commit = done.stdout.strip() if done.returncode == 0 else None
    tree = hashlib.sha256()
    for path in sorted((SRC / "crlab").rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
        "crlab_threads_env": "unset",
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def crlab_modules() -> dict:
    """The crlab modules the tracer patches, by short name; absent ones are skipped."""
    modules = {"crlab": crlab}
    for name in tracing.TRACED:
        try:
            modules[name] = importlib.import_module(f"crlab.{name}")
        except ImportError:
            continue
    return modules


class Budget:
    """Whether another round fits in the run's seconds; the first always runs."""

    def __init__(self, seconds: float) -> None:
        self.seconds = min(seconds, RUN_BUDGET_S)
        self.start = time.perf_counter()
        self.rounds = 0

    def another(self) -> bool:
        self.rounds += 1
        elapsed = time.perf_counter() - self.start
        return elapsed + elapsed / self.rounds <= self.seconds


def measure_end_to_end(cmds, out_dir: Path, digests, seconds: float) -> tuple[dict, list, dict]:
    """Passes of fresh child processes, with set-up samples spread over the run."""
    budget = Budget(seconds)
    measure_setup(1)  # warm-up: compile bytecode once, as an installed package has it
    setup: list[float] = []
    passes = []
    while True:
        setup += measure_setup(SETUP_PER_PASS)
        passes.append(subprocess_pass(cmds, out_dir, digests))
        if not budget.another():
            break
    if len(setup) < SETUP_SAMPLES:
        setup += measure_setup(SETUP_SAMPLES - len(setup))
    walls = [sum(r.wall_s for r in p) for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in passes),
        "setup_s": statistics.median(setup),
    }
    extra = {"setup_s_samples": setup, "wall_s_samples": walls, "wall_s_high_percentile": high_percentile(walls)}
    return metrics, passes, extra


def measure_layers(cmds, out_dir: Path, digests, seconds: float, spans_path: Path) -> tuple[dict, list, dict]:
    """Untraced and traced in-process passes, alternating which goes first."""
    budget = Budget(seconds)
    modules = crlab_modules()
    tracer = tracing.Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    samples, passes, spans = [], [], []
    while True:
        order = (False, True) if len(passes) % 4 == 0 else (True, False)
        for traced in order:
            tracer.clear()
            counts: dict = {}
            runs = inprocess_pass(cmds, out_dir, digests, modules, tracer if traced else None, counts)
            walls[traced].append(sum(r.wall_s for r in runs))
            if traced:
                spans = tracer.spans()
                samples.append(layer_metrics(spans, counts))
            passes.append(runs)
        if not budget.another():
            break
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    tracing.write_spans(spans_path, spans)
    extra = {
        "traced_pass_walls": walls[True],
        "untraced_pass_walls": walls[False],
        "per_command": per_command_stats(spans, len(cmds)),
    }
    return metrics, passes, extra


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload, print the summary and the result line; the exit code."""
    if workload not in workloads.WORKLOADS:
        fail(f"unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    load_before = os.getloadavg()
    tag = f"{workload}-seed{seed}-trace{trace}"
    out_dir = OUT / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    cmds = workloads.commands(workload, seed, out_dir)
    digests = workloads.expected_digests(workload, seed)

    if trace:
        metrics, passes, extra = measure_layers(cmds, out_dir, digests, seconds, OUT / f"{tag}-spans.csv.gz")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics, passes, extra = measure_end_to_end(cmds, out_dir, digests, seconds)
        units = END_TO_END
    shutil.rmtree(out_dir)

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.problems)
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commands": [list(c.argv) for c in cmds],
        "digests_checked": digests is not None,
        "metrics": metrics,
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        **extra,
        "passes": [[asdict(r) for r in p] for p in passes],
        "environment": environment(load_before),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    report(detail)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report(detail: dict) -> None:
    """Human summary on stderr: every metric with its unit, failures, environment."""
    err = sys.stderr
    print(f"perfbench {detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
          f"{len(detail['passes'])} passes, {detail['attempted']} commands, {detail['failed']} failed "
          f"(failed_frac {detail['failed_frac']:g})", file=err)
    for name, value in detail["metrics"].items():
        print(f"  {name:48s} {value:14.6g} {detail['units'][name]}", file=err)
    if "wall_s_samples" in detail:
        hp = detail["wall_s_high_percentile"]
        n = len(detail["wall_s_samples"])
        high = f"p{hp[0]:.0f} {hp[1]:.4g} s" if hp else "no high percentile (needs >= 11 passes)"
        print(f"  wall_s: median of {n} passes; {high}", file=err)
    for p, runs in enumerate(detail["passes"]):
        for r in runs:
            if r["problems"]:
                print(f"  FAILED pass {p} command {r['index']}: {'; '.join(r['problems'])}", file=err)
    env = detail["environment"]
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()), file=err)

