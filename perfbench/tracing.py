"""In-memory span tracing of crlab, installed from outside the package.

The tracer replaces selected crlab functions with timing wrappers in every
module global (and class attribute) that holds them. crlab modules import
each other by name (``from .core_arith import factorize``), so a function
has one binding per importing module and each is patched.

A span is ``(id, parent, name, thread, command, start, end, work)``. The
parent is the top of the calling thread's span stack. Work submitted through
``parallel.ordered_parallel_map`` runs under the map's span on whichever
pool thread picks it up, so spans on worker threads keep their parent.

Self time is a span's duration minus the part of it that its children
cover (the union of their intervals, since children on two threads can
overlap). The pool map is *transparent*: it reports its own total, but it
is not a child of its caller and its children count as the caller's, so
``build_table`` keeps the row sieve it hands to the pool as self time.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

# Functions traced, by crlab module: the layer boundaries the per-layer
# metrics name, plus public helpers called between them so that a caller's
# self time does not absorb them. Left out are argument validators
# (check_exponent) and the thin per-r wrappers around factorize (tau_s,
# jordan_totient): each is called once per r, 10^5 times in a series pass,
# and a span costs about a microsecond. Names a later version of crlab no
# longer has are skipped, and their metrics read 0.
TRACED: dict[str, tuple[str, ...]] = {
    "core_arith": (
        "factorize", "divisors", "mobius", "mobius_range", "gcd_s", "klee_phi",
        "sigma_ks", "sigma_real", "zeta", "harmonic_sum",
    ),
    "cr_sum": (
        "cr_sum_exact", "cr_sum_period_row", "s_reduced_residues", "cr_sum_exponential",
        "orthogonality_value", "cr_values_fixed_n", "build_table", "CRSumTable.to_csv_text",
    ),
    "expansion": (
        "sigma_expansion", "evaluate", "mean_value_coefficient", "shift_coefficients",
        "tau_weighted_norm", "coefficients_to_csv_text",
    ),
    "asymptotics": (
        "correlation_sum", "theorem1_main", "theorem2_main", "decompose_h", "corollary_main",
        "sigma_power_array", "corollary_lhs", "run_correlation_report", "build_lemma_grid",
        "lemma_check", "CorrelationReport.to_json_text", "CorrelationReport.to_csv_text",
        "LemmaCheckReport.to_json_text", "LemmaCheckReport.to_csv_text",
    ),
    "parallel": ("ordered_parallel_map",),
    "cli": ("main",),
}

POOL_MAP = "parallel.ordered_parallel_map"
TRANSPARENT = frozenset({POOL_MAP})

# Work done by one call, for the throughput metrics: result -> amount.
WORK: dict[str, Callable[[Any], int]] = {
    "cr_sum.build_table": lambda table: table.r_max * (table.n_max + 1),  # cells
    "cr_sum.CRSumTable.to_csv_text": len,  # bytes (the text is ASCII)
    "asymptotics.sigma_power_array": lambda arr: len(arr) - 1,  # n
    "asymptotics.run_correlation_report": lambda report: report.records[-1].n_limit,  # n accumulated
    "asymptotics.lemma_check": lambda report: sum(e.n_limit for e in report.entries),  # product-sum terms
    POOL_MAP: len,  # items
}

# lru_cache-wrapped functions whose hit ratio is reported.
CACHED = ("core_arith.factorize", "cr_sum.cr_sum_period_row")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    name: str
    thread: int
    cmd: int
    start: float
    end: float
    work: int = 0


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], transparent: frozenset[str] = TRANSPARENT) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    by_id = {sp.sid: sp for sp in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.name in transparent:
            continue
        parent = sp.parent
        while parent in by_id and by_id[parent].name in transparent:
            parent = by_id[parent].parent
        children[parent].append((sp.start, sp.end))
    return {
        sp.sid: (sp.end - sp.start) - covered(children.get(sp.sid, ()), sp.start, sp.end)
        for sp in spans
    }


def function_stats(
    spans: list[Span], cmd: int | None = None, selfs: dict[int, float] | None = None
) -> dict[str, FunctionStats]:
    """Calls, total time, self time and work per traced function name.

    With cmd given, only spans of that command count. selfs, when given,
    are the self_times of spans, computed once for several calls.
    """
    if selfs is None:
        selfs = self_times(spans)
    stats: dict[str, FunctionStats] = defaultdict(FunctionStats)
    for sp in spans:
        if cmd is not None and sp.cmd != cmd:
            continue
        st = stats[sp.name]
        st.calls += 1
        st.total_s += sp.end - sp.start
        st.self_s += selfs[sp.sid]
        st.work += sp.work
    return dict(stats)


class Tracer:
    """Collects spans from wrapped crlab functions while installed."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.cmd = 0
        self._local = threading.local()
        # next() on itertools.count is a single C call, atomic under the GIL.
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [0]
            return self._local.stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return fn timed as span `name`."""
        records = self.records
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter
        ident = threading.get_ident
        work_of = WORK.get(name)
        pool = name == POOL_MAP
        tracer = self

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            if pool:
                args = (tracer._adopt(sid, args[0]),) + args[1:]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = work_of(result) if work_of is not None and result is not None else 0
                records.append((sid, parent, name, ident(), tracer.cmd, start, end, work))

        traced.__wrapped__ = fn
        return traced

    def _adopt(self, sid: int, fn: Callable) -> Callable:
        """fn run with span sid as parent, on whatever thread calls it."""
        stack_of = self._stack

        def adopted(item):
            stack = stack_of()
            stack.append(sid)
            try:
                return fn(item)
            finally:
                stack.pop()

        return adopted

    def install(self, modules: dict[str, Any]) -> None:
        """Patch every binding of each TRACED function in the given modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, names in TRACED.items():
            home = modules.get(mod_name)
            if home is None:
                continue
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                if owner is None or attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                wrapper = self.wrap(f"{mod_name}.{qual}", original)
                targets = [owner] if owner_name else list(modules.values())
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, key, value))
                            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    def spans(self) -> list[Span]:
        return [Span(*rec) for rec in self.records]

    def clear(self) -> None:
        self.records.clear()


def write_spans(path: Path, spans: list[Span]) -> None:
    """Write spans as gzip'd CSV: id,parent,name,thread,cmd,start,end,work."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write("id,parent,name,thread,cmd,start,end,work\n")
        handle.writelines(
            f"{sp.sid},{sp.parent},{sp.name},{sp.thread},{sp.cmd},{sp.start!r},{sp.end!r},{sp.work}\n"
            for sp in spans
        )
