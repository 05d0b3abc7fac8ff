"""Summarize the runs under perfbench/out into one JSON document.

    python3 perfbench/summarize.py > summary.json

For every workload: each end-to-end metric's median, quartiles and spread
(quartile distance over the median) across the runs made with --trace 0,
the median of each per-layer metric across the runs made with --trace 1,
and the failure fraction. A traced table and numeric run also give the
single-call figures the project's first baseline quoted: build_table(300,
20000, s=2), the CSV export of that table, and sigma_power_array(1e6).
perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def single_calls(traced: list[dict]) -> list[dict]:
    """Per-call figures from the traced runs, one median over runs each."""
    wanted = [
        ("build_table(300, n_max ~20000, s=2)", "table", "--r 300", "cr_sum.build_table"),
        ("CSV export of that table", "table", "--r 300", "cr_sum.CRSumTable.to_csv_text"),
        ("sigma_power_array(~1e6), per call", "numeric", "corollary", "asymptotics.sigma_power_array"),
    ]
    rows = []
    for label, workload, marker, func in wanted:
        values = []
        for run in traced:
            if run["workload"] != workload:
                continue
            for argv, stats in zip(run["commands"], run["per_command"]):
                if marker in " ".join(argv) and func in stats:
                    values.append(stats[func]["total_s"] / stats[func]["calls"])
        if values:
            rows.append({"call": label, "seconds_median": statistics.median(values), "samples": len(values)})
    return rows


def main() -> int:
    runs = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    if not runs:
        print(f"no runs under {OUT}", file=sys.stderr)
        return 1
    summary: dict = {"environment": runs[-1]["environment"], "workloads": {}}
    for workload in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        entry: dict = {
            "seeds": sorted({r["seed"] for r in plain}),
            "failed_frac": sum(r["failed"] for r in runs if r["workload"] == workload)
            / sum(r["attempted"] for r in runs if r["workload"] == workload),
        }
        if plain:
            entry["end_to_end"] = {
                name: dict(spread([r["metrics"][name] for r in plain]), unit=plain[0]["units"][name])
                for name in plain[0]["metrics"]
            }
        if traced:
            entry["per_layer_seeds"] = sorted({r["seed"] for r in traced})
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name] for r in traced) for name in traced[0]["metrics"]
            }
        summary["workloads"][workload] = entry
    summary["single_calls"] = single_calls([r for r in runs if r["trace"] == 1])
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
