"""Run one crlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table --seed 1 --seconds 55 --trace 0

With --trace 0 every command of the workload runs as a fresh
`python -m crlab.cli` child, one at a time, in passes until --seconds have
gone by (the pass under way is finished). It reports end-to-end metrics:
the median pass wall time, the median over passes of the largest per-child
peak RSS, and the median start-up time of a fresh interpreter that imports
crlab.cli. With --trace 1 the same commands run in this process through
crlab.cli.main, alternately untraced and traced, and the traced passes give
the per-layer metrics (see tracing.py).

Every command's outputs are checked (see workloads.py); a command fails on
an unexpected exit code, a failed check or the per-command timeout. A human
summary with the run environment goes to stderr and, with the per-pass
detail, to perfbench/out/<workload>-seed<n>-trace<t>.json. The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}.

crlab is imported from src/ of the checkout holding this directory; without
it the run stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one crlab benchmark workload.")
    parser.add_argument("--workload", required=True, help="table, correlate, lemmas or series")
    parser.add_argument("--seed", type=int, default=0, help="picks the workload's parameters")
    parser.add_argument("--seconds", type=float, default=55.0, help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "crlab" / "cli.py").is_file():
        print(f"perfbench: no crlab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crlab

    if Path(crlab.__file__).resolve().parent != (SRC / "crlab").resolve():
        print(f"perfbench: imported crlab from {crlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
