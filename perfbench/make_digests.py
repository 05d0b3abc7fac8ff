"""Record the SHA-256 of every output file of the default seed.

    python3 perfbench/make_digests.py

Runs each workload's default-seed commands once, refuses to write if any
command fails its checks, and writes perfbench/digests.json. Run it only
when an output format is meant to change: the benchmark compares against
these digests to hold crlab to byte-identical outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    digests = {}
    for workload in workloads.WORKLOADS:
        out_dir = harness.OUT / f"digests-{workload}"
        out_dir.mkdir(parents=True, exist_ok=True)
        cmds = workloads.commands(workload, workloads.DEFAULT_SEED, out_dir)
        runs = harness.subprocess_pass(cmds, out_dir, None)
        problems = [p for r in runs for p in r.problems]
        if problems:
            print(f"{workload}: " + "; ".join(problems), file=sys.stderr)
            return 1
        digests[workload] = {
            name: workloads.sha256_file(out_dir / name) for cmd in cmds for name in cmd.outputs
        }
        shutil.rmtree(out_dir)
        print(f"{workload}: {len(digests[workload])} files", file=sys.stderr)
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
