"""Make the benchmark's modules and the checkout's crlab importable.

These tests are not part of the repository's tier-1 suite (pytest's
testpaths is tests/); run them with `python3 -m pytest perfbench/tests`.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)
