"""Run a command and hold its peak RSS to a limit.

Usage: python .github/peak_rss.py LABEL LIMIT_MB COMMAND [ARG ...]

Prints "LABEL peak RSS <x> MB" and exits with the command's exit code, or
with 1 when the command exited 0 but its peak RSS passed LIMIT_MB. The
launcher imports only os and sys and starts the command with posix_spawnp,
because a child's ru_maxrss starts at its parent's RSS.
"""

import os
import sys

label, limit, *command = sys.argv[1:]
pid = os.posix_spawnp(command[0], command, os.environ)
_, status, use = os.wait4(pid, 0)
mb = use.ru_maxrss * 1024 / 1e6
print(f"{label} peak RSS {mb:.1f} MB")
sys.exit(os.waitstatus_to_exitcode(status) or mb > float(limit))
