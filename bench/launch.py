"""Run a command and report its wall time and peak RSS.

    python3 bench/launch.py REPORT_PATH PROGRAM [ARG ...]

The command inherits this process's stdin, stdout and stderr. When it ends,
one JSON object ``{"wall_s", "peak_rss_mb", "returncode"}`` is written to
REPORT_PATH, and this process exits with the command's exit code.

The benchmark starts its CLI children through this small process rather than
directly: a child's peak RSS counts the memory of the process that spawned
it, and the benchmark's own process holds far more than this one.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    report_path, program, *args = argv
    start = time.perf_counter()
    pid = os.posix_spawnp(program, [program, *args], os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with open(report_path, "w", encoding="utf-8") as report:
        json.dump({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "returncode": code}, report)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
