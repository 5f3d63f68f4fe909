#!/usr/bin/env python3
"""Seeded benchmark of the sisa pipeline.

Run from the repository root:

    python3 bench/run.py --workload reviews --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all             # every workload, untraced and traced
    python3 bench/run.py --self-test

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; without ``--trace`` both runs are made. The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 when every output passed the correctness
gate, 1 when one did not, and 2 when the checkout lacks the program.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
REQUIRED = (
    "src/sisa/__init__.py",
    "tests/reference.py",
    "tests/treegen.py",
    "lists",
    "rules/sisa_default.rules",
)


def main() -> int:
    missing = [name for name in REQUIRED if not (REPO / name).exists()]
    if missing:
        print(f"bench: no sisa checkout at {REPO}: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for path in (BENCH, REPO / "tests", REPO / "src"):
        sys.path.insert(0, str(path))
    from harness import cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
