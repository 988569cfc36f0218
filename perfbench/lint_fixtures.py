"""``skyup lint --deep`` on every flow fixture, in one process.

Usage: ``python perfbench/lint_fixtures.py BASE CASE...`` with ``src``
on ``PYTHONPATH``.  Runs the CLI as ``python -m repro lint --root
BASE/CASE --format json --deep --cache-dir none`` would, once per case,
and prints one JSON object mapping each case to its exit code and
report.  One interpreter for all cases keeps the correctness check
short; the timed lint commands each start their own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path


def main(argv) -> int:
    from repro.cli import main as cli_main

    base, cases = Path(argv[0]), argv[1:]
    out = {}
    for case in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["lint", "--root", str(base / case),
                             "--format", "json", "--deep",
                             "--cache-dir", "none"])
        out[case] = {"code": code, "report": buf.getvalue()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
