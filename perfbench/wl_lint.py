"""``lint``: ``skyup lint`` and ``skyup lint --deep`` over a fixed corpus.

The corpus (``corpus/lint-corpus.tar.gz``) is a frozen copy of the
repository's ``src/`` and ``tests/`` trees; README.md has
the command that regenerates it.  It is unpacked at set-up.

One operation is one lint pass, each command a fresh
``python -m repro lint`` process as a developer runs it:

1. ``skyup lint`` (the lexical rules; its report is the pass's first
   result);
2. ``skyup lint --deep`` with an empty summary cache (the cold part);
3. in traced runs only, ``skyup lint --deep`` again on the warm cache,
   for the summary cache's per-layer figures.  Untraced runs leave it
   out: a pass of two commands fits three or four times into a run
   instead of two, and no end-to-end metric reads the warm step.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

from common import Op, RunStats, clock, median, own_peak_kb, waited_children_peak_kb

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus" / "lint-corpus.tar.gz"
SETUP_REPEATS = 5
#: Calibration slices after each lint command (hostspeed): a command
#: lasts seconds, so more slices track the host over it.
SLICES_PER_COMMAND = 8
STEP_TIMEOUT_S = 150.0

#: Seeded defects of the flow fixtures, pinned as (rule, path, line).
FIXTURES = {
    "annot": [
        ("SKY1003", "src/repro/annot.py", 16),
        ("SKY101", "src/repro/annot.py", 20),
        ("SKY101", "src/repro/annot.py", 24),
        ("SKY101", "src/repro/annot.py", 28),
        ("SKY1003", "src/repro/annot.py", 38),
    ],
    "benign": [],
    "blocking": [
        ("SKY1004", "src/repro/blocky.py", 19),
        ("SKY1004", "src/repro/blocky.py", 23),
        ("SKY1004", "src/repro/blocky.py", 27),
        ("SKY1004", "src/repro/blocky.py", 34),
    ],
    "crossfn": [
        ("SKY101", "src/repro/crossfn.py", 31),
        ("SKY101", "src/repro/crossfn.py", 34),
        ("SKY101", "src/repro/crossfn.py", 35),
    ],
    "deadline": [("SKY1005", "src/repro/shard/svc.py", 21)],
    "races": [
        ("SKY1001", "src/repro/racy.py", 31),
        ("SKY1002", "src/repro/racy.py", 71),
    ],
}


class LintMismatch(Exception):
    """A lint report differs from the pinned expectation."""


def _env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _check_report(label, stdout, code, expect, stderr=""):
    """Compare one JSON lint report with the pinned findings."""
    try:
        report = json.loads(stdout)
        found = [(f["rule"], f["path"], f["line"]) for f in report["findings"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise LintMismatch(
            f"unreadable report from {label}: {exc!r}; "
            f"stderr: {stderr.strip()[-400:]}"
        ) from exc
    if found != expect or code != (1 if expect else 0):
        raise LintMismatch(
            f"{label}: exit {code}, found {found[:5]}, expected {expect[:5]}"
        )


def lint(checkout: Path, root: Path, args, expect, traced_out=None):
    """Run one lint command and check its JSON report; returns seconds."""
    if traced_out is None:
        cmd = [sys.executable, "-m", "repro", "lint"]
    else:
        cmd = [sys.executable, str(HERE / "lint_traced.py"), str(traced_out)]
    cmd += ["--root", str(root), "--format", "json", *args]
    t0 = clock()
    proc = subprocess.run(
        cmd, cwd=checkout, env=_env(checkout), capture_output=True,
        text=True, timeout=STEP_TIMEOUT_S,
    )
    seconds = clock() - t0
    _check_report(f"lint {' '.join(args)} on {root.name}", proc.stdout,
                  proc.returncode, expect, proc.stderr)
    return seconds


STEPS = ("lint", "deep_cold", "deep_warm")


def one_pass(checkout: Path, corpus: Path, cache: Path, steps: int,
             traced_dir=None, host=None) -> Op:
    """One pass of the first ``steps`` commands.

    ``host`` runs calibration slices after each command.
    """
    shutil.rmtree(cache, ignore_errors=True)
    deep = ["--deep", "--cache-dir", str(cache)]
    times = []
    for name, args in zip(STEPS[:steps], ([], deep, deep)):
        out = traced_dir / f"{name}.json" if traced_dir is not None else None
        times.append(lint(checkout, corpus, args, [], out))
        if host is not None:
            host.maybe_sample(SLICES_PER_COMMAND)
    return Op(
        "pass",
        sum(times),
        times[0],
        cold_s=times[1],
        parts=dict(zip(STEPS, times)),
    )


def check_fixtures(checkout: Path, corpus: Path) -> None:
    base = corpus / "tests" / "fixtures" / "flow"
    proc = subprocess.run(
        [sys.executable, str(HERE / "lint_fixtures.py"), str(base),
         *FIXTURES],
        cwd=checkout, env=_env(checkout), capture_output=True, text=True,
        timeout=STEP_TIMEOUT_S,
    )
    try:
        reports = json.loads(proc.stdout)
    except ValueError as exc:
        raise LintMismatch(
            f"fixture lint printed no report: {exc!r}; "
            f"stderr: {proc.stderr.strip()[-400:]}"
        ) from exc
    for case, expect in FIXTURES.items():
        got = reports.get(case, {})
        _check_report(f"lint --deep on fixture {case}", got.get("report", ""),
                      got.get("code"), expect)


def run(checkout: Path, work: Path, seconds: float, traced: bool,
        host) -> dict:
    times = []
    for i in range(SETUP_REPEATS):
        target = work / f"corpus-{i}"
        t0 = clock()
        with tarfile.open(CORPUS) as tar:
            tar.extractall(target, filter="data")
        times.append(clock() - t0)
    corpus = target
    cache = work / "flow-cache"

    wrong = []
    stats = RunStats()
    steps = 3 if traced else 2
    deadline = clock() + (seconds / 2 if traced else seconds)
    start, spent = clock(), host.spent_s
    try:
        while True:
            try:
                stats.ops.append(one_pass(checkout, corpus, cache, steps,
                                          host=host))
            except LintMismatch as exc:
                wrong.append(str(exc))
                break
            # A pass takes seconds: stop when another would end closer
            # past the deadline than this one ends before it.
            pass_s = median([op.latency_s for op in stats.ops])
            if clock() + pass_s / 2 >= deadline:
                break
        stats.wall_s = clock() - start - (host.spent_s - spent)
        check_fixtures(checkout, corpus)
    except LintMismatch as exc:
        wrong.append(str(exc))
    result = {
        "setup_s": median(times),
        "stats": stats,
        "wrong": wrong,
        "peak_rss_kb": own_peak_kb() + waited_children_peak_kb(),
        "layers": {},
        "absent": [],
    }
    if traced and not wrong:
        _traced_pass(checkout, corpus, cache, work, len(stats.ops), steps,
                     result)
    return result


def _traced_pass(checkout, corpus, cache, work, passes, steps,
                 result) -> None:
    out_dir = work / "traced"
    out_dir.mkdir(exist_ok=True)
    traced = RunStats()
    selfs = {}
    dropped = 0
    absent = set()
    layers = {}
    start = clock()
    for _ in range(passes):
        try:
            traced.ops.append(one_pass(checkout, corpus, cache, steps,
                                       out_dir))
        except LintMismatch as exc:
            result["wrong"].append(str(exc))
            return
        for step in STEPS:
            rec = json.loads((out_dir / f"{step}.json").read_text())
            for b, v in rec["self"].items():
                selfs[b] = selfs.get(b, 0.0) + v
            dropped += rec["dropped_spans"]
            absent.update(rec["absent"])
            if step == "deep_warm" and "summary_hits" in rec:
                layers["flow.summaries_reused"] = rec["summary_hits"]
    traced.wall_s = clock() - start
    if "flow.summaries_reused" not in layers:
        absent.add("flow.summaries_reused")
    result.update(
        traced_stats=traced,
        traced_op_wall_s=sum(op.latency_s for op in traced.ops),
        self=selfs,
        dropped_spans=dropped,
        absent=sorted(absent),
        layers=layers,
    )
