"""The skyup benchmark: one command, four workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-join --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, scaled
to a reference host speed (``hostspeed``); ``--trace 1`` repeats the
workload traced and prints the per-layer split.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; above it are a table and the
full run record (host fingerprint, seed, per-kind latencies).

The workload runs in a child process in its own process group.  The
parent passes SIGTERM/SIGINT on to it as SIGTERM (the child then closes
its engines) and kills the whole group if it has not ended 10 s later.
After the child ends the parent checks that no process of the group is
still alive: a survivor is killed and the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, SELF_METRIC, WORKLOADS  # noqa: E402
from spans import PARALLEL  # noqa: E402

CHILD_TIMEOUT_S = 150.0
TERM_GRACE_S = 10.0
ORPHAN_GRACE_S = 5.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", metavar="RESULT_JSON", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# -- child: runs one workload ---------------------------------------------------


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def child_main(args) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, str(ROOT / "src"))
    work = Path(args.child).parent
    from common import end_to_end, kind_breakdown, scaled
    from hostspeed import HostSpeed, steal_s

    steal0 = steal_s()
    host = HostSpeed()
    host.sample(3)
    import_s = import_seconds()
    if args.workload == "lint":
        import wl_lint

        res = wl_lint.run(ROOT, work, args.seconds, bool(args.trace), host)
    elif args.workload == "paper-join":
        import wl_paper

        res = wl_paper.run(args.seed, args.seconds, bool(args.trace), host)
    else:
        import wl_mix

        res = wl_mix.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), host)
    stats = res["stats"]
    out = {
        "attempted": stats.attempted,
        "failed": stats.failed,
        "wrong": res.get("wrong", []),
        "kinds": kind_breakdown(stats),
        "absent": res.get("absent", []),
        "host_slice_ms": host.slice_s * 1e3,
        "host_slices": len(host.samples),
        "scale": host.scale,
        "steal_s": steal_s() - steal0,
    }
    if args.trace:
        traced = res.get("traced_stats")
        if traced is not None:
            out["attempted"] += traced.attempted
            out["failed"] += traced.failed
            out["traced_kinds"] = kind_breakdown(traced)
        out["metrics"] = per_layer(res, stats, traced)
    else:
        raw = end_to_end(
            stats, import_s + res["setup_s"], res["peak_rss_kb"] / 1024.0
        )
        out["raw_metrics"] = raw
        out["metrics"] = scaled(raw, host.scale)
    Path(args.child).write_text(json.dumps(out))
    return 0


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter importing ``repro``.

    Part of set-up: an import cannot be repeated in one process, so it
    is timed in short-lived child processes.
    """
    from common import clock, median

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import repro"], cwd=ROOT,
                       env=env, check=True, timeout=60)
        times.append(clock() - t0)
    return median(times)


def per_layer(res, untraced, traced) -> dict:
    values = {name: 0.0 for name in PER_LAYER}
    if traced is None:  # the traced pass did not run (a check failed)
        return values
    selfs = dict(res.get("self", {}))
    values["shard.worker_busy_s"] = selfs.pop(PARALLEL, 0.0)
    for bucket, seconds in selfs.items():
        values[SELF_METRIC[bucket]] += seconds
    for name, value in res.get("layers", {}).items():
        values[name] = float(value)
    wall = res["traced_op_wall_s"]
    values["trace.wall_s"] = wall
    values["trace.residual_s"] = wall - sum(selfs.values())
    values["trace.dropped_spans"] = float(res.get("dropped_spans", 0))
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    split = sum(values[m] for m in SELF_METRIC.values())
    if abs(split + values["trace.residual_s"] - wall) > 1e-6 * max(1.0, wall):
        raise AssertionError("self times plus residual do not sum to wall")
    return values


# -- parent: supervises the child ------------------------------------------------


def host_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def survivors(pgid: int):
    from common import group_members

    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        alive = group_members(pgid)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.1)


def kill_group(pgid: int, sig) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def supervise(args, work: Path):
    """Run the child; returns (exit code, child result or None, message)."""
    result_path = work / "result.json"
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--child", str(result_path),
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=sys.stderr)
    pgid = proc.pid
    interrupted = []
    term_at = []

    def forward(signum, frame):
        # The workload process closes its engines, which stop their own
        # workers; the group is killed only if that takes too long.
        interrupted.append(signum)
        term_at.append(time.monotonic())
        proc.send_signal(signal.SIGTERM)

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    started = time.monotonic()
    timed_out = False
    try:
        while proc.poll() is None:
            now = time.monotonic()
            if not timed_out and now - started > CHILD_TIMEOUT_S:
                timed_out = True
                term_at.append(now)
                proc.send_signal(signal.SIGTERM)
            if term_at and now - term_at[0] > TERM_GRACE_S:
                kill_group(pgid, signal.SIGKILL)
            time.sleep(0.05)
        code = proc.returncode
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
        if proc.poll() is None:
            kill_group(pgid, signal.SIGKILL)
            proc.wait()
        left = survivors(pgid)
        if left:
            kill_group(pgid, signal.SIGKILL)
    if left:
        return 1, None, f"processes {left} outlived the workload; killed"
    if timed_out:
        return 1, None, f"workload exceeded {CHILD_TIMEOUT_S:.0f} s"
    if interrupted:
        return 128 + interrupted[0], None, "interrupted"
    if code != 0 or not result_path.exists():
        return 1, None, f"workload process exited with code {code}"
    return 0, json.loads(result_path.read_text()), ""


def print_table(args, host, child, metrics, units) -> None:
    print(f"skyup benchmark | workload {args.workload} | seed {args.seed} | "
          f"{args.seconds:g} s | trace {args.trace}")
    print(f"host: {host['cpus']} CPUs, {host['cpu_model']}, Python "
          f"{host['python']}, numpy {host['numpy']}")
    print(f"operations: attempted {child['attempted']}, failed "
          f"{child['failed']}, correct {'yes' if not child['wrong'] else 'NO'}")
    for msg in child["wrong"][:5]:
        print(f"  wrong: {msg}")
    print(f"host speed: median calibration slice "
          f"{child['host_slice_ms']:.2f} ms over {child['host_slices']} "
          f"slices, {child['steal_s']:.2f} CPU-s stolen; "
          + (f"times below are scaled by {child['scale']:.4f}"
             if "raw_metrics" in child else "per-layer figures unscaled"))
    raw = child.get("raw_metrics", {})
    print(f"{'metric':34s} {'value':>14s} {'measured':>14s}  unit")
    for name, value in metrics.items():
        measured = f"{raw[name]:14.6g}" if name in raw else " " * 14
        print(f"{name:34s} {value:14.6g} {measured}  {units[name]}")
    for label, kinds in (("per kind", child.get("kinds")),
                         ("per kind, traced", child.get("traced_kinds"))):
        for kind, row in (kinds or {}).items():
            tail = (f"  p95 {row['p95_ms']:.3f} ms" if "p95_ms" in row
                    else "")
            print(f"{label:17s} {kind:22s} n={row['n']:<6d} "
                  f"p50 {row['p50_ms']:.3f} ms{tail}")
    if child.get("absent"):
        print("absent (wrapped entry points not found): "
              + ", ".join(child["absent"]))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        code, child, message = supervise(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if child is None:
        print(f"error: {message}", file=sys.stderr)
        return code or 1
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: float(child["metrics"][name]) for name in units}
    host = host_fingerprint()
    print_table(args, host, child, metrics, units)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "wrong": child["wrong"],
        "kinds": child.get("kinds"),
        "traced_kinds": child.get("traced_kinds"),
        "absent": child.get("absent", []),
        "metrics": metrics,
        "raw_metrics": child.get("raw_metrics"),
        "host_slice_ms": child["host_slice_ms"],
        "host_slices": child["host_slices"],
        "scale": child["scale"],
        "steal_s": child["steal_s"],
    }
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not child["wrong"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
