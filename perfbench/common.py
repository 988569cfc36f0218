"""Shared pieces of the skyup benchmark: inputs, statistics, memory, ops.

Every workload module builds its inputs here with numpy alone, so the
program under test receives only generated arrays.  A catalog's point
set is fixed (the paper's layout at its seed 2012, as in its figures).
In ``paper-join`` the run's ``--seed`` decides the order of its product
rows, and so every product id; in the request mixes it draws the
operation sequences, over the rows in their generated order.  A fixed
point set keeps the work per run comparable: on fresh point sets the
sharded top-k cost alone varies fourfold from seed to seed (README).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

clock = time.perf_counter


CATALOG_SEED = 2012


def paper_layout(n_p: int, n_t: int, dims: int, seed: int):
    """The paper's synthetic layout (§IV), independent distribution.

    Competitors ``P`` are uniform in ``[0, 1]^dims``; products ``T`` are
    uniform in ``(1, 2]^dims``, so every competitor dominates every
    product at the start.
    """
    rng = np.random.default_rng(seed)
    competitors = rng.random((n_p, dims))
    products = 1.0 + np.maximum(rng.random((n_t, dims)), 1e-9)
    return competitors, products


def catalog(n_p: int, n_t: int, dims: int, seed: int):
    """The fixed paper-layout point set, product rows shuffled by ``seed``.

    Competitor rows keep their order: the sharded engine partitions
    competitors by record id, and its top-k cost depends strongly on
    that partition (README).
    """
    competitors, products = paper_layout(n_p, n_t, dims, CATALOG_SEED)
    rng = np.random.default_rng([seed, CATALOG_SEED])
    return competitors, products[rng.permutation(n_t)]


@dataclass
class Op:
    """One client-visible operation and what it returned."""

    kind: str
    latency_s: float
    first_s: float
    cold_s: Optional[float] = None
    parts: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class RunStats:
    """Operations of one measured pass, plus the wall time they took."""

    ops: List[Op] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error is not None)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by the nearest-rank rule (no interpolation)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(stats: RunStats, setup_s: float, peak_rss_mb: float):
    """The six end-to-end metrics of one untraced pass.

    ``first_result_ms`` and ``p50_ms`` are medians over successful
    operations; ``cold_p50_ms`` over the cold part of the operations
    that have one (the work that could reuse nothing done before).
    ``ops_per_s`` counts completed operations over the pass's wall time.
    """
    ok = [op for op in stats.ops if op.error is None]
    cold = [op.cold_s * 1e3 for op in ok if op.cold_s is not None]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": len(ok) / stats.wall_s if stats.wall_s else 0.0,
        "first_result_ms": median([op.first_s * 1e3 for op in ok]),
        "p50_ms": median([op.latency_s * 1e3 for op in ok]),
        "cold_p50_ms": median(cold),
    }


def scaled(metrics: Dict[str, float], scale: float) -> Dict[str, float]:
    """End-to-end metrics in reference time (see ``hostspeed``).

    Times are multiplied by ``scale`` and rates divided by it; memory is
    left as measured.
    """
    out = dict(metrics)
    for name in ("setup_s", "first_result_ms", "p50_ms", "cold_p50_ms"):
        out[name] = metrics[name] * scale
    out["ops_per_s"] = metrics["ops_per_s"] / scale
    return out


def kind_breakdown(stats: RunStats) -> Dict[str, Dict[str, float]]:
    """Per-kind sample count and median latency (ms), for the table.

    The row ``all`` adds the 95th percentile when at least ten samples
    lie beyond it.
    """
    kinds: Dict[str, List[float]] = {}
    for op in stats.ops:
        if op.error is None:
            kinds.setdefault(op.kind, []).append(op.latency_s * 1e3)
            for part, seconds in op.parts.items():
                kinds.setdefault(f"{op.kind}.{part}", []).append(seconds * 1e3)
    out = {
        k: {"n": len(v), "p50_ms": round(median(v), 4)}
        for k, v in sorted(kinds.items())
    }
    lat = [op.latency_s * 1e3 for op in stats.ops if op.error is None]
    if len(lat) >= 200:
        out["all"] = {
            "n": len(lat),
            "p50_ms": round(median(lat), 4),
            "p95_ms": round(nearest_rank(lat, 0.95), 4),
        }
    return out


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def own_peak_kb() -> int:
    """Peak resident set of this process (VmHWM), in KiB."""
    peak = _status_kb(os.getpid(), "VmHWM")
    return peak or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            out.append(int(name))
    return out


def helper_peak_kb() -> int:
    """Summed peak RSS of the other live processes in this group.

    Shard workers and the multiprocessing resource tracker live here
    while a sharded engine is open.
    """
    me = os.getpid()
    return sum(
        _status_kb(pid, "VmHWM")
        for pid in group_members(os.getpgrp())
        if pid != me
    )


def waited_children_peak_kb() -> int:
    """Largest peak RSS among children this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
