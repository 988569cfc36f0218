"""Traced runs: wrappers around un-instrumented entry points, and the
self-time split of the recorded span trees.

The program already records spans through :mod:`repro.obs`.  Entry
points that record none (``pair_bounds_block``, the shard scatter, the
coordinator's Algorithm 1, ``ast.parse``, ``FlowCache``, ...) are wrapped
here, where the program imports them, with a function that opens a
:func:`repro.obs.span` of its own.  The wrappers are installed only in
traced runs; a target that no longer exists is reported absent.

A span's *self time* is its duration minus the part of it that its
children cover.  Each span belongs to one bucket, named after the layer
it measures; the buckets' self times plus the residual equal the wall
time of the traced operations.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Bucket of spans that ran in parallel with the traced operation: the
#: shard workers' fragments, replayed into the coordinator's trace.  They
#: are left out of the self-time split (their time overlaps the
#: coordinator's RPC wait) and summed apart as worker busy time.
PARALLEL = "parallel"

# Span name prefix -> bucket.  First match wins; the rest go to "other".
BUCKETS: List[Tuple[str, str]] = [
    ("engine.plan", "plan"),
    ("engine.queue_wait", "pool"),
    ("engine.execute", "engine.execute"),
    ("engine.request", "engine.request"),
    ("rtree.", "rtree"),
    ("join.leaf_skyline", "dominators"),
    ("dominators.", "dominators"),
    ("skyline.", "dominators"),
    ("bounds.", "bounds"),
    ("upgrade.", "upgrade"),
    ("join.", "join"),
    ("cache.", "cache"),
    ("guard.", "guard"),
    ("shard.rpc", "shard.rpc"),
    ("shard.scatter_round", "shard.coordinator"),
    ("shard.sync", "shard.sync"),
    ("shard.hedge", "shard.rpc"),
    ("shard.", PARALLEL),
    ("write.", "write"),
    ("lint.parse", "lint.parse"),
    ("lint.rule", "lint.rules"),
    ("lint.", "lint.cli"),
    ("flow.extract", "flow.extract"),
    ("flow.analysis", "flow.analysis"),
    ("flow.cache", "flow.cache"),
]


def bucket_of(name: str) -> str:
    for prefix, bucket in BUCKETS:
        if name.startswith(prefix):
            return bucket
    return "other"


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: Iterable) -> Dict[str, float]:
    """Summed self time per bucket over one trace's spans.

    Spans of the :data:`PARALLEL` bucket report their summed duration
    and neither have nor give self time.
    """
    spans = [sp for sp in spans if sp.t1 > 0.0]  # unclosed: no extent
    kids: Dict[int, List[Tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0 and bucket_of(sp.name) != PARALLEL:
            kids.setdefault(sp.parent, []).append((sp.t0, sp.t1))
    out: Dict[str, float] = {}
    for sp in spans:
        b = bucket_of(sp.name)
        own = sp.t1 - sp.t0
        if b != PARALLEL:
            own -= _covered(kids.get(sp.index, []), sp.t0, sp.t1)
        out[b] = out.get(b, 0.0) + own
    return out


class Patcher:
    """Installs span-opening wrappers and remembers what it replaced."""

    def __init__(self, span: Callable):
        self._span = span
        self._undo: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    def wrap(self, owner: object, attr: str, span_name: str, label: str) -> None:
        """Replace ``owner.attr`` by a wrapper timing it as ``span_name``."""
        target = getattr(owner, attr, None)
        if target is None or not callable(target):
            self.absent.append(label)
            return
        span = self._span

        @functools.wraps(target)
        def timed(*args, **kwargs):
            with span(span_name):
                return target(*args, **kwargs)

        self._undo.append((owner, attr, target))
        setattr(owner, attr, timed)

    def replace(self, owner: object, attr: str, value: object, label: str) -> None:
        """Replace ``owner.attr`` by ``value`` (restored by :meth:`restore`)."""
        if getattr(owner, attr, None) is None:
            self.absent.append(label)
            return
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def wrap_core(patch: Patcher) -> None:
    """Time the bound and Algorithm 1 entry points the join calls.

    ``pair_bounds_block`` is wrapped in ``core.bounds`` (where it is
    imported); the join's own imports of the scalar ``lbc``, the batched
    ``pair_bounds_vector``, ``join_list_bound`` and ``upgrade`` are
    wrapped in ``core.join``, so the list-to-array conversions around
    them are charged to the layer they serve.
    """
    bounds = import_attr("repro.core.bounds.pair_bounds_block")
    join = import_attr("repro.core.join.JoinUpgrader")
    if bounds is None or join is None:
        patch.absent.append("repro.core.bounds / repro.core.join")
        return
    import repro.core.bounds as bounds_mod
    import repro.core.join as join_mod

    patch.wrap(bounds_mod, "pair_bounds_block", "bounds.pair_bounds_block",
               "repro.core.bounds.pair_bounds_block")
    for attr, span_name in (
        ("lbc", "bounds.lbc"),
        ("pair_bounds_vector", "bounds.pair_bounds_vector"),
        ("join_list_bound", "bounds.join_list_bound"),
        ("upgrade", "upgrade.call"),
    ):
        patch.wrap(join_mod, attr, span_name, f"repro.core.join.{attr}")


def import_attr(path: str) -> Optional[object]:
    """``module.attr`` by dotted path, or None when it no longer exists."""
    import importlib

    module, _, attr = path.rpartition(".")
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None
