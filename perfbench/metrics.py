"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same names; README.md
says what each one means on each workload.
"""

from __future__ import annotations

WORKLOADS = ("paper-join", "serve-mix", "shard-mix", "lint")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "first_result_ms": "ms",
    "p50_ms": "ms",
    "cold_p50_ms": "ms",
}

# Self-time bucket (see spans.BUCKETS) -> per-layer metric.
SELF_METRIC = {
    "rtree": "rtree.self_s",
    "dominators": "dominators.self_s",
    "bounds": "bounds.self_s",
    "upgrade": "upgrade.self_s",
    "join": "join.self_s",
    "pool": "pool.queue_wait_s",
    "cache": "cache.self_s",
    "plan": "plan.self_s",
    "guard": "guard.self_s",
    "engine.execute": "engine.execute_self_s",
    "engine.request": "engine.request_self_s",
    "write": "write.self_s",
    "shard.rpc": "shard.rpc_self_s",
    "shard.coordinator": "shard.coordinator_self_s",
    "shard.sync": "shard.sync_s",
    "lint.parse": "lint.parse_s",
    "lint.rules": "lint.rules_self_s",
    "lint.cli": "lint.cli_self_s",
    "flow.extract": "flow.extract_s",
    "flow.analysis": "flow.analysis_s",
    "flow.cache": "flow.cache_load_s",
    "other": "other.self_s",
}

PER_LAYER = {
    "rtree.node_accesses": "count",
    "rtree.self_s": "s",
    "dominators.self_s": "s",
    "bounds.self_s": "s",
    "bounds.lbc_evaluations": "count",
    "upgrade.self_s": "s",
    "join.self_s": "s",
    "join.heap_pops": "count",
    "join.upgrade_calls_first": "count",
    "join.upgrade_calls_top20": "count",
    "pool.queue_wait_p50_ms": "ms",
    "pool.queue_wait_s": "s",
    "cache.skyline_hit_rate": "ratio",
    "cache.topk_hit_rate": "ratio",
    "cache.invalidations": "count",
    "cache.self_s": "s",
    "plan.self_s": "s",
    "plan.replans": "count",
    "guard.checks": "count",
    "guard.recompute_s": "s",
    "guard.self_s": "s",
    "engine.execute_self_s": "s",
    "engine.request_self_s": "s",
    "write.self_s": "s",
    "shard.rpc_p50_ms": "ms",
    "shard.rpc_self_s": "s",
    "shard.scatter_rounds": "count",
    "shard.coordinator_upgrade_calls": "count",
    "shard.coordinator_self_s": "s",
    "shard.worker_busy_s": "s",
    "shard.hedges": "count",
    "shard.sync_s": "s",
    "lint.parse_s": "s",
    "lint.rules_self_s": "s",
    "lint.cli_self_s": "s",
    "flow.extract_s": "s",
    "flow.analysis_s": "s",
    "flow.cache_load_s": "s",
    "flow.summaries_reused": "count",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.dropped_spans": "count",
    "trace.overhead_s": "s",
}
