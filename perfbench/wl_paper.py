"""``paper-join``: the paper's own question, time to the top-k.

The d = 5 point of the paper's fig7c (independent, |P| = 2000,
|T| = 200, d = 5, seed 2012, product rows in the order the run's seed
picks) is loaded into a ``MarketSession`` and read progressively
through ``session.stream()`` up to the 20th result.  One operation is
one such read; its first result is the 1st streamed upgrade.  One
untimed read warms the session before the timed ones.

The fig11 point (|P| = 10000, |T| = 1000) takes seconds a read, too
few reads for a steady median in one run (README).
"""

from __future__ import annotations

from common import Op, RunStats, catalog, clock, median, own_peak_kb
from reference import Oracle, check_ranking, self_check

N_P, N_T, DIMS, K = 2_000, 200, 5, 20
SETUP_REPEATS = 5


def _read_top(session, k: int, on_result=None):
    t0 = clock()
    first = None
    answer = []
    stream = session.stream()
    try:
        for r in stream:
            if first is None:
                first = clock() - t0
            answer.append((r.record_id, r.cost, r.upgraded))
            if on_result is not None:
                on_result(len(answer))
            if len(answer) == k:
                break
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()
    total = clock() - t0
    return Op("stream", total, first or 0.0, cold_s=total), answer


def run(seed: int, seconds: float, traced: bool, host) -> dict:
    from repro import MarketSession

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        competitors, products = catalog(N_P, N_T, DIMS, seed)
        session = MarketSession.from_points(competitors, products)
        times.append(clock() - t0)
    setup_s = median(times)

    oracle = Oracle(competitors, products)
    self_check(oracle, K)
    _, answer = _read_top(session, K)  # warm-up, not timed
    check_ranking(oracle, answer, K)

    stats = RunStats()
    deadline = clock() + (seconds / 2 if traced else seconds)
    start, spent = clock(), host.spent_s
    while True:
        op, answer = _read_top(session, K)
        check_ranking(oracle, answer, K)
        stats.ops.append(op)
        if clock() >= deadline:
            break
        host.maybe_sample()
    stats.wall_s = clock() - start - (host.spent_s - spent)
    result = {"setup_s": setup_s, "stats": stats, "layers": {}, "absent": []}
    result["peak_rss_kb"] = own_peak_kb()
    if traced:
        _traced_pass(session, oracle, stats, result)
    return result


def _traced_pass(session, oracle, untraced: RunStats, result: dict) -> None:
    from repro import MarketSession
    from repro.obs import Trace, activate, span

    from spans import Patcher, self_times, wrap_core

    patch = Patcher(span)
    wrap_core(patch)
    upgraders = []
    make = getattr(MarketSession, "make_upgrader", None)
    if make is not None:
        def capturing(self, *a, **kw):
            up = make(self, *a, **kw)
            upgraders.append(up)
            return up
        patch.replace(MarketSession, "make_upgrader", capturing,
                      "MarketSession.make_upgrader")
    marks = {}

    def on_result(n):
        stats = getattr(upgraders[-1], "stats", None) if upgraders else None
        if stats is not None and n in (1, K):
            marks[n] = stats.upgrade_calls

    trace = Trace("paper-join", max_spans=50_000_000)
    traced = RunStats()
    start = clock()
    try:
        for _ in untraced.ops:
            with activate(trace), trace.span("join.results"):
                op, answer = _read_top(session, K, on_result)
            check_ranking(oracle, answer, K)
            traced.ops.append(op)
    finally:
        patch.restore()
    traced.wall_s = clock() - start
    result["traced_stats"] = traced
    result["absent"] = list(patch.absent)
    counters = getattr(upgraders[-1], "stats", None) if upgraders else None
    layers = {
        "bounds.lbc_evaluations": getattr(counters, "lbc_evaluations", None),
        "rtree.node_accesses": getattr(counters, "node_accesses", None),
        "join.heap_pops": getattr(counters, "heap_pops", None),
        "join.upgrade_calls_first": marks.get(1),
        "join.upgrade_calls_top20": marks.get(K),
    }
    result["layers"] = {k: v for k, v in layers.items() if v is not None}
    result["absent"] += [k for k, v in layers.items() if v is None]
    result["self"] = self_times(trace.spans)
    result["dropped_spans"] = trace.dropped_spans
    result["traced_op_wall_s"] = sum(op.latency_s for op in traced.ops)
