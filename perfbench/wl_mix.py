"""``serve-mix`` and ``shard-mix``: a closed-loop request mix.

Two client threads drive ``UpgradeEngine`` (thread tier, the shipped
``EngineConfig()`` defaults) or ``ShardedUpgradeEngine(EngineConfig(
processes=2))``; each waits for its reply before sending its next
request.  Both tiers get the same catalog and the same seeded operation
sequence, so they compare row for row.

The catalog is the fixed paper-layout point set in its generated row
order, whatever the seed: the sharded top-k's work depends on the
order of the product rows (4.3 to 5.1 scatter rounds and 77 to 91
coordinator-side Algorithm 1 calls per cold top-20 over three seeds'
shuffles), and that would show as run-to-run spread.  The seed draws
the operation sequence: the hot set, the tail reads, the top-k order
and the added competitor.

A round has five phases, and both clients finish a phase before either
starts the next, so every round has the same shape whatever the timing:

1. reads: product reads (most from a small hot set that the skyline
   cache keeps, the rest from the tail of the catalog) and top-k reads
   with k in {1, 5, 20};
2. the first client adds a competitor while the second reads;
3. the first client asks for the top-20, which the write made cold,
   while the second reads;
4. the first client removes the competitor while the second reads;
5. the second client asks for the top-20, cold again, while the first
   reads.

So every round has exactly two cold top-k reads, one at a time.

Each added competitor is a copy of a base competitor moved slightly
*away* from the products, so the competitor it copies dominates it: it
lies in every product's anti-dominant region, invalidates every cached
skyline and top-k prefix, and changes no answer.  Every response must
therefore equal the oracle's answer exactly, during the writes as after
them.
"""

from __future__ import annotations

import threading
from typing import List

import numpy as np

from common import (
    CATALOG_SEED,
    Op,
    RunStats,
    clock,
    helper_peak_kb,
    median,
    own_peak_kb,
    paper_layout,
)
from reference import Oracle, WrongAnswer, check_ranking, check_result, self_check

N_P, N_T, DIMS = 1_000, 100, 3
CLIENTS = 2
HOT = 4
HOT_READS, TAIL_READS, TOPK_READS = 40, 2, 4  # per client, phase 1
READS_DURING_WRITE = 3
KS = (1, 5, 20)
RESULT_TIMEOUT_S = 120.0
SETUP_REPEATS = {"serve-mix": 3, "shard-mix": 3}


def make_rounds(seed: int, competitors: np.ndarray):
    """Per client, the phases of one round (lists of operations)."""
    rng = np.random.default_rng([seed, 7])
    perm = rng.permutation(N_T)
    hot, tail = perm[:HOT], perm[HOT:]
    movable = np.flatnonzero((competitors < 0.95).all(axis=1))
    base = competitors[int(rng.choice(movable))]
    point = tuple(map(float, base + rng.uniform(0.001, 0.02, DIMS)))
    refresh = [("topk", max(KS))]
    rounds = []
    for client in range(CLIENTS):
        reads = [("read", int(rng.choice(hot))) for _ in range(HOT_READS)]
        reads += [("read", int(rng.choice(tail))) for _ in range(TAIL_READS)]
        reads += [("topk", KS[(i + client) % len(KS)])
                  for i in range(TOPK_READS)]
        reads = [reads[i] for i in rng.permutation(len(reads))]
        aside = [
            [("read-w", int(rng.choice(tail)))
             for _ in range(READS_DURING_WRITE)]
            for _ in range(3)
        ]
        if client == 0:
            phases = [reads, [("add", point)], refresh,
                      [("remove", None)], aside[0]]
        else:
            phases = [reads, aside[0], aside[1], aside[2], refresh]
        rounds.append(phases)
    return rounds, [int(h) for h in hot]


def _answer(response):
    return [(r.record_id, r.cost, r.upgraded) for r in response.results]


class Client:
    """One closed-loop client: sends the next request after each reply."""

    def __init__(self, engine, phases, oracle, write_trace=None):
        self.engine = engine
        self.phases = phases
        self.oracle = oracle
        self.write_trace = write_trace
        self.log: List[Op] = []
        self.wrong: List[str] = []
        self.write_traces = []
        self.state = {}

    def _write(self, label, fn, *args):
        if self.write_trace is None:
            return fn(*args)
        trace = self.write_trace()
        from repro.obs import activate

        with activate(trace), trace.span(label):
            out = fn(*args)
        self.write_traces.append(trace)
        return out

    def one(self, kind, arg):
        from repro import ProductQuery, TopKQuery

        engine = self.engine
        t0 = clock()
        cold = None
        if kind in ("read", "read-w"):
            resp = engine.submit(ProductQuery(arg)).result(RESULT_TIMEOUT_S)
            lat = clock() - t0
            (rid, cost, up), = _answer(resp)
            if rid != arg:
                raise WrongAnswer(f"read of {arg} answered {rid}")
            check_result(self.oracle, rid, cost, up)
        elif kind == "topk":
            resp = engine.submit(TopKQuery(arg)).result(RESULT_TIMEOUT_S)
            lat = clock() - t0
            if not resp.cache_hit:
                kind, cold = "topk-cold", lat
            check_ranking(self.oracle, _answer(resp), arg)
        elif kind == "add":
            cid = self._write("write.add", engine.add_competitor, arg)
            lat = clock() - t0
            self.state["cid"] = cid
        else:
            cid = self.state.pop("cid")
            ok = self._write("write.remove", engine.remove_competitor, cid)
            lat = clock() - t0
            if ok is not True:
                raise WrongAnswer("remove_competitor did not remove")
        return Op(kind, lat, lat, cold_s=cold)

    def run_phase(self, phase: int) -> None:
        for kind, arg in self.phases[phase]:
            t0 = clock()
            try:
                op = self.one(kind, arg)
            except WrongAnswer as exc:
                self.wrong.append(str(exc))
                op = Op(kind, clock() - t0, clock() - t0)
            except Exception as exc:  # counted as failed, not fatal
                op = Op(kind, clock() - t0, clock() - t0, error=repr(exc))
            self.log.append(op)


def drive(engine, rounds_ops, oracle, stop_at=None, rounds=None,
          write_trace=None, host=None):
    """Run whole rounds until ``stop_at`` (or for ``rounds`` rounds).

    With ``host``, a calibration slice may run between two rounds, while
    both clients wait at the barrier; its time is not in ``wall_s``.
    """
    clients = [Client(engine, ops, oracle, write_trace) for ops in rounds_ops]
    done = {"rounds": 0, "stop": False}
    spent = host.spent_s if host is not None else 0.0

    def end_of_round():
        done["rounds"] += 1
        done["stop"] = (
            done["rounds"] >= rounds if rounds is not None
            else clock() >= stop_at
        )
        if host is not None and not done["stop"]:
            host.maybe_sample()

    phase_end = threading.Barrier(CLIENTS, timeout=RESULT_TIMEOUT_S)
    round_end = threading.Barrier(
        CLIENTS, action=end_of_round, timeout=RESULT_TIMEOUT_S
    )

    def loop(client):
        try:
            while not done["stop"]:
                for phase in range(len(client.phases)):
                    client.run_phase(phase)
                    (round_end if phase == len(client.phases) - 1
                     else phase_end).wait()
        except threading.BrokenBarrierError:
            client.wrong.append("the other client stopped mid-round")
        except BaseException as exc:  # reported, and frees the partner
            client.wrong.append(f"client crashed: {exc!r}")
            phase_end.abort()
            round_end.abort()

    threads = [
        threading.Thread(target=loop, args=(c,), name=f"bench-client-{i}",
                         daemon=True)
        for i, c in enumerate(clients)
    ]
    start = clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = clock() - start
    if host is not None:
        wall -= host.spent_s - spent
    stats = RunStats(ops=[op for c in clients for op in c.log], wall_s=wall)
    return stats, clients, done["rounds"]


def final_check(engine, session, oracle, hot, wrong):
    """After the last write is undone, each k and hot product is exact."""
    from repro import ProductQuery, TopKQuery

    if session.competitor_count != N_P:
        wrong.append(
            f"catalog has {session.competitor_count} competitors "
            f"after the writes, expected {N_P}"
        )
    try:
        for k in KS:
            resp = engine.submit(TopKQuery(k)).result(RESULT_TIMEOUT_S)
            check_ranking(oracle, _answer(resp), k)
        for pid in hot:
            resp = engine.submit(ProductQuery(pid)).result(RESULT_TIMEOUT_S)
            (rid, cost, up), = _answer(resp)
            if rid != pid:
                raise WrongAnswer(f"read of {pid} answered {rid}")
            check_result(oracle, rid, cost, up)
    except WrongAnswer as exc:
        wrong.append(str(exc))


def _engine(workload, session, traced):
    from repro import EngineConfig, ShardedUpgradeEngine, UpgradeEngine

    extra = {}
    if traced:
        extra = dict(
            trace_sample_rate=1.0,
            trace_store_capacity=1_000_000,
            trace_max_spans=10_000_000,
        )
    if workload == "shard-mix":
        return ShardedUpgradeEngine(
            session, EngineConfig(processes=2, **extra)
        )
    return UpgradeEngine(session, EngineConfig(**extra))


def run(workload: str, seed: int, seconds: float, traced: bool,
        host) -> dict:
    from repro import MarketSession

    times = []
    engine = None
    try:
        for _ in range(SETUP_REPEATS[workload]):
            if engine is not None:
                engine.close()
                engine = None
            t0 = clock()
            competitors, products = paper_layout(N_P, N_T, DIMS,
                                                 CATALOG_SEED)
            session = MarketSession.from_points(competitors, products)
            engine = _engine(workload, session, traced=False)
            times.append(clock() - t0)
        setup_s = median(times)
        oracle = Oracle(competitors, products)
        self_check(oracle, max(KS))
        sequences, hot = make_rounds(seed, competitors)

        # One untimed round first: it fills the caches and starts the
        # pool's threads, so the timed rounds all have the same shape.
        _, warm, _ = drive(engine, sequences, oracle, rounds=1)
        wrong = [w for c in warm for w in c.wrong]
        wrong += [f"warm-up {op.kind} failed: {op.error}"
                  for c in warm for op in c.log if op.error is not None]

        budget = seconds / 2 if traced else seconds
        stats, clients, rounds = drive(
            engine, sequences, oracle, stop_at=clock() + budget, host=host
        )
        wrong += [w for c in clients for w in c.wrong]
        final_check(engine, session, oracle, hot, wrong)
        peak_kb = own_peak_kb() + helper_peak_kb()
    finally:
        if engine is not None:
            engine.close()
    result = {
        "setup_s": setup_s,
        "stats": stats,
        "wrong": wrong,
        "peak_rss_kb": peak_kb,
        "layers": {},
        "absent": [],
    }
    if traced:
        _traced_pass(workload, session, sequences, oracle, hot, rounds,
                     result)
    return result


def _traced_pass(workload, session, sequences, oracle, hot, rounds, result):
    from repro.obs import Trace, span

    from spans import Patcher, import_attr, self_times, wrap_core

    patch = Patcher(span)
    wrap_core(patch)
    if workload == "shard-mix":
        import repro.shard.engine as shard_engine

        cls = import_attr("repro.shard.engine.ShardedUpgradeEngine")
        patch.wrap(shard_engine, "scatter", "shard.rpc",
                   "repro.shard.engine.scatter")
        patch.wrap(shard_engine, "upgrade", "upgrade.coordinator",
                   "repro.shard.engine.upgrade")
        patch.wrap(cls, "_scatter_skylines", "shard.scatter_round",
                   "ShardedUpgradeEngine._scatter_skylines")
        patch.wrap(cls, "_send_sync", "shard.sync",
                   "ShardedUpgradeEngine._send_sync")

    def write_trace():
        return Trace("write", max_spans=10_000_000)

    engine = None
    try:
        engine = _engine(workload, session, traced=True)
        stats, clients, _ = drive(engine, sequences, oracle, rounds=rounds,
                                  write_trace=write_trace)
        result["wrong"] += [w for c in clients for w in c.wrong]
        final_check(engine, session, oracle, hot, result["wrong"])
        traces = engine.recent_traces(None)
        metrics = engine.metrics()
    finally:
        if engine is not None:
            engine.close()
        patch.restore()
    writes = [t for c in clients for t in c.write_traces]
    result["traced_stats"] = stats
    result["absent"] = list(patch.absent)
    result["traced_op_wall_s"] = sum(op.latency_s for op in stats.ops)

    selfs = {}
    for t in traces + writes:
        for b, v in self_times(t.spans).items():
            selfs[b] = selfs.get(b, 0.0) + v
    result["self"] = selfs
    result["dropped_spans"] = sum(t.dropped_spans for t in traces + writes)

    def durations(name):
        return [s.duration_s for t in traces for s in t.spans if s.name == name]

    cold = [
        t for t in traces
        if t.name == "topk"
        and any(s.name == "cache.topk_get" and s.attrs.get("cache_hit") is False
                for s in t.spans)
    ]

    def per_cold(name):
        if not cold:
            return 0.0
        return sum(1 for t in cold for s in t.spans if s.name == name) / len(cold)

    layers = result["layers"]
    layers["pool.queue_wait_p50_ms"] = median(durations("engine.queue_wait")) * 1e3
    layers["guard.recompute_s"] = sum(durations("guard.recompute"))
    sky = metrics.get("skyline_cache", {})
    topk = metrics.get("topk_cache", {})
    layers["cache.skyline_hit_rate"] = sky.get("hit_rate", 0.0)
    layers["cache.topk_hit_rate"] = topk.get("hit_rate", 0.0)
    layers["cache.invalidations"] = (
        sky.get("invalidations", 0) + topk.get("invalidations", 0)
    )
    planner = metrics.get("planner") or {}
    layers["plan.replans"] = planner.get("replans", 0)
    guard = (metrics.get("reliability") or {}).get("kernel_guard") or {}
    layers["guard.checks"] = guard.get("checks", 0)
    counters = metrics.get("counters") or {}
    layers["rtree.node_accesses"] = counters.get("node_accesses", 0)
    layers["bounds.lbc_evaluations"] = counters.get("lbc_evaluations", 0)
    layers["join.heap_pops"] = counters.get("heap_pops", 0)
    if workload == "shard-mix":
        layers["shard.rpc_p50_ms"] = median(durations("shard.rpc")) * 1e3
        layers["shard.scatter_rounds"] = per_cold("shard.scatter_round")
        layers["shard.coordinator_upgrade_calls"] = per_cold("upgrade.coordinator")
        layers["shard.hedges"] = len(durations("shard.hedge"))
