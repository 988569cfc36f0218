"""``skyup lint`` in one process, traced layer by layer.

Usage: ``python perfbench/lint_traced.py OUT.json <skyup lint arguments>``
with ``src`` on ``PYTHONPATH``.  Runs the CLI exactly as
``python -m repro lint`` would (same stdout, same exit code) under an
active trace, with spans around the lint entry points that record none
of their own, and writes the self-time split to ``OUT.json``.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Patcher, import_attr, self_times  # noqa: E402


def _install(patch: Patcher, span, captured: list) -> None:
    engine = import_attr("repro.analysis.engine")
    if engine is None:
        patch.absent.append("repro.analysis.engine")
        return

    # ast.parse, where the lint engine imports it.
    proxy = types.ModuleType("ast")
    proxy.__dict__.update(ast.__dict__)

    def parse(*args, **kwargs):
        with span("lint.parse"):
            return ast.parse(*args, **kwargs)

    proxy.parse = parse
    patch.replace(engine, "ast", proxy, "repro.analysis.engine.ast")

    # One span per rule: its self time is the rule's own work.
    iter_rules = getattr(engine, "iter_rules", None)
    registry = getattr(engine, "_REGISTRY", None)
    if iter_rules is None or registry is None:
        patch.absent.append("repro.analysis.engine._REGISTRY")
    else:
        iter_rules()
        wrapped = {}
        for rid, info in registry.items():
            def run_rule(ctx, _func=info.func, _rid=rid):
                with span(f"lint.rule.{_rid}"):
                    return list(_func(ctx))
            wrapped[rid] = dataclasses.replace(info, func=run_rule)
        patch.replace(engine, "_REGISTRY", wrapped, "repro.analysis.engine._REGISTRY")

    flow = import_attr("repro.analysis.rules.flowrules")
    if flow is None:
        patch.absent.append("repro.analysis.rules.flowrules")
        return
    patch.wrap(flow, "extract_module", "flow.extract", "flowrules.extract_module")
    patch.wrap(flow, "analyze", "flow.analysis", "flowrules.analyze")
    cache_cls = getattr(flow, "FlowCache", None)
    if cache_cls is None:
        patch.absent.append("flowrules.FlowCache")
    else:
        for method in ("__init__", "summary", "findings"):
            patch.wrap(cache_cls, method, "flow.cache_load", f"FlowCache.{method}")
    compute = getattr(flow, "compute_deep_findings", None)
    if compute is not None:
        def capture(ctx, *a, **kw):
            out = compute(ctx, *a, **kw)
            captured.append(dict(getattr(ctx, "flow_stats", {}) or {}))
            return out
        patch.replace(flow, "compute_deep_findings", capture,
                      "flowrules.compute_deep_findings")


def main(argv) -> int:
    out_path, args = Path(argv[0]), argv[1:]
    from repro.cli import main as cli_main
    from repro.obs import Trace, activate, span

    patch = Patcher(span)
    captured: list = []
    _install(patch, span, captured)
    trace = Trace("lint", max_spans=50_000_000)
    try:
        with activate(trace), trace.span("lint.run"):
            code = cli_main(["lint", *args])
    finally:
        patch.restore()
    record = {
        "self": self_times(trace.spans),
        "dropped_spans": trace.dropped_spans,
        "absent": patch.absent,
    }
    stats = captured[-1] if captured else {}
    if "summary_hits" in stats:
        record["summary_hits"] = stats["summary_hits"]
    out_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
