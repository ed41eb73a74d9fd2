"""Layered benchmark of the search engine: ``serve`` and ``build``.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each invocation is one workload in one
fresh process.  It generates its inputs from ``--seed``, sets the
program up, measures for about ``--seconds``, checks every output it
can against an independent oracle, and prints one JSON object as the
last line of stdout: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` re-runs the timed part with spans around the engine's
public calls and reports the per-layer metrics instead.

Scratch data lives in ``.perfbench/`` under the repository root and is
removed on exit; traces are kept in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# every metric the traced run reports, in BENCHMARK.json order
LAYER_METRICS = {
    "server.self_ms_p50": "ms", "server.health_rtt_ms_p50": "ms",
    "search.search_ms_p50": "ms", "search.search_ms_p99": "ms",
    "search.analyze_ms_p50": "ms", "search.top_k_calls_per_query": "count",
    "search.project_ms_p50": "ms",
    "query.top_k_self_ms_p50": "ms", "query.top_k_self_ms_p99": "ms",
    "query.eval_term_calls_per_query": "count",
    "query.repeat_plan_share": "ratio", "query.first_query_ms_p50": "ms",
    "reader.posting_calls_per_query": "count", "reader.posting_ms_p50": "ms",
    "reader.decode_calls_per_query": "count",
    "reader.decoded_postings_per_query": "count",
    "reader.decode_ms_per_query": "ms", "reader.term_cache_miss_ratio": "ratio",
    "reader.prefix_terms_ms_p50": "ms", "reader.open_s": "s",
    "reader.segments": "count",
    "corpus.read_s": "s",
    "tokenize.s": "s", "tokenize.docs_per_s": "1/s",
    "tokenize.exchange_bytes_per_posting": "B",
    "postings.encode_s": "s", "postings.boundary_s": "s",
    "build_index.pipeline_s": "s", "build_index.boundary_merge_s": "s",
    "build_index.stats_s": "s", "build_index.orchestration_s": "s",
    "build_index.segment_s": "s",
    "codec.postings_bytes_per_posting": "B", "codec.docmeta_bytes_per_doc": "B",
    "maintenance.update_s": "s", "maintenance.merge_s": "s",
    "maintenance.delete_s": "s", "maintenance.rewritten_bytes_per_update": "B",
    "maintenance.merge_rewritten_bytes": "B",
    "request.plain_ms_p50": "ms", "request.prefix_ms_p50": "ms",
    "request.lang_ms_p50": "ms", "request.page1_ms_p50": "ms",
    "trace.overhead_ms": "ms",
    "host.steal_pct": "%", "host.calib_s": "s",
}
E2E_METRICS = {
    "setup_s": "s", "throughput_per_s": "1/s", "query_p50_ms": "ms",
    "query_p95_ms": "ms", "index_bytes_per_doc": "B", "rss_mb": "MB",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve", "build"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "gazetteer_search_ray",
                                       "__init__.py")):
        print(f"no gazetteer_search_ray package under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, HERE]
    # a terminated run still stops Ray and its children on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from common import Context
    import workloads

    ctx = Context(ROOT, args.seed, args.seconds, bool(args.trace))
    try:
        res = getattr(workloads, args.workload)(ctx)
    finally:
        ctx.close()
    host = ctx.host_report()
    if args.trace:
        layers = {**res.layers, **host}
        metrics = {k: {"value": float(layers.get(k, (0.0,))[0]), "unit": u}
                   for k, u in LAYER_METRICS.items()}
        counts = {k: v[2] for k, v in layers.items() if len(v) > 2}
        print(json.dumps({"samples": counts, "trace_file": res.trace_file}))
    else:
        metrics = {k: {"value": float(res.e2e[k]), "unit": u}
                   for k, u in E2E_METRICS.items()}
        print(json.dumps({"report": res.report,
                          **{k: v[0] for k, v in host.items()}}))
    print(json.dumps({"correct": res.failed == 0 and res.attempted > 0,
                      "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
