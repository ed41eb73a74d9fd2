"""Query-leg scaling probe (the BASELINE.md 'two cluster sizes' stand-in
for the serving layer): replay 8000 mixed 1-3-term queries through the
QueryService pool against the SAME prebuilt 320k-doc index, one fresh
``ray.init(num_cpus=L)`` subprocess per leg, legs interleaved
lo,hi,lo,hi so both levels sample the same co-tenant noise windows.

Usage: python tools/bench_qscaling.py [repeats]   # prints one JSON line
Env: GSR_SCALE_LO / GSR_SCALE_HI (default 4 / 16),
     GSR_QBENCH_DOCS (default 320000).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

SCRATCH = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
DOCS = int(os.environ.get("GSR_QBENCH_DOCS", "320000"))
CORPUS = f"{SCRATCH}/gsr_bench_corpus_{DOCS}"
IDX = f"{SCRATCH}/gsr_idx_{DOCS}_q32"

LEG_SCRIPT = r"""
import json, os, sys, time
sys.path.insert(0, %(root)r)
os.environ.update({"MALLOC_MMAP_THRESHOLD_": "1073741824",
                   "MALLOC_TRIM_THRESHOLD_": "1073741824"})
import ray
ncpu = int(sys.argv[1])
ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
         logging_level="ERROR")
from bench import make_queries, VOCAB
from gazetteer_search_ray.pipelines.search import QueryService
pool = max(2, ncpu // 2)
svc = QueryService(%(idx)r, pool_size=pool)
queries = make_queries(8000)
svc.warm(VOCAB, prime_queries=queries[:256])
t0 = time.monotonic()
svc.replay(queries, batch_size=64, summarize=True)
dt = time.monotonic() - t0
svc.shutdown()
ray.shutdown()
print(json.dumps({"ncpu": ncpu, "qps": round(8000 / dt, 1)}))
"""


def ensure_index() -> None:
    from gazetteer_search_ray.state.manifest import read_manifest

    if read_manifest(IDX) is not None:
        return
    import ray

    from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
    from gazetteer_search_ray.pipelines.build_index import (
        BuildOptions,
        build_index,
    )
    from gazetteer_search_ray.sources.corpus import (
        read_corpus,
        write_synthetic_corpus,
    )

    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    if not os.path.exists(os.path.join(CORPUS, "corpus-0063.parquet")):
        write_synthetic_corpus(CORPUS, n_docs=DOCS, n_files=64)
    build_index(read_corpus(CORPUS), IDX,
                BuildOptions(analyzer_config=AnalyzerConfig.code()))
    ray.shutdown()


def main() -> None:
    ensure_index()
    lo = int(os.environ.get("GSR_SCALE_LO", "4"))
    hi = int(os.environ.get("GSR_SCALE_HI", "16"))
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    script = LEG_SCRIPT % {"root": ROOT, "idx": IDX}
    runs = []
    for _ in range(repeats):
        for ncpu in (lo, hi):
            out = subprocess.run(
                [sys.executable, "-c", script, str(ncpu)],
                capture_output=True, text=True, check=True,
            ).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
    q_lo = max(r["qps"] for r in runs if r["ncpu"] == lo)
    q_hi = max(r["qps"] for r in runs if r["ncpu"] == hi)
    print(json.dumps({
        "metric": f"query_scaling_isolated_{lo}_to_{hi}_cpus",
        "note": ("replay of 8000 mixed 1-3-term queries through the "
                 "QueryService pool against the SAME prebuilt "
                 f"{DOCS}-doc index, fresh ray.init per leg, legs "
                 "interleaved lo,hi"),
        "runs": runs,
        f"qps_{lo}": q_lo,
        f"qps_{hi}": q_hi,
        "efficiency_best": round((q_hi / q_lo) / (hi / lo), 3),
    }))


if __name__ == "__main__":
    main()
