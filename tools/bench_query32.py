"""Large-shard query check: one warm single-thread ``Searcher`` over a
320k-doc index, with distinct Zipf-drawn queries.

perfbench's 12k-doc index is too small to show the engine's dense paths
and float32 band at work; this check is the large-shard workload that a
change to the query engine's routes or caches is measured on.  It
builds the synthetic corpus and its index once (``ray.init(num_cpus=1)``,
in a child process, so the query process's RSS is the engine's alone),
then opens one ``Searcher`` and runs 400 warm-up queries followed by
2,000 timed ones.  All 2,400 are distinct 1-3-term queries drawn Zipf
over the 3,000 highest-df terms; 15% are prefix queries whose last term
is cut to 4 letters.  It prints one JSON line: QPS, p50/p95 latency,
peak RSS and a digest of every timed hit (doc_id and score bits), so two
versions of the engine run on one index can be compared hit for hit.

Usage: python tools/bench_query32.py [--index DIR] [--corpus DIR]
Env: GSR_QBENCH_DOCS (default 320000).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

SCRATCH = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
DOCS = int(os.environ.get("GSR_QBENCH_DOCS", "320000"))
N_WARM, N_TIMED = 400, 2000
TOP_TERMS = 3000
PREFIX_SHARE = 0.15


def build(corpus: str, index: str) -> None:
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

    if not glob.glob(os.path.join(corpus, "corpus-*.parquet")):
        write_synthetic_corpus(corpus, n_docs=DOCS, n_files=64)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    build_index(read_corpus(corpus), index,
                BuildOptions(analyzer_config=AnalyzerConfig.code()))
    ray.shutdown()


def top_terms(index: str) -> list[str]:
    """The ``TOP_TERMS`` highest-df terms, df summed over shards and
    segments, ties broken by term."""
    import pyarrow.dataset as pads

    files = glob.glob(os.path.join(index, "**", "postings-*.parquet"),
                      recursive=True)
    t = pads.dataset(files).to_table(columns=["term", "df"])
    t = t.group_by("term").aggregate([("df", "sum")])
    t = t.sort_by([("df_sum", "descending"), ("term", "ascending")])
    return t["term"].to_pylist()[:TOP_TERMS]


def make_queries(terms: list[str], n: int) -> list[tuple[str, bool]]:
    """``n`` distinct (query, prefix) pairs of 1-3 terms drawn Zipf
    (s = 1) over ``terms`` ranked by df."""
    import numpy as np

    rng = np.random.default_rng(0)
    p = 1.0 / np.arange(1, len(terms) + 1)
    p /= p.sum()
    out: list[tuple[str, bool]] = []
    seen: set = set()
    while len(out) < n:
        words = [terms[i] for i in rng.choice(len(terms), size=rng.integers(1, 4), p=p)]
        prefix = bool(rng.random() < PREFIX_SHARE)
        if prefix and len(words[-1]) > 4:
            words[-1] = words[-1][:4]
        q = (" ".join(words), prefix)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--index", default=f"{SCRATCH}/gsr_idx_{DOCS}_q32")
    ap.add_argument("--corpus", default=f"{SCRATCH}/gsr_bench_corpus_{DOCS}")
    ap.add_argument("--build-only", action="store_true")
    args = ap.parse_args()
    if args.build_only:
        build(args.corpus, args.index)
        return
    from gazetteer_search_ray.state.manifest import read_manifest

    if read_manifest(args.index) is None:
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--index", args.index, "--corpus", args.corpus,
                        "--build-only"], check=True)

    import numpy as np

    from gazetteer_search_ray.pipelines.search import Searcher

    queries = make_queries(top_terms(args.index), N_WARM + N_TIMED)
    s = Searcher(args.index)
    for q, prefix in queries[:N_WARM]:
        s.search(q, k=20, prefix=prefix, use_prior=False)
    digest = hashlib.blake2b(digest_size=16)
    lat = []
    t0 = time.perf_counter()
    for q, prefix in queries[N_WARM:]:
        t1 = time.perf_counter()
        hits = s.search(q, k=20, prefix=prefix, use_prior=False)
        lat.append(time.perf_counter() - t1)
        for h in hits:
            digest.update(f"{h['doc_id']}:{float(h['score']).hex()};".encode())
        digest.update(b"|")
    wall = time.perf_counter() - t0
    print(json.dumps({
        "metric": "large_shard_query", "docs": int(s.reader.n_docs),
        "n_timed": N_TIMED,
        "qps": round(N_TIMED / wall, 1),
        "p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 3),
        "p95_ms": round(float(np.percentile(lat, 95)) * 1e3, 3),
        "rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "hits_digest": digest.hexdigest(),
    }))


if __name__ == "__main__":
    main()
