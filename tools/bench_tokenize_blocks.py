"""Tokenize granularity: exchange size per import and one task's memory.

``exchange`` runs the build's tokenize stage over perfbench's 6k-doc
build corpus of one seed (code analyzer, ``ray.init(num_cpus=1)``), once
per ``map_batches`` batch size, and prints for each: the partial rows
that enter the sort exchange, their bytes per posting, and the docmeta
files written.  ``None`` is the default: whole read blocks.

``memory`` runs ONE ``TokenizeStage`` call in a fresh child process
over a table of ``--docs`` perfbench documents, with ``BATCH_BYTES`` set
to each ``--mib`` in turn, and prints the call's peak RSS above the RSS
held before it (``VmHWM`` − ``VmRSS`` from ``/proc/self/status``), its
wall time, its slice count and the partial rows it emits.  The peak is
the transient memory of one tokenize task at that cap.

Usage:
  python tools/bench_tokenize_blocks.py exchange [--seed 1]
  python tools/bench_tokenize_blocks.py memory [--seed 1] [--docs 40000]
      [--mib 4 8 16]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

BUILD_DOCS = 6_000  # perfbench's build import


def _corpus(seed: int, n: int, out_dir: str) -> list[str]:
    import numpy as np
    from gen import CorpusGen

    return CorpusGen(seed).docs(np.arange(n), markers=True).write(out_dir)


def exchange(seed: int) -> None:
    import pyarrow.compute as pc
    import ray

    from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
    from gazetteer_search_ray.sources.corpus import read_corpus
    from gazetteer_search_ray.stages.tokenize import TokenizeStage

    with tempfile.TemporaryDirectory() as tmp:
        files = _corpus(seed, BUILD_DOCS, os.path.join(tmp, "corpus"))
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        for batch_size in (512, None):
            meta = os.path.join(tmp, f"docmeta-{batch_size}")
            os.makedirs(meta)
            parts = read_corpus(files).map_batches(
                TokenizeStage(AnalyzerConfig.code(), docmeta_dir=meta),
                batch_format="pyarrow", batch_size=batch_size).materialize()
            rows = parts.count()
            postings = sum(
                pc.sum(pc.binary_length(t["docs"])).as_py() // 8
                for t in ray.get(parts.to_arrow_refs()) if t.num_rows)
            print(json.dumps({
                "seed": seed, "batch_size": batch_size,
                "exchange_rows": rows,
                "exchange_bytes_per_posting": round(
                    parts.size_bytes() / postings, 3),
                "postings": postings,
                "docmeta_files": len(os.listdir(meta))}))
        ray.shutdown()


def _child(path: str, mib: int) -> None:
    import pyarrow.parquet as pq

    from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
    from gazetteer_search_ray.sources.corpus import _assign_doc_ids
    from gazetteer_search_ray.stages import tokenize

    def status(key: str) -> int:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) // 1024  # MB
        raise KeyError(key)

    table = _assign_doc_ids(pq.read_table(path)).select(["doc_id", "content"])
    table = table.combine_chunks()
    tokenize.BATCH_BYTES = mib << 20
    slices = len(tokenize.slice_bounds(table["content"], mib << 20)) - 1
    with tempfile.TemporaryDirectory() as meta:
        stage = tokenize.TokenizeStage(AnalyzerConfig.code(), docmeta_dir=meta)
        before = status("VmRSS")
        t0 = time.perf_counter()
        rows = stage(table).num_rows
        sec = time.perf_counter() - t0
        peak = status("VmHWM")
    print(json.dumps({"batch_mib": mib, "docs": table.num_rows,
                      "content_mb": round(
                          table["content"].nbytes / 2**20, 1),
                      "slices": slices, "partial_rows": rows,
                      "rss_before_mb": before,
                      "peak_above_mb": peak - before,
                      "sec": round(sec, 3),
                      "docs_per_s": round(table.num_rows / sec)}))


def memory(seed: int, docs: int, mibs: list[int]) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as tmp:
        files = _corpus(seed, docs, os.path.join(tmp, "corpus"))
        path = os.path.join(tmp, "all.parquet")
        pq.write_table(pa.concat_tables(pq.read_table(f) for f in files), path)
        for mib in mibs:
            subprocess.run([sys.executable, __file__, "_child", path,
                            str(mib)], check=True)


def main() -> None:
    if sys.argv[1:2] == ["_child"]:
        return _child(sys.argv[2], int(sys.argv[3]))
    ap = argparse.ArgumentParser()
    ap.add_argument("what", choices=("exchange", "memory"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--docs", type=int, default=40_000)
    ap.add_argument("--mib", type=int, nargs="+", default=[4, 8, 16])
    a = ap.parse_args()
    if a.what == "exchange":
        exchange(a.seed)
    else:
        memory(a.seed, a.docs, a.mib)


if __name__ == "__main__":
    main()
