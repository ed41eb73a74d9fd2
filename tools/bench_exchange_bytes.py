"""Measure the build sort-exchange volume per posting (round-5 claim).

Runs TokenizeStage (no Ray needed — it is a plain callable over Arrow
batches) over the deterministic 40k-doc bench corpus and reports:

* ``bytes_per_posting`` — actual bytes a posting occupies in the
  PARTIAL_SCHEMA rows that ride the sort exchange (the buffers of every
  column of ``PARTIAL_SCHEMA``: skey, docs, tfs).
* ``legacy_bytes_per_posting`` — what the SAME entries cost in the
  round-4 layout (duplicate term string + int32 shard columns alongside
  the key, raw int32 tfs/dls payloads), reconstructed analytically from
  the same run so the ratio is apples-to-apples.

Writes BENCH_exchange_r5.json (atomic temp+rename), or the path in
``GSR_EXCH_OUT``; ``GSR_BENCH_DOCS`` sets the corpus size.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow.parquet as pq

from gazetteer_search_ray.sources.corpus import (
    _assign_doc_ids,
    write_synthetic_corpus,
)
from gazetteer_search_ray.stages.tokenize import PARTIAL_SCHEMA, TokenizeStage

SCRATCH = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
N_DOCS = int(os.environ.get("GSR_BENCH_DOCS", "40000"))
CORPUS = f"{SCRATCH}/gsr_bench_corpus_{N_DOCS}"


def main() -> None:
    if not os.path.exists(CORPUS):
        write_synthetic_corpus(CORPUS, n_docs=N_DOCS, n_files=8)
    stage = TokenizeStage(docmeta_dir=None)
    total = dict.fromkeys(PARTIAL_SCHEMA.names, 0)
    n_postings = 0
    n_rows = 0
    for fname in sorted(os.listdir(CORPUS)):
        t = pq.read_table(os.path.join(CORPUS, fname),
                          columns=["repo", "path", "commit", "content"])
        t = _assign_doc_ids(t).select(["doc_id", "content"])
        for batch in t.to_batches(max_chunksize=512):
            import pyarrow as pa

            out = stage(pa.Table.from_batches([batch]))
            n_rows += out.num_rows
            for col in total:
                # value-buffer bytes only (offsets counted via the
                # per-row overhead term below)
                arr = out[col].combine_chunks()
                total[col] += sum(
                    buf.size for buf in arr.buffers() if buf is not None
                )
            import pyarrow.compute as pc

            n_postings += pc.sum(
                pc.binary_length(out["docs"])).as_py() // 8

    exch_bytes = sum(total.values())
    bpp = exch_bytes / n_postings
    # round-4 layout: + duplicate term string column (== skey bytes),
    # + int32 shard per row, and tfs/dls as raw int32 (4 B/posting each)
    # instead of varbyte tfs and no dls.
    legacy = (
        exch_bytes
        - total["tfs"]                          # drop varbyte payload
        + 8 * n_postings                        # raw int32 tfs+dls
        + total["skey"]                         # duplicate term column
        + 4 * n_rows                            # int32 shard column
    )
    result = {
        "metric": "build_exchange_bytes_per_posting",
        "n_docs": N_DOCS,
        "n_postings": int(n_postings),
        "n_exchange_rows": int(n_rows),
        "bytes_per_posting": round(bpp, 2),
        "legacy_bytes_per_posting": round(legacy / n_postings, 2),
        "reduction": round(legacy / exch_bytes, 2),
        "column_bytes": {k: int(v) for k, v in total.items()},
    }
    line = json.dumps(result)
    print(line)
    out_path = os.environ.get(
        "GSR_EXCH_OUT",
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "BENCH_exchange_r5.json"),
    )
    tmp = out_path + ".tmp"
    with open(tmp, "w") as f:
        f.write(line + "\n")
    os.replace(tmp, out_path)


if __name__ == "__main__":
    main()
