"""Index build — the flagship pipeline (reference `import` command).

Reference lifecycle (``AddressesImporter.run``, SURVEY.md §3.1) becomes:

    read_parquet(corpus)                       # column-pruned
    → map_batches(TokenizeStage)               # parse/normalize/prior/sha256
      ├ side-writes docmeta parquet segments   #   (doc store, fused pass)
      └ emits packed partial postings          #   (materialized)
    → stats scan over docmeta (tiny)           # + doc_id collision check;
                                               #   doc lengths → ray.put
    → write_postings: repartition(n)           # the exchange, n set by
      .sort(skey) + per-block encode           #   CPUs and partial bytes;
      + driver boundary merge                  #   doc ids → ordinals,
                                               #   block_min_dl from dl
    → manifest commit (atomic, LAST)

The manifest is the commit point; :func:`build_index_partitioned` builds
one sub-index per input partition with per-partition lineage records and
skips already-committed partitions on resume (reference analog: the
region_counter generation + delete-stale idempotent re-import,
``AddressesImporter.java:131-163,193-212``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..functions.analyzer import AnalyzerConfig
from ..functions.codec import BLOCK_SIZE
from ..stages.postings import write_postings
from ..stages.tokenize import TokenizeStage
from ..state import manifest as mf

POSTINGS_DIR = "postings"
DOCMETA_DIR = "docmeta"


@dataclass
class BuildOptions:
    analyzer_config: AnalyzerConfig = field(default_factory=AnalyzerConfig.simple)
    num_doc_shards: int = 1
    block_size: int = BLOCK_SIZE
    # rows per tokenize call: None hands TokenizeStage whole read blocks,
    # which it cuts into slices of at most BATCH_BYTES of content; tests
    # set small values to get many partial rows per term
    batch_size: int | None = None
    score_builder: object | None = None
    # extra text fields ((field_name, column_name), ...): indexed as
    # field-scoped terms with per-field BM25 length norms (the
    # reference's multi-field mapping, es_mappings/addr_row.json:41-121)
    extra_fields: tuple = ()


def _analyzer_dict(c: AnalyzerConfig) -> dict:
    d = dict(c.__dict__)
    d["optional_terms"] = sorted(d["optional_terms"])
    d["stop_terms"] = sorted(d["stop_terms"])
    d["char_replaces"] = [list(x) for x in d["char_replaces"]]
    d["synonyms"] = [list(x) for x in d["synonyms"]]
    return d


def build_index(ds, index_dir: str, opts: BuildOptions | None = None, overwrite: bool = True) -> dict:
    """Build one index segment group from a corpus Dataset.

    ``ds`` must have columns (doc_id, content) and optionally
    (repo, path, commit, lang) which are carried into the doc store.
    Returns the committed manifest dict.
    """
    opts = opts or BuildOptions()
    existing = mf.read_manifest(index_dir)
    if existing is not None and not overwrite:
        return existing
    mf.drop_index(index_dir)
    postings_dir = os.path.join(index_dir, POSTINGS_DIR)
    docmeta_dir = os.path.join(index_dir, DOCMETA_DIR)
    os.makedirs(postings_dir)
    os.makedirs(docmeta_dir)

    t0 = time.monotonic()
    partials = ds.map_batches(
        TokenizeStage(
            analyzer_config=opts.analyzer_config,
            docmeta_dir=docmeta_dir,
            num_doc_shards=opts.num_doc_shards,
            score_builder=opts.score_builder,
            extra_fields=opts.extra_fields,
        ),
        batch_format="pyarrow",
        batch_size=opts.batch_size,
    )

    # the doc store is complete once tokenize has run, and postings
    # number docs by its sorted ids — so run tokenize to the end first
    # (the exchange materializes its input anyway)
    t_p = time.monotonic()
    partials = partials.materialize()
    pipeline_sec = time.monotonic() - t_p

    # global stats from the (tiny, one-row-per-doc) doc store
    t_p = time.monotonic()
    meta = pads.dataset(docmeta_dir, format="parquet")
    field_cols = [f"dl__{f}" for f, _ in opts.extra_fields]
    stats = meta.to_table(columns=["doc_id", "dl"] + field_cols)
    # the segment's doc-length table: row i is ordinal i
    stats = stats.take(pc.sort_indices(stats["doc_id"]))
    n_docs = stats.num_rows
    total_tokens = int(pc.sum(stats["dl"]).as_py() or 0)
    field_stats = {}
    for (fname, _col), dcol in zip(opts.extra_fields, field_cols):
        ftot = int(pc.sum(stats[dcol]).as_py() or 0)
        field_stats[fname] = {
            "total_tokens": ftot,
            "avgdl": (ftot / n_docs) if n_docs else 0.0,
        }
    ids_sorted = stats["doc_id"].to_numpy()
    if n_docs > 1 and np.any(ids_sorted[1:] == ids_sorted[:-1]):
        n_unique = int(np.count_nonzero(np.diff(ids_sorted))) + 1
        raise ValueError(
            f"doc_id collision: {n_docs} rows, {n_unique} distinct ids"
        )
    stats_sec = round(time.monotonic() - t_p, 2)

    phase = write_postings(partials, postings_dir, stats, opts.block_size)
    phase["pipeline_sec"] = round(pipeline_sec + phase.pop("exchange_sec"), 2)
    phase["stats_sec"] = stats_sec
    elapsed = time.monotonic() - t0

    manifest = {
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "fields": field_stats,
        # (field, source column) pairs so maintenance jobs
        # (update_index) can rebuild segments with the same mapping
        "extra_fields": [list(p) for p in opts.extra_fields],
        "block_size": opts.block_size,
        "num_doc_shards": opts.num_doc_shards,
        "analyzer": _analyzer_dict(opts.analyzer_config),
        "postings_files": sorted(os.listdir(postings_dir)),
        "docmeta_files": sorted(os.listdir(docmeta_dir)),
        "metrics": {
            **phase,
            "elapsed_sec": elapsed,
            "docs_per_sec": (n_docs / elapsed) if elapsed > 0 else None,
            "tokens_per_sec": (total_tokens / elapsed) if elapsed > 0 else None,
        },
    }
    mf.write_manifest(index_dir, manifest)
    return mf.read_manifest(index_dir)


def build_index_partitioned(
    input_files: list[str],
    index_dir: str,
    opts: BuildOptions | None = None,
    num_partitions: int = 4,
    resume: bool = True,
) -> dict:
    """Resumable multi-partition build: one sub-index per file group.

    Each partition is built independently (own docmeta/postings/manifest,
    committed atomically); on resume, committed partitions are skipped
    and only missing ones rebuild — a killed run therefore produces a
    byte-identical final index to a from-scratch run (FIXTURES.md §6).
    The query layer (`IndexReader`) treats partitions as segments: df and
    doc stats merge at read time, exactly like ES shards.
    """
    from ..sources.corpus import read_corpus

    opts = opts or BuildOptions()
    os.makedirs(index_dir, exist_ok=True)
    groups: list[list[str]] = [[] for _ in range(num_partitions)]
    for i, f in enumerate(sorted(input_files)):
        groups[i % num_partitions].append(f)
    groups = [g for g in groups if g]

    partitions = []
    for pid, files in enumerate(groups):
        pdir = os.path.join(index_dir, f"part-{pid:05d}")
        pman = mf.read_manifest(pdir)
        if resume and pman is not None and pman.get("input_files") == files:
            partitions.append({"partition_id": pid, "status": "skipped", **_lineage(pman, files)})
            continue
        ds = read_corpus(files)
        t0 = time.monotonic()
        pman = build_index(ds, pdir, opts, overwrite=True)
        pman["input_files"] = files
        mf.write_manifest(pdir, {k: v for k, v in pman.items() if k != "format_version"})
        partitions.append(
            {"partition_id": pid, "status": "built", "elapsed_sec": time.monotonic() - t0, **_lineage(pman, files)}
        )

    subs = [mf.read_manifest(os.path.join(index_dir, f"part-{p['partition_id']:05d}")) for p in partitions]
    n_docs = sum(s["n_docs"] for s in subs)
    total_tokens = sum(s["total_tokens"] for s in subs)
    top = {
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "block_size": opts.block_size,
        "num_doc_shards": opts.num_doc_shards,
        "analyzer": _analyzer_dict(opts.analyzer_config),
        "segments": [f"part-{p['partition_id']:05d}" for p in partitions],
        "partitions": partitions,
    }
    mf.write_manifest(index_dir, top)
    return mf.read_manifest(index_dir)


def _lineage(pman: dict, files: list[str]) -> dict:
    return {
        "input_files": files,
        "row_count": pman["n_docs"],
        "token_count": pman["total_tokens"],
        "segment_metrics": pman.get("metrics"),
    }
