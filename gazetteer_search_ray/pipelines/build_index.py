"""Index build — the flagship pipeline (reference `import` command).

Reference lifecycle (``AddressesImporter.run``, SURVEY.md §3.1) becomes:

    read_parquet(corpus)                       # column-pruned
    → map_batches(TokenizeStage)               # parse/normalize/prior/sha256
      ├ side-writes docmeta parquet files      #   (doc store, fused pass)
      └ emits packed partial postings          #   (materialized)
    → stats scan over docmeta (tiny)           # + doc_id collision check;
                                               #   doc lengths → ray.put
    → write_postings: repartition(n)           # the exchange, n set by
      .sort(skey) + per-block encode           #   CPUs and partial bytes;
      + driver boundary merge                  #   doc ids → ordinals,
                                               #   block_min_dl from dl
    → manifest.commit (atomic, LAST)

:func:`write_segment` writes one segment directory and returns its
record; :func:`build_index` writes the whole corpus as one segment,
``<index>/seg-00000/{docmeta,postings}/``, and commits it through
``manifest.commit``, the commit point of every index job.
:func:`build_index_partitioned` writes one segment per file group,
committing each as soon as it is written, and on resume skips the
groups the manifest already lists (reference analog: the region_counter
generation + delete-stale idempotent re-import,
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

# the one segment a build_index index holds
SEGMENT = "seg-00000"


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
    d["replacer_files"] = list(d["replacer_files"])
    return d


def _settings(opts: BuildOptions) -> dict:
    """The index settings a commit records (``manifest.SETTINGS``), as
    the lists a manifest reads back, so a resume can compare them."""
    return {
        "analyzer": _analyzer_dict(opts.analyzer_config),
        "block_size": opts.block_size,
        "num_doc_shards": opts.num_doc_shards,
        # (field, source column) pairs so maintenance jobs
        # (update_index) can rebuild segments with the same mapping
        "extra_fields": [list(p) for p in opts.extra_fields],
    }


def write_segment(ds, seg_dir: str, opts: BuildOptions) -> dict:
    """Write one segment (``docmeta/`` + ``postings/``) of corpus
    Dataset ``ds`` into ``seg_dir``, replacing whatever is there.

    ``ds`` must have columns (doc_id, content) and optionally
    (repo, path, commit, lang) which are carried into the doc store.
    Returns the segment's record (``manifest.segment_record``) with the
    build's stage metrics; the caller commits it."""
    mf.drop_index(seg_dir)
    postings_dir = os.path.join(seg_dir, "postings")
    docmeta_dir = os.path.join(seg_dir, "docmeta")
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

    # the segment's doc-length table (row i is ordinal i) and its stats,
    # from the (tiny, one-row-per-doc) doc store
    t_p = time.monotonic()
    meta = pads.dataset(docmeta_dir, format="parquet")
    field_cols = [f"dl__{f}" for f, _ in opts.extra_fields]
    stats = meta.to_table(columns=["doc_id", "dl"] + field_cols)
    stats = stats.take(pc.sort_indices(stats["doc_id"]))
    n_docs = stats.num_rows
    ids_sorted = stats["doc_id"].to_numpy()
    if n_docs > 1 and np.any(ids_sorted[1:] == ids_sorted[:-1]):
        n_unique = int(np.count_nonzero(np.diff(ids_sorted))) + 1
        raise ValueError(
            f"doc_id collision: {n_docs} rows, {n_unique} distinct ids"
        )
    record = mf.segment_record(stats)
    stats_sec = round(time.monotonic() - t_p, 2)

    phase = write_postings(partials, postings_dir, stats, opts.block_size)
    phase["pipeline_sec"] = round(pipeline_sec + phase.pop("exchange_sec"), 2)
    phase["stats_sec"] = stats_sec
    elapsed = time.monotonic() - t0
    record["metrics"] = {
        **phase,
        "elapsed_sec": elapsed,
        "docs_per_sec": (n_docs / elapsed) if elapsed > 0 else None,
        "tokens_per_sec": (record["total_tokens"] / elapsed)
        if elapsed > 0 else None,
    }
    return record


def build_index(ds, index_dir: str, opts: BuildOptions | None = None) -> dict:
    """Build an index of one segment, ``SEGMENT``, from a corpus Dataset
    (see :func:`write_segment`), replacing any index at ``index_dir``.
    Returns the committed manifest, with the build's stage metrics
    under ``metrics``."""
    opts = opts or BuildOptions()
    mf.drop_index(index_dir)
    record = write_segment(ds, os.path.join(index_dir, SEGMENT), opts)
    man = mf.commit(index_dir, {SEGMENT: record}, _settings(opts))
    return {**man, "metrics": record["metrics"]}


def build_index_partitioned(
    input_files: list[str],
    index_dir: str,
    opts: BuildOptions | None = None,
    num_partitions: int = 4,
    resume: bool = True,
) -> dict:
    """Resumable build of one segment per file group.

    Files go round-robin into ``num_partitions`` groups; group ``i``
    becomes segment ``part-<i>``, committed as soon as it is written,
    with its input files in its record.  With ``resume``, a rerun keeps
    every group segment the committed manifest lists with the same input
    files and settings, so a killed build rebuilds only what it had not
    committed; it drops every other segment (a plain build's, an
    update's, a merge's), whose docs the groups list again.  No input
    files commit an empty index.  The query layer (`IndexReader`) merges df and doc stats
    across segments at read time, exactly like ES shards.

    Returns the committed manifest plus ``partitions``: per group, its
    number and whether this run ``built`` or ``skipped`` it."""
    from ..sources.corpus import read_corpus

    opts = opts or BuildOptions()
    settings = _settings(opts)
    groups: dict[str, list[str]] = {}
    for i, f in enumerate(sorted(input_files)):
        groups.setdefault(f"part-{i % num_partitions:05d}", []).append(f)

    man = mf.read_manifest(index_dir) if resume else None
    segs = {}
    if (man is not None and man.get("format_version") == mf.FORMAT_VERSION
            and all(man[k] == settings[k] for k in mf.SETTINGS)):
        # only file-group segments are reused: a build's, update's or
        # merge's segment would list its docs a second time
        segs = {n: r for n, r in man["segment_stats"].items()
                if n in groups and r.get("input_files") == groups[n]}
    if not segs:
        mf.drop_index(index_dir)
        man = None
    if man is None or list(segs) != man["segments"]:
        # unlist stale segments before a group is rewritten under a name
        man = mf.commit(index_dir, segs, settings)

    partitions = []
    for pid, (name, files) in enumerate(groups.items()):
        built = name not in segs
        if built:
            record = write_segment(read_corpus(files),
                                   os.path.join(index_dir, name), opts)
            segs[name] = {**record, "input_files": files}
            man = mf.commit(index_dir, dict(sorted(segs.items())), settings)
        partitions.append({"partition_id": pid,
                           "status": "built" if built else "skipped"})
    return {**man, "partitions": partitions}
