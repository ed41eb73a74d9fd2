"""Posting-list merge — the ``groupby(term)``-equivalent exchange.

Reference analog: Lucene's hidden segment merge inside ES, which sends a
freshly flushed segment and a merged segment through the same codec
writer; here :func:`write_postings` is that one exchange, called by the
build (and so by ``update_index``) and by ``force_merge`` (SURVEY.md
§3.1), and :func:`write_postings_file` the one postings file writer,
which ``delete_docs``' compaction uses too.

The naive realization — ``groupby(term).map_groups(encode)`` — costs one
Python call per vocabulary term (~10ms/group in Ray), which is fatal at
real vocabulary sizes.  :func:`write_postings` therefore performs the
same sort-based group-aggregate explicitly, keeping the encode
vectorized:

1. ``repartition(n).sort("skey")`` — the range-partitioned all-to-all
   exchange (identical data movement to a groupby) over the fused
   (term, shard) key of the partial rows (``tokenize.pack_partials``).
   ``n`` is one block per CPU, so that every CPU sorts and encodes,
   or one per ``MIN_PARTITION_BYTES`` of partial rows if that is
   more: every block costs a fixed share of Ray tasks, so on one CPU a
   small input gets one block, but a large block sorts slower per
   byte;
2. :class:`SortedBlockEncoder` (``map_batches``) — every sorted block
   encodes ALL its *complete* key-runs in one numpy pass
   (:func:`postings_table` over ``codec.encode_posting_groups``, whose
   Arrow columns are built over the pass's own buffers, with no
   per-run Python objects) and side-writes them as a postings parquet
   file (temp+rename, content-derived name → idempotent under task
   retry); only the block's first/last runs — the ones that may
   straddle block boundaries — are passed through;
3. the boundary stream (≤ 2 runs per sorted block) merges on the driver
   in one vectorized pass (:func:`encode_partials_table`) into
   ``postings-boundary.parquet``.

Every postings file is written in row groups of at most
``ROW_GROUP_TERMS`` rows with ``term`` statistics, which the reader
prunes on: a term lookup scans one row group however large the file,
so the block count trades Ray task overhead only, not lookup cost.

Partials carry doc ids (63-bit hashes) and tfs only.  Every encoder
reads the rest from the segment's doc-length table (``doc_id``, ``dl``
and each ``dl__<field>``, sorted by ``doc_id``), which the caller
``ray.put``s once: a posting's ordinal (``codec`` format v3) is its
id's row, found by one hash lookup (``pc.index_in``), and its doc
length, which feeds ``block_min_dl``, is that row's length for the
term's field (:func:`_posting_dls`).  Doc lengths thus never ride the
exchange.

``shard`` = ``doc_id % num_doc_shards`` bounds run length for
heavy-hitter terms so no single group materializes a 10^12-doc posting
list; the query layer sort-merges shards per term (tested equivalent to
an unsharded index).
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..functions.codec import BLOCK_SIZE, encode_posting_groups
from ..state.manifest import atomic_write_table
from .tokenize import (
    FIELD_SEP,
    PARTIAL_SCHEMA,
    SHARD_SEP,
    flat_from_binary_col,
    varbyte_flat_from_binary_col,
)


def _terms_shards_from_skeys(skey_arr) -> tuple[pa.Array, pa.Array]:
    """Recover (term, shard) from ``skey`` rows — the partial schema
    carries only the fused sort key through the exchange (the duplicate
    term/shard columns were ~7% of the shuffle bytes)."""
    if isinstance(skey_arr, pa.ChunkedArray):
        skey_arr = skey_arr.combine_chunks()
    skey_arr = pc.cast(skey_arr, pa.string())
    if len(skey_arr) == 0 or SHARD_SEP not in skey_arr[0].as_py():
        return skey_arr, pa.array(
            np.zeros(len(skey_arr), dtype=np.int32), pa.int32()
        )
    parts = pc.split_pattern(skey_arr, SHARD_SEP)
    terms = pc.list_element(parts, 0)
    shards = pc.cast(pc.list_element(parts, 1), pa.int32())
    return terms, shards


# A postings row group holds at most this many (term, shard) rows.  A
# cold term lookup reads and scans one row group, so this bounds its
# cost however few sort blocks, and hence files, an exchange writes.
ROW_GROUP_TERMS = 4096
# Partial-row bytes per sort block beyond one block per CPU.  Each
# block costs ~35-40 ms of Ray tasks (sample, map, reduce, encode)
# whatever its size, yet a large block sorts slower per byte.  On one
# CPU, a 320k-doc force_merge exchange (390 MB) took 11.2 s in 2
# blocks, 10.0 s in 8 and 8.6 s in 24, while a 320k-doc build (450 MB)
# lost ~1 s going from 8 blocks to 26 and none at 13.  Bytes, not rows,
# measure the volume: a merge's packed partial rows are ~1.4 KB each, a
# build's 60-150 B.
MIN_PARTITION_BYTES = 2**25

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("shard", pa.int32()),
        ("df", pa.int64()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
        ("block_last_doc", pa.list_(pa.int32())),
        ("block_max_tf", pa.list_(pa.int32())),
        ("block_min_dl", pa.list_(pa.int32())),
        ("block_docs_off", pa.list_(pa.int64())),
        ("block_tfs_off", pa.list_(pa.int64())),
    ]
)


def postings_table(terms, shards, docs: np.ndarray, tfs: np.ndarray,
                   dls: np.ndarray, offsets: np.ndarray,
                   block_size: int = BLOCK_SIZE) -> pa.Table:
    """Encode posting lists into ``POSTINGS_SCHEMA`` rows: row i is
    (``terms[i]``, ``shards[i]``) with postings
    ``docs/tfs/dls[offsets[i]:offsets[i+1]]`` (doc ordinals, any order
    within a row).  The one encode entry point of the build, its
    updates and merges, and ``delete_docs``' compaction."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    enc = encode_posting_groups(docs, tfs, dls, offsets, block_size)
    return pa.table(
        {
            "term": pc.cast(terms, pa.string()),  # a polars sort emits large_string
            "shard": shards,
            **enc,
        },
        schema=POSTINGS_SCHEMA,
    )


def write_postings_file(table: pa.Table, path: str) -> None:
    """Write one postings file, atomically: row groups of at most
    ``ROW_GROUP_TERMS`` rows, with statistics on ``term`` only — the
    reader prunes row groups by their term range and reads no other
    statistics."""
    atomic_write_table(table, path, row_group_size=ROW_GROUP_TERMS,
                       write_statistics=["term"])


def segment_doc_lengths(docmeta_dir: str) -> pa.Table:
    """A segment's doc-length table: ``doc_id``, ``dl`` and every
    ``dl__<field>`` of its doc store, sorted by ``doc_id`` — row i is
    ordinal i."""
    ds = pads.dataset(docmeta_dir, format="parquet")
    t = ds.to_table(columns=["doc_id", "dl"] + sorted(
        c for c in ds.schema.names if c.startswith("dl__")))
    return t.take(pc.sort_indices(t["doc_id"]))


def _resolve(ref):
    """The value behind ``ref``: an array or table as is, else an object
    ref to one."""
    if isinstance(ref, (np.ndarray, pa.Table)):
        return ref
    import ray

    return ray.get(ref)


def ordinals_of(ids_sorted, docs: np.ndarray) -> np.ndarray:
    """Segment ordinals of doc ids: each id's index in the segment's
    sorted ids; every id must be in the doc store.

    Each call hashes all the segment's ids (~48 B a doc at peak), yet
    stays cheaper than ``np.searchsorted``: on a 2.4M-posting sort block
    0.04 s against 0.30 s at 6k docs, 0.50 s against 1.19 s at 4M docs
    (1 vCPU)."""
    ords = pc.index_in(pa.array(docs, pa.int64()), value_set=ids_sorted)
    if ords.null_count:
        raise ValueError("posting of a doc_id missing from the doc store")
    return ords.to_numpy()


def _doc_lengths(t: pa.Table) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(dl, {field: dl__field}) columns of a doc-store table, as
    read-only views where the columns are single-chunk int64."""
    return (t["dl"].to_numpy().astype(np.int64, copy=False),
            {c[4:]: t[c].to_numpy().astype(np.int64, copy=False)
             for c in t.column_names if c.startswith("dl__")})


def _posting_dls(terms, off: np.ndarray, ords: np.ndarray, dl: np.ndarray,
                 field_dl: dict[str, np.ndarray]) -> np.ndarray:
    """True length of each posting's doc, for postings ``ords`` of the
    lists ``terms`` delimited by ``off``: the field's own length for a
    field-scoped term (``<field>\x1e<term>``), else the content length.
    ``dl``/``field_dl`` are in ordinal order.  The one rule for the
    length that ``block_min_dl`` takes, in the build's encoders and in
    ``delete_docs``' compaction."""
    dls = dl[ords]
    if field_dl:
        term_col = pc.cast(terms, pa.string())
        row_of = np.repeat(np.arange(len(term_col)), np.diff(off))
        for fname, farr in sorted(field_dl.items()):
            frows = pc.starts_with(
                term_col, pattern=fname + FIELD_SEP
            ).to_numpy(zero_copy_only=False)
            if frows.any():
                sel = frows[row_of]
                dls[sel] = farr[ords[sel]]
    return dls


def _run_heads(skey) -> np.ndarray:
    """Row index of the first row of each run of equal ``skey``."""
    codes = pc.dictionary_encode(skey).combine_chunks().indices.to_numpy()
    return np.flatnonzero(np.diff(codes, prepend=-1) != 0)


def _encode_runs(t: pa.Table, heads: np.ndarray, block_size: int,
                 doc_lengths) -> pa.Table:
    """Encode the complete runs of a ``skey``-sorted partial table whose
    runs start at rows ``heads``: one posting row per run.
    ``doc_lengths`` is the segment's doc-length table (or an object ref
    to it); None numbers the table's own distinct docs, all of length
    0, which keeps ``block_min_dl`` a valid, if loose, bound."""
    docs, row_lens = flat_from_binary_col(t["docs"], np.dtype("<i8"))
    tfs, _ = varbyte_flat_from_binary_col(t["tfs"])
    row_off = np.concatenate(([0], np.cumsum(row_lens)))
    group_offsets = np.append(row_off[heads], row_off[-1])
    terms, shards = _terms_shards_from_skeys(t["skey"].take(pa.array(heads)))
    if doc_lengths is None:
        docs = ordinals_of(pa.array(np.unique(docs)), docs)
        dls = np.zeros(docs.size, np.int64)
    else:
        table = _resolve(doc_lengths)
        docs = ordinals_of(table["doc_id"], docs)
        dls = _posting_dls(terms, group_offsets, docs, *_doc_lengths(table))
    return postings_table(terms, shards, docs, tfs, dls, group_offsets,
                          block_size)


class SortedBlockEncoder:
    """``map_batches`` stage over ``skey``-sorted partial postings.

    ``doc_lengths`` is the segment's doc-length table (or an object ref
    to it); None reads it from the ``docmeta`` directory next to
    ``postings_dir``."""

    def __init__(self, postings_dir: str, block_size: int = BLOCK_SIZE,
                 doc_lengths=None):
        self.postings_dir = postings_dir
        self.block_size = block_size
        if doc_lengths is None:
            doc_lengths = segment_doc_lengths(
                os.path.join(os.path.dirname(postings_dir), "docmeta"))
        self.doc_lengths = doc_lengths

    def __call__(self, t: pa.Table) -> pa.Table:
        """Encode the block's complete runs; return its boundary runs as
        ``PARTIAL_SCHEMA`` whatever string/binary widths the sort
        emitted, so every output block has one schema."""
        if t.num_rows == 0:
            return PARTIAL_SCHEMA.empty_table()
        heads = _run_heads(t["skey"])
        if heads.size <= 2:
            # every row may straddle a boundary → all pass through
            return t.cast(PARTIAL_SCHEMA)

        # inner (complete) runs: all but first and last
        lo, hi = int(heads[1]), int(heads[-1])
        inner = t.slice(lo, hi - lo)
        out = _encode_runs(inner, heads[1:-1] - lo, self.block_size,
                           self.doc_lengths)
        digest = hashlib.blake2b(
            (inner["skey"][0].as_py() + "\x00" + inner["skey"][-1].as_py()).encode()
            + out["df"].to_numpy().tobytes(),
            digest_size=8,
        ).hexdigest()
        write_postings_file(
            out, os.path.join(self.postings_dir, f"postings-{digest}.parquet"))
        # pass through only the boundary runs
        return pa.concat_tables(
            [t.slice(0, lo), t.slice(hi)]).cast(PARTIAL_SCHEMA)


def boundary_table(blocks: list[pa.Table]) -> pa.Table:
    """The encoder's output blocks as one ``PARTIAL_SCHEMA`` table.  Ray
    also emits empty blocks that never passed through the encoder, with
    no columns; they are dropped."""
    blocks = [b for b in blocks if b.num_rows]
    return pa.concat_tables(blocks) if blocks else PARTIAL_SCHEMA.empty_table()


def encode_partials_table(t: pa.Table, block_size: int = BLOCK_SIZE,
                          doc_lengths=None) -> pa.Table:
    """Sort, merge and encode an unsorted partial-postings table in one
    vectorized pass on the caller — the boundary merge of
    :func:`write_postings`.

    ``doc_lengths``: the segment's doc-length table (or an object ref
    to it); None numbers the table's own distinct docs and takes every
    length as 0."""
    if t.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table()
    t = t.combine_chunks().take(
        pc.sort_indices(t, sort_keys=[("skey", "ascending")])
    )
    return _encode_runs(t, _run_heads(t["skey"]), block_size, doc_lengths)


def write_postings(partials, postings_dir: str, doc_lengths: pa.Table,
                   block_size: int = BLOCK_SIZE) -> dict:
    """The exchange from partial rows to a segment's postings files:
    ``repartition(n).sort("skey")``, :class:`SortedBlockEncoder` over
    each sorted block, then the driver merge of the boundary runs into
    ``postings-boundary.parquet``.

    ``partials`` is a Dataset of ``PARTIAL_SCHEMA`` rows and
    ``doc_lengths`` the segment's doc-length table (``doc_id``, ``dl``,
    ``dl__<field>``…, sorted by ``doc_id``), broadcast once.  Returns the
    exchange metrics: ``sort_blocks``, ``boundary_rows``,
    ``exchange_sec`` and ``boundary_merge_sec``."""
    import ray

    t0 = time.monotonic()
    partials = partials.materialize()
    # one block per CPU, so the blocks run side by side on every CPU, or
    # one per MIN_PARTITION_BYTES if that is more; the repartition fixes
    # the count, which a bare sort would inherit from whatever block
    # count the input happens to have
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    n_blocks = min(512, max(cpus,
                            partials.size_bytes() // MIN_PARTITION_BYTES))
    boundary = (
        partials.repartition(n_blocks).sort("skey")
        .map_batches(SortedBlockEncoder(postings_dir, block_size,
                                        ray.put(doc_lengths)),
                     batch_format="pyarrow", batch_size=None)
        .materialize()
    )
    t1 = time.monotonic()
    tbl = boundary_table(ray.get(boundary.to_arrow_refs()))
    rest = encode_partials_table(tbl, block_size, doc_lengths)
    if rest.num_rows:
        write_postings_file(
            rest, os.path.join(postings_dir, "postings-boundary.parquet"))
    return {
        "sort_blocks": n_blocks,
        "boundary_rows": tbl.num_rows,
        "exchange_sec": round(t1 - t0, 2),
        "boundary_merge_sec": round(time.monotonic() - t1, 2),
    }
