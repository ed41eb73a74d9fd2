"""Posting-list merge — the ``groupby(term)``-equivalent shuffle stage.

Reference analog: Lucene's hidden segment merge inside ES; here it is the
explicit all-to-all exchange of the build pipeline (SURVEY.md §3.1).

The naive realization — ``groupby(term).map_groups(encode)`` — costs one
Python call per vocabulary term (~10ms/group in Ray), which is fatal at
real vocabulary sizes.  The pipeline therefore performs the same
sort-based group-aggregate explicitly, keeping the encode vectorized:

1. ``sort(["term", "shard"])`` — the range-partitioned all-to-all
   exchange (identical data movement to a groupby);
2. :class:`SortedBlockEncoder` (``map_batches``) — every sorted block
   encodes ALL its *complete* key-runs in one numpy pass
   (``codec.encode_posting_groups``) and side-writes them as a postings
   parquet segment (temp+rename, content-derived name → idempotent under
   task retry); only the block's first/last runs — the ones that may
   straddle block boundaries — are passed through;
3. the (tiny) boundary stream goes through a real
   ``groupby(term, shard).map_groups`` merge.

Partials carry doc ids (63-bit hashes); every encoder maps them to the
segment's doc ordinals (``codec`` format v3) with one ``searchsorted``
over the segment's sorted ids, which the build ``ray.put``s once.

``shard`` = ``doc_id % num_doc_shards`` bounds run length for
heavy-hitter terms so no single group materializes a 10^12-doc posting
list; the query layer sort-merges shards per term (tested equivalent to
an unsharded index).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..functions.codec import BLOCK_SIZE, encode_posting, encode_posting_groups
from ..state.manifest import atomic_write_table
from .tokenize import (
    PARTIAL_SCHEMA,
    flat_from_binary_col,
    varbyte_flat_from_binary_col,
)

SHARD_SEP = "\x1f"


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


def _encoded_table(term_arr, shard_arr, enc: dict) -> pa.Table:
    if isinstance(term_arr, pa.ChunkedArray):
        term_arr = term_arr.combine_chunks()
    term_arr = pc.cast(term_arr, pa.string())  # large_string after polars sort
    return pa.table(
        {
            "term": term_arr,
            "shard": shard_arr,
            "df": pa.array(enc["df"], pa.int64()),
            "docs": pa.array(enc["docs"], pa.binary()),
            "tfs": pa.array(enc["tfs"], pa.binary()),
            "block_last_doc": pa.array(enc["block_last_doc"], pa.list_(pa.int32())),
            "block_max_tf": pa.array(enc["block_max_tf"], pa.list_(pa.int32())),
            "block_min_dl": pa.array(enc["block_min_dl"], pa.list_(pa.int32())),
            "block_docs_off": pa.array(enc["block_docs_off"], pa.list_(pa.int64())),
            "block_tfs_off": pa.array(enc["block_tfs_off"], pa.list_(pa.int64())),
        },
        schema=POSTINGS_SCHEMA,
    )


def segment_doc_ids(docmeta_dir: str) -> np.ndarray:
    """A segment's doc ids, sorted: ordinal i is the i-th smallest."""
    t = pads.dataset(docmeta_dir, format="parquet").to_table(columns=["doc_id"])
    return np.sort(t["doc_id"].to_numpy())


def _resolve(doc_ids) -> np.ndarray:
    """The sorted-id array behind ``doc_ids`` (an array or an object ref)."""
    if isinstance(doc_ids, np.ndarray):
        return doc_ids
    import ray

    return ray.get(doc_ids)


def ordinals_of(ids_sorted: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """Segment ordinals of doc ids; every id must be in the doc store."""
    ords = np.searchsorted(ids_sorted, docs)
    if docs.size and (ords.max() >= ids_sorted.size
                      or not np.array_equal(ids_sorted[ords], docs)):
        raise ValueError("posting of a doc_id missing from the doc store")
    return ords


class SortedBlockEncoder:
    """``map_batches`` stage over (term, shard)-sorted partial postings.

    ``doc_ids`` is the segment's sorted doc ids (array or object ref);
    None reads them from the ``docmeta`` directory next to
    ``postings_dir``."""

    def __init__(self, postings_dir: str, block_size: int = BLOCK_SIZE,
                 row_group_size: int = 4096, doc_ids=None):
        self.postings_dir = postings_dir
        self.block_size = block_size
        self.row_group_size = row_group_size
        if doc_ids is None:
            doc_ids = segment_doc_ids(
                os.path.join(os.path.dirname(postings_dir), "docmeta"))
        self.doc_ids = doc_ids

    def __call__(self, t: pa.Table) -> pa.Table:
        """Encode the block's complete runs; return its boundary runs as
        ``PARTIAL_SCHEMA`` whatever string/binary widths the sort
        emitted, so every output block has one schema."""
        if t.num_rows == 0:
            return PARTIAL_SCHEMA.empty_table()
        codes = pc.dictionary_encode(t["skey"]).combine_chunks().indices.to_numpy()
        m = len(codes)
        run_heads = np.concatenate(([0], np.flatnonzero(np.diff(codes) != 0) + 1))
        nruns = run_heads.size
        run_ends = np.append(run_heads[1:], m)
        if nruns <= 2:
            # every row may straddle a boundary → all pass through
            return t.cast(PARTIAL_SCHEMA)

        # inner (complete) runs: all but first and last
        lo_row, hi_row = int(run_ends[0]), int(run_heads[-1])
        inner = t.slice(lo_row, hi_row - lo_row)
        heads = run_heads[1:-1] - lo_row
        docs, row_lens = flat_from_binary_col(inner["docs"], np.dtype("<i8"))
        docs = ordinals_of(_resolve(self.doc_ids), docs)
        tfs, _ = varbyte_flat_from_binary_col(inner["tfs"])
        dls, _ = varbyte_flat_from_binary_col(inner["dls"])
        row_off = np.concatenate(([0], np.cumsum(row_lens)))
        ends = run_ends[1:-1] - lo_row
        group_offsets = np.concatenate((row_off[heads], [row_off[ends[-1]]]))
        enc = encode_posting_groups(docs, tfs, dls, group_offsets, self.block_size)
        terms_h, shards_h = _terms_shards_from_skeys(
            inner["skey"].take(pa.array(heads))
        )
        out = _encoded_table(terms_h, shards_h, enc)
        digest = hashlib.blake2b(
            (inner["skey"][0].as_py() + "\x00" + inner["skey"][-1].as_py()).encode()
            + np.asarray(enc["df"], dtype=np.int64).tobytes(),
            digest_size=8,
        ).hexdigest()
        atomic_write_table(
            out, os.path.join(self.postings_dir, f"postings-{digest}.parquet")
        )
        # pass through only the boundary runs
        first = t.slice(0, int(run_ends[0]))
        last = t.slice(int(run_heads[-1]), m - int(run_heads[-1]))
        return pa.concat_tables([first, last]).cast(PARTIAL_SCHEMA)


def boundary_table(blocks: list[pa.Table]) -> pa.Table:
    """The encoder's output blocks as one ``PARTIAL_SCHEMA`` table.  Ray
    also emits empty blocks that never passed through the encoder, with
    no columns; they are dropped."""
    blocks = [b for b in blocks if b.num_rows]
    return pa.concat_tables(blocks) if blocks else PARTIAL_SCHEMA.empty_table()


def encode_partials_table(t: pa.Table, block_size: int = BLOCK_SIZE,
                          doc_ids=None) -> pa.Table:
    """Sort + merge + encode an (unsorted) partial-postings table in one
    vectorized pass.  Used for the boundary stream when it is small
    enough to merge on the driver — saves a whole all-to-all exchange
    (the ``groupby`` path remains for large boundary sets).

    ``doc_ids``: the segment's sorted doc ids (array or object ref);
    None numbers the table's own distinct docs, as for a table that is
    a segment by itself."""
    if t.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table()
    t = t.combine_chunks().take(
        pc.sort_indices(t, sort_keys=[("skey", "ascending")])
    )
    codes = pc.dictionary_encode(t["skey"]).combine_chunks().indices.to_numpy()
    heads = np.concatenate(([0], np.flatnonzero(np.diff(codes) != 0) + 1))
    docs, row_lens = flat_from_binary_col(t["docs"], np.dtype("<i8"))
    ids = np.unique(docs) if doc_ids is None else _resolve(doc_ids)
    docs = ordinals_of(ids, docs)
    tfs, _ = varbyte_flat_from_binary_col(t["tfs"])
    dls, _ = varbyte_flat_from_binary_col(t["dls"])
    row_off = np.concatenate(([0], np.cumsum(row_lens)))
    group_offsets = np.append(row_off[heads], row_off[-1])
    enc = encode_posting_groups(docs, tfs, dls, group_offsets, block_size)
    terms_h, shards_h = _terms_shards_from_skeys(t["skey"].take(pa.array(heads)))
    return _encoded_table(terms_h, shards_h, enc)


def make_postings_merger(doc_ids, block_size: int = BLOCK_SIZE):
    """``map_groups`` merge for one (term, shard) group of partials;
    ``doc_ids`` is the segment's sorted doc ids (array or object ref).

    Used only for the boundary stream (O(#sorted-blocks) groups), where
    per-group Python overhead is harmless.
    """

    def merge(group: pa.Table) -> pa.Table:
        docs, _ = flat_from_binary_col(group["docs"], np.dtype("<i8"))
        docs = ordinals_of(_resolve(doc_ids), docs)
        tfs, _ = varbyte_flat_from_binary_col(group["tfs"])
        dls, _ = varbyte_flat_from_binary_col(group["dls"])
        enc = encode_posting(docs, tfs, dls, block_size)
        enc_cols = {
            k: [enc[k]] if not isinstance(enc[k], np.ndarray) else [enc[k].tolist()]
            for k in ("df", "docs", "tfs", "block_last_doc", "block_max_tf",
                      "block_min_dl", "block_docs_off", "block_tfs_off")
        }
        terms_h, shards_h = _terms_shards_from_skeys(group["skey"].slice(0, 1))
        return _encoded_table(terms_h, shards_h, enc_cols)

    return merge
