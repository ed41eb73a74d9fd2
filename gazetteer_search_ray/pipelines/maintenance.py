"""Index maintenance jobs: doc-store backfill, delete + compaction.

Reference analogs:

* :func:`backfill_column` — G2/G4 bulk partial updates
  (``UpdateStreetsUsage.java:47-132`` writes ``ref_count`` /
  ``street_has_loc`` back into existing docs;
  ``UpdatePOITagsAndClasses.java:41-83`` rewrites tags): here a
  ``map_batches`` rewrite of the doc-store segments with a broadcast
  value map — postings untouched.
* :func:`delete_docs` — S4 delete-by-query
  (``AddressesImporter.java:98-108,156-163,245-260``: drop a region /
  stale generation before re-import): an anti-join compaction that
  rewrites doc-store AND postings segments without the deleted doc_ids.
  Deletion is by explicit id set or by doc-store predicate; the
  manifest is re-committed last with a bumped generation counter (M16
  analog of ``import_counter``).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.codec import encode_posting_groups
from ..state import manifest as mf


def _segment_dirs(index_dir: str) -> list[str]:
    man = mf.read_checked_manifest(index_dir)
    if "segments" in man:
        return [os.path.join(index_dir, s) for s in man["segments"]]
    return [index_dir]


def backfill_column(index_dir: str, values: dict[int, object], column: str,
                    default=0) -> int:
    """Write ``column`` into every doc-store segment (doc_id → value).

    One Ray task per docmeta file, the value map broadcast once with
    ``ray.put`` as a (sorted doc_id array, Arrow value array) pair (not
    re-shipped per file); each file applies it with one vectorized
    searchsorted gather + ``Array.take`` — no per-row Python.  Files are
    replaced atomically so a crashed backfill resumes safely.  Returns
    rows touched.
    """
    import ray

    segs = _segment_dirs(index_dir)
    keys = np.array(sorted(values), dtype=np.int64)
    # one array holding mapped values PLUS the default in its last slot:
    # Arrow infers a single unified type for all of them, and a value
    # explicitly set to None round-trips as null instead of turning into
    # the default (misses take the default slot, not a fill_null)
    combo = pa.array([values[int(k)] for k in keys] + [default])
    ref = ray.put((keys, combo))

    @ray.remote
    def rewrite(path: str) -> int:
        t = pq.read_table(path)
        keys, combo = ray.get(ref)  # plasma-local, zero-copy
        d = t["doc_id"].to_numpy()
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, d), keys.size - 1)
            hit = keys[pos] == d
            idx = np.where(hit, pos, keys.size)  # miss → default slot
            col = combo.take(pa.array(idx.astype(np.int64)))
        else:
            col = combo.take(pa.array(np.zeros(t.num_rows, np.int64)))
        if column in t.column_names:
            t = t.drop_columns([column])
        t = t.append_column(column, col)
        mf.atomic_write_table(t, path)
        return t.num_rows

    futs = []
    for seg in segs:
        dmdir = os.path.join(seg, "docmeta")
        for fname in sorted(os.listdir(dmdir)):
            if fname.endswith(".parquet"):
                futs.append(rewrite.remote(os.path.join(dmdir, fname)))
    return int(sum(ray.get(futs)))


def update_index(index_dir: str, ds, score_builder=None,
                 id_col: str = "doc_id") -> dict:
    """Incremental update import — the reference's ``--update`` mode
    (``AddressesImporter.java:98-108,156-163,245-260``: delete the
    incoming batch's ids, re-insert, bump the generation counters).

    1. rows whose ``doc_id`` appears in ``ds`` are deleted from every
       existing segment (:func:`delete_docs` — parallel compaction);
    2. ``ds`` builds a fresh segment (same analyzer/block config, read
       from the manifest) committed atomically under ``upd-<gen>``;
    3. the top manifest re-commits with merged stats, the new segment
       listed, and ``import_counter`` bumped — exactly the reference's
       region/import-counter semantics (M16).

    The incoming id set is collected on the driver — bounded by the
    update batch, the same bound the reference's ``batchObjectIds``
    buffer has.  BM25 stays consistent because df and the global
    (n_docs, avgdl) merge across segments at read time, like ES shards.
    """
    import ray

    from ..functions.analyzer import AnalyzerConfig
    from .build_index import BuildOptions, build_index

    man = mf.read_checked_manifest(index_dir)

    ids = np.unique(
        np.concatenate(
            [
                t[id_col].to_numpy()
                for t in ray.get(ds.select_columns([id_col]).to_arrow_refs())
            ]
            or [np.empty(0, np.int64)]
        )
    )
    delete_docs(index_dir, doc_ids=ids.tolist())
    man = mf.read_manifest(index_dir)  # post-delete stats + bumped counter

    gen = int(man.get("import_counter", 0))
    seg_name = f"upd-{gen:05d}"
    seg_dir = os.path.join(index_dir, seg_name)
    opts = BuildOptions(
        analyzer_config=AnalyzerConfig.from_dict(man["analyzer"]),
        block_size=int(man.get("block_size", 128)),
        num_doc_shards=int(man.get("num_doc_shards", 1)),
        score_builder=score_builder,
        # carry the per-field mapping: without it an update segment
        # silently drops field postings + dl__<field> norms
        extra_fields=tuple(
            tuple(p) for p in (man.get("extra_fields") or ())),
    )
    seg_man = build_index(ds, seg_dir, opts, overwrite=True)

    segments = man.get("segments") or ["."]  # "." = the original root segment
    segments = [s for s in segments if s != seg_name] + [seg_name]
    n_docs = int(man["n_docs"]) + int(seg_man["n_docs"])
    total_tokens = int(man["total_tokens"]) + int(seg_man["total_tokens"])
    man.pop("format_version", None)
    man.update(
        n_docs=n_docs,
        total_tokens=total_tokens,
        avgdl=(total_tokens / n_docs) if n_docs else 0.0,
        segments=segments,
        import_counter=gen,
    )
    mf.write_manifest(index_dir, man)
    return mf.read_manifest(index_dir)


def _decode_rows_flat(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode ALL posting rows of one postings table in one vectorized
    pass → (docs, tfs, group_offsets len rows+1).

    The per-row payloads are concatenated and decoded once (docs are
    raw LE int64, tfs one varbyte pass) — no per-value Python, and
    per-row Python is limited to the buffer concatenation."""
    from ..functions.codec import varbyte_decode

    dfs = t["df"].to_numpy().astype(np.int64)
    off = np.concatenate(([0], np.cumsum(dfs)))
    docs_bufs = t["docs"].to_pylist()
    tfs_bufs = t["tfs"].to_pylist()
    if off[-1] == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), off
    docs = np.concatenate(
        [np.frombuffer(b, np.uint8) for b in docs_bufs]
    ).view("<i8").astype(np.int64, copy=False)
    tfs = varbyte_decode(
        np.concatenate([np.frombuffer(b, np.uint8) for b in tfs_bufs])
    ).astype(np.int64)
    return docs, tfs, off


def delete_docs(index_dir: str, doc_ids=None, predicate=None) -> dict:
    """Anti-join compaction: drop docs from doc-store + postings.

    ``doc_ids``: iterable of ids, or ``predicate(table) -> bool mask``
    over a docmeta table.  Two parallel phases, one Ray task per file:

    1. docmeta files rewrite themselves without the deleted rows and
       return (dropped ids, kept (doc_id, dl) pairs, kept stats);
    2. postings files decode ALL their rows in one vectorized pass,
       drop deleted postings, gather TRUE doc lengths from the
       broadcast (doc_id, dl) arrays, and re-encode everything through
       ``encode_posting_groups`` — so ``block_min_dl`` (hence block-max
       pruning bounds) stays exact after compaction.

    The broadcast dl table is O(n_docs) per segment group — the same
    bound the query readers already hold in memory.  Manifest is
    re-committed last with ``import_counter + 1`` (reference M16
    generation semantics, ``AddressesImporter.java:193-212``).
    """
    import ray

    segs = _segment_dirs(index_dir)
    drop_init = np.array(sorted({int(d) for d in (doc_ids or [])}), dtype=np.int64)
    drop_ref = ray.put(drop_init)

    @ray.remote
    def rewrite_docmeta(path: str):
        t = pq.read_table(path)
        ids = t["doc_id"].to_numpy()
        mask = np.ones(t.num_rows, dtype=bool)
        if predicate is not None:
            mask &= ~np.asarray(predicate(t))
        drop0 = ray.get(drop_ref)
        if drop0.size:
            idx = np.minimum(np.searchsorted(drop0, ids), drop0.size - 1)
            mask &= drop0[idx] != ids
        t2 = t.filter(pa.array(mask))
        if t2.num_rows != t.num_rows:
            mf.atomic_write_table(t2, path)
        return (
            ids[~mask],
            t2["doc_id"].to_numpy(),
            t2["dl"].to_numpy().astype(np.int64),
        )

    dm_futs = []
    for seg in segs:
        dmdir = os.path.join(seg, "docmeta")
        for fname in sorted(os.listdir(dmdir)):
            if fname.endswith(".parquet"):
                dm_futs.append(rewrite_docmeta.remote(os.path.join(dmdir, fname)))
    dropped_parts, kept_id_parts, kept_dl_parts = zip(*ray.get(dm_futs)) if dm_futs else ((), (), ())

    drop_arr = np.unique(
        np.concatenate([drop_init, *[d.astype(np.int64) for d in dropped_parts]])
        if dropped_parts
        else drop_init
    )
    kept_ids = np.concatenate(kept_id_parts) if kept_id_parts else np.empty(0, np.int64)
    kept_dls = np.concatenate(kept_dl_parts) if kept_dl_parts else np.empty(0, np.int64)
    order = np.argsort(kept_ids)
    kept_ids, kept_dls = kept_ids[order], kept_dls[order]
    total_docs = int(kept_ids.size)
    total_tokens = int(kept_dls.sum())
    dl_ref = ray.put((kept_ids, kept_dls))
    drop_all_ref = ray.put(drop_arr)

    @ray.remote
    def rewrite_postings(path: str) -> int:
        from ..stages.postings import POSTINGS_SCHEMA, _encoded_table

        t = pq.read_table(path)
        if t.num_rows == 0:
            return 0
        docs, tfs, off = _decode_rows_flat(t)
        drops = ray.get(drop_all_ref)
        if drops.size == 0:
            return t.num_rows
        idx = np.minimum(np.searchsorted(drops, docs), drops.size - 1)
        keep = drops[idx] != docs
        if keep.all():
            return t.num_rows
        ids_sorted, dls_sorted = ray.get(dl_ref)
        kdocs, ktfs = docs[keep], tfs[keep]
        kdls = dls_sorted[np.searchsorted(ids_sorted, kdocs)]
        lens = np.diff(off)
        gid = np.repeat(np.arange(lens.size), lens)
        new_lens = np.bincount(gid[keep], minlength=lens.size)
        nonempty = np.flatnonzero(new_lens > 0)
        if nonempty.size == 0:
            os.unlink(path)
            return 0
        new_off = np.concatenate(([0], np.cumsum(new_lens[nonempty])))
        enc = encode_posting_groups(kdocs, ktfs, kdls, new_off)
        out = _encoded_table(
            t["term"].take(pa.array(nonempty)),
            t["shard"].take(pa.array(nonempty)),
            enc,
        )
        mf.atomic_write_table(out, path)
        return out.num_rows

    p_futs = []
    for seg in segs:
        pdir = os.path.join(seg, "postings")
        for fname in sorted(os.listdir(pdir)):
            if fname.endswith(".parquet"):
                p_futs.append(rewrite_postings.remote(os.path.join(pdir, fname)))
    ray.get(p_futs)

    man = mf.read_manifest(index_dir)
    man.pop("format_version", None)
    man["n_docs"] = total_docs
    man["total_tokens"] = total_tokens
    man["avgdl"] = (total_tokens / total_docs) if total_docs else 0.0
    man["import_counter"] = int(man.get("import_counter", 0)) + 1
    mf.write_manifest(index_dir, man)
    return man


def force_merge(index_dir: str, sort_partitions: int | None = None,
                pack_cap: int = 128) -> dict:
    """Merge ALL index segments into one — the ES ``_forcemerge`` /
    Lucene segment-merge analog for this engine's explicit lifecycle
    (reference runs on ES where incremental ``--update`` imports leave
    one Lucene segment per bulk generation; queries then pay a
    per-segment dictionary probe + k-way doc merge per term).

    Ray-Data-first: postings rows of every segment stream through ONE
    ``map_batches`` repack (decode → per-doc true lengths from the
    broadcast docmeta arrays → partial-postings rows, hot terms split
    at ``pack_cap`` docs/row exactly like the build) into the build
    pipeline's own ``sort("skey")`` exchange + ``SortedBlockEncoder``
    + boundary merge — so merged segments are byte-compatible with
    fresh builds and block-max metadata (``block_min_dl`` etc.) stays
    exact.  Docmeta files are copied as-is (doc ids are disjoint across
    segments by the ``update_index`` delete-first contract).

    Crash-safe: the new ``merged-<gen>`` directory is built complete,
    the top manifest re-commit (temp+rename) is the atomic cut-over,
    and only then are the old segment dirs removed; unlisted ``merged-*``
    / ``upd-*`` dirs and unlisted root segment data left by a crash are
    swept at entry.  n_docs /
    total_tokens / per-field avgdl are unchanged (no rows added or
    dropped), ``import_counter`` bumps (M16 generation semantics).

    The broadcast (doc_id, dl, dl__field…) arrays are O(n_docs) — the
    same bound :func:`delete_docs` and the query readers already hold.
    """
    import shutil

    import ray
    import ray.data as rd

    from ..stages.postings import (
        SHARD_SEP,
        SortedBlockEncoder,
        encode_partials_table,
    )
    from ..stages.tokenize import (
        FIELD_SEP,
        binary_rows_from_flat,
        varbyte_rows,
    )

    man = mf.read_checked_manifest(index_dir)
    # sweep what a crash left behind: segment dirs the manifest does not
    # list, and the root segment's data once "." is no longer listed
    committed = set(man.get("segments") or ["."])
    stray = [n for n in os.listdir(index_dir)
             if n.startswith(("merged-", "upd-")) and n not in committed]
    if "." not in committed:
        stray += ["postings", "docmeta"]
    for name in stray:
        shutil.rmtree(os.path.join(index_dir, name), ignore_errors=True)
    segs = _segment_dirs(index_dir)
    if len(segs) <= 1:
        return man  # already one segment — no-op

    # ---- broadcast true doc lengths (main + per-field) -----------------
    import pyarrow.dataset as pads

    meta_ds = pads.dataset(
        [pads.dataset(os.path.join(s, "docmeta"), format="parquet")
         for s in segs])
    field_cols = sorted(c for c in meta_ds.schema.names
                        if c.startswith("dl__"))
    mt = meta_ds.to_table(columns=["doc_id", "dl"] + field_cols)
    order = pc.sort_indices(mt["doc_id"])
    mt = mt.take(order)
    ids_sorted = mt["doc_id"].to_numpy()
    dl_ref = ray.put((
        ids_sorted,
        mt["dl"].to_numpy().astype(np.int64),
        {c[4:]: mt[c].to_numpy().astype(np.int64) for c in field_cols},
    ))

    gen = int(man.get("import_counter", 0)) + 1
    new_name = f"merged-{gen:05d}"
    new_dir = os.path.join(index_dir, new_name)
    postings_dir = os.path.join(new_dir, "postings")
    dm_dir = os.path.join(new_dir, "docmeta")
    os.makedirs(postings_dir)
    os.makedirs(dm_dir)
    for i, s in enumerate(segs):
        sdm = os.path.join(s, "docmeta")
        for fname in sorted(os.listdir(sdm)):
            if fname.endswith(".parquet"):
                shutil.copy2(os.path.join(sdm, fname),
                             os.path.join(dm_dir, f"s{i:03d}-{fname}"))

    num_doc_shards = int(man.get("num_doc_shards", 1))
    block_size = int(man.get("block_size", 128))

    def repack(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            from ..stages.tokenize import PARTIAL_SCHEMA

            return PARTIAL_SCHEMA.empty_table()
        docs, tfs, off = _decode_rows_flat(t)
        ids, dl_main, dl_fields = ray.get(dl_ref)
        dls = dl_main[np.searchsorted(ids, docs)]
        term_col = pc.cast(t["term"].combine_chunks(), pa.string())
        if dl_fields:
            lens = np.diff(off)
            row_of = np.repeat(np.arange(t.num_rows), lens)
            for fname, farr in sorted(dl_fields.items()):
                frows = pc.starts_with(
                    term_col, pattern=fname + FIELD_SEP
                ).to_numpy(zero_copy_only=False)
                if frows.any():
                    sel = frows[row_of]
                    dls[sel] = farr[np.searchsorted(ids, docs[sel])]
        # skey (matches TokenizeStage): term alone for 1 shard, else
        # term<SEP>shard
        if num_doc_shards > 1:
            # TokenizeStage zero-pads: "term\x1f<shard:04d>"
            skey_src = pc.binary_join_element_wise(
                term_col,
                pc.utf8_lpad(
                    pc.cast(t["shard"].combine_chunks(), pa.string()),
                    width=4, padding="0"),
                SHARD_SEP)
        else:
            skey_src = term_col
        # pack_cap split (vectorized): byte-uniform partial rows so hot
        # terms can't skew one sort range
        lens = np.diff(off)
        nsub = np.maximum(1, -(-lens // pack_cap))
        tot = int(nsub.sum())
        first = np.concatenate(([0], np.cumsum(nsub)))[:-1]
        intra = np.arange(tot) - np.repeat(first, nsub)
        starts = np.repeat(off[:-1], nsub) + intra * pack_cap
        row_offsets = np.append(starts, off[-1])
        rep_idx = pa.array(np.repeat(np.arange(t.num_rows), nsub))
        skey_arr = pc.take(skey_src, rep_idx)
        return pa.table({
            "skey": skey_arr,
            "docs": binary_rows_from_flat(
                docs.astype("<i8"), row_offsets),
            "tfs": varbyte_rows(tfs, row_offsets),
            "dls": varbyte_rows(dls.astype(np.int64), row_offsets),
        })

    pfiles = []
    for s in segs:
        pdir = os.path.join(s, "postings")
        pfiles += [os.path.join(pdir, f) for f in sorted(os.listdir(pdir))
                   if f.endswith(".parquet")]
    partials = rd.read_parquet(pfiles, partitioning=None) \
        .map_batches(repack, batch_format="pyarrow")

    from ray.data import DataContext

    DataContext.get_current().use_polars_sort = True
    n_blocks = sort_partitions or max(
        8, min(512, 4 * int(ray.cluster_resources().get("CPU", 8))))
    sorted_partials = partials.repartition(n_blocks).sort("skey")
    boundary = sorted_partials.map_batches(
        SortedBlockEncoder(postings_dir, block_size),
        batch_format="pyarrow", batch_size=None,
    ).materialize()
    tbl = pa.concat_tables(
        [ray.get(r) for r in boundary.to_arrow_refs()],
        promote_options="permissive")
    rest = encode_partials_table(tbl, block_size)
    if rest.num_rows:
        mf.atomic_write_table(
            rest, os.path.join(postings_dir, "postings-boundary.parquet"))

    old_dirs = [s for s in segs]
    man.pop("format_version", None)
    man["segments"] = [new_name]
    man["import_counter"] = gen
    mf.write_manifest(index_dir, man)  # atomic cut-over
    for s in old_dirs:
        if os.path.abspath(s) == os.path.abspath(index_dir):
            # "." root segment: remove its data dirs, keep the root
            for sub in ("postings", "docmeta"):
                shutil.rmtree(os.path.join(s, sub), ignore_errors=True)
        else:
            shutil.rmtree(s, ignore_errors=True)
    return mf.read_manifest(index_dir)
