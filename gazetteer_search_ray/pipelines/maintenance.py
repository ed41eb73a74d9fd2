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
  writes the doc store AND postings of every segment that lost a doc
  into a new segment directory, without the deleted doc_ids.
  Deletion is by explicit id set or by doc-store predicate; the
  manifest is re-committed last with a bumped generation counter (M16
  analog of ``import_counter``).

``update_index``, ``delete_docs`` and ``force_merge`` each commit
through ``manifest.commit`` (see ``state/manifest.py`` for the layout).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.postings import _doc_lengths, _posting_dls
from ..state import manifest as mf


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

    segs = [os.path.join(index_dir, s)
            for s in mf.read_checked_manifest(index_dir)["segments"]]
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
    2. ``ds`` builds a fresh segment ``upd-<gen>`` (same analyzer,
       block and field config, read from the manifest);
    3. the manifest re-commits with the new segment listed and
       ``import_counter`` at the delete's generation — exactly the
       reference's region/import-counter semantics (M16).

    The batch is materialized once, and a batch that lacks a column
    the index maps (``id_col``, ``content``, an ``extra_fields``
    source) is refused before anything is written.  The incoming id set
    is collected on the driver — bounded by the update batch, the same
    bound the reference's ``batchObjectIds`` buffer has.  BM25 stays
    consistent because df and the global (n_docs, avgdl) merge across
    segments at read time, like ES shards.
    """
    import ray

    from ..functions.analyzer import AnalyzerConfig
    from .build_index import BuildOptions, write_segment

    man = mf.read_checked_manifest(index_dir)
    extra_fields = tuple(tuple(p) for p in man["extra_fields"])
    # the batch is read once: its schema, its ids and the segment build
    # all use these blocks
    ds = ds.materialize()
    # refuse a batch the segment build cannot read BEFORE the delete
    # commits: otherwise the replaced docs are gone and nothing lands
    have = set(ds.schema().names)
    for col in (id_col, "content", *(c for _f, c in extra_fields)):
        if col not in have:
            raise ValueError(
                f"update batch lacks column {col!r} that the index at "
                f"{index_dir} needs; nothing was changed")

    ids = np.unique(
        np.concatenate(
            [
                t[id_col].to_numpy()
                for t in ray.get(ds.select_columns([id_col]).to_arrow_refs())
                if t.num_rows  # a read can yield an empty, schema-less block
            ]
            or [np.empty(0, np.int64)]
        )
    )
    man = delete_docs(index_dir, doc_ids=ids.tolist())

    gen = man["import_counter"]
    seg_name = f"upd-{gen:05d}"
    opts = BuildOptions(
        analyzer_config=AnalyzerConfig.from_dict(man["analyzer"]),
        block_size=man["block_size"],
        num_doc_shards=man["num_doc_shards"],
        score_builder=score_builder,
        # carry the per-field mapping: without it an update segment
        # silently drops field postings + dl__<field> norms
        extra_fields=extra_fields,
    )
    record = write_segment(ds, os.path.join(index_dir, seg_name), opts)
    return mf.commit(index_dir, {**man["segment_stats"], seg_name: record},
                     man, import_counter=gen)


def _decode_rows_flat(t: pa.Table, block_size: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode ALL posting rows of one postings table in one vectorized
    pass → (segment ordinals, tfs, group_offsets len rows+1).

    The per-row payloads are concatenated and decoded once
    (``codec.decode_docs_many``, one varbyte pass for tfs) — no
    per-value Python, and per-row Python is limited to the buffer
    concatenation."""
    from ..functions.codec import decode_docs_many, varbyte_decode

    dfs = t["df"].to_numpy().astype(np.int64)
    off = np.concatenate(([0], np.cumsum(dfs)))
    if off[-1] == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), off
    docs_bufs = t["docs"].to_pylist()
    boffs = pc.list_flatten(t["block_docs_off"]).to_numpy()
    ords = decode_docs_many(
        np.frombuffer(b"".join(docs_bufs), np.uint8), dfs,
        np.array([len(b) for b in docs_bufs], np.int64), boffs, block_size)
    tfs = varbyte_decode(
        np.frombuffer(b"".join(t["tfs"].to_pylist()), np.uint8)
    ).astype(np.int64)
    return ords, tfs, off


# suffix of a segment directory that delete_docs compacted
_COMPACTED = re.compile(r"\.d\d{5}$")


def _compacted_name(seg: str, gen: int) -> str:
    """Directory name of generation ``gen``'s compacted copy of segment
    ``seg``: its name with a ``.d<gen>`` suffix in place of an earlier
    one, so an ``upd-*`` segment stays ``upd-*``."""
    return f"{_COMPACTED.sub('', seg)}.d{gen:05d}"


def _parquet_files(seg_dir: str, sub: str) -> list[str]:
    d = os.path.join(seg_dir, sub)
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")]


def compact_postings_file(src: str, dst: str, new_ord: np.ndarray,
                          dl: np.ndarray, field_dl: dict[str, np.ndarray],
                          block_size: int) -> int:
    """Re-encode one postings file of a segment that lost docs: decode
    all its rows in one vectorized pass, drop the deleted postings,
    renumber the rest through ``new_ord`` (old ordinal → new ordinal, -1
    for a deleted doc), gather TRUE doc lengths (``dl``/``field_dl`` in
    new-ordinal order) and re-encode through ``postings_table``
    — so ``block_min_dl`` (hence block-max bounds) stays exact.

    ``src`` is only read and ``dst`` is a new path, so a retried call
    writes the same file again.  Writes nothing when no posting is
    left.  Returns the rows written."""
    from ..stages.postings import postings_table, write_postings_file

    t = pq.read_table(src)
    if t.num_rows == 0:
        return 0
    ords, tfs, off = _decode_rows_flat(t, block_size)
    nords = new_ord[ords]
    keep = nords >= 0
    lens = np.diff(off)
    gid = np.repeat(np.arange(lens.size), lens)
    new_lens = np.bincount(gid[keep], minlength=lens.size)
    nonempty = np.flatnonzero(new_lens > 0)
    if nonempty.size == 0:
        return 0
    terms = t["term"].take(pa.array(nonempty))
    new_off = np.concatenate(([0], np.cumsum(new_lens[nonempty])))
    kords = nords[keep]
    out = postings_table(
        terms, t["shard"].take(pa.array(nonempty)), kords, tfs[keep],
        _posting_dls(terms, new_off, kords, dl, field_dl), new_off,
        block_size)
    write_postings_file(out, dst)
    return out.num_rows


def delete_docs(index_dir: str, doc_ids=None, predicate=None) -> dict:
    """Anti-join compaction: drop docs from doc-store + postings.

    ``doc_ids``: iterable of ids, or ``predicate(table) -> bool mask``
    over a docmeta table.  Copy-on-write: no committed file is written.
    Each segment that loses a doc is rewritten into a new directory
    (:func:`_compacted_name`), in two parallel phases, one Ray task per
    file:

    1. every docmeta file computes its keep mask and returns its ids,
       the mask and the kept doc lengths; a file that lost rows writes
       its kept rows into the new directory (the others are copied);
    2. EVERY postings file of the segment is re-encoded into the new
       directory (:func:`compact_postings_file`): postings hold segment
       ordinals (ranks of the segment's sorted doc ids), and a deletion
       shifts the ordinals of all later docs.

    The manifest commit (``manifest.commit``) is the atomic cut-over to
    the new directories, each listed with a record derived from its
    kept doc lengths; only then are the old ones removed.  Every task
    reads committed files and writes uncommitted ones, so a retried task
    redoes the same write, and a crash at any point leaves the committed
    index as it was (the next job sweeps the leftovers).

    The broadcast arrays are O(docs of the segment) — the same bound
    the query readers already hold in memory.  The manifest carries
    ``import_counter + 1`` (reference M16 generation semantics,
    ``AddressesImporter.java:193-212``).
    """
    import shutil

    import ray

    man = mf.read_checked_manifest(index_dir)
    names = man["segments"]
    mf.sweep(index_dir, names)
    gen = man["import_counter"] + 1
    block_size = man["block_size"]
    drop_init = np.array(sorted({int(d) for d in (doc_ids or [])}), dtype=np.int64)
    drop_ref = ray.put(drop_init)

    @ray.remote
    def compact_docmeta(src: str, dst: str):
        t = pq.read_table(src)
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
            mf.atomic_write_table(t2, dst)
        return ids, mask, t2.select(
            [c for c in t2.column_names if c == "dl" or c.startswith("dl__")])

    compact_postings = ray.remote(compact_postings_file)

    def target(seg: str, path: str) -> str:
        return os.path.join(index_dir, _compacted_name(seg, gen),
                            os.path.basename(os.path.dirname(path)),
                            os.path.basename(path))

    dm_files = [_parquet_files(os.path.join(index_dir, s), "docmeta")
                for s in names]
    dm_futs = [[compact_docmeta.remote(p, target(s, p)) for p in paths]
               for s, paths in zip(names, dm_files)]
    p_futs = []
    segs = {}  # the committed segments: name → record
    for seg, paths, futs in zip(names, dm_files, dm_futs):
        res = ray.get(futs)
        mask = np.concatenate([r[1] for r in res] or [np.ones(0, bool)])
        if mask.all():  # no doc of this segment dropped: it stays as is
            segs[seg] = man["segment_stats"][seg]
            continue
        ids = np.concatenate([r[0] for r in res])
        kept = pa.concat_tables([r[2] for r in res])
        new_name = _compacted_name(seg, gen)
        segs[new_name] = {**man["segment_stats"][seg],
                          **mf.segment_record(kept)}
        for p, r in zip(paths, res):
            if r[1].all():  # untouched docmeta file: copy it over
                shutil.copy2(p, target(seg, p))
        os.makedirs(os.path.join(index_dir, new_name, "postings"))
        # old ordinal (rank among the segment's ids) → new ordinal, or
        # -1 for a dropped doc; lengths in new-ordinal order
        order = np.argsort(ids)
        keep_sorted = mask[order]
        new_ord = np.where(keep_sorted, np.cumsum(keep_sorted) - 1, -1)
        dl, field_dl = _doc_lengths(kept.take(pa.array(
            np.argsort(ids[mask]))))
        ref = ray.put(new_ord), ray.put(dl), ray.put(field_dl)
        p_futs += [compact_postings.remote(p, target(seg, p), *ref, block_size)
                   for p in _parquet_files(os.path.join(index_dir, seg),
                                           "postings")]
    ray.get(p_futs)
    return mf.commit(index_dir, segs, man, import_counter=gen)


def force_merge(index_dir: str) -> dict:
    """Merge ALL index segments into one — the ES ``_forcemerge`` /
    Lucene segment-merge analog for this engine's explicit lifecycle
    (reference runs on ES where incremental ``--update`` imports leave
    one Lucene segment per bulk generation; queries then pay a
    per-segment dictionary probe + k-way doc merge per term).

    Ray-Data-first: postings rows of every segment stream through ONE
    ``map_batches`` repack (decode → doc ids →
    ``tokenize.pack_partials``, the build's own partial-row packer) into
    the build's own exchange (``postings.write_postings``, given the
    merged doc-length table) — so merged segments are byte-compatible
    with fresh builds and block-max metadata (``block_min_dl`` etc.)
    stays exact.  An index whose deletes left no postings merges into a
    segment with none.  Docmeta files are copied as-is (doc ids are
    disjoint across segments by the ``update_index`` delete-first
    contract).

    Crash-safe: the new ``merged-<gen>`` directory is built complete,
    the manifest commit (``manifest.commit``, its record derived from
    the merged doc-length table) is the atomic cut-over, and only then
    are the old segment dirs removed; what a crash left behind is swept
    at entry.  n_docs / total_tokens / per-field avgdl are unchanged (no
    rows added or dropped), ``import_counter`` bumps (M16 generation
    semantics).

    Postings hold segment ordinals: ``repack`` turns them back into doc
    ids through each segment's sorted ids, and the encoder numbers them
    by the merged segment's sorted ids and takes their lengths from its
    doc-length table.  The broadcast (doc_id, dl, dl__field…) table is
    O(n_docs) — the same bound the query readers already hold.
    """
    import shutil

    import ray
    import ray.data as rd

    from ..stages.postings import _resolve, write_postings
    from ..stages.tokenize import pack_partials

    man = mf.read_checked_manifest(index_dir)
    mf.sweep(index_dir, man["segments"])
    segs = [os.path.join(index_dir, s) for s in man["segments"]]
    if len(segs) <= 1:
        return man  # already one segment — no-op

    # ---- the merged segment's doc-length table -------------------------
    import pyarrow.dataset as pads

    seg_meta = [pads.dataset(os.path.join(s, "docmeta"), format="parquet")
                for s in segs]
    field_cols = sorted(c for c in seg_meta[0].schema.names
                        if c.startswith("dl__"))
    seg_tables = [m.to_table(columns=["doc_id", "dl"] + field_cols)
                  for m in seg_meta]
    mt = pa.concat_tables(seg_tables)
    mt = mt.take(pc.sort_indices(mt["doc_id"]))

    gen = man["import_counter"] + 1
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

    num_doc_shards = man["num_doc_shards"]
    block_size = man["block_size"]

    def repack(t: pa.Table, seg_ids) -> pa.Table:
        ords, tfs, off = _decode_rows_flat(t, block_size)
        # segment ordinal → doc id
        return pack_partials(t["term"], t["shard"], _resolve(seg_ids)[ords],
                             tfs, off, num_doc_shards)

    seg_parts = []
    for s, st in zip(segs, seg_tables):
        pfiles = _parquet_files(s, "postings")
        if pfiles:
            seg_ids_ref = ray.put(np.sort(st["doc_id"].to_numpy()))
            # one block per file: Ray's split of a small file's read
            # leaves empty blocks with no columns
            seg_parts.append(
                rd.read_parquet(pfiles, partitioning=None,
                                override_num_blocks=len(pfiles)).map_batches(
                    repack, fn_args=(seg_ids_ref,), batch_format="pyarrow"))
    metrics = {}
    if seg_parts:
        metrics = write_postings(seg_parts[0].union(*seg_parts[1:]),
                                 postings_dir, mt, block_size)
    record = {**mf.segment_record(mt), "metrics": metrics}
    return mf.commit(index_dir, {new_name: record}, man, import_counter=gen)
