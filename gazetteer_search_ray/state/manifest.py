"""Index manifest: the one commit point of every index job.

An index is a directory of segment directories listed by one JSON file
at its root (reference analogs: the index DDL + import counters of
``esclient/IndexHolder.java:34-67`` and
``imp/addr/AddressesImporter.java:193-212``; Lucene's ``segments_N``)::

    <index>/_manifest.json            settings, global stats, ``segments``
                                      (names, in order) and
                                      ``segment_stats`` (name → record)
    <index>/<segment>/docmeta/*.parquet
    <index>/<segment>/postings/*.parquet

A job writes its new segment directories first, then calls
:func:`commit`, which writes the manifest LAST via temp+rename: its
presence is the atomic commit point.  A directory the manifest does not
list is garbage from a crashed or superseded job; :func:`sweep` removes
it (SURVEY.md §4 'Checkpoint / resume').  The global stats are sums over
the listed segment records, so they follow the live docs through every
job.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

MANIFEST_NAME = "_manifest.json"
# v4: the root manifest lists every segment directory, with one stats
# record per segment; no segment lives at the index root
# v3: postings "docs" hold segment-local doc ordinals, delta-packed at a
# 1/2/4-byte width per 128-posting block; block_last_doc is list<int32>
# ordinals (v2: raw LE int64 doc ids; v1: delta+varbyte doc ids)
FORMAT_VERSION = 4

# index settings that every commit carries over unchanged
SETTINGS = ("analyzer", "block_size", "num_doc_shards", "extra_fields")


def atomic_write_json(path: str, obj: dict) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, default=str)
    os.replace(tmp, path)


def atomic_write_table(table, path: str, **write_options) -> None:
    """Parquet write via temp+rename — idempotent under Ray task retry.
    ``write_options`` go to ``pyarrow.parquet.write_table``."""
    import pyarrow.parquet as pq

    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{uuid.uuid4().hex[:8]}")
    pq.write_table(table, tmp, **write_options)
    os.replace(tmp, path)


def manifest_path(index_dir: str) -> str:
    return os.path.join(index_dir, MANIFEST_NAME)


def read_manifest(index_dir: str) -> dict | None:
    p = manifest_path(index_dir)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def read_checked_manifest(index_dir: str) -> dict:
    """The committed manifest, refused unless its format is this
    build's ``FORMAT_VERSION``: readers would misread an older layout,
    and a maintenance job would re-stamp it as current."""
    man = read_manifest(index_dir)
    if man is None:
        raise FileNotFoundError(f"no committed index at {index_dir}")
    ver = int(man.get("format_version", 1))
    if ver != FORMAT_VERSION:
        raise ValueError(
            f"index at {index_dir} has postings format v{ver}; this "
            f"build requires v{FORMAT_VERSION} — rebuild the index"
        )
    return man


def write_manifest(index_dir: str, manifest: dict) -> None:
    manifest = {"format_version": FORMAT_VERSION, **manifest}
    atomic_write_json(manifest_path(index_dir), manifest)


def segment_record(doc_lengths) -> dict:
    """The stats of one segment's record, from its doc-length table (one
    row per doc; ``dl`` and ``dl__<field>`` columns): doc count, token
    total and per-field token totals.  Writers add its lineage: build
    ``metrics`` and, where known, ``input_files``."""
    import pyarrow.compute as pc

    def total(col: str) -> int:
        return int(pc.sum(doc_lengths[col]).as_py() or 0)

    return {
        "n_docs": doc_lengths.num_rows,
        "total_tokens": total("dl"),
        "fields": {c[4:]: total(c) for c in doc_lengths.column_names
                   if c.startswith("dl__")},
    }


def commit(index_dir: str, segments: dict, settings: dict,
           import_counter: int = 0) -> dict:
    """Commit the index as ``segments`` (name → :func:`segment_record`,
    in listing order) with ``settings`` (a dict or manifest holding the
    ``SETTINGS`` keys).  ``n_docs``, ``total_tokens``, ``avgdl`` and the
    per-field stats are summed over the listed records.  The manifest is
    written last; then every directory it does not list is removed.
    Returns the committed manifest."""
    n_docs = sum(r["n_docs"] for r in segments.values())
    os.makedirs(index_dir, exist_ok=True)

    def stats(total: int) -> dict:
        return {"total_tokens": total,
                "avgdl": (total / n_docs) if n_docs else 0.0}

    write_manifest(index_dir, {
        **{k: settings[k] for k in SETTINGS},
        "n_docs": n_docs,
        **stats(sum(r["total_tokens"] for r in segments.values())),
        "fields": {f: stats(sum(r["fields"].get(f, 0)
                                for r in segments.values()))
                   for f, _col in settings["extra_fields"]},
        "import_counter": import_counter,
        "segments": list(segments),
        "segment_stats": segments,
    })
    sweep(index_dir, segments)
    return read_manifest(index_dir)


def sweep(index_dir: str, keep) -> None:
    """Remove every directory under the index root not named in
    ``keep``: segments a commit dropped, and what a crashed job left.
    A job runs it before it writes, so it never finds a stale file under
    a name it is about to write."""
    for name in os.listdir(index_dir):
        path = os.path.join(index_dir, name)
        if name not in keep and os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)


def is_committed(index_dir: str) -> bool:
    return read_manifest(index_dir) is not None


def drop_index(index_dir: str) -> None:
    """Index drop = directory delete (reference: IndexHolder.drop)."""
    if os.path.exists(index_dir):
        shutil.rmtree(index_dir)
