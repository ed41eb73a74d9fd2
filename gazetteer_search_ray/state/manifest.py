"""Index manifest: lifecycle, lineage, metrics, checkpoint/resume.

Plays the role of the reference's index DDL + import metadata
(``esclient/IndexHolder.java:34-67``,
``imp/addr/AddressesImporter.java:193-212`` region/import counters): a
JSON file at the index root listing global stats and one lineage record
per committed partition.  The manifest is written LAST via temp+rename,
so its presence is the atomic commit point — a partition directory
without a manifest is garbage and a rerun rebuilds it (SURVEY.md §4
'Checkpoint / resume').
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

MANIFEST_NAME = "_manifest.json"
# v3: postings "docs" hold segment-local doc ordinals, delta-packed at a
# 1/2/4-byte width per 128-posting block; block_last_doc is list<int32>
# ordinals (v2: raw LE int64 doc ids; v1: delta+varbyte doc ids)
FORMAT_VERSION = 3


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
    """The committed manifest, refused unless its postings format is
    this build's ``FORMAT_VERSION``: readers would misdecode an older
    payload, and a maintenance job would re-stamp it as current."""
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


def is_committed(index_dir: str) -> bool:
    return read_manifest(index_dir) is not None


def drop_index(index_dir: str) -> None:
    """Index drop = directory delete (reference: IndexHolder.drop)."""
    if os.path.exists(index_dir):
        shutil.rmtree(index_dir)


def clean_uncommitted(index_dir: str) -> None:
    """Remove temp files left by a crashed run (pre-resume hygiene)."""
    for root, _dirs, files in os.walk(index_dir):
        for f in files:
            if f.startswith(".tmp-") or ".tmp-" in f:
                os.unlink(os.path.join(root, f))
