"""Maintenance-job safety: the format-version guard shared by readers and
writers, and force_merge's sweep of segment data a crash leaked."""

import json
import os
import shutil

import numpy as np
import pytest

from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
from gazetteer_search_ray.pipelines.build_index import BuildOptions, build_index
from gazetteer_search_ray.pipelines.maintenance import (
    backfill_column,
    delete_docs,
    force_merge,
    update_index,
)
from gazetteer_search_ray.pipelines.search import Searcher
from gazetteer_search_ray.sources.corpus import read_corpus, write_synthetic_corpus
from gazetteer_search_ray.state import manifest as mf
from gazetteer_search_ray.state.reader import IndexReader

BASE = "/tmp/gsr_maint"


def _two_segment_index(name: str) -> str:
    """A committed index with a root segment plus one update segment."""
    import ray.data as rd

    idx = f"{BASE}/{name}"
    shutil.rmtree(idx, ignore_errors=True)
    files = write_synthetic_corpus(f"{BASE}/corpus_{name}", n_docs=120, n_files=2)
    build_index(read_corpus(files), idx,
                BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64))
    update_index(idx, rd.from_items(
        [{"doc_id": 50_000 + i, "content": f"zzmaint extra doc {i}"}
         for i in range(4)]))
    return idx


def _snapshot(root: str) -> dict[str, bytes]:
    out = {}
    for d, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def test_v1_manifest_refused_by_readers_and_writers(ray_session):
    import ray.data as rd

    idx = _two_segment_index("v1")
    man = mf.read_manifest(idx)
    man["format_version"] = 1
    with open(mf.manifest_path(idx), "w") as f:
        json.dump(man, f)
    before = _snapshot(idx)
    some_id = 50_000  # a doc of the update segment

    calls = {
        "reader": lambda: IndexReader(idx),
        "update_index": lambda: update_index(
            idx, rd.from_items([{"doc_id": some_id, "content": "zzv1 body"}])),
        "delete_docs": lambda: delete_docs(idx, doc_ids=[some_id]),
        "force_merge": lambda: force_merge(idx),
        "backfill_column": lambda: backfill_column(idx, {some_id: 7}, "ref_count"),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="format v1"):
            call()
        assert _snapshot(idx) == before, f"{name} wrote to a v1 index"


def test_force_merge_sweeps_leaked_segment_data(ray_session):
    idx = _two_segment_index("sweep")
    pre = mf.read_manifest(idx)
    assert pre["segments"][0] == "." and pre["segments"][1].startswith("upd-")
    # keep copies of the pre-merge segment data: putting them back after
    # the merge reproduces a crash between the manifest cut-over and the
    # removal of the old segments
    leaked = ["postings", "docmeta", pre["segments"][1]]
    for name in leaked:
        shutil.rmtree(f"{BASE}/keep_{name}", ignore_errors=True)
        shutil.copytree(os.path.join(idx, name), f"{BASE}/keep_{name}")
    man = force_merge(idx)
    s = Searcher(idx)
    queries = ["zzmaint", "def", "sort merge"]
    want = {q: s.search(q, k=20, use_prior=False) for q in queries}
    for name in leaked:
        shutil.move(f"{BASE}/keep_{name}", os.path.join(idx, name))

    assert force_merge(idx)["segments"] == man["segments"]
    assert sorted(os.listdir(idx)) == sorted(
        [mf.MANIFEST_NAME, *man["segments"]])
    s2 = Searcher(idx)
    for q in queries:
        got = s2.search(q, k=20, use_prior=False)
        assert [h["doc_id"] for h in got] == [h["doc_id"] for h in want[q]]
        np.testing.assert_array_equal(
            [h["score"] for h in got], [h["score"] for h in want[q]])
