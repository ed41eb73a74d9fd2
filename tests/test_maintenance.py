"""Maintenance-job safety: the format-version guard shared by readers and
writers, force_merge's sweep of segment data a crash leaked, and the
postings format v3 invariants across segments and deletes (segment-local
doc ordinals, mapped to one global ordinal space in doc_id order)."""

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


def _segment(idx: str, i: int = 0) -> str:
    """The directory of the index's ``i``-th listed segment."""
    return os.path.join(idx, mf.read_manifest(idx)["segments"][i])


def _two_segment_index(name: str) -> str:
    """A committed index with a build segment plus one update segment."""
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
    """v1 (delta+varbyte ids), v2 (raw int64 ids) and v3 (a segment at
    the index root, stats kept by hand) indexes are all refused, with
    every file left as it was."""
    import ray.data as rd

    idx = _two_segment_index("v1")
    some_id = 50_000  # a doc of the update segment
    calls = {
        "reader": lambda: IndexReader(idx),
        "update_index": lambda: update_index(
            idx, rd.from_items([{"doc_id": some_id, "content": "zzv1 body"}])),
        "delete_docs": lambda: delete_docs(idx, doc_ids=[some_id]),
        "force_merge": lambda: force_merge(idx),
        "backfill_column": lambda: backfill_column(idx, {some_id: 7}, "ref_count"),
    }
    for version in (1, 2, 3):
        man = mf.read_manifest(idx)
        man["format_version"] = version
        with open(mf.manifest_path(idx), "w") as f:
            json.dump(man, f)
        before = _snapshot(idx)
        for name, call in calls.items():
            with pytest.raises(ValueError, match=f"format v{version}"):
                call()
            assert _snapshot(idx) == before, f"{name} wrote to a v{version} index"


def test_force_merge_sweeps_leaked_segment_data(ray_session):
    idx = _two_segment_index("sweep")
    pre = mf.read_manifest(idx)
    assert pre["segments"][0] == "seg-00000" and pre["segments"][1].startswith("upd-")
    # keep copies of the pre-merge segment data: putting them back after
    # the merge reproduces a crash between the manifest cut-over and the
    # removal of the old segments
    leaked = pre["segments"]
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


def _items(ids, content) -> list[dict]:
    return [{"doc_id": int(i), "content": content(i)} for i in ids]


def _filler(i: int) -> str:
    words = ["sort", "merge", "scan", "query", "window", "index", "block"]
    return " ".join(words[(i * 7 + j) % 7] for j in range(3 + i % 5)) + f" w{i % 13}"


def test_equal_scores_across_segments_tie_break_on_doc_id(ray_session):
    """Three segments (build + 2 updates) whose tied hits interleave in
    doc_id order: hits come back in doc_id order, exactly as from a
    fresh one-segment build of the same documents."""
    import ray.data as rd

    idx, fresh = f"{BASE}/tie3", f"{BASE}/tie1"
    opts = BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=16)
    tie = "zztie alpha beta"
    seg_ties = [[1000, 4000, 7000], [2000, 5000, 8000], [3000, 6000, 9000]]
    base = _items(range(1, 60), _filler) + _items(seg_ties[0], lambda i: tie)
    upd1 = _items(seg_ties[1], lambda i: tie) + _items([5], lambda i: "sort zzrepl")
    upd2 = _items(seg_ties[2], lambda i: tie)
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_items(base).repartition(3), idx, opts)
    update_index(idx, rd.from_items(upd1))
    update_index(idx, rd.from_items(upd2))
    assert len(mf.read_manifest(idx)["segments"]) == 3

    final = {r["doc_id"]: r for r in base + upd1 + upd2}
    shutil.rmtree(fresh, ignore_errors=True)
    build_index(rd.from_items(list(final.values())).repartition(3), fresh, opts)

    got = Searcher(idx).search("zztie", k=20, use_prior=False)
    want = Searcher(fresh).search("zztie", k=20, use_prior=False)
    assert [h["doc_id"] for h in got] == sorted(sum(seg_ties, []))
    assert len({h["score"] for h in got}) == 1
    assert [(h["doc_id"], h["score"]) for h in got] == \
        [(h["doc_id"], h["score"]) for h in want]
    for q in ("sort merge", "query window block", "zzrepl"):
        a = Searcher(idx).search(q, k=20, use_prior=False)
        b = Searcher(fresh).search(q, k=20, use_prior=False)
        assert [(h["doc_id"], h["score"]) for h in a] == \
            [(h["doc_id"], h["score"]) for h in b], q


def _postings_by_term(idx: str) -> dict:
    r = IndexReader(idx)
    out = {}
    for t in r.all_terms():
        d, tf = r.decode_all(r.posting(t))
        out[t] = (r.doc_ids[d].tolist(), tf.tolist())
    return out


def test_delete_renumbers_every_postings_file(ray_session):
    """Deleting the first doc (in doc_id order) shifts every later
    ordinal of its segment, so postings files holding none of its terms
    must be re-encoded too: afterwards every term of every file decodes
    to the same doc_ids and tfs as a fresh build of the live docs."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gazetteer_search_ray.pipelines.maintenance import _decode_rows_flat

    idx, fresh = f"{BASE}/del", f"{BASE}/del_fresh"
    opts = BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=16)
    # doc 90's term sorts after zzgone, so the boundary file holds the
    # first and last term runs, neither of them doc 3's
    docs = (_items(range(10, 90), _filler)
            + _items([90], lambda i: "zzzlast block")
            + _items([3], lambda i: "zzgone only"))
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_items(docs).repartition(3), idx, opts)
    pdir = os.path.join(_segment(idx), "postings")
    files = sorted(os.listdir(pdir))
    # doc 3 has ordinal 0; some file holds no posting of it
    without = [f for f in files
               if 0 not in _decode_rows_flat(pq.read_table(os.path.join(pdir, f)), 128)[0]]
    assert len(files) >= 2 and without

    delete_docs(idx, doc_ids=[3])
    shutil.rmtree(fresh, ignore_errors=True)
    build_index(rd.from_items(docs[:-1]).repartition(3), fresh, opts)
    got = _postings_by_term(idx)
    assert got == _postings_by_term(fresh)
    assert "zzgone" not in got and len(got) > 20


def _without(postings: dict, victims: set) -> dict:
    out = {}
    for t, (ids, tfs) in postings.items():
        kept = [(d, f) for d, f in zip(ids, tfs) if d not in victims]
        if kept:
            out[t] = ([d for d, _ in kept], [f for _, f in kept])
    return out


def test_compact_postings_file_rerun_is_idempotent(ray_session):
    """A Ray task retry re-runs a postings rewrite: the second run must
    leave the source untouched and write the same doc ids again."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd

    from gazetteer_search_ray.pipelines.maintenance import (
        _decode_rows_flat,
        _doc_lengths,
        compact_postings_file,
    )

    idx = f"{BASE}/rerun"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_items(_items(range(10, 90), _filler)).repartition(3),
                idx, BuildOptions(analyzer_config=AnalyzerConfig.code(),
                                  batch_size=16))
    dm = pads.dataset(os.path.join(_segment(idx), "docmeta")).to_table()
    dm = dm.take(np.argsort(dm["doc_id"].to_numpy()))
    ids = dm["doc_id"].to_numpy()
    keep = np.ones(ids.size, bool)
    keep[[0, 5, 40]] = False
    new_ord = np.where(keep, np.cumsum(keep) - 1, -1)
    dl, field_dl = _doc_lengths(dm.filter(keep))

    def decoded(path):
        t = pq.read_table(path)
        ords, tfs, off = _decode_rows_flat(t, 128)
        return t["term"].to_pylist(), off.tolist(), ords, tfs.tolist()

    pdir = os.path.join(_segment(idx), "postings")
    for f in sorted(os.listdir(pdir)):
        src, dst = os.path.join(pdir, f), f"{BASE}/rerun_out/{f}"
        with open(src, "rb") as fh:
            src_bytes = fh.read()
        terms, off, ords, tfs = decoded(src)
        runs = []
        for _ in range(2):
            compact_postings_file(src, dst, new_ord, dl, field_dl, 128)
            with open(src, "rb") as fh:
                assert fh.read() == src_bytes
            t2, off2, ords2, tfs2 = decoded(dst)
            runs.append((t2, off2, ids[keep][ords2].tolist(), tfs2))
        assert runs[0] == runs[1]
        # the survivors of each row, as doc ids, in the same order
        want = {}
        for i, term in enumerate(terms):
            row = [(int(ids[o]), tf) for o, tf in
                   zip(ords[off[i]:off[i + 1]], tfs[off[i]:off[i + 1]])
                   if keep[o]]
            if row:
                want[term] = row
        t2, off2, docs2, tfs2 = runs[0]
        got = {term: list(zip(docs2[off2[i]:off2[i + 1]],
                              tfs2[off2[i]:off2[i + 1]]))
               for i, term in enumerate(t2)}
        assert got == want and got


def test_delete_crash_before_commit_leaves_index_unchanged(ray_session,
                                                           monkeypatch):
    """A delete that dies before its manifest commit changes no file of
    the committed index; the next delete sweeps its leftovers and
    lands."""
    import pyarrow.dataset as pads

    idx = _two_segment_index("crash")
    root_id = int(pads.dataset(os.path.join(_segment(idx), "docmeta")).to_table()
                  ["doc_id"][0].as_py())
    victims = {root_id, 50_001}
    before = _snapshot(idx)
    postings = _postings_by_term(idx)
    n0 = IndexReader(idx).n_docs

    def crash(*_a, **_k):
        raise RuntimeError("crash before commit")

    monkeypatch.setattr(mf, "write_manifest", crash)
    with pytest.raises(RuntimeError, match="crash before commit"):
        delete_docs(idx, doc_ids=victims)
    monkeypatch.undo()
    after = _snapshot(idx)
    assert {p: after.get(p) for p in before} == before
    assert _postings_by_term(idx) == postings

    man = delete_docs(idx, doc_ids=victims)
    assert sorted(os.listdir(idx)) == sorted(
        [mf.MANIFEST_NAME, *man["segments"]])
    assert [s.split(".d")[0] for s in man["segments"]] == ["seg-00000", "upd-00001"]
    r = IndexReader(idx)
    assert r.n_docs == n0 - 2 and not victims & set(r.doc_ids.tolist())
    assert _postings_by_term(idx) == _without(postings, victims)


def test_update_without_extra_field_column_changes_nothing(ray_session):
    """An update batch that lacks a column the index maps (an
    extra_fields source, the id or the content) is refused before the
    delete commits: every index file stays byte-identical."""
    import ray.data as rd

    idx = f"{BASE}/fields"
    shutil.rmtree(idx, ignore_errors=True)
    rows = [{"doc_id": i, "content": _filler(i), "title": f"t{i % 4}"}
            for i in range(1, 40)]
    build_index(rd.from_items(rows), idx,
                BuildOptions(analyzer_config=AnalyzerConfig.code(),
                             batch_size=16,
                             extra_fields=(("name", "title"),)))
    before = _snapshot(idx)
    for batch, col in (
            ([{"doc_id": 5, "content": "zznew body"}], "title"),
            ([{"content": "zznew body", "title": "t"}], "doc_id"),
            ([{"doc_id": 5, "title": "t"}], "content")):
        with pytest.raises(ValueError, match=repr(col)):
            update_index(idx, rd.from_items(batch))
        assert _snapshot(idx) == before, col
    assert Searcher(idx).reader.n_docs == 39


def _segment_postings(seg_dir: str, block_size: int) -> dict:
    """(term, shard) → (doc ids, tfs, df, block_last_doc, block_max_tf,
    block_min_dl) of every posting row of one segment, decoded."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gazetteer_search_ray.pipelines.maintenance import _decode_rows_flat
    from gazetteer_search_ray.stages.postings import segment_doc_lengths

    ids = segment_doc_lengths(
        os.path.join(seg_dir, "docmeta"))["doc_id"].to_numpy()
    pdir = os.path.join(seg_dir, "postings")
    t = pa.concat_tables([pq.read_table(os.path.join(pdir, f))
                          for f in sorted(os.listdir(pdir))])
    ords, tfs, off = _decode_rows_flat(t, block_size)
    out = {}
    for i, row in enumerate(t.select(
            ["term", "shard", "df", "block_last_doc", "block_max_tf",
             "block_min_dl"]).to_pylist()):
        key = (row["term"], row["shard"])
        assert key not in out, f"{key} written twice"
        run = slice(int(off[i]), int(off[i + 1]))
        out[key] = (ids[ords[run]].tolist(), tfs[run].tolist(), row["df"],
                    row["block_last_doc"], row["block_max_tf"],
                    row["block_min_dl"])
    return out


def test_force_merge_equals_fresh_build(ray_session):
    """build → replace update → add update → delete → force_merge, with
    two doc shards and an extra field: every (term, shard) of the merged
    segment decodes to the postings and block metadata of a fresh build
    of the live docs."""
    import ray.data as rd

    idx, fresh = f"{BASE}/life", f"{BASE}/life_fresh"
    opts = BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=32,
                        block_size=16, num_doc_shards=2,
                        extra_fields=(("src", "repo"),))

    def row(i, body):
        return {"doc_id": i, "content": body, "repo": f"repo {i % 5} r{i % 3}"}

    live = {i: row(i, _filler(i)) for i in range(1, 160)}
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_items(list(live.values())).repartition(3), idx, opts)
    replaced = [row(i, f"zzlife replaced {_filler(i + 1)}")
                for i in range(3, 160, 9)]
    added = [row(i, f"zzlife added {_filler(i)}") for i in range(500, 530)]
    for batch in (replaced, added):
        update_index(idx, rd.from_items(batch))
        live.update((r["doc_id"], r) for r in batch)
    gone = [1, 2, 12, 503, 520]
    delete_docs(idx, doc_ids=gone)
    for i in gone:
        del live[i]
    man = force_merge(idx)
    assert len(man["segments"]) == 1 and man["n_docs"] == len(live)

    shutil.rmtree(fresh, ignore_errors=True)
    build_index(rd.from_items(list(live.values())).repartition(3), fresh, opts)
    got = _segment_postings(os.path.join(idx, man["segments"][0]), 16)
    want = _segment_postings(_segment(fresh), 16)
    assert got.keys() == want.keys()
    for key, postings in want.items():
        assert got[key] == postings, key
    # both shards, field terms and multi-block lists are all covered
    assert {s for _t, s in want} == {0, 1}
    assert any(t.startswith("src\x1e") for t, _s in want)
    assert max(len(p[3]) for p in want.values()) > 2


def test_sort_blocks_follow_partial_rows(ray_session, monkeypatch):
    """The exchange gets one sort block per CPU, or one per
    MIN_PARTITION_BYTES of partial rows if that is more: on the
    session's 4 CPUs a 4-doc update segment and a 120-doc build get 4
    each, and an input of 8 × MIN_PARTITION_BYTES gets 8.  Its runs
    that straddle sorted blocks merge into the same postings as one
    pass over all rows on the driver."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from gazetteer_search_ray.stages import postings
    from gazetteer_search_ray.stages.postings import (
        encode_partials_table,
        write_postings,
    )
    from gazetteer_search_ray.stages.tokenize import pack_partials

    assert ray.cluster_resources()["CPU"] == 4
    idx = _two_segment_index("blocks")
    man = mf.read_manifest(idx)
    build, upd = (man["segment_stats"][s] for s in man["segments"])
    assert upd["metrics"]["sort_blocks"] == 4
    assert build["metrics"]["sort_blocks"] == 4

    # one partial row per posting: 1,000 terms × 264 docs
    n_terms, n_docs = 1000, 264
    docs = np.tile(np.arange(n_docs), n_terms)
    partials = pack_partials(
        pa.array([f"t{i:04d}" for i in range(n_terms)]),
        np.zeros(n_terms, np.int32), docs, 1 + docs % 3,
        np.arange(n_terms + 1) * n_docs, 1, cap=1)
    rows = partials.take(np.random.default_rng(0).permutation(
        partials.num_rows))
    ids = np.arange(n_docs, dtype=np.int64)
    lengths = pa.table({"doc_id": ids, "dl": 5 + ids % 7})
    pdir = f"{BASE}/blocks_synthetic"
    shutil.rmtree(pdir, ignore_errors=True)
    os.makedirs(pdir)
    ds = rd.from_arrow([rows.slice(i, 50_000)
                        for i in range(0, rows.num_rows, 50_000)])
    # the input is 8 × MIN_PARTITION_BYTES, so that its bytes, not the
    # CPUs, set the count without a test input of hundreds of MB
    monkeypatch.setattr(postings, "MIN_PARTITION_BYTES",
                        ds.size_bytes() // 8)
    metrics = write_postings(ds, pdir, lengths)
    assert metrics["sort_blocks"] == 8 and metrics["boundary_rows"] > 0
    got = pa.concat_tables([pq.read_table(os.path.join(pdir, f))
                            for f in sorted(os.listdir(pdir))])
    want = encode_partials_table(rows, doc_lengths=lengths)
    assert got.sort_by("term").to_pylist() == want.to_pylist()


def test_exchange_leaves_the_process_data_context_alone(ray_session,
                                                      monkeypatch):
    """A build changes no setting of the process's DataContext, so Ray
    Data work that the caller creates afterwards runs as configured."""
    import ray.data as rd
    from ray.data import DataContext

    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "use_polars_sort", False)

    def settings():
        return {k: repr(v) for k, v in vars(ctx).items()}

    before = settings()
    idx = f"{BASE}/ctx"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_items(_items(range(1, 40), _filler)), idx,
                BuildOptions(analyzer_config=AnalyzerConfig.code()))
    assert DataContext.get_current() is ctx
    assert settings() == before


def test_postings_row_groups_are_capped_through_the_lifecycle(ray_session):
    """Build, update_index, delete_docs and force_merge each leave every
    postings file in row groups of at most ROW_GROUP_TERMS rows, with
    statistics on ``term`` only, and searches still equal the oracle."""
    import sys

    import pyarrow.parquet as pq
    import ray.data as rd

    from gazetteer_search_ray.functions.analyzer import Analyzer
    from gazetteer_search_ray.pipelines.query import Bool, Term
    from gazetteer_search_ray.stages.postings import ROW_GROUP_TERMS

    sys.path.insert(0, os.path.dirname(__file__))
    from oracle import BruteIndex

    def body(i: int) -> str:  # 96 terms of its own: > 6 × 4,096 in all
        return _filler(i) + " " + " ".join(f"u{i}v{j}" for j in range(96))

    config = AnalyzerConfig.code()
    tokens = Analyzer(AnalyzerConfig(**{**config.__dict__, "dedup": False}))
    idx = f"{BASE}/rowgroups"
    live = {i: body(i) for i in range(1, 260)}

    def check(step: str) -> None:
        groups = []
        for seg in mf.read_manifest(idx)["segments"]:
            pdir = os.path.join(idx, seg, "postings")
            for f in os.listdir(pdir):
                meta = pq.ParquetFile(os.path.join(pdir, f)).metadata
                groups.append(meta.num_row_groups)
                for rg in range(meta.num_row_groups):
                    g = meta.row_group(rg)
                    assert g.num_rows <= ROW_GROUP_TERMS, (step, f)
                    stats = [g.column(c).path_in_schema
                             for c in range(g.num_columns)
                             if g.column(c).is_stats_set]
                    assert stats == ["term"], (step, f, stats)
        assert max(groups) >= 2, step  # the cap split some file
        brute = BruteIndex({d: [t for t, _ in tokens.tokens(c)]
                            for d, c in live.items()})
        s = Searcher(idx)
        terms = sorted(brute.df)
        for q in (["sort", "merge"], ["zzlayout"], ["w3", "u17v3"],
                  terms[::997], terms[-3:]):
            docs, scores = s.engine.top_k(
                Bool(should=tuple(Term(t) for t in q)), 20)
            want_d, want_s = brute.topk(brute.matches_or(q), 20)
            np.testing.assert_array_equal(s.reader.doc_ids[docs], want_d)
            np.testing.assert_allclose(scores, want_s, rtol=0, atol=1e-9)

    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_items(_items(live, live.get)), idx,
                BuildOptions(analyzer_config=config))
    check("build")
    batch = {i: "zzlayout " + body(i + 1000) for i in range(5, 300, 10)}
    update_index(idx, rd.from_items(_items(batch, batch.get)))
    live.update(batch)
    check("update")
    delete_docs(idx, doc_ids=[1, 2, 15])
    for i in (1, 2, 15):
        del live[i]
    check("delete")
    force_merge(idx)
    check("force_merge")


def test_force_merge_after_deleting_every_doc(ray_session):
    """An index whose deletes left no postings merges into one empty
    segment that searches to nothing; a later update is searchable."""
    import ray.data as rd

    idx = _two_segment_index("empty")
    delete_docs(idx, predicate=lambda t: np.ones(t.num_rows, dtype=bool))
    man = force_merge(idx)
    assert man["segments"] == [f"merged-{man['import_counter']:05d}"]
    assert man["n_docs"] == 0
    assert Searcher(idx).search("zzmaint", k=10) == []
    update_index(idx, rd.from_items(_items([60_000], lambda i: "zzrevived body")))
    hits = Searcher(idx).search("zzrevived", k=10)
    assert [h["doc_id"] for h in hits] == [60_000]


def _stats(man: dict) -> dict:
    return {k: man[k] for k in ("n_docs", "total_tokens", "avgdl", "fields")}


def test_manifest_stats_follow_the_live_docs(ray_session, tmp_path):
    """A one-segment build and a two-partition build, each with an extra
    field, go through update_index (longer field values), delete_docs
    and force_merge.  After every step the manifest's n_docs,
    total_tokens, avgdl and field stats equal a fresh build's of the
    live docs, a field plan ranks and scores as over that build, and no
    directory under the index holds a manifest but its root.  The
    partitioned index's update segment holds field terms."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from gazetteer_search_ray.pipelines.build_index import (
        build_index_partitioned,
    )
    from gazetteer_search_ray.pipelines.query import Bool, Term
    from gazetteer_search_ray.sources.corpus import (
        CORPUS_COLUMNS,
        _assign_doc_ids,
    )

    opts = BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=16,
                        extra_fields=(("src", "repo"),))
    plan = Bool(should=(Term("def"), Term("repo", field="src"),
                        Term("very", field="src")))
    fresh = str(tmp_path / "fresh")

    def check(idx: str, live: dict, step: str) -> None:
        shutil.rmtree(fresh, ignore_errors=True)
        want = build_index(rd.from_items(list(live.values())), fresh, opts)
        assert _stats(mf.read_manifest(idx)) == _stats(want), step
        assert [d for d, _dirs, files in os.walk(idx)
                if mf.MANIFEST_NAME in files] == [idx], step
        got_s, want_s = Searcher(idx), Searcher(fresh)
        (gd, gs), (wd, ws) = (s.engine.top_k(plan, 20) for s in (got_s, want_s))
        assert wd.size, step
        np.testing.assert_array_equal(got_s.reader.doc_ids[gd],
                                      want_s.reader.doc_ids[wd], err_msg=step)
        np.testing.assert_allclose(gs, ws, rtol=0, atol=1e-12, err_msg=step)

    def lifecycle(idx: str, live: dict) -> None:
        check(idx, live, "build")
        ids = sorted(live)
        batch = [{"doc_id": d, "content": f"def zzlive {_filler(d)}",
                  "repo": "repo very long name " * (2 + d % 3)}
                 for d in ids[:20] + list(range(900, 920))]
        update_index(idx, rd.from_items(batch))
        live.update((r["doc_id"], r) for r in batch)
        check(idx, live, "update")
        gone = ids[20:22] + [905]
        delete_docs(idx, doc_ids=gone)
        for d in gone:
            del live[d]
        check(idx, live, "delete")
        force_merge(idx)
        check(idx, live, "force_merge")

    def row(i: int) -> dict:
        return {"content": _filler(i) + (" def" if i % 2 else ""),
                "repo": f"repo r{i % 3}"}

    idx = str(tmp_path / "one")
    live = {i: {"doc_id": i, **row(i)} for i in range(1, 60)}
    build_index(rd.from_items(list(live.values())), idx, opts)
    lifecycle(idx, live)

    corpus = pa.table({
        "repo": [row(i)["repo"] for i in range(60)],
        "path": [f"src/f{i}.py" for i in range(60)],
        "commit": ["c0"] * 60,
        "lang": ["python"] * 60,
        "content": [row(i)["content"] for i in range(60)],
    }).select(CORPUS_COLUMNS)
    files = []
    for k in range(2):
        files.append(str(tmp_path / f"corpus-{k}.parquet"))
        pq.write_table(corpus.slice(30 * k, 30), files[-1])
    idx = str(tmp_path / "parts")
    man = build_index_partitioned(files, idx, opts, num_partitions=2)
    assert man["segments"] == ["part-00000", "part-00001"]
    t = _assign_doc_ids(corpus)
    live = {r["doc_id"]: r for r in t.select(
        ["doc_id", "content", "repo"]).to_pylist()}
    check(idx, live, "partitioned build")
    ids = sorted(live)
    batch = [{"doc_id": d, "content": "def zzlive", "repo": "repo very long"}
             for d in ids[:5]]
    man = update_index(idx, rd.from_items(batch))
    live.update((r["doc_id"], r) for r in batch)
    check(idx, live, "partitioned update")
    upd = _segment_postings(_segment(idx, -1), 128)
    assert any(term.startswith("src\x1e") for term, _shard in upd)
    lifecycle(idx, live)
