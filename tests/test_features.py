"""Coverage for the long-tail operators: fuzzy (Q2), range filter (Q7),
trim (Q16), verbose projection (Q17), secondary lookup (Q12),
doc-store backfill (G2/G4), delete+compaction (S4), mass eval (G5),
NDJSON source (S1)."""

import gzip
import json
import os
import shutil

import numpy as np
import pytest

from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
from gazetteer_search_ray.pipelines.build_index import BuildOptions, build_index
from gazetteer_search_ray.pipelines.query import Bool, Fuzzy, RangeFilter, Term
from gazetteer_search_ray.pipelines.search import Searcher
from gazetteer_search_ray.sources.corpus import read_corpus, write_synthetic_corpus

BASE = "/tmp/gsr_feat"


@pytest.fixture(scope="module")
def idx(ray_session):
    shutil.rmtree(BASE, ignore_errors=True)
    files = write_synthetic_corpus(f"{BASE}/corpus", n_docs=150, n_files=2)
    build_index(
        read_corpus(files),
        f"{BASE}/idx",
        BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64),
    )
    return f"{BASE}/idx"


@pytest.fixture(scope="module")
def searcher(idx):
    return Searcher(idx)


def test_fuzzy_expansion(searcher):
    r = searcher.reader
    # 'qwyzzle' planted; ed1 variants of 'qwyzzlX' should find it
    assert "qwyzzle" in r.fuzzy_terms("qwyzzlee")
    assert "qwyzzle" in r.fuzzy_terms("qwyzzlz")
    docs, scores = searcher.engine.evaluate(Fuzzy("qwyzzlz"))
    exact, exact_s = searcher.engine.evaluate(Bool(should=(Term("qwyzzle"),)))
    assert set(exact) <= set(docs)


def test_ed1_helper():
    from gazetteer_search_ray.state.reader import _ed1

    assert _ed1("abc", "abc")
    assert _ed1("abc", "abd")
    assert _ed1("abc", "abcd")
    assert _ed1("abcd", "abd")  # one deletion
    assert not _ed1("abc", "xbcd")
    assert not _ed1("abc", "abcde")


def test_range_filter(searcher):
    # dl range: docs with 30 <= dl <= 50 only
    docs, _ = searcher.engine.evaluate(
        Bool(must=(Term("def"),), filter=(RangeFilter("dl", 30, 50),))
    )
    dls = searcher.reader.dl_of(docs)
    assert ((dls >= 30) & (dls <= 50)).all()


def test_trim_cuts_optional_only_hits(searcher):
    # query with a required rare term + optional token: trim removes
    # trailing hits that match no required term
    hits_raw = searcher.search("qwyzzle the", k=20, use_prior=False)
    hits_trim = searcher.search("qwyzzle the", k=20, use_prior=False, trim=True)
    assert len(hits_trim) <= len(hits_raw)
    for h in hits_trim:
        # every surviving hit contains the required term
        tp = searcher.reader.posting("qwyzzle")
        docs, _ = searcher.reader.decode_all(tp)
        assert h["doc_id"] in set(searcher.reader.doc_ids[docs].tolist())


def test_dense_bool_matches_sparse(searcher):
    """The dense-accumulator boolean path must be bit-identical to the
    sorted-merge path on every node shape (must/should/msm/filter/
    must_not/boost/nested)."""
    from gazetteer_search_ray.pipelines.query import (
        Bool,
        ColumnFilter,
        Prefix,
        RangeFilter,
        Term,
    )

    eng = searcher.engine
    plans = [
        Bool(must=(Term("def"), Term("return"))),
        Bool(should=(Term("def"), Term("class"), Term("import"))),
        Bool(should=(Term("def"), Term("class"), Term("qwyzzle")),
             minimum_should_match=2),
        Bool(must=(Term("def"),), should=(Term("class"), Prefix("re")),
             boost=2.5),
        Bool(must=(Term("def"),), must_not=(Term("qwyzzle"),),
             filter=(RangeFilter("dl", 5, 500),)),
        Bool(must=(Bool(should=(Term("def"), Term("return"))),),
             should=(Bool(must=(Term("class"),), name="inner"),)),
    ]
    cap = eng.dense_doc_cap
    for plan in plans:
        dd, ds_ = eng.evaluate(plan)
        eng.dense_doc_cap = 0  # the sparse reference path
        sd, ss = eng.evaluate(plan)
        eng.dense_doc_cap = cap
        np.testing.assert_array_equal(dd, sd)
        np.testing.assert_array_equal(ds_, ss)  # bit-identical floats


def test_dense_doc_cap_guards_accumulator(searcher):
    """`dense_doc_cap` bounds the per-actor accumulator: with the cap
    below the shard's doc count both dense paths (boolean eval and
    disjunction top-k) must fall back to sparse and stay identical."""
    from gazetteer_search_ray.pipelines.query import Bool, Term

    eng = searcher.engine
    plan = Bool(should=(Term("def"), Term("class"), Term("import")))
    d0, s0 = eng.top_k(plan, 20)
    old = eng.dense_doc_cap
    try:
        eng.dense_doc_cap = 0  # force the sparse path everywhere
        eng._bufs.clear()
        d1, s1 = eng.top_k(plan, 20)
        assert not eng._bufs  # no dense accumulator allocated
    finally:
        eng.dense_doc_cap = old
    np.testing.assert_array_equal(d0, d1)
    np.testing.assert_array_equal(s0, s1)


def test_matched_queries_attribution(searcher):
    """Named-part bookkeeping (reference `_name` tags →
    ResultsWrapper.matched_queries; drives the Q16 trim)."""
    hits = searcher.search("qwyzzle the", k=20, use_prior=False,
                           with_matched=True)
    assert hits
    tp = searcher.reader.posting("qwyzzle")
    req_docs = set(
        searcher.reader.doc_ids[searcher.reader.decode_all(tp)[0]].tolist())
    for h in hits:
        assert "matched_queries" in h
        if h["doc_id"] in req_docs:
            assert "required" in h["matched_queries"]
        else:
            assert "required" not in h["matched_queries"]


def test_engine_matched_queries_named_plan(searcher):
    from gazetteer_search_ray.pipelines.query import Bool, Term

    eng = searcher.engine
    plan = Bool(
        should=(
            Bool(should=(Term("def"),), name="has_def"),
            Bool(should=(Term("qwyzzle"),), name="has_rare"),
        )
    )
    docs, _ = eng.top_k(plan, 10)
    names = eng.matched_queries(plan, docs)
    rare_docs = set(searcher.reader.decode_all(
        searcher.reader.posting("qwyzzle"))[0].tolist())
    for d, m in zip(docs.tolist(), names):
        assert ("has_rare" in m) == (d in rare_docs)
        assert m  # every hit matched at least one named part


def test_secondary_sort_key(searcher):
    """Q15 secondary sort: ties broken by dl asc (geo-distance analog)."""
    from gazetteer_search_ray.pipelines.query import Bool, Prefix

    # constant-score prefix → all scores tie → order must follow dl
    plan = Bool(should=(Prefix("de"),))
    docs, scores = searcher.engine.top_k_sorted(plan, 15, secondary_col="dl")
    dls = searcher.reader.column_of(docs, "dl") if "dl" in searcher.reader.columns \
        else searcher.reader.dl_of(docs)
    for i in range(1, len(docs)):
        if scores[i - 1] == scores[i]:
            assert dls[i - 1] <= dls[i]


def test_verbose_projection(searcher):
    hits = searcher.search("qwyzzle", k=3, use_prior=False, verbose=True)
    h = hits[0]
    assert "sha256" in h and len(h["sha256"]) == 64
    assert "dl" in h and h["dl"] > 0
    assert "base_score" in h


def test_aux_lookup_boost(idx):
    # Q12 analog: query token 'def' maps to lang=python boost
    s = Searcher(idx, aux_lookup={"def": ("lang", "python")})
    plain = Searcher(idx)
    hits_boosted = s.search("def return", k=10, use_prior=False)
    hits_plain = plain.search("def return", k=10, use_prior=False)
    assert hits_boosted and hits_plain
    # boosted result ranks a python doc first
    assert hits_boosted[0]["lang"] == "python"


def test_backfill_column(idx):
    import pyarrow.dataset as pads

    from gazetteer_search_ray.pipelines.maintenance import backfill_column
    from gazetteer_search_ray.state import manifest as mf

    r = Searcher(idx).reader
    values = {int(d): int(d) % 7 for d in r.doc_ids.tolist()}
    touched = backfill_column(idx, values, "ref_count")
    assert touched == r.n_docs
    seg = mf.read_manifest(idx)["segments"][0]
    t = pads.dataset(os.path.join(idx, seg, "docmeta")).to_table(
        columns=["doc_id", "ref_count"]
    )
    for d, v in zip(t["doc_id"].to_pylist(), t["ref_count"].to_pylist()):
        assert v == d % 7


def test_delete_docs_compaction(ray_session):
    shutil.rmtree(f"{BASE}/idx_del", ignore_errors=True)
    files = write_synthetic_corpus(f"{BASE}/corpus", n_docs=150, n_files=2)
    build_index(
        read_corpus(files),
        f"{BASE}/idx_del",
        BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64),
    )
    from gazetteer_search_ray.pipelines.maintenance import delete_docs

    s = Searcher(f"{BASE}/idx_del")
    n0 = s.reader.n_docs
    victims = set(s.reader.doc_ids[:10].tolist())
    man = delete_docs(f"{BASE}/idx_del", doc_ids=victims)
    assert man["n_docs"] == n0 - 10
    assert man["import_counter"] == 1
    s2 = Searcher(f"{BASE}/idx_del")
    assert s2.reader.n_docs == n0 - 10
    # no posting references a deleted doc
    for term in ["def", "return", "qwyzzle"]:
        tp = s2.reader.posting(term)
        if tp:
            docs, _ = s2.reader.decode_all(tp)
            assert not (set(s2.reader.doc_ids[docs].tolist()) & victims)
    # deleted docs are gone from search results
    hits = s2.search("def return class", k=50, use_prior=False)
    assert not ({h["doc_id"] for h in hits} & victims)
    # compaction preserves TRUE block_min_dl: the pruned disjunction
    # path must stay identical to exhaustive evaluation
    for terms in (["def", "return"], ["class", "import", "def"]):
        plan = Bool(should=tuple(Term(t) for t in terms))
        pruned = s2.engine.top_k(plan, 20)
        exhaustive = s2.engine._topk(*s2.engine.evaluate(plan), 20)
        np.testing.assert_array_equal(pruned[0], exhaustive[0])
        np.testing.assert_allclose(pruned[1], exhaustive[1])
    # block_min_dl values match the doc store (not the loosened bound 1)
    tp = s2.reader.posting("def")
    if tp:
        for p in tp.parts:
            docs, _tfs = s2.reader.decode_all(tp)
            dls = s2.reader.dl_of(docs)
            assert int(np.asarray(p["block_min_dl"]).min()) >= int(dls.min())
            assert int(np.asarray(p["block_min_dl"]).min()) > 1


def test_update_index_incremental(ray_session):
    """Reference --update mode (AddressesImporter.java:98-163): delete
    the incoming ids, re-insert as a fresh segment, bump counters."""
    import ray.data as rd

    from gazetteer_search_ray.pipelines.maintenance import update_index

    base = f"{BASE}/idx_upd"
    shutil.rmtree(base, ignore_errors=True)
    files = write_synthetic_corpus(f"{BASE}/corpus_upd", n_docs=150, n_files=2)
    build_index(
        read_corpus(files),
        base,
        BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64),
    )
    s0 = Searcher(base)
    n0 = s0.reader.n_docs
    old_ids = s0.reader.doc_ids[:10].tolist()

    # 10 replaced docs + 5 brand-new, all carrying a marker token
    rows = [
        {"doc_id": int(d), "content": f"zzupdated replacement body {d}"}
        for d in old_ids
    ] + [
        {"doc_id": 10_000 + i, "content": f"zzupdated brand new doc {i}"}
        for i in range(5)
    ]
    man = update_index(base, rd.from_items(rows))
    assert man["n_docs"] == n0 + 5
    assert man["import_counter"] >= 1
    assert any(seg.startswith("upd-") for seg in man["segments"])

    s1 = Searcher(base)
    hits = s1.search("zzupdated", k=50, use_prior=False)
    got = {h["doc_id"] for h in hits}
    assert got == set(old_ids) | {10_000 + i for i in range(5)}
    # replaced docs are no longer reachable through their old content:
    # every posting for the updated ids comes from the new segment, so
    # their doc length matches the replacement body
    dls = s1.reader.dl_of(np.searchsorted(s1.reader.doc_ids, sorted(old_ids)))
    assert all(0 < dl < 10 for dl in dls)
    # pruned vs exhaustive stays identical on the multi-segment index
    from gazetteer_search_ray.pipelines.query import Bool, Term

    plan = Bool(should=(Term("def"), Term("zzupdated")))
    pruned = s1.engine.top_k(plan, 20)
    exhaustive = s1.engine._topk(*s1.engine.evaluate(plan), 20)
    np.testing.assert_array_equal(pruned[0], exhaustive[0])
    # updating again produces a distinct segment name
    man2 = update_index(
        base, rd.from_items([{"doc_id": 10_000, "content": "zzupdated again"}])
    )
    assert len([s for s in man2["segments"] if s.startswith("upd-")]) == 2
    assert man2["n_docs"] == man["n_docs"]


def test_mass_eval_pipeline(idx, tmp_path):
    import ray.data as rd

    from gazetteer_search_ray.pipelines.geocode import mass_eval

    s = Searcher(idx)
    # build a query set whose expected answer is the engine's own top-1
    # (self-consistency) plus one deliberately wrong expectation
    rows = []
    for i, q in enumerate(["qwyzzle", "xqzfrobnicate", "def return"]):
        top = s.search(q, k=5, use_prior=False)[0]["doc_id"]
        rows.append({"qid": i, "q": q, "expected_doc_id": top})
    rows.append({"qid": 99, "q": "def", "expected_doc_id": -12345})
    summary = mass_eval(
        rd.from_items(rows), idx, out_dir=str(tmp_path / "eval"), k=5
    )
    assert summary["n_queries"] == 4
    assert summary["top1_match"] == 3
    assert summary["not_found"] == 1
    rep = json.load(open(tmp_path / "eval" / "error_report.json"))
    assert rep["summary"]["top1_match"] == 3
    assert len(rep["failures"]) == 1
    # HTML report chunks (reference csv/CSVGeocode.java:174-203)
    html_doc = (tmp_path / "eval" / "error_report-0.html").read_text()
    assert "<table" in html_doc and "99" in html_doc  # the failing qid


def test_haversine_known_distance():
    from gazetteer_search_ray.functions.geo import haversine_km

    # Paris (48.8566, 2.3522) ↔ London (51.5074, -0.1278) ≈ 343-344 km
    d = float(haversine_km(48.8566, 2.3522, 51.5074, -0.1278))
    assert 340 < d < 348
    assert float(haversine_km(10.0, 20.0, 10.0, 20.0)) == 0.0


def test_geo_distance_secondary_sort(ray_session, tmp_path):
    """TRUE haversine secondary sort (ESCoalesce.java:50
    geoDistanceSort analog): equal-score hits order by great-circle
    distance from the query origin."""
    import ray.data as rd

    from gazetteer_search_ray.functions.geo import haversine_km

    lats = [10.0, 40.0, -30.0, 10.5, 60.0, 9.0]
    lons = [20.0, -5.0, 150.0, 20.5, 30.0, 19.0]
    rows = [
        {
            "doc_id": i, "repo": "r", "path": f"f{i}.py", "commit": "c",
            "lang": "py",
            "content": "alpha beta gamma",  # identical text → equal scores
            "lat": lats[i], "lon": lons[i],
        }
        for i in range(6)
    ]
    idx_dir = str(tmp_path / "geoidx")
    build_index(rd.from_items(rows), idx_dir,
                BuildOptions(analyzer_config=AnalyzerConfig.simple()))
    s = Searcher(idx_dir)
    origin = (10.0, 20.0)
    docs, scores = s.engine.top_k_geo_sorted(
        Bool(should=(Term("alpha"),)), k=6, origin=origin
    )
    assert docs.size == 6
    assert np.allclose(scores, scores[0])  # all tied on score
    got_lat = s.reader.column_of(docs, "lat")
    got_lon = s.reader.column_of(docs, "lon")
    dists = haversine_km(got_lat, got_lon, origin[0], origin[1])
    assert (np.diff(dists) >= -1e-9).all()  # ascending distance
    assert float(dists[0]) == 0.0  # the doc AT the origin ranks first


def test_ndjson_reader(ray_session, tmp_path):
    from gazetteer_search_ray.sources.corpus import read_corpus_ndjson, synthetic_corpus

    t = synthetic_corpus(20)
    path = tmp_path / "corpus.jsonl"
    with open(path, "w") as f:
        for row in t.to_pylist():
            f.write(json.dumps(row) + "\n")
    ds = read_corpus_ndjson(str(path))
    out = ds.to_pandas()
    assert len(out) == 20
    assert "doc_id" in out.columns
    # same doc_ids as the parquet reader assigns
    from gazetteer_search_ray.sources.corpus import _assign_doc_ids

    exp = _assign_doc_ids(t)["doc_id"].to_pylist()
    assert sorted(out["doc_id"]) == sorted(exp)


def test_query_service_pool(idx):
    """Persistent serving pool answers identically to a local Searcher."""
    from gazetteer_search_ray.pipelines.search import QueryService, Searcher

    svc = QueryService(idx, pool_size=2)
    svc.warm(["def", "return"])
    local = Searcher(idx)
    queries = [
        {"qid": 0, "q": "qwyzzle"},
        {"qid": 1, "q": "def return"},
        {"qid": 2, "q": "zzz_nothing"},
    ]
    out = svc.replay(queries, batch_size=2)
    assert [o["qid"] for o in out] == [0, 1, 2]
    for o, q in zip(out, queries):
        exp = local.search(q["q"], k=20, use_prior=False)
        got = o["hits"]
        assert [h["doc_id"] for h in got] == [h["doc_id"] for h in exp]
        # shared-warm seeding must be bit-identical to local evaluation
        assert [h["score"] for h in got] == [h["score"] for h in exp]
    summ = svc.replay(queries, batch_size=2, summarize=True)
    assert summ[1]["n_hits"] == len(local.search("def return", k=20, use_prior=False))
    svc.shutdown()


def test_query_scorer_matches_searcher(idx):
    """``map_batches(QueryScorer)`` returns, per query row, the ranked
    (doc_id, score) rows of ``Searcher.search`` with the same ``k`` and
    ``prefix``, for rows whose ``k`` and ``prefix`` differ."""
    import ray.data as rd

    from gazetteer_search_ray.pipelines.search import QueryScorer

    rows = [
        {"qid": 0, "q": "def return", "k": 5, "prefix": False},
        {"qid": 1, "q": "def ret", "k": 20, "prefix": True},
        {"qid": 2, "q": "qwyzzle", "k": 3, "prefix": False},
        {"qid": 3, "q": "class imp", "k": 7, "prefix": True},
        {"qid": 4, "q": "zzz_nothing", "k": 20, "prefix": False},
        {"qid": 5, "q": "import class return", "k": 50, "prefix": False},
    ]
    out = rd.from_items(rows).map_batches(
        QueryScorer, fn_constructor_kwargs=dict(index_dir=idx),
        batch_format="pyarrow", concurrency=1, batch_size=4,
    ).take_all()
    got = sorted((r["qid"], r["rank"], r["doc_id"], r["score"]) for r in out)
    local = Searcher(idx)
    want = sorted(
        (r["qid"], h["rank"], h["doc_id"], h["score"])
        for r in rows
        for h in local.search(r["q"], k=r["k"], prefix=r["prefix"],
                              use_prior=False)
    )
    assert got == want
    n_hits = [sum(w[0] == r["qid"] for w in want) for r in rows]
    assert n_hits == [5, 20, 1, 7, 0, 50]  # each row's own k caps its hits


def test_sharded_scatter_gather_matches_unsharded(ray_session):
    """ShardedQueryService (one actor per segment, two-phase global-df
    search) must produce identical hits to the unsharded Searcher, over
    a three-partition build and over a plain one-segment build."""
    import glob

    import ray.data as rd

    from gazetteer_search_ray.pipelines.build_index import (
        build_index_partitioned,
    )
    from gazetteer_search_ray.pipelines.search import ShardedQueryService
    from gazetteer_search_ray.sources.corpus import write_synthetic_corpus

    base, plain = f"{BASE}/idx_shard", f"{BASE}/idx_shard_plain"
    shutil.rmtree(base, ignore_errors=True)
    files = write_synthetic_corpus(f"{BASE}/corpus_shard", n_docs=300, n_files=4)
    opts = BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64)
    build_index_partitioned(
        sorted(glob.glob(f"{BASE}/corpus_shard/*.parquet")),
        base, opts, num_partitions=3,
    )
    build_index(read_corpus(files), plain, opts)
    for index, n_shards in ((base, 3), (plain, 1)):
        flat = Searcher(index)
        svc = ShardedQueryService(index)
        assert len(svc.workers) == n_shards
        try:
            for q, pfx in [("def return", False), ("class", False),
                           ("qwyzzle", False), ("parse add", True),
                           ("def import class return", False),
                           ("zzz_nonexistent", False)]:
                want = flat.search(q, k=15, prefix=pfx, use_prior=False)
                got = svc.search(q, k=15, prefix=pfx)
                assert [h["doc_id"] for h in got] == \
                    [h["doc_id"] for h in want], (index, q)
                np.testing.assert_allclose(
                    [h["score"] for h in got], [h["score"] for h in want],
                    rtol=0, atol=0,
                )  # bit-identical: same global df, n_docs, avgdl
        finally:
            svc.shutdown()


# Runs in a fresh interpreter: first with no Ray session, then under a
# 1-CPU one, where a pool of 2 would leave one actor pending forever.
_OVERSUBSCRIBE = """
import json, sys
import ray
from gazetteer_search_ray.pipelines.search import (
    QueryService, ShardedQueryService)
from gazetteer_search_ray.server import SearchHTTPServer

idx = sys.argv[1]
out = {}
def raises(key, exc, fn):
    try:
        fn()
    except exc as e:
        out[key] = str(e)
raises("server", RuntimeError, lambda: SearchHTTPServer(idx, pool_size=2))
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
raises("pool", ValueError, lambda: QueryService(idx, pool_size=2))
raises("sharded", ValueError, lambda: ShardedQueryService(idx))
svc = QueryService(idx, pool_size=1)
out["hits"] = [len(r["hits"]) for r in svc.replay([{"q": "def"}] * 3)]
svc.shutdown()
ray.shutdown()
print(json.dumps(out))
"""


def test_pool_larger_than_cluster_raises(ray_session, tmp_path):
    """A pool or a shard set that needs more CPUs than the cluster has
    raises at construction, and a pooled server without Ray raises; a
    pool that fits still answers every request."""
    import glob
    import subprocess
    import sys

    from gazetteer_search_ray.pipelines.build_index import (
        build_index_partitioned,
    )

    write_synthetic_corpus(f"{tmp_path}/corpus", n_docs=60, n_files=2)
    index = f"{tmp_path}/idx"
    build_index_partitioned(
        sorted(glob.glob(f"{tmp_path}/corpus/*.parquet")), index,
        BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64),
        num_partitions=2,
    )
    run = subprocess.run(
        [sys.executable, "-c", _OVERSUBSCRIBE, index],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True, text=True, timeout=240,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    out = json.loads(run.stdout.splitlines()[-1])
    assert "Ray session" in out.get("server", "")
    assert "CPUs" in out.get("pool", "")
    assert "CPUs" in out.get("sharded", "")
    want = len(Searcher(index).search("def", k=20, use_prior=False))
    assert want > 0
    assert out["hits"] == [want] * 3


def test_topk_approx_band_matches_exact(searcher):
    """The float32 band top-k (`_topk_bool_approx`) must return
    bit-identical (docs, scores) to the sparse exact path for every
    qualifying plan shape, including plans with heavy score ties around
    the kth position."""
    from gazetteer_search_ray.pipelines.query import (
        Bool,
        ColumnFilter,
        Prefix,
        RangeFilter,
        Term,
    )

    eng = searcher.engine
    plans = [
        Bool(must=(Term("def"), Term("return"))),
        Bool(must=(Term("def"), Term("return"), Term("import"))),
        Bool(should=(Term("def"), Term("class"), Term("import"))),
        Bool(should=(Term("def"), Term("class"), Term("import")),
             must_not=(Term("ident50"),)),
        Bool(should=(Term("def"), Term("class"), Term("return")),
             minimum_should_match=2),
        Bool(must=(Term("def"),), should=(Term("class"), Prefix("re")),
             boost=2.5),
        Bool(must=(Term("def"), Term("class")),
             must_not=(Term("qwyzzle"),),
             filter=(RangeFilter("dl", 5, 500),)),
        # constant-score should children: maximal kth-score ties
        Bool(should=(Prefix("de"), Prefix("re"), Prefix("cl"))),
        # filter + should, no must, msm=0: docs matching the filter but
        # NO should clause are hits with score 0 (should adds score,
        # doesn't constrain) — the approx band must not drop them
        Bool(should=(Term("def"), Term("class")),
             filter=(RangeFilter("dl", 5, 500),)),
        Bool(should=(Term("qwyzzle"), Prefix("zz")),
             filter=(RangeFilter("dl", 5, 500),)),
        Bool(should=(Term("def"), Term("return"), Term("import")),
             filter=(RangeFilter("dl", 5, 500),),
             minimum_should_match=1),
    ]
    cap = eng.dense_doc_cap
    for plan in plans:
        for k in (1, 5, 20, 10_000):
            d0, s0 = eng.top_k(plan, k)
            eng.dense_doc_cap = 0  # the sparse reference path
            dd, ss = eng.evaluate(plan)
            d1, s1 = eng._topk(dd, ss, k)
            eng.dense_doc_cap = cap
            np.testing.assert_array_equal(d0, d1)
            np.testing.assert_array_equal(s0, s1)  # bit-identical floats


def _mixed_plans():
    from gazetteer_search_ray.pipelines.query import (
        ColumnFilter,
        DisMax,
        Prefix,
    )

    dl = RangeFilter("dl", 5, 500)
    return [
        Bool(should=(Term("def"), Term("class"), Term("import"))),
        Bool(must=(Term("def"), Term("return")), should=(Prefix("re"),)),
        Bool(should=(Term("qwyzzle"), Term("name"))),
        Bool(should=(Term("def"), Term("return")), filter=(dl,),
             minimum_should_match=1),
        Bool(must=(Term("def"),), filter=(dl,),
             must_not=(ColumnFilter("lang", ("python",)),)),
        DisMax((Term("class"), Prefix("im")), tie_breaker=0.3),
        Bool(should=(Term("return"),)),
    ]


def test_leaf_cache_is_byte_bounded(searcher, monkeypatch):
    """With a budget of a few KB the leaf LRU never holds more than its
    bound, evicts, keeps its byte count exact, and every top-k stays
    bit-identical to an engine with the default budget."""
    from gazetteer_search_ray.pipelines import query

    plans = _mixed_plans()
    fresh = query.QueryEngine(searcher.reader)
    want = [fresh.top_k(p, k) for p in plans for k in (3, 20)]

    bound = 4096
    monkeypatch.setattr(query, "LEAF_CACHE_BYTES", bound)
    eng = query.QueryEngine(searcher.reader)
    seen: set = set()
    for _ in range(2):
        got = []
        for p in plans:
            for k in (3, 20):
                got.append(eng.top_k(p, k))
                assert eng._leaves_bytes <= bound
                assert eng._leaves_bytes == sum(
                    query._entry_bytes(e) for e in eng._leaves.values())
                seen.update(eng._leaves)
        for (d0, s0), (d1, s1) in zip(want, got):
            np.testing.assert_array_equal(d0, d1)
            np.testing.assert_array_equal(s0, s1)  # bit-identical floats
    assert len(seen) > len(eng._leaves)  # entries were evicted


def test_topk_follows_df_override(searcher):
    """The leaf cache keys a Term by its effective df, so one engine
    switching global-df maps A → B → A answers each exactly as a fresh
    engine under that map (the sharded dfs phase relies on it)."""
    from gazetteer_search_ray.pipelines.query import QueryEngine

    n = searcher.reader.n_docs
    maps = [{}, {"def": n, "class": 3, "return": n // 2, "qwyzzle": 40}, {}]
    plans = _mixed_plans()
    eng = QueryEngine(searcher.reader)
    results = []
    for df_map in maps:
        eng.df_override = df_map
        ref = QueryEngine(searcher.reader)
        ref.df_override = df_map
        got = [eng.top_k(p, 20) for p in plans]
        for (d0, s0), (d1, s1) in zip(got, (ref.top_k(p, 20) for p in plans)):
            np.testing.assert_array_equal(d0, d1)
            np.testing.assert_array_equal(s0, s1)
        results.append(got)
    assert any(not np.array_equal(a[1], b[1])
               for a, b in zip(results[0], results[1]))  # the maps matter


def test_force_merge_preserves_results(ray_session):
    """ES _forcemerge analog: after two incremental updates (3
    segments), merging to one segment must leave every query's doc ids
    AND BM25 scores bit-identical (global df/avgdl merge at read time
    is already exact; the merge just relocates postings)."""
    import ray.data as rd

    from gazetteer_search_ray.pipelines.maintenance import (
        force_merge,
        update_index,
    )

    base = f"{BASE}/idx_fm"
    shutil.rmtree(base, ignore_errors=True)
    files = write_synthetic_corpus(f"{BASE}/corpus_fm", n_docs=200, n_files=2)
    build_index(
        read_corpus(files), base,
        BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64,
                     num_doc_shards=2),
    )
    s0 = Searcher(base)
    ids0 = s0.reader.doc_ids
    update_index(base, rd.from_items(
        [{"doc_id": int(ids0[i]), "content": f"zzmerged body alpha {i}"}
         for i in range(8)]))
    update_index(base, rd.from_items(
        [{"doc_id": 20_000 + i, "content": f"zzmerged fresh beta {i}"}
         for i in range(5)]))

    man_before = Searcher(base).reader.manifest \
        if hasattr(Searcher(base).reader, "manifest") else None
    s1 = Searcher(base)
    queries = ["zzmerged", "def", "sort merge", "alpha beta"]
    before = {q: s1.search(q, k=30, use_prior=False) for q in queries}
    n1, tok1 = s1.reader.n_docs, s1.reader.doc_ids.size

    import gazetteer_search_ray.state.manifest as mf
    pre_man = mf.read_manifest(base)
    assert len(pre_man["segments"]) == 3  # seg-, upd-, upd-

    man = force_merge(base)
    assert man["segments"] == [f"merged-{man['import_counter']:05d}"]
    assert man["n_docs"] == pre_man["n_docs"]
    assert man["total_tokens"] == pre_man["total_tokens"]
    assert not os.path.isdir(os.path.join(base, "seg-00000"))  # old build seg
    assert not any(d.startswith("upd-") for d in os.listdir(base))

    s2 = Searcher(base)
    assert s2.reader.n_docs == n1 and s2.reader.doc_ids.size == tok1
    for q in queries:
        after = s2.search(q, k=30, use_prior=False)
        assert [h["doc_id"] for h in after] == \
            [h["doc_id"] for h in before[q]]
        np.testing.assert_allclose(
            [h["score"] for h in after],
            [h["score"] for h in before[q]], rtol=0, atol=1e-12)
    # idempotent: merging a single segment is a no-op
    man2 = force_merge(base)
    assert man2["segments"] == man["segments"]


def test_force_merge_per_field_norms(ray_session):
    """Merged per-field postings must keep field-scoped block_min_dl
    from the FIELD dl (dl__src), not the main dl — per-field BM25
    scores stay bit-identical."""
    import ray.data as rd

    from gazetteer_search_ray.pipelines.maintenance import (
        force_merge,
        update_index,
    )
    from gazetteer_search_ray.pipelines.query import Bool, Term

    base = f"{BASE}/idx_fmf"
    shutil.rmtree(base, ignore_errors=True)
    files = write_synthetic_corpus(f"{BASE}/corpus_fmf", n_docs=120,
                                   n_files=2)
    build_index(
        read_corpus(files), base,
        BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64,
                     extra_fields=(("src", "repo"),)),
    )
    s0 = Searcher(base)
    update_index(base, rd.from_items(
        [{"doc_id": int(s0.reader.doc_ids[i]),
          "content": f"zzfield update {i}", "repo": f"repo-{i % 3}"}
         for i in range(6)]))

    s1 = Searcher(base)
    plan = Bool(should=(Term("def"), Term("repo-1", field="src")))
    docs_b, scores_b = s1.engine.top_k(plan, 25)
    force_merge(base)
    s2 = Searcher(base)
    docs_a, scores_a = s2.engine.top_k(plan, 25)
    np.testing.assert_array_equal(docs_a, docs_b)
    np.testing.assert_allclose(scores_a, scores_b, rtol=0, atol=1e-12)
