"""End-to-end: build on the synthetic corpus, query, compare with the
brute-force oracle (rank-identity with equal scores — FIXTURES.md §3),
plus sha256 invariant, shard equivalence, partitioned-build equivalence
and resume (FIXTURES.md §6)."""

import glob
import hashlib
import os
import shutil

import numpy as np
import pyarrow.dataset as pads
import pytest

from gazetteer_search_ray.functions.analyzer import Analyzer, AnalyzerConfig
from gazetteer_search_ray.pipelines.build_index import (
    SEGMENT,
    BuildOptions,
    build_index,
    build_index_partitioned,
)
from gazetteer_search_ray.pipelines.maintenance import update_index
from gazetteer_search_ray.pipelines.query import Bool, DisMax, Prefix, QueryEngine, Term
from gazetteer_search_ray.pipelines.search import Searcher, analyze_query
from gazetteer_search_ray.sources.corpus import (
    read_corpus,
    synthetic_corpus,
    write_synthetic_corpus,
)
from gazetteer_search_ray.state import manifest as mf

import sys
sys.path.insert(0, os.path.dirname(__file__))
from oracle import BruteIndex

N_DOCS = 300
BASE = "/tmp/gsr_test"


@pytest.fixture(scope="session")
def corpus_files(ray_session):
    shutil.rmtree(BASE, ignore_errors=True)
    return write_synthetic_corpus(f"{BASE}/corpus", n_docs=N_DOCS, n_files=4)


@pytest.fixture(scope="session")
def index_dir(corpus_files):
    ds = read_corpus(corpus_files)
    build_index(
        ds,
        f"{BASE}/idx",
        BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64),
    )
    return f"{BASE}/idx"


@pytest.fixture(scope="session")
def brute(index_dir):
    """Oracle over the same corpus, tokenized with the same analyzer."""
    an_cfg = AnalyzerConfig.code()
    nodedup = AnalyzerConfig(**{**an_cfg.__dict__, "dedup": False})
    an = Analyzer(nodedup)
    t = synthetic_corpus(N_DOCS)
    from gazetteer_search_ray.sources.corpus import _assign_doc_ids

    t = _assign_doc_ids(t)
    docs = {
        int(d): [tok for tok, _ in an.tokens(c)]
        for d, c in zip(t["doc_id"].to_pylist(), t["content"].to_pylist())
    }
    return BruteIndex(docs)


@pytest.fixture(scope="session")
def searcher(index_dir):
    return Searcher(index_dir)


def test_manifest_stats_match_oracle(searcher, brute):
    r = searcher.reader
    assert r.n_docs == brute.n
    assert abs(r.avgdl - brute.avgdl) < 1e-9


def test_sha256_invariant(index_dir):
    t = pads.dataset(f"{index_dir}/{SEGMENT}/docmeta").to_table(
        columns=["doc_id", "sha256"]
    )
    got = dict(zip(t["doc_id"].to_pylist(), t["sha256"].to_pylist()))
    src = synthetic_corpus(N_DOCS)
    from gazetteer_search_ray.sources.corpus import _assign_doc_ids

    src = _assign_doc_ids(src)
    for d, c in zip(src["doc_id"].to_pylist(), src["content"].to_pylist()):
        assert got[int(d)] == hashlib.sha256(c.encode()).hexdigest()
    assert len(got) == N_DOCS


def test_df_and_tf_match_oracle(searcher, brute):
    r = searcher.reader
    for term in ["def", "return", "ident100", "xqzfrobnicate", "qwyzzle", "strasse"]:
        tp = r.posting(term)
        if brute.df.get(term, 0) == 0:
            assert tp is None
            continue
        assert tp.df == brute.df[term], term
        docs, tfs = r.decode_all(tp)
        exp = sorted((d, c[term]) for d, c in brute.tf.items() if c.get(term))
        np.testing.assert_array_equal(r.doc_ids[docs], [d for d, _ in exp])
        np.testing.assert_array_equal(tfs, [tf for _, tf in exp])


def test_planted_rare_term_scores(searcher, brute):
    docs, scores = searcher.engine.top_k(Bool(should=(Term("xqzfrobnicate"),)), 10)
    exp_d, exp_s = brute.topk(brute.matches_or(["xqzfrobnicate"]), 10)
    np.testing.assert_array_equal(searcher.reader.doc_ids[docs], exp_d)
    np.testing.assert_allclose(scores, exp_s, rtol=0, atol=1e-12)


QUERIES = [
    ["def"],                       # hot single
    ["xqzfrobnicate"],             # rare single
    ["def", "return", "class"],    # hot OR
    ["xqzfrobnicate", "def"],      # rare + hot
    ["ident50", "ident100", "ident200"],
    ["notinthecorpus"],            # absent
]


@pytest.mark.parametrize("terms", QUERIES, ids=["-".join(q) for q in QUERIES])
def test_or_topk_rank_identical(searcher, brute, terms):
    docs, scores = searcher.engine.top_k(
        Bool(should=tuple(Term(t) for t in terms)), 20
    )
    exp_d, exp_s = brute.topk(brute.matches_or(terms), 20)
    np.testing.assert_array_equal(searcher.reader.doc_ids[docs], exp_d)
    np.testing.assert_allclose(scores, exp_s, rtol=0, atol=1e-9)


@pytest.mark.parametrize("terms", QUERIES, ids=["-".join(q) for q in QUERIES])
def test_pruned_equals_exhaustive(searcher, terms):
    eng = searcher.engine
    d1, s1 = eng.top_k_disjunction([Term(t) for t in terms], 20)
    d2, s2 = eng._topk(*eng.evaluate(Bool(should=tuple(Term(t) for t in terms))), 20)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-12)


def test_and_matches_oracle(searcher, brute):
    terms = ["def", "return"]
    docs, scores = searcher.engine.top_k(
        Bool(must=tuple(Term(t) for t in terms)), 20
    )
    exp_d, exp_s = brute.topk(brute.matches_and(terms), 20)
    np.testing.assert_array_equal(searcher.reader.doc_ids[docs], exp_d)
    np.testing.assert_allclose(scores, exp_s, rtol=0, atol=1e-9)


def test_msm2_matches_oracle(searcher, brute):
    terms = ["def", "return", "xqzfrobnicate"]
    docs, scores = searcher.engine.top_k(
        Bool(should=tuple(Term(t) for t in terms), minimum_should_match=2), 20
    )
    exp_d, exp_s = brute.topk(brute.matches_msm(terms, 2), 20)
    np.testing.assert_array_equal(searcher.reader.doc_ids[docs], exp_d)
    np.testing.assert_allclose(scores, exp_s, rtol=0, atol=1e-9)


def test_dismax_takes_max(searcher, brute):
    a, b = "def", "return"
    docs, scores = searcher.engine.top_k(
        DisMax(children=(Term(a), Term(b))), 20
    )
    exp = {}
    for d in brute.tf:
        sa, sb = brute.score(d, a), brute.score(d, b)
        if brute.tf[d].get(a) or brute.tf[d].get(b):
            exp[d] = max(sa, sb)
    exp_d, exp_s = brute.topk(exp, 20)
    np.testing.assert_array_equal(searcher.reader.doc_ids[docs], exp_d)
    np.testing.assert_allclose(scores, exp_s, rtol=0, atol=1e-12)


def test_must_not_excludes(searcher, brute):
    docs, _ = searcher.engine.evaluate(
        Bool(must=(Term("def"),), must_not=(Term("return"),))
    )
    for d in searcher.reader.doc_ids[docs]:
        assert brute.tf[int(d)].get("def") and not brute.tf[int(d)].get("return")


def test_prefix_constant_score(searcher, brute):
    docs, scores = searcher.engine.evaluate(Prefix("xqz"))
    exp = sorted(d for d, c in brute.tf.items() if any(t.startswith("xqz") for t in c))
    np.testing.assert_array_equal(searcher.reader.doc_ids[docs], exp)
    assert (scores == 1.0).all()


def test_filter_lang(searcher):
    from gazetteer_search_ray.pipelines.query import ColumnFilter

    docs, _ = searcher.engine.evaluate(
        Bool(must=(Term("def"),), filter=(ColumnFilter("lang", ("python",)),))
    )
    assert docs.size > 0
    assert set(searcher.reader.column_of(docs, "lang")) == {"python"}


def test_search_cascade_falls_back(searcher):
    # strict AND of a rare pair fails → cascade returns relaxed hits
    hits = searcher.search("xqzfrobnicate notinthecorpus", k=5, use_prior=False)
    assert hits, "coalesce should fall back to the OR variant"
    # strict-only (no coalesce) returns the OR variant directly too
    hits2 = searcher.search("xqzfrobnicate", k=5, use_prior=False)
    assert hits2[0]["doc_id"] in {h["doc_id"] for h in hits}


def test_analyze_query_classes_tokens(searcher):
    pq = analyze_query("getUserName v42 ab (deprecated0)", searcher.reader.analyzer)
    assert "getusername" in pq.required
    assert "v42" in pq.numbers
    assert "ab" in pq.optional


def test_sharded_index_equivalent(corpus_files, searcher):
    ds = read_corpus(corpus_files)
    build_index(
        ds,
        f"{BASE}/idx_sharded",
        BuildOptions(
            analyzer_config=AnalyzerConfig.code(), num_doc_shards=4, batch_size=64
        ),
    )
    s2 = Searcher(f"{BASE}/idx_sharded")
    for terms in QUERIES:
        d1, s1_ = searcher.engine.top_k(Bool(should=tuple(Term(t) for t in terms)), 20)
        d2, s2_ = s2.engine.top_k(Bool(should=tuple(Term(t) for t in terms)), 20)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1_, s2_, rtol=0, atol=1e-12)


def _sorted_rows(index: str, sub: str, keys: list[str]):
    (seg,) = mf.read_manifest(index)["segments"]
    t = pads.dataset(os.path.join(index, seg, sub), format="parquet").to_table()
    return t.sort_by([(k, "ascending") for k in keys])


def test_block_build_equals_small_batch_build(corpus_files, index_dir):
    """The default build hands tokenize whole read blocks; the fixture
    index was built from 64-row batches.  Both must hold the same
    postings rows and the same doc store.  The files themselves may
    split differently: on more than one CPU the sort samples its range
    boundaries at random."""
    idx = f"{BASE}/idx_blocks"
    build_index(read_corpus(corpus_files), idx,
                BuildOptions(analyzer_config=AnalyzerConfig.code()))
    assert _sorted_rows(idx, "postings", ["term", "shard"]).equals(
        _sorted_rows(index_dir, "postings", ["term", "shard"]))
    assert _sorted_rows(idx, "docmeta", ["doc_id"]).equals(
        _sorted_rows(index_dir, "docmeta", ["doc_id"]))


def test_partitioned_build_and_resume(corpus_files, searcher):
    opts = BuildOptions(analyzer_config=AnalyzerConfig.code(), batch_size=64)
    idx = f"{BASE}/idx_part"
    man = build_index_partitioned(corpus_files, idx, opts, num_partitions=3)
    assert man["n_docs"] == N_DOCS
    assert len(man["partitions"]) == 3

    # simulate a crash while part 1 was written: the manifest does not
    # list it and its directory is partly written; resume must rebuild
    # ONLY it
    man.pop("partitions")
    man["segments"].remove("part-00001")
    del man["segment_stats"]["part-00001"]
    mf.write_manifest(idx, man)
    shutil.rmtree(os.path.join(idx, "part-00001", "postings"))
    man2 = build_index_partitioned(corpus_files, idx, opts, num_partitions=3)
    statuses = {p["partition_id"]: p["status"] for p in man2["partitions"]}
    assert statuses[1] == "built" and statuses[0] == "skipped" and statuses[2] == "skipped"

    # resumed index answers identically to the single-segment index
    s2 = Searcher(idx)
    assert s2.reader.n_docs == N_DOCS
    for terms in QUERIES:
        d1, sc1 = searcher.engine.top_k(Bool(should=tuple(Term(t) for t in terms)), 20)
        d2, sc2 = s2.engine.top_k(Bool(should=tuple(Term(t) for t in terms)), 20)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(sc1, sc2, rtol=0, atol=1e-12)

    # a rerun over an index whose segments are not all file groups (a
    # plain build's, an update's) rebuilds the groups and lists nothing
    # else: every doc once
    def assert_each_doc_once(man):
        files = [f for s in man["segments"]
                 for f in glob.glob(os.path.join(idx, s, "docmeta", "*.parquet"))]
        ids = pads.dataset(files).to_table()["doc_id"].to_numpy()
        assert man["n_docs"] == len(ids) == len(np.unique(ids)) == N_DOCS
        assert man["segments"] == ["part-00000", "part-00001", "part-00002"]

    build_index(read_corpus(corpus_files), idx, opts)
    assert_each_doc_once(
        build_index_partitioned(corpus_files, idx, opts, num_partitions=3))
    update_index(idx, read_corpus(corpus_files[:1]))
    assert_each_doc_once(
        build_index_partitioned(corpus_files, idx, opts, num_partitions=3))

    # no input files: an empty index, as before
    empty = build_index_partitioned([], f"{BASE}/idx_part_empty", opts)
    assert empty["n_docs"] == 0 and empty["segments"] == []
