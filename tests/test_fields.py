"""Multi-field BM25: extra text fields index as field-scoped terms with
their OWN length norms (dl__<field> + per-field avgdl) — the reference
maps name/street/locality/full_text as separate ES text fields with
separate norms (``es_mappings/addr_row.json:41-121``,
``MainAddressQueryBuilder.java:396-468``).  Verified against a
brute-force per-field BM25 in numpy on a two-field fixture with very
different length distributions."""

from __future__ import annotations

import math
import shutil

import numpy as np
import pyarrow as pa
import pytest

from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
from gazetteer_search_ray.pipelines.build_index import BuildOptions, build_index
from gazetteer_search_ray.pipelines.query import Bool, Term
from gazetteer_search_ray.pipelines.search import Searcher

BASE = "/tmp/gsr_fields"
K1, B = 1.2, 0.75


def _bm25(tf, dl, df, n, avgdl):
    idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
    return idf * tf * (K1 + 1) / (tf + K1 * (1 - B + B * dl / avgdl))


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(15)]
    names = ["alpha beta", "beta", "gamma delta alpha", "delta",
             "alpha", "epsilon beta gamma"]
    rows = []
    for i in range(60):
        rows.append({
            "doc_id": i,
            "content": " ".join(rng.choice(vocab,
                                           size=int(rng.integers(5, 60)))),
            "name": names[i % len(names)],
        })
    return rows


@pytest.fixture(scope="module")
def searcher(ray_session, corpus):
    import ray.data as rd

    shutil.rmtree(BASE, ignore_errors=True)
    ds = rd.from_arrow(pa.Table.from_pylist(corpus)).repartition(3)
    build_index(
        ds, BASE,
        BuildOptions(analyzer_config=AnalyzerConfig.simple(),
                     batch_size=16,
                     extra_fields=(("name", "name"),)),
    )
    return Searcher(BASE)


def _tok(s):
    import re

    return [t for t in re.split(r"[^a-z0-9]+", s.lower()) if t]


def _brute_field_scores(corpus, term, field):
    col = "content" if field is None else field
    toks = {r["doc_id"]: _tok(r[col]) for r in corpus}
    n = len(corpus)
    dls = {d: len(t) for d, t in toks.items()}
    avgdl = sum(dls.values()) / n
    df = sum(1 for t in toks.values() if term in t)
    out = {}
    for d, t in toks.items():
        tf = t.count(term)
        if tf:
            out[d] = _bm25(tf, dls[d], df, n, avgdl)
    return out


def test_field_stats_recorded(searcher, corpus):
    r = searcher.reader
    assert "name" in r.field_avgdl
    toks = [_tok(row["name"]) for row in corpus]
    want_avg = sum(len(t) for t in toks) / len(toks)
    assert abs(r.avgdl_of("name") - want_avg) < 1e-9
    # per-doc field lengths round-trip through docmeta
    docs = np.array([row["doc_id"] for row in corpus], dtype=np.int64)
    got = r.dl_of(np.searchsorted(r.doc_ids, np.sort(docs)), "name")
    want = np.array([len(_tok(row["name"]))
                     for row in sorted(corpus, key=lambda x: x["doc_id"])])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("term", ["alpha", "beta", "delta"])
def test_field_term_scores_match_bruteforce(searcher, corpus, term):
    docs, scores = searcher.engine.evaluate(
        Bool(should=(Term(term, field="name"),)))
    docs = searcher.reader.doc_ids[docs]
    want = _brute_field_scores(corpus, term, "name")
    assert set(docs.tolist()) == set(want)
    for d, s in zip(docs, scores):
        assert abs(s - want[int(d)]) < 1e-9


def test_mixed_field_plan_matches_bruteforce(searcher, corpus):
    plan = Bool(should=(Term("w3"), Term("alpha", field="name")))
    docs, scores = searcher.engine.evaluate(plan)
    ids = searcher.reader.doc_ids[docs]
    c = _brute_field_scores(corpus, "w3", None)
    f = _brute_field_scores(corpus, "alpha", "name")
    want = {d: c.get(d, 0.0) + f.get(d, 0.0) for d in set(c) | set(f)}
    assert set(ids.tolist()) == set(want)
    for d, s in zip(ids, scores):
        assert abs(s - want[int(d)]) < 1e-9
    # the approx top-k path agrees bit-for-bit with evaluate+_topk
    d0, s0 = searcher.engine.top_k(plan, 10)
    order = np.lexsort((docs, -scores))[:10]
    np.testing.assert_array_equal(d0, docs[order])
    np.testing.assert_array_equal(s0, scores[order])


def test_same_token_different_norms(searcher, corpus):
    """'beta' exists in the name field only; a fieldless Term must not
    match it, and the field norm must differ from the content norm."""
    d_field, s_field = searcher.engine.evaluate(
        Bool(should=(Term("beta", field="name"),)))
    d_plain, _ = searcher.engine.evaluate(Bool(should=(Term("beta"),)))
    assert d_field.size > 0
    assert d_plain.size == 0  # 'beta' never appears in content
