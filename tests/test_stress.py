"""Randomized stress tests: block-max pruned top-k must equal
exhaustive evaluation on arbitrary corpora/queries (the WAND-family
invariant), and codec roundtrips must hold under hypothesis-style
random shapes."""

import numpy as np
import pytest

from gazetteer_search_ray.functions import bm25
from gazetteer_search_ray.functions.codec import (
    decode_blocks,
    decode_posting,
    encode_posting,
)


class FakeReader:
    """In-memory reader over synthetic postings (no Ray, no files).
    Like ``IndexReader`` with one segment: postings hold doc ordinals
    (positions in the sorted ``doc_ids``)."""

    def __init__(self, rng, n_docs=2000, vocab=50, avg_df=300):
        self.n_docs = n_docs
        self.doc_ids = np.sort(
            rng.choice(np.arange(1, n_docs * 10), size=n_docs, replace=False)
        ).astype(np.int64)
        self.dl = rng.integers(5, 400, size=n_docs).astype(np.int64)
        self.avgdl = float(self.dl.mean())
        self.block_size = 32  # small blocks → many skip decisions
        self.columns = {}
        self._postings = {}
        for t in range(vocab):
            df = int(np.clip(rng.poisson(avg_df), 1, n_docs))
            idx = np.sort(rng.choice(n_docs, size=df, replace=False))
            tfs = rng.integers(1, 15, size=df).astype(np.int64)
            row = encode_posting(idx, tfs, self.dl[idx], self.block_size)
            row["block_last"] = row["block_last_doc"]
            from gazetteer_search_ray.state.reader import TermPostings

            self._postings[f"t{t}"] = TermPostings(f"t{t}", df, [row])

    def posting(self, term):
        return self._postings.get(term)

    def dl_of(self, docs, field=None):
        return self.dl[docs]

    def avgdl_of(self, field=None):
        return self.avgdl

    def decode_blocks(self, part, blocks):
        return decode_blocks(part, blocks, self.block_size)

    def decode_all(self, tp):
        p = tp.parts[0]
        return self.decode_blocks(p, np.arange(len(p["block_last_doc"])))


@pytest.mark.parametrize("seed", range(8))
def test_pruned_disjunction_equals_exhaustive_random(seed):
    from gazetteer_search_ray.pipelines.query import Bool, QueryEngine, Term

    rng = np.random.default_rng(seed)
    reader = FakeReader(rng)
    eng = QueryEngine(reader)
    for _q in range(12):
        nterms = int(rng.integers(1, 7))
        terms = [f"t{int(i)}" for i in rng.choice(50, size=nterms, replace=False)]
        boosts = rng.choice([1.0, 0.5, 2.0], size=nterms)
        nodes = [Term(t, float(b)) for t, b in zip(terms, boosts)]
        k = int(rng.integers(1, 40))
        d1, s1 = eng.top_k_disjunction(nodes, k)
        d2, s2 = eng._topk(*eng.evaluate(Bool(should=tuple(nodes))), k)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-12)


def test_leaf_cache_admits_new_terms():
    """The leaf cache is an LRU, not a table that stops admitting once
    full: after 1,100 distinct term evaluations the last term is still
    cached, and evaluating it again decodes nothing."""
    from gazetteer_search_ray.pipelines.query import QueryEngine, Term

    reader = FakeReader(np.random.default_rng(7), n_docs=200, vocab=1100,
                        avg_df=5)
    eng = QueryEngine(reader)
    for t in range(1100):
        eng.eval_term(Term(f"t{t}"))
    decoded = []
    orig = reader.decode_all
    reader.decode_all = lambda tp: decoded.append(tp.term) or orig(tp)
    d, s = eng.eval_term(Term("t1099"))
    assert d.size and not decoded


@pytest.mark.parametrize("seed", range(4))
def test_bool_combinations_random(seed):
    """must/should/must_not/msm against a slow reference evaluation."""
    from gazetteer_search_ray.pipelines.query import Bool, QueryEngine, Term

    rng = np.random.default_rng(100 + seed)
    reader = FakeReader(rng, n_docs=500, vocab=20, avg_df=120)
    eng = QueryEngine(reader)

    def term_map(t):
        tp = reader.posting(t)
        docs, tfs = reader.decode_all(tp)
        scores = bm25.term_scores(
            tfs, reader.dl_of(docs), tp.df, reader.n_docs, reader.avgdl
        )
        return dict(zip(docs.tolist(), scores.tolist()))

    for _ in range(10):
        must = [f"t{int(i)}" for i in rng.choice(20, rng.integers(0, 3), replace=False)]
        should = [f"t{int(i)}" for i in rng.choice(20, rng.integers(0, 4), replace=False)]
        mnot = [f"t{int(i)}" for i in rng.choice(20, rng.integers(0, 2), replace=False)]
        msm = int(rng.integers(0, 3)) if should else 0
        if not must and not should:
            continue
        plan = Bool(
            must=tuple(Term(t) for t in must),
            should=tuple(Term(t) for t in should),
            must_not=tuple(Term(t) for t in mnot),
            minimum_should_match=msm,
        )
        got_d, got_s = eng.evaluate(plan)

        maps_m = [term_map(t) for t in must]
        maps_s = [term_map(t) for t in should]
        maps_n = [term_map(t) for t in mnot]
        exp = {}
        for d in range(reader.doc_ids.size):
            if must:
                if not all(d in m for m in maps_m):
                    continue
                base = sum(m[d] for m in maps_m)
                cnt = sum(1 for m in maps_s if d in m)
                if msm > 0 and cnt < msm:
                    continue
            else:
                cnt = sum(1 for m in maps_s if d in m)
                if cnt < max(1, msm):
                    continue
                base = 0.0
            if any(d in m for m in maps_n):
                continue
            exp[d] = base + sum(m.get(d, 0.0) for m in maps_s)
        exp_d = np.array(sorted(exp), dtype=np.int64)
        np.testing.assert_array_equal(got_d, exp_d)
        np.testing.assert_allclose(
            got_s, np.array([exp[d] for d in exp_d]), rtol=0, atol=1e-9
        )


@pytest.mark.parametrize("seed", range(5))
def test_codec_random_shapes(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(1, 3000))
    docs = np.sort(rng.choice(np.arange(10**6), size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 1000, size=n).astype(np.int64)
    dls = rng.integers(1, 10**5, size=n).astype(np.int64)
    bs = int(rng.choice([16, 128, 333]))
    row = encode_posting(docs, tfs, dls, bs)
    p = decode_posting(row, bs)
    np.testing.assert_array_equal(p.doc_ids, docs)
    np.testing.assert_array_equal(p.tfs, tfs)
    sel = np.unique(rng.integers(0, len(p.block_last_doc), size=3))
    d, t = decode_blocks(row, sel, bs)
    for j, b in enumerate(sel):
        lo, hi = b * bs, min((b + 1) * bs, n)
        start = sum(min((bb + 1) * bs, n) - bb * bs for bb in sel[:j])
        np.testing.assert_array_equal(d[start : start + hi - lo], docs[lo:hi])
