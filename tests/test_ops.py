"""Training-data operators: dedup family, text analysis, sketches,
relational/maintenance jobs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    base = [
        "the quick brown fox jumps over the lazy dog again and again",
        "pack my box with five dozen liquor jugs right now please",
        "sphinx of black quartz judge my vow said the wizard",
        "how vexingly quick daft zebras jump over fences",
        "the five boxing wizards jump quickly over the lazy fence",
    ]
    rows = []
    for i in range(40):
        text = base[i % len(base)] + f" tail{i % 10}"
        rows.append({"doc_id": i, "text": text, "lang": "en"})
    # exact duplicates: 40..44 duplicate doc 0's text
    for i in range(40, 45):
        rows.append({"doc_id": i, "text": rows[0]["text"], "lang": "en"})
    # near duplicate of doc 1: one word changed
    rows.append(
        {"doc_id": 45, "text": rows[1]["text"].replace("five", "six"), "lang": "en"}
    )
    return rd.from_items(rows), rows


def test_dedup_exact_keeps_min_id(docs_ds):
    from gazetteer_search_ray.pipelines.dedup import dedup_exact

    ds, rows = docs_ds
    out = dedup_exact(ds).to_pandas()
    n_doc0_copies = sum(1 for r in rows if r["text"] == rows[0]["text"])
    dup_row = out[out["doc_id"] == 0]
    assert len(dup_row) == 1
    assert int(dup_row["dup_count"].iloc[0]) == n_doc0_copies  # min id kept
    assert out["dup_count"].sum() == len(rows)


def test_minhash_finds_exact_and_near_dups(docs_ds):
    from gazetteer_search_ray.pipelines.dedup import minhash_lsh_pairs

    ds, rows = docs_ds
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    got = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 40) in got  # exact dup pair surfaces
    assert (1, 45) in got or (45, 1) in got  # near dup pair surfaces
    exact = pairs[(pairs["doc_a"] == 0) & (pairs["doc_b"] == 40)]
    assert float(exact["est_jaccard"].iloc[0]) == 1.0


def test_minhash_deterministic(docs_ds):
    from gazetteer_search_ray.pipelines.dedup import minhash_lsh_pairs

    ds, _ = docs_ds
    p1 = minhash_lsh_pairs(ds, threshold=0.5)
    p2 = minhash_lsh_pairs(ds, threshold=0.5)
    pd.testing.assert_frame_equal(p1, p2)


def test_simhash_pairs(docs_ds):
    from gazetteer_search_ray.pipelines.dedup import simhash_pairs

    ds, _ = docs_ds
    pairs = simhash_pairs(ds, max_hamming=3)
    got = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 40) in got  # identical text → hamming 0
    ham0 = pairs[(pairs["doc_a"] == 0) & (pairs["doc_b"] == 40)]
    assert int(ham0["hamming"].iloc[0]) == 0


def test_ngram_jaccard_exact_values(docs_ds):
    from gazetteer_search_ray.pipelines.dedup import ngram_jaccard_pairs

    ds, _ = docs_ds
    pairs = ngram_jaccard_pairs(ds, n=3, threshold=0.99)
    got = {(int(a), int(b)): j for a, b, j in
           zip(pairs["doc_a"], pairs["doc_b"], pairs["jaccard"])}
    assert got[(0, 40)] == 1.0


def test_token_stats_and_quality(docs_ds):
    from gazetteer_search_ray.pipelines.textstats import quality_score, token_stats

    ds, rows = docs_ds
    ts = token_stats(ds).to_pandas().set_index("doc_id")
    r0 = rows[0]["text"]
    assert ts.loc[0, "token_count"] == len(r0.split())
    qs = quality_score(ds).to_pandas().set_index("doc_id")
    assert qs.loc[0, "n_chars"] == len(r0)
    assert 0 <= qs.loc[0, "quality"] <= 1


def test_lang_id_heuristic(ray_session):
    import ray.data as rd

    from gazetteer_search_ray.pipelines.textstats import lang_id

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "the cat and the dog of the house is in a tree"},
            {"doc_id": 1, "text": "der Hund und die Katze ist nicht ein Vogel"},
            {"doc_id": 2, "text": "le chat et le chien est pour la maison"},
        ]
    )
    out = lang_id(ds).to_pandas().set_index("doc_id")
    assert out.loc[0, "pred_lang"] == "en"
    assert out.loc[1, "pred_lang"] == "de"
    assert out.loc[2, "pred_lang"] == "fr"


def test_fingerprint_stable_and_content_sensitive(docs_ds):
    from gazetteer_search_ray.pipelines.textstats import fingerprint

    ds, rows = docs_ds
    fp = fingerprint(ds).to_pandas().set_index("doc_id")
    assert fp.loc[0, "fingerprint"] == fp.loc[40, "fingerprint"]  # same text
    assert fp.loc[0, "fingerprint"] != fp.loc[1, "fingerprint"]


def test_name_agg_index_cumcount(ray_session):
    import ray.data as rd

    from gazetteer_search_ray.pipelines.relational import name_agg_index

    ds = rd.from_items(
        [
            {"doc_id": 5, "k": "a"},
            {"doc_id": 3, "k": "a"},
            {"doc_id": 7, "k": "b"},
        ]
    )
    out = name_agg_index(ds, ["k"]).to_pandas().set_index("doc_id")
    # M15 semantics: index 0 goes to the smallest doc_id per key
    assert out.loc[3, "by_name_agg_index"] == 0
    assert out.loc[5, "by_name_agg_index"] == 1
    assert out.loc[7, "by_name_agg_index"] == 0


def test_hll_sketch_accuracy():
    from gazetteer_search_ray.functions.sketch import HyperLogLog, hash64

    n = 100_000
    vals = [f"value-{i}" for i in range(n)]
    hll = HyperLogLog(12)
    # fold in chunks and merge — exercises the combiner shape
    merged = HyperLogLog(12)
    for i in range(0, n, 10_000):
        part = HyperLogLog(12).add_hashed(hash64(vals[i : i + 10_000]))
        merged.merge(part)
        hll.add_hashed(hash64(vals[i : i + 10_000]))
    for est in (hll.estimate(), merged.estimate()):
        assert abs(est - n) / n < 0.05
    # merge equals single-pass exactly (registers are max-monoid)
    np.testing.assert_array_equal(hll.registers, merged.registers)
    # duplicates don't move the estimate
    hll2 = HyperLogLog(12).add_hashed(hash64(vals * 2))
    np.testing.assert_array_equal(hll2.registers, hll.registers)


def test_approx_distinct_operator(ray_session):
    import ray.data as rd

    from gazetteer_search_ray.pipelines.textstats import approx_distinct

    rows = [{"doc_id": i, "text": f"t{i % 300}", "lang": "en" if i % 2 else "de"}
            for i in range(2000)]
    ds = rd.from_items(rows)
    per_lang = approx_distinct(ds, "text", group_col="lang")
    assert set(per_lang["lang"]) == {"en", "de"}
    for _, row in per_lang.iterrows():
        assert abs(row["approx_distinct"] - 150) / 150 < 0.1
    total = approx_distinct(ds, "text")
    assert abs(int(total["approx_distinct"].iloc[0]) - 300) / 300 < 0.1


def test_sample_hash_deterministic(docs_ds):
    from gazetteer_search_ray.pipelines.relational import sample_hash

    ds, rows = docs_ds
    a = sample_hash(ds, 0.5).to_pandas().sort_values("doc_id")
    b = sample_hash(ds, 0.5).to_pandas().sort_values("doc_id")
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert 0 < len(a) < len(rows)
    # frac=1 keeps everything; frac=0 keeps nothing
    assert len(sample_hash(ds, 1.0).to_pandas()) == len(rows)
    assert len(sample_hash(ds, 0.0).to_pandas()) == 0


def test_grouped_topk_matches_pandas(docs_ds):
    from gazetteer_search_ray.pipelines.relational import grouped_topk

    ds, rows = docs_ds
    import pandas as pd

    df = pd.DataFrame(rows)
    df["n"] = df["text"].str.len()
    ds2 = ds.map_batches(
        lambda t: t.append_column(
            "n", pa.array([len(x) for x in t["text"].to_pylist()], pa.int64())
        ),
        batch_format="pyarrow",
    )
    got = grouped_topk(ds2, "lang", "n", 3)
    exp = (
        df.sort_values(["n", "doc_id"], ascending=[False, True])
        .groupby("lang").head(3)
        .sort_values(["lang", "n", "doc_id"], ascending=[True, False, True])
    )
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()


def test_substring_overlap_flag(ray_session):
    """M10 street_has_loc: two-way substring match over field tokens."""
    import ray.data as rd

    from gazetteer_search_ray.pipelines.relational import substring_overlap_flag

    rows = [
        {"i": 0, "street": "main spring street", "loc": "springfield"},
        {"i": 1, "street": "oak avenue", "loc": "portland"},
        {"i": 2, "street": "portlandia way", "loc": "portland"},  # loc ⊂ street tok
        {"i": 3, "street": "", "loc": "x"},
    ]
    out = substring_overlap_flag(
        rd.from_items(rows), "street", "loc"
    ).to_pandas().set_index("i")
    assert bool(out.loc[0, "street_has_loc"]) is True   # spring ⊂ springfield
    assert bool(out.loc[1, "street_has_loc"]) is False
    assert bool(out.loc[2, "street_has_loc"]) is True   # portland ⊂ portlandia
    assert bool(out.loc[3, "street_has_loc"]) is False


def test_expand_refs(ray_session):
    """M11 refs expansion: raw value kept, 3rd dash segment appended."""
    import ray.data as rd

    from gazetteer_search_ray.pipelines.relational import expand_refs

    rows = [
        {"i": 0, "refs": ["r-w-12345", "plain"]},
        {"i": 1, "refs": "r-n-777-extra"},
        {"i": 2, "refs": None},
    ]
    out = expand_refs(rd.from_items(rows), "refs").to_pandas().set_index("i")
    assert list(out.loc[0, "refs"]) == ["r-w-12345", "12345", "plain"]
    assert list(out.loc[1, "refs"]) == ["r-n-777-extra", "777"]
    assert list(out.loc[2, "refs"]) == []


def test_parse_first_number(ray_session):
    """M8: first integer run, -1 when absent (vectorized Arrow regex)."""
    import ray.data as rd

    from gazetteer_search_ray.pipelines.relational import parse_first_number

    rows = [
        {"i": 0, "hn": "12a"},
        {"i": 1, "hn": "bldg 7-9"},
        {"i": 2, "hn": "no number"},
        {"i": 3, "hn": "123к45"},
    ]
    out = parse_first_number(rd.from_items(rows), "hn").to_pandas() \
        .set_index("i").sort_index()  # block arrival order is not
    # deterministic under parallel execution — sort by the row key
    assert out["housenumber_number"].tolist() == [12, 7, -1, 123]


def test_name_agg_index_vectorized_many_groups(ray_session):
    """10^5 groups through the sorted-run cumcount path: correct vs a
    pandas groupby.cumcount reference and fast (no per-group callbacks
    — the old map_groups path costs ~10 ms/group ≙ ~17 min here)."""
    import time

    import pandas as pd
    import ray.data as rd

    from gazetteer_search_ray.pipelines.relational import name_agg_index

    n_groups, per = 100_000, 3
    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "doc_id": rng.permutation(n_groups * per),
            "k": np.repeat(np.arange(n_groups), per)[
                rng.permutation(n_groups * per)
            ],
        }
    )
    t0 = time.monotonic()
    out = name_agg_index(rd.from_pandas(df).repartition(8), ["k"]).to_pandas()
    dt = time.monotonic() - t0
    exp_df = df.sort_values(["k", "doc_id"], kind="mergesort")
    exp_df["e"] = exp_df.groupby("k", sort=False).cumcount()
    exp = exp_df.set_index("doc_id")["e"].sort_index()
    got = out.set_index("doc_id")["by_name_agg_index"].sort_index()
    assert (got.to_numpy() == exp.to_numpy()).all()
    assert dt < 120, f"vectorized cumcount too slow: {dt:.1f}s"


def test_minhash_vectorized_matches_scalar():
    """The Arrow-vectorized MinHasher batch path must reproduce the
    scalar per-row signature exactly (incl. empty/short/whitespace
    edge rows)."""
    import pyarrow as pa

    from gazetteer_search_ray.pipelines.dedup import MinHasher

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "", "one", "one two", "one two three", "a a a a a",
        "  leading and   multiple   spaces ", "tabs\tand\nnewlines mixed",
        "the quick brown fox jumps over the lazy dog",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    vec = np.array(MinHasher()(t)["sig"].to_pylist(), dtype=np.int64)
    ref_hasher = MinHasher()
    ref = np.array([ref_hasher._sig(x).astype(np.int64) for x in texts])
    np.testing.assert_array_equal(vec, ref)
    np.testing.assert_array_equal(vec[0], vec[8])  # identical texts


def test_simhash_vectorized_matches_scalar():
    import pyarrow as pa

    from gazetteer_search_ray.pipelines.dedup import SimHasher

    texts = ["the quick brown fox", "", "one", "a a a b",
             "tabs\tand\nnewlines here", "the quick brown fox"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    vec = np.array(SimHasher()(t)["simhash"].to_pylist(), dtype=np.int64)
    ref_hasher = SimHasher()
    ref = np.array(
        [np.uint64(ref_hasher._hash(x)).astype(np.int64) for x in texts]
    )
    np.testing.assert_array_equal(vec, ref)


def test_repetition_stats(ray_session):
    import ray.data as rd
    from collections import Counter

    from gazetteer_search_ray.pipelines.textstats import repetition_stats

    docs = [
        {"doc_id": 0, "text": "a b a b a b"},       # heavy 2-gram repeat
        {"doc_id": 1, "text": "w x y z q r"},       # all distinct
        {"doc_id": 2, "text": "solo"},              # < n tokens
        {"doc_id": 3, "text": ""},                  # no tokens -> no row
        {"doc_id": 4, "text": "k k k k k"},         # single repeated token
    ]
    out = (
        repetition_stats(rd.from_items(docs).repartition(2))
        .to_pandas()
        .set_index("doc_id")
    )
    assert 3 not in out.index

    def brute(text):
        toks = text.lower().split()
        def grams(n):
            if len(toks) < n:
                return [" ".join(toks)]
            return [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]
        g2, g3 = Counter(grams(2)), Counter(grams(3))
        t2, t3 = sum(g2.values()), sum(g3.values())
        return max(g2.values()) / t2, (t3 - len(g3)) / t3

    for d in docs:
        if not d["text"]:
            continue
        f2, f3 = brute(d["text"])
        assert out.loc[d["doc_id"], "top2_frac"] == pytest.approx(f2)
        assert out.loc[d["doc_id"], "dup3_frac"] == pytest.approx(f3)
    # the planted repeats actually rank above the distinct doc
    assert out.loc[0, "top2_frac"] > out.loc[1, "top2_frac"]
    assert out.loc[4, "dup3_frac"] > out.loc[1, "dup3_frac"]


def test_misra_gries_bound_and_exactness():
    from collections import Counter

    from gazetteer_search_ray.functions.sketch import mg_merge, mg_truncate

    rng = np.random.default_rng(5)
    stream = list(rng.choice([f"t{i}" for i in range(50)], size=2000,
                             p=np.linspace(1, 50, 50) / np.sum(np.linspace(1, 50, 50))))
    true = Counter(stream)

    # capacity >= distinct: exact
    it = np.asarray(sorted(true), dtype=object)
    ct = np.array([true[t] for t in it], dtype=np.int64)
    i2, c2 = mg_truncate(it, ct, capacity=100)
    assert dict(zip(i2, c2)) == dict(true)

    # merged batch summaries respect the N/(cap+1) undercount bound
    cap = 8
    parts = []
    for lo in range(0, 2000, 250):
        c = Counter(stream[lo:lo + 250])
        items = np.asarray(sorted(c), dtype=object)
        counts = np.array([c[t] for t in items], dtype=np.int64)
        parts.append(mg_truncate(items, counts, cap))
    mi, mc = mg_merge(parts, cap)
    got = dict(zip(mi, mc))
    for t, f in true.items():
        c = got.get(t, 0)
        assert c <= f
        assert f - c <= len(stream) / (cap + 1) * 2  # merge of 8 summaries
    # the heaviest item survives truncation
    heavy = max(true, key=true.get)
    assert heavy in got


def test_top_tokens_exact(ray_session):
    import re
    from collections import Counter

    import ray.data as rd

    from gazetteer_search_ray.pipelines.textstats import top_tokens

    rng = np.random.default_rng(6)
    vocab = [f"w{i}" for i in range(30)]
    docs = [{"text": " ".join(rng.choice(vocab, size=20))} for _ in range(100)]
    out = top_tokens(rd.from_items(docs).repartition(4), k=10)
    true = Counter()
    for d in docs:
        true.update(t for t in re.split("[^a-z0-9]+", d["text"].lower()) if t)
    want = sorted(true.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(out["term"], out["cnt"])) == want
    assert list(out["rank"]) == list(range(1, 11))


def test_top_tokens_by_group_exact(ray_session):
    """Per-group top-k vs brute force, including the tie rule
    (cnt desc, term asc) and groups with fewer than k distinct terms."""
    import re
    from collections import Counter

    import ray.data as rd

    from gazetteer_search_ray.pipelines.textstats import top_tokens_by_group

    rng = np.random.default_rng(13)
    vocabs = {"en": [f"e{i}" for i in range(25)],
              "de": [f"d{i}" for i in range(25)],
              "fr": ["solo", "duo"]}  # < k distinct terms
    docs = []
    for lang, vocab in vocabs.items():
        for _ in range(60):
            docs.append({"lang": lang,
                         "text": " ".join(rng.choice(vocab, size=15))})
    out = top_tokens_by_group(rd.from_items(docs).repartition(5),
                              k=8, group_col="lang")
    for lang in vocabs:
        true = Counter()
        for d in docs:
            if d["lang"] == lang:
                true.update(t for t in re.split("[^a-z0-9]+",
                                                d["text"].lower()) if t)
        want = sorted(true.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        sub = out[out["lang"] == lang]
        assert list(zip(sub["term"], sub["cnt"])) == want
        assert list(sub["rank"]) == list(range(1, len(want) + 1))


def test_top_tokens_by_group_mg_bound(ray_session):
    """Below-capacity Misra-Gries config: the per-group heavy hitter
    survives and every reported count is within N_g/(cap+1)·#partials
    of truth."""
    import re
    from collections import Counter

    import ray.data as rd

    from gazetteer_search_ray.pipelines.textstats import top_tokens_by_group

    rng = np.random.default_rng(29)
    docs = []
    for lang in ("en", "de"):
        # Zipf-ish: 'hot' dominates, 40-term tail
        for _ in range(80):
            toks = ["hot"] * 6 + list(rng.choice(
                [f"{lang}{i}" for i in range(40)], size=10))
            docs.append({"lang": lang, "text": " ".join(toks)})
    ds = rd.from_items(docs).repartition(4)
    out = top_tokens_by_group(ds, k=5, capacity=8, group_col="lang")
    for lang in ("en", "de"):
        true = Counter()
        for d in docs:
            if d["lang"] == lang:
                true.update(re.split("[^a-z0-9]+", d["text"].lower()))
        sub = out[out["lang"] == lang]
        assert list(sub["term"])[0] == "hot"  # heavy hitter survives
        n_g = sum(true.values())
        for term, cnt in zip(sub["term"], sub["cnt"]):
            assert 0 < cnt <= true[term]
            assert true[term] - cnt <= n_g / (8 + 1) * 4  # 4 partials


def test_sample_fixed_exact_n_nesting(ray_session):
    import ray.data as rd

    from gazetteer_search_ray.pipelines.relational import sample_fixed

    rows = [{"doc_id": int(i * 7 + 1), "lang": ["en", "de"][i % 2]}
            for i in range(500)]
    out = sample_fixed(rd.from_items(rows).repartition(6), 40)
    assert len(out) == 40
    # brute force: 40 smallest Knuth hashes, ties by id
    h = {r["doc_id"]: (r["doc_id"] * 2654435761) % 4294967296 for r in rows}
    want = sorted(sorted(h, key=lambda i: (h[i], i))[:40])
    assert list(out["doc_id"]) == want
    # partitioning-invariant
    out2 = sample_fixed(rd.from_items(rows).repartition(13), 40)
    assert list(out2["doc_id"]) == want
    # prefixes nest: the 15-sample is a subset of the 40-sample
    out3 = sample_fixed(rd.from_items(rows).repartition(6), 15)
    assert set(out3["doc_id"]) <= set(want)
    # n larger than the input returns everything
    out4 = sample_fixed(rd.from_items(rows[:5]), 40)
    assert len(out4) == 5


def test_vocab_stats_matches_brute(ray_session):
    import re
    from collections import Counter

    import ray.data as rd

    from gazetteer_search_ray.pipelines.textstats import vocab_stats

    rng = np.random.default_rng(41)
    vocab = [f"w{i}" for i in range(60)]
    docs = [{"text": " ".join(rng.choice(vocab, size=12)) + " unique%d" % i}
            for i in range(50)]  # 50 guaranteed hapaxes
    out = vocab_stats(rd.from_items(docs).repartition(4))
    true = Counter()
    for d in docs:
        true.update(t for t in re.split("[^a-z0-9]+", d["text"].lower()) if t)
    assert int(out["n_tokens"][0]) == sum(true.values())
    assert int(out["n_types"][0]) == len(true)
    assert int(out["n_hapax"][0]) == sum(1 for c in true.values() if c == 1)
    assert out["n_hapax"][0] >= 50
    assert out["type_token_ratio"][0] == round(
        len(true) / sum(true.values()), 6)


def test_stratified_sample_deterministic_cap(ray_session):
    import ray.data as rd

    from gazetteer_search_ray.pipelines.relational import stratified_sample

    rng = np.random.default_rng(9)
    rows = [{"doc_id": int(i), "lang": ["en", "de", "fr"][i % 3]}
            for i in range(300)]
    ds = rd.from_items(rows).repartition(4)
    out = stratified_sample(ds, "lang", cap=10)
    assert (out.groupby("lang").size() == 10).all()
    # deterministic: brute-force the same hash-rank rule
    h = {r["doc_id"]: (r["doc_id"] * 2654435761) % 4294967296 for r in rows}
    for lang in ("en", "de", "fr"):
        ids = sorted((i for i in h if rows[i]["lang"] == lang),
                     key=lambda i: (h[i], i))[:10]
        assert sorted(out[out.lang == lang]["doc_id"]) == sorted(ids)
    # stable across re-runs
    out2 = stratified_sample(rd.from_items(rows).repartition(7), "lang", 10)
    assert out.equals(out2)


def test_union_find_labels_chains_and_components():
    from gazetteer_search_ray.pipelines.dedup import union_find_labels

    # long chain (worst case for propagation), a triangle, a pair,
    # arbitrary insertion order
    chain = [(i + 1, i) for i in range(100, 120)]
    pairs = np.array(chain + [(7, 3), (3, 9), (9, 7), (500, 42)],
                     dtype=np.int64)
    rng = np.random.default_rng(12)
    pairs = pairs[rng.permutation(len(pairs))]
    nodes, labels = union_find_labels(pairs)
    lab = dict(zip(nodes, labels))
    assert all(lab[i] == 100 for i in range(100, 121))
    assert lab[3] == lab[7] == lab[9] == 3
    assert lab[42] == lab[500] == 42
    # empty input
    n2, l2 = union_find_labels(np.empty((0, 2), dtype=np.int64))
    assert n2.size == 0 and l2.size == 0


def test_drop_near_duplicates_keeps_representatives(ray_session):
    import ray.data as rd

    from gazetteer_search_ray.pipelines.dedup import (
        drop_near_duplicates,
        neardup_clusters,
    )

    base = "the quick brown fox jumps over the lazy dog again and again"
    rows = [{"doc_id": i, "text": " ".join(
        f"d{i}w{j}" for j in range(15))} for i in range(40)]
    # plant a 3-copy near-dup cluster
    for i, extra in [(50, ""), (51, " tail"), (52, " tail2")]:
        rows.append({"doc_id": i, "text": base + extra})
    ds = rd.from_items(rows).repartition(3)
    cl = neardup_clusters(ds, threshold=0.5)
    assert set(cl["doc_id"]) >= {50, 51, 52}
    assert (cl.set_index("doc_id").loc[[50, 51, 52], "cluster_id"] == 50).all()
    kept = drop_near_duplicates(ds, threshold=0.5).to_pandas()
    assert 50 in set(kept["doc_id"])
    assert not {51, 52} & set(kept["doc_id"])
    assert set(range(40)) <= set(kept["doc_id"])


def test_ngram_counts_matches_brute(ray_session):
    import itertools
    import re
    from collections import Counter

    import ray.data as rd

    from gazetteer_search_ray.pipelines.textstats import ngram_counts

    texts = [
        "the cat sat on the cat mat",
        "cat sat",
        "one",
        "",
        "Mixed-CASE tokens, with punctuation! the cat",
    ]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    ).repartition(3)

    for n in (1, 2, 3):
        brute = Counter()
        for t in texts:
            toks = [w for w in re.split(r"[^a-z0-9]+", t.lower()) if w]
            for i in range(len(toks) - n + 1):
                brute[" ".join(toks[i : i + n])] += 1
        got = ngram_counts(ds, n=n).to_pandas()
        assert dict(zip(got.ngram, got.cnt)) == dict(brute), n

    # min_count threshold
    got = ngram_counts(ds, n=2, min_count=2).to_pandas()
    assert set(got.ngram) == {"the cat", "cat sat"}


def test_dup_spans_matches_brute(ray_session):
    import re
    from collections import Counter

    import ray.data as rd

    from gazetteer_search_ray.pipelines.dedup import dup_spans

    texts = ["a b c d a b c d x", "b c d a b", "z z z", "a b c d q", ""]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    ).repartition(3)
    W, MIN = 3, 2
    cnt: Counter = Counter()
    spans = []
    for i, t in enumerate(texts):
        toks = [x for x in re.split(r"[^a-z0-9]+", t.lower()) if x]
        for p in range(len(toks) - W + 1):
            g = " ".join(toks[p : p + W])
            cnt[g] += 1
            spans.append((i, p, g))
    freq = {g for g, c in cnt.items() if c >= MIN}
    exp = sorted(s for s in spans if s[2] in freq)
    got = dup_spans(ds, w=W, min_count=MIN).to_pandas()
    assert sorted(
        (int(a), int(b), c)
        for a, b, c in got[["doc_id", "pos", "ngram"]].to_numpy()
    ) == exp
    # within-doc repetition counts toward min_count ("a b c"/"b c d"
    # twice in doc 0); "z z z" occurs once corpus-wide -> excluded
    assert "z z z" not in set(got.ngram)
    assert {(0, 0), (0, 4)} <= {
        (int(r.doc_id), int(r.pos))
        for r in got.itertuples() if r.ngram == "a b c"
    }


def test_lm_score_matches_brute(ray_session):
    import math
    import re
    from collections import Counter

    import ray.data as rd

    from gazetteer_search_ray.pipelines.textstats import lm_score

    texts = [
        "the cat sat on the mat the cat sat again",
        "the cat sat",
        "the dog ran",
        "zz unique tokens only here",
        "",
        "the cat",
    ]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    ).repartition(3)

    def toks(t):
        return [w for w in re.split(r"[^a-z0-9]+", t.lower()) if w]

    c1, c2 = Counter(), Counter()
    for t in texts:
        ws = toks(t)
        c1.update(ws)
        c2.update(" ".join(p) for p in zip(ws, ws[1:]))
    min_count = 2
    keep = {g: c for g, c in c2.items() if c >= min_count}

    want = {}
    for i, t in enumerate(texts):
        ws = toks(t)
        lps = [math.log(keep[g]) - math.log(c1[g.split(" ")[0]])
               for g in (" ".join(p) for p in zip(ws, ws[1:])) if g in keep]
        want[i] = (len(lps), sum(lps) / len(lps) if lps else None)

    got = lm_score(ds, min_count=min_count).to_pandas()
    assert len(got) == len(texts)
    for _, r in got.iterrows():
        n, lp = want[int(r.doc_id)]
        assert int(r.n_known) == n, r.doc_id
        if n == 0:
            assert pd.isna(r.lp)
        else:
            assert abs(r.lp - lp) < 1e-12, r.doc_id


def test_char_entropy_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from gazetteer_search_ray.pipelines.textstats import char_entropy

    texts = ["aab", "", "único x", "zzzzzzzz", "ab" * 500 + "c",
             "á🎉x🎉", "  \n\t mixed WS  "]
    df_in = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                          "text": texts})
    got = char_entropy(rd.from_pandas(df_in)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("documents", df_in)
    want = con.execute("""
WITH ch AS (
  SELECT doc_id, length(text)::BIGINT AS n_chars,
         unnest(string_split(text, '')) AS c
  FROM documents WHERE length(text) > 0),
f AS (SELECT doc_id, any_value(n_chars) AS n_chars, c,
             count(*)::DOUBLE AS n FROM ch GROUP BY doc_id, c)
SELECT doc_id, any_value(n_chars) AS n_chars,
       -sum((n / n_chars) * log2(n / n_chars)) AS entropy
FROM f GROUP BY doc_id ORDER BY doc_id""").fetchdf()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_chars"].tolist() == want["n_chars"].tolist()
    np.testing.assert_allclose(got["entropy"], want["entropy"],
                               atol=1e-9)
    # constant text has zero entropy; uniform text hits log2(len)
    z = got.set_index("doc_id")["entropy"]
    assert z[3] == 0.0
    assert abs(z[2] - np.log2(7)) < 1e-9
