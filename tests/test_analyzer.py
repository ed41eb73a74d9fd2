"""Analyzer goldens — pin the tokenizer before any indexing exists
(FIXTURES.md §4; reference rules: IndexAnalyzer.java:33-160)."""

import pytest

from gazetteer_search_ray.functions.analyzer import Analyzer, AnalyzerConfig

simple = Analyzer(AnalyzerConfig.simple())
code = Analyzer(AnalyzerConfig.code())


def test_simple_lowercase_split():
    assert simple.terms("Hello, World! 42x") == ["hello", "world", "42x"]


def test_simple_matches_sql_semantics():
    # identical to unnest(regexp_split_to_array(lower(t), '[^a-z0-9]+'))
    assert simple.terms("a--b__C  9") == ["a", "b", "c", "9"]
    assert simple.terms("") == []
    assert simple.terms("!!!") == []


def test_simple_dedup_keeps_first():
    assert simple.terms("x y x z y") == ["x", "y", "z"]


def test_simple_term_freqs_not_deduped():
    assert simple.term_freqs("x y x z y x") == {"x": 3, "y": 2, "z": 1}


def test_fold_diacritics():
    # reference: IndexAnalyzer.java:33-36 ("Bebić" → "Bebic")
    assert Analyzer.fold("Bebić") == "Bebic"
    assert code.terms("Bebić café") == ["bebic", "cafe"]
    # simple (SQL-matching) mode does NOT fold: 'é' splits like SQL's
    # regexp_split_to_array(lower(t), '[^a-z0-9]+')
    assert simple.terms("café") == ["caf"]


def test_char_replaces():
    # reference: config/QueryAnalizer.json:4-9 (ё→е, ß→ss)
    assert code.terms("straße") == ["strasse"]
    assert code.terms("ёлка") == [Analyzer.fold("елка")]


def test_code_camel_case_expansion():
    toks = code.terms("getUserName")
    assert toks[0] == "getusername"
    assert "get" in toks and "user" in toks and "name" in toks


def test_code_snake_case_subtokens():
    # '_' is a separator, so parts come out as their own tokens
    assert code.terms("parse_addr_row")[:3] == ["parse", "addr", "row"]


def test_code_digit_boundary():
    toks = code.terms("utf8Decoder")
    assert "utf" in toks and "8" in toks and "decoder" in toks


def test_code_short_token_optional():
    # <3 chars without digits → optional (IndexAnalyzer.java:19,127-132)
    toks = dict(code.tokens("ab abc a7"))
    assert toks["ab"] is True
    assert toks["abc"] is False
    assert toks["a7"] is False  # digit ⇒ required


def test_code_bracket_optional():
    # bracketed spans optional (IndexAnalyzer.java:105-110)
    toks = dict(code.tokens("mainfn (deprecated)"))
    assert toks["mainfn"] is False
    assert toks["deprecated"] is True


def test_code_optional_lexicon():
    toks = dict(code.tokens("the function"))
    assert toks["the"] is True
    assert toks["function"] is False


def test_dedup_required_wins_over_optional():
    toks = dict(code.tokens("(cache) cache"))
    assert toks["cache"] is False


def test_stop_terms_removed():
    a = Analyzer(AnalyzerConfig(stop_terms=frozenset({"import"})))
    assert a.terms("import os import sys") == ["os", "sys"]


def test_synonym_chain():
    # reference: multi-hop synonym chains a=b=c (QueryAnalyzerImpl.java:264-280)
    a = Analyzer(AnalyzerConfig(synonyms=(("str", "string"), ("string", "text"))))
    assert a.terms("str") == ["text"]


def test_index_query_symmetry():
    # identical analyzer output both sides (the property the reference
    # gets by sharing IndexAnalyzer between import and query paths)
    s = "HandleHttpRequest (fast_path) straße"
    assert code.terms(s) == code.terms(s)


def test_vectorized_tokenizer_matches_analyzer():
    """TokenizeStage's distinct-token vectorized path must emit exactly
    the token stream of Analyzer.tokens (non-deduped) per row: its term
    dictionary taken at each occurrence's code, grouped by parent row."""
    import pyarrow as pa

    from gazetteer_search_ray.functions.analyzer import Analyzer, AnalyzerConfig
    from gazetteer_search_ray.sources.corpus import synthetic_corpus
    from gazetteer_search_ray.stages.tokenize import TokenizeStage

    cfg = AnalyzerConfig.code()
    stage = TokenizeStage(cfg)
    assert stage._vectorizable and not stage._fast
    t = synthetic_corpus(80)
    terms, codes, parent = stage._tokenize_vectorized(t["content"])
    got = {}
    for tok, row in zip(terms.take(pa.array(codes)).to_pylist(),
                        parent.tolist()):
        got.setdefault(row, []).append(tok)
    an = Analyzer(AnalyzerConfig(**{**cfg.__dict__, "dedup": False}))
    for i, text in enumerate(t["content"].to_pylist()):
        exp = [tok for tok, _ in an.tokens(text)]
        assert got.get(i, []) == exp, f"row {i}"


def test_load_analyzer_config_from_data_files():
    from gazetteer_search_ray.functions.analyzer import load_analyzer_config

    cfg = load_analyzer_config("code")
    assert cfg == AnalyzerConfig.code()
    assert load_analyzer_config("simple") == AnalyzerConfig.simple()
    # round trip through an explicit file path
    import json as _json
    import tempfile

    from gazetteer_search_ray.pipelines.build_index import _analyzer_dict

    custom = AnalyzerConfig(synonyms=(("a", "b"),), stop_terms=frozenset({"x"}))
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        _json.dump(_analyzer_dict(custom), f)
    assert load_analyzer_config(f.name) == custom


def test_pack_cap_split_preserves_postings():
    """Partial rows split at pack_cap must merge back to EXACTLY the
    postings of an uncapped run: same (term -> {doc: tf}) map, and the
    same encoded posting rows, ``block_min_dl`` from the doc store
    included.  The cap only bounds bytes/row for the sort exchange's
    row-balanced range partitioner (stages/tokenize.py pack step); the
    downstream encoder merges same-skey rows, so semantics must be
    unchanged."""
    import tempfile

    import numpy as np

    from gazetteer_search_ray.sources.corpus import (
        _assign_doc_ids,
        synthetic_corpus,
    )
    from gazetteer_search_ray.stages.postings import (
        encode_partials_table,
        segment_doc_lengths,
    )
    from gazetteer_search_ray.stages.tokenize import (
        TokenizeStage,
        flat_from_binary_col,
        varbyte_flat_from_binary_col,
    )

    t = _assign_doc_ids(synthetic_corpus(400))
    cfg = AnalyzerConfig.code()

    def postings_map(pack_cap: int) -> tuple[dict, list]:
        with tempfile.TemporaryDirectory() as meta:
            stage = TokenizeStage(cfg, docmeta_dir=meta, pack_cap=pack_cap)
            part = stage(t)
            encoded = encode_partials_table(
                part, doc_lengths=segment_doc_lengths(meta)).to_pylist()
        docs, rl = flat_from_binary_col(part["docs"], np.dtype("<i8"))
        tfs, _ = varbyte_flat_from_binary_col(part["tfs"])
        off = np.concatenate(([0], np.cumsum(rl)))
        out: dict = {}
        for i, skey in enumerate(part["skey"].to_pylist()):
            seg = slice(int(off[i]), int(off[i + 1]))
            grp = out.setdefault(skey, {})
            for d, f in zip(docs[seg], tfs[seg]):
                assert int(d) not in grp, "duplicate doc within a term"
                grp[int(d)] = int(f)
        return out, encoded

    capped = postings_map(3)
    uncapped = postings_map(0)
    assert capped == uncapped
    assert any(len(row["block_min_dl"]) > 1 for row in capped[1])
    # and the cap actually engaged: some hot term was split
    with tempfile.TemporaryDirectory() as meta:
        part = TokenizeStage(cfg, docmeta_dir=meta, pack_cap=3)(t)
    keys = part["skey"].to_pylist()
    assert len(keys) > len(set(keys))


@pytest.mark.parametrize("preset", ["simple", "code"])
@pytest.mark.parametrize("num_doc_shards", [1, 3])
def test_tokenize_partials_match_analyzer_oracle(preset, num_doc_shards):
    """``TokenizeStage`` partials equal a dict built from
    ``Analyzer.tokens`` (dedup off): (term, shard) -> {doc: tf}, for the
    content field and one ``<field>\\x1e``-prefixed extra field, with a
    score builder that drops every third doc and ``pack_cap=3``; the
    doc store holds each kept doc's stream lengths (``dl``,
    ``dl__src``).  Every partial row lists its docs ascending."""
    import tempfile
    from collections import Counter

    import numpy as np
    import pyarrow.dataset as pads

    from gazetteer_search_ray.sources.corpus import (
        _assign_doc_ids,
        synthetic_corpus,
    )
    from gazetteer_search_ray.stages.tokenize import (
        FIELD_SEP,
        SHARD_SEP,
        TokenizeStage,
        flat_from_binary_col,
        varbyte_flat_from_binary_col,
    )

    t = _assign_doc_ids(synthetic_corpus(300))
    cfg = getattr(AnalyzerConfig, preset)()
    nodedup = Analyzer(AnalyzerConfig(**{**cfg.__dict__, "dedup": False}))

    def drop_every_third(batch):
        return np.where(np.arange(batch.num_rows) % 3 == 0, 0.0, 2.0)

    expected: dict = {}
    expected_dl: dict = {}
    for i, row in enumerate(t.to_pylist()):
        if i % 3 == 0:
            continue
        d = row["doc_id"]
        for prefix, text in (("", row["content"]),
                             ("src" + FIELD_SEP, row["repo"])):
            toks = [tok for tok, _opt in nodedup.tokens(text or "")]
            expected_dl.setdefault(d, []).append(len(toks))
            for term, tf in Counter(toks).items():
                key = (prefix + term, d % num_doc_shards)
                expected.setdefault(key, {})[d] = tf

    with tempfile.TemporaryDirectory() as meta:
        part = TokenizeStage(cfg, docmeta_dir=meta,
                             num_doc_shards=num_doc_shards,
                             score_builder=drop_every_third,
                             extra_fields=(("src", "repo"),),
                             pack_cap=3)(t)
        dm = pads.dataset(meta, format="parquet").to_table()
    assert {d: [c, f] for d, c, f in zip(
        dm["doc_id"].to_pylist(), dm["dl"].to_pylist(),
        dm["dl__src"].to_pylist())} == expected_dl
    docs, rl = flat_from_binary_col(part["docs"], np.dtype("<i8"))
    tfs, _ = varbyte_flat_from_binary_col(part["tfs"])
    off = np.concatenate(([0], np.cumsum(rl)))
    got: dict = {}
    for i, skey in enumerate(part["skey"].to_pylist()):
        seg = slice(int(off[i]), int(off[i + 1]))
        assert np.all(np.diff(docs[seg]) > 0), "docs not ascending in a row"
        if num_doc_shards > 1:
            term, shard = skey.split(SHARD_SEP)
            key = (term, int(shard))
        else:
            key = (skey, 0)
        grp = got.setdefault(key, {})
        for d, f in zip(docs[seg].tolist(), tfs[seg].tolist()):
            assert d not in grp, "duplicate doc within a term"
            grp[d] = f
    assert got == expected
    assert any(k[0].startswith("src" + FIELD_SEP) for k in got)


def test_pack_partials_keys_and_cap_split():
    """pack_partials writes the one ``skey`` format — the term alone for
    one shard, else ``f"{term}\\x1f{shard:04d}"`` (five or more digits
    from shard 10,000 on) — which _terms_shards_from_skeys inverts; cap
    0 never splits a run, cap 3 splits it into ≤3-posting rows that
    concatenate back to the input."""
    import numpy as np
    import pyarrow as pa

    from gazetteer_search_ray.stages.postings import _terms_shards_from_skeys
    from gazetteer_search_ray.stages.tokenize import (
        PARTIAL_SCHEMA,
        flat_from_binary_col,
        pack_partials,
        varbyte_flat_from_binary_col,
    )

    terms = ["alpha", "alpha", "beta", "gamma", "zeta"]
    shards = np.array([0, 7, 12, 10_000, 123_456], np.int32)
    lens = np.array([1, 5, 3, 7, 2])
    offsets = np.concatenate(([0], np.cumsum(lens)))
    n = int(offsets[-1])
    docs = np.arange(n, dtype=np.int64) * 1_000_003 + 2**62
    tfs = np.arange(n) % 4 + 1

    one = pack_partials(pa.array(terms), np.zeros(5, np.int32), docs, tfs,
                        offsets, 1, cap=0)
    assert one["skey"].to_pylist() == terms
    for cap, rows_per_run in ((0, [1, 1, 1, 1, 1]), (3, [1, 2, 1, 3, 1])):
        t = pack_partials(pa.array(terms), shards, docs, tfs, offsets, 4,
                          cap=cap)
        assert t.schema == PARTIAL_SCHEMA
        run = np.repeat(np.arange(5), rows_per_run)
        assert t["skey"].to_pylist() == [
            f"{terms[r]}\x1f{shards[r]:04d}" for r in run]
        got_terms, got_shards = _terms_shards_from_skeys(t["skey"])
        assert got_terms.to_pylist() == [terms[r] for r in run]
        assert got_shards.to_pylist() == shards[run].tolist()
        got_docs, row_lens = flat_from_binary_col(t["docs"], np.dtype("<i8"))
        assert row_lens.max() <= (cap or n)
        np.testing.assert_array_equal(np.bincount(run, weights=row_lens), lens)
        np.testing.assert_array_equal(got_docs, docs)
        vals, counts = varbyte_flat_from_binary_col(t["tfs"])
        np.testing.assert_array_equal(vals, tfs)
        np.testing.assert_array_equal(counts, row_lens)
