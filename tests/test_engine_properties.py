"""Hypothesis property tests for the engine's build kernels, Ray-free.

Tokenizer: for random texts over ASCII letters and digits, separators,
precomposed and special-cased letters (é ß ё Σ İ), Cyrillic and a
combining mark, ``TokenizeStage`` must emit, row by row, exactly the
term stream of ``Analyzer.tokens`` (dedup off) under the simple, code
and gazetteer presets, and its partial postings must carry the tf and
field lengths of that stream, for the content and one extra field.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazetteer_search_ray.functions.analyzer import Analyzer, AnalyzerConfig
from gazetteer_search_ray.stages.tokenize import (
    FIELD_SEP,
    TokenizeStage,
    flat_from_binary_col,
    varbyte_flat_from_binary_col,
)

ALPHABET = "aAbBcCxXyYzZ0129 _-.()[]éßёΣİжЖдДя\u0301"
PRESETS = ("simple", "code", "gazetteer")

# runs of one character class, so camelCase, ACRONYMRuns and digit
# boundaries come up often
_word = st.one_of(
    st.text(st.sampled_from("ABCXYZ"), min_size=1, max_size=4),
    st.text(st.sampled_from("abcxyz"), min_size=1, max_size=4),
    st.text(st.sampled_from("0129"), min_size=1, max_size=3),
    st.text(st.sampled_from(ALPHABET), min_size=1, max_size=6),
)
texts = st.one_of(
    st.none(),
    st.lists(_word, max_size=10).map("".join),
    st.text(st.sampled_from(ALPHABET), max_size=30),
)
batches = st.lists(texts, min_size=1, max_size=6)


def _nodedup(preset: str) -> Analyzer:
    cfg = getattr(AnalyzerConfig, preset)()
    return Analyzer(AnalyzerConfig(**{**cfg.__dict__, "dedup": False}))


ANALYZERS = {p: _nodedup(p) for p in PRESETS}


def _stream(an: Analyzer, text: str | None) -> list[str]:
    return [tok for tok, _opt in an.tokens(text or "")]


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=200, deadline=None)
@given(rows=batches)
def test_tokenize_stream_matches_analyzer(preset, rows):
    stage = TokenizeStage(getattr(AnalyzerConfig, preset)())
    terms, codes, parent = stage._tokenize(pa.array(rows, pa.string()))
    assert len(set(terms.to_pylist())) == len(terms), "dictionary not distinct"
    got: dict[int, list[str]] = {}
    for tok, row in zip(terms.take(pa.array(codes)).to_pylist(),
                        parent.tolist()):
        got.setdefault(row, []).append(tok)
    for i, text in enumerate(rows):
        assert got.get(i, []) == _stream(ANALYZERS[preset], text), f"row {i}"


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=80, deadline=None)
@given(rows=batches, extra=batches, shards=st.integers(1, 2))
def test_tokenize_partials_match_analyzer(preset, rows, extra, shards):
    """(term, doc) -> (tf, field length) of the packed partials equals a
    count over the analyzer's streams of the content and of one extra
    field; a shard suffix rides on the term when ``shards > 1``."""
    n = len(rows)
    extra = (extra * n)[:n]
    doc_ids = np.arange(n, dtype=np.int64) * 7 + 3
    batch = pa.table({"doc_id": doc_ids,
                      "content": pa.array(rows, pa.string()),
                      "repo": pa.array(extra, pa.string())})
    an = ANALYZERS[preset]
    want: dict = {}
    for d, text, field in zip(doc_ids.tolist(), rows, extra):
        for prefix, s in (("", text), ("src" + FIELD_SEP, field)):
            toks = _stream(an, s)
            for term, tf in Counter(toks).items():
                want[(prefix + term, d)] = (tf, len(toks))
    part = TokenizeStage(getattr(AnalyzerConfig, preset)(),
                         num_doc_shards=shards,
                         extra_fields=(("src", "repo"),))(batch)
    docs, per_row = flat_from_binary_col(part["docs"], np.dtype("<i8"))
    tfs, _ = varbyte_flat_from_binary_col(part["tfs"])
    dls, _ = varbyte_flat_from_binary_col(part["dls"])
    skeys = np.repeat(np.array(part["skey"].to_pylist(), dtype=object),
                      per_row)
    got = {}
    for skey, d, tf, dl in zip(skeys, docs.tolist(), tfs.tolist(),
                               dls.tolist()):
        term = skey.rsplit("\x1f", 1)[0] if shards > 1 else skey
        assert (term, d) not in got, "duplicate posting"
        got[(term, d)] = (tf, dl)
    assert got == want
