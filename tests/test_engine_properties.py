"""Hypothesis property tests for the engine's build kernels, Ray-free.

Tokenizer: for random texts over ASCII letters and digits, separators,
precomposed and special-cased letters (é ß ё Σ İ), Cyrillic and a
combining mark, ``TokenizeStage`` must emit, row by row, exactly the
term stream of ``Analyzer.tokens`` (dedup off) under the simple, code
and gazetteer presets; its partial postings must carry the tfs of that
stream, and its doc store the stream lengths, for the content and one
extra field.

Block slices: with ``BATCH_BYTES`` patched small, one ``TokenizeStage``
call over a table must cut it into consecutive slices of at most the
cap (a row larger than the cap alone), null and empty rows counting 0
bytes; it must return the per-slice calls' rows concatenated, and the
same postings and doc store as one unsliced call.

Codec v3: for random sorted unique doc ordinals whose gaps cross the 1-,
2- and 4-byte widths, random tfs and random block sizes,
``encode_posting_groups`` → ``decode_blocks`` must round-trip, for all
blocks and for a random subset of them, and every ``block_*`` column
must equal a recomputation from the decoded postings.

Packing: random (term, doc, tf) triples, some of field-scoped terms,
packed in random batches at a random pack cap by ``pack_partials``,
shuffled and encoded by ``encode_partials_table`` against a doc-length
table, must decode to a dict reference, with ``block_min_dl`` taken
from the table's ``dl`` or ``dl__<field>``.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazetteer_search_ray.functions.analyzer import Analyzer, AnalyzerConfig
from gazetteer_search_ray.functions.codec import (
    decode_blocks,
    encode_posting_groups,
)
from gazetteer_search_ray.stages import tokenize
from gazetteer_search_ray.stages.postings import encode_partials_table
from gazetteer_search_ray.stages.tokenize import (
    FIELD_SEP,
    TokenizeStage,
    flat_from_binary_col,
    pack_partials,
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
    """(term, doc) -> tf of the packed partials equals a count over the
    analyzer's streams of the content and of one extra field, and the
    doc store's ``dl``/``dl__src`` their lengths; a shard suffix rides
    on the term when ``shards > 1``."""
    n = len(rows)
    extra = (extra * n)[:n]
    doc_ids = np.arange(n, dtype=np.int64) * 7 + 3
    batch = pa.table({"doc_id": doc_ids,
                      "content": pa.array(rows, pa.string()),
                      "repo": pa.array(extra, pa.string())})
    an = ANALYZERS[preset]
    want: dict = {}
    want_dl: dict = {}
    for d, text, field in zip(doc_ids.tolist(), rows, extra):
        for prefix, s in (("", text), ("src" + FIELD_SEP, field)):
            toks = _stream(an, s)
            want_dl.setdefault(d, []).append(len(toks))
            for term, tf in Counter(toks).items():
                want[(prefix + term, d)] = tf
    with tempfile.TemporaryDirectory() as meta:
        part = TokenizeStage(getattr(AnalyzerConfig, preset)(),
                             docmeta_dir=meta, num_doc_shards=shards,
                             extra_fields=(("src", "repo"),))(batch)
        dm = pads.dataset(meta, format="parquet").to_table()
    assert {d: [c, f] for d, c, f in zip(
        dm["doc_id"].to_pylist(), dm["dl"].to_pylist(),
        dm["dl__src"].to_pylist())} == want_dl
    docs, per_row = flat_from_binary_col(part["docs"], np.dtype("<i8"))
    tfs, _ = varbyte_flat_from_binary_col(part["tfs"])
    skeys = np.repeat(np.array(part["skey"].to_pylist(), dtype=object),
                      per_row)
    got = {}
    for skey, d, tf in zip(skeys, docs.tolist(), tfs.tolist()):
        term = skey.rsplit("\x1f", 1)[0] if shards > 1 else skey
        assert (term, d) not in got, "duplicate posting"
        got[(term, d)] = tf
    assert got == want


def _byte_cuts(rows: list, cap: int) -> list[int]:
    """Greedy consecutive slices of at most ``cap`` UTF-8 bytes; a row
    larger than ``cap`` alone."""
    cuts, size = [0], 0
    for i, text in enumerate(rows):
        b = len((text or "").encode())
        if i > cuts[-1] and size + b > cap:
            cuts.append(i)
            size = 0
        size += b
    return cuts + [len(rows)]


def _call(stage_args: dict, batch: pa.Table, cap: int):
    """One ``TokenizeStage`` call at ``BATCH_BYTES = cap``: its partials,
    its doc store sorted by doc_id, and the slices it tokenized."""
    seen = []
    with tempfile.TemporaryDirectory() as meta:
        stage = TokenizeStage(**stage_args, docmeta_dir=meta)
        inner = stage._slice

        def record(t):
            seen.append(t)
            return inner(t)

        stage._slice = record
        with mock.patch.object(tokenize, "BATCH_BYTES", cap):
            part = stage(batch)
        dm = pads.dataset(meta, format="parquet").to_table()
    return part, dm.sort_by("doc_id"), seen


@pytest.mark.parametrize("preset", ("simple", "code"))
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.one_of(texts, st.just(""),
                               st.text(st.sampled_from(ALPHABET),
                                       min_size=20, max_size=60)),
                     min_size=1, max_size=12),
       cap=st.integers(1, 48), shards=st.integers(1, 2))
def test_block_slices_match_per_slice_calls(preset, rows, cap, shards):
    n = len(rows)
    doc_ids = np.arange(n, dtype=np.int64) * 7 + 3
    batch = pa.table({"doc_id": doc_ids, "content": pa.array(rows, pa.string())})
    args = {"analyzer_config": getattr(AnalyzerConfig, preset)(),
            "num_doc_shards": shards}
    part, dm, seen = _call(args, batch, cap)

    assert [d for t in seen for d in t["doc_id"].to_pylist()] == doc_ids.tolist()
    for t in seen:
        size = sum(len((x or "").encode()) for x in t["content"].to_pylist())
        assert size <= cap or t.num_rows == 1, "slice over the cap"
    cuts = _byte_cuts(rows, cap)
    assert [t.num_rows for t in seen] == np.diff(cuts).tolist()
    per_slice = pa.concat_tables(
        [_call(args, batch.slice(a, b - a), 1 << 30)[0]
         for a, b in zip(cuts, cuts[1:])])
    assert part.equals(per_slice)

    whole, whole_dm, whole_seen = _call(args, batch, 1 << 30)
    assert len(whole_seen) == 1
    assert dm.equals(whole_dm)
    assert encode_partials_table(part, 4).equals(
        encode_partials_table(whole, 4))


# ordinal gaps on both sides of each byte width of a stored gap (gap - 1)
_gap = st.one_of(
    st.integers(1, 3),
    st.sampled_from([255, 256, 257, 65535, 65536, 65537, 65538]),
    st.integers(1, 1 << 20),
)
block_sizes = st.one_of(st.integers(1, 5), st.sampled_from([7, 128]),
                        st.integers(1, 300))


def _width(gap: int) -> int:
    return 1 if gap < 1 << 8 else 2 if gap < 1 << 16 else 4


def _varbyte_len(v: int) -> int:
    return max(1, -(-v.bit_length() // 7))


@st.composite
def posting_groups(draw):
    """(per-group sorted ordinals, tfs, dls) and a block size."""
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        gaps = draw(st.lists(_gap, min_size=1, max_size=300))
        ords = np.cumsum(np.array(gaps, np.int64)) - 1
        n = ords.size
        tfs = draw(st.lists(st.integers(1, 1 << 20), min_size=n, max_size=n))
        dls = draw(st.lists(st.integers(0, 1 << 32), min_size=n, max_size=n))
        groups.append((ords, np.array(tfs, np.int64), np.array(dls, np.int64)))
    return groups, draw(block_sizes)


@settings(max_examples=150, deadline=None)
@given(case=posting_groups(), data=st.data())
def test_codec_groups_roundtrip_and_block_metadata(case, data):
    groups, bs = case
    # entries need not be sorted within a group: encode them shuffled
    perms = [np.array(data.draw(st.permutations(range(g[0].size))), np.int64)
             for g in groups]
    enc = encode_posting_groups(
        np.concatenate([g[0][p] for g, p in zip(groups, perms)]),
        np.concatenate([g[1][p] for g, p in zip(groups, perms)]),
        np.concatenate([g[2][p] for g, p in zip(groups, perms)]),
        np.concatenate(([0], np.cumsum([g[0].size for g in groups]))),
        bs,
    )
    rows = pa.table(enc).to_pylist()
    assert len(rows) == len(groups)
    for (ords, tfs, dls), row in zip(groups, rows):
        n = ords.size
        nb = -(-n // bs)
        assert row["df"] == n
        docs, got_tfs = decode_blocks(row, np.arange(nb), bs)
        assert docs.tolist() == ords.tolist()
        assert got_tfs.tolist() == tfs.tolist()

        cuts = list(range(0, n, bs)) + [n]
        blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        gaps = np.diff(ords, prepend=-1) - 1
        widths = [_width(int(gaps[b].max())) for b in blocks]
        assert row["block_last_doc"] == [int(ords[b][-1]) for b in blocks]
        assert row["block_max_tf"] == [int(tfs[b].max()) for b in blocks]
        assert row["block_min_dl"] == [min(int(dls[b].min()), 2**31 - 1)
                                       for b in blocks]
        sizes = [w * (b.stop - b.start) for w, b in zip(widths, blocks)]
        assert row["block_docs_off"] == np.cumsum([0] + sizes[:-1]).tolist()
        assert len(row["docs"]) == sum(sizes)
        tf_sizes = [sum(_varbyte_len(int(v)) for v in tfs[b]) for b in blocks]
        assert row["block_tfs_off"] == np.cumsum([0] + tf_sizes[:-1]).tolist()

        # any subset of blocks decodes on its own
        sel = sorted(data.draw(st.sets(st.integers(0, nb - 1), max_size=nb)))
        docs, got_tfs = decode_blocks(row, np.array(sel, np.int64), bs)
        assert docs.tolist() == [int(d) for i in sel for d in ords[blocks[i]]]
        assert got_tfs.tolist() == [int(t) for i in sel for t in tfs[blocks[i]]]


# a term of the extra field "src" (``src\x1e<term>``) takes dl__src
_term = st.text(st.sampled_from("abcxé"), min_size=1, max_size=3)
_lengths = st.tuples(st.integers(0, 1000), st.integers(0, 1000))


@st.composite
def packed_batches(draw):
    """Docs with random (term, tf) postings and (dl, dl__src) lengths,
    cut into batches."""
    ndocs = draw(st.integers(1, 40))
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=ndocs,
                        max_size=ndocs, unique=True))
    vocab = draw(st.lists(
        st.one_of(_term, _term.map(("src" + FIELD_SEP).__add__)),
        min_size=1, max_size=8, unique=True))
    docs = []
    for d in ids:
        terms = draw(st.dictionaries(st.sampled_from(vocab),
                                     st.integers(1, 300), max_size=5))
        docs.append((d, terms, draw(_lengths)))
    cuts = sorted(draw(st.sets(st.integers(1, ndocs - 1), max_size=4))
                  ) if ndocs > 1 else []
    return [docs[a:b] for a, b in zip([0] + cuts, cuts + [ndocs])]


def _pack(batch, shards: int, cap: int) -> pa.Table:
    """One tokenize batch's partials: a run per (term, shard), docs
    ascending, as ``TokenizeStage`` packs them."""
    runs: dict = {}
    for d, terms, _lens in sorted(batch):
        for term, tf in terms.items():
            runs.setdefault((term, d % shards), []).append((d, tf))
    keys = sorted(runs)
    flat = [p for k in keys for p in runs[k]]
    return pack_partials(
        pa.array([k[0] for k in keys], pa.string()),
        np.array([k[1] for k in keys], np.int32),
        np.array([p[0] for p in flat], np.int64),
        np.array([p[1] for p in flat], np.int64),
        np.concatenate(([0], np.cumsum([len(runs[k]) for k in keys]))),
        shards, cap)


@settings(max_examples=150, deadline=None)
@given(batches=packed_batches(), shards=st.integers(1, 2),
       cap=st.one_of(st.integers(0, 4), st.just(128)), bs=block_sizes,
       extra=st.dictionaries(st.integers(0, 2**63 - 1), _lengths,
                             max_size=5),
       data=st.data())
def test_pack_then_encode_matches_dict(batches, shards, cap, bs, extra,
                                       data):
    want: dict = {}
    lengths = dict(extra)  # the doc store may hold docs without postings
    for batch in batches:
        for d, terms, lens in batch:
            lengths[d] = lens
            for term, tf in terms.items():
                want.setdefault((term, d % shards), {})[d] = tf
    parts = pa.concat_tables([_pack(b, shards, cap) for b in batches])
    if cap:
        _, per_row = flat_from_binary_col(parts["docs"], np.dtype("<i8"))
        assert per_row.max(initial=0) <= cap
    order = data.draw(st.permutations(range(parts.num_rows)))
    parts = parts.take(pa.array(order, pa.int64()))
    ids = np.array(sorted(lengths), np.int64)
    table = pa.table({"doc_id": ids,
                      "dl": [lengths[d][0] for d in ids.tolist()],
                      "dl__src": [lengths[d][1] for d in ids.tolist()]})
    out = encode_partials_table(parts, bs, doc_lengths=table)

    got: dict = {}
    for row in out.to_pylist():
        key = (row["term"], row["shard"])
        assert key not in got, "posting list split across rows"
        nb = len(row["block_last_doc"])
        ords, tfs = decode_blocks(row, np.arange(nb), bs)
        assert row["df"] == ords.size
        got[key] = {int(ids[o]): int(t) for o, t in zip(ords, tfs)}
        field = int(row["term"].startswith("src" + FIELD_SEP))
        dls = [lengths[d][field] for d in sorted(want[key])]  # ordinal order
        assert row["block_min_dl"] == [min(dls[i:i + bs])
                                       for i in range(0, len(dls), bs)]
    assert got == want
