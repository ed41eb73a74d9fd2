"""Postings codec fixtures (FIXTURES.md §5): roundtrip + block-max
invariants on empty / singleton / dense / random-gap / large lists."""

import numpy as np
import pytest

from gazetteer_search_ray.functions.codec import (
    BLOCK_SIZE,
    decode_posting,
    delta_decode,
    delta_encode,
    encode_posting,
    varbyte_decode,
    varbyte_encode,
)

rng = np.random.default_rng(42)

CASES = [
    np.array([], dtype=np.int64),
    np.array([0], dtype=np.int64),
    np.array([2**62], dtype=np.int64),
    np.arange(1000, dtype=np.int64),  # dense run
    np.cumsum(rng.integers(1, 10_000, size=5000)).astype(np.int64),  # random gaps
    np.cumsum(rng.integers(1, 3, size=10 * BLOCK_SIZE + 7)).astype(np.int64),
]


# every value below 128 (one byte each: the decoder's one-copy path),
# and a mix that crosses 128
VARBYTE_CASES = CASES + [
    np.array([0, 127, 5, 0, 127], dtype=np.int64),
    np.arange(128, dtype=np.int64),
    np.array([127, 128, 0, 1], dtype=np.int64),
]


@pytest.mark.parametrize("ids", VARBYTE_CASES, ids=range(len(VARBYTE_CASES)))
def test_varbyte_roundtrip(ids):
    enc = varbyte_encode(ids)
    dec = varbyte_decode(enc)
    np.testing.assert_array_equal(dec.astype(np.int64), ids)


def test_varbyte_boundaries():
    vals = np.array([0, 1, 127, 128, 16383, 16384, 2**32, 2**63 - 1], dtype=np.uint64)
    np.testing.assert_array_equal(varbyte_decode(varbyte_encode(vals)), vals)


@pytest.mark.parametrize("ids", [c for c in CASES if c.size], ids=range(5))
def test_delta_roundtrip(ids):
    np.testing.assert_array_equal(delta_decode(delta_encode(ids)).astype(np.int64), ids)


def test_varbyte_smaller_than_raw():
    ids = np.cumsum(rng.integers(1, 50, size=100_000)).astype(np.int64)
    enc = varbyte_encode(delta_encode(ids))
    assert len(enc) < ids.nbytes / 4  # gaps <50 fit in 1 byte


def test_encode_posting_roundtrip_and_blocks():
    n = 5 * BLOCK_SIZE + 17
    doc_ids = np.cumsum(rng.integers(1, 100, size=n)).astype(np.int64)
    tfs = rng.integers(1, 30, size=n).astype(np.int64)
    dls = rng.integers(5, 500, size=n).astype(np.int64)
    # shuffle input — encoder must sort by doc_id
    perm = rng.permutation(n)
    row = encode_posting(doc_ids[perm], tfs[perm], dls[perm])
    assert row["df"] == n
    p = decode_posting(row)
    np.testing.assert_array_equal(p.doc_ids, doc_ids)
    np.testing.assert_array_equal(p.tfs, tfs)
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    assert len(p.block_last_doc) == nblocks
    # block invariants: last_doc is the max doc in block; max_tf/min_dl bound the block
    for bi in range(nblocks):
        lo, hi = bi * BLOCK_SIZE, min((bi + 1) * BLOCK_SIZE, n)
        assert p.block_last_doc[bi] == doc_ids[hi - 1]
        assert p.block_max_tf[bi] == tfs[lo:hi].max()
        assert p.block_min_dl[bi] == dls[lo:hi].min()


def test_encode_posting_rejects_duplicates():
    with pytest.raises(ValueError):
        encode_posting(
            np.array([1, 1, 2]), np.array([1, 1, 1]), np.array([3, 3, 3])
        )


def test_empty_posting():
    row = encode_posting(np.array([]), np.array([]), np.array([]))
    p = decode_posting(row)
    assert p.doc_ids.size == 0 and row["df"] == 0


def test_decode_blocks_selective():
    from gazetteer_search_ray.functions.codec import decode_blocks

    n = 7 * BLOCK_SIZE + 13
    doc_ids = np.cumsum(rng.integers(1, 1000, size=n)).astype(np.int64)
    tfs = rng.integers(1, 99, size=n).astype(np.int64)
    dls = rng.integers(1, 400, size=n).astype(np.int64)
    row = encode_posting(doc_ids, tfs, dls)
    # every subset of blocks decodes to exactly the right slice
    for sel in ([0], [7], [1, 3], [0, 2, 7], list(range(8))):
        d, t = decode_blocks(row, np.array(sel))
        exp_d = np.concatenate(
            [doc_ids[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE] for b in sel]
        )
        exp_t = np.concatenate(
            [tfs[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE] for b in sel]
        )
        np.testing.assert_array_equal(d, exp_d)
        np.testing.assert_array_equal(t, exp_t)


def test_encode_posting_groups_differential():
    """encode_posting_groups must byte-match per-group encode_posting."""
    from gazetteer_search_ray.functions.codec import encode_posting_groups

    r = np.random.default_rng(3)
    lens = [1, 5, BLOCK_SIZE, BLOCK_SIZE + 1, 700, 2]
    docs_l, tfs_l, dls_l = [], [], []
    for L in lens:
        ids = np.cumsum(r.integers(1, 500, size=L)).astype(np.int64)
        perm = r.permutation(L)  # groups arrive unsorted
        docs_l.append(ids[perm])
        tfs_l.append(r.integers(1, 20, size=L).astype(np.int64)[perm])
        dls_l.append(r.integers(1, 300, size=L).astype(np.int64)[perm])
    off = np.concatenate(([0], np.cumsum(lens)))
    out = encode_posting_groups(
        np.concatenate(docs_l), np.concatenate(tfs_l), np.concatenate(dls_l), off
    )
    for g, L in enumerate(lens):
        exp = encode_posting(docs_l[g], tfs_l[g], dls_l[g])
        assert out["df"][g].as_py() == exp["df"] == L
        assert out["docs"][g].as_py() == exp["docs"]
        assert out["tfs"][g].as_py() == exp["tfs"]
        for k in ("block_last_doc", "block_max_tf", "block_min_dl",
                  "block_docs_off", "block_tfs_off"):
            np.testing.assert_array_equal(out[k][g].as_py(), np.asarray(exp[k]))


def test_encode_posting_groups_rejects_dup():
    from gazetteer_search_ray.functions.codec import encode_posting_groups

    with pytest.raises(ValueError):
        encode_posting_groups(
            np.array([1, 1]), np.array([1, 1]), np.array([2, 2]), np.array([0, 2])
        )


def test_varbyte_rows_roundtrip():
    """Per-row varbyte payloads (the slim partial-postings encoding):
    random row shapes incl. empty rows, with and without delta."""
    from gazetteer_search_ray.stages.tokenize import (
        varbyte_flat_from_binary_col,
        varbyte_rows,
    )

    r = np.random.default_rng(9)
    for trial in range(5):
        lens = r.integers(0, 40, size=30)
        lens[r.integers(0, 30)] = 0  # force an empty row
        off = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
        flat = r.integers(0, 2**40, size=int(lens.sum())).astype(np.int64)
        col = varbyte_rows(flat, off)
        got, cnt = varbyte_flat_from_binary_col(col)
        np.testing.assert_array_equal(got, flat)
        np.testing.assert_array_equal(cnt, lens)
        # delta mode needs strictly increasing rows
        parts = [np.cumsum(r.integers(1, 2**33, size=n)).astype(np.int64)
                 for n in lens]
        flat2 = np.concatenate(parts) if parts else np.empty(0, np.int64)
        col2 = varbyte_rows(flat2, off, delta=True)
        got2, cnt2 = varbyte_flat_from_binary_col(col2, delta=True)
        np.testing.assert_array_equal(got2, flat2)
        np.testing.assert_array_equal(cnt2, lens)


def test_varbyte_rows_sliced_column():
    """Decode must respect Arrow array offsets (sliced blocks)."""
    from gazetteer_search_ray.stages.tokenize import (
        varbyte_flat_from_binary_col,
        varbyte_rows,
    )

    flat = np.arange(1, 101, dtype=np.int64) * 7
    off = np.arange(0, 101, 10, dtype=np.int64)
    col = varbyte_rows(flat, off)
    tbl = __import__("pyarrow").table({"x": col}).slice(3, 4)
    got, cnt = varbyte_flat_from_binary_col(tbl["x"])
    np.testing.assert_array_equal(got, flat[30:70])
    np.testing.assert_array_equal(cnt, [10, 10, 10, 10])


# ---- format v3: ordinals delta-packed at a 1/2/4-byte width per block ----


def _ords_with_gaps(stored_gaps) -> np.ndarray:
    """Ordinals whose stored values (gap − 1, first against −1) are
    ``stored_gaps``."""
    return np.cumsum(np.asarray(stored_gaps, np.int64) + 1) - 1


@pytest.mark.parametrize("gap,width", [(0, 1), (255, 1), (256, 2),
                                       (65535, 2), (65536, 4)])
def test_v3_width_boundaries(gap, width):
    """One block's width is the narrowest that holds its largest gap;
    the values round-trip on both sides of each width boundary."""
    ords = _ords_with_gaps([0, gap, 3])
    row = encode_posting(ords, [1, 2, 3], [5, 5, 5])
    assert len(row["docs"]) == 3 * width
    np.testing.assert_array_equal(decode_posting(row).doc_ids, ords)


def test_v3_first_ordinal_zero_and_singletons():
    for ords in ([0], [1], [65536], [2**31 - 1], [0, 1]):
        row = encode_posting(np.array(ords), np.ones(len(ords)),
                             np.ones(len(ords)))
        p = decode_posting(row)
        np.testing.assert_array_equal(p.doc_ids, ords)
        assert p.block_last_doc.tolist() == [ords[-1]]
    with pytest.raises(ValueError):
        encode_posting(np.array([2**31]), np.array([1]), np.array([1]))
    with pytest.raises(ValueError):
        encode_posting(np.array([-1]), np.array([1]), np.array([1]))


def test_v3_multi_block_mixed_widths():
    """10·128+7 postings whose blocks take every width: each block is
    sized on its own, and every block base chains from the previous
    block's last ordinal."""
    r = np.random.default_rng(11)
    n = 10 * BLOCK_SIZE + 7
    gaps = r.integers(0, 3, size=n)
    # each block's largest gap
    gaps[::BLOCK_SIZE] = [0, 300, 70_000, 2, 255, 2**20, 256, 3, 65_535,
                          65_536, 9]
    ords = _ords_with_gaps(gaps)
    tfs = r.integers(1, 200, size=n)
    row = encode_posting(ords, tfs, r.integers(1, 99, size=n))
    off = np.append(row["block_docs_off"], len(row["docs"]))
    widths = np.diff(off) // np.diff(np.append(
        np.arange(0, n, BLOCK_SIZE), n))
    assert widths.tolist() == [1, 2, 4, 1, 1, 4, 2, 1, 2, 4, 1]
    p = decode_posting(row)
    np.testing.assert_array_equal(p.doc_ids, ords)
    np.testing.assert_array_equal(p.tfs, tfs)
    # widths 1, 1, 4, 2 average to exactly 2 bytes per posting: the
    # list is NOT at one width although its size says it could be
    gaps = np.zeros(4 * BLOCK_SIZE, np.int64)
    gaps[::BLOCK_SIZE] = [0, 9, 70_000, 300]
    row = encode_posting(_ords_with_gaps(gaps), np.ones(gaps.size),
                         np.ones(gaps.size))
    assert len(row["docs"]) == 2 * gaps.size
    np.testing.assert_array_equal(decode_posting(row).doc_ids,
                                  _ords_with_gaps(gaps))


def test_v3_decode_every_block_subset():
    """All 127 non-empty subsets of a 7-block list (widths mixed)."""
    from itertools import combinations

    from gazetteer_search_ray.functions.codec import decode_blocks

    r = np.random.default_rng(5)
    n = 6 * BLOCK_SIZE + 50
    caps = np.repeat([3, 1000, 3, 100_000, 3, 3, 500], BLOCK_SIZE)[:n]
    ords = _ords_with_gaps(r.integers(0, caps))
    tfs = r.integers(1, 300, size=n)
    row = encode_posting(ords, tfs, r.integers(1, 50, size=n))
    assert len(row["block_last_doc"]) == 7
    for m in range(1, 8):
        for sel in combinations(range(7), m):
            d, t = decode_blocks(row, np.array(sel))
            idx = np.concatenate([np.arange(b * BLOCK_SIZE,
                                            min((b + 1) * BLOCK_SIZE, n))
                                  for b in sel])
            np.testing.assert_array_equal(d, ords[idx])
            np.testing.assert_array_equal(t, tfs[idx])


def test_v3_groups_differential_and_flat_decode():
    """encode_posting_groups ≡ per-group encode_posting on lists whose
    blocks take every width, and decode_docs_many (the maintenance
    jobs' whole-file decode) restores every group."""
    from gazetteer_search_ray.functions.codec import (
        decode_docs_many,
        encode_posting_groups,
    )

    r = np.random.default_rng(8)
    lens = [1, 3, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 9, 2]
    caps = [2, 70_000, 300, 5, 100_000, 1]
    groups = [_ords_with_gaps(r.integers(0, c, size=L))
              for L, c in zip(lens, caps)]
    tfs_l = [r.integers(1, 20, size=L) for L in lens]
    dls_l = [r.integers(1, 300, size=L) for L in lens]
    perms = [r.permutation(L) for L in lens]  # groups arrive unsorted
    off = np.concatenate(([0], np.cumsum(lens)))
    out = encode_posting_groups(
        np.concatenate([g[p] for g, p in zip(groups, perms)]),
        np.concatenate([t[p] for t, p in zip(tfs_l, perms)]),
        np.concatenate([d[p] for d, p in zip(dls_l, perms)]), off)
    for g, L in enumerate(lens):
        exp = encode_posting(groups[g], tfs_l[g], dls_l[g])
        assert out["df"][g].as_py() == exp["df"] == L
        assert out["docs"][g].as_py() == exp["docs"]
        assert out["tfs"][g].as_py() == exp["tfs"]
        for k in ("block_last_doc", "block_max_tf", "block_min_dl",
                  "block_docs_off", "block_tfs_off"):
            np.testing.assert_array_equal(out[k][g].as_py(), np.asarray(exp[k]))
    docs_rows = out["docs"].to_pylist()
    flat = decode_docs_many(
        np.frombuffer(b"".join(docs_rows), np.uint8), lens,
        [len(b) for b in docs_rows],
        np.concatenate([np.asarray(o, np.int64)
                        for o in out["block_docs_off"].to_pylist()]))
    np.testing.assert_array_equal(flat, np.concatenate(groups))


@pytest.mark.parametrize("nruns", [0, 1, 2, 5])
def test_sorted_block_encoder_emits_partial_schema(tmp_path, nruns):
    """The exchange's sort may hand the encoder large_string /
    large_binary blocks; every block the encoder passes on (empty,
    passed through whole, or its boundary runs) is ``PARTIAL_SCHEMA``,
    so the boundary stream has one schema.  With no doc-length table
    the encoder reads the one of the ``docmeta`` directory beside its
    postings directory."""
    import pyarrow as pa

    from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
    from gazetteer_search_ray.sources.corpus import (
        _assign_doc_ids,
        synthetic_corpus,
    )
    from gazetteer_search_ray.stages.postings import SortedBlockEncoder
    from gazetteer_search_ray.stages.tokenize import (
        PARTIAL_SCHEMA,
        TokenizeStage,
    )

    stage = TokenizeStage(AnalyzerConfig.code(),
                          docmeta_dir=str(tmp_path / "docmeta"))
    part = stage(_assign_doc_ids(synthetic_corpus(50))).sort_by("skey")
    skeys = part["skey"].to_pylist()
    heads = [i for i in range(len(skeys)) if i == 0 or skeys[i] != skeys[i - 1]]
    assert len(heads) > 5
    heads.append(len(skeys))
    large = pa.schema([("skey", pa.large_string()), ("docs", pa.large_binary()),
                       ("tfs", pa.large_binary())])
    block = part.slice(0, heads[nruns]).cast(large)
    (tmp_path / "postings").mkdir()
    out = SortedBlockEncoder(str(tmp_path / "postings"))(block)
    assert out.schema == PARTIAL_SCHEMA
    if nruns <= 2:  # every run may straddle a block boundary
        assert out.num_rows == block.num_rows
    else:  # the first and the last run pass through
        assert out.num_rows == heads[1] + heads[nruns] - heads[nruns - 1]
        assert len(list((tmp_path / "postings").iterdir())) == 1


@pytest.mark.parametrize("entry", ["sorted_block_encoder",
                                   "encode_partials_table"])
@pytest.mark.parametrize("fault", ["doc_not_in_doc_store",
                                   "doc_repeated_across_rows"])
def test_encoders_reject_bad_partials(tmp_path, entry, fault):
    """Both encoders raise ``ValueError`` on a posting whose doc id the
    doc store does not hold, and on a doc that two partial rows of one
    (term, shard) both list.  The fault sits in the middle run, which
    the sorted-block encoder encodes (its first and last runs pass
    through)."""
    import pyarrow as pa

    from gazetteer_search_ray.stages.postings import (
        SortedBlockEncoder,
        encode_partials_table,
    )
    from gazetteer_search_ray.stages.tokenize import pack_partials

    ids = np.array([10, 20, 30, 40], np.int64)
    table = pa.table({"doc_id": ids, "dl": [3, 4, 5, 6]})
    # runs a, b, c; b's docs come in two rows
    b_docs, error = {
        "doc_not_in_doc_store": ([20, 25], "missing from the doc store"),
        "doc_repeated_across_rows": ([20, 20], "duplicate doc ordinal"),
    }[fault]
    part = pack_partials(pa.array(["a", "b", "b", "c"]),
                         np.zeros(4, np.int32),
                         np.array([10] + b_docs + [40], np.int64),
                         np.ones(4, np.int64), np.arange(5), 1, cap=0)
    # both encoders accept it once the fault is gone
    good = pack_partials(pa.array(["a", "b", "b", "c"]),
                         np.zeros(4, np.int32), ids, np.ones(4, np.int64),
                         np.arange(5), 1, cap=0)
    if entry == "sorted_block_encoder":
        (tmp_path / "postings").mkdir()
        enc = SortedBlockEncoder(str(tmp_path / "postings"),
                                 doc_lengths=table)
        assert enc(good).num_rows == 2
        with pytest.raises(ValueError, match=error):
            enc(part)
    else:
        assert encode_partials_table(good, doc_lengths=table).num_rows == 3
        with pytest.raises(ValueError, match=error):
            encode_partials_table(part, doc_lengths=table)
