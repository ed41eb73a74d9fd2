"""Posting-list codec (format v3): doc ordinals packed per block.

The reference hides postings inside ElasticSearch/Lucene; here they are
explicit (SURVEY.md §1.3).  Per (term, shard) and segment a posting list
is

* ``docs``  — segment-local doc ORDINALS, strictly increasing: ordinal
  *i* is the *i*-th smallest ``doc_id`` of the segment's doc store (doc
  ids themselves are 63-bit content hashes, whose gaps no integer code
  can shrink).  Each block of ``BLOCK_SIZE`` postings stores its gaps
  minus one, the first against the previous block's last ordinal (-1
  before the first block), all at ONE little-endian byte width chosen
  per block: 1, 2 or 4 bytes, the narrowest that holds the block's
  largest gap (the SIMD-BP128 / PFor block layout, byte-aligned, Lemire
  & Boytsov SPE 2015).  The width is implied by the block's byte span
  over its posting count, so it needs no metadata of its own.
* ``tfs``   — term frequencies, varbyte (aligned with docs).
* blocks of ``BLOCK_SIZE`` postings with skip metadata
  ``(last_doc, max_tf, min_dl)`` from which the query layer derives
  block-max BM25 upper bounds (see ``bm25.block_upper_bound``), plus the
  byte offset of each block in ``docs`` and ``tfs``.  Because a block's
  base is the previous block's ``last_doc``, any subset of blocks
  decodes on its own (``decode_blocks``).

Readers map every segment's ordinals onto one global ordinal space in
doc-id order (``state/reader.py``), so sorted ordinals are sorted doc
ids and a tie broken on ordinal is a tie broken on doc id.

Everything is vectorized numpy — no per-value Python loops: encoding
iterates over *byte positions* (≤10) not values, decoding reconstructs
all values with cumsum/segment-reduce ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

BLOCK_SIZE = 128
# ordinals are stored as list<int32> block metadata
MAX_ORDINAL = np.iinfo(np.int32).max
_WIDTH_DTYPE = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}


def _varbyte_encode_starts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode; returns (uint8 buffer, per-value byte start offsets)."""
    v = np.asarray(values)
    if v.size == 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    v = v.astype(np.uint64, copy=True)
    # number of 7-bit groups per value (1..10)
    nb = np.ones(v.shape, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nb += (tmp != 0).astype(np.int64)
        tmp >>= np.uint64(7)
    starts = np.concatenate(([0], np.cumsum(nb)[:-1]))
    out = np.zeros(int(nb.sum()), dtype=np.uint8)
    max_nb = int(nb.max())
    for i in range(max_nb):
        m = nb > i
        byte = ((v[m] >> np.uint64(7 * i)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nb[m] - 1 > i).astype(np.uint8) << 7
        out[starts[m] + i] = byte | cont
    return out, starts


def varbyte_encode(values: np.ndarray) -> bytes:
    """Varbyte (7-bit groups, little-endian, MSB = continuation) encode.

    ``values`` must be non-negative integers (any integer dtype).
    """
    out, _ = _varbyte_encode_starts(values)
    return out.tobytes()


def varbyte_decode(buf: bytes | np.ndarray) -> np.ndarray:
    """Inverse of :func:`varbyte_encode`; returns uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = (b & 0x80) == 0
    if ends.all():  # all values < 128 — one widening copy (typical tfs)
        return b.astype(np.uint64)
    group = np.zeros(b.size, dtype=np.int64)
    group[1:] = np.cumsum(ends)[:-1]
    start_flags = np.empty(b.size, dtype=bool)
    start_flags[0] = True
    start_flags[1:] = ends[:-1]
    start_pos = np.flatnonzero(start_flags)
    within = np.arange(b.size, dtype=np.int64) - start_pos[group]
    contrib = (b & 0x7F).astype(np.uint64) << (7 * within).astype(np.uint64)
    # per-value byte contributions occupy disjoint bit ranges, so a
    # segment SUM equals the bitwise OR — and np.add.reduceat is ~20×
    # faster than the unbuffered np.bitwise_or.at scatter
    return np.add.reduceat(contrib, start_pos)


def delta_encode(sorted_ids: np.ndarray) -> np.ndarray:
    """Strictly-increasing int64 ids → gaps (first value absolute)."""
    ids = np.asarray(sorted_ids, dtype=np.uint64)
    if ids.size == 0:
        return ids
    out = np.empty_like(ids)
    out[0] = ids[0]
    np.subtract(ids[1:], ids[:-1], out=out[1:])
    return out


def delta_decode(gaps: np.ndarray) -> np.ndarray:
    return np.cumsum(np.asarray(gaps, dtype=np.uint64), dtype=np.uint64)


@dataclass
class Posting:
    """Decoded posting list with block-max skip metadata."""

    doc_ids: np.ndarray  # int64 ordinals, strictly increasing
    tfs: np.ndarray  # int64
    block_last_doc: np.ndarray  # int64, one per block
    block_max_tf: np.ndarray  # int32
    block_min_dl: np.ndarray  # int32

    @property
    def df(self) -> int:
        return int(self.doc_ids.size)


def _check_ordinals(ords: np.ndarray) -> None:
    if ords.size and (ords.min() < 0 or ords.max() > MAX_ORDINAL):
        raise ValueError("doc ordinal outside [0, 2^31)")


def _pack_gaps(gaps: np.ndarray, bstart: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Byte-pack stored gaps at one width per block.

    ``gaps`` (int64, ≥ 0) are ordinal gaps minus one; ``bstart`` holds
    each block's first index.  Returns (uint8 buffer, per-value byte
    start offsets, len n+1)."""
    n = gaps.size
    if n == 0:
        return np.empty(0, np.uint8), np.zeros(1, np.int64)
    bmax = np.maximum.reduceat(gaps, bstart)
    bw = np.where(bmax < 1 << 8, 1, np.where(bmax < 1 << 16, 2, 4))
    w = np.repeat(bw, np.diff(np.append(bstart, n)))
    starts = np.zeros(n + 1, np.int64)
    np.cumsum(w, out=starts[1:])
    out = np.empty(int(starts[-1]), np.uint8)
    g = gaps.astype(np.uint32)
    for byte in range(4):  # byte `byte` of every value at least that wide
        m = w > byte
        if not m.any():
            break
        gm = g if m.all() else g[m]
        out[starts[:-1][m] + byte] = (gm >> np.uint32(8 * byte)).astype(np.uint8)
    return out, starts


def encode_posting(
    doc_ords: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    block_size: int = BLOCK_SIZE,
) -> dict:
    """Sort by ordinal, compress, and compute per-block skip metadata.

    Returns a plain dict (Arrow-friendly) with keys
    ``docs`` / ``tfs`` (binary), ``block_last_doc`` / ``block_max_tf`` /
    ``block_min_dl`` / ``block_docs_off`` / ``block_tfs_off`` (arrays),
    ``df`` (int).  ``dls`` are per-posting doc lengths (same order as
    ``doc_ords``) — they feed the block bounds but are NOT stored per
    posting (doc lengths live in the doc store).
    """
    ords = np.asarray(doc_ords, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    dls = np.asarray(dls, dtype=np.int64)
    order = np.argsort(ords, kind="stable")
    ords, tfs, dls = ords[order], tfs[order], dls[order]
    if ords.size > 1 and np.any(ords[1:] == ords[:-1]):
        raise ValueError("duplicate doc ordinal in posting list")
    _check_ordinals(ords)
    n = ords.size
    bstart = np.arange(0, n, block_size, dtype=np.int64)
    if n:
        block_max_tf = np.maximum.reduceat(tfs, bstart)
        block_min_dl = np.minimum.reduceat(dls, bstart)
        block_last_doc = ords[np.append(bstart[1:], n) - 1]
    else:
        block_max_tf = block_min_dl = block_last_doc = np.empty(0, np.int64)
    gaps = np.diff(ords, prepend=-1) - 1
    docs_buf, docs_starts = _pack_gaps(gaps, bstart)
    tfs_buf, tfs_starts = _varbyte_encode_starts(tfs)
    return {
        "df": int(n),
        "docs": docs_buf.tobytes(),
        "tfs": tfs_buf.tobytes(),
        "block_last_doc": block_last_doc.astype(np.int32),
        "block_max_tf": block_max_tf.astype(np.int32),
        "block_min_dl": np.minimum(block_min_dl, np.iinfo(np.int32).max).astype(np.int32),
        # byte offset of each block's first value — enables selective
        # (skip) decoding of individual blocks at query time
        "block_docs_off": docs_starts[bstart],
        "block_tfs_off": tfs_starts[bstart].astype(np.int64),
    }


def decode_blocks(
    row: dict, block_indices: np.ndarray, block_size: int = BLOCK_SIZE
) -> tuple[np.ndarray, np.ndarray]:
    """Decode only the selected blocks of an encoded posting row.

    This is the skip-read primitive of the block-max query path.  Each
    run of neighbouring selected blocks of one byte width is ONE buffer
    read; one cumsum then restores all their ordinals, after the first
    gap of every selected block is re-based on the previous block's
    ``block_last_doc``.  The ``tfs`` varbyte stream is sliced at the
    stored per-block byte offsets and decoded in one vectorized pass.

    Returns (doc ordinals:int64, tfs:int64) for the selected blocks in
    order.
    """
    sel = np.asarray(block_indices, dtype=np.int64)
    if sel.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    n = int(row["df"])
    docs_buf = row["docs"]
    nblocks = (n + block_size - 1) // block_size
    docs_off = np.asarray(row["block_docs_off"], dtype=np.int64)
    full = sel.size == nblocks
    width = len(docs_buf) // n
    if full and len(docs_buf) == n * width and (
            nblocks == 1 or np.all(np.diff(docs_off) == block_size * width)):
        # whole list at one width (every single-block list, most long
        # ones): one buffer read, one cumsum
        docs = np.frombuffer(docs_buf, _WIDTH_DTYPE[width]).astype(np.int64)
        docs += 1
        np.cumsum(docs, out=docs)
        docs -= 1
        return docs, varbyte_decode(row["tfs"]).astype(np.int64)

    last = np.asarray(row["block_last_doc"], dtype=np.int64)
    lens = np.minimum(block_size, n - sel * block_size)
    widths = (np.append(docs_off[1:], len(docs_buf))[sel] - docs_off[sel]) // lens
    starts = np.zeros(sel.size + 1, np.int64)
    np.cumsum(lens, out=starts[1:])
    docs = np.empty(int(starts[-1]), np.int64)
    brk = (np.diff(sel) != 1) | (np.diff(widths) != 0)
    heads = np.concatenate(([0], np.flatnonzero(brk) + 1))
    tails = np.append(heads[1:], sel.size)
    for h, t in zip(heads.tolist(), tails.tolist()):
        docs[starts[h]: starts[t]] = np.frombuffer(
            docs_buf, _WIDTH_DTYPE[int(widths[h])], int(starts[t] - starts[h]),
            int(docs_off[sel[h]]))
    docs += 1
    # each block's first gap counts from its predecessor's last ordinal
    # (-1 before block 0); the cumsum carries the previous SELECTED
    # block's last ordinal, so add the difference (0 for neighbours)
    base = np.where(sel > 0, last[np.maximum(sel - 1, 0)], -1)
    prev_last = np.concatenate(([0], last[sel[:-1]]))
    docs[starts[:-1]] += base - prev_last
    np.cumsum(docs, out=docs)

    if full:
        tfs_bytes = row["tfs"]
    else:
        tfs_off = np.asarray(row["block_tfs_off"], dtype=np.int64)
        tfs_buf = np.frombuffer(row["tfs"], dtype=np.uint8)
        tfs_end = np.append(tfs_off[1:], len(tfs_buf))
        tfs_bytes = np.concatenate(
            [tfs_buf[tfs_off[b]: tfs_end[b]] for b in sel.tolist()])
    return docs, varbyte_decode(tfs_bytes).astype(np.int64)


def decode_docs_many(
    docs: np.ndarray,
    dfs: np.ndarray,
    row_bytes: np.ndarray,
    block_docs_off: np.ndarray,
    block_size: int = BLOCK_SIZE,
) -> np.ndarray:
    """Ordinals of MANY whole posting lists in one vectorized pass.

    ``docs`` (uint8) is the rows' ``docs`` payloads back to back;
    ``dfs`` and ``row_bytes`` give each row's posting count and payload
    length; ``block_docs_off`` is every row's ``block_docs_off``
    concatenated.  Returns the concatenated ordinals (int64) — the
    maintenance jobs' whole-file decode, with no per-row Python."""
    dfs = np.asarray(dfs, dtype=np.int64)
    n = int(dfs.sum())
    if n == 0:
        return np.empty(0, np.int64)
    nb = (dfs + block_size - 1) // block_size
    row_start = np.concatenate(([0], np.cumsum(row_bytes)[:-1]))
    bstart = np.asarray(block_docs_off, np.int64) + np.repeat(row_start, nb)
    bend = np.append(bstart[1:], docs.size)
    # postings per block: block_size except each row's last block
    cnt = np.full(bstart.size, block_size, np.int64)
    last_blk = np.cumsum(nb) - 1
    cnt[last_blk] = dfs - (nb - 1) * block_size
    w = np.repeat((bend - bstart) // cnt, cnt)
    first = np.repeat(np.cumsum(cnt) - cnt, cnt)
    pos = np.repeat(bstart, cnt) + (np.arange(n) - first) * w
    vals = docs[pos].astype(np.int64)
    for byte in (1, 2, 3):
        m = w > byte
        if not m.any():
            break
        vals[m] |= docs[pos[m] + byte].astype(np.int64) << (8 * byte)
    vals += 1
    np.cumsum(vals, out=vals)
    # each list restarts from ordinal -1
    heads = np.cumsum(dfs) - dfs
    before = np.concatenate(([0], vals[heads[1:] - 1]))
    vals -= np.repeat(before + 1, dfs)
    return vals


def binary_rows(buf: np.ndarray, row_starts: np.ndarray) -> pa.Array:
    """Zero-copy BinaryArray over the uint8 ``buf``: row i =
    ``buf[row_starts[i]:row_starts[i+1]]``."""
    if buf.size >= 2**31:
        raise ValueError("payload exceeds int32 binary offsets")
    return pa.Array.from_buffers(
        pa.binary(), row_starts.size - 1,
        [None, pa.py_buffer(row_starts.astype(np.int32)),
         pa.py_buffer(buf)])


def encode_posting_groups(
    docs: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    group_offsets: np.ndarray,
    block_size: int = BLOCK_SIZE,
) -> dict[str, pa.Array]:
    """Encode MANY posting lists in one vectorized pass.

    ``docs`` (ordinals)/``tfs``/``dls`` are the concatenated entries of
    G non-empty groups; ``group_offsets`` (len G+1) delimits them.
    Entries need not be sorted within a group — one argsort of the fused
    key ``group << 31 | ordinal`` handles all groups at once.  Returns
    Arrow arrays of length G, keyed like :func:`encode_posting`: ``df``
    (int64), ``docs``/``tfs`` (binary) and the five ``block_*`` list
    columns, each built over the one buffer the whole pass computes,
    with the exact same per-group content as :func:`encode_posting`,
    verified by differential test.

    This exists because a per-group Python call (Ray ``map_groups``)
    costs ~10ms/group — fatal at vocabulary scale; here the whole block
    of groups is one numpy pipeline (sort, gaps, pack, varbyte,
    reduceat).
    """
    docs = np.asarray(docs, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    dls = np.asarray(dls, dtype=np.int64)
    off = np.asarray(group_offsets, dtype=np.int64)
    ngroups = off.size - 1
    n = docs.size
    lens = np.diff(off)
    gid = np.repeat(np.arange(ngroups, dtype=np.int64), lens)
    # ordinals fit 31 bits, so the fused key cannot overflow; ordinals
    # are unique within a group (the gap check below raises otherwise),
    # so any sort of it gives the (group, ordinal) order
    _check_ordinals(docs)
    order = np.argsort((gid << 31) | docs)
    docs_s, tfs_s, dls_s = docs[order], tfs[order], dls[order]

    starts = off[:-1]
    gaps = np.empty(n, np.int64)
    np.subtract(docs_s[1:], docs_s[:-1] + 1, out=gaps[1:])
    gaps[starts] = docs_s[starts]  # a list starts from ordinal -1
    if np.any(gaps < 0):
        raise ValueError("duplicate doc ordinal within a posting group")

    # block boundaries: every block_size-th entry within each group
    idx_within = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    bstart = np.flatnonzero(idx_within % block_size == 0)
    bgid = gid[bstart]
    blast = np.minimum(bstart + block_size, off[1:][bgid]) - 1

    docs_buf, docs_starts = _pack_gaps(gaps, bstart)
    tfs_buf, tfs_starts = _varbyte_encode_starts(tfs_s)
    tfs_starts = np.append(tfs_starts, len(tfs_buf))

    # byte offsets relative to each group's slice of the buffers
    bdocs_off = docs_starts[bstart] - docs_starts[starts[bgid]]
    btfs_off = tfs_starts[bstart] - tfs_starts[starts[bgid]]
    boff = pa.array(np.concatenate(
        ([0], np.cumsum(np.bincount(bgid, minlength=ngroups)))
    ).astype(np.int32))

    def per_block(a: np.ndarray, dtype) -> pa.Array:
        return pa.ListArray.from_arrays(boff, pa.array(a.astype(dtype)))

    return {
        "df": pa.array(lens, pa.int64()),
        "docs": binary_rows(docs_buf, docs_starts[off]),
        "tfs": binary_rows(tfs_buf, tfs_starts[off]),
        "block_last_doc": per_block(docs_s[blast], np.int32),
        "block_max_tf": per_block(np.maximum.reduceat(tfs_s, bstart), np.int32),
        "block_min_dl": per_block(np.minimum(
            np.minimum.reduceat(dls_s, bstart), np.iinfo(np.int32).max),
            np.int32),
        "block_docs_off": per_block(bdocs_off, np.int64),
        "block_tfs_off": per_block(btfs_off, np.int64),
    }


def decode_posting(row: dict, block_size: int = BLOCK_SIZE) -> Posting:
    """Inverse of :func:`encode_posting` (block metadata passed through)."""
    nblocks = len(row["block_last_doc"])
    docs, tfs = decode_blocks(row, np.arange(nblocks), block_size)
    return Posting(
        doc_ids=docs,
        tfs=tfs,
        block_last_doc=np.asarray(row["block_last_doc"], dtype=np.int64),
        block_max_tf=np.asarray(row["block_max_tf"], dtype=np.int32),
        block_min_dl=np.asarray(row["block_min_dl"], dtype=np.int32),
    )
