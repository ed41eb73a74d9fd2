"""TokenizeStage — the per-block parse/normalize/partial-postings stage.

Reference analog: the whole single-threaded import loop body
(``imp/addr/AddressesImporter.java:119-152`` →
``ImportObjectParser.parseAddress`` → ``IndexAnalyzer`` →
``AddrRowWrapper.getJsonForIndex``), re-expressed as ONE vectorized
``map_batches`` stage over zero-copy Arrow blocks, cut into consecutive
slices of at most ``BATCH_BYTES`` of content, that for each slice

1. assigns/validates ``doc_id``;
2. tokenizes ``content`` into integer codes: every tokenizer returns the
   slice's term dictionary, each occurrence's term code and its row
   (Arrow kernels for the SQL-expressible simple analyzer:
   ``utf8_lower`` → ``split_pattern_regex`` → ``dictionary_encode``;
   for the code analyzer, an Arrow split and encode of the raw tokens,
   whole-array expansion of the ASCII distinct tokens, the analyzer
   itself for the others, and a numpy gather of codes per occurrence;
   a Python analyzer loop for custom separator classes);
3. computes per-doc stats: ``dl`` (BM25 field length = total token
   count), ``sha256(content)`` (the end-to-end invariant), ``base_score``
   (pluggable ScoreBuilder, reference ``imp/DefaultScoreBuilder.java``;
   rows scoring 0 are dropped — ``ImportObjectParser.java:182-187``);
4. side-writes the doc-store segment (parquet, temp+rename with a
   content-derived filename → idempotent under Ray task retries), which
   fuses the doc store into the single corpus pass — no second read of
   100 TB;
5. emits *packed partial postings* (:func:`pack_partials`): one row
   per (term, shard) run per slice with binary payloads (docs, tfs) —
   the pre-aggregation that cuts the exchange volume (SURVEY.md §4
   'Memory pressure').  tf counting and the (term, shard, doc) order
   are one integer sort of the codes, and term strings are taken only
   at the run heads.  Doc lengths do not ride along: the encoder reads
   them from the doc store written in step 4.

``shard`` = ``doc_id % num_doc_shards`` splits heavy-hitter terms
(stopword-like code tokens) into bounded sub-runs so no single run
materializes a 10^12-doc posting list; the query layer merges shards
per term (SURVEY.md §2.2 skew note).
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.analyzer import Analyzer, AnalyzerConfig
from ..functions.codec import (_varbyte_encode_starts, binary_rows,
                               varbyte_decode)
from ..state.manifest import atomic_write_table

# Packed partial postings. docs/tfs are BINARY payloads (docs raw
# little-endian int64, tfs varbyte), NOT list columns: Ray's sort
# shuffle moves binary columns like strings (cheap buffer slicing)
# while list columns cost 10-40× in the sort reduce (measured) — this
# is the difference between the merge shuffle being free and being the
# bottleneck.  Varbyte tfs, no doc lengths (the encoder reads them from
# the doc store) and no duplicate term/shard columns (consumers derive
# them from ``skey``) leave ~14 bytes/posting on a code corpus, most of
# it the docs column: doc_ids are deterministic 63-bit HASHES (resume-
# stable without a global zip-with-index pass), so within-row doc gaps
# are ~uniform 2^63/df and delta-varbyte would EXPAND them (measured
# 9.0 B/doc vs 8 raw) — dense ids would compress ~4×, at the cost of a
# global sort before tokenize.
# ``skey`` fuses (term, shard) into ONE sort key ("term" when
# num_doc_shards == 1, else "term\\x1f<shard:04d>"): Ray's multi-key
# sort costs ~6× a single-key sort when payload columns ride along
# (measured 20s vs 3s on 432k rows), and a single string key preserves
# term order for row-group pruning.
PARTIAL_SCHEMA = pa.schema(
    [
        ("skey", pa.string()),
        ("docs", pa.binary()),
        ("tfs", pa.binary()),
    ]
)
SHARD_SEP = "\x1f"
# Cap on postings per packed row: the sort exchange range-partitions by
# ROW count, so one fat row per hot term (a posting per doc of the slice,
# thousands of them, vs ~30B for rare terms) makes the top-Zipf key range
# a byte-skewed straggler block (measured 6.3× mean bytes and a
# 134s/25s-mean encode task at 5.12M docs).  Splitting fat runs into
# ≤PACK_CAP-doc rows makes bytes/row ~uniform so the row-balancing
# sampler balances bytes; the encoder merges multiple rows per skey, so
# semantics are unchanged.
PACK_CAP = 128
# Content bytes per tokenize slice.  Each slice pays once for its term
# dictionary, dictionary sort, Arrow kernel calls and docmeta file, and
# emits one partial row per (term, slice), so larger slices cut both the
# fixed cost and the exchange rows; but tokenize's transient memory is
# ~25x the content bytes it sees (measured ~210 MB peak above an 8 MiB
# slice, BENCH_tokenize_blocks.json), so a whole 128 MB read block is
# unsafe.
BATCH_BYTES = 8 << 20


def slice_bounds(content, cap: int) -> np.ndarray:
    """Row offsets ``[0, ..., n]`` cutting ``content`` into consecutive
    slices of at most ``cap`` bytes each; a row larger than ``cap`` gets
    a slice of its own, and null or empty rows count as 0 bytes."""
    lens = pc.fill_null(pc.binary_length(content), 0).to_numpy()
    csum = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    n = len(lens)
    cuts = [0]
    while cuts[-1] < n:
        a = cuts[-1]
        b = int(np.searchsorted(csum, csum[a] + cap, side="right")) - 1
        cuts.append(max(b, a + 1))
    return np.array(cuts, dtype=np.int64)


def _value_offsets(arr: pa.Array) -> np.ndarray:
    """int64 value offsets of a string or binary array (int64 for the
    large_ types, which the polars-backed sort returns), slice-aware."""
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    return np.frombuffer(arr.buffers()[1], dtype=np.int64 if large else np.int32)[
        arr.offset : arr.offset + len(arr) + 1].astype(np.int64)


def varbyte_rows(flat: np.ndarray, row_offsets: np.ndarray,
                 delta: bool = False) -> pa.Array:
    """Varbyte-encode a flat non-negative int array into per-row binary
    payloads (row i = values[row_offsets[i]:row_offsets[i+1]]), one
    vectorized pass over ALL rows.  ``delta=True`` stores per-row deltas
    with an absolute first value — rows must then be strictly increasing
    (posting doc ids are)."""
    off = np.asarray(row_offsets, dtype=np.int64)
    vals = np.asarray(flat, dtype=np.int64)
    if delta and vals.size:
        heads = off[:-1][off[:-1] < vals.size]
        d = vals.copy()
        d[1:] -= vals[:-1]
        d[heads] = vals[heads]
        vals = d
    buf, starts = _varbyte_encode_starts(vals)
    return binary_rows(buf, np.append(starts, len(buf))[off])


def varbyte_flat_from_binary_col(col, delta: bool = False
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`varbyte_rows` over a whole binary column:
    (concatenated int64 values, per-row value counts).  Row payloads are
    contiguous in the Arrow data buffer, so the decode is ONE vectorized
    varbyte pass + a cumsum-indexed count per row."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = _value_offsets(arr)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    seg = data[off[0] : off[-1]]
    # view, not astype: varbyte payloads are <2^63 so the uint64→int64
    # reinterpret is exact and saves an 8B/value copy in the hot path
    vals = varbyte_decode(seg).view(np.int64)
    # value count per row = count of terminal bytes (MSB clear) in span
    ends = np.concatenate(([0], np.cumsum((seg & 0x80) == 0)))
    rel = off - off[0]
    counts = np.diff(ends[rel])
    if delta and vals.size:
        nz = counts > 0
        heads = np.concatenate(([0], np.cumsum(counts)))[:-1][nz]
        c = np.cumsum(vals)
        base = c[heads] - vals[heads]
        vals = c - np.repeat(base, counts[nz])
    return vals, counts


def flat_from_binary_col(col, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Inverse: (concatenated values, per-row value counts).

    Valid for any BinaryArray because Arrow requires row i's payload to
    occupy exactly [offsets[i], offsets[i+1]) — so the rows' payloads
    are contiguous in the data buffer.
    """
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = _value_offsets(arr)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    itemsize = np.dtype(dtype).itemsize
    seg = data[off[0] : off[-1]].copy()  # copy for alignment
    return seg.view(dtype), (np.diff(off) // itemsize).astype(np.int64)


def pack_partials(terms, shards, docs, tfs, offsets,
                  num_doc_shards: int, cap: int = PACK_CAP) -> pa.Table:
    """Partial-postings rows (``PARTIAL_SCHEMA``) of postings runs: run
    i is (``terms[i]``, ``shards[i]``) with postings
    ``docs/tfs[offsets[i]:offsets[i+1]]``, doc ids ascending.  Runs
    longer than ``cap`` postings split into ≤cap-posting rows (0: no
    split).  ``skey`` is the term when ``num_doc_shards == 1``, else
    ``"<term>\\x1f<shard:04d>"``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    shards = np.asarray(shards, dtype=np.int32)
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    terms = pc.cast(terms, pa.string())
    lens = np.diff(offsets)
    if cap and int(lens.max(initial=0)) > cap:
        nsub = np.maximum(1, -(-lens // cap))
        first = np.cumsum(nsub) - nsub
        within = np.arange(int(nsub.sum()), dtype=np.int64) - np.repeat(first, nsub)
        offsets = np.append(np.repeat(offsets[:-1], nsub) + cap * within,
                            offsets[-1])
        rows = np.repeat(np.arange(lens.size), nsub)
        terms, shards = terms.take(pa.array(rows)), shards[rows]
    skey = terms
    if num_doc_shards > 1:
        skey = pc.binary_join_element_wise(
            terms,
            pc.utf8_lpad(pc.cast(pa.array(shards), pa.string()),
                         width=4, padding="0"),
            SHARD_SEP)
    return pa.table(
        {
            "skey": skey,
            "docs": binary_rows(
                np.asarray(docs).astype("<i8").view(np.uint8), offsets * 8),
            "tfs": varbyte_rows(tfs, offsets),
        },
        schema=PARTIAL_SCHEMA,
    )


DOCMETA_CARRY = ("repo", "path", "commit", "lang", "n_chars", "lat", "lon")

# Field-scoped term separator: extra fields index their tokens as
# "<field>\x1e<term>" in the SAME postings segments (the classic
# field-prefix trick), with per-field doc lengths in docmeta
# (``dl__<field>``) so each field gets its own BM25 length norm — the
# reference maps name/street/locality/full_text as separate ES text
# fields with separate norms (``es_mappings/addr_row.json:41-121``,
# ``MainAddressQueryBuilder.java:396-468``).
FIELD_SEP = "\x1e"


def _is_arrow_fast_path(c: AnalyzerConfig) -> bool:
    return (
        c.lowercase
        and not c.fold_diacritics
        and not c.char_replaces
        and c.split_pattern == r"[^a-z0-9]+"
        and not c.split_compounds
        and c.ascii_only
        and not c.synonyms
        and not c.stop_terms
    )


def _encode(arr: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(distinct strings, int64 code of each element)."""
    d = pc.dictionary_encode(arr)
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    return d.dictionary, d.indices.to_numpy().astype(np.int64)


def _split(content, pattern: str) -> tuple[pa.Array, pa.Array]:
    """Non-empty pieces of ``content`` split at ``pattern``, and each
    piece's row."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    lst = pc.split_pattern_regex(content, pattern=pattern)
    flat = pc.list_flatten(lst)
    mask = pc.not_equal(flat, "")
    return flat.filter(mask), pc.list_parent_indices(lst).filter(mask)


def _within(counts: np.ndarray) -> np.ndarray:
    """Each element's index inside its run, for runs of ``counts``."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)


def _expand_ascii(tokens: pa.Array, split_compounds: bool):
    """The code analyzer's expansion of ASCII ``[0-9A-Za-z]+`` tokens in
    whole-array ops: the lowered token, then, when ``_CAMEL_RE`` cuts it
    into more than one part, its lowered parts.  Returns (expansion
    strings, owning token of each, slot in its token's expansion).

    ``_CAMEL_RE``'s parts tile an ASCII alnum token: a part starts at a
    digit/non-digit change, at lower→upper, and before the last letter
    of an uppercase run that a lowercase letter or a digit follows."""
    n = len(tokens)
    owner = np.arange(n, dtype=np.int64)
    if not n:
        return pa.array([], pa.string()), owner, owner
    off = _value_offsets(tokens)
    seg = np.frombuffer(tokens.buffers()[2], dtype=np.uint8)[off[0]:off[-1]]
    off -= off[0]
    up = (seg >= 65) & (seg <= 90)
    low = seg + (up.astype(np.uint8) << 5)
    base = binary_rows(low, off).view(pa.string())
    if not split_compounds:
        return base, owner, np.zeros(n, dtype=np.int64)
    dig = (seg >= 48) & (seg <= 57)
    lo = (seg >= 97) & (seg <= 122)
    start = np.zeros(seg.size, dtype=bool)
    start[off[:-1]] = True
    start[1:-1] |= (up[:-2] & up[1:-1] & (lo[2:] | dig[2:])
                    & ~start[2:])  # the lookahead stays in the token
    start[1:] |= (dig[1:] != dig[:-1]) | (lo[:-1] & up[1:])
    pstart = np.flatnonzero(start)
    nparts = np.diff(np.searchsorted(pstart, off))
    pown = np.repeat(owner, nparts)
    keep = (nparts > 1)[pown]
    parts = binary_rows(low, np.append(pstart, seg.size)).view(pa.string())
    return (pa.concat_arrays([base, parts.filter(pa.array(keep))]),
            np.concatenate([owner, pown[keep]]),
            np.concatenate([np.zeros(n, dtype=np.int64),
                            (1 + _within(nparts))[keep]]))


class TokenizeStage:
    """Per-block callable for ``map_batches(TokenizeStage(...))``.

    A call cuts its table into consecutive slices of at most
    ``BATCH_BYTES`` of ``content`` (:func:`slice_bounds`), tokenizes
    each slice on its own, with its own docmeta file, and returns the
    slices' ``PARTIAL_SCHEMA`` rows concatenated.  The build hands it
    whole read blocks, so the slices, not Ray's batches, bound its
    memory.

    Analyzer construction and regex compilation happen once, in
    ``__init__`` (reference analog: the singleton compiled replacers,
    ``ReplacersCompiler.java:20-38``).  Every tokenizer returns the
    slice's term dictionary, each occurrence's term code and its row.
    ``map_batches`` unpickles a fresh stage per task, so no state is
    relied on across tasks; the terms cache only spares the analyzer
    calls for non-ASCII tokens repeated within one task.
    """

    def __init__(
        self,
        analyzer_config: AnalyzerConfig | None = None,
        docmeta_dir: str | None = None,
        num_doc_shards: int = 1,
        score_builder: Callable[[pa.Table], np.ndarray] | None = None,
        extra_fields: tuple = (),
        pack_cap: int = PACK_CAP,
    ):
        # extra_fields: ((field_name, column_name), ...) — each extra
        # text field indexes as FIELD_SEP-scoped terms with its own
        # per-doc length column (dl__<field>) for per-field BM25 norms
        self.extra_fields = tuple(extra_fields)
        self.config = analyzer_config or AnalyzerConfig.simple()
        # tf counting must see the raw (non-deduped) token stream
        nodedup = AnalyzerConfig(**{**self.config.__dict__, "dedup": False})
        self._nodedup = Analyzer(nodedup)
        self.docmeta_dir = docmeta_dir
        self.num_doc_shards = int(num_doc_shards)
        self.pack_cap = int(pack_cap)
        self.score_builder = score_builder
        self._fast = _is_arrow_fast_path(self.config)
        # distinct-token → terms cache for the tokens that go through
        # the analyzer itself
        self._exp_cache: dict[str, list[str]] = {}
        # the semi-vectorized path assumes the default separator class
        self._vectorizable = self.config.split_pattern == r"[^a-z0-9]+"
        # ASCII tokens expand with array ops unless a rule could map them
        # to something other than their lowered _CAMEL_RE parts
        c = self.config
        self._ascii_arrays = (
            c.lowercase and not c.synonyms and not c.stop_terms
            and not c.replacer_files
            and not any(src.isascii() for src, _dst in c.char_replaces))

    # -- tokenization ----------------------------------------------------

    def _tokenize_arrow(self, content: pa.ChunkedArray | pa.Array):
        """Vectorized simple-analyzer path: all-Arrow, zero Python loops."""
        # str.lower() maps "İ" to "i" + U+0307, which ends the token;
        # utf8_lower maps it to a bare "i" that joins the next letters
        low = pc.utf8_lower(pc.replace_substring(content, "\u0130", "i\u0307"))
        flat, parent = _split(low, "[^a-z0-9]+")
        return (*_encode(flat), parent.to_numpy())

    def _terms(self, text: str | None) -> list[str]:
        """The analyzer's term stream of ``text`` (dedup off)."""
        return [tok for tok, _opt in self._nodedup.tokens(text or "")]

    def _tokenize_python(self, content):
        toks: list[str] = []
        rows: list[int] = []
        for i, text in enumerate(content.to_pylist()):
            t = self._terms(text)
            toks.extend(t)
            rows.extend([i] * len(t))
        return (*_encode(pa.array(toks, pa.string())),
                np.asarray(rows, dtype=np.int64))

    def _tokenize_vectorized(self, content):
        """Code-analyzer fast path: Arrow split (case-preserving) and one
        dictionary encode of the raw tokens; ASCII distinct tokens expand
        in whole-array ops (:func:`_expand_ascii`), the rest through the
        analyzer (cached); the expansions are encoded once and each
        occurrence maps to its terms' codes with a numpy gather."""
        c = self.config
        # Unicode words, also under ascii_only: the analyzer sees non-ASCII
        # tokens whole.  It folds before it splits, so a combining mark
        # does not end a token; its fold drops it
        flat, parent = _split(content, r"[^\p{L}\p{N}\p{Mn}]+"
                              if c.fold_diacritics else r"[^\p{L}\p{N}]+")
        uniq, codes = _encode(flat)
        if self._ascii_arrays:
            asc = pc.string_is_ascii(uniq).to_numpy(zero_copy_only=False)
        else:
            asc = np.zeros(len(uniq), dtype=bool)
        asc_idx, other_idx = np.flatnonzero(asc), np.flatnonzero(~asc)
        exp, owner, slot = _expand_ascii(uniq.take(pa.array(asc_idx)),
                                         c.split_compounds)
        cache = self._exp_cache
        other: list[str] = []
        other_counts = np.empty(other_idx.size, dtype=np.int64)
        for j, tok in enumerate(uniq.take(pa.array(other_idx)).to_pylist()):
            e = cache.get(tok)
            if e is None:
                e = cache[tok] = self._terms(tok)
            other.extend(e)
            other_counts[j] = len(e)
        terms, term_codes = _encode(pa.chunked_array(
            [exp, pa.array(other, pa.string())], pa.string()))
        # each distinct token's term codes, contiguous in expansion order
        owner = np.concatenate([asc_idx[owner],
                                np.repeat(other_idx, other_counts)])
        slot = np.concatenate([slot, _within(other_counts)])
        exp_counts = np.bincount(owner, minlength=len(uniq))
        exp_off = np.cumsum(exp_counts) - exp_counts
        exp_codes = np.empty(owner.size, dtype=np.int64)
        exp_codes[exp_off[owner] + slot] = term_codes
        counts = exp_counts[codes]
        pos = np.repeat(exp_off[codes], counts) + _within(counts)
        return terms, exp_codes[pos], np.repeat(parent.to_numpy(), counts)

    # -- main ------------------------------------------------------------

    def _tokenize(self, content):
        if self._fast:
            return self._tokenize_arrow(content)
        if self._vectorizable:
            return self._tokenize_vectorized(content)
        return self._tokenize_python(content)

    def __call__(self, block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return PARTIAL_SCHEMA.empty_table()
        cuts = slice_bounds(block["content"], BATCH_BYTES).tolist()
        return pa.concat_tables([self._slice(block.slice(a, b - a))
                                 for a, b in zip(cuts, cuts[1:])])

    def _slice(self, batch: pa.Table) -> pa.Table:
        """The partial rows of one slice, with its docmeta side-write."""
        n = batch.num_rows
        doc_ids = batch["doc_id"].to_numpy().astype(np.int64)
        terms, codes, parent = self._tokenize(batch["content"])
        dl = np.bincount(parent, minlength=n).astype(np.int64)
        # one term stream: content terms, then each extra field's
        # "<field>\x1e"-prefixed terms, whose dictionaries are disjoint
        # by the prefix, so they concatenate with offset codes;
        # field_dl holds each extra field's per-doc length (its own BM25
        # norm) for the doc store
        dicts, code_parts = [pc.cast(terms, pa.string())], [codes]
        parents, field_dl = [parent], {}
        base = len(terms)
        for fname, colname in self.extra_fields:
            ft, fc, fp = self._tokenize(batch[colname])
            dicts.append(pc.binary_join_element_wise(
                pa.scalar(fname + FIELD_SEP), pc.cast(ft, pa.string()), ""))
            code_parts.append(fc + base)
            base += len(ft)
            parents.append(fp)
            field_dl[fname] = np.bincount(fp, minlength=n).astype(np.int64)

        # prior score + row drop (reference M12: score==0 ⇒ drop row)
        if self.score_builder is not None:
            base_score = np.asarray(self.score_builder(batch), dtype=np.float64)
        else:
            base_score = np.ones(n, dtype=np.float64)
        keep = base_score != 0.0

        if self.docmeta_dir is not None:
            self._write_docmeta(batch, doc_ids, dl, base_score, keep,
                                field_dl)

        # the stream as integer codes: each distinct term's rank in byte
        # order, and each row's rank in (shard, doc) order, so that ONE
        # sort of the fused key term rank * n + row rank both counts tf
        # per (term, row) and puts the entries in (term, shard, doc)
        # order; strings are taken only at the run heads
        dictionary = pa.concat_arrays(dicts)
        codes = np.concatenate(code_parts)
        by_rank = pc.sort_indices(dictionary).to_numpy().astype(np.int64)
        term_rank = np.empty_like(by_rank)
        term_rank[by_rank] = np.arange(by_rank.size)
        rows = np.concatenate(parents)
        shards = (doc_ids % self.num_doc_shards).astype(np.int32)
        row_order = np.lexsort((doc_ids, shards))
        row_rank = np.empty(n, np.int64)
        row_rank[row_order] = np.arange(n)
        live = keep[rows]
        key, tf = np.unique(term_rank[codes[live]] * n + row_rank[rows[live]],
                            return_counts=True)
        code = by_rank[key // n]
        row = row_order[key % n]

        # one packed row per run of equal (term, shard)
        shard = shards[row]
        heads = np.flatnonzero((np.diff(code, prepend=-1) != 0)
                               | (np.diff(shard, prepend=-1) != 0))
        return pack_partials(
            dictionary.take(pa.array(code[heads])), shard[heads],
            doc_ids[row], tf, np.append(heads, code.size),
            self.num_doc_shards, self.pack_cap)

    # -- doc store -------------------------------------------------------

    def _write_docmeta(self, batch, doc_ids, dl, base_score, keep,
                       field_dls: dict):
        cols: dict = {
            "doc_id": pa.array(doc_ids[keep], pa.int64()),
            "dl": pa.array(dl[keep], pa.int64()),
            "base_score": pa.array(base_score[keep], pa.float64()),
        }
        for fname, fdl in field_dls.items():
            cols[f"dl__{fname}"] = pa.array(fdl[keep], pa.int64())
        for c in DOCMETA_CARRY:
            if c in batch.column_names:
                cols[c] = batch[c].filter(pa.array(keep))
        # Arrow strings are UTF-8, so each row's bytes are what
        # str.encode would give; a null row hashes as b""
        content = batch["content"].combine_chunks()
        off = _value_offsets(content).tolist()
        data = memoryview(content.buffers()[2] or b"")
        valid = content.is_valid().to_numpy(zero_copy_only=False)
        cols["sha256"] = pa.array(
            [hashlib.sha256(data[off[i]:off[i + 1]] if valid[i] else b""
                            ).hexdigest()
             for i in np.flatnonzero(keep)],
            pa.string(),
        )
        t = pa.table(cols)
        # content-derived name → retries of the same block overwrite the
        # same file with identical bytes (idempotent side-write)
        digest = hashlib.blake2b(doc_ids.tobytes(), digest_size=8).hexdigest()
        atomic_write_table(t, os.path.join(self.docmeta_dir, f"docmeta-{digest}.parquet"))


def make_keep_policy(
    allow_langs: tuple[str, ...] | None = None,
    deny_path_pattern: str | None = None,
    prior: float = 1.0,
):
    """Config-driven keep/drop policy as a ScoreBuilder (reference M13,
    ``imp/POIIgnore.java:29-137`` + M12's score==0 ⇒ drop-row rule,
    ``ImportObjectParser.java:182-187``): rows failing the policy get
    prior 0 and are dropped by the tokenize stage; the rest get
    ``prior``.  For a code corpus: language allowlist + vendored-path
    deny regex."""
    import re

    deny_re = re.compile(deny_path_pattern) if deny_path_pattern else None

    def score(batch: pa.Table) -> np.ndarray:
        n = batch.num_rows
        keep = np.full(n, True)
        if allow_langs is not None and "lang" in batch.column_names:
            keep &= np.isin(
                np.asarray(batch["lang"].to_pylist(), dtype=object),
                list(allow_langs),
            )
        if deny_re is not None and "path" in batch.column_names:
            keep &= np.array(
                [not deny_re.search(p or "") for p in batch["path"].to_pylist()]
            )
        return np.where(keep, prior, 0.0)

    return score
