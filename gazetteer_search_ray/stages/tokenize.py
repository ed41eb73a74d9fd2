"""TokenizeStage — the per-batch parse/normalize/partial-postings stage.

Reference analog: the whole single-threaded import loop body
(``imp/addr/AddressesImporter.java:119-152`` →
``ImportObjectParser.parseAddress`` → ``IndexAnalyzer`` →
``AddrRowWrapper.getJsonForIndex``), re-expressed as ONE vectorized
``map_batches`` stage over zero-copy Arrow batches that

1. assigns/validates ``doc_id``;
2. tokenizes ``content`` (Arrow-kernel fast path for the SQL-expressible
   simple analyzer: ``utf8_lower`` → ``split_pattern_regex`` →
   ``list_flatten``; Python analyzer loop otherwise);
3. computes per-doc stats: ``dl`` (BM25 field length = total token
   count), ``sha256(content)`` (the end-to-end invariant), ``base_score``
   (pluggable ScoreBuilder, reference ``imp/DefaultScoreBuilder.java``;
   rows scoring 0 are dropped — ``ImportObjectParser.java:182-187``);
4. side-writes the doc-store segment (parquet, temp+rename with a
   content-derived filename → idempotent under Ray task retries), which
   fuses the doc store into the single corpus pass — no second read of
   100 TB;
5. emits *packed partial postings* (:func:`pack_partials`): one row
   per (term, shard) run per batch with binary payloads (docs, tfs,
   dls) — the pre-aggregation that cuts the exchange volume (SURVEY.md
   §4 'Memory pressure').  The batch's term stream is dictionary-encoded
   once; tf counting and the (term, shard, doc) order are one integer
   sort, and term strings are taken only at the run heads.

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

# Packed partial postings. docs/tfs/dls are BINARY payloads (docs raw
# little-endian int64, tfs/dls varbyte), NOT list columns: Ray's sort
# shuffle moves binary columns like strings (cheap buffer slicing)
# while list columns cost 10-40× in the sort reduce (measured) — this
# is the difference between the merge shuffle being free and being the
# bottleneck.  Varbyte tfs/dls + dropping the duplicate term/shard
# columns (consumers derive them from ``skey``) cut the measured
# exchange volume 19.3 → ~12.9 bytes/posting (1.5×).  The ceiling is
# the docs column: doc_ids are deterministic 63-bit HASHES (resume-
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
        ("dls", pa.binary()),
    ]
)
SHARD_SEP = "\x1f"
# Cap on postings per packed row: the sort exchange range-partitions by
# ROW count, so one fat row per hot term (≤batch_size docs ≈ 4KB payload
# vs ~30B for rare terms) makes the top-Zipf key range a byte-skewed
# straggler block (measured 6.3× mean bytes and a 134s/25s-mean encode
# task at 5.12M docs).  Splitting fat runs into ≤PACK_CAP-doc rows makes
# bytes/row ~uniform so the row-balancing sampler balances bytes; the
# encoder merges multiple rows per skey, so semantics are unchanged.
PACK_CAP = 128


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
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    off = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
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
    # polars-backed sort returns large_binary (int64 offsets)
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    off = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    itemsize = np.dtype(dtype).itemsize
    seg = data[off[0] : off[-1]].copy()  # copy for alignment
    return seg.view(dtype), (np.diff(off) // itemsize).astype(np.int64)


def pack_partials(terms, shards, docs, tfs, dls, offsets,
                  num_doc_shards: int, cap: int = PACK_CAP) -> pa.Table:
    """Partial-postings rows (``PARTIAL_SCHEMA``) of postings runs: run
    i is (``terms[i]``, ``shards[i]``) with postings
    ``docs/tfs/dls[offsets[i]:offsets[i+1]]``, doc ids ascending.  Runs
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
            "dls": varbyte_rows(dls, offsets),
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


class TokenizeStage:
    """Per-batch callable for ``map_batches(TokenizeStage(...))``.

    Analyzer construction and regex compilation happen once, in
    ``__init__`` (reference analog: the singleton compiled replacers,
    ``ReplacersCompiler.java:20-38``); the distinct-token expansion
    cache persists across the batches one worker runs.
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
        self.analyzer = Analyzer(self.config)
        # tf counting must see the raw (non-deduped) token stream
        nodedup = AnalyzerConfig(**{**self.config.__dict__, "dedup": False})
        self._nodedup = Analyzer(nodedup)
        self.docmeta_dir = docmeta_dir
        self.num_doc_shards = int(num_doc_shards)
        self.pack_cap = int(pack_cap)
        self.score_builder = score_builder
        self._fast = _is_arrow_fast_path(self.config)
        # distinct-token → expansion cache (persists across batches)
        self._exp_cache: dict[str, list[str]] = {}
        # the semi-vectorized path assumes the default separator class
        self._vectorizable = self.config.split_pattern == r"[^a-z0-9]+"

    # -- tokenization ----------------------------------------------------

    def _tokenize_arrow(self, content: pa.ChunkedArray | pa.Array):
        """Vectorized simple-analyzer path: all-Arrow, zero Python loops."""
        arr = content.combine_chunks() if isinstance(content, pa.ChunkedArray) else content
        lst = pc.split_pattern_regex(pc.utf8_lower(arr), pattern="[^a-z0-9]+")
        flat = pc.list_flatten(lst)
        parent = pc.list_parent_indices(lst)
        mask = pc.not_equal(flat, "")
        return flat.filter(mask), parent.filter(mask).to_numpy()

    def _tokenize_python(self, content):
        toks: list[str] = []
        rows: list[int] = []
        an = self._nodedup
        for i, text in enumerate(content.to_pylist()):
            t = [tok for tok, _opt in an.tokens(text or "")]
            toks.extend(t)
            rows.extend([i] * len(t))
        return pa.array(toks, pa.string()), np.asarray(rows, dtype=np.int64)

    def _expand_token(self, raw: str) -> list[str]:
        """Full normalization chain for ONE raw (case-preserved) token —
        called once per DISTINCT token per actor (cached)."""
        from ..functions.analyzer import _CAMEL_RE, Analyzer

        c = self.config
        t = raw
        if c.char_replaces:
            t = t.translate(self.analyzer._char_map)
        if c.fold_diacritics and not t.isascii():
            t = Analyzer.fold(t)
        base = t.lower() if c.lowercase else t
        subs: list[str] = []
        if c.split_compounds:
            parts = _CAMEL_RE.findall(t)
            if len(parts) > 1:
                subs = [p.lower() for p in parts]
        out = []
        for tok in [base, *subs]:
            if self.analyzer._syn:
                tok = self.analyzer._synonym(tok)
            if not tok or tok in c.stop_terms:
                continue
            out.append(tok)
            if self.analyzer._replacers is not None:
                # replacer variants follow the original token (reference
                # IndexAnalyzer.java:99-100); multi-word templates split
                for variant in self.analyzer._replacers.expand(tok):
                    out.extend(
                        v for v in variant.split()
                        if v and v not in c.stop_terms
                    )
        return out

    def _tokenize_vectorized(self, content):
        """Code-analyzer fast path: Arrow split (case-preserving), then
        the Python normalization chain runs only on DISTINCT tokens
        (cached across batches in the actor); the per-occurrence
        expansion is a pure numpy gather.  ~10× over the per-row loop
        at code-corpus shapes."""
        arr = content.combine_chunks() if isinstance(content, pa.ChunkedArray) else content
        pat = r"[^0-9a-zA-Z]+" if self.config.ascii_only else r"[^\p{L}\p{N}]+"
        lst = pc.split_pattern_regex(arr, pattern=pat)
        flat = pc.list_flatten(lst)
        parent = pc.list_parent_indices(lst)
        mask = pc.not_equal(flat, "")
        flat = flat.filter(mask)
        parent = parent.filter(mask).to_numpy()
        d = pc.dictionary_encode(flat)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy()
        uniq = d.dictionary.to_pylist()
        cache = self._exp_cache
        exp_lists = []
        for tok in uniq:
            e = cache.get(tok)
            if e is None:
                e = self._expand_token(tok)
                cache[tok] = e
            exp_lists.append(e)
        exp_counts = np.array([len(e) for e in exp_lists], dtype=np.int64)
        exp_off = np.concatenate(([0], np.cumsum(exp_counts)))
        exp_flat = pa.array([x for e in exp_lists for x in e], pa.string())
        counts = exp_counts[codes]
        total = int(counts.sum())
        if total == 0:
            return pa.array([], pa.string()), np.empty(0, dtype=np.int64)
        rep_parent = np.repeat(parent, counts)
        seg_off = np.concatenate(([0], np.cumsum(counts)))
        within = np.arange(total, dtype=np.int64) - np.repeat(seg_off[:-1], counts)
        pos = np.repeat(exp_off[codes], counts) + within
        return exp_flat.take(pa.array(pos)), rep_parent

    # -- main ------------------------------------------------------------

    def _tokenize(self, content):
        if self._fast:
            return self._tokenize_arrow(content)
        if self._vectorizable:
            return self._tokenize_vectorized(content)
        return self._tokenize_python(content)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return PARTIAL_SCHEMA.empty_table()
        doc_ids = batch["doc_id"].to_numpy().astype(np.int64)
        flat, parent = self._tokenize(batch["content"])
        dl = np.bincount(parent, minlength=n).astype(np.int64)
        # one term stream: content tokens, then each extra field's
        # "<field>\x1e"-prefixed tokens; field_dl[f] is field f's
        # per-doc length (its own BM25 norm), f = 0 the content
        streams, parents, field_dl = [flat], [parent], [dl]
        for fname, colname in self.extra_fields:
            ff, fp = self._tokenize(batch[colname])
            streams.append(pc.binary_join_element_wise(
                pa.scalar(fname + FIELD_SEP), pc.cast(ff, pa.string()), ""))
            parents.append(fp)
            field_dl.append(np.bincount(fp, minlength=n).astype(np.int64))

        # prior score + row drop (reference M12: score==0 ⇒ drop row)
        if self.score_builder is not None:
            base_score = np.asarray(self.score_builder(batch), dtype=np.float64)
        else:
            base_score = np.ones(n, dtype=np.float64)
        keep = base_score != 0.0

        if self.docmeta_dir is not None:
            self._write_docmeta(
                batch, doc_ids, dl, base_score, keep,
                {f: fdl for (f, _c), fdl in zip(self.extra_fields, field_dl[1:])})

        # the stream as integer codes: each distinct term's rank in byte
        # order, and each row's rank in (shard, doc) order, so that ONE
        # sort of the fused key term rank * n + row rank both counts tf
        # per (term, row) and puts the entries in (term, shard, doc)
        # order; strings are taken only at the run heads
        d = pc.dictionary_encode(pa.concat_arrays(
            [pc.cast(x, pa.string()) for x in streams]))
        codes = d.indices.to_numpy()
        by_rank = pc.sort_indices(d.dictionary).to_numpy().astype(np.int64)
        term_rank = np.empty_like(by_rank)
        term_rank[by_rank] = np.arange(by_rank.size)
        field_of = np.zeros(by_rank.size, np.int64)  # term code → field
        ends = np.cumsum([len(p) for p in parents])
        for f in range(1, len(parents)):
            field_of[codes[ends[f - 1]:ends[f]]] = f
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
            d.dictionary.take(pa.array(code[heads])), shard[heads],
            doc_ids[row], tf, np.stack(field_dl)[field_of[code], row],
            np.append(heads, code.size), self.num_doc_shards,
            self.pack_cap)

    # -- doc store -------------------------------------------------------

    def _write_docmeta(self, batch, doc_ids, dl, base_score, keep,
                       field_dls: dict | None = None):
        cols: dict = {
            "doc_id": pa.array(doc_ids[keep], pa.int64()),
            "dl": pa.array(dl[keep], pa.int64()),
            "base_score": pa.array(base_score[keep], pa.float64()),
        }
        for fname, fdl in (field_dls or {}).items():
            cols[f"dl__{fname}"] = pa.array(fdl[keep], pa.int64())
        for c in DOCMETA_CARRY:
            if c in batch.column_names:
                cols[c] = batch[c].filter(pa.array(keep))
        texts = batch["content"].to_pylist()
        cols["sha256"] = pa.array(
            [
                hashlib.sha256(
                    (texts[i] or "").encode("utf-8", "surrogatepass")
                ).hexdigest()
                for i in np.flatnonzero(keep)
            ],
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
