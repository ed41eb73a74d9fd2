"""Text-analysis operators for large-scale training-data pipelines.

Not present in the reference (whose corpus is addresses), but first-class
here: language-ID (n-gram/stopword heuristic), quality scoring, token
counting (whitespace + BPE-ish regex), and rolling-hash document
fingerprinting.  All are single-pass ``map_batches`` stages — the
stopword tables and compiled regexes live in actor ``__init__``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "für"},
    "fr": {"le", "la", "les", "et", "de", "un", "une", "est", "pour", "que"},
    "es": {"el", "la", "los", "de", "y", "un", "una", "es", "para", "que"},
}


def token_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc token_count / distinct_tokens / avg token length.

    Tokenization identical to the SQL oracle: lower + split on
    ``[^a-z0-9]+`` + drop empties.
    """

    def f(t: pa.Table) -> pa.Table:
        lst = pc.split_pattern_regex(
            pc.utf8_lower(t[text_col].combine_chunks()), pattern="[^a-z0-9]+"
        )
        flat = pc.list_flatten(lst)
        parent = pc.list_parent_indices(lst)
        mask = pc.not_equal(flat, "")
        flat = flat.filter(mask)
        parent = parent.filter(mask).to_numpy()
        n = t.num_rows
        counts = np.bincount(parent, minlength=n).astype(np.int64)
        lens = pc.utf8_length(flat).to_numpy()
        sum_len = np.zeros(n, dtype=np.int64)
        np.add.at(sum_len, parent, lens)
        # distinct per doc: count unique (doc, term) pairs
        grp = (
            pa.table({"term": flat, "row": pa.array(parent)})
            .group_by(["term", "row"], use_threads=False)
            .aggregate([])
        )
        distinct = np.bincount(grp["row"].to_numpy(), minlength=n).astype(np.int64)
        avg_len = np.where(counts > 0, sum_len / np.maximum(counts, 1), 0.0)
        return pa.table(
            {
                id_col: t[id_col],
                "token_count": pa.array(counts),
                "distinct_tokens": pa.array(distinct),
                "avg_token_len": pa.array(avg_len, pa.float64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


class LangId:
    """Stopword-hit heuristic language identifier (actor-pool stage)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        import re

        self.text_col = text_col
        self.id_col = id_col
        self.word = re.compile(r"[a-zA-Z]+")
        self.tables = {lang: frozenset(ws) for lang, ws in STOPWORDS.items()}

    def __call__(self, t: pa.Table) -> pa.Table:
        """Vectorized: one Arrow lower+split pass, stopword membership
        computed once per DISTINCT token (dictionary encode), per-row
        per-lang hit counts scattered with np.add.at — no Python loop
        over rows or words.  Tie/zero rules match the scalar reference
        implementation exactly (first max in table order; 'unknown'
        when no stopword hits)."""
        n = t.num_rows
        if n == 0:
            return pa.table({self.id_col: t[self.id_col],
                             "pred_lang": pa.array([], pa.string()),
                             "confidence": pa.array([], pa.float64())})
        langs = list(self.tables)
        s = pc.utf8_lower(pc.cast(t[self.text_col], pa.string()))
        lst = pc.split_pattern_regex(s, pattern="[^a-z]+")
        flat = pc.list_flatten(lst)
        parent = pc.list_parent_indices(lst).to_numpy()
        keep = pc.not_equal(flat, "").combine_chunks().to_numpy(
            zero_copy_only=False
        )
        d = pc.dictionary_encode(flat.filter(pc.not_equal(flat, "")))
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        parent = parent[keep]
        codes = d.indices.to_numpy()
        uniq = d.dictionary.to_pylist()
        # distinct-token → lang membership (vocab-sized, not corpus-sized)
        member = np.zeros((len(uniq), len(langs)), dtype=np.int64)
        for li, lang in enumerate(langs):
            table = self.tables[lang]
            member[:, li] = [w in table for w in uniq]
        hits = np.zeros((n, len(langs)), dtype=np.int64)
        np.add.at(hits, parent, member[codes])
        totals = np.bincount(parent, minlength=n)
        best = hits.argmax(axis=1)
        best_hits = hits[np.arange(n), best]
        preds = np.where(best_hits > 0, np.array(langs, dtype=object)[best],
                         "unknown")
        confs = best_hits / np.maximum(1, totals)
        return pa.table(
            {
                self.id_col: t[self.id_col],
                "pred_lang": pa.array(preds.tolist(), pa.string()),
                "confidence": pa.array(confs, pa.float64()),
            }
        )


def lang_id(ds, text_col: str = "text", id_col: str = "doc_id", concurrency: int = 2):
    return ds.map_batches(
        LangId,
        fn_constructor_kwargs=dict(text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def _quality_kernel(s: pa.Array):
    """(n_chars, punct_ratio, digit_ratio, score) numpy vectors for a
    text array — the one formula both quality_score and quality_filter
    (and the SQL oracle) share."""
    n_chars = pc.utf8_length(s)
    stripped_alnum = pc.replace_substring_regex(s, pattern="[a-zA-Z0-9 ]", replacement="")
    punct = pc.utf8_length(stripped_alnum)
    stripped_digit = pc.replace_substring_regex(s, pattern="[^0-9]", replacement="")
    digits = pc.utf8_length(stripped_digit)
    nc = n_chars.to_numpy().astype(np.float64)
    denom = np.maximum(nc, 1.0)
    punct_ratio = punct.to_numpy() / denom
    digit_ratio = digits.to_numpy() / denom
    score = 1.0 / (1.0 + np.exp(-(nc / 100.0 - punct_ratio * 5 - digit_ratio * 5)))
    return n_chars, punct_ratio, digit_ratio, score


def quality_filter(ds, threshold: float, text_col: str = "text"):
    """Schema-preserving quality gate: rows whose quality score
    (the :func:`quality_score` sigmoid) is ≥ ``threshold`` pass.
    One shuffle-free map pass; text keeps flowing to later stages —
    the first gate of a curation chain."""

    def f(t: pa.Table) -> pa.Table:
        _, _, _, score = _quality_kernel(t[text_col].combine_chunks())
        return t.filter(pa.array(score >= threshold))

    return ds.map_batches(f, batch_format="pyarrow")


def quality_score(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Length / punctuation-ratio / digit-ratio quality signals.

    All-Arrow (regex counts via replace+length deltas) so every metric is
    also expressible in the SQL oracle.
    """

    def f(t: pa.Table) -> pa.Table:
        n_chars, punct_ratio, digit_ratio, score = _quality_kernel(
            t[text_col].combine_chunks())
        return pa.table(
            {
                id_col: t[id_col],
                "n_chars": pc.cast(n_chars, pa.int64()),
                "punct_ratio": pa.array(punct_ratio, pa.float64()),
                "digit_ratio": pa.array(digit_ratio, pa.float64()),
                "quality": pa.array(score, pa.float64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def fingerprint(ds, text_col: str = "text", id_col: str = "doc_id",
                window: int = 8):
    """Rolling-hash (Rabin-Karp style) document fingerprint: min of the
    window hashes — a winnowing-style signature, stable under identical
    content (deterministic, no PYTHONHASHSEED)."""
    B = np.uint64(1000003)

    def f(t: pa.Table) -> pa.Table:
        out = np.zeros(t.num_rows, dtype=np.uint64)
        for i, text in enumerate(t[text_col].to_pylist()):
            b = np.frombuffer((text or "").encode("utf-8"), dtype=np.uint8).astype(np.uint64)
            if b.size == 0:
                continue
            if b.size < window:
                h = np.uint64(0)
                for x in b:
                    h = h * B + x
                out[i] = h
                continue
            # vectorized rolling hash: window dot powers, mod 2^64 wrap
            powers = B ** np.arange(window - 1, -1, -1, dtype=np.uint64)
            win = np.lib.stride_tricks.sliding_window_view(b, window)
            hs = (win * powers).sum(axis=1, dtype=np.uint64)
            out[i] = hs.min()
        return pa.table(
            {
                id_col: t[id_col],
                "fingerprint": pa.array(out.astype(np.int64).tolist(), pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


_BPE_PATTERN = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]+"


def token_count_bpe(ds, text_col: str = "text", id_col: str = "doc_id"):
    """BPE-ish token counting: letter runs, digit runs, symbol runs."""

    def f(t: pa.Table) -> pa.Table:
        s = t[text_col].combine_chunks()
        ws = pc.count_substring_regex(s, pattern=r"\S+")
        bpe = pc.count_substring_regex(s, pattern=_BPE_PATTERN)
        return pa.table(
            {
                id_col: t[id_col],
                "ws_tokens": pc.cast(ws, pa.int64()),
                "bpe_tokens": pc.cast(bpe, pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def approx_distinct(ds, col: str, group_col: str | None = None, p: int = 12):
    """HyperLogLog approximate distinct count of ``col`` (optionally per
    ``group_col``) — the sketch path for cardinality at corpus scale.

    Each batch folds its values into 2^p-byte HLL registers per group
    (``functions/sketch.py``) and emits ONE register row per (group,
    batch); the merge is an elementwise max over those rows — KBs of
    shuffle regardless of input size.  Returns a pandas frame
    (group?, approx_distinct).
    """
    import pandas as pd
    import ray

    from ..functions.sketch import HyperLogLog, hash64

    def partial(t: pa.Table) -> pa.Table:
        vals = t[col].to_pylist()
        if group_col is None:
            groups = {"": np.arange(len(vals))}
        else:
            gv = np.asarray(t[group_col].to_pylist(), dtype=object)
            groups = {g: np.flatnonzero(gv == g) for g in set(gv.tolist())}
        out_g, out_r = [], []
        for g, idx in groups.items():
            hll = HyperLogLog(p).add_hashed(
                hash64([str(vals[i]) for i in idx])
            )
            out_g.append(str(g))
            out_r.append(hll.registers.tobytes())
        return pa.table(
            {
                "group": pa.array(out_g, pa.string()),
                "registers": pa.array(out_r, pa.binary()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = []
    for g, rows in parts.groupby("group"):
        hll = HyperLogLog(p)
        for r in rows["registers"]:
            hll.merge(HyperLogLog(p, np.frombuffer(r, dtype=np.uint8)))
        out.append({"group": g, "approx_distinct": int(round(hll.estimate()))})
    res = pd.DataFrame(out).sort_values("group").reset_index(drop=True)
    if group_col is None:
        return res[["approx_distinct"]]
    return res.rename(columns={"group": group_col})


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Gopher-style repetition quality signals (Rae et al. 2021 §A1.1,
    adapted to whitespace n-grams) — per doc:

    * ``top2_frac``  — occurrences of the most frequent word 2-gram /
      total 2-gram occurrences (the "fraction in most common n-gram"
      family);
    * ``dup3_frac``  — (total 3-gram occurrences − distinct 3-grams) /
      total occurrences (the "fraction in duplicate n-grams" family).

    Docs with fewer than ``n`` tokens use the single whole-text shingle
    (the ``dedup._shingles`` convention shared with the SQL oracle);
    zero-token docs emit no row.  One streaming ``map_batches`` pass,
    no shuffle: the Arrow lower+split+``binary_join_element_wise``
    kernel chain of ``dedup.MinHasher`` plus ``np.*.reduceat`` over
    per-doc runs.
    """

    def _gram_counts(t: pa.Table, n: int):
        """(sorted parent row idx, occurrence count) per DISTINCT
        (doc, n-gram) in the batch."""
        nrows = t.num_rows
        s = pc.utf8_lower(pc.cast(t[text_col].combine_chunks(), pa.string()))
        lst = pc.split_pattern_regex(s, pattern=r"\s+")
        flat = pc.list_flatten(lst)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        parent = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        tok_counts = np.bincount(parent, minlength=nrows)

        ps, cs = [], []
        short = np.flatnonzero((tok_counts > 0) & (tok_counts < n))
        if short.size:  # whole-text shingle: one gram, one occurrence
            ps.append(short.astype(np.int64))
            cs.append(np.ones(short.size, dtype=np.int64))
        m = len(flat)
        if m >= n:
            parts = [flat.slice(j, m - n + 1) for j in range(n)]
            joined = pc.binary_join_element_wise(*parts, " ")
            valid = parent[: m - n + 1] == parent[n - 1:]
            cnt = (
                pa.table({
                    "p": pa.array(parent[: m - n + 1][valid]),
                    "sh": joined.filter(pa.array(valid)),
                })
                .group_by(["p", "sh"], use_threads=False)
                .aggregate([("p", "count")])
            )
            ps.append(cnt["p"].to_numpy().astype(np.int64))
            cs.append(cnt["p_count"].to_numpy().astype(np.int64))
        if not ps:
            return (np.empty(0, dtype=np.int64),) * 2
        p = np.concatenate(ps)
        c = np.concatenate(cs)
        order = np.argsort(p, kind="stable")
        return p[order], c[order]

    def _per_doc(p, c):
        """(doc rows, total occurrences, max count, distinct) via
        reduceat over the sorted parent runs."""
        if p.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e, e
        heads = np.concatenate(([0], np.flatnonzero(np.diff(p) != 0) + 1))
        tot = np.add.reduceat(c, heads)
        mx = np.maximum.reduceat(c, heads)
        distinct = np.diff(np.concatenate((heads, [p.size])))
        return p[heads], tot, mx, distinct

    def f(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        p2, c2 = _gram_counts(t, 2)
        p3, c3 = _gram_counts(t, 3)
        d2, tot2, mx2, _ = _per_doc(p2, c2)
        d3, tot3, _, dis3 = _per_doc(p3, c3)
        # every doc with >=1 token appears in BOTH gram passes (the
        # whole-text fallback guarantees it), in the same row order
        assert np.array_equal(d2, d3)
        return pa.table({
            "doc_id": pa.array(ids[d2]),
            "top2_frac": pa.array(mx2 / tot2),
            "dup3_frac": pa.array((tot3 - dis3) / tot3),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def top_tokens(ds, k: int = 30, capacity: int = 100_000,
               text_col: str = "text"):
    """Corpus-wide top-k tokens via the mergeable Misra-Gries summary
    (`functions/sketch.py::mg_truncate`): each batch reduces to
    ≤ ``capacity`` (term, cnt) rows — exact Arrow counts truncated by
    the (capacity+1)-th-largest subtraction — then one small
    ``groupby(term).sum`` shuffle of capacity-bounded partials and a
    top-k sort.  With ``capacity`` ≥ distinct terms the result is exact
    (the oracle configuration); below it, counts are within
    N/(capacity+1) of truth (Misra-Gries bound), which at 100 TB keeps
    the shuffle at MBs instead of the full term stream.

    Tokenization matches the token_stats SQL oracle: lower + split on
    ``[^a-z0-9]+`` + drop empties.  Ties break (cnt desc, term asc).
    """
    from ..functions.sketch import mg_truncate

    def partial(t: pa.Table) -> pa.Table:
        s = pc.utf8_lower(pc.cast(t[text_col].combine_chunks(), pa.string()))
        toks = pc.list_flatten(
            pc.split_pattern_regex(s, pattern="[^a-z0-9]+"))
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        toks = toks.filter(pc.not_equal(toks, ""))
        if len(toks) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        cnt = (
            pa.table({"term": toks})
            .group_by("term", use_threads=False)
            .aggregate([("term", "count")])
        )
        items, counts = mg_truncate(
            np.asarray(cnt["term"].to_pylist(), dtype=object),
            cnt["term_count"].to_numpy().astype(np.int64),
            capacity,
        )
        return pa.table({"term": pa.array(items.astype(str)),
                         "cnt": pa.array(counts)})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .sum("cnt")
        .sort(["sum(cnt)", "term"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    agg = agg.rename(columns={"sum(cnt)": "cnt"})
    agg["rank"] = np.arange(1, len(agg) + 1, dtype=np.int64)
    return agg[["rank", "term", "cnt"]]


def top_tokens_by_group(ds, k: int = 10, capacity: int = 100_000,
                        text_col: str = "text", group_col: str = "lang"):
    """Top-k tokens PER GROUP (e.g. per language) — the data-mixing
    vocabulary audit (`row_number() OVER (PARTITION BY lang ORDER BY
    cnt DESC, term) <= k` over token counts).

    Same tokenization + Misra-Gries truncation as :func:`top_tokens`,
    keyed by (group, term): each batch reduces to ≤ ``capacity``
    (group, term, cnt) rows per group it contains, the partials merge
    through ONE ``groupby(group<US>term).sum`` exchange (keys fused
    into one string so the exchange has a single hash column), and the
    per-group k-selection rides :func:`relational.grouped_topk`'s
    distributed merge — nothing group- or vocabulary-sized lands on
    the driver.  Exact when ``capacity`` ≥ distinct terms per group
    per batch (the oracle configuration); below it, per-group counts
    obey the Misra-Gries N_g/(capacity+1) bound.

    Ties break (cnt desc, term asc); output (group, rank, term, cnt)
    sorted (group, rank).
    """
    from ..functions.sketch import mg_truncate
    from .relational import grouped_topk

    SEP = "\x1f"

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"key": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        s = pc.utf8_lower(pc.cast(t[text_col].combine_chunks(), pa.string()))
        lst = pc.split_pattern_regex(s, pattern="[^a-z0-9]+")
        flat = pc.list_flatten(lst)
        parent = pc.list_parent_indices(lst)
        mask = pc.not_equal(flat, "")
        flat = flat.filter(mask)
        parent = parent.filter(mask)
        grp = pc.take(pc.cast(t[group_col].combine_chunks(), pa.string()),
                      parent)
        cnt = (
            pa.table({"grp": grp, "term": flat})
            .group_by(["grp", "term"], use_threads=False)
            .aggregate([("term", "count")])
        )
        if cnt.num_rows == 0:
            return empty
        gs = np.asarray(cnt["grp"].to_pylist(), dtype=object)
        terms = np.asarray(cnt["term"].to_pylist(), dtype=object)
        counts = cnt["term_count"].to_numpy().astype(np.int64)
        order = np.argsort(gs, kind="stable")
        gs, terms, counts = gs[order], terms[order], counts[order]
        heads = np.concatenate(
            ([0], np.flatnonzero(gs[1:] != gs[:-1]) + 1, [gs.size]))
        out_k, out_c = [], []
        for s0, e0 in zip(heads[:-1], heads[1:]):
            it, ct = mg_truncate(terms[s0:e0], counts[s0:e0], capacity)
            out_k.append(np.char.add(str(gs[s0]) + SEP, it.astype(str)))
            out_c.append(ct)
        return pa.table({
            "key": pa.array(np.concatenate(out_k)),
            "cnt": pa.array(np.concatenate(out_c)),
        })

    merged = (
        ds.select_columns([group_col, text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .sum("cnt")
    )

    def unfuse(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["key"].combine_chunks(), SEP,
                                 max_splits=1)
        return pa.table({
            "grp": pc.list_element(parts, 0),
            "term": pc.list_element(parts, 1),
            "cnt": pc.cast(t["sum(cnt)"].combine_chunks(), pa.int64()),
        })

    top = grouped_topk(merged.map_batches(unfuse, batch_format="pyarrow"),
                       "grp", "cnt", k, id_col="term")
    top = top.rename(columns={"grp": group_col})
    top["rank"] = (top.groupby(group_col, sort=False).cumcount() + 1) \
        .astype(np.int64)
    return top[[group_col, "rank", "term", "cnt"]].reset_index(drop=True)


def vocab_stats(ds, text_col: str = "text"):
    """Corpus vocabulary health in ONE term exchange: total token
    count, type (distinct-term) count, hapax-legomenon count (terms
    seen exactly once — the OOV/noise signal a tokenizer audit reads
    first) and the type-token ratio.

    Per-batch exact Arrow (term, cnt) partials → ONE
    ``groupby(term).sum`` exchange → each merged block reduces to a
    single (n_types, n_hapax, n_tokens) row, so only O(#blocks) rows
    reach the driver.  Tokenization matches the token_stats oracle
    (lower + split ``[^a-z0-9]+`` + drop empties).
    """

    def partial(t: pa.Table) -> pa.Table:
        s = pc.utf8_lower(pc.cast(t[text_col].combine_chunks(), pa.string()))
        toks = pc.list_flatten(
            pc.split_pattern_regex(s, pattern="[^a-z0-9]+"))
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        toks = toks.filter(pc.not_equal(toks, ""))
        if len(toks) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        cnt = (
            pa.table({"term": toks})
            .group_by("term", use_threads=False)
            .aggregate([("term", "count")])
        )
        return pa.table({"term": cnt["term"],
                         "cnt": pc.cast(cnt["term_count"], pa.int64())})

    def block_stats(t: pa.Table) -> pa.Table:
        c = t["sum(cnt)"].to_numpy()
        return pa.table({
            "n_tokens": pa.array([int(c.sum())], pa.int64()),
            "n_types": pa.array([t.num_rows], pa.int64()),
            "n_hapax": pa.array([int((c == 1).sum())], pa.int64()),
        })

    parts = (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .sum("cnt")
        .map_batches(block_stats, batch_format="pyarrow")
        .to_pandas()
    )
    tot = parts.sum()
    n_tokens = int(tot["n_tokens"])
    n_types = int(tot["n_types"])
    return pd.DataFrame({
        "n_tokens": [n_tokens],
        "n_types": [n_types],
        "n_hapax": [int(tot["n_hapax"])],
        "type_token_ratio": [round(n_types / max(n_tokens, 1), 6)],
    })


def ngram_counts(ds, n: int = 2, text_col: str = "text",
                 min_count: int = 1):
    """Corpus n-gram frequency counts (the KenLM / corpus-statistics
    shape): tokenize (same ``[^a-z0-9]+`` convention as
    :func:`token_stats`), form every run of ``n`` consecutive tokens
    within a document, and count occurrences corpus-wide.

    Scale shape: each batch tokenizes and pre-aggregates its own
    (ngram, count) partials with an Arrow ``group_by`` (the combiner),
    so the ONE ``groupby(ngram)`` exchange ships at most
    vocab-per-batch rows, never token-cardinality rows.  N-gram
    assembly is a single ``binary_join_element_wise`` over n shifted
    slices of the flattened token array — no Python loop over tokens.
    """
    from ray.data.aggregate import Sum

    if n < 1:
        raise ValueError("n must be >= 1")

    def partial(t: pa.Table) -> pa.Table:
        lst = pc.split_pattern_regex(
            pc.utf8_lower(t[text_col].combine_chunks()), pattern="[^a-z0-9]+"
        )
        flat = pc.list_flatten(lst)
        parent = pc.list_parent_indices(lst)
        mask = pc.not_equal(flat, "")
        flat = flat.filter(mask)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        parent = parent.filter(mask).to_numpy()
        L = len(flat)
        empty = pa.table({"ngram": pa.array([], pa.string()),
                          "p_cnt": pa.array([], pa.int64())})
        if L < n:
            return empty
        m = L - n + 1
        parts = [flat.slice(i, m) for i in range(n)]
        grams = pc.binary_join_element_wise(*parts, " ")
        # a run is valid only when all n tokens share a document
        valid = parent[: m] == parent[n - 1:]
        grams = grams.filter(pa.array(valid))
        if len(grams) == 0:
            return empty
        g = (pa.table({"ngram": grams})
             .group_by(["ngram"], use_threads=False)
             .aggregate([("ngram", "count")]))
        return pa.table({"ngram": g["ngram"],
                         "p_cnt": pc.cast(g["ngram_count"], pa.int64())})

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("ngram")
        .aggregate(Sum("p_cnt", alias_name="cnt"))
    )
    if min_count > 1:
        counts = counts.map_batches(
            lambda t: t.filter(pc.greater_equal(t["cnt"], min_count)),
            batch_format="pyarrow",
        )
    return counts


def lm_score(ds, text_col: str = "text", id_col: str = "doc_id",
             min_count: int = 2):
    """Bigram language-model document scoring — the CCNet/KenLM
    quality-filter shape: build corpus bigram/unigram counts, then
    score every document by its average conditional log-probability
    ``mean(ln c(w1 w2) − ln c(w1))`` over bigrams whose count survives
    ``min_count`` pruning.  Returns ``(id_col, n_known, lp)`` rows for
    EVERY document (``n_known`` = scored bigram positions; ``lp`` null
    when none).

    Scale shape: the LM build is ONE fused counting pass — each batch
    tokenizes once and emits its unigram AND bigram combiner partials
    into the same key space (tokens cannot contain spaces, so the two
    populations stay distinct through one ``groupby(ngram)`` exchange
    instead of two full passes).  The pruned tables are vocab-bounded
    — ``min_count`` caps them at corpus_tokens/min_count entries — so
    they gather to the driver, the per-bigram log-ratio is precomputed
    ONCE there (a bigram that survives pruning implies its first
    unigram did: c1 ≥ c2), and the (bigram → lp) table broadcasts via
    ``ray.put`` into a stateless scoring ``map_batches`` pass:
    vectorized Arrow hash-table lookup (``pc.index_in`` — no Python
    string objects in the hot path) + ``np.bincount`` per-doc
    reduction.  No per-row Python in the hot
    path; the reference's closest analog is the static-prior score
    hook (``imp/es/IndexHolder.java``).
    """
    import ray
    from ray.data.aggregate import Sum

    def both_partials(t: pa.Table) -> pa.Table:
        # one tokenize, two combiner aggregations (unigram + bigram)
        lst = pc.split_pattern_regex(
            pc.utf8_lower(t[text_col].combine_chunks()),
            pattern="[^a-z0-9]+")
        flat = pc.list_flatten(lst)
        parent = pc.list_parent_indices(lst)
        mask = pc.not_equal(flat, "")
        flat = flat.filter(mask)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        parent = parent.filter(mask).to_numpy()
        L = len(flat)
        grams = [flat]
        if L >= 2:
            m = L - 1
            bi = pc.binary_join_element_wise(
                flat.slice(0, m), flat.slice(1, m), " ")
            grams.append(bi.filter(pa.array(parent[:m] == parent[1:])))
        g = (pa.table({"ngram": pa.concat_arrays(
                [a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                 else a for a in grams])})
             .group_by(["ngram"], use_threads=False)
             .aggregate([("ngram", "count")]))
        return pa.table({"ngram": g["ngram"],
                         "p_cnt": pc.cast(g["ngram_count"], pa.int64())})

    counts = (
        ds.map_batches(both_partials, batch_format="pyarrow")
        .groupby("ngram")
        .aggregate(Sum("p_cnt", alias_name="cnt"))
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["cnt"], min_count)),
            batch_format="pyarrow")
        .to_pandas()
    )
    is_bi = counts["ngram"].str.contains(" ", regex=False)
    big, uni = counts[is_bi], counts[~is_bi]
    c1 = pd.Series(uni["cnt"].to_numpy(np.float64),
                   index=pd.Index(uni["ngram"]))
    w1 = big["ngram"].str.partition(" ")[0]
    lp = np.log(big["cnt"].to_numpy(np.float64)) - np.log(
        c1.reindex(w1).to_numpy())
    ref = ray.put((pa.array(big["ngram"], pa.string()), lp))

    class Score:
        def __init__(self):
            self.vocab, self.lp = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            nrows = t.num_rows
            schema = pa.schema([
                pa.field(id_col, pa.int64()),
                pa.field("n_known", pa.int64()),
                pa.field("lp", pa.float64()),
            ])
            if nrows == 0:
                return schema.empty_table()
            lst = pc.split_pattern_regex(
                pc.utf8_lower(t[text_col].combine_chunks()),
                pattern="[^a-z0-9]+")
            flat = pc.list_flatten(lst)
            parent = pc.list_parent_indices(lst)
            mask = pc.not_equal(flat, "")
            flat = flat.filter(mask)
            if isinstance(flat, pa.ChunkedArray):
                flat = flat.combine_chunks()
            parent = parent.filter(mask).to_numpy()
            L = len(flat)
            n_known = np.zeros(nrows, np.int64)
            lpsum = np.zeros(nrows, np.float64)
            if L >= 2:
                m = L - 1
                grams = pc.binary_join_element_wise(
                    flat.slice(0, m), flat.slice(1, m), " ")
                valid = parent[:m] == parent[1:]
                grams = grams.filter(pa.array(valid))
                gparent = parent[:m][valid]
                pos = pc.fill_null(
                    pc.index_in(grams, value_set=self.vocab), -1
                ).to_numpy().astype(np.int64)
                known = pos >= 0
                n_known = np.bincount(gparent[known],
                                      minlength=nrows).astype(np.int64)
                lpsum = np.bincount(gparent[known],
                                    weights=self.lp[pos[known]],
                                    minlength=nrows)
            has = n_known > 0
            avg = np.divide(lpsum, n_known, out=np.zeros(nrows),
                            where=has)
            return pa.table([
                t[id_col], pa.array(n_known),
                pa.array(avg, mask=~has),
            ], schema=schema)

    return ds.select_columns([id_col, text_col]).map_batches(
        Score, batch_format="pyarrow", concurrency=(2, 16)
    )


def char_entropy(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-document character (codepoint) Shannon entropy — the
    classic binary-junk / low-diversity quality signal (low-entropy
    docs are padding, generated repetition or base64-ish blobs;
    Gopher/C4-style filters threshold on it).

    Shuffle-free single pass.  The kernel is vectorized per BATCH, not
    per row: all texts decode into one uint32 codepoint array
    (UTF-32LE view), a single lexsort groups (row, codepoint) runs and
    one subtract/reduceat cascade yields per-run counts → per-row
    -Σ p·log2 p.  Empty docs are skipped (entropy undefined), matching
    the SQL oracle's ``WHERE length(text) > 0``.

    Columns out: (id_col, n_chars int64, entropy float64).
    """

    def kernel(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        ids = t[id_col].to_numpy()
        lens = np.array([len(x) if x else 0 for x in texts],
                        dtype=np.int64)
        keep = lens > 0
        if not keep.any():
            return pa.table({id_col: pa.array([], t[id_col].type),
                             "n_chars": pa.array([], pa.int64()),
                             "entropy": pa.array([], pa.float64())})
        joined = "".join(texts)
        codes = np.frombuffer(
            joined.encode("utf-32-le"), dtype=np.uint32)
        rows = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        order = np.lexsort((codes, rows))
        rs, cs = rows[order], codes[order]
        # run starts: row change OR codepoint change
        starts = np.empty(cs.size, dtype=bool)
        starts[0] = True
        np.not_equal(cs[1:], cs[:-1], out=starts[1:])
        starts[1:] |= rs[1:] != rs[:-1]
        start_idx = np.flatnonzero(starts)
        run_counts = np.diff(np.append(start_idx, cs.size))
        run_rows = rs[start_idx]
        p = run_counts / lens[run_rows]
        contrib = -p * np.log2(p)
        ent = np.zeros(len(texts), dtype=np.float64)
        np.add.at(ent, run_rows, contrib)
        return pa.table({
            id_col: pa.array(ids[keep]),
            "n_chars": pa.array(lens[keep]),
            "entropy": pa.array(ent[keep], pa.float64()),
        })

    return ds.map_batches(kernel, batch_format="pyarrow")
