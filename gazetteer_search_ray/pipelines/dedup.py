"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

The reference's only dedup is first-wins distinct-by-name (M15/Q11);
training-data pipelines at 100 TB need the full family.  Design rules
(all candidate generation is DISTRIBUTED — nothing O(corpus) ever lands
on the driver):

* signatures are computed per batch, fully vectorized (one blake2b per
  token via a cached vocabulary dict, then numpy for the permutations);
* banding is a ``sort(band_key)`` range exchange of SMALL
  ``(band_key, doc_id)`` rows (16 B each — document text and the full
  signatures never travel through the shuffle); within-bucket pairs are
  expanded vectorized per sorted block, with only the runs that straddle
  block boundaries passing through to a tiny driver-side merge — the
  exact pattern the postings merge uses (``stages/postings.py:78-128``);
* verification gathers signatures / shingle sets ONLY for docs that
  appear in a candidate pair: the candidate id set is broadcast with
  ``ray.put`` and each signature batch filters itself down before
  anything is collected.  Driver memory is O(candidate pairs) — the
  operator's own output size — never O(corpus).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _join_partitions

_MERSENNE = np.uint64((1 << 61) - 1)
_FNV = np.uint64(1099511628211)

# One tokenizer for the scalar fallbacks AND the Arrow hot path: RE2's
# \s is ASCII-only ([\t\n\f\r ]), while Python's str.split() breaks on
# full Unicode whitespace — a NBSP-bearing doc would otherwise shingle
# differently depending on which path classified it (and diverge from
# the RE2-based DuckDB oracle).
_WS_RE = re.compile(r"[\t\n\f\r ]+")

# Shingle/token hash caches are per-actor and long-lived; 3-gram
# shingles are nearly all unique across documents, so an unbounded
# cache accumulates roughly the actor's entire input text.  Once full,
# misses are hashed per batch (still one vectorized `_stable_hash64`
# call) and simply not remembered.
_CACHE_CAP = 1 << 20


def _cached_hash64(cache: dict[str, int], strings: list[str]) -> np.ndarray:
    """md5-64 of ``strings`` through a size-capped cache: hits read the
    dict, misses hash in ONE batched call and are cached only while the
    cap allows."""
    miss = [s for s in strings if s not in cache]
    if miss:
        hs = _stable_hash64(miss)
        if len(cache) + len(miss) <= _CACHE_CAP:
            for s, h in zip(miss, hs):
                cache[s] = int(h)
        else:  # cap reached: answer from a batch-local overlay
            local = dict(zip(miss, hs))
            out = np.empty(len(strings), dtype=np.uint64)
            for i, s in enumerate(strings):
                v = cache.get(s)
                out[i] = local[s] if v is None else v
            return out
    return np.array([cache[s] for s in strings], dtype=np.uint64)


def _stable_hash64(tokens: list[str]) -> np.ndarray:
    """md5-derived 64-bit token hash — bytes [8:16] of the digest,
    little-endian, which is exactly DuckDB's ``md5_number_lower``; the
    SQL oracles reproduce every signature bit-for-bit from this."""
    return np.array(
        [
            int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
            for t in tokens
        ],
        dtype=np.uint64,
    )


def _shingles(text: str, n: int) -> list[str]:
    toks = [w for w in _WS_RE.split((text or "").lower()) if w]
    if len(toks) < n:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def add_sha256(ds, text_col: str = "text", out_col: str = "sha256"):
    def f(t: pa.Table) -> pa.Table:
        hs = [
            hashlib.sha256((x or "").encode("utf-8", "surrogatepass")).hexdigest()
            for x in t[text_col].to_pylist()
        ]
        return t.append_column(out_col, pa.array(hs, pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")


def dedup_exact(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Hash-partitioned exact dedup: keeper (min id) + group size per
    distinct content hash.  The groupby ships 80-byte hash rows, never
    the content."""
    from ray.data.aggregate import Count, Min

    hashed = add_sha256(ds.select_columns([id_col, text_col]), text_col)
    return (
        hashed.select_columns([id_col, "sha256"])
        .groupby("sha256")
        .aggregate(Min(id_col, alias_name=id_col), Count(alias_name="dup_count"))
    )


def drop_exact_duplicates(ds, text_col: str = "text", id_col: str = "doc_id",
                          broadcast_limit: int = 50_000_000):
    """The corpus after exact dedup: only the keeper (min id) row of
    each distinct content hash survives.

    Keeper ids come from :func:`dedup_exact` (hash-only shuffle).  Under
    ``broadcast_limit`` keepers the id set broadcasts (8 B/doc) and the
    corpus filters itself in one streaming pass; above it, a hash-shuffle
    ``Dataset.join`` semi-join keeps everything distributed.
    """
    import ray

    keepers = dedup_exact(ds, text_col, id_col).select_columns([id_col])
    keepers = keepers.materialize()
    if keepers.count() <= broadcast_limit:
        ids = np.sort(
            np.concatenate(
                # skip zero-row blocks: upstream row-filters can emit
                # schema-less empty blocks whose column lookup raises
                [t[id_col].to_numpy()
                 for t in ray.get(keepers.to_arrow_refs()) if t.num_rows]
                or [np.empty(0, np.int64)]
            )
        ).astype(np.int64)
        ref = ray.put(ids)

        def keep(t: pa.Table) -> pa.Table:
            wanted = ray.get(ref)
            dv = t[id_col].to_numpy()
            if wanted.size == 0:
                return t.slice(0, 0)
            idx = np.minimum(np.searchsorted(wanted, dv), wanted.size - 1)
            return t.filter(pa.array(wanted[idx] == dv))

        return ds.map_batches(keep, batch_format="pyarrow")

    jk = id_col + "__keep"
    keyed = keepers.map_batches(
        lambda t: t.rename_columns([jk]), batch_format="pyarrow"
    )
    joined = ds.join(keyed, join_type="inner",
                     num_partitions=_join_partitions(),
                     on=(id_col,), right_on=(jk,))
    return joined.map_batches(
        lambda t: t.drop_columns([jk]) if jk in t.column_names else t,
        batch_format="pyarrow",
    )


class MinHasher:
    """Per-batch MinHash signatures (actor state: permutation params +
    the distinct-shingle hash cache).

    Fully vectorized: one Arrow lower+split pass over the batch,
    shingles built with ``binary_join_element_wise`` over shifted token
    slices, md5-64 computed once per DISTINCT shingle (cache persists
    across batches), and the (a·h+b) mod p permutation minima taken
    with ``np.minimum.reduceat`` over doc runs — no Python loop over
    rows in the hot path (the scalar ``_sig`` fallback remains for the
    <3-token and non-vectorizable edge rows).
    """

    def __init__(self, num_perm: int = 64, shingle_n: int = 3,
                 text_col: str = "text", id_col: str = "doc_id", seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_n = shingle_n
        self.text_col = text_col
        self.id_col = id_col
        self._token_cache: dict[str, int] = {}

    def _sig(self, text: str) -> np.ndarray:
        sh = set(_shingles(text, self.shingle_n))
        if not sh:
            return np.full(self.num_perm, np.iinfo(np.int64).max, dtype=np.uint64)
        hs = _cached_hash64(self._token_cache, list(sh))
        # universal hashing family (a*h + b) mod p, min per permutation
        vals = (hs[None, :] * self.a[:, None] + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1)

    def _hash_distinct(self, shingles: list[str]) -> np.ndarray:
        return _cached_hash64(self._token_cache, shingles)

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = t.num_rows
        ids = t[self.id_col].to_numpy().astype(np.int64)
        out = np.full((n, self.num_perm), np.iinfo(np.int64).max,
                      dtype=np.uint64)

        s = pc.utf8_lower(pc.cast(t[self.text_col].combine_chunks(),
                                  pa.string()))
        lst = pc.split_pattern_regex(s, pattern=r"\s+")
        flat = pc.list_flatten(lst)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        parent = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        tok_counts = np.bincount(parent, minlength=n)

        nsh = self.shingle_n
        texts = None
        short = np.flatnonzero((tok_counts > 0) & (tok_counts < nsh))
        if short.size:  # rare rows: <n tokens → single whole-text shingle
            texts = t[self.text_col].to_pylist()
            for i in short:
                out[i] = self._sig(texts[i])

        m = len(flat)
        if m >= nsh:
            # shingle rows: join token[i..i+n-1] where all share a parent
            parts = [flat.slice(j, m - nsh + 1) for j in range(nsh)]
            joined = pc.binary_join_element_wise(*parts, " ")
            valid = parent[: m - nsh + 1] == parent[nsh - 1 :]
            sh_tbl = (
                pa.table(
                    {
                        "p": pa.array(parent[: m - nsh + 1][valid]),
                        "sh": joined.filter(pa.array(valid)),
                    }
                )
                .group_by(["p", "sh"], use_threads=False)
                .aggregate([])
            )
            p_arr = sh_tbl["p"].to_numpy()
            order = np.argsort(p_arr, kind="stable")
            p_arr = p_arr[order]
            hs = self._hash_distinct(sh_tbl["sh"].to_pylist())[order]
            if p_arr.size:
                heads = np.concatenate(
                    ([0], np.flatnonzero(np.diff(p_arr) != 0) + 1)
                )
                vals = (hs[None, :] * self.a[:, None] + self.b[:, None]) % _MERSENNE
                mins = np.minimum.reduceat(vals, heads, axis=1)
                out[p_arr[heads]] = mins.T

        sig_list = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * self.num_perm, self.num_perm,
                               dtype=np.int32)),
            pa.array(out.astype(np.int64).ravel()),
        )
        return pa.table({self.id_col: pa.array(ids), "sig": sig_list})


def minhash_signatures(ds, num_perm=64, shingle_n=3, text_col="text",
                       id_col="doc_id", concurrency=(2, 16)):
    return ds.map_batches(
        MinHasher,
        fn_constructor_kwargs=dict(
            num_perm=num_perm, shingle_n=shingle_n,
            text_col=text_col, id_col=id_col,
        ),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def _pairs_from_buckets(keys: np.ndarray, ids: np.ndarray,
                        max_bucket: int = 1000) -> np.ndarray:
    """All within-bucket (a<b) pairs, vectorized: sort by key, detect
    runs, expand each run's upper triangle.  NEVER a per-group Python
    callback — Ray's map_groups costs ~10ms/group, fatal at 10^4+
    buckets (measured)."""
    order = np.lexsort((ids, keys))
    k, i = keys[order], ids[order]
    heads = np.concatenate(([0], np.flatnonzero(np.diff(k) != 0) + 1, [k.size]))
    out_a, out_b = [], []
    for s, e in zip(heads[:-1], heads[1:]):
        n = e - s
        if n < 2 or n > max_bucket:
            continue
        ia, ib = np.triu_indices(n, k=1)
        out_a.append(i[s + ia])
        out_b.append(i[s + ib])
    if not out_a:
        return np.empty((0, 2), dtype=np.int64)
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


# ---------------------------------------------------------------------------
# distributed band-bucket pair generation (the LSH shuffle)
# ---------------------------------------------------------------------------

_PAIR, _BOUNDARY = 0, 1
_MIXED_SCHEMA = pa.schema(
    [("kind", pa.int8()), ("a", pa.int64()), ("b", pa.int64())]
)


class _RunPairEmitter:
    """``map_batches`` stage over (band_key)-sorted rows: expands every
    COMPLETE key-run into its within-bucket pairs in one numpy pass and
    passes the first/last runs — the only ones that may straddle sorted
    block boundaries — through as boundary rows (postings-merge pattern,
    ``stages/postings.py:78-128``)."""

    def __init__(self, max_bucket: int = 1000):
        self.max_bucket = max_bucket

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _MIXED_SCHEMA.empty_table()
        keys = t["bkey"].to_numpy()
        ids = t["doc_id"].to_numpy()
        heads = np.concatenate(([0], np.flatnonzero(np.diff(keys) != 0) + 1,
                                [keys.size]))
        if heads.size <= 3:  # ≤2 runs: everything may straddle a boundary
            return pa.table(
                {
                    "kind": pa.array(np.full(keys.size, _BOUNDARY, np.int8)),
                    "a": pa.array(keys.astype(np.int64)),
                    "b": pa.array(ids.astype(np.int64)),
                },
                schema=_MIXED_SCHEMA,
            )
        lo, hi = int(heads[1]), int(heads[-2])
        pairs = _pairs_from_buckets(keys[lo:hi], ids[lo:hi], self.max_bucket)
        bmask = np.ones(keys.size, dtype=bool)
        bmask[lo:hi] = False
        bidx = np.flatnonzero(bmask)
        kind = np.concatenate(
            [
                np.full(pairs.shape[0], _PAIR, np.int8),
                np.full(bidx.size, _BOUNDARY, np.int8),
            ]
        )
        a = np.concatenate([pairs[:, 0], keys[bidx].astype(np.int64)])
        b = np.concatenate([pairs[:, 1], ids[bidx].astype(np.int64)])
        return pa.table(
            {"kind": pa.array(kind), "a": pa.array(a), "b": pa.array(b)},
            schema=_MIXED_SCHEMA,
        )


def _pairs_from_band_rows(band_ds, max_bucket: int = 1000,
                          n_rows_hint: int | None = None,
                          small_limit: int = 200_000) -> np.ndarray:
    """(band_key, doc_id) Dataset → unique candidate (a<b) pair array.

    Distributed: ``sort(bkey)`` range exchange, vectorized run expansion
    per sorted block; only boundary runs (O(#blocks) rows) reach the
    driver.  The collected pair set is the operator's own output —
    bounded by the number of near-duplicates, not the corpus.

    Small inputs (``n_rows_hint`` ≤ ``small_limit`` band rows, i.e.
    ≤ ~12k docs at 16 bands) skip the sort exchange: the 16-byte band
    rows collect once and expand in a single vectorized pass — exact
    same output, none of the toy-scale shuffle overhead (round-2
    finding: the exchange cost ~3× at sf0.1)."""
    if n_rows_hint is not None and n_rows_hint <= small_limit:
        small = band_ds.to_pandas()
        if small.empty:
            return np.empty((0, 2), dtype=np.int64)
        return _pairs_from_buckets(
            small["bkey"].to_numpy(np.int64),
            small["doc_id"].to_numpy(np.int64),
            max_bucket,
        )
    emitter = _RunPairEmitter(max_bucket)  # stateless → task pool, no
    # actor spin-up (the emitter object is just a max_bucket closure)
    mixed = (
        band_ds.sort("bkey")
        .map_batches(lambda t: emitter(t), batch_format="pyarrow")
        .to_pandas()
    )
    if mixed.empty:
        return np.empty((0, 2), dtype=np.int64)
    is_pair = mixed["kind"].to_numpy() == _PAIR
    pair_part = mixed.loc[is_pair, ["a", "b"]].to_numpy(dtype=np.int64)
    bnd = mixed.loc[~is_pair]
    parts = [pair_part] if pair_part.size else []
    if len(bnd):
        bp = _pairs_from_buckets(
            bnd["a"].to_numpy(np.int64), bnd["b"].to_numpy(np.int64), max_bucket
        )
        if bp.size:
            parts.append(bp)
    if not parts:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(np.concatenate(parts), axis=0)


def _gather_rows(ds, id_col: str, ids: np.ndarray, cols: list[str]) -> pd.DataFrame:
    """Collect ``cols`` for the rows whose id ∈ ``ids`` (broadcast id
    set, distributed filter, candidate-bounded collect)."""
    import ray

    ids = np.unique(ids).astype(np.int64)
    ref = ray.put(ids)

    def filt(t: pa.Table) -> pa.Table:
        wanted = ray.get(ref)  # plasma-local zero-copy read per task
        dv = t[id_col].to_numpy()
        if wanted.size == 0:
            mask = np.zeros(dv.size, dtype=bool)
        else:
            idx = np.minimum(np.searchsorted(wanted, dv), wanted.size - 1)
            mask = wanted[idx] == dv
        return t.select(cols).filter(pa.array(mask))

    return ds.map_batches(filt, batch_format="pyarrow").to_pandas()


def _band_keys(sig_mat: np.ndarray, bands: int) -> np.ndarray:
    """(n, num_perm) signatures → (n, bands) int64 band-bucket keys.
    FNV fold of each band slice, salted by band index (a collision
    across bands or across different band values needs a 63-bit hash
    collision — negligible, and any false candidate it created would
    still face signature verification)."""
    n, num_perm = sig_mat.shape
    rows_per = num_perm // bands
    keys = np.empty((n, bands), dtype=np.int64)
    u = sig_mat.astype(np.uint64)
    for b in range(bands):
        acc = np.full(n, np.uint64(14695981039346656037), dtype=np.uint64)
        acc = (acc * _FNV) + np.uint64(b + 1)
        for c in range(b * rows_per, (b + 1) * rows_per):
            acc = acc * _FNV + u[:, c]
        keys[:, b] = (acc >> np.uint64(1)).astype(np.int64)  # keep positive
    return keys


def minhash_lsh_pairs(
    ds,
    num_perm: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    threshold: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Near-duplicate candidate pairs with estimated Jaccard ≥ threshold.

    shingle → minhash (distributed ``map_batches`` actor pool, the heavy
    stage) → band rows ``(band_key, doc_id)`` → ``sort(band_key)``
    shuffle → vectorized within-bucket pair expansion per sorted block →
    signature verification over ONLY the docs that appear in a candidate
    pair (broadcast id set + distributed filter).  Driver memory is
    O(candidate pairs); the full signature table never leaves the
    cluster.  Returns columns (doc_a, doc_b, est_jaccard), doc_a < doc_b.
    """
    sigs = minhash_signatures(ds, num_perm, shingle_n, text_col, id_col)

    def emit_bands(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"bkey": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        ids = t[id_col].to_numpy()
        sig_mat = np.asarray(t["sig"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False)).reshape(n, num_perm)
        keys = _band_keys(sig_mat, bands)
        return pa.table(
            {
                "bkey": pa.array(keys.ravel()),
                "doc_id": pa.array(np.repeat(ids, bands)),
            }
        )

    # signatures are consumed twice (banding + verification); keep the
    # computed table instead of re-hashing the corpus
    sigs = sigs.materialize()
    band_ds = sigs.map_batches(emit_bands, batch_format="pyarrow")
    pairs = _pairs_from_band_rows(band_ds, n_rows_hint=sigs.count() * bands)

    empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                          "doc_b": pd.Series([], dtype="int64"),
                          "est_jaccard": pd.Series([], dtype="float64")})
    if pairs.size == 0:
        return empty

    cand = _gather_rows(sigs, id_col, pairs.ravel(), [id_col, "sig"])
    cand_ids = cand[id_col].to_numpy(np.int64)
    order = np.argsort(cand_ids)
    cand_ids = cand_ids[order]
    sig_mat = np.array(cand["sig"].tolist(), dtype=np.int64)[order]
    ia = np.searchsorted(cand_ids, pairs[:, 0])
    ib = np.searchsorted(cand_ids, pairs[:, 1])
    est = (sig_mat[ia] == sig_mat[ib]).mean(axis=1)
    keep = est >= threshold
    return (
        pd.DataFrame(
            {"doc_a": pairs[keep, 0], "doc_b": pairs[keep, 1], "est_jaccard": est[keep]}
        )
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


class SimHasher:
    """64-bit SimHash over token hashes (actor-pool stage).

    Vectorized like :class:`MinHasher`: one Arrow lower+split pass,
    the ±1 bit matrix computed once per DISTINCT token (dictionary
    encode; cache persists across batches), per-doc bit sums scattered
    with ``np.add.at`` — token multiplicity preserved, matching the
    scalar definition and the SQL oracle exactly.
    """

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self._cache: dict[str, int] = {}

    def _hash(self, text: str) -> int:
        """Scalar reference implementation (differential-tested against
        the vectorized ``__call__``)."""
        toks = [w for w in _WS_RE.split((text or "").lower()) if w]
        if not toks:
            return 0
        hs = _cached_hash64(self._cache, toks)
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
            np.int64
        )
        v = (2 * bits - 1).sum(axis=0)
        return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = t.num_rows
        out = np.zeros(n, dtype=np.uint64)
        if n:
            s = pc.utf8_lower(pc.cast(t[self.text_col].combine_chunks(),
                                      pa.string()))
            lst = pc.split_pattern_regex(s, pattern=r"\s+")
            flat = pc.list_flatten(lst)
            if isinstance(flat, pa.ChunkedArray):
                flat = flat.combine_chunks()
            parent = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
            keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
            parent = parent[keep]
            d = pc.dictionary_encode(flat.filter(pa.array(keep)))
            if isinstance(d, pa.ChunkedArray):
                d = d.combine_chunks()
            if len(d):
                codes = d.indices.to_numpy()
                uniq = d.dictionary.to_pylist()
                hs = _cached_hash64(self._cache, uniq)
                # vocab × 64 signed bit matrix (±1), scattered per doc
                bitmat = (
                    ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1)
                    .astype(np.int64) * 2 - 1
                )
                sums = np.zeros((n, 64), dtype=np.int64)
                np.add.at(sums, parent, bitmat[codes])
                out = ((sums > 0).astype(np.uint64)
                       << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1)
                # docs with zero tokens: all sums 0 → bits 0 → simhash 0 ✓
        return pa.table(
            {
                self.id_col: t[self.id_col],
                "simhash": pa.array(out.astype(np.int64)),
            }
        )


def simhash_pairs(ds, max_hamming: int = 3, text_col: str = "text",
                  id_col: str = "doc_id", concurrency=(2, 16)):
    """Near-dup pairs by SimHash: 4×16-bit band grouping guarantees any
    pair with hamming ≤ 3 shares at least one exact band (pigeonhole);
    band rows shuffle through ``sort(band_key)`` and hamming is verified
    over only the docs appearing in a candidate pair — same distributed
    shape as :func:`minhash_lsh_pairs`.  Columns (doc_a, doc_b, hamming).
    """
    sigs = ds.map_batches(
        SimHasher,
        fn_constructor_kwargs=dict(text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
        concurrency=concurrency,
    ).materialize()

    def emit_bands(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"bkey": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        ids = t[id_col].to_numpy()
        hs = t["simhash"].to_numpy().astype(np.uint64)
        keys = np.empty((n, 4), dtype=np.int64)
        for b in range(4):
            band = ((hs >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
            keys[:, b] = (np.int64(b) << np.int64(17)) | band  # exact, disjoint
        return pa.table(
            {
                "bkey": pa.array(keys.ravel()),
                "doc_id": pa.array(np.repeat(ids, 4)),
            }
        )

    band_ds = sigs.map_batches(emit_bands, batch_format="pyarrow")
    pairs = _pairs_from_band_rows(band_ds, max_bucket=2000,
                                  n_rows_hint=sigs.count() * 4)

    empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                          "doc_b": pd.Series([], dtype="int64"),
                          "hamming": pd.Series([], dtype="int64")})
    if pairs.size == 0:
        return empty

    cand = _gather_rows(sigs, id_col, pairs.ravel(), [id_col, "simhash"])
    cand_ids = cand[id_col].to_numpy(np.int64)
    order = np.argsort(cand_ids)
    cand_ids = cand_ids[order]
    hs = cand["simhash"].to_numpy(np.int64)[order].astype(np.uint64)
    ia = np.searchsorted(cand_ids, pairs[:, 0])
    ib = np.searchsorted(cand_ids, pairs[:, 1])
    x = hs[ia] ^ hs[ib]
    # vectorized popcount via byte-view + bit-count table
    ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)
    keep = ham <= max_hamming
    return (
        pd.DataFrame(
            {"doc_a": pairs[keep, 0], "doc_b": pairs[keep, 1], "hamming": ham[keep]}
        )
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


def ngram_jaccard_pairs(
    ds,
    n: int = 3,
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
):
    """Exact n-gram Jaccard over MinHash-LSH candidates.

    Candidates from :func:`minhash_lsh_pairs` (low threshold), verified
    EXACTLY and fully distributed: candidate docs re-shingle inside a
    ``map_batches`` over the corpus (broadcast candidate id set), each
    shingle set travelling as sorted unique 64-bit hashes; two inner
    hash-shuffle joins attach (sh_a, sh_b) to every candidate pair and
    the per-pair intersection runs inside ``map_batches`` workers.  The
    driver holds only the candidate PAIRS (ids) and the final
    thresholded rows — never a shingle set, so a heavily-duplicated
    corpus can't serialize here (round-4 finding: the verify loop was
    the last driver-side per-pair loop in the dedup family).  A
    blake2b-64 collision would be needed to perturb a Jaccard value.
    Columns (doc_a, doc_b, jaccard ≥ threshold), sorted (doc_a, doc_b)."""
    cands = minhash_lsh_pairs(
        ds, num_perm=num_perm, bands=bands, shingle_n=n,
        threshold=min(0.3, threshold), text_col=text_col, id_col=id_col,
    )
    empty = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                          "doc_b": pd.Series([], dtype="int64"),
                          "jaccard": pd.Series([], dtype="float64")})
    if cands.empty:
        return empty
    pairs = cands[["doc_a", "doc_b"]].to_numpy(dtype=np.int64)
    import ray

    wanted = np.unique(pairs.ravel())
    ref = ray.put(wanted)

    def shingler(t: pa.Table) -> pa.Table:
        wanted = ray.get(ref)
        dv = t[id_col].to_numpy()
        idx = np.minimum(np.searchsorted(wanted, dv), wanted.size - 1)
        mask = wanted[idx] == dv
        sel = t.filter(pa.array(mask))
        out_ids, out_sh = [], []
        for d, txt in zip(sel[id_col].to_pylist(), sel[text_col].to_pylist()):
            sh = set(_shingles(txt, n))
            hv = np.unique(_stable_hash64(sorted(sh))) if sh else np.array([], np.uint64)
            out_ids.append(d)
            out_sh.append(hv.astype("<u8").tobytes())
        return pa.table(
            {
                id_col: pa.array(out_ids, pa.int64()),
                "shingles": pa.array(out_sh, pa.binary()),
            }
        )

    import ray.data as rd

    # candidate-bounded (one row per candidate doc) — safe to pin for
    # the two join probes below
    sh_ds = ds.map_batches(shingler, batch_format="pyarrow").materialize()
    nparts = _join_partitions(None)
    sh_a = sh_ds.map_batches(
        lambda t: pa.table({"__ka": t[id_col], "sh_a": t["shingles"]}),
        batch_format="pyarrow",
    ).repartition(nparts)
    sh_b = sh_ds.map_batches(
        lambda t: pa.table({"__kb": t[id_col], "sh_b": t["shingles"]}),
        batch_format="pyarrow",
    ).repartition(nparts)
    pairs_ds = rd.from_arrow(pa.table({
        "doc_a": pa.array(pairs[:, 0], pa.int64()),
        "doc_b": pa.array(pairs[:, 1], pa.int64()),
    }))
    joined = pairs_ds.join(sh_a, join_type="inner",
                           num_partitions=nparts,
                           on=("doc_a",), right_on=("__ka",))
    joined = joined.join(sh_b, join_type="inner",
                         num_partitions=nparts,
                         on=("doc_b",), right_on=("__kb",))

    def verify(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy()
        b = t["doc_b"].to_numpy()
        sh_as = t["sh_a"].to_pylist()
        sh_bs = t["sh_b"].to_pylist()
        out_a, out_b, out_j = [], [], []
        for i in range(t.num_rows):
            sa = np.frombuffer(sh_as[i], dtype="<u8")
            sb = np.frombuffer(sh_bs[i], dtype="<u8")
            if sa.size == 0 or sb.size == 0:
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            j = inter / (sa.size + sb.size - inter)
            if j >= threshold:
                out_a.append(int(a[i]))
                out_b.append(int(b[i]))
                out_j.append(j)
        return pa.table({
            "doc_a": pa.array(out_a, pa.int64()),
            "doc_b": pa.array(out_b, pa.int64()),
            "jaccard": pa.array(out_j, pa.float64()),
        })

    res = joined.map_batches(verify, batch_format="pyarrow").to_pandas()
    return res.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def union_find_labels(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of an undirected pair list: returns
    (sorted unique node ids, component label per node) with label =
    the MINIMUM node id in the component.

    Vectorized min-label propagation with pointer jumping: each round
    pulls the min label across every edge (two ``np.minimum.at``
    scatters) then halves chain depth with ``lab = lab[lab]``;
    converges in O(log diameter) rounds.  Near-duplicate components
    are tiny (a handful of copies of one document), so this is 2-3
    rounds in practice; the input is the candidate-pair set, already
    bounded by actual duplication, never the corpus.
    """
    if pairs.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    nodes, flat = np.unique(pairs.ravel(), return_inverse=True)
    e = flat.reshape(-1, 2)
    lab = np.arange(nodes.size, dtype=np.int64)
    while True:
        prev = lab.copy()
        m = np.minimum(lab[e[:, 0]], lab[e[:, 1]])
        np.minimum.at(lab, e[:, 0], m)
        np.minimum.at(lab, e[:, 1], m)
        lab = lab[lab]  # pointer jumping
        if np.array_equal(lab, prev):
            break
    return nodes, nodes[lab]


def _star_forest_scan(sorted_edges) -> bool:
    """True iff a (u, v)-sorted doubled edge Dataset is a disjoint
    union of stars — the star-contraction termination certificate.

    A doubled star forest has exactly two run shapes under the sort
    key ``u``: a ROOT run contains its self-loop plus members, so
    ``min(v) == u``; a MEMBER run points at its single root, so
    ``min(v) == max(v) < u``.  Every interior run of a sorted block is
    complete and validated locally (vectorized reduceat); the first
    and last run of each block may straddle a boundary, so they emit
    (u, min_v, max_v) partials — O(2 · #blocks) rows — that the driver
    groups by u and validates with the same formula (min/max combine
    idempotently, so duplicate rows across blocks are harmless).

    Soundness: if every run is valid, map each member u to its single
    smaller neighbor f(u); f(u)'s run contains u > f(u) so it must be
    ROOT-shaped — the graph is exactly {(m, f(m))} ∪ self-loops, i.e.
    disjoint stars.  No joins, no extra shuffles."""
    def part(t: pa.Table) -> pa.Table:
        empty = pa.table({"ok": pa.array([], pa.bool_()),
                          "bu": pa.array([], pa.int64()),
                          "bmin": pa.array([], pa.int64()),
                          "bmax": pa.array([], pa.int64())})
        if t.num_rows == 0 or {"u", "v"} - set(t.column_names):
            return empty
        u = t["u"].to_numpy()
        v = t["v"].to_numpy()
        n = u.size
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(u[1:], u[:-1], out=change[1:])
        heads = np.flatnonzero(change)
        tails = np.concatenate([heads[1:], [n]]) - 1
        ukey = u[heads]
        minv = np.minimum.reduceat(v, heads)
        maxv = np.maximum.reduceat(v, heads)
        ok = True
        if heads.size > 2:
            iu = ukey[1:-1]
            imin = minv[1:-1]
            imax = maxv[1:-1]
            ok = bool(np.all((imin == iu) | ((imin == imax) & (imax < iu))))
        bsel = [0] if heads.size == 1 else [0, heads.size - 1]
        return pa.table({
            "ok": pa.array([ok] * len(bsel), pa.bool_()),
            "bu": pa.array(ukey[bsel], pa.int64()),
            "bmin": pa.array(minv[bsel], pa.int64()),
            "bmax": pa.array(maxv[bsel], pa.int64()),
        })

    parts = sorted_edges.map_batches(part, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return True
    if not bool(parts["ok"].all()):
        return False
    g = parts.groupby("bu").agg(bmin=("bmin", "min"), bmax=("bmax", "max"))
    bu = g.index.to_numpy()
    bmin = g["bmin"].to_numpy()
    bmax = g["bmax"].to_numpy()
    return bool(np.all((bmin == bu) | ((bmin == bmax) & (bmax < bu))))


def union_find_labels_distributed(pairs_ds, max_rounds: int = 64,
                                  num_partitions: int | None = None):
    """Connected components over a PAIRS DATASET — the scale fallback
    for candidate-pair sets too large for the driver's vectorized
    :func:`union_find_labels` (a 50%-duplicated 10¹²-doc corpus can
    produce billions of pairs).

    Contraction rounds from the large-star/small-star family (Kiveris
    et al., *Connected Components in MapReduce and Beyond*, 2014),
    adapted to Ray Data: each round DOUBLES the oriented edge set,
    range-sorts it by (u, v) — ONE shuffle, co-locating every node's
    full neighborhood — and contracts each sorted block with the
    vectorized driver union-find, emitting the block's spanning star
    edges ``(node, local-min-label)`` (roots self-loop so they persist
    as sort keys).  Connectivity is preserved exactly — the local star
    spans the local component and every block node is emitted — and
    labels only decrease, so the edge set collapses toward the star
    forest ``(member, component-min)``.  One sort exchange per round
    replaces the three hash-join shuffles per round of the previous
    label-propagation design (round-4 measurement: 10M pairs, 2,671 s;
    this design: see BENCH_newops1m_r5).

    Termination is SOUND, not heuristic: each round certifies the
    sorted doubled set with :func:`_star_forest_scan` (a free pass over
    the already-sorted blocks).  Once the set IS a star forest, its
    components equal the original components (connectivity invariant),
    every root is its component's minimum (members point to a strictly
    smaller root), and the final groupby(node).min(label) output is
    exact.  ``max_rounds`` exhaustion raises instead of returning
    mid-contraction labels.

    Input: Dataset with int64 columns (a, b).  Output: Dataset
    (doc_id, cluster_id), cluster_id = min node id of the component —
    identical to :func:`union_find_labels` (differentially tested).
    """
    from ray.data.aggregate import Min

    def orient(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy().astype(np.int64)
        b = t["b"].to_numpy().astype(np.int64)
        # (max, min) orientation; self-pairs survive as (x, x) so
        # isolated self-loop nodes still reach the output
        e = np.unique(np.stack([np.maximum(a, b), np.minimum(a, b)],
                               axis=1), axis=0)
        return pa.table({"u": pa.array(e[:, 0]), "v": pa.array(e[:, 1])})

    def double(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy()
        v = t["v"].to_numpy()
        return pa.table({
            "u": pa.array(np.concatenate([u, v])),
            "v": pa.array(np.concatenate([v, u])),
        })

    def contract(t: pa.Table) -> pa.Table:
        cols = {"u", "v"} & set(t.column_names)
        if t.num_rows == 0 or cols != {"u", "v"}:
            return pa.table({"u": pa.array([], pa.int64()),
                             "v": pa.array([], pa.int64())})
        arr = np.stack([t["u"].to_numpy().astype(np.int64),
                        t["v"].to_numpy().astype(np.int64)], axis=1)
        nodes, labs = union_find_labels(arr)
        # every block node emits its star edge; roots self-loop so they
        # survive as sort keys for the next round's co-location
        return pa.table({"u": pa.array(nodes), "v": pa.array(labs)})

    cur = pairs_ds.map_batches(orient, batch_format="pyarrow").materialize()
    if cur.count() == 0:
        return cur.map_batches(
            lambda t: pa.table({"doc_id": pa.array([], pa.int64()),
                                "cluster_id": pa.array([], pa.int64())}),
            batch_format="pyarrow",
        )
    for _ in range(max_rounds):
        s = cur.map_batches(double, batch_format="pyarrow")
        if num_partitions is not None:
            s = s.repartition(num_partitions)
        s = s.sort(["u", "v"]).materialize()
        done = _star_forest_scan(s)
        cur = s.map_batches(contract, batch_format="pyarrow").materialize()
        if done:
            # at a star forest every contract emission is (node →
            # component-min); the groupby dedups multi-block copies and
            # the root self-rows label the roots themselves
            lab_rows = cur.map_batches(
                lambda t: pa.table({
                    "node": pa.array(np.concatenate([t["u"].to_numpy(),
                                                     t["v"].to_numpy()])),
                    "lab": pa.array(np.concatenate([t["v"].to_numpy(),
                                                    t["v"].to_numpy()])),
                }),
                batch_format="pyarrow",
            )
            return (
                lab_rows.groupby("node")
                .aggregate(Min("lab", alias_name="lab"))
                .map_batches(
                    lambda t: pa.table({"doc_id": t["node"],
                                        "cluster_id": t["lab"]}),
                    batch_format="pyarrow",
                )
            )
    raise RuntimeError(
        f"star contraction did not converge in {max_rounds} rounds; "
        "raise max_rounds"
    )


# above this many candidate pairs the driver-side vectorized union-find
# hands off to the distributed label-propagation fallback
_UF_DRIVER_LIMIT = 20_000_000


def neardup_clusters(ds, threshold: float = 0.5, num_perm: int = 64,
                     bands: int = 16, shingle_n: int = 3,
                     text_col: str = "text", id_col: str = "doc_id"):
    """Near-duplicate clustering — the corpus-dedup completion step
    (SlimPajama/Dolma-style): MinHash-LSH pairs → connected components
    → (doc_id, cluster_id) with cluster_id = min doc in the component.
    Only docs that appear in a pair are emitted (singletons are their
    own implicit cluster)."""
    import pandas as pd

    pairs = minhash_lsh_pairs(ds, num_perm=num_perm, bands=bands,
                              shingle_n=shingle_n, threshold=threshold,
                              text_col=text_col, id_col=id_col)
    arr = pairs[["doc_a", "doc_b"]].to_numpy(dtype=np.int64)
    if len(arr) > _UF_DRIVER_LIMIT:
        # scale fallback: label propagation over a pairs Dataset — no
        # driver-sized label array (the pair set itself is the remaining
        # driver bound of the LSH collect, documented in
        # _pairs_from_band_rows)
        import ray.data as rd

        pds = rd.from_arrow(pa.table({"a": pa.array(arr[:, 0]),
                                      "b": pa.array(arr[:, 1])}))
        out = union_find_labels_distributed(pds).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)
    nodes, labels = union_find_labels(arr)
    return pd.DataFrame({"doc_id": nodes, "cluster_id": labels})


def drop_near_duplicates(ds, threshold: float = 0.5, num_perm: int = 64,
                         bands: int = 16, shingle_n: int = 3,
                         text_col: str = "text", id_col: str = "doc_id"):
    """Corpus minus non-representative near-duplicates: every clustered
    doc except its component's min id is dropped (broadcast victim set
    + streaming filter — the ``drop_exact_duplicates`` shape)."""
    import ray

    cl = neardup_clusters(ds, threshold, num_perm, bands, shingle_n,
                          text_col, id_col)
    victims = np.sort(
        cl.loc[cl["doc_id"] != cl["cluster_id"], "doc_id"].to_numpy(np.int64))
    ref = ray.put(victims)

    def keep(t: pa.Table) -> pa.Table:
        v = ray.get(ref)
        ids = t[id_col].to_numpy().astype(np.int64)
        if v.size == 0:
            return t
        pos = np.minimum(np.searchsorted(v, ids), v.size - 1)
        return t.filter(pa.array(v[pos] != ids))

    return ds.map_batches(keep, batch_format="pyarrow")


def dup_spans(ds, w: int = 8, min_count: int = 2,
              text_col: str = "text", id_col: str = "doc_id"):
    """Exact duplicated-span report — the span-level exact-substring
    dedup shape ("Deduplicating Training Data Makes Language Models
    Better", Lee et al. 2021): every w-token window whose exact token
    sequence occurs at least ``min_count`` times corpus-wide, reported
    with each (document, token position) it occupies.

    Two passes, both redundancy-bounded (the ``remove_boilerplate``
    shape):

    1. frequent windows via :func:`~gazetteer_search_ray.pipelines.\
textstats.ngram_counts` at n=w — per-batch combiner partials, ONE
       ``groupby(ngram)`` exchange; the surviving set is bounded by
       corpus redundancy and broadcast once (``ray.put``);
    2. a streaming membership pass recomputes each batch's windows
       WITH positions (token index within the doc, vectorized from the
       flattened parent array) and keeps members via ``pc.is_in``.

    Returns a Dataset of ``(id_col, pos, ngram)`` rows.
    """
    import ray

    from .textstats import ngram_counts

    freq = ngram_counts(ds, n=w, text_col=text_col,
                        min_count=min_count).to_pandas()
    freq_ref = ray.put(pa.array(freq["ngram"].to_numpy(), pa.string()))

    class Members:
        def __init__(self):
            self.freq: pa.Array = ray.get(freq_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            id_type = t.schema.field(id_col).type
            schema = pa.schema([pa.field(id_col, id_type),
                                pa.field("pos", pa.int64()),
                                pa.field("ngram", pa.string())])
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
            if L < w:
                return schema.empty_table()
            m = L - w + 1
            grams = pc.binary_join_element_wise(
                *[flat.slice(i, m) for i in range(w)], " ")
            valid = parent[:m] == parent[w - 1:]
            # token position within each doc: parent is nondecreasing,
            # subtract each run's first flat index
            uniq, first = np.unique(parent, return_index=True)
            pos = np.arange(L, dtype=np.int64)[:m] - first[
                np.searchsorted(uniq, parent[:m])]
            member = pc.is_in(grams, value_set=self.freq).to_numpy(
                zero_copy_only=False)
            keep = valid & member
            rows = np.flatnonzero(keep)
            if rows.size == 0:
                return schema.empty_table()
            docs = t[id_col].combine_chunks().take(
                pa.array(parent[rows]))
            return pa.table(
                [docs, pa.array(pos[rows]),
                 grams.take(pa.array(rows))], schema=schema)

    return ds.map_batches(Members, batch_format="pyarrow", concurrency=2)
