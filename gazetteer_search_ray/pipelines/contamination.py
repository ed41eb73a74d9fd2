"""Train/eval decontamination: flag or drop training documents that
share any word n-gram with a (small) evaluation set.

The reference engine has no such operator (it's a geocoder; SURVEY.md
§2.5), but n-gram decontamination is a staple of public LLM-corpus
pipelines (GPT-3 appendix C, C4, Dolma), so it ships as a first-class
training-data operator next to the dedup family.

Shape for 100 TB:

* the EVAL side is small by construction (benchmarks are thousands of
  documents, not billions) — its distinct shingle-hash set is collected
  once, ``ray.put`` once, and read by every checker actor in
  ``__init__`` (broadcast small side, never re-shipped per batch);
* the TRAIN side streams: one ``map_batches`` membership pass, no
  shuffle at all.  Per-batch work is the same vectorized Arrow
  lower+split+``binary_join_element_wise`` shingling as
  ``dedup.MinHasher`` and a ``np.searchsorted`` probe into the sorted
  broadcast array;
* if an eval set ever outgrew broadcast (≳10⁸ distinct shingles), the
  same report is a hash semi-join: emit (shingle_hash, doc_id) rows
  and ``Dataset.join`` against the eval hash table — the documented
  fallback, not the default, because real eval sets never get there.

Hashing is the md5-64 scheme of ``dedup._stable_hash64`` (= DuckDB
``md5_number_lower`` bytes), so the DuckDB oracle reproduces the
report exactly by joining on the shingle strings themselves.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import _cached_hash64, _shingles, _stable_hash64
from .relational import _join_partitions


def _batch_doc_shingles(t: pa.Table, text_col: str, id_col: str,
                        n: int) -> tuple[np.ndarray, list[str]]:
    """Vectorized per-batch shingling: returns (doc_ids_per_shingle,
    distinct shingle strings), one row per DISTINCT (doc, shingle).

    Same Arrow kernel chain as ``dedup.MinHasher.__call__`` (lower →
    regex split → shifted-slice ``binary_join_element_wise`` → group_by
    distinct); rows with fewer than ``n`` tokens fall back to the
    single whole-text shingle, matching ``dedup._shingles``.
    """
    nrows = t.num_rows
    ids = t[id_col].to_numpy().astype(np.int64)
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

    out_ids: list[np.ndarray] = []
    out_sh: list[str] = []
    short = np.flatnonzero((tok_counts > 0) & (tok_counts < n))
    if short.size:
        texts = t[text_col].to_pylist()
        for i in short:
            sh = _shingles(texts[i], n)
            if sh:
                out_ids.append(np.full(len(sh), ids[i], dtype=np.int64))
                out_sh.extend(sh)

    m = len(flat)
    if m >= n:
        parts = [flat.slice(j, m - n + 1) for j in range(n)]
        joined = pc.binary_join_element_wise(*parts, " ")
        valid = parent[: m - n + 1] == parent[n - 1:]
        sh_tbl = (
            pa.table({
                "p": pa.array(parent[: m - n + 1][valid]),
                "sh": joined.filter(pa.array(valid)),
            })
            .group_by(["p", "sh"], use_threads=False)
            .aggregate([])
        )
        out_ids.append(ids[sh_tbl["p"].to_numpy()])
        out_sh.extend(sh_tbl["sh"].to_pylist())

    if not out_ids:
        return np.empty(0, dtype=np.int64), []
    return np.concatenate(out_ids), out_sh


def eval_shingle_hashes(eval_ds, n: int = 3, text_col: str = "text",
                        id_col: str = "doc_id") -> np.ndarray:
    """Distinct md5-64 shingle hashes of the eval set, sorted — the
    broadcast small side.  Distinct-per-batch first so only hashes
    (8 B each), never text, reach the driver."""
    def f(t: pa.Table) -> pa.Table:
        _, sh = _batch_doc_shingles(t, text_col, id_col, n)
        hs = np.unique(_stable_hash64(sh)) if sh else \
            np.empty(0, dtype=np.uint64)
        return pa.table({"h": pa.array(hs.astype(np.int64))})

    parts = [
        b["h"].to_numpy()
        for b in eval_ds.map_batches(f, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


class _ContaminationChecker:
    """Actor-pool stage: broadcast eval-hash probe per train batch.

    ``__init__`` resolves the ``ray.put`` handle once per actor; each
    ``__call__`` is shingle → hash (cached across batches) →
    ``searchsorted`` membership → per-doc hit count.
    """

    def __init__(self, hashes_ref, n: int, text_col: str, id_col: str):
        import ray

        self.eval_h = ray.get(hashes_ref) if not isinstance(
            hashes_ref, np.ndarray) else hashes_ref
        self.n = n
        self.text_col = text_col
        self.id_col = id_col
        self._cache: dict[str, int] = {}

    def _hash(self, shingles: list[str]) -> np.ndarray:
        # size-capped cache (dedup._cached_hash64): shingles are nearly
        # all unique, so an unbounded dict would accumulate the actor's
        # whole input text
        return _cached_hash64(self._cache, shingles).astype(np.int64)

    def __call__(self, t: pa.Table) -> pa.Table:
        doc_ids, sh = _batch_doc_shingles(
            t, self.text_col, self.id_col, self.n)
        if not sh:
            return pa.table({
                self.id_col: pa.array([], pa.int64()),
                "n_overlap": pa.array([], pa.int64()),
            })
        hs = self._hash(sh)
        pos = np.searchsorted(self.eval_h, hs)
        pos[pos >= self.eval_h.size] = 0
        hit = (self.eval_h[pos] == hs) if self.eval_h.size else \
            np.zeros(hs.size, dtype=bool)
        # (doc, shingle) rows are distinct, so a plain per-doc sum of
        # hits IS the distinct-overlap count
        hit_docs = doc_ids[hit]
        uniq, counts = np.unique(hit_docs, return_counts=True)
        return pa.table({
            self.id_col: pa.array(uniq),
            "n_overlap": pa.array(counts.astype(np.int64)),
        })


def _bloom_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(k, n) bit positions for int64 hashes via double hashing
    h1 + i*h2 (Kirsch-Mitzenmacher): the hashes are already md5-64
    uniform, so two cheap derived streams suffice for k probes."""
    h1 = h.astype(np.uint64)
    h2 = (h1 * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[:, None]
    return (h1[None, :] + i * h2[None, :]) % np.uint64(m_bits)


def build_eval_bloom(eval_ds, n: int = 3, text_col: str = "text",
                     id_col: str = "doc_id", m_bits: int = 1 << 26,
                     k: int = 4) -> np.ndarray:
    """Bloom filter over the eval set's distinct shingle hashes, built
    distributed: each eval batch reduces to ONE OR'd ``m_bits/8``-byte
    bitmap row, and the driver ORs the O(#batches) bitmaps — the
    bitmap (8 MB at the default 2^26 bits) is the ONLY eval-sized
    thing that ever moves, however many shingles the eval set has.
    False-positive rate ≈ (1 - e^{-k·n_hashes/m})^k — ~1% at 7M
    hashes with the defaults; callers that exact-verify candidates
    (``decontaminate(strategy="bloom")``) stay exact at ANY rate."""
    nbytes = m_bits // 8

    def partial(t: pa.Table) -> pa.Table:
        bm = np.zeros(nbytes, dtype=np.uint8)
        _, sh = _batch_doc_shingles(t, text_col, id_col, n)
        if sh:
            hs = np.unique(_stable_hash64(sh))
            pos = _bloom_positions(hs, m_bits, k).ravel()
            # build-once pass: the unbuffered scatter-OR is fine here
            # (unlike the per-query varbyte hot path it replaced)
            np.bitwise_or.at(bm, (pos >> np.uint64(3)).astype(np.int64),
                             (np.uint8(1) << (pos & np.uint64(7)))
                             .astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.large_binary())})

    bm = np.zeros(nbytes, dtype=np.uint8)
    for b in (eval_ds.map_batches(partial, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow", batch_size=None)):
        for v in b["bm"]:
            bm |= np.frombuffer(v.as_py(), dtype=np.uint8)
    return bm


class _BloomCandidateFilter:
    """Actor-pool stage: keep only train rows with ≥1 Bloom-positive
    shingle — the cheap pre-filter in front of the exact semi-join.
    No false negatives (Bloom property), so dropping the negatives is
    exact; positives are verified downstream."""

    def __init__(self, bloom_ref, m_bits: int, k: int, n: int,
                 text_col: str, id_col: str):
        import ray

        self.bm = ray.get(bloom_ref) if not isinstance(
            bloom_ref, np.ndarray) else bloom_ref
        self.m_bits = m_bits
        self.k = k
        self.n = n
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        doc_ids, sh = _batch_doc_shingles(t, self.text_col, self.id_col,
                                          self.n)
        if not sh:
            return t.slice(0, 0)
        hs = _stable_hash64(sh)
        pos = _bloom_positions(hs, self.m_bits, self.k)
        bit = (np.uint8(1) << (pos & np.uint64(7))).astype(np.uint8)
        hit = (self.bm[(pos >> np.uint64(3)).astype(np.int64)] & bit) != 0
        cand_docs = np.unique(doc_ids[hit.all(axis=0)])
        ids = t[self.id_col].to_numpy().astype(np.int64)
        return t.filter(pa.array(np.isin(ids, cand_docs)))


def contamination_report(train_ds, eval_hashes: np.ndarray, n: int = 3,
                         text_col: str = "text", id_col: str = "doc_id",
                         concurrency=(2, 16)):
    """Per contaminated train doc: (doc_id, n_overlap) with
    ``n_overlap`` = number of DISTINCT eval shingles it contains.
    Clean docs emit nothing — output is bounded by contamination."""
    import ray

    ref = ray.put(np.sort(np.asarray(eval_hashes, dtype=np.int64)))
    return train_ds.map_batches(
        _ContaminationChecker,
        fn_constructor_kwargs=dict(
            hashes_ref=ref, n=n, text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def contamination_report_join(train_ds, eval_ds, n: int = 3,
                              text_col: str = "text", id_col: str = "doc_id",
                              num_partitions: int | None = None):
    """The hash **semi-join** report — for eval sets too large to
    broadcast (≳10⁸ distinct shingles): the train side emits thin
    distinct ``(shingle_hash, doc_id)`` rows, the eval side reduces to
    distinct hashes with one ``groupby``, and an inner hash-shuffle
    ``Dataset.join`` + ``groupby(doc_id).count()`` produces the same
    (doc_id, n_overlap) rows as :func:`contamination_report` — nothing
    eval-sized ever lands on the driver.  Differentially tested against
    the broadcast path."""
    from ray.data.aggregate import Count

    def train_rows(t: pa.Table) -> pa.Table:
        doc_ids, sh = _batch_doc_shingles(t, text_col, id_col, n)
        hs = _stable_hash64(sh).astype(np.int64) if sh else \
            np.empty(0, dtype=np.int64)
        return pa.table({"__h": pa.array(hs),
                         id_col: pa.array(doc_ids)})

    def eval_rows(t: pa.Table) -> pa.Table:
        _, sh = _batch_doc_shingles(t, text_col, id_col, n)
        hs = np.unique(_stable_hash64(sh)).astype(np.int64) if sh else \
            np.empty(0, dtype=np.int64)
        return pa.table({"__h": pa.array(hs)})

    # distributed distinct of the eval hashes (per-batch distinct rows
    # may still collide across batches)
    ev = (
        eval_ds.map_batches(eval_rows, batch_format="pyarrow")
        .groupby("__h")
        .aggregate(Count(alias_name="__c"))
        .map_batches(lambda t: t.drop_columns(["__c"]),
                     batch_format="pyarrow")
    )
    tr = train_ds.map_batches(train_rows, batch_format="pyarrow")
    # train rows are distinct per (doc, shingle) and the eval side is
    # distinct per hash, so the inner join yields exactly one row per
    # (doc, matching distinct shingle): a plain count IS n_overlap
    joined = tr.join(ev, join_type="inner",
                     num_partitions=_join_partitions(num_partitions),
                     on=("__h",))
    return joined.groupby(id_col).aggregate(Count(alias_name="n_overlap"))


def decontaminate(train_ds, eval_ds, n: int = 3, text_col: str = "text",
                  id_col: str = "doc_id", strategy: str = "auto",
                  eval_broadcast_limit: int = 100_000_000,
                  contaminated_broadcast_limit: int = 100_000_000,
                  bloom_bits: int = 1 << 26, bloom_k: int = 4):
    """Drop every train doc sharing ≥1 n-gram with the eval set.

    ``strategy``:

    * ``"broadcast"`` (the common case — real eval sets are thousands
      of docs): eval hashes broadcast once, contaminated-id set
      (bounded by actual contamination) collected and re-broadcast as
      a filter — the ``dedup.drop_exact_duplicates`` shape;
    * ``"join"``: the fully distributed fallback — semi-join report
      (:func:`contamination_report_join`) + left-anti ``Dataset.join``
      drop, for eval sets / contamination fractions too large for any
      driver-side array;
    * ``"auto"``: broadcast, flipping each leg to the join path when
      its broadcast side would exceed the corresponding limit;
    * ``"bloom"``: the 100-TB scale path for huge eval sets — a
      fixed-size Bloom bitmap (:func:`build_eval_bloom`, 8 MB default)
      replaces the full eval-hash broadcast, a candidate pre-filter
      keeps only trains docs with ≥1 Bloom-positive shingle (no false
      negatives), and the exact semi-join verifies ONLY those
      candidates before the anti-join drop — results are identical to
      the other strategies at any false-positive rate, but the
      broadcast is O(bits) instead of O(#eval hashes) and the join's
      train side shrinks to the candidate fraction.
    """
    import ray
    import ray.data as rd

    if strategy == "bloom":
        bm_ref = ray.put(build_eval_bloom(eval_ds, n=n, text_col=text_col,
                                          id_col=id_col, m_bits=bloom_bits,
                                          k=bloom_k))
        cand = train_ds.map_batches(
            _BloomCandidateFilter,
            fn_constructor_kwargs=dict(
                bloom_ref=bm_ref, m_bits=bloom_bits, k=bloom_k, n=n,
                text_col=text_col, id_col=id_col),
            batch_format="pyarrow",
            concurrency=(2, 16),
        )
        rep = contamination_report_join(cand, eval_ds, n=n,
                                        text_col=text_col, id_col=id_col)
        return _anti_join_ids(train_ds, rep, id_col)

    if strategy not in ("auto", "broadcast", "join"):
        raise ValueError(strategy)

    use_join_report = strategy == "join"
    ev = None
    if not use_join_report:
        ev = eval_shingle_hashes(eval_ds, n=n, text_col=text_col,
                                 id_col=id_col)
        if strategy == "auto" and ev.size > eval_broadcast_limit:
            use_join_report = True

    if use_join_report:
        rep = contamination_report_join(train_ds, eval_ds, n=n,
                                        text_col=text_col, id_col=id_col)
    else:
        rep = contamination_report(train_ds, ev, n=n, text_col=text_col,
                                   id_col=id_col)

    if strategy == "join":
        return _anti_join_ids(train_ds, rep, id_col)

    bad_parts = [
        b[id_col].to_numpy()
        for b in rep.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    bad = np.unique(np.concatenate(bad_parts)) if bad_parts else \
        np.empty(0, dtype=np.int64)
    if strategy == "auto" and bad.size > contaminated_broadcast_limit:
        return _anti_join_ids(
            train_ds,
            rd.from_arrow(pa.table({id_col: pa.array(bad)})),
            id_col,
        )
    bad_ref = ray.put(bad)

    def keep(t: pa.Table) -> pa.Table:
        b = ray.get(bad_ref)
        ids = t[id_col].to_numpy().astype(np.int64)
        pos = np.searchsorted(b, ids)
        pos[pos >= b.size] = 0
        hit = (b[pos] == ids) if b.size else np.zeros(ids.size, dtype=bool)
        return t.filter(pa.array(~hit))

    return train_ds.map_batches(keep, batch_format="pyarrow")


def _anti_join_ids(ds, bad_ds, id_col: str,
                   num_partitions: int | None = None):
    """ds minus rows whose ``id_col`` appears in ``bad_ds``'s column of
    the same name (both report paths emit their ids under ``id_col``) —
    left-outer hash-shuffle join + null filter (Ray Data has no native
    anti join)."""
    nparts = _join_partitions(num_partitions)
    marked = bad_ds.map_batches(
        lambda t: pa.table({
            "__bad_id": t[id_col],
            "__bad": pa.array(np.ones(t.num_rows, np.int8)),
        }),
        batch_format="pyarrow",
    ).repartition(nparts)
    # ^ repartition normalizes the empty zero-column blocks a groupby
    # can emit — Ray's hash-shuffle join chokes on them ("no match for
    # FieldRef" in the Acero finalize; reproduced on Ray 2.49)
    joined = ds.join(marked, join_type="left_outer",
                     num_partitions=nparts,
                     on=(id_col,), right_on=("__bad_id",))

    def keep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_null(t["__bad"]))
        return t.drop_columns(
            [c for c in ("__bad", "__bad_id") if c in t.column_names])

    return joined.map_batches(keep, batch_format="pyarrow")
