"""Global-order primitives: distributed prefix sums and the operators
built on them.

The reference's only global-order machinery is ES ``search_after``
pagination (``imp/PagedScroll.java:40-87``) and the insertion-ordered
name-agg counter (``imp/addr/ImportObjectParser.java:215-237``) — both
single-process scans.  At 100 TB the equivalent primitive is a
*distributed exclusive prefix sum over a sorted Dataset*: one range
exchange (``ds.sort``), one O(#blocks) driver reduction of per-block
totals, then a second embarrassingly-parallel pass that rebases each
block.  Nothing row-cardinality-sized ever reaches the driver.

Built on it here:

* :func:`global_row_number` — zipWithIndex: dense global row ids in
  key order (the distributed ``row_number() OVER (ORDER BY …)``).
* :func:`pack_spans` — LLM training-data sequence packing:
  concatenate documents in key order and chunk the token stream into
  fixed ``seq_len`` windows; emits one row per (document, window)
  span.  This is the concat-and-chunk packing used to build fixed-
  length training sequences from variable-length documents.
* :func:`exact_quantiles` — exact order statistics of a numeric
  column (rank = floor(q·(n−1))) via ``global_row_number`` + a
  vectorized rank filter; only the k requested rows reach the driver.
* :func:`quantiles_select` — the same order statistics with NO
  shuffle at all: iterative bin-refinement selection (streaming
  histogram rounds, O(targets × bins) driver state, bounded final
  gather).  The scale path when the exchange is the bottleneck.
* :func:`keyed_scan` — per-key ordered window functions
  (``row_number()/lag()/sum() OVER (PARTITION BY key ORDER BY …)``)
  as a distributed segmented scan.

Partitioning assumption (documented per the custom-operator rule): the
sort keys must be UNIQUE per row — each materialized block's first key
tuple is its identity across the two passes.  ``_block_offsets``
raises if two blocks share a first key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _block_offsets(sorted_ds, order_cols: list[str],
                   weight_col: str | None = None) -> dict:
    """Exclusive prefix offsets per block of an already-sorted,
    materialized Dataset.

    Pass 1 of the prefix-sum pattern: each block emits ONE row — its
    first key tuple plus its total weight (row count, or
    ``sum(weight_col)``).  The driver sorts those O(#blocks) rows and
    cumulates.  Returns ``{first_key_tuple: global_exclusive_offset}``.
    """

    out_schema = None

    def head(t: pa.Table) -> pa.Table:
        fields = [t.schema.field(c) for c in order_cols]
        schema = pa.schema(fields + [pa.field("_w", pa.int64())])
        if t.num_rows == 0:
            return schema.empty_table()
        if weight_col is None:
            w = t.num_rows
        else:
            w = pc.sum(t[weight_col]).as_py() or 0
        cols = [t[c].slice(0, 1) for c in order_cols]
        return pa.table(cols + [pa.array([int(w)], pa.int64())],
                        schema=schema)

    heads = sorted_ds.map_batches(
        head, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    if heads.empty:
        return {}
    heads = heads.sort_values(order_cols, kind="mergesort").reset_index(
        drop=True
    )
    offs = heads["_w"].cumsum().shift(fill_value=0).astype(np.int64)
    keys = list(heads[order_cols].itertuples(index=False, name=None))
    if len(set(keys)) != len(keys):
        raise ValueError(
            "order_cols must be unique per row: two sorted blocks share "
            f"a first key (cols={order_cols})"
        )
    return dict(zip(keys, offs))


def _first_key(t: pa.Table, order_cols: list[str]) -> tuple:
    return tuple(t[c][0].as_py() for c in order_cols)


def global_row_number(ds, order_cols: list[str], out_col: str = "row_id"):
    """Dense global row ids 0..n−1 in ``order_cols`` order
    (distributed ``row_number() OVER (ORDER BY …) − 1``).

    One ``sort`` range exchange + one O(#blocks) driver reduction +
    one rebase pass; the keys must be unique per row (see module
    docstring).
    """
    import ray

    sorted_ds = ds.sort(order_cols).materialize()
    off_ref = ray.put(_block_offsets(sorted_ds, order_cols))

    class Rebase:
        def __init__(self):
            self.off = ray.get(off_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t.append_column(out_col, pa.array([], pa.int64()))
            base = self.off[_first_key(t, order_cols)]
            ids = base + np.arange(t.num_rows, dtype=np.int64)
            return t.append_column(out_col, pa.array(ids))

    return sorted_ds.map_batches(
        Rebase, batch_format="pyarrow", batch_size=None, concurrency=2
    )


def pack_spans(ds, seq_len: int, len_col: str = "n_tokens",
               id_col: str = "doc_id"):
    """Concat-and-chunk sequence packing for LLM training data.

    Documents are concatenated in ``id_col`` order into one virtual
    token stream, which is cut into fixed windows of ``seq_len``
    tokens.  Output: one row per (document, window) span —

    ``(id_col, seq_id, seq_offset, doc_offset, n_tokens)``

    where ``seq_offset``/``doc_offset`` locate the span inside the
    window / the document and ``n_tokens`` is the span length.  A long
    document emits one row per window it crosses; zero-length
    documents occupy no tokens and are dropped.

    Same shape as :func:`global_row_number` but the prefix sum runs
    over ``len_col`` instead of the row count, and the rebase pass
    does the window arithmetic vectorized (``np.repeat`` expansion —
    no Python loop over docs).
    """
    import ray

    if seq_len <= 0:
        raise ValueError("seq_len must be positive")

    nonempty = ds.map_batches(
        lambda t: t.filter(pc.greater(t[len_col], 0)),
        batch_format="pyarrow",
    )
    sorted_ds = nonempty.sort([id_col]).materialize()
    off_ref = ray.put(_block_offsets(sorted_ds, [id_col], len_col))
    L = int(seq_len)

    class Emit:
        def __init__(self):
            self.off = ray.get(off_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            id_type = t.schema.field(id_col).type
            schema = pa.schema([
                pa.field(id_col, id_type), pa.field("seq_id", pa.int64()),
                pa.field("seq_offset", pa.int64()),
                pa.field("doc_offset", pa.int64()),
                pa.field("n_tokens", pa.int64()),
            ])
            if t.num_rows == 0:
                return schema.empty_table()
            lens = t[len_col].to_numpy(zero_copy_only=False).astype(np.int64)
            base = self.off[_first_key(t, [id_col])]
            start = base + np.cumsum(lens) - lens
            end = start + lens
            first = start // L
            nspan = (end - 1) // L - first + 1
            total = int(nspan.sum())
            ridx = np.repeat(np.arange(t.num_rows), nspan)
            j = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(nspan) - nspan, nspan
            )
            seq = first[ridx] + j
            s0 = np.maximum(seq * L, start[ridx])
            s1 = np.minimum((seq + 1) * L, end[ridx])
            return pa.table(
                [
                    t[id_col].combine_chunks().take(pa.array(ridx)),
                    pa.array(seq), pa.array(s0 - seq * L),
                    pa.array(s0 - start[ridx]), pa.array(s1 - s0),
                ],
                schema=schema,
            )

    return sorted_ds.map_batches(
        Emit, batch_format="pyarrow", batch_size=None, concurrency=2
    )


def exact_quantiles(ds, col: str, qs: list[float],
                    id_col: str = "doc_id") -> pd.DataFrame:
    """Exact order statistics: the value at rank ``floor(q·(n−1))``
    for each q (0 ≤ q ≤ 1), over the full dataset.

    Distributed: one count, one :func:`global_row_number` pass over
    ``(col, id_col)`` (unique tie-break), then a vectorized
    ``is_in(rank)`` filter — exactly ``len(qs)`` rows reach the
    driver.  Returns a tiny ``(q, value)`` frame.
    """
    n = ds.count()
    if n == 0:
        return pd.DataFrame({"q": pd.Series(qs, dtype=np.float64),
                             "value": np.full(len(qs), np.nan)})
    rank_of = {float(q): int(np.floor(q * (n - 1))) for q in qs}
    want = pa.array(sorted(set(rank_of.values())), pa.int64())

    numbered = global_row_number(
        ds.select_columns([col, id_col]), [col, id_col], out_col="_rk"
    )
    hits = numbered.map_batches(
        lambda t: t.filter(pc.is_in(t["_rk"], value_set=want)),
        batch_format="pyarrow",
    ).to_pandas()
    val_by_rank = dict(zip(hits["_rk"], hits[col]))
    return pd.DataFrame({
        "q": pd.Series([float(q) for q in qs], dtype=np.float64),
        "value": [val_by_rank[rank_of[float(q)]] for q in qs],
    })


def quantiles_select(ds, col: str, qs: list[float], bins: int = 2048,
                     gather_limit: int = 262_144,
                     max_rounds: int = 64) -> pd.DataFrame:
    """Exact order statistics WITHOUT any shuffle — the 100-TB scale
    path next to :func:`exact_quantiles` (which ships the whole column
    through one range exchange).

    Iterative bin-refinement selection: one streaming pass finds
    (non-null count, min, max); each round one shuffle-free
    ``map_batches`` pass histograms every unresolved target's candidate
    interval into ``bins`` buckets (per-batch partials carry per-bucket
    count AND actual min/max; the driver merges O(targets × bins)
    rows), narrowing each target rank to one bucket; once a target's
    bucket holds ≤ ``gather_limit`` values, a final pass gathers just
    those values and ``np.partition`` selects exactly.

    Exactness argument: the bucket index (``clip(floor((v-lo)/w))`` /
    int ``(v-lo)//w``) is a nondecreasing function of ``v``, so each
    bucket is a contiguous value range, and the refined interval is the
    CLOSED range [bucket min, bucket max] of actual data values — mask
    recomputation next round is exact value comparison, immune to
    float bin-edge rounding, and ``min == max`` detects constant
    intervals exactly (duplicate-heavy columns resolve with no gather).

    Trade-off vs :func:`exact_quantiles`: selection re-READS the
    pruned single column 1 + rounds times (geometric convergence:
    interval width / ``bins`` per round — typically 1-2 rounds) but
    never shuffles; the sort path reads once but moves every row
    through an all-to-all exchange.  Nulls are excluded (ranks are
    over non-null values, matching ``ORDER BY`` SQL semantics).
    """
    import ray

    thin = ds.select_columns([col])
    is_int = pa.types.is_integer(thin.schema().base_schema.field(col).type)
    # keep bounds/values in the column's own numeric domain end to end:
    # a 63-bit int min/max round-tripped through float64 would corrupt
    # both the masks and the returned order statistics
    val_t = pa.int64() if is_int else pa.float64()
    vdt = np.int64 if is_int else np.float64

    def base_partial(t: pa.Table) -> pa.Table:
        v = t[col].drop_null()
        if not is_int and len(v):
            v = v.filter(pc.invert(pc.is_nan(v)))  # NaN ranks nowhere:
            # every interval mask would exclude it, so n must too
        if len(v) == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "lo": pa.array([], val_t),
                             "hi": pa.array([], val_t)})
        return pa.table({
            "n": pa.array([len(v)], pa.int64()),
            "lo": pa.array([pc.min(v).as_py()], val_t),
            "hi": pa.array([pc.max(v).as_py()], val_t)})

    stats = thin.map_batches(base_partial, batch_format="pyarrow").to_pandas()
    n = int(stats["n"].sum()) if len(stats) else 0
    if n == 0:
        return pd.DataFrame({"q": pd.Series(qs, dtype=np.float64),
                             "value": np.full(len(qs), np.nan)})
    cast = int if is_int else float
    lo0, hi0 = cast(stats["lo"].min()), cast(stats["hi"].max())

    rank_of = {float(q): int(np.floor(float(q) * (n - 1))) for q in qs}
    # per distinct target rank: [lo, hi] closed interval of ACTUAL data
    # values, rank within the interval, interval row count
    state = {k: [lo0, hi0, k, n] for k in sorted(set(rank_of.values()))}
    resolved: dict[int, float] = {}

    def _bin_of(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
        if is_int:
            w = max(1, -((-(int(hi) - int(lo) + 1)) // bins))
            return ((v.astype(np.int64) - int(lo)) // w).astype(np.int64)
        w = (hi - lo) / bins or 1.0
        return np.clip(((v - lo) / w).astype(np.int64), 0, bins - 1)

    for _round in range(max_rounds):
        for k, (lo, hi, rk, cnt) in list(state.items()):
            if k not in resolved and lo == hi:
                resolved[k] = lo
        pend = {k: v for k, v in state.items()
                if k not in resolved and v[3] > gather_limit}
        if not pend:
            break
        # targets sharing an interval (always true in round 1, common
        # after) are histogrammed ONCE: the pass cost is per distinct
        # interval, not per target rank
        uniq_iv = sorted({(v[0], v[1]) for v in pend.values()})
        iv_idx = {b: i for i, b in enumerate(uniq_iv)}
        ivs = [(None, lo, hi) for (lo, hi) in uniq_iv]
        ref = ray.put(ivs)

        class HistPartial:
            def __init__(self):
                self.ivs = ray.get(ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                v = t[col].drop_null().to_numpy(zero_copy_only=False)
                out_iv, out_b, out_c, out_lo, out_hi = [], [], [], [], []
                for i, (_k, lo, hi) in enumerate(self.ivs):
                    m = (v >= lo) & (v <= hi)
                    x = v[m]
                    if x.size == 0:
                        continue
                    b = _bin_of(x, lo, hi)
                    order = np.argsort(x, kind="stable")
                    xs, bs = x[order], b[order]
                    heads = np.flatnonzero(
                        np.r_[True, bs[1:] != bs[:-1]])
                    tails = np.r_[heads[1:], bs.size] - 1
                    out_iv.append(np.full(heads.size, i, np.int64))
                    out_b.append(bs[heads])
                    out_c.append((tails - heads + 1).astype(np.int64))
                    out_lo.append(xs[heads].astype(vdt))
                    out_hi.append(xs[tails].astype(vdt))
                if not out_iv:
                    return pa.table({"iv": pa.array([], pa.int64()),
                                     "b": pa.array([], pa.int64()),
                                     "c": pa.array([], pa.int64()),
                                     "blo": pa.array([], val_t),
                                     "bhi": pa.array([], val_t)})
                return pa.table({
                    "iv": pa.array(np.concatenate(out_iv)),
                    "b": pa.array(np.concatenate(out_b)),
                    "c": pa.array(np.concatenate(out_c)),
                    "blo": pa.array(np.concatenate(out_lo)),
                    "bhi": pa.array(np.concatenate(out_hi))})

        parts = thin.map_batches(HistPartial, batch_format="pyarrow",
                                 concurrency=(2, 16)).to_pandas()
        merged = parts.groupby(["iv", "b"]).agg(
            c=("c", "sum"), blo=("blo", "min"), bhi=("bhi", "max"))
        for k, (lo, hi, rk, _cnt) in pend.items():
            g = merged.loc[iv_idx[(lo, hi)]].sort_index()
            cum = g["c"].cumsum().to_numpy()
            j = int(np.searchsorted(cum, rk, side="right"))
            before = int(cum[j - 1]) if j else 0
            row = g.iloc[j]
            state[k] = [cast(row["blo"]), cast(row["bhi"]),
                        rk - before, int(row["c"])]
    else:
        raise RuntimeError(
            f"quantiles_select did not converge in {max_rounds} rounds")

    gather = {k: v for k, v in state.items() if k not in resolved}
    if gather:
        # several targets often land in the same interval (or the whole
        # range, when n <= gather_limit): gather each DISTINCT interval
        # once and serve every rank that lives in it from that array
        uniq = sorted({(v[0], v[1]) for v in gather.values()})
        iv_of = {b: i for i, b in enumerate(uniq)}
        givs = [(None, lo, hi) for (lo, hi) in uniq]
        gref = ray.put(givs)

        class GatherPartial:
            def __init__(self):
                self.ivs = ray.get(gref)

            def __call__(self, t: pa.Table) -> pa.Table:
                v = t[col].drop_null().to_numpy(zero_copy_only=False)
                out_iv, out_v = [], []
                for i, (_k, lo, hi) in enumerate(self.ivs):
                    x = v[(v >= lo) & (v <= hi)]
                    if x.size:
                        out_iv.append(np.full(x.size, i, np.int64))
                        out_v.append(x.astype(vdt))
                return pa.table({
                    "iv": pa.array(np.concatenate(out_iv)
                                   if out_iv else np.array([], np.int64)),
                    "v": pa.array(np.concatenate(out_v)
                                  if out_v else np.array([], vdt))})

        vals = thin.map_batches(GatherPartial, batch_format="pyarrow",
                                concurrency=(2, 16)).to_pandas()
        for k, (lo, hi, rk, _cnt) in gather.items():
            x = vals.loc[vals["iv"] == iv_of[(lo, hi)], "v"].to_numpy()
            resolved[k] = cast(np.partition(x, rk)[rk])

    out_vals = [resolved[rank_of[float(q)]] for q in qs]
    return pd.DataFrame({
        "q": pd.Series([float(q) for q in qs], dtype=np.float64),
        "value": (np.asarray(out_vals, dtype=np.int64) if is_int
                  else np.asarray(out_vals, dtype=np.float64)),
    })


def grouped_quantiles(ds, group_col: str, val_col: str, qs: list[float],
                      id_col: str = "doc_id") -> pd.DataFrame:
    """Exact per-group order statistics — ``value at rank
    floor(q·(n_g−1))`` inside every group (per-language length
    percentiles, per-domain quality cut points, …).

    Composition of existing primitives, ONE sort exchange total:

    1. :func:`global_row_number` over ``(group, val, id)`` — global
       rank ``r`` in which each group is a contiguous range;
    2. a tiny ``groupby(group).(count, min(r))`` aggregate — one row
       per group — broadcast via ``ray.put``; within-group rank is
       just ``r − min_r(group)``, no segmented scan needed;
    3. a stateless filter pass keeping rows whose within-group rank
       equals a target ``floor(q·(n_g−1))`` (vectorized
       ``pc.index_in`` group lookup + numpy gathers); only
       ``#groups × len(qs)`` rows reach the driver.

    Driver/actor memory is O(#groups) for the broadcast stats table —
    the data-mix/statistics use case (groups are languages, domains,
    sources).  Returns ``(group, q, value)`` sorted.
    """
    import ray
    from ray.data.aggregate import Count, Min

    qs = [float(q) for q in qs]
    numbered = global_row_number(
        ds.select_columns([group_col, val_col, id_col]),
        [group_col, val_col, id_col], out_col="_r")
    gstats = (numbered.groupby(group_col)
              .aggregate(Count(alias_name="_n"), Min("_r", alias_name="_r0"))
              .to_pandas())
    if gstats.empty:
        return pd.DataFrame(columns=[group_col, "q", "value"])
    groups = pa.array(gstats[group_col])
    n_g = gstats["_n"].to_numpy(np.int64)
    r0_g = gstats["_r0"].to_numpy(np.int64)
    ref = ray.put((groups, n_g, r0_g))

    class RankFilter:
        def __init__(self):
            self.groups, self.n, self.r0 = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            schema = pa.schema([t.schema.field(group_col),
                                pa.field("q", pa.float64()),
                                pa.field("value",
                                         t.schema.field(val_col).type)])
            if t.num_rows == 0:
                return schema.empty_table()
            gi = pc.index_in(t[group_col].combine_chunks(),
                             value_set=self.groups).to_numpy(
                                 zero_copy_only=False).astype(np.int64)
            rk = t["_r"].to_numpy() - self.r0[gi]
            cnt = self.n[gi]
            outs = []
            for q in qs:
                hit = rk == np.floor(q * (cnt - 1)).astype(np.int64)
                if hit.any():
                    sel = t.filter(pa.array(hit))
                    outs.append(pa.table([
                        sel[group_col],
                        pa.array(np.full(sel.num_rows, q)),
                        sel[val_col]], schema=schema))
            return (pa.concat_tables(outs) if outs
                    else schema.empty_table())

    out = numbered.map_batches(RankFilter, batch_format="pyarrow",
                               concurrency=(2, 16)).to_pandas()
    return (out.sort_values([group_col, "q"])
            .reset_index(drop=True)[[group_col, "q", "value"]])


def _scan_runs(key: np.ndarray):
    """Run-length structure of a key-sorted array: (heads, run_len,
    head_of_row) — head_of_row[i] is the index of row i's run head."""
    n = key.size
    new = np.ones(n, dtype=bool)
    if n > 1:
        new[1:] = key[1:] != key[:-1]
    heads = np.flatnonzero(new)
    run_len = np.diff(np.concatenate((heads, [n])))
    return heads, run_len, np.repeat(heads, run_len)


def keyed_scan(ds, key_col: str, ts_col: str, id_col: str,
               val_col: str | None = None):
    """Distributed segmented scan: the per-key ordered window
    functions ``row_number() / lag() / sum() OVER (PARTITION BY key
    ORDER BY ts, id)`` in one pass.

    Input: a thin Dataset whose ``key_col``/``ts_col``/``id_col`` (and
    optional ``val_col``) are int64 (callers project + cast; e.g.
    timestamps to epoch-microseconds, money to cents).  ``id_col``
    must be unique per row (the sort tie-break and the block-identity
    requirement of the prefix-sum pattern, module docstring).  Output:
    one row per input row —

    ``(id_col, key_col, seq, delta, cum)``

    where ``seq`` is the 1-based rank inside the key, ``delta`` the
    difference to the key's previous ``ts`` (null on each key's first
    row), and ``cum`` the running ``val_col`` sum (``seq`` copied when
    ``val_col`` is None).

    Scale shape: ONE ``sort([key, ts, id])`` range exchange; every
    key-run interior to a block resolves vectorized
    (:func:`_scan_runs` + segmented ``cumsum``); each block emits ONE
    summary row, the driver chains O(#blocks) carry states in sorted
    order, and a rebase pass adds the carries to each block's first
    run only.  Nothing row-cardinality-sized reaches the driver; the
    reference's closest analog is the single-process insertion
    counter (``imp/addr/ImportObjectParser.java:215-237``).
    """
    import ray

    cols = [key_col, ts_col, id_col] + ([val_col] if val_col else [])
    sorted_ds = ds.select_columns(cols).sort(
        [key_col, ts_col, id_col]).materialize()

    def summary(t: pa.Table) -> pa.Table:
        schema = pa.schema([
            pa.field("f_key", pa.int64()), pa.field("f_ts", pa.int64()),
            pa.field("f_id", pa.int64()), pa.field("l_key", pa.int64()),
            pa.field("l_ts", pa.int64()),
            pa.field("single_run", pa.bool_()),
            pa.field("last_cnt", pa.int64()), pa.field("last_cum", pa.int64()),
        ])
        n = t.num_rows
        if n == 0:
            return schema.empty_table()
        key = t[key_col].to_numpy()
        val = (t[val_col].to_numpy() if val_col
               else np.ones(n, dtype=np.int64))
        heads, run_len, _ = _scan_runs(key)
        return pa.table([
            pa.array([int(key[0])]),
            pa.array([int(t[ts_col][0].as_py())]),
            pa.array([int(t[id_col][0].as_py())]),
            pa.array([int(key[-1])]),
            pa.array([int(t[ts_col][-1].as_py())]),
            pa.array([heads.size == 1]),
            pa.array([int(run_len[-1])]),
            pa.array([int(val[heads[-1]:].sum())]),
        ], schema=schema)

    summ = sorted_ds.map_batches(
        summary, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    carry: dict[tuple, tuple] = {}
    if not summ.empty:
        summ = summ.sort_values(["f_key", "f_ts", "f_id"],
                                kind="mergesort").reset_index(drop=True)
        idents = list(summ[["f_key", "f_ts", "f_id"]].itertuples(
            index=False, name=None))
        if len(set(idents)) != len(idents):
            raise ValueError("(key, ts, id) must be unique per row: two "
                             "sorted blocks share a first row")
        state_key, state = None, (0, 0, 0)  # cnt, cum, last_ts
        for ident, row in zip(idents, summ.itertuples(index=False)):
            cin = state if state_key == row.f_key else (0, 0, 0)
            if cin[0]:
                carry[ident] = cin
            if row.single_run:
                # the block's one run may extend the incoming state
                base = cin if state_key == row.f_key else (0, 0, 0)
                state = (base[0] + row.last_cnt, base[1] + row.last_cum,
                         row.l_ts)
            else:
                state = (int(row.last_cnt), int(row.last_cum),
                         int(row.l_ts))
            state_key = int(row.l_key)
    carry_ref = ray.put(carry)

    class Rebase:
        def __init__(self):
            self.carry = ray.get(carry_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            schema = pa.schema([
                pa.field(id_col, pa.int64()), pa.field(key_col, pa.int64()),
                pa.field("seq", pa.int64()), pa.field("delta", pa.int64()),
                pa.field("cum", pa.int64()),
            ])
            n = t.num_rows
            if n == 0:
                return schema.empty_table()
            key = t[key_col].to_numpy()
            ts = t[ts_col].to_numpy()
            val = (t[val_col].to_numpy().astype(np.int64) if val_col
                   else np.ones(n, dtype=np.int64))
            heads, run_len, head_of = _scan_runs(key)
            idx = np.arange(n, dtype=np.int64)
            seq = idx - head_of + 1
            c = np.cumsum(val)
            cum = c - (c[head_of] - val[head_of])
            delta = np.empty(n, dtype=np.int64)
            delta[1:] = ts[1:] - ts[:-1]
            delta[0] = 0
            valid = np.ones(n, dtype=bool)
            valid[heads] = False
            ident = (int(key[0]), int(ts[0]),
                     int(t[id_col][0].as_py()))
            cin = self.carry.get(ident)
            if cin is not None:
                first = int(run_len[0])
                seq[:first] += cin[0]
                cum[:first] += cin[1]
                delta[0] = ts[0] - cin[2]
                valid[0] = True
            return pa.table([
                t[id_col], t[key_col], pa.array(seq),
                pa.array(delta, mask=~valid), pa.array(cum),
            ], schema=schema)

    return sorted_ds.map_batches(
        Rebase, batch_format="pyarrow", batch_size=None, concurrency=2
    )
