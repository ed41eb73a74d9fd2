"""Relational / maintenance operators (SURVEY.md §2.5 + S4/S8/M15).

Each mirrors a reference batch-maintenance job, re-expressed as Ray Data
transforms with explicit shuffle keys:

* :func:`distinct_first_by_key` — M15/Q11 distinct-by-name: the
  reference keeps an insertion-ordered counter per name hash
  (``ImportObjectParser.java:215-237``) and filters
  ``by_name_agg_index=0`` (``builders/DistinctNameFilter.java``); the
  deterministic re-expression is groupby(key) → min(order_col).
* :func:`name_agg_index` — the full M15 counter (0..n-1 per group) via
  a sorted-run cumcount in doc_id order.
* :func:`join_aggregate_counts` — G2 street-usage backfill
  (``imp/addr/UpdateStreetsUsage.java:47-132``): the reference scrolls
  every street and issues per-row count searches; here it is ONE
  pre-aggregated ``groupby().count()`` on the fact side followed by a
  broadcast hash-join into the dimension side (``ray.put`` once, dict
  lookup per batch — no shuffle of the dimension table).
* :func:`group_stats` — G3 tag-value statistics
  (``api/osmdoc/TagStatisticsAPI.java:37-120``).
* :func:`delete_by_query` — S4 (``AddressesImporter.java:98-108``):
  anti-filter as a vectorized predicate.
* :func:`paged_scroll` — S8 ``search_after``-keyed pagination
  (``imp/PagedScroll.java:40-87``).
* :func:`substring_overlap_flag`, :func:`expand_refs`,
  :func:`parse_first_number` — the M10 / M11 / M8 per-row import maps.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _join_partitions(requested: int | None = None) -> int:
    """Hash-shuffle partition count for ``Dataset.join``: the join spins
    up one aggregator actor per partition, so demanding 32 on a 4-CPU
    session starves the pool (measured: a toy join crawls for minutes).
    Default = the session's CPU count, clamped to [2, 32]."""
    if requested is not None:
        return requested
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(2, min(32, cpus))


def distinct_first_by_key(ds, keys: list[str], order_col: str = "doc_id"):
    """One row (min order_col + group size) per distinct key tuple."""
    from ray.data.aggregate import Count, Min

    return ds.groupby(keys).aggregate(
        Min(order_col, alias_name=order_col), Count(alias_name="group_count")
    )


def name_agg_index(ds, keys: list[str], order_col: str = "doc_id",
                   out_col: str = "by_name_agg_index"):
    """Running 0..n-1 index per key group in deterministic order (M15,
    ``ImportObjectParser.java:215-237``).

    ``sort(keys + order_col)`` range exchange, then ONE vectorized pass
    per sorted block: interior key-runs (complete groups) get their
    ``np.arange`` cumcount locally; only each block's first/last run —
    the runs that can straddle block boundaries — pass through to a
    small driver-side rebase (the postings-merge boundary pattern,
    ``stages/postings.py:78-128``).  Replaces the per-group pandas
    ``map_groups`` callback (~10 ms/group measured, fatal at 10^4+
    groups).  Boundary volume is
    O(#blocks × straddling-group size): a single hot key spanning many
    blocks degrades to a driver-side cumcount of that key only.
    """
    import ray.data as rd

    def emit(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for k in keys:
            c = t[k].to_numpy(zero_copy_only=False)
            change[1:] |= c[1:] != c[:-1]
        heads = np.flatnonzero(change)
        run_id = np.cumsum(change) - 1
        cum = np.arange(n, dtype=np.int64) - heads[run_id]
        if heads.size <= 2:  # ≤2 runs: everything may straddle
            cum[:] = -1
        else:
            cum[: heads[1]] = -1
            cum[heads[-1]:] = -1
        return t.append_column(out_col, pa.array(cum))

    mixed = ds.sort(keys + [order_col]).map_batches(
        emit, batch_format="pyarrow"
    ).materialize()
    fin = mixed.map_batches(
        lambda t: t.filter(pc.greater_equal(t[out_col], 0)),
        batch_format="pyarrow",
    )
    bnd = mixed.map_batches(
        lambda t: t.filter(pc.less(t[out_col], 0)), batch_format="pyarrow"
    ).to_pandas()
    if bnd.empty:
        return fin
    bnd = bnd.sort_values(keys + [order_col], kind="mergesort")
    bnd[out_col] = bnd.groupby(keys, sort=False).cumcount().astype(np.int64)
    return fin.union(rd.from_pandas(bnd))


def join_aggregate_counts(
    fact_ds,
    fact_key: str,
    dim_ds,
    dim_key: str,
    out_col: str = "ref_count",
    broadcast_limit: int = 5_000_000,
):
    """dim ⟕ (fact groupby key → count), G2 street-usage backfill.

    The fact side pre-aggregates per batch (pyarrow group_by combiner),
    so only one row per (key, batch) leaves a fact task.  Strategy then
    splits on aggregate size:

    * **broadcast** (≤ ``broadcast_limit`` partial rows): the partials
      are merged with one driver-side pyarrow ``group_by`` (C++), the
      resulting key→count table is ``ray.put`` once, and every dim
      batch applies it with an Arrow hash join (``Table.join``) — no
      Ray shuffle at all, no per-row Python.
    * **shuffle fallback** (bigger): a distributed
      ``groupby(key).sum`` of the partials followed by Ray's
      hash-shuffle ``Dataset.join`` — nothing key-cardinality-sized
      ever reaches the driver.

    The partial-row count that picks the strategy is itself computed
    streaming (``partials.count()``); the partial table is materialized
    so the strategy probe doesn't re-scan the fact table.
    """
    import ray
    import ray.data as rd

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by([fact_key], use_threads=False).aggregate(
            [(fact_key, "count")]
        )
        return g.rename_columns([fact_key, "p_cnt"])

    partials = fact_ds.map_batches(partial, batch_format="pyarrow").materialize()

    if partials.count() <= broadcast_limit:
        # ---- broadcast path (the common case: dim-sized aggregate) ----
        merged = (
            pa.concat_tables(ray.get(partials.to_arrow_refs()))
            .group_by([fact_key], use_threads=True)
            .aggregate([("p_cnt", "sum")])
            .rename_columns([fact_key, out_col])
        )
        merged = merged.set_column(
            merged.schema.get_field_index(out_col),
            out_col,
            pc.cast(merged[out_col], pa.int64()),
        )
        lookup_ref = ray.put(merged)

        # stateless tasks, not an actor pool: a fixed-size pool holds
        # its CPUs for the whole stage, and on a small cluster the dim
        # read then never gets one (a 2-CPU cluster hung here)
        def backfill(batch: pa.Table) -> pa.Table:
            joined = batch.join(
                ray.get(lookup_ref),  # plasma-local, zero-copy
                keys=[dim_key],
                right_keys=[fact_key],
                join_type="left outer",
            )
            cnt = pc.fill_null(joined[out_col], 0)
            i = joined.schema.get_field_index(out_col)
            return joined.set_column(i, out_col, pc.cast(cnt, pa.int64()))

        return dim_ds.map_batches(backfill, batch_format="pyarrow")

    # ---- shuffle fallback: distributed aggregate + hash-shuffle join ----
    from ray.data.aggregate import Sum

    counts = (
        partials.groupby(fact_key).aggregate(Sum("p_cnt", alias_name=out_col))
    )
    if fact_key == dim_key:
        counts = counts.map_batches(
            lambda t: t.rename_columns([fact_key + "__jk", out_col]),
            batch_format="pyarrow",
        )
        right_key = fact_key + "__jk"
    else:
        right_key = fact_key
    try:
        nparts = max(dim_ds.num_blocks(), 8)
    except NotImplementedError:
        nparts = 32
    joined = dim_ds.join(
        counts,
        join_type="left_outer",
        num_partitions=nparts,
        on=(dim_key,),
        right_on=(right_key,),
    )

    def finish(t: pa.Table) -> pa.Table:
        cnt = pc.cast(pc.fill_null(t[out_col], 0), pa.int64())
        t = t.set_column(t.schema.get_field_index(out_col), out_col, cnt)
        if right_key in t.column_names and right_key != dim_key:
            t = t.drop_columns([right_key])
        return t

    return joined.map_batches(finish, batch_format="pyarrow")


def group_stats(ds, col: str, alias: str = "cnt"):
    from ray.data.aggregate import Count

    return ds.groupby(col).aggregate(Count(alias_name=alias))


def delete_by_query(ds, col: str, values: tuple):
    """Anti-filter: drop rows whose col ∈ values (vectorized)."""
    vals = pa.array(list(values))

    def f(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(t[col], value_set=vals)))

    return ds.map_batches(f, batch_format="pyarrow")


def paged_scroll(ds, order_col: str, after, page_size: int,
                 filter_col: str | None = None, filter_val=None):
    """One ``search_after`` page: filter → keyed range scan → limit."""

    def f(t: pa.Table) -> pa.Table:
        if filter_col is not None:
            t = t.filter(pc.equal(t[filter_col], filter_val))
        return t.filter(pc.greater(t[order_col], after))

    return ds.map_batches(f, batch_format="pyarrow").sort(order_col).limit(page_size)


def sample_hash(ds, frac: float, id_col: str = "doc_id"):
    """Deterministic hash sampling: keep rows whose Knuth multiplicative
    hash of ``id_col`` falls under ``frac`` — reproducible across runs
    and engines (the SQL oracle computes the same arithmetic), no RNG
    state, one streaming pass, no shuffle."""
    threshold = np.uint64(int(frac * 4294967296))

    def f(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(4294967296)
        return t.filter(pa.array(h < threshold))

    return ds.map_batches(f, batch_format="pyarrow")


def sample_fixed(ds, n: int, id_col: str = "doc_id", as_pandas: bool = True):
    """Deterministic EXACTLY-n global sample: the ``n`` rows with the
    smallest Knuth multiplicative hash of ``id_col`` (ties by id) —
    the reproducible "give me exactly n uniform rows" primitive.
    Sample prefixes NEST: sample_fixed(m ≤ n) is a subset of
    sample_fixed(n), so growing a debugging sample keeps old rows.

    Schema-preserving and scale-shaped: each batch keeps only its own
    n smallest-hash rows (vectorized argpartition combiner), so the
    final exchange sorts a candidate set of ≤ #blocks × n rows — never
    the input — and ``limit(n)`` trims it.  n is human-sized by
    contract (it lands on the driver when ``as_pandas``).
    """

    def combine(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.uint64)
        h = ((ids * np.uint64(2654435761)) % np.uint64(4294967296)) \
            .astype(np.int64)
        if t.num_rows > n:
            sel = np.argpartition(h, n)[:n]
            t = t.take(pa.array(sel))
            h = h[sel]
        return t.append_column("__h", pa.array(h))

    out = (
        ds.map_batches(combine, batch_format="pyarrow")
        .sort(["__h", id_col])
        .limit(n)
        .drop_columns(["__h"])
    )
    if not as_pandas:
        return out
    df = out.to_pandas()
    return df.sort_values(id_col).reset_index(drop=True)


def grouped_topk(ds, group_col: str, val_col: str, k: int,
                 id_col: str = "doc_id", as_pandas: bool = True,
                 small_limit: int = 200_000):
    """Top-k rows per group by (val desc, id asc) — the window-function
    ``row_number() OVER (PARTITION BY g ORDER BY v DESC)`` analog.

    Fully distributed merge (nothing group-cardinality-sized ever lands
    on the driver):

    1. per-batch combiner: each batch emits at most k rows per group it
       contains (vectorized lexsort + run-limited take), so the merge
       sees ≤ groups × batches × k rows, never the input;
    2. ONE ``sort([group, val desc, id])`` range exchange over the
       combiner output — a global sort keeps each group contiguous and
       already rank-ordered;
    3. per sorted block, every key-run strictly interior to the block is
       COMPLETE: its first min(k, len) rows ARE the group's top-k (one
       vectorized run-limited take).  Only the first/last run of each
       block — O(#blocks) runs — pass through to a tiny driver-side
       rebase (the postings-merge boundary pattern,
       ``stages/postings.py:78-128``).

    Combiner outputs of ≤ ``small_limit`` rows skip the sort exchange
    and merge on the driver — exact same result, none of the toy-scale
    shuffle overhead (the ``_pairs_from_band_rows`` shortcut pattern).

    Returns a pandas frame (group, id, val) sorted (group, rank) when
    ``as_pandas`` (the oracle-comparison shape), else the un-collected
    Dataset for group cardinalities too large to materialize anywhere.
    """
    import pandas as pd
    import ray.data as rd

    def partial(t: pa.Table) -> pa.Table:
        g = np.asarray(t[group_col].to_pylist(), dtype=object)
        v = t[val_col].to_numpy()
        # zero_copy_only=False: id may be a string column (e.g. a term)
        i = t[id_col].to_numpy(zero_copy_only=False)
        # sort (group asc, val desc, id asc), keep first k of each run
        order = np.lexsort((i, -v, g))
        gs = g[order]
        heads = np.concatenate(([0], np.flatnonzero(gs[1:] != gs[:-1]) + 1,
                                [gs.size]))
        keep = []
        for s, e in zip(heads[:-1], heads[1:]):
            keep.append(order[s : min(s + k, e)])
        sel = np.concatenate(keep) if keep else np.empty(0, np.int64)
        return t.take(pa.array(sel))

    def rank_runs(t: pa.Table) -> pa.Table:
        """Within-run rank per row; first/last run of the block → -1
        (may straddle a sorted-block boundary)."""
        n = t.num_rows
        if n == 0:
            return t.append_column("__rank", pa.array([], pa.int64()))
        g = t[group_col].to_numpy(zero_copy_only=False)
        change = np.zeros(n, dtype=bool)
        change[0] = True
        change[1:] = g[1:] != g[:-1]
        heads = np.flatnonzero(change)
        run_id = np.cumsum(change) - 1
        rank = np.arange(n, dtype=np.int64) - heads[run_id]
        if heads.size <= 2:  # ≤2 runs: everything may straddle
            rank[:] = -1
        else:
            rank[: heads[1]] = -1
            rank[heads[-1]:] = -1
        return t.append_column("__rank", pa.array(rank))

    parts = (
        ds.select_columns([group_col, val_col, id_col])
        .map_batches(partial, batch_format="pyarrow")
        .materialize()
    )
    if parts.count() <= small_limit:
        small = (
            parts.to_pandas()
            .sort_values([group_col, val_col, id_col],
                         ascending=[True, False, True], kind="mergesort")
            .groupby(group_col, sort=True)
            .head(k)
            .reset_index(drop=True)[[group_col, id_col, val_col]]
        )
        if as_pandas:
            return small
        return rd.from_pandas(small[[group_col, val_col, id_col]])
    mixed = (
        parts.sort([group_col, val_col, id_col],
                   descending=[False, True, False])
        .map_batches(rank_runs, batch_format="pyarrow")
        .materialize()
    )
    fin = mixed.map_batches(
        lambda t: t.filter(
            pc.and_(pc.greater_equal(t["__rank"], 0),
                    pc.less(t["__rank"], k))
        ).drop_columns(["__rank"]),
        batch_format="pyarrow",
    )
    bnd = mixed.map_batches(
        lambda t: t.filter(pc.less(t["__rank"], 0)).drop_columns(["__rank"]),
        batch_format="pyarrow",
    ).to_pandas()
    if not bnd.empty:
        bnd = (
            bnd.sort_values([group_col, val_col, id_col],
                            ascending=[True, False, True], kind="mergesort")
            .groupby(group_col, sort=False)
            .head(k)
        )
        fin = fin.union(rd.from_pandas(bnd))
    if not as_pandas:
        return fin
    out = fin.to_pandas()
    return (
        out.sort_values([group_col, val_col, id_col],
                        ascending=[True, False, True])
        .reset_index(drop=True)[[group_col, id_col, val_col]]
    )


def substring_overlap_flag(ds, col_a: str, col_b: str,
                           out_col: str = "street_has_loc",
                           analyzer=None):
    """M10 ``street_has_loc``: True when any token of ``col_a``
    substring-matches any token of ``col_b`` in either direction
    (reference ``ImportObjectParser.java:202-213`` — street token vs
    locality token).  Tokens come from the shared analyzer (or
    whitespace split); the per-row loop runs over the few short tokens
    of two name fields, the same work the reference does per row.
    """

    def tok(x: str) -> list[str]:
        if analyzer is not None:
            return [t for t, _ in analyzer.tokens(x or "")]
        return (x or "").lower().split()

    def f(t: pa.Table) -> pa.Table:
        flags = []
        for a, b in zip(t[col_a].to_pylist(), t[col_b].to_pylist()):
            ta, tb = tok(a), tok(b)
            flags.append(
                any(x in y or y in x for x in ta for y in tb)
            )
        return t.append_column(out_col, pa.array(flags, pa.bool_()))

    return ds.map_batches(f, batch_format="pyarrow")


def expand_refs(ds, col: str, out_col: str | None = None):
    """M11 refs expansion (reference ``ImportObjectParser.java:287-327``):
    for each ref value keep the raw string and append the parsed third
    ``-``-segment id (the OSM id inside ``r-x-12345`` style refs)."""
    out_col = out_col or col

    def f(t: pa.Table) -> pa.Table:
        out = []
        for vals in t[col].to_pylist():
            if vals is None:
                out.append([])
                continue
            if isinstance(vals, str):
                vals = [vals]
            expanded = []
            for v in vals:
                expanded.append(v)
                parts = str(v).split("-")
                if len(parts) >= 3 and parts[2]:
                    expanded.append(parts[2])
            out.append(expanded)
        arr = pa.array(out, pa.list_(pa.string()))
        if out_col in t.column_names:
            t = t.drop_columns([out_col])
        return t.append_column(out_col, arr)

    return ds.map_batches(f, batch_format="pyarrow")


def parse_first_number(ds, col: str, out_col: str = "housenumber_number"):
    """M8 housenumber parse (reference
    ``ImportObjectParser.java:243-261``): the first integer run in the
    string, −1 when none — vectorized with one Arrow regex extract."""

    def f(t: pa.Table) -> pa.Table:
        s = pc.cast(t[col], pa.string())
        m = pc.extract_regex(s, pattern=r"(?P<num>\d+)")
        num = pc.struct_field(m, "num")
        out = pc.cast(
            pc.if_else(pc.is_valid(num), num, pa.scalar("-1")), pa.int64()
        )
        return t.append_column(out_col, out)

    return ds.map_batches(f, batch_format="pyarrow")


def stratified_sample(ds, group_col: str, cap: int, id_col: str = "doc_id",
                      as_pandas: bool = True):
    """Deterministic stratified sampling: keep (up to) ``cap`` rows per
    group — the ones with the smallest Knuth multiplicative hash of
    ``id_col``, so membership is uniform-ish within each stratum yet
    reproducible across runs/engines with no RNG state (the
    ``sample_hash`` arithmetic, rank-capped per group).

    Rides ``grouped_topk``'s fully distributed merge (run-limited
    combiner → sort exchange → interior-run take + boundary rebase), so
    nothing group-cardinality-sized reaches the driver.  Returns a
    pandas frame (group, id) sorted when ``as_pandas``, else the
    Dataset."""
    def add_h(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(4294967296)
        # negate: grouped_topk takes val DESC, we want hash ASC
        return t.append_column("__h", pa.array(-h.astype(np.int64)))

    out = grouped_topk(
        ds.map_batches(add_h, batch_format="pyarrow"),
        group_col, "__h", cap, id_col=id_col, as_pandas=as_pandas,
    )
    if not as_pandas:
        return out.map_batches(
            lambda t: t.drop_columns(["__h"]), batch_format="pyarrow"
        )
    return (
        out[[group_col, id_col]]
        .sort_values([group_col, id_col])
        .reset_index(drop=True)
    )
