"""Differential tests for the round-4 scale-shape reworks: distributed
grouped-topk merge and distributed union-find — each checked against
its driver-side / brute-force twin on inputs that force both the
interior-run and boundary-run paths."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(df, parts=5):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df)).repartition(parts)


# ---------------------------------------------------------------------------
# grouped_topk / stratified_sample distributed merge
# ---------------------------------------------------------------------------


def test_grouped_topk_many_groups(ray_session):
    from gazetteer_search_ray.pipelines.relational import grouped_topk

    rng = np.random.default_rng(3)
    n = 20_000
    df = pd.DataFrame({
        "g": rng.integers(0, 4000, n).astype(str),  # ~4k groups
        "v": rng.integers(0, 50, n).astype(np.int64),  # heavy val ties
        "doc_id": np.arange(n, dtype=np.int64),
    })
    got = grouped_topk(_ds(df, 13), "g", "v", 3, id_col="doc_id",
                       small_limit=0)  # force the distributed merge
    want = (
        df.sort_values(["g", "v", "doc_id"], ascending=[True, False, True])
        .groupby("g", sort=True)
        .head(3)
        .reset_index(drop=True)[["g", "doc_id", "v"]]
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_grouped_topk_as_dataset(ray_session):
    """as_pandas=False returns an un-collected Dataset with the same
    rows (the 10^7-group path never materializes on the driver)."""
    from gazetteer_search_ray.pipelines.relational import grouped_topk

    rng = np.random.default_rng(4)
    df = pd.DataFrame({
        "g": rng.integers(0, 300, 3000).astype(str),
        "v": rng.standard_normal(3000),
        "doc_id": np.arange(3000, dtype=np.int64),
    })
    fin = grouped_topk(_ds(df, 7), "g", "v", 2, id_col="doc_id",
                       as_pandas=False, small_limit=0)
    got = (
        fin.to_pandas()
        .sort_values(["g", "v", "doc_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    want = grouped_topk(_ds(df, 7), "g", "v", 2, id_col="doc_id")
    pd.testing.assert_frame_equal(got[["g", "doc_id", "v"]], want)


def test_stratified_sample_many_groups(ray_session):
    from gazetteer_search_ray.pipelines.relational import stratified_sample

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "g": rng.integers(0, 500, 8000).astype(str),
        "doc_id": rng.permutation(8000).astype(np.int64),
    })
    out = stratified_sample(_ds(df, 9), "g", cap=5, id_col="doc_id")
    # every group capped at 5; membership = smallest Knuth hashes
    h = (df["doc_id"].to_numpy().astype(np.uint64) * np.uint64(2654435761)) \
        % np.uint64(4294967296)
    df2 = df.assign(h=h.astype(np.int64))
    want = (
        df2.sort_values(["g", "h", "doc_id"])
        .groupby("g", sort=True)
        .head(5)[["g", "doc_id"]]
        .sort_values(["g", "doc_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, want)


# ---------------------------------------------------------------------------
# distributed union-find
# ---------------------------------------------------------------------------


def _pairs_ds(arr):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "a": pa.array(arr[:, 0].astype(np.int64)),
        "b": pa.array(arr[:, 1].astype(np.int64)),
    })).repartition(4)


def test_union_find_distributed_matches_driver(ray_session):
    """One distributed run over the union of three disjoint-id graph
    shapes — random (mixed diameters), a 40-node path (forces pointer
    jumping), a star + isolated pairs — compared against the driver
    union-find.  (One run, not three: every label-propagation round is
    a Ray join job, so per-case runs triple the fixed overhead.)"""
    from gazetteer_search_ray.pipelines.dedup import (
        union_find_labels,
        union_find_labels_distributed,
    )

    rng = np.random.default_rng(7)
    rand = rng.integers(0, 400, size=(600, 2)).astype(np.int64)
    rand = rand[rand[:, 0] != rand[:, 1]]
    ids = 10_000 + np.arange(40, dtype=np.int64) * 7  # path graph
    chain = np.stack([ids[:-1], ids[1:]], axis=1)
    star = np.array([[100_050, i] for i in range(100_051, 100_080)] +
                    [[101_000, 102_000], [103_000, 104_000]],
                    dtype=np.int64)
    arr = np.concatenate([rand, chain, star])
    nodes, labels = union_find_labels(arr)
    want = pd.DataFrame({"doc_id": nodes, "cluster_id": labels})
    got = (
        union_find_labels_distributed(_pairs_ds(arr), num_partitions=2)
        .to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
        .astype({"doc_id": np.int64, "cluster_id": np.int64})
    )
    pd.testing.assert_frame_equal(got, want)


# ---------------------------------------------------------------------------
# capped hash caches stay correct past the cap
# ---------------------------------------------------------------------------


def test_cached_hash64_past_cap(monkeypatch):
    from gazetteer_search_ray.pipelines import dedup

    monkeypatch.setattr(dedup, "_CACHE_CAP", 4)
    cache: dict[str, int] = {}
    strings = [f"s{i}" for i in range(10)]
    want = dedup._stable_hash64(strings)
    got1 = dedup._cached_hash64(cache, strings[:3])  # fills under cap
    got2 = dedup._cached_hash64(cache, strings)      # overflows the cap
    got3 = dedup._cached_hash64(cache, strings)      # again (mixed hit/miss)
    assert np.array_equal(got1, want[:3])
    assert np.array_equal(got2, want)
    assert np.array_equal(got3, want)
    assert len(cache) <= 4
