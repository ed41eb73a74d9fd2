"""As-of join: sort-exchange kernel vs a brute-force reference.

Covers numeric and string keys, keys that straddle sorted-block
boundaries, left rows with no preceding right row (typed nulls), and
the inclusive at-or-before tie rule.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from gazetteer_search_ray.pipelines.asof import asof_join


def _brute(left: pd.DataFrame, right: pd.DataFrame, key, on, payload):
    out = []
    for _, lrow in left.iterrows():
        cand = right[(right[key] == lrow[key]) & (right[on] <= lrow[on])]
        rec = dict(lrow)
        if len(cand):
            best = cand.sort_values(on).iloc[-1]
            for c in payload:
                rec[c] = best[c]
        else:
            for c in payload:
                rec[c] = None
        out.append(rec)
    return pd.DataFrame(out)


def _run(left_df, right_df, key, on, payload, **kw):
    import ray.data as rd

    left = rd.from_arrow(pa.Table.from_pandas(left_df)).repartition(4)
    right = rd.from_arrow(pa.Table.from_pandas(right_df)).repartition(4)
    got = asof_join(left, right, key_col=key, on_col=on).to_pandas()
    want = _brute(left_df, right_df, key, on, payload)
    sort_cols = list(left_df.columns)
    got = got.sort_values(sort_cols).reset_index(drop=True)
    want = want.sort_values(sort_cols).reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(
        got, want.astype(got.dtypes.to_dict()), check_like=True
    )
    return got


def test_asof_numeric_keys(ray_session):
    rng = np.random.default_rng(7)
    left = pd.DataFrame({
        "k": rng.integers(0, 20, 300),
        "t": rng.integers(0, 1000, 300),
        "lid": np.arange(300),
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 20, 200),
        "t": rng.integers(0, 1000, 200),
        "pay": rng.normal(size=200).round(6),
    }).drop_duplicates(["k", "t"])
    _run(left, right, "k", "t", ["pay"])


def test_asof_string_keys_and_no_match(ray_session):
    # key "zz" has right rows only AFTER every left row -> all-null payload
    left = pd.DataFrame({
        "k": ["a", "a", "b", "zz", "zz", "c"],
        "t": [10, 5, 7, 1, 2, 100],
        "lid": [0, 1, 2, 3, 4, 5],
    })
    right = pd.DataFrame({
        "k": ["a", "a", "b", "zz", "q"],
        "t": [5, 9, 8, 50, 1],
        "pay": [1.0, 2.0, 3.0, 4.0, 5.0],
    })
    got = _run(left, right, "k", "t", ["pay"])
    assert got.loc[got.k == "zz", "pay"].isna().all()
    # inclusive tie: left (a, t=5) matches right (a, t=5)
    assert got.loc[(got.k == "a") & (got.t == 5), "pay"].iloc[0] == 1.0


def test_asof_hot_key_spanning_blocks(ray_session):
    # one key with enough rows to straddle several sorted blocks:
    # exercises the boundary-run driver fix-up path
    rng = np.random.default_rng(11)
    n = 5000
    left = pd.DataFrame({
        "k": np.zeros(n, dtype=np.int64),
        "t": rng.permutation(n).astype(np.int64) * 2 + 1,  # odd times
        "lid": np.arange(n),
    })
    right = pd.DataFrame({
        "k": np.zeros(n // 2, dtype=np.int64),
        "t": (np.arange(n // 2, dtype=np.int64) * 4),  # even times
        "pay": np.arange(n // 2, dtype=np.float64),
    })
    import ray.data as rd

    left_ds = rd.from_arrow(pa.Table.from_pandas(left)).repartition(8)
    right_ds = rd.from_arrow(pa.Table.from_pandas(right)).repartition(8)
    got = asof_join(left_ds, right_ds, key_col="k", on_col="t").to_pandas()
    got = got.sort_values("lid").reset_index(drop=True)
    # closed form: latest right t <= left t is floor(t/4)*4, pay = t//4
    want_pay = np.minimum(
        got["t"].to_numpy() // 4, n // 2 - 1
    ).astype(np.float64)
    assert len(got) == n
    np.testing.assert_array_equal(got["pay"].to_numpy(), want_pay)


def test_asof_clashing_columns_rejected(ray_session):
    import ray.data as rd

    left = rd.from_arrow(pa.table({"k": [1], "t": [1], "pay": [1.0]}))
    right = rd.from_arrow(pa.table({"k": [1], "t": [1], "pay": [2.0]}))
    with pytest.raises(ValueError, match="clash"):
        asof_join(left, right, key_col="k", on_col="t")


def test_asof_right_tiebreak_resolves_duplicates(ray_session):
    """Duplicate (key, on) right rows: right_tiebreak folds the
    groupby(key, on).max(payload) pre-reduce into the join's one sort
    exchange — the matched payload must be the per-(key, on) MAX."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    left = pd.DataFrame({
        "k": rng.integers(0, 8, 200),
        "t": rng.integers(0, 300, 200),
        "lid": np.arange(200),
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 8, 400),
        "t": rng.integers(0, 300, 400),       # heavy (k, t) duplication
        "pay": rng.normal(size=400).round(6),
    })
    got = asof_join(
        rd.from_arrow(pa.Table.from_pandas(left)).repartition(4),
        rd.from_arrow(pa.Table.from_pandas(right)).repartition(4),
        key_col="k", on_col="t", right_tiebreak="pay",
    ).to_pandas().sort_values("lid").reset_index(drop=True)
    reduced = right.groupby(["k", "t"], as_index=False)["pay"].max()
    want = _brute(left, reduced, "k", "t", ["pay"]) \
        .sort_values("lid").reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()),
                                  check_like=True)


def test_asof_tiebreak_must_be_payload(ray_session):
    import ray.data as rd

    left = pd.DataFrame({"k": [1], "t": [1], "lid": [0]})
    right = pd.DataFrame({"k": [1], "t": [0], "pay": [1.0]})
    with pytest.raises(ValueError, match="right_tiebreak"):
        asof_join(rd.from_arrow(pa.Table.from_pandas(left)),
                  rd.from_arrow(pa.Table.from_pandas(right)),
                  key_col="k", on_col="t", right_tiebreak="nope")
