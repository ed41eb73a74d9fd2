"""Local stand-in for the driver's correctness gate: run every
queries() entry at a given SF and compare row-count / schema / values
against oracle_sql() via DuckDB (order-insensitive, column-name-sorted).

Usage: python tools/check_driver_contract.py [sf_dir] [names...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd


def to_pandas(res):
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(res, rd.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = np.round(df[c].astype(np.float64), 6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    con = duckdb.connect()
    for tbl in ["region", "nation", "customer", "supplier", "part", "orders",
                "lineitem", "events", "documents", "embeddings"]:
        p = os.path.join(sf_dir, f"{tbl}.parquet")
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {tbl} AS SELECT * FROM '{p}'")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.monotonic()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            continue
        el = time.monotonic() - t0
        try:
            exp = canon(con.sql(sqls[name]).df())
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: oracle raised {e}")
            continue
        if list(got.columns) != list(exp.columns):
            failures.append(name)
            print(f"FAIL {name}: columns {list(got.columns)} != {list(exp.columns)}")
            continue
        if len(got) != len(exp):
            failures.append(name)
            print(f"FAIL {name}: rows {len(got)} != {len(exp)}")
            continue
        eq = got.equals(exp)
        if not eq:
            diff = (got != exp) & ~(got.isna() & exp.isna())
            ndiff = int(diff.to_numpy().sum())
            failures.append(name)
            print(f"FAIL {name}: {ndiff} differing cells")
            bad = diff.any(axis=1)
            print(pd.concat([got[bad].head(3), exp[bad].head(3)], axis=1))
        else:
            print(f"ok   {name}: rows={len(got)} match ({el:.1f}s)")
    print(f"\n{len(failures)} failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
