"""Pipelines must finish on a small cluster: a stage that reserves
every CPU for an actor pool starves the stages feeding it."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_join_agg_finishes_on_two_cpus(sf_dir):
    script = textwrap.dedent(f"""
        import ray
        from ray.data import DataContext
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        DataContext.get_current().enable_progress_bars = False
        from gazetteer_search_ray.driver_queries import q_join_agg
        import pyarrow.parquet as pq
        out = q_join_agg({sf_dir!r})
        n_items = pq.read_metadata({sf_dir!r} + "/lineitem.parquet").num_rows
        assert len(out) > 0 and out["ref_count"].sum() == n_items
        print("rows", len(out))
        ray.shutdown()
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT)}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "rows" in proc.stdout
