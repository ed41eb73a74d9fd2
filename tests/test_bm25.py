"""BM25 convention tests — formula pinned against hand-computed values
and DuckDB-evaluated ln(), so engine and oracle share one definition."""

import duckdb
import numpy as np

from gazetteer_search_ray.functions import bm25


def test_idf_matches_duckdb_ln():
    n, df = 1000, 7
    expected = duckdb.sql(f"select ln(1 + ({n} - {df} + 0.5)/({df} + 0.5))").fetchone()[0]
    assert abs(float(bm25.idf(df, n)) - expected) < 1e-12


def test_tf_norm_hand_value():
    # tf=2, dl=10, avgdl=10 → 2*2.2/(2 + 1.2*(1-0.75+0.75*1)) = 4.4/3.2
    got = bm25.tf_norm(np.array([2.0]), np.array([10.0]), 10.0).item()
    assert abs(got - 4.4 / 3.2) < 1e-12


def test_term_scores_vectorized():
    tf = np.array([1, 2, 5])
    dl = np.array([10, 20, 5])
    s = bm25.term_scores(tf, dl, df=2, n_docs=100, avgdl=12.0)
    assert s.shape == (3,)
    assert s.dtype == np.float64
    assert (s > 0).all()
    # higher tf with shorter doc scores strictly higher
    assert s[2] > s[0]


def test_block_upper_bound_dominates():
    rng = np.random.default_rng(7)
    tf = rng.integers(1, 20, 256)
    dl = rng.integers(5, 300, 256)
    exact = bm25.term_scores(tf, dl, df=50, n_docs=10_000, avgdl=100.0)
    ub = bm25.block_upper_bound(
        np.array([tf.max()]), np.array([dl.min()]), df=50, n_docs=10_000, avgdl=100.0
    )
    assert float(ub[0]) >= exact.max()
