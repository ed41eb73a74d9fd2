"""PageRank and RRF fusion vs brute force."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from gazetteer_search_ray.pipelines.fusion import rank_leg, rrf_fuse
from gazetteer_search_ray.pipelines.graph import pagerank


def _brute_pagerank(edges: list[tuple[int, int]], d=0.85, iters=5):
    e = sorted(set(edges))
    nodes = sorted({u for u, _ in e} | {v for _, v in e})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n)
    for u, _ in e:
        out[idx[u]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        nxt = np.full(n, (1 - d) / n)
        for u, v in e:
            nxt[idx[v]] += d * r[idx[u]] / out[idx[u]]
        r = nxt
    return pd.DataFrame({"node": np.array(nodes, np.int64), "rank": r})


def _edges_df(rng, n_nodes=40, n_edges=300):
    src = rng.integers(0, n_nodes, n_edges)
    dst = (src * 7 + rng.integers(0, n_nodes, n_edges)) % n_nodes
    return pd.DataFrame({"src": src.astype(np.int64),
                         "dst": dst.astype(np.int64)})


def test_pagerank_matches_bruteforce(ray_session):
    rng = np.random.default_rng(7)
    df = _edges_df(rng)
    want = _brute_pagerank(list(zip(df["src"], df["dst"])))
    got = pagerank(rd.from_pandas(df).repartition(5), strategy="broadcast")
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want, atol=1e-12, rtol=0)


def test_pagerank_shuffle_matches_broadcast(ray_session):
    rng = np.random.default_rng(11)
    df = _edges_df(rng, n_nodes=25, n_edges=120)
    a = pagerank(rd.from_pandas(df).repartition(4), strategy="broadcast")
    b = pagerank(rd.from_pandas(df).repartition(4), strategy="shuffle")
    pd.testing.assert_frame_equal(a, b, atol=1e-12, rtol=0)


def test_pagerank_dangling_and_hub(ray_session):
    # 0→1, 2→1: node 1 is a dangling sink, its mass leaks (documented)
    df = pd.DataFrame({"src": [0, 2], "dst": [1, 1]})
    got = pagerank(rd.from_pandas(df), iters=1)
    n = 3
    d = 0.85
    want = {0: (1 - d) / n, 2: (1 - d) / n,
            1: (1 - d) / n + d * (1 / n + 1 / n)}
    for _, row in got.iterrows():
        assert row["rank"] == pytest.approx(want[int(row["node"])])


def test_rrf_fuse_basic():
    lex = rank_leg(pd.DataFrame({"doc_id": [3, 1, 2],
                                 "score": [9.0, 5.0, 1.0]}),
                   "doc_id", "score", top_n=3)
    vec = rank_leg(pd.DataFrame({"doc_id": [2, 3, 9],
                                 "cos": [0.9, 0.5, 0.1]}),
                   "doc_id", "cos", top_n=3)
    out = rrf_fuse([lex, vec], k=60, top_n=4)
    # doc 3: 1/(60+1) + 1/(60+2); doc 2: 1/(60+3) + 1/(60+1)
    by = dict(zip(out["doc_id"], out["rrf"]))
    assert by[3] == pytest.approx(1 / 61 + 1 / 62)
    assert by[2] == pytest.approx(1 / 63 + 1 / 61)
    assert by[9] == pytest.approx(1 / 63)
    assert out["doc_id"].tolist()[0] == 3  # highest fused score first


def test_rank_leg_rounds_before_ranking():
    # 6dp-equal scores tie → id ascending breaks the tie
    df = pd.DataFrame({"doc_id": [5, 2],
                       "score": [1.0000004, 1.0000001]})
    got = rank_leg(df, "doc_id", "score", top_n=2)
    assert got["doc_id"].tolist() == [2, 5]


def _brute_ppr(edges, seeds, d=0.85, iters=5):
    e = sorted(set(edges))
    nodes = sorted({u for u, _ in e} | {v for _, v in e})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n)
    for u, _ in e:
        out[idx[u]] += 1
    sv = [s for s in seeds if s in idx]
    tele = np.zeros(n)
    for s in sv:
        tele[idx[s]] = 1.0 / len(sv)
    r = tele.copy()
    for _ in range(iters):
        nxt = (1 - d) * tele
        for u, v in e:
            nxt[idx[v]] += d * r[idx[u]] / out[idx[u]]
        r = nxt
    return pd.DataFrame({"node": np.array(nodes, np.int64), "rank": r})


def test_personalized_pagerank_matches_bruteforce(ray_session):
    rng = np.random.default_rng(13)
    df = _edges_df(rng, n_nodes=30, n_edges=150)
    seeds = np.array([0, 3, 6, 9, 999], np.int64)  # 999 absent -> ignored
    want = _brute_ppr(list(zip(df["src"], df["dst"])), seeds.tolist())
    got = pagerank(rd.from_pandas(df).repartition(4),
                   strategy="broadcast", seeds=seeds)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want, atol=1e-12, rtol=0)


def test_personalized_pagerank_shuffle_matches_broadcast(ray_session):
    rng = np.random.default_rng(17)
    df = _edges_df(rng, n_nodes=20, n_edges=90)
    seeds = np.array([0, 5, 10], np.int64)
    a = pagerank(rd.from_pandas(df), strategy="broadcast", seeds=seeds)
    b = pagerank(rd.from_pandas(df), strategy="shuffle", seeds=seeds)
    pd.testing.assert_frame_equal(a, b, atol=1e-12, rtol=0)


def test_pagerank_no_seed_in_graph_raises(ray_session):
    df = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    with pytest.raises(ValueError):
        pagerank(rd.from_pandas(df), seeds=np.array([99], np.int64))


def test_connected_components_matches_brute(ray_session):
    from gazetteer_search_ray.pipelines.graph import connected_components

    # two components {0,1,2,7} and {3,4}, singleton via self-edge {9}
    df = pd.DataFrame({"src": [0, 1, 2, 3, 9, 7],
                       "dst": [1, 2, 0, 4, 9, 0]})
    out = connected_components(rd.from_pandas(df).repartition(3))
    got = dict(zip(out["node"], out["component_id"]))
    assert got == {0: 0, 1: 0, 2: 0, 7: 0, 3: 3, 4: 3, 9: 9}


def test_degree_stats_matches_brute(ray_session):
    from gazetteer_search_ray.pipelines.graph import degree_stats

    # duplicate edge (0->1) must count once; 2 is sink-only
    df = pd.DataFrame({"src": [0, 0, 0, 1], "dst": [1, 1, 2, 2]})
    out = degree_stats(rd.from_pandas(df).repartition(2))
    rows = {int(r["node"]): (int(r["out_deg"]), int(r["in_deg"]))
            for _, r in out.iterrows()}
    assert rows == {0: (2, 0), 1: (1, 1), 2: (0, 2)}
