"""Concurrent callers of one ``Searcher`` get the same hits as serial ones.

``SearchHTTPServer(pool_size=1)`` runs every connection in its own
thread against one in-process ``Searcher``.  The dense boolean path and
the float32 band write into the engine's shared scratch arrays, and the
leaf LRU and the reader's caches are shared too, so two overlapping
searches used to return each other's hits or raise.  Both tests replay
hot-term plans from several threads, compare every reply with a serial
run, and need Ray only to build the index."""

import http.client
import json
import random
import shutil
import sys
import threading
import urllib.parse

import pytest

from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
from gazetteer_search_ray.pipelines.build_index import BuildOptions, build_index
from gazetteer_search_ray.pipelines.query import Bool
from gazetteer_search_ray.pipelines.search import (
    Searcher,
    analyze_query,
    build_cascade,
)
from gazetteer_search_ray.sources.corpus import read_corpus, write_synthetic_corpus
from gazetteer_search_ray.stages.tokenize import FIELD_SEP

BASE = "/tmp/gsr_concurrency"
N_PLANS = 40
PER_THREAD = 60
K = 20


@pytest.fixture(scope="module")
def idx(ray_session):
    shutil.rmtree(BASE, ignore_errors=True)
    files = write_synthetic_corpus(f"{BASE}/corpus", n_docs=4000, n_files=2)
    build_index(
        read_corpus(files),
        f"{BASE}/idx",
        BuildOptions(analyzer_config=AnalyzerConfig.code()),
    )
    yield f"{BASE}/idx"
    shutil.rmtree(BASE, ignore_errors=True)


@pytest.fixture(scope="module")
def plans(idx):
    """Queries of two or three of the 40 highest-df terms, with their
    serial results; at least one takes the dense path."""
    s = Searcher(idx)
    r = s.reader
    terms = [t for t in r.all_terms() if FIELD_SEP not in t]
    top = sorted(terms, key=lambda t: (-r.posting(t).df, t))[:40]
    rng = random.Random(7)
    qs = [" ".join(rng.sample(top, rng.choice((2, 3))))
          for _ in range(N_PLANS)]
    assert any(
        isinstance(v, Bool) and s.engine._dense_ok(v)
        for q in qs
        for v in build_cascade(analyze_query(q, r.analyzer), None, False)
    )
    return [(q, _key(s.search(q, k=K, use_prior=False))) for q in qs]


def _key(hits: list[dict]) -> list[tuple]:
    return [(h["doc_id"], h["score"]) for h in hits]


def _hammer(n_threads: int, plans, ask) -> tuple[int, list[str]]:
    """Run ``PER_THREAD`` plans on each of ``n_threads`` threads at once,
    ``ask(state, q)`` answering one; return (wrong replies, errors)."""
    wrong = [0] * n_threads
    errors: list[str] = []
    start = threading.Barrier(n_threads)

    def worker(i: int) -> None:
        state = {}
        try:
            start.wait()
            for j in range(PER_THREAD):
                q, want = plans[(i * 7 + j) % len(plans)]
                if ask(state, q) != want:
                    wrong[i] += 1
        except Exception as e:  # noqa: BLE001 - reported below
            errors.append(f"{type(e).__name__}: {e}")
        finally:
            if "conn" in state:
                state["conn"].close()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return sum(wrong), errors


def test_threads_sharing_one_searcher_match_serial(idx, plans):
    s = Searcher(idx)

    def ask(state, q):
        return _key(s.search(q, k=K, use_prior=False))

    wrong, errors = _hammer(4, plans, ask)
    assert (wrong, errors) == (0, [])


def test_keepalive_clients_of_one_server_match_serial(idx, plans):
    from gazetteer_search_ray.server import SearchHTTPServer

    srv = SearchHTTPServer(idx, port=0, pool_size=1).start()

    def ask(state, q):
        if "conn" not in state:
            state["conn"] = http.client.HTTPConnection(
                "127.0.0.1", srv.port, timeout=30)
        conn = state["conn"]
        qs = urllib.parse.urlencode({"q": q, "size": K})
        conn.request("GET", f"/location/_search?{qs}")
        resp = conn.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 200, body
        return _key(body["rows"])

    try:
        wrong, errors = _hammer(4, plans, ask)
    finally:
        srv.shutdown()
    assert (wrong, errors) == (0, [])
