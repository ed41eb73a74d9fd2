"""HTTP serve layer e2e (reference `serve` command:
server/REServerRoutes.java:40-67 + api/SearchAPIAdapter.java:63-137).

Drives the reference's es_queries scenario families through the HTTP
adapter: prefix, city-street, city-street-hn, street-match,
terms-filter — each issued as a real GET against a live server over a
small gazetteer-analyzer index, responses compared to the in-process
Searcher.  The keep-alive tests drive one ``http.client`` connection
through many requests, errors and bad inputs."""

import http.client
import json
import shutil
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
from gazetteer_search_ray.pipelines.build_index import BuildOptions, build_index
from gazetteer_search_ray.pipelines.search import Searcher
from gazetteer_search_ray.server import MAX_BODY_BYTES

BASE = "/tmp/gsr_server"

DOCS = [
    {"doc_id": 0, "content": "улица Ленина 12a Москва", "lang": "ru"},
    {"doc_id": 1, "content": "проспект Мира 5к2 Москва", "lang": "ru"},
    {"doc_id": 2, "content": "main street 42 springfield", "lang": "en"},
    {"doc_id": 3, "content": "oak avenue 7 portland", "lang": "en"},
    {"doc_id": 4, "content": "main street springfield cafe", "lang": "en"},
    {"doc_id": 5, "content": "springfield city hall", "lang": "en"},
]


@pytest.fixture(scope="module")
def server(ray_session):
    import ray.data as rd

    from gazetteer_search_ray.server import SearchHTTPServer

    shutil.rmtree(BASE, ignore_errors=True)
    build_index(
        rd.from_items(DOCS),
        BASE,
        BuildOptions(analyzer_config=AnalyzerConfig.gazetteer()),
    )
    s = SearchHTTPServer(BASE, port=0, pool_size=1).start()
    yield s
    s.shutdown()


def _get(server, path: str, **params) -> dict:
    qs = urllib.parse.urlencode(params, doseq=True)
    url = f"http://127.0.0.1:{server.port}{path}" + (f"?{qs}" if qs else "")
    with urllib.request.urlopen(url, timeout=30) as r:
        return json.loads(r.read())


def test_healthcheck_and_stats(server):
    assert _get(server, "/healthcheck")["result"] == "ok"
    st = _get(server, "/index/stats")
    assert st["n_docs"] == len(DOCS)
    assert st["avgdl"] > 0


def test_scenario_city_street(server):
    # es_queries/city-street.json analog: locality + street terms
    r = _get(server, "/location/_search", q="springfield main street")
    assert r["result"] == "success"
    ids = [row["doc_id"] for row in r["rows"]]
    assert ids[0] in (2, 4)
    assert "answer_time" in r


def test_scenario_city_street_hn(server):
    # es_queries/city-street-hn.json analog: street + housenumber
    r = _get(server, "/location/_search", q="main street 42")
    assert [row["doc_id"] for row in r["rows"]][0] == 2


def test_scenario_prefix(server):
    # es_queries/prefix.json analog: last token is a prefix
    r = _get(server, "/location/_search", q="portland oa", prefix="true")
    assert 3 in [row["doc_id"] for row in r["rows"]]


def test_scenario_terms_filter(server):
    # es_queries/admin-boundaries-terms.json analog: structured filter
    r = _get(server, "/location/_search", q="москва", lang="ru")
    ids = {row["doc_id"] for row in r["rows"]}
    assert ids and ids <= {0, 1}
    r2 = _get(server, "/location/_search", q="москва", lang="en")
    assert r2["total_hits"] == 0


def test_paging_matches_searcher(server):
    s = Searcher(BASE)
    want = s.search("springfield street main", k=4, use_prior=False)
    r0 = _get(server, "/location/_search", q="springfield street main",
              page=0, size=2)
    r1 = _get(server, "/location/_search", q="springfield street main",
              page=1, size=2)
    got = [row["doc_id"] for row in r0["rows"] + r1["rows"]]
    assert got == [h["doc_id"] for h in want]


def test_verbose_projection(server):
    r = _get(server, "/location/_search", q="portland", verbose="true")
    row = r["rows"][0]
    assert "dl" in row and "sha256" in row
    for row in r["rows"]:
        assert all(type(row[c]) is int for c in ("doc_id", "rank", "dl"))
        assert type(row["score"]) is float


def test_matched_queries_over_http(server):
    r = _get(server, "/location/_search", q="portland oak", matched="true")
    assert all("matched_queries" in row for row in r["rows"])
    assert "required" in r["rows"][0]["matched_queries"]


def test_missing_q_is_400(server):
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(server, "/location/_search", page=0)
    assert ei.value.code == 400


def test_unknown_route_404(server):
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(server, "/nope")
    assert ei.value.code == 404


PRIOR_BASE = "/tmp/gsr_server_prior"
DOC_PRIOR = {0: 1.0, 1: 1.0, 2: 0.2, 3: 1.0, 4: 5.0, 5: 3.0}


REPO_OF = {0: "a", 1: "b", 2: "a", 3: "b", 4: "b", 5: "a"}

# one request per line, each on top of q=POOL_Q (four hits, from the
# relaxed variant of the cascade); together they set every search
# parameter, and lang and repo with one value and with two
POOL_Q = "springfield portland"
POOL_GRID = [
    {},
    {"page": "1", "size": "2"},
    {"page": "0", "size": "1"},
    {"page": "3", "size": "2"},
    {"q": "springfield ma", "prefix": "1"},
    {"q": "portland oa", "prefix": "true", "size": "1"},
    {"q": "main street springfield", "coallesce": "0"},
    {"prior": "1"},
    {"prior": "1", "coallesce": "0", "page": "1", "size": "2",
     "q": "main street springfield"},
    {"verbose": "1"},
    {"q": "springfield (oak)", "coallesce": "0", "trim": "1"},
    {"q": "springfield (oak)", "coallesce": "0", "matched": "1"},
    {"q": "springfield (oak)", "coallesce": "0", "trim": "1",
     "matched": "1", "verbose": "1", "prior": "1"},
    {"lang": "en"},
    {"q": "springfield мира", "coallesce": "0", "lang": ["en", "ru"]},
    {"q": "springfield мира", "coallesce": "0", "lang": "ru"},
    {"q": "москва", "lang": "en"},
    {"repo": "a"},
    {"repo": ["a", "b"], "lang": "en", "verbose": "1"},
    {"repo": "b", "prefix": "1", "size": "1"},
]


def test_pool_backend_matches_local(server, ray_session, monkeypatch):
    """The pool answers like the in-process backend for every ``prior``
    x ``coallesce`` setting, on an index whose docs have unequal priors
    (each setting changes the local answer, so none can be ignored).
    Over every request parameter the pooled reply equals the local one
    but for ``answer_time``, and the pooled server process opens no
    ``IndexReader`` of its own: searches and ``/index/stats`` included."""
    import numpy as np
    import ray.data as rd

    from gazetteer_search_ray.server import SearchHTTPServer
    from gazetteer_search_ray.state.reader import IndexReader

    pooled = SearchHTTPServer(BASE, port=0, pool_size=2).start()
    try:
        a = _get(server, "/location/_search", q="main street 42")
        b = _get(pooled, "/location/_search", q="main street 42")
        assert [r["doc_id"] for r in a["rows"]] == [r["doc_id"] for r in b["rows"]]
    finally:
        pooled.shutdown()

    def prior(batch):
        return np.array([DOC_PRIOR[d] for d in batch["doc_id"].to_pylist()])

    shutil.rmtree(PRIOR_BASE, ignore_errors=True)
    docs = [dict(d, repo=REPO_OF[d["doc_id"]]) for d in DOCS]
    build_index(rd.from_items(docs), PRIOR_BASE,
                BuildOptions(analyzer_config=AnalyzerConfig.gazetteer(),
                             score_builder=prior))
    local = SearchHTTPServer(PRIOR_BASE, port=0, pool_size=1).start()
    pooled = SearchHTTPServer(PRIOR_BASE, port=0, pool_size=2).start()
    try:
        answers = set()
        for p in ("0", "1"):
            for c in ("0", "1"):
                params = {"q": "main street springfield", "prior": p,
                          "coallesce": c}
                a = _get(local, "/location/_search", **params)
                b = _get(pooled, "/location/_search", **params)
                ids = [r["doc_id"] for r in a["rows"]]
                assert ids == [r["doc_id"] for r in b["rows"]], params
                answers.add(tuple(ids))
        assert len(answers) == 4

        opens = []
        real_init = IndexReader.__init__

        def counting_init(self, *a, **kw):
            opens.append(a[0] if a else kw.get("index_dir"))
            real_init(self, *a, **kw)

        monkeypatch.setattr(IndexReader, "__init__", counting_init)
        pooled_opens = 0

        def pooled_get(path, **params):
            nonlocal pooled_opens
            before = len(opens)
            reply = _get(pooled, path, **params)
            pooled_opens += len(opens) - before
            return reply

        for _ in range(3):
            assert pooled_get("/index/stats") == _get(local, "/index/stats")
        replies = set()
        for extra in POOL_GRID:
            params = {"q": POOL_Q, **extra}
            a = _get(local, "/location/_search", **params)
            b = pooled_get("/location/_search", **params)
            a.pop("answer_time")
            b.pop("answer_time")
            assert b == a, params
            assert b["total_hits"] == len(b["rows"]), params
            replies.add(json.dumps(a["rows"], sort_keys=True))
            if "verbose" in extra:
                assert all("sha256" in r and "dl" in r for r in b["rows"])
            if "matched" in extra:
                assert all("matched_queries" in r for r in b["rows"])
        assert len(replies) >= 16  # the grid is not a few answers repeated
        assert pooled_opens == 0, opens
    finally:
        pooled.shutdown()
        local.shutdown()


def test_bad_numeric_params_400(server):
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(server, "/location/_search", q="main", page="xx")
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(server, "/location/_search", q="main", size="-3.5")
    assert ei.value.code == 400


# -- persistent connections --------------------------------------------------


def _conn(srv) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", srv.port, timeout=10)


def _call(conn, path: str, method: str = "GET", body=None):
    conn.request(method, path, body=body)
    r = conn.getresponse()
    return r, r.read()


def _local_port(conn) -> int:
    assert conn.sock is not None, "the server closed the connection"
    return conn.sock.getsockname()[1]


def _handler_threads() -> int:
    return sum("process_request_thread" in t.name
               for t in threading.enumerate())


def test_keepalive_reuses_one_socket(server):
    paths = ["/location/_search?q=main+street", "/healthcheck",
             "/location/_search?q=springfield&prefix=true"]
    conn = _conn(server)
    try:
        _call(conn, "/healthcheck")
        port = _local_port(conn)
        t0 = time.perf_counter()
        for i in range(200):
            r, body = _call(conn, paths[i % len(paths)])
            assert r.status == 200, body
            assert _local_port(conn) == port
        # a Nagle / delayed-ACK stall costs ~40 ms a request (8 s here)
        assert time.perf_counter() - t0 < 4.0
    finally:
        conn.close()


def test_error_replies_keep_connection(server, monkeypatch):
    def boom(qs):
        raise RuntimeError("boom")

    conn = _conn(server)
    try:
        _call(conn, "/healthcheck")
        port = _local_port(conn)
        for path, code in (("/location/_search?page=0", 400),
                           ("/nope", 404), ("/location/_search?q=main", 500)):
            with monkeypatch.context() as m:
                if code == 500:
                    m.setattr(server, "search_params", boom)
                r, body = _call(conn, path)
            assert r.status == code and json.loads(body)["result"] == "error"
            r, body = _call(conn, "/location/_search?q=main")
            assert r.status == 200 and json.loads(body)["rows"]
            assert _local_port(conn) == port
    finally:
        conn.close()


def test_post_is_501_and_server_keeps_serving(server):
    conn = _conn(server)
    try:
        r, _ = _call(conn, "/location/_search?q=main", method="POST",
                     body=b"q=main")
        assert r.status == 501
        r, body = _call(conn, "/healthcheck")  # reconnects
        assert r.status == 200 and json.loads(body) == {"result": "ok"}
    finally:
        conn.close()


def test_half_request_then_close_spares_next_client(server):
    for partial in (b"GET /heal", b"GET /healthcheck HTTP/1.1\r\nHost: x"):
        with socket.create_connection(("127.0.0.1", server.port)) as s:
            s.sendall(partial)
        conn = _conn(server)
        try:
            r, body = _call(conn, "/healthcheck")
            assert r.status == 200 and json.loads(body) == {"result": "ok"}
        finally:
            conn.close()
    assert server._thread.is_alive()


def test_get_body_is_drained(server):
    conn = _conn(server)
    try:
        r, _ = _call(conn, "/healthcheck", body=b"abc")  # Content-Length: 3
        assert r.status == 200
        port = _local_port(conn)
        r, body = _call(conn, "/location/_search?q=main")
        assert r.status == 200 and json.loads(body)["rows"]
        assert _local_port(conn) == port
    finally:
        conn.close()


@pytest.mark.parametrize("body, headers", [
    (b"x" * (MAX_BODY_BYTES + 1), {}),
    (iter([b"abc"]), {}),  # Transfer-Encoding: chunked
    (None, {"Content-Length": "3x"}),
], ids=["too-long", "chunked", "bad-length"])
def test_undrainable_body_is_400_and_close(server, body, headers):
    conn = _conn(server)
    try:
        conn.request("GET", "/healthcheck", body=body, headers=headers)
        r = conn.getresponse()
        body = r.read()
        assert r.status == 400 and json.loads(body)["result"] == "error"
        assert r.getheader("Connection") == "close"
        assert conn.sock is None
        r, _ = _call(conn, "/healthcheck")  # reconnects
        assert r.status == 200
    finally:
        conn.close()


def test_undrainable_body_400_is_never_a_reset(server):
    """Fresh connections each send a chunked GET body: the server's
    400 + close reads what the client still sends before it closes, so
    no client sees a broken pipe or reset in place of the 400."""
    n, errors, codes = 300, [], []
    for _ in range(n):
        conn = _conn(server)
        try:
            conn.request("GET", "/healthcheck", body=iter([b"abc"]))
            r = conn.getresponse()
            r.read()
            codes.append(r.status)
        except OSError as e:
            errors.append(repr(e))
        finally:
            conn.close()
    assert errors == [] and codes == [400] * n


def test_idle_connections_release_their_threads(server, monkeypatch):
    from gazetteer_search_ray import server as server_mod

    monkeypatch.setattr(server_mod, "IDLE_TIMEOUT_S", 0.2)
    srv = server_mod.SearchHTTPServer(BASE, port=0, pool_size=1).start()
    conns = [_conn(srv) for _ in range(5)]
    try:
        base = _handler_threads()
        for c in conns:
            assert _call(c, "/healthcheck")[0].status == 200
        assert _handler_threads() >= base + 5
        deadline = time.monotonic() + 5
        while _handler_threads() > base and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _handler_threads() <= base
        r, _ = _call(_conn(srv), "/healthcheck")
        assert r.status == 200
    finally:
        for c in conns:
            c.close()
        srv.shutdown()


def test_shutdown_stops_serving(server):
    from gazetteer_search_ray.server import SearchHTTPServer

    srv = SearchHTTPServer(BASE, port=0, pool_size=1).start()
    conn = _conn(srv)
    try:
        assert _call(conn, "/healthcheck")[0].status == 200
        _local_port(conn)  # kept alive
        srv.shutdown()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", srv.port), timeout=2)
        with pytest.raises((ConnectionError, http.client.HTTPException)):
            _call(conn, "/healthcheck")
    finally:
        conn.close()


def test_shutdown_returns_within_a_poll(server):
    from gazetteer_search_ray.server import SearchHTTPServer

    srv = SearchHTTPServer(BASE, port=0, pool_size=1).start()
    assert _get(srv, "/healthcheck")
    t0 = time.monotonic()
    srv.shutdown()
    assert time.monotonic() - t0 < 0.25
