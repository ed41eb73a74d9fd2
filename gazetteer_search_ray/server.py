"""HTTP serve layer — the reference's third CLI command.

Reference flow (``server/REServer.java:54-96`` → routes
``server/REServerRoutes.java:40-67`` → param parsing
``api/SearchAPIAdapter.java:63-137`` → ``ESDefaultSearch.search`` →
``api/ResultsWrapper.java:27-75``): a thin HTTP adapter over the search
stack.  Here the adapter is a stdlib ``ThreadingHTTPServer`` over a warm
``Searcher`` (or, when ``pool_size > 1``, the ``QueryService`` actor
pool, which needs a Ray session — each worker holds index + caches
loaded once, the reference's singleton-ES-client analog).

Routes:

* ``GET /location/_search`` — params mirroring the reference adapter:
  ``q`` (required), ``prefix`` (bool), ``page``/``size`` (from/size
  paging, defaults 0/20 — ``SearchAPIAdapter.java:20,131-137``),
  ``lang``/``repo`` (structured filters, the Q13 analog of
  refs/poiclass), ``coallesce`` (sic — reference spelling, cascade
  on/off), ``prior`` (doc-prior rescoring), ``trim``, ``verbose``
  (hit field sets, Q17).  Response
  ``{"result": "success", "answer_time", "total_hits", "rows": [...]}``
  (``ResultsWrapper.java:27-40``).
* ``GET /index/stats`` — manifest stats (n_docs, avgdl, …).
* ``GET /healthcheck`` — liveness.

Connections are persistent HTTP/1.1, as the reference's Netty server
keeps them: one handler thread serves a client's whole connection, and
every reply carries ``Content-Length``.  The status line, headers and
body are buffered and flushed once per reply, with Nagle's algorithm
off, so a reply never waits on the client's delayed ACK.  A GET's body is read and
dropped so it cannot be taken for the next request line; one longer
than ``MAX_BODY_BYTES`` gets a 400 and the connection is closed, after
a bounded read of what the client still sends, so the close does not
reset the connection before the client has the reply.  A
connection idle for ``IDLE_TIMEOUT_S`` is closed and its thread exits.
``shutdown()`` closes the listener, and a kept-alive connection gets
no further answer.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

_TRUE = {"1", "true", "yes", "on"}
IDLE_TIMEOUT_S = 30.0  # an idle kept-alive connection is closed after this
MAX_BODY_BYTES = 8192  # a GET body up to this size is read and dropped
# after a 400 + close, request bytes still arriving are read and dropped
# up to this many bytes or seconds before the socket closes
LINGER_BYTES = 64 * 1024
LINGER_S = 1.0
POLL_INTERVAL_S = 0.05  # serve_forever's shutdown poll: bounds shutdown()


def _flag(qs: dict, name: str, default: bool = False) -> bool:
    v = qs.get(name)
    return default if v is None else v[0].lower() in _TRUE


class SearchHTTPServer:
    """Owns the HTTP listener + the warm search backend."""

    def __init__(self, index_dir: str, port: int = 0, pool_size: int = 1,
                 use_prior: bool = False):
        from .pipelines.search import Searcher

        self.index_dir = index_dir
        self._svc = None
        self._searcher = None
        if pool_size > 1:
            import ray

            if not ray.is_initialized():
                raise RuntimeError(
                    f"pool_size={pool_size} needs a Ray session; "
                    "use pool_size=1 to serve in-process")
            from .pipelines.search import QueryService

            self._svc = QueryService(index_dir, pool_size=pool_size,
                                     use_prior=use_prior)
        else:
            self._searcher = Searcher(index_dir)
        self.default_use_prior = use_prior
        self._closing = threading.Event()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True
            wbufsize = -1  # one send per reply, at handle_one_request's flush
            timeout = IDLE_TIMEOUT_S

            def log_message(self, *a):  # quiet
                pass

            def parse_request(self) -> bool:
                if outer._closing.is_set():  # read after shutdown: no answer
                    self.close_connection = True
                    return False
                return super().parse_request()

            def _reply(self, code: int, payload: dict, close: bool = False):
                body = json.dumps(payload).encode()
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if close:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)

            def _drain_body(self) -> bool:
                """Read and drop the request body, so the next request on
                this connection starts where this one ends.  A body that
                cannot be skipped that way gets a 400 and a close."""
                try:
                    n = int(self.headers.get("Content-Length", 0))
                except ValueError:
                    n = -1
                if (0 <= n <= MAX_BODY_BYTES
                        and "Transfer-Encoding" not in self.headers):
                    self.rfile.read(n)
                    return True
                self._reply(400, {"result": "error",
                                  "error": "request body not accepted"},
                            close=True)
                self._linger()
                return False

            def _linger(self):
                """Send the reply, shut the write side, then read and
                drop what the client still sends (bounded) before the
                close.  Closing a socket with unread bytes makes the
                kernel send a reset, which can reach the client before
                it has read the reply, or break its send of the body."""
                self.wfile.flush()
                sock = self.connection
                left, deadline = LINGER_BYTES, time.monotonic() + LINGER_S
                try:
                    sock.shutdown(socket.SHUT_WR)
                    while left > 0:
                        wait = deadline - time.monotonic()
                        if wait <= 0:
                            break
                        sock.settimeout(wait)
                        chunk = sock.recv(min(left, 8192))
                        if not chunk:  # the client closed
                            break
                        left -= len(chunk)
                except OSError:  # timed out, or the client reset
                    pass

            def do_GET(self):
                if not self._drain_body():
                    return
                u = urlparse(self.path)
                try:
                    if u.path == "/healthcheck":
                        return self._reply(200, {"result": "ok"})
                    if u.path == "/index/stats":
                        return self._reply(200, outer.stats())
                    if u.path == "/location/_search":
                        qs = parse_qs(u.query)
                        if "q" not in qs or not qs["q"][0].strip():
                            return self._reply(
                                400, {"result": "error", "error": "missing q"}
                            )
                        try:
                            payload = outer.search_params(qs)
                        except ValueError as e:  # bad page/size etc.
                            return self._reply(
                                400, {"result": "error", "error": str(e)}
                            )
                        return self._reply(200, payload)
                    return self._reply(404, {"result": "error", "error": "no route"})
                except Exception as e:  # surface, don't kill the thread
                    return self._reply(
                        500, {"result": "error", "error": f"{type(e).__name__}: {e}"}
                    )

        self.httpd = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self.port = self.httpd.server_address[1]
        self._thread: threading.Thread | None = None

    # -- backend ---------------------------------------------------------

    def stats(self) -> dict:
        from .state.reader import IndexReader

        r = (
            self._searcher.reader
            if self._searcher is not None
            else IndexReader(self.index_dir)
        )
        return {
            "result": "success",
            "n_docs": int(r.n_docs),
            "avgdl": float(r.avgdl),
            "total_tokens": int(r.manifest.get("total_tokens", 0)),
            "import_counter": int(r.manifest.get("import_counter", 0)),
        }

    def search_params(self, qs: dict) -> dict:
        q = qs["q"][0]
        page = max(0, int(qs.get("page", ["0"])[0]))
        size = max(1, int(qs.get("size", ["20"])[0]))
        prefix = _flag(qs, "prefix")
        coalesce = _flag(qs, "coallesce", True)
        verbose = _flag(qs, "verbose")
        trim = _flag(qs, "trim")
        with_matched = _flag(qs, "matched")
        use_prior = _flag(qs, "prior", self.default_use_prior)
        filters = {}
        for col in ("lang", "repo"):
            if col in qs:
                filters[col] = qs[col]
        t0 = time.monotonic()
        # from/size: evaluate (page+1)*size then slice (Q15 paging,
        # ESCoalesce.java:46-51)
        k = (page + 1) * size
        if self._svc is not None and not (with_matched or trim or verbose):
            rows = self._svc.replay(
                [
                    {
                        "qid": 0, "q": q, "k": k, "prefix": prefix,
                        "filters": filters or None, "coalesce": coalesce,
                        "use_prior": use_prior,
                    }
                ],
                batch_size=1,
            )
            hits = rows[0]["hits"] if rows else []
        else:
            if self._searcher is None:
                from .pipelines.search import Searcher

                self._searcher = Searcher(self.index_dir)
            hits = self._searcher.search(
                q, k=k, prefix=prefix, filters=filters or None,
                coalesce=coalesce, use_prior=use_prior, trim=trim,
                verbose=verbose, with_matched=with_matched,
            )
        hits = hits[page * size : (page + 1) * size]
        return {
            "result": "success",
            "answer_time": round((time.monotonic() - t0) * 1000, 3),
            "total_hits": len(hits),
            "page": page,
            "size": size,
            "rows": hits,
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SearchHTTPServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self):
        self.httpd.serve_forever(poll_interval=POLL_INTERVAL_S)

    def shutdown(self):
        self._closing.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._svc is not None:
            self._svc.shutdown()


def serve(index_dir: str, port: int = 8080, pool_size: int = 1,
          use_prior: bool = False):
    """Blocking serve entry (CLI ``serve`` command)."""
    s = SearchHTTPServer(index_dir, port=port, pool_size=pool_size,
                         use_prior=use_prior)
    print(json.dumps({"serving": f"http://127.0.0.1:{s.port}",
                      "index": index_dir, "pool_size": pool_size}),
          flush=True)
    try:
        s.serve_forever()
    except KeyboardInterrupt:
        s.shutdown()
