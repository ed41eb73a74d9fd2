"""Child processes of the benchmark: the HTTP server and the query probe.

    python3 child.py serve <index_dir> <out.json> <trace 0|1>
        Starts ``SearchHTTPServer(pool_size=1)``, prints ``PORT <n>`` and
        serves until its stdin closes; then writes its peak RSS and spans.

    python3 child.py probe <spec.json> <out.json> <trace 0|1>
        Opens a fresh ``Searcher`` per index of the spec, times its
        query burst, runs the untimed check queries, and writes
        latencies with their host scales, check results, peak RSS and
        spans.

Both import the engine from the repository root (the parent directory
of this file's directory); neither starts Ray.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), HERE]

SCALE_EVERY = 50  # probe: host_scale between windows of 50 queries


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _tracer(on: bool):
    if not on:
        return None
    from spans import Tracer, install_query_side

    t = Tracer()
    install_query_side(t)
    return t


def serve(index_dir: str, out: str, trace_on: bool) -> None:
    tracer = _tracer(trace_on)
    from gazetteer_search_ray.server import SearchHTTPServer

    srv = SearchHTTPServer(index_dir, pool_size=1).start()
    print(f"PORT {srv.port}", flush=True)
    sys.stdin.read()  # the parent closes our stdin to stop us
    srv.shutdown()
    res = {"rss_mb": peak_rss_mb(),
           "spans": tracer.spans if tracer else []}
    with open(out, "w") as f:
        json.dump(res, f)


def _search(searcher, r: dict) -> list[dict]:
    k = (r.get("page", 0) + 1) * r.get("size", 20)
    hits = searcher.search(
        r["q"], k=k, prefix=r.get("prefix", False),
        filters={"lang": [r["lang"]]} if r.get("lang") else None,
        use_prior=False)
    lo = r.get("page", 0) * r.get("size", 20)
    return hits[lo:lo + r.get("size", 20)]


def probe(spec_path: str, out: str, trace_on: bool) -> None:
    with open(spec_path) as f:
        spec = json.load(f)
    tracer = _tracer(trace_on)
    from common import host_scale, window_scales
    from gazetteer_search_ray.pipelines.search import Searcher

    bursts = []
    rid = 0
    for leg in spec["legs"]:
        if tracer:
            tracer.rid = None
        s = Searcher(leg["index"])
        lat, marks = [], []
        for j, r in enumerate(leg["queries"]):
            if j % SCALE_EVERY == 0:
                marks.append(host_scale())
            if tracer:
                tracer.rid = rid
            rid += 1
            t0 = time.perf_counter()
            _search(s, r)
            lat.append((time.perf_counter() - t0) * 1e3)
        if tracer:
            tracer.rid = None
        scales = window_scales(marks + [host_scale()],
                               [j // SCALE_EVERY for j in range(len(lat))])
        checks = [[{"doc_id": h["doc_id"], "score": h["score"]}
                   for h in _search(s, r)] for r in leg.get("checks", ())]
        # the first query after opening pays the cold caches
        bursts.append({"first_ms": lat[0] if lat else None, "lat_ms": lat,
                       "scales": scales, "checks": checks})
        del s
    res = {"rss_mb": peak_rss_mb(), "bursts": bursts,
           "spans": tracer.spans if tracer else []}
    with open(out, "w") as f:
        json.dump(res, f)


if __name__ == "__main__":
    mode, a, b, tr = sys.argv[1:5]
    (serve if mode == "serve" else probe)(a, b, tr == "1")
