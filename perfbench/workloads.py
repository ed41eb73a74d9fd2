"""The two workloads.  Each returns a ``Result``.

* ``serve`` — a closed-loop HTTP client against ``SearchHTTPServer``;
  the index is built, and Ray stopped, before the server starts.
* ``build`` — repeated bulk imports with ``build_index``, then
  ``update_index`` batches and a ``force_merge`` on the last import;
  queries run afterwards, with Ray stopped, on fresh readers of a copy
  of the index taken at each commit.

End-to-end metrics (same names in every workload):
``setup_s``, ``throughput_per_s`` (serve: requests/s; build: imported
docs/s), ``query_p50_ms``/``query_p95_ms`` (serve: client-observed HTTP;
build: freshly opened readers of each commit), ``index_bytes_per_doc``
and ``rss_mb`` (peak RSS of the process answering queries).  Every
timing but ``setup_s`` is scaled to reference host speed with
``common.host_scale``; the report line also carries them unscaled.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import time
from dataclasses import asdict

import numpy as np

from common import (Result, Context, ScaleSampler, dictionary, file_state,
                    host_scale, median, pct, tree_bytes, window_scales,
                    written_bytes)
from gen import KINDS, Corpus, CorpusGen, Request, make_log, marker, prefixes
from oracle import Oracle, compare

SERVE_DOCS = 12_000      # dictionary ~7x the 8,192-term reader cache
BUILD_DOCS = 6_000       # one import takes ~3.5 s on one CPU
CHURN_BATCHES = 2
CHURN_BATCH = 1_000      # half replaced ids, half new ids
WARM_REQUESTS = 500
LOG_REQUESTS = 40_000
CHECK_EVERY = 25         # every 25th served request is oracle-checked
BURST = 300              # build: queries per freshly opened reader
OPENS = 4                # build: fresh readers per committed index
N_CHECKS = 30
SNAP_CHECKS = 10         # build: oracle checks on the last snapshot
SNAP_MARKERS = 10        # build: replaced docs checked per snapshot
GROUPS = 6               # serve's rate: median over equal request groups
SCALE_EVERY_S = 0.25     # serve: host_scale before each 0.25 s of requests


def _code_config():
    from gazetteer_search_ray.functions.analyzer import AnalyzerConfig

    return AnalyzerConfig.code()


def _build(files: list[str], index_dir: str) -> dict:
    from gazetteer_search_ray.pipelines.build_index import (
        BuildOptions, build_index)
    from gazetteer_search_ray.sources.corpus import read_corpus

    return build_index(read_corpus(files), index_dir,
                       BuildOptions(analyzer_config=_code_config()))


def _index_bytes(index_dir: str) -> int:
    return tree_bytes(index_dir, "postings") + tree_bytes(index_dir, "docmeta")


def _log(ctx: Context, index_dir: str, n: int) -> list[Request]:
    terms, dfs = dictionary(index_dir)
    return make_log(terms, dfs, n, ctx.seed, prefixes(terms))


def _codec_layers(index_dir: str, n_docs: int) -> dict:
    _terms, dfs = dictionary(index_dir)
    return {
        "codec.postings_bytes_per_posting": (
            tree_bytes(index_dir, "postings") / int(dfs.sum()), "B",
            int(dfs.sum())),
        "codec.docmeta_bytes_per_doc": (
            tree_bytes(index_dir, "docmeta") / n_docs, "B", n_docs),
    }


def _probe_layers(ctx: Context, spec: dict, untraced: dict, tag: str,
                  res: Result) -> dict:
    """Trace a second probe run of ``spec``: query-side layer metrics
    plus the tracing overhead on query p50."""
    from spans import Spans, query_layers

    traced = ctx.probe(spec, True, tag)
    lat = [x for b in traced["bursts"] for x in b["lat_ms"]]
    base = [x for b in untraced["bursts"] for x in b["lat_ms"]]
    layers = query_layers(Spans(traced["spans"]), len(lat))
    layers["trace.overhead_ms"] = (pct(lat, 50) - pct(base, 50), "ms",
                                   len(lat))
    firsts = [b["first_ms"] for b in traced["bursts"]
              if b["first_ms"] is not None]
    layers["query.first_query_ms_p50"] = (median(firsts), "ms", len(firsts))
    res.trace_file = ctx.save_trace(tag, {"spans": traced["spans"]})
    return layers


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class _Server:
    """``SearchHTTPServer`` in a child process, ready once it answers."""

    def __init__(self, ctx: Context, index_dir: str, trace: bool, tag: str):
        self.out = ctx.path(f"{tag}.json")
        self.proc = ctx.spawn("serve", index_dir, self.out,
                              "1" if trace else "0",
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            raise RuntimeError("search server did not start")
        self.port = int(line[1])
        deadline = time.monotonic() + 60
        while True:
            try:
                c = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=5)
                c.request("GET", "/healthcheck")
                if c.getresponse().status == 200:
                    c.close()
                    break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def stop(self) -> dict:
        self.proc.stdin.close()
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError(f"search server exited {self.proc.returncode}")
        with open(self.out) as f:
            return json.load(f)


def _replay(port: int, paths: list[str], seconds: float | None, res: Result,
            keep_every: int = 0, health_every: int = 0, scaled: bool = False):
    """Closed loop over one reused connection → (latencies ms, cycle
    times ms, host scales, kept bodies by index, health round trips ms).

    A request's cycle runs from the end of the one before to its own
    end, so requests / Σ cycles is the loop's rate.  With ``scaled``,
    ``host_scale`` runs between windows of SCALE_EVERY_S, outside any
    cycle, and each request gets its window's scale."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    lat, cycle, window, marks, kept, health = [], [], [], [], {}, []
    next_scale = 0.0
    t_end = time.perf_counter() + seconds if seconds else float("inf")
    i = 0
    t1 = time.perf_counter()
    while i < len(paths) and t1 < t_end:
        if scaled and t1 >= next_scale:
            marks.append(host_scale())
            t1 = time.perf_counter()
            next_scale = t1 + SCALE_EVERY_S
        t0 = time.perf_counter()
        try:
            conn.request("GET", paths[i])
            r = conn.getresponse()
            body = r.read()
            status = r.status
        except (OSError, http.client.HTTPException) as e:
            status, body = None, repr(e)
            conn.close()
        t_prev, t1 = t1, time.perf_counter()
        lat.append((t1 - t0) * 1e3)
        cycle.append((t1 - t_prev) * 1e3)
        window.append(len(marks) - 1)
        res.attempted += 1
        if status != 200:
            res.fail(f"request {paths[i]} → {status} {body[:200]!r}")
        elif keep_every and i % keep_every == 0:
            kept[i] = body
        if health_every and i % health_every == 0:
            t0 = time.perf_counter()
            conn.request("GET", "/healthcheck")
            conn.getresponse().read()
            health.append((time.perf_counter() - t0) * 1e3)
            t1 = time.perf_counter()
        i += 1
    conn.close()
    scales = window_scales(marks + [host_scale()], window) if scaled else []
    return lat, cycle, scales, kept, health


def serve(ctx: Context) -> Result:
    res = Result()
    corpus = CorpusGen(ctx.seed).docs(np.arange(SERVE_DOCS))
    files = corpus.write(ctx.path("corpus"))
    idx = ctx.path("index")
    t0 = time.perf_counter()
    ctx.ray_start()
    _build(files, idx)
    ctx.ray_shutdown()
    build_s = time.perf_counter() - t0
    ctx.ray_stop()  # waits for Ray's processes to exit: not set-up
    ready = []
    for i in range(3):  # set-up's server part, median of three starts
        t0 = time.perf_counter()
        srv = _Server(ctx, idx, False, f"serve{i}")
        ready.append(time.perf_counter() - t0)
        if i < 2:
            srv.stop()
    log = _log(ctx, idx, WARM_REQUESTS + LOG_REQUESTS)
    warm, timed = log[:WARM_REQUESTS], log[WARM_REQUESTS:]
    warm_paths = [r.path() for r in warm]
    paths = [r.path() for r in timed]
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds

    _replay(srv.port, warm_paths, None, res)
    lat, cycle, scales, kept, _h = _replay(srv.port, paths, seconds, res,
                                           keep_every=CHECK_EVERY,
                                           scaled=True)
    out = srv.stop()
    sent = len(lat)
    distinct = len(set(paths[:sent])) / sent
    res.report.update(requests=sent, distinct_share=round(distinct, 4),
                      checked=len(kept))
    print(f"serve: {sent} requests, distinct share {distinct:.4f}",
          flush=True)
    res.attempted += 1
    if distinct < 0.90:
        res.fail(f"request log distinct share {distinct:.3f} < 0.90")

    oracle = Oracle(corpus, _code_config())
    for i, body in kept.items():
        res.attempted += 1
        err = oracle.check(timed[i], json.loads(body)["rows"])
        if err:
            res.fail(f"{timed[i]}: {err}")

    # rate is the median over equal groups of the requests, so a stall
    # the scaling misses moves it less; all at reference host speed
    sc = np.asarray(scales)
    lat_s = np.asarray(lat) * sc
    rates = [1e3 * g.size / g.sum()
             for g in np.array_split(np.asarray(cycle) * sc, GROUPS)]
    kinds = _kind_p50(timed, lat)
    res.report.update(
        group_rates=[round(r, 1) for r in rates],
        kind_p50_ms={k: round(v[0], 3) for k, v in kinds.items()},
        **_scaled_report(lat, lat_s, sc, 1e3 * len(cycle) / sum(cycle)))
    res.e2e = {
        "setup_s": build_s + median(ready),
        "throughput_per_s": median(rates),
        "query_p50_ms": pct(lat_s, 50),
        "query_p95_ms": pct(lat_s, 95),
        "index_bytes_per_doc": _index_bytes(idx) / SERVE_DOCS,
        "rss_mb": out["rss_mb"],
    }
    if ctx.trace:
        from spans import Spans, query_layers

        srv = _Server(ctx, idx, True, "serve-traced")
        _replay(srv.port, warm_paths, None, res)
        tpaths = [f"{p}&rid={i}" for i, p in enumerate(paths)]
        tlat, _c, _s, _k, health = _replay(srv.port, tpaths, seconds, res,
                                           health_every=10)
        spans = srv.stop()["spans"]
        layers = query_layers(Spans(spans), len(tlat),
                              client_ms=dict(enumerate(tlat)))
        layers["server.health_rtt_ms_p50"] = (pct(health, 50), "ms",
                                              len(health))
        layers["trace.overhead_ms"] = (pct(tlat, 50) - pct(lat, 50), "ms",
                                       len(tlat))
        layers.update(_codec_layers(idx, SERVE_DOCS))
        layers.update({f"request.{k}_ms_p50": (v[0], "ms", v[1])
                       for k, v in kinds.items()})
        res.layers = layers
        res.trace_file = ctx.save_trace("serve", {"spans": spans})
    return res


def _scaled_report(lat, lat_s, scales, raw_rate: float) -> dict:
    """Report-line fields: the host scales seen, p99 at reference speed,
    and the gated query figures unscaled."""
    return {"host_scale": [round(float(x), 3)
                           for x in np.percentile(scales, [0, 50, 100])],
            "p99_ms": round(pct(lat_s, 99), 3),
            "unscaled": {"throughput_per_s": round(raw_rate, 1),
                         **{f"query_p{q}_ms": round(pct(lat, q), 3)
                            for q in (50, 95, 99)}}}


def _kind_p50(requests: list[Request], lat: list[float]) -> dict:
    """Untraced client p50 per request kind → {kind: (ms, n)}, so a
    regression in one kind shows whatever the mix."""
    by = {k: [] for k in KINDS}
    for r, ms in zip(requests, lat):
        by[r.kind].append(ms)
    return {k: (pct(v, 50), len(v)) for k, v in by.items()}


# ---------------------------------------------------------------------------
# build: bulk imports, then updates and a merge on the imported index
# ---------------------------------------------------------------------------


def build(ctx: Context) -> Result:
    from gazetteer_search_ray.pipelines import maintenance
    from gazetteer_search_ray.sources.corpus import read_corpus

    res = Result()
    gen = CorpusGen(ctx.seed)
    base = gen.docs(np.arange(BUILD_DOCS), markers=True)
    half = CHURN_BATCH // 2
    replaced = np.random.default_rng([ctx.seed, 4]).permutation(
        BUILD_DOCS)[:CHURN_BATCHES * half]
    batches, batch_files = [], []
    for b in range(CHURN_BATCHES):
        rep = gen.docs(replaced[b * half:(b + 1) * half], rev=b + 1,
                       markers=True, stream=1)
        new = gen.docs(BUILD_DOCS + b * half + np.arange(half), rev=b + 1,
                       markers=True, stream=2)
        batches.append(Corpus.concat([rep, new]))
        batch_files.append(batches[-1].write(ctx.path(f"batch{b}"), 2))
    final = Corpus.concat([base.subset(np.setdiff1d(np.arange(BUILD_DOCS),
                                                    replaced))] + batches)
    files = base.write(ctx.path("corpus"))
    final_files = final.write(ctx.path("final"))

    idx = ctx.path("index")
    ctx.pin()  # Ray too, so that ScaleSampler shares its CPU
    t0 = time.perf_counter()
    ctx.ray_start()
    manifests = [_build(files, idx)]  # the first import pays worker start
    setup_s = time.perf_counter() - t0

    tracer = None
    if ctx.trace:
        from spans import Tracer, install_write_side

        tracer = Tracer()
        install_write_side(tracer)
    walls, at_ref = [], []
    sampler = ScaleSampler()
    t_end = time.perf_counter() + ctx.seconds
    while len(walls) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        manifests.append(_build(files, idx))
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        at_ref.append(walls[-1] * sampler.over(t0, t1))
    sampler.stop()
    stage_layers = _replay_stages(ctx, files) if tracer else {}
    log = _log(ctx, idx, (CHURN_BATCHES + 1) * OPENS * BURST + N_CHECKS)

    # updates on the last import, each commit copied for the queries
    upd, rewritten, snaps = [], [], []
    for b in range(CHURN_BATCHES):
        before = file_state(idx) if tracer else None
        t0 = time.perf_counter()
        maintenance.update_index(idx, read_corpus(batch_files[b]))
        upd.append(time.perf_counter() - t0)
        res.attempted += 1
        if tracer:
            rewritten.append(written_bytes(before, file_state(idx)))
        snaps.append(ctx.path(f"snap{b}"))
        shutil.copytree(idx, snaps[-1])
    segments = len(json.load(open(os.path.join(idx, "_manifest.json")))
                   ["segments"])
    before = file_state(idx) if tracer else None
    t0 = time.perf_counter()
    maintenance.force_merge(idx)
    merge_s = time.perf_counter() - t0
    res.attempted += 1
    merged_bytes = written_bytes(before, file_state(idx)) if tracer else 0
    fresh = ctx.path("fresh")
    _build(final_files, fresh)
    if tracer:
        ctx.save_trace("build-write", {"spans": tracer.spans})
    ctx.ray_stop()

    oracle = Oracle(base, _code_config())
    for man in manifests:
        res.attempted += 1
        if man["n_docs"] != base.n or \
                man["total_tokens"] != oracle.total_tokens:
            res.fail(f"manifest n_docs={man['n_docs']} total_tokens="
                     f"{man['total_tokens']}, expected {base.n} / "
                     f"{oracle.total_tokens}")

    # queries: OPENS fresh readers per commit, then per the merged
    # index, each with its own burst; the first reader of each index,
    # and the fresh build, also answer check queries
    doc_id = dict(zip(final.doc_num.tolist(), final.doc_ids().tolist()))
    rev = {int(d): j // half + 1 for j, d in enumerate(replaced.tolist())}
    checks = [asdict(r) for r in log[-N_CHECKS:]]
    rng = np.random.default_rng([ctx.seed, 6])
    legs, snap_checks = [], []
    for b, snap in enumerate(snaps + [idx]):
        if snap == idx:
            docs = replaced[rng.choice(replaced.size, N_CHECKS,
                                       replace=False)]
            plain = checks
        else:
            done = replaced[:(b + 1) * half]
            docs = done[rng.choice(done.size, SNAP_MARKERS, replace=False)]
            # one oracle per snapshot would add ~1 s each; the last
            # snapshot has every pre-merge segment and delete
            plain = checks[:SNAP_CHECKS] if b == CHURN_BATCHES - 1 else []
        snap_checks.append((plain, docs.tolist()))
        for o in range(OPENS):
            q = (b * OPENS + o) * BURST
            legs.append({"index": snap, "queries": [
                asdict(r) for r in log[q:q + BURST]]})
        legs[-OPENS]["checks"] = plain + _marker_queries(docs.tolist(), rev)
    legs.append({"index": fresh, "checks": checks, "queries": []})
    out = ctx.probe({"legs": legs}, False, "build-probe")
    bursts = out["bursts"][:-1]
    lat = [x for b in bursts for x in b["lat_ms"]]
    scales = np.array([x for b in bursts for x in b["scales"]])
    lat_s = np.asarray(lat) * scales
    res.attempted += len(lat)

    for b, (plain, docs) in enumerate(snap_checks):
        rows = bursts[b * OPENS]["checks"]
        where = f"snapshot {b}" if b < CHURN_BATCHES else "merged"
        if plain:
            docs_now = final if b == CHURN_BATCHES else Corpus.concat(
                [base.subset(np.setdiff1d(np.arange(BUILD_DOCS),
                                          replaced[:(b + 1) * half]))]
                + batches[:b + 1])
            oracle = Oracle(docs_now, _code_config())
        if b == CHURN_BATCHES:
            fresh_rows = out["bursts"][-1]["checks"]
            for i, (m, f) in enumerate(zip(rows, fresh_rows)):
                res.attempted += 1
                err = compare(np.array([r["doc_id"] for r in f],
                                       dtype=np.int64),
                              np.array([r["score"] for r in f]), m)
                if err:
                    res.fail(f"merged vs fresh build, {checks[i]['q']!r}: "
                             f"{err}")
        for r, got in zip(plain, rows):
            res.attempted += 1
            err = oracle.check(Request(**r), got)
            if err:
                res.fail(f"{where} vs oracle, {r['q']!r}: {err}")
        for j, d in enumerate(docs):
            old, new = rows[len(plain) + 2 * j:len(plain) + 2 * j + 2]
            res.attempted += 2
            if old:
                res.fail(f"{where}: doc {d} still matches its replaced "
                         "content")
            if [r["doc_id"] for r in new] != [doc_id[d]]:
                res.fail(f"{where}: doc {d} does not match its new content")

    rate = median([base.n / w for w in walls])
    res.report.update(builds=len(walls), build_s=[round(w, 3) for w in walls],
                      update_s=[round(u, 3) for u in upd],
                      merge_s=round(merge_s, 3), segments=segments,
                      **_scaled_report(lat, lat_s, scales, rate))
    res.e2e = {
        "setup_s": setup_s,
        "throughput_per_s": median([base.n / w for w in at_ref]),
        "query_p50_ms": pct(lat_s, 50),
        "query_p95_ms": pct(lat_s, 95),
        "index_bytes_per_doc": _index_bytes(fresh) / final.n,
        "rss_mb": out["rss_mb"],
    }
    if ctx.trace:
        from spans import Spans

        layers = _probe_layers(ctx, {"legs": legs[:-1]}, out, "build", res)
        layers.update(stage_layers)
        layers.update(_codec_layers(fresh, final.n))
        timed = manifests[1:]
        for key, mkey in (("build_index.pipeline_s", "pipeline_sec"),
                          ("build_index.boundary_merge_s",
                           "boundary_merge_sec"),
                          ("build_index.stats_s", "stats_sec")):
            layers[key] = (median([m["metrics"][mkey] for m in timed]), "s",
                           len(timed))
        in_process = sum(stage_layers[k][0] for k in (
            "tokenize.s", "postings.encode_s", "postings.boundary_s"))
        layers["build_index.orchestration_s"] = (
            median(walls) - in_process, "s", len(walls))
        sp = Spans(tracer.spans)
        updates = sp.named("maintenance.update_index")
        for key, name in (("maintenance.delete_s", "maintenance.delete_docs"),
                          ("build_index.segment_s",
                           "build_index.build_index")):
            inner = [sp.dur(c) for u in updates for c in sp.inside(u, name)]
            layers[key] = (median(inner), "s", len(inner))
        layers["maintenance.update_s"] = (median(upd), "s", len(upd))
        layers["maintenance.merge_s"] = (merge_s, "s", 1)
        layers["maintenance.rewritten_bytes_per_update"] = (
            median(rewritten), "B", len(rewritten))
        layers["maintenance.merge_rewritten_bytes"] = (merged_bytes, "B", 1)
        layers["reader.segments"] = (segments, "count", 1)
        res.layers = layers
    return res


def _marker_queries(docs: list[int], rev: dict) -> list[dict]:
    """Per replaced doc, a query for its old and one for its new marker."""
    return [{"q": marker(d, r)} for d in docs for r in (0, rev[d])]


def _replay_stages(ctx: Context, files: list[str]) -> dict:
    """The build's stages run in this process over the same batches:
    read, tokenize, partial-postings exchange size, block encode and
    boundary merge, each timed on its own."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from gazetteer_search_ray.functions.codec import BLOCK_SIZE
    from gazetteer_search_ray.sources.corpus import read_corpus
    from gazetteer_search_ray.stages.postings import (SortedBlockEncoder,
                                                      encode_partials_table)
    from gazetteer_search_ray.stages.tokenize import TokenizeStage

    t0 = time.perf_counter()
    mat = read_corpus(files).materialize()
    read_s = time.perf_counter() - t0
    tbl = pa.concat_tables(ray.get(mat.to_arrow_refs()))
    batches = [tbl.slice(i, 512) for i in range(0, tbl.num_rows, 512)]
    stage = TokenizeStage(analyzer_config=_code_config(),
                          docmeta_dir=ctx.path("replay", "docmeta"))
    t0 = time.perf_counter()
    parts = [stage(b) for b in batches]
    tok_s = time.perf_counter() - t0
    partials = pa.concat_tables(parts)
    n_postings = pc.sum(pc.binary_length(partials["docs"])).as_py() // 8
    srt = partials.sort_by("skey")
    per = -(-srt.num_rows // 8)  # the build's 8 sort blocks on one CPU
    blocks = [srt.slice(i, per) for i in range(0, srt.num_rows, per)]
    enc = SortedBlockEncoder(ctx.path("replay", "postings"), BLOCK_SIZE)
    os.makedirs(ctx.path("replay", "postings"), exist_ok=True)
    t0 = time.perf_counter()
    rest = [enc(b) for b in blocks]
    enc_s = time.perf_counter() - t0
    rest_tbl = pa.concat_tables(rest, promote_options="permissive")
    t0 = time.perf_counter()
    encode_partials_table(rest_tbl, BLOCK_SIZE)
    boundary_s = time.perf_counter() - t0
    n = tbl.num_rows
    return {
        "corpus.read_s": (read_s, "s", 1),
        "tokenize.s": (tok_s, "s", len(batches)),
        "tokenize.docs_per_s": (n / tok_s, "1/s", n),
        "tokenize.exchange_bytes_per_posting": (
            partials.nbytes / n_postings, "B", n_postings),
        "postings.encode_s": (enc_s, "s", len(blocks)),
        "postings.boundary_s": (boundary_s, "s", rest_tbl.num_rows),
    }
