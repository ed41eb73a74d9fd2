"""In-memory spans around the engine's public calls, installed from
outside the engine by replacing module and class attributes.

A span records name, start, end, parent span and request id.  Spans
are kept in a list and written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

from common import pct


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, rid, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # request id of the calling thread; root wrappers set it
    @property
    def rid(self):
        return getattr(self._local, "rid", None)

    @rid.setter
    def rid(self, value) -> None:
        self._local.rid = value

    def wrap(self, owner, attr: str, name: str, attrs=None, rid_of=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs, result)`` adds fields to the span;
        ``rid_of(args, kwargs)`` starts a new request id."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if rid_of is not None:
                local.rid = rid_of(args, kwargs)
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            res = None
            t0 = time.perf_counter()
            try:
                res = orig(*args, **kwargs)
                return res
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, res) if attrs is not None else None
                tracer.spans.append((sid, parent, name, t0, t1,
                                     getattr(local, "rid", None), extra))

        setattr(owner, attr, traced)


def install_query_side(tracer: Tracer) -> None:
    """Spans on the request path: server → search → query → reader."""
    from gazetteer_search_ray import server
    from gazetteer_search_ray.pipelines import query, search
    from gazetteer_search_ray.state import reader

    def rid_from_params(args, kwargs):
        qs = args[1]
        return int(qs["rid"][0]) if "rid" in qs else None

    seen_plans: set = set()

    def plan_repeat(args, kwargs, res):
        key = (args[1], args[2] if len(args) > 2 else kwargs.get("k", 20))
        try:
            rep = key in seen_plans
            seen_plans.add(key)
        except TypeError:
            rep = False
        return {"repeat": rep}

    tracer.wrap(server.SearchHTTPServer, "search_params",
                "server.search_params", rid_of=rid_from_params)
    tracer.wrap(search, "analyze_query", "search.analyze_query")
    tracer.wrap(search, "build_cascade", "search.build_cascade")
    tracer.wrap(search.Searcher, "search", "search.search")
    tracer.wrap(search.Searcher, "project", "search.project")
    tracer.wrap(query.QueryEngine, "top_k", "query.top_k", attrs=plan_repeat)
    tracer.wrap(query.QueryEngine, "eval_term", "query.eval_term")
    tracer.wrap(reader.IndexReader, "__init__", "reader.open")
    tracer.wrap(reader.IndexReader, "posting", "reader.posting")
    tracer.wrap(reader.IndexReader, "prefix_terms", "reader.prefix_terms")
    tracer.wrap(reader.IndexReader, "decode_all", "reader.decode_all",
                attrs=lambda a, k, r: {"df": int(a[1].df)})


def install_write_side(tracer: Tracer) -> None:
    """Spans on the import and maintenance calls made by this process."""
    from gazetteer_search_ray.pipelines import build_index, maintenance

    tracer.wrap(build_index, "build_index", "build_index.build_index")
    tracer.wrap(maintenance, "update_index", "maintenance.update_index")
    tracer.wrap(maintenance, "delete_docs", "maintenance.delete_docs")
    tracer.wrap(maintenance, "force_merge", "maintenance.force_merge")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


class Spans:
    def __init__(self, rows: list):
        self.rows = [tuple(r) for r in rows]
        self.children: dict = {}
        for r in self.rows:
            self.children.setdefault(r[1], []).append(r)

    def named(self, name: str) -> list[tuple]:
        return [r for r in self.rows if r[2] == name]

    @staticmethod
    def dur(r) -> float:
        return r[4] - r[3]

    def covered(self, r, prefix: str) -> float:
        """Time inside ``r`` spent in descendant spans named
        ``prefix…`` (outermost such spans only)."""
        total = 0.0
        todo = list(self.children.get(r[0], ()))
        while todo:
            c = todo.pop()
            if c[2].startswith(prefix):
                total += self.dur(c)
            else:
                todo.extend(self.children.get(c[0], ()))
        return total

    def inside(self, r, name: str) -> list[tuple]:
        out = []
        todo = list(self.children.get(r[0], ()))
        while todo:
            c = todo.pop()
            if c[2] == name:
                out.append(c)
            todo.extend(self.children.get(c[0], ()))
        return out


def query_layers(sp: Spans, n_queries: int,
                 client_ms: dict | None = None) -> dict:
    """Per-layer metrics of a query stream → {name: (value, unit, n)}.

    Only spans of timed requests count (those carrying a request id);
    warm-up and check queries run without one."""
    n = max(1, n_queries)
    ms = 1e3
    opens = sp.named("reader.open")
    sp = Spans([r for r in sp.rows if r[5] is not None])
    search_sp = sp.named("search.search")
    topk = sp.named("query.top_k")
    decode = sp.named("reader.decode_all")
    evals = sp.named("query.eval_term")
    posting = sp.named("reader.posting")
    out = {
        "search.search_ms_p50": (pct([sp.dur(r) * ms for r in search_sp], 50),
                                 "ms", len(search_sp)),
        "search.search_ms_p99": (pct([sp.dur(r) * ms for r in search_sp], 99),
                                 "ms", len(search_sp)),
    }
    for key, name in (("search.analyze_ms_p50", "search.analyze_query"),
                      ("search.project_ms_p50", "search.project"),
                      ("reader.posting_ms_p50", "reader.posting"),
                      ("reader.prefix_terms_ms_p50", "reader.prefix_terms")):
        rows = sp.named(name)
        out[key] = (pct([sp.dur(r) * ms for r in rows], 50), "ms", len(rows))
    self_ms = [(sp.dur(r) - sp.covered(r, "reader.")) * ms for r in topk]
    out["query.top_k_self_ms_p50"] = (pct(self_ms, 50), "ms", len(topk))
    out["query.top_k_self_ms_p99"] = (pct(self_ms, 99), "ms", len(topk))
    out["search.top_k_calls_per_query"] = (len(topk) / n, "count", n)
    out["query.eval_term_calls_per_query"] = (len(evals) / n, "count", n)
    rep = sum(1 for r in topk if r[6] and r[6].get("repeat"))
    out["query.repeat_plan_share"] = (rep / len(topk) if topk else 0.0,
                                      "ratio", len(topk))
    out["reader.posting_calls_per_query"] = (len(posting) / n, "count", n)
    out["reader.decode_calls_per_query"] = (len(decode) / n, "count", n)
    out["reader.decoded_postings_per_query"] = (
        sum(r[6]["df"] for r in decode) / n, "count", n)
    out["reader.decode_ms_per_query"] = (
        sum(sp.dur(r) for r in decode) * ms / n, "ms", n)
    # a term evaluation that had to decode postings missed the caches
    missed = sum(1 for r in evals if sp.inside(r, "reader.decode_all"))
    out["reader.term_cache_miss_ratio"] = (
        missed / len(evals) if evals else 0.0, "ratio", len(evals))
    out["reader.open_s"] = (pct([sp.dur(r) for r in opens], 50), "s",
                            len(opens))
    if client_ms:
        by_rid = {r[5]: sp.dur(r) * ms for r in search_sp if r[5] is not None}
        diffs = [client_ms[rid] - by_rid[rid] for rid in client_ms
                 if rid in by_rid]
        out["server.self_ms_p50"] = (pct(diffs, 50), "ms", len(diffs))
    return out
