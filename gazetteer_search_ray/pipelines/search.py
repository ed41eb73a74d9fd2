"""Search front-end: query analysis, the main-query cascade, scorer actors.

Reference flow (SURVEY.md §3.2, ``api/search/ESDefaultSearch.java:49-166``):
``getQuery`` analysis → prefix extraction → token classing → 1–3 coalesce
query variants → first non-empty top-k → projection.

* :func:`analyze_query` — A1/A3/A4: same analyzer as the index side
  (loaded from the manifest), last-token prefix extraction
  (``Query.java:178-185``), number/optional/required token classing
  (``ESDefaultSearch.java:67-85``).
* :func:`build_cascade` — Q9/Q14 analog for the single-field corpus:
  (1) strict all-required conjunction (the cross_fields full-AND branch,
  ``MainAddressQueryBuilder.java:396-404``), (2) ≥2-of-terms
  minimum_should_match branch (``:274-309``), (3) relaxed disjunction —
  each rescored by the doc prior (Q6) and intersected with structured
  filters (Q13 analog: repo/lang).
* :class:`Searcher` — the single-process facade.  Its ``search``
  keyword arguments are the one request shape of every serving surface:
  the HTTP server parses a query string into them, and the
  :class:`QueryService` actors and the :class:`QueryScorer` batch stage
  take rows of them (plus an optional ``qid``), so every surface shares
  ``search``'s defaults.
* :class:`QueryScorer` — the stateful query actor: index + analyzer
  loaded once in ``__init__``; ``__call__`` scores a batch of query rows
  → rows (qid, rank, doc_id, score).  Used as
  ``queries_ds.map_batches(QueryScorer, concurrency=N)``.
* :class:`QueryService` / :class:`ShardedQueryService` — persistent
  raw-Ray pools of one-CPU actors: whole-index replicas, or one actor per
  segment with a global-df scatter-gather.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from ..state.reader import IndexReader
from .query import (
    Bool,
    ColumnFilter,
    FunctionScore,
    Prefix,
    QueryEngine,
    Term,
)


@dataclass
class ParsedQuery:
    required: list[str] = field(default_factory=list)
    optional: list[str] = field(default_factory=list)
    numbers: list[str] = field(default_factory=list)
    prefix: str | None = None
    all_terms: list[str] = field(default_factory=list)


def analyze_query(q: str, analyzer, prefix: bool = False) -> ParsedQuery:
    toks = analyzer.tokens(q or "")
    pq = ParsedQuery()
    prefix_tok = None
    if prefix and toks and q and not q.endswith(" "):
        # last token becomes the prefix unless it has digits
        # (reference: Query.findPrefix, Query.java:178-185)
        last = toks[-1][0]
        if not any(ch.isdigit() for ch in last):
            prefix_tok = last
            toks = toks[:-1]
    for tok, opt in toks:
        pq.all_terms.append(tok)
        if any(ch.isdigit() for ch in tok):
            pq.numbers.append(tok)
        elif opt:
            pq.optional.append(tok)
        else:
            pq.required.append(tok)
    pq.prefix = prefix_tok
    return pq


def build_cascade(
    pq: ParsedQuery,
    filters: dict | None = None,
    use_prior: bool = False,
) -> list:
    """Coalesce variants, strictest first (Q14)."""
    filt = tuple(
        ColumnFilter(col, tuple(v if isinstance(v, (list, tuple)) else [v]))
        for col, v in (filters or {}).items()
        if v is not None
    )
    core = pq.required + pq.numbers
    opt_should = tuple(Term(t, boost=0.5) for t in pq.optional)
    pfx = (Prefix(pq.prefix),) if pq.prefix else ()
    variants = []
    if core:
        variants.append(
            Bool(
                must=tuple(Term(t) for t in core),
                should=opt_should + pfx,
                filter=filt,
            )
        )
    if len(core) + len(pq.optional) >= 2:
        # ≥2-of-terms branch (MainAddressQueryBuilder.java:274-309)
        all_t = tuple(Term(t) for t in (core + pq.optional))
        variants.append(
            Bool(should=all_t + pfx, minimum_should_match=2, filter=filt)
        )
    relaxed_terms = core + pq.optional
    if relaxed_terms or pfx:
        variants.append(
            Bool(
                should=tuple(Term(t) for t in relaxed_terms) + pfx,
                minimum_should_match=1 if (relaxed_terms or pfx) else 0,
                filter=filt,
            )
        )
    if use_prior:
        variants = [FunctionScore(v) for v in variants]
    return variants


class Searcher:
    """Single-process search facade (reference: ESDefaultSearch).

    ``aux_lookup`` is the Q12 analog (POI-class secondary-index lookup,
    ``ESDefaultSearch.java:227-279``): a small broadcast dict mapping
    query tokens to a structured class — matched classes add a
    constant-score boost branch over a doc-store column (the reference
    boosts matched poi_class with constant_score 100000).  For a code
    corpus the natural instance maps language keywords → ``lang``.
    """

    def __init__(self, index_dir: str, aux_lookup: dict[str, tuple[str, str]] | None = None,
                 segments: list[str] | None = None):
        self.reader = IndexReader(index_dir, segments=segments)
        self.engine = QueryEngine(self.reader)
        self.aux_lookup = aux_lookup or {}
        # one search at a time: the engine's scratch arrays, its leaf LRU
        # and the reader's caches are shared by every calling thread
        self._lock = threading.Lock()

    def search(
        self,
        q: str,
        k: int = 20,
        prefix: bool = False,
        filters: dict | None = None,
        coalesce: bool = True,
        use_prior: bool = False,
        trim: bool = False,
        verbose: bool = False,
        with_matched: bool = False,
    ) -> list[dict]:
        with self._lock:
            pq = analyze_query(q, self.reader.analyzer, prefix)
            variants = build_cascade(pq, filters, use_prior)
            if not variants:
                return []
            if self.aux_lookup:
                variants = [self._with_aux_boost(v, pq) for v in variants]
            if not coalesce:
                variants = variants[-1:]
            docs = scores = None
            for plan in variants:  # first non-empty wins (ESCoalesce.java:30-64)
                docs, scores = self.engine.top_k(plan, k)
                if docs.size:
                    break
            if docs is None or docs.size == 0:
                return []
            matched = None
            if trim or with_matched:
                matched = self._matched_parts(pq, docs)
            if trim:
                docs, scores, matched = self._trim(docs, scores, matched, pq)
            return self.project(docs, scores, verbose,
                                matched=matched if with_matched else None)

    def _matched_parts(self, pq: ParsedQuery, docs: np.ndarray) -> list[list[str]]:
        """Per-hit ``matched_queries`` (reference ``_name`` tags on query
        parts → ``api/ResultsWrapper.java:27-40``): which named token
        classes — required / optional / prefix — each hit matched."""
        parts = []
        core = pq.required + pq.numbers
        if core:
            parts.append(Bool(should=tuple(Term(t) for t in core),
                              minimum_should_match=1, name="required"))
        if pq.optional:
            parts.append(Bool(should=tuple(Term(t) for t in pq.optional),
                              minimum_should_match=1, name="optional"))
        if pq.prefix:
            parts.append(Bool(should=(Prefix(pq.prefix),), name="prefix"))
        if not parts:
            return [[] for _ in range(docs.size)]
        return self.engine.matched_queries(Bool(should=tuple(parts)), docs)

    def _with_aux_boost(self, plan, pq: ParsedQuery):
        """Wrap a cascade variant with secondary-lookup boosts (Q12)."""
        from .query import ConstantScore

        boosts = []
        for tok in pq.all_terms:
            hit = self.aux_lookup.get(tok)
            if hit is not None:
                col, value = hit
                boosts.append(
                    ConstantScore(ColumnFilter(col, (value,)), score=100.0)
                )
        if not boosts:
            return plan
        return Bool(must=(plan,), should=tuple(boosts))

    def _trim(self, docs: np.ndarray, scores: np.ndarray,
              matched: list[list[str]], pq: ParsedQuery):
        """Result-list trim (Q16, ``ESDefaultSearch.java:281-313``): the
        reference walks the ranked hits and cuts the list at the first
        hit whose ``matched_queries`` show it only matched the weaker
        query branches.  Single-field analog: cut at the first hit whose
        matched parts lack "required" (optional/prefix matches only)."""
        if not pq.required and not pq.numbers:
            return docs, scores, matched
        cut = docs.size
        for i, m in enumerate(matched):
            if "required" not in m:
                cut = i
                break
        return docs[:cut], scores[:cut], matched[:cut]

    def project(self, docs: np.ndarray, scores: np.ndarray,
                verbose: bool = False,
                matched: list[list[str]] | None = None) -> list[dict]:
        """Hit projection from the doc store (Q17: base + verbose field
        sets, ``ESDefaultSearch.java:39-41,168-177``): engine ordinals
        become ``doc_id``s here.  One vectorized gather per column — not
        one per hit."""
        r = self.reader
        cols = ["repo", "path", "lang"]
        if verbose:
            cols += ["base_score", "sha256", "n_chars"]
        gathered = {c: r.column_of(docs, c) for c in cols if c in r.columns}
        if verbose:
            gathered["dl"] = r.dl_of(docs)
        out = []
        ids = r.doc_ids[docs].tolist()
        for i, (d, s) in enumerate(zip(ids, scores.tolist())):
            row = {"rank": i + 1, "doc_id": d, "score": s}
            for col, vals in gathered.items():
                v = vals[i]
                row[col] = int(v) if col == "dl" else v
            if matched is not None:
                row["matched_queries"] = matched[i]
            out.append(row)
        return out


class QueryScorer:
    """Actor-pool stage: batch of query rows in → ranked hits out.

    ``map_batches(QueryScorer, fn_constructor_kwargs=dict(index_dir=...),
    concurrency=N, batch_format="pyarrow")`` — the index, analyzer and
    caches are loaded once per actor (reference analog: the singleton ES
    client + static analyzer config, ``ESServer.java:12-18``).  A row is
    a ``qid`` plus ``Searcher.search`` keyword arguments; a null cell
    takes ``search``'s default.
    """

    def __init__(self, index_dir: str,
                 prime_queries: list[dict] | None = None):
        self.searcher = Searcher(index_dir)
        # priming (the QueryService.warm analog, in-actor): run a
        # representative query set once in __init__ so segment pages
        # fault in and the leaf caches fill during actor startup, not
        # inside the first served batch.  Caches are exact — primed and
        # unprimed results are identical (round-4 measurement: unprimed
        # first-touch page faults dominated first-batch latency ~100×).
        for req in prime_queries or ():
            self.searcher.search(**req)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"qid": [], "rank": [], "doc_id": [], "score": []}
        for row in batch.to_pylist():
            qid = row.pop("qid")
            req = {k: v for k, v in row.items() if v is not None}
            for h in self.searcher.search(**req):
                out["qid"].append(qid)
                out["rank"].append(h["rank"])
                out["doc_id"].append(h["doc_id"])
                out["score"].append(h["score"])
        return pa.table(
            {
                "qid": pa.array(out["qid"], pa.int64()),
                "rank": pa.array(out["rank"], pa.int32()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "score": pa.array(out["score"], pa.float64()),
            }
        )


def _check_actors_fit(actors: int) -> None:
    """Raise unless ``actors`` one-CPU actors fit the Ray cluster at
    once.  An actor that does not fit stays pending, and every request
    routed to it waits forever."""
    import ray

    cpus = ray.cluster_resources().get("CPU", 0)
    if actors > cpus:
        raise ValueError(
            f"{actors} one-CPU actors need more than the cluster's "
            f"{cpus:g} CPUs; the extra actors would never start"
        )


class QueryService:
    """Persistent query-serving actor pool (reference: the ``serve``
    command's RestExpress + ES cluster, ``server/REServer.java:54-96``).

    ``map_batches(QueryScorer, ...)`` is right for batch replay jobs but
    re-creates its actor pool per execution; a serving workload keeps
    warm actors. This is one of the few places the Dataset API genuinely
    can't express the semantics, so the pool is raw Ray actors: each
    holds a warm ``Searcher`` (index + caches) and answers batches of
    query rows round-robin.  A row is a ``qid`` plus ``Searcher.search``
    keyword arguments, so ``verbose``, ``trim`` and ``with_matched`` are
    answered inside the pool too.
    """

    def __init__(self, index_dir: str, pool_size: int = 4):
        import ray

        _check_actors_fit(pool_size)

        @ray.remote(num_cpus=1)
        class _Worker:
            def __init__(self, index_dir: str):
                # each pool actor is budgeted num_cpus=1; Arrow's
                # default per-process pools are os.cpu_count() threads,
                # so a 16-actor pool spins 16×32 threads and replay
                # throughput INVERTS under the thrash (measured: pool=4
                # 356 QPS → pool=16 88 QPS on a 320k-doc index).
                import pyarrow as _pa

                _pa.set_cpu_count(1)
                _pa.set_io_thread_count(2)
                self.searcher = Searcher(index_dir)

            def warm(self, terms: list[str]) -> int:
                from .query import Term

                for t in terms:
                    self.searcher.engine.eval_term(Term(t))
                return len(terms)

            def export_postings(self, terms: list[str]) -> dict:
                """Decode once for the whole pool: raw (docs, tfs, df)
                per term — the actor return value lands in the object
                store, so peers adopt it zero-copy."""
                rd_ = self.searcher.engine.reader
                out = {}
                for t in terms:
                    tp = rd_.posting(t)
                    if tp is not None:
                        docs, tfs = rd_.decode_all(tp)
                        out[t] = (docs, tfs, tp.df)
                return out

            def adopt_postings(self, shared: dict) -> int:
                for t, (docs, tfs, df) in shared.items():
                    self.searcher.engine.seed_term(t, docs, tfs, df)
                return len(shared)

            def search_batch(self, rows: list[dict], summarize: bool = False) -> list[dict]:
                """Answer ``rows``: each is ``Searcher.search`` keyword
                arguments plus an optional ``qid``."""
                out = []
                for row in rows:
                    req = dict(row)
                    qid = req.pop("qid", None)
                    hits = self.searcher.search(**req)
                    if summarize:
                        # serving benches must not funnel full hit
                        # payloads through one driver process — a real
                        # service streams hits to many clients
                        out.append({
                            "qid": qid,
                            "n_hits": len(hits),
                            "top_doc": hits[0]["doc_id"] if hits else None,
                        })
                    else:
                        out.append({"qid": qid, "hits": hits})
                return out

        self._ray = ray
        self.workers = [_Worker.remote(index_dir) for _ in range(pool_size)]
        self.pool_size = pool_size
        self._rr = 0

    def warm(self, terms: list[str],
             prime_queries: list[dict] | None = None) -> None:
        """Shared warm: worker 0 decodes the terms once; the decoded
        arrays ship through the object store ONCE and every actor
        seeds zero-copy views (N× less decode + one physical copy
        per node instead of one per actor).

        ``prime_queries`` additionally runs a representative query
        batch on EVERY actor, faulting in the per-actor accumulator
        buffers and dense leaf vectors — on ballooned VMs first-touch
        page faults run ~100× slower than warm memory (BASELINE.md), so
        an unprimed pool's first requests pay a multi-second fault
        storm that has nothing to do with steady-state throughput."""
        ref = self.workers[0].export_postings.remote(terms)
        self._ray.get([w.adopt_postings.remote(ref) for w in self.workers])
        if prime_queries:
            self._ray.get([
                w.search_batch.remote(prime_queries, True)
                for w in self.workers
            ])

    def submit(self, rows: list[dict], summarize: bool = False):
        w = self.workers[self._rr % self.pool_size]
        self._rr += 1
        return w.search_batch.remote(rows, summarize)

    def search(self, **req) -> list[dict]:
        """``Searcher.search(**req)``, answered by the next actor."""
        return self._ray.get(self.submit([req]))[0]["hits"]

    def replay(self, queries: list[dict], batch_size: int = 64,
               summarize: bool = False) -> list[dict]:
        futs = [
            self.submit(queries[i : i + batch_size], summarize)
            for i in range(0, len(queries), batch_size)
        ]
        out: list[dict] = []
        for f in self._ray.get(futs):
            out.extend(f)
        return out

    def shutdown(self) -> None:
        for w in self.workers:
            self._ray.kill(w)


class ShardedQueryService:
    """Scatter-gather query serving over segment shards — the multi-node
    layout (reference analog: ES shards + ``dfs_query_then_fetch``).

    Each one-CPU raw-Ray actor holds ONE segment (``IndexReader``
    restricted via ``segments=``); on a real cluster the actors are
    scheduled next to their segment files and no actor ever loads the
    whole index.  A query runs two-phase for rank-identity with an
    unsharded index:

    1. **dfs phase** — the coordinator analyzes the query (analyzer from
       the manifest), collects each shard's local df for the plan's Term
       leaves, and sums them into the GLOBAL df map;
    2. **query phase** — every shard evaluates the same plan with the
       global df injected (``QueryEngine.df_override``) plus the
       manifest's global n_docs/avgdl, returns its local top-k as
       ``doc_id``s (shard ordinals mean nothing to the coordinator), and
       the coordinator merges by (score desc, doc_id asc).

    The coalesce cascade is decided globally: a variant counts as
    non-empty if ANY shard matched, so shards never mix variants.
    Differentially tested bit-identical to the unsharded ``Searcher``.
    """

    def __init__(self, index_dir: str):
        import ray

        from ..functions.analyzer import Analyzer, AnalyzerConfig
        from ..state import manifest as mf

        man = mf.read_checked_manifest(index_dir)
        segments = man["segments"]
        _check_actors_fit(len(segments))
        self.analyzer = Analyzer(AnalyzerConfig.from_dict(man["analyzer"]))

        @ray.remote(num_cpus=1)
        class _Shard:
            def __init__(self, index_dir: str, segments: list[str]):
                self.searcher = Searcher(index_dir, segments=segments)

            def term_stats(self, terms: list[str]) -> dict:
                out = {}
                for t in terms:
                    tp = self.searcher.reader.posting(t)
                    if tp is not None:
                        out[t] = int(tp.df)
                return out

            def eval_plan(self, plan, k: int, df_override: dict) -> tuple:
                eng = self.searcher.engine
                eng.df_override = df_override
                docs, scores = eng.top_k(plan, k)
                return eng.reader.doc_ids[docs], scores

        self._ray = ray
        self.workers = [_Shard.remote(index_dir, [seg]) for seg in segments]

    @staticmethod
    def _term_leaves(plan) -> list[str]:
        out: list[str] = []

        def walk(n):
            from .query import Bool as B, ConstantScore, DisMax, FunctionScore
            from .query import Term as T

            if isinstance(n, T):
                out.append(n.term)
            elif isinstance(n, B):
                for group in (n.must, n.should, n.must_not, n.filter):
                    for c in group:
                        walk(c)
            elif isinstance(n, DisMax):
                for c in n.children:
                    walk(c)
            elif isinstance(n, (ConstantScore, FunctionScore)):
                walk(n.child)

        walk(plan)
        return sorted(set(out))

    def search(self, q: str, k: int = 20, prefix: bool = False,
               filters: dict | None = None, coalesce: bool = True,
               use_prior: bool = False) -> list[dict]:
        ray = self._ray
        pq = analyze_query(q, self.analyzer, prefix)
        variants = build_cascade(pq, filters, use_prior)
        if not variants:
            return []
        if not coalesce:
            variants = variants[-1:]
        # dfs phase once per query (all variants share the leaf terms)
        terms = sorted({t for v in variants for t in self._term_leaves(v)})
        global_df: dict[str, int] = {}
        for local in ray.get([w.term_stats.remote(terms) for w in self.workers]):
            for t, df in local.items():
                global_df[t] = global_df.get(t, 0) + df
        for plan in variants:  # coalesce decided over the MERGED result
            parts = ray.get(
                [w.eval_plan.remote(plan, k, global_df) for w in self.workers]
            )
            docs = np.concatenate([p[0] for p in parts])
            scores = np.concatenate([p[1] for p in parts])
            if docs.size:
                order = np.lexsort((docs, -scores))[:k]
                return [
                    {"rank": r + 1, "doc_id": int(docs[i]), "score": float(scores[i])}
                    for r, i in enumerate(order)
                ]
        return []

    def shutdown(self) -> None:
        for w in self.workers:
            self._ray.kill(w)
