"""Query engine: boolean BM25 plans + block-max pruned top-k.

Reimplements the reference's ES query composition (SURVEY.md §2.4) over
the explicit index:

* plan nodes mirror the ES query parts the reference builds —
  ``Bool`` (``builders/BooleanPart.java``), ``Term``/multi-term match
  (``builders/MatchPart.java``), ``Prefix`` (``builders/PrefixPart.java``),
  ``DisMax`` (``builders/DisMaxUnion.java``), terms filters
  (``builders/TermsPart.java``), function/script score
  (``builders/FunctionScorePart.java``, ``CustomScore.java``);
* the disjunctive top-k path uses **block-max dynamic pruning**
  (MaxScore/WAND family): terms are processed in descending
  upper-bound order, and once the remaining terms' bounds cannot beat
  the running threshold their postings are only *gathered* for current
  candidates via block-selective decode (``codec.decode_blocks``) —
  blocks whose block-max bound cannot matter are never decoded;
* the coalesce cascade (``api/search/ESCoalesce.java:30-64``) runs plan
  variants in order and returns the first non-empty top-k.

Docs are the reader's global ordinals (positions in its sorted
``doc_ids``) from decode to top-k; callers map them to ``doc_id`` only
to project hits.  All arithmetic is float64; ranking ties break (score
desc, ordinal asc) — ordinal order is doc_id order, so this is the
(score desc, doc_id asc) convention pinned in ``functions/bm25.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..functions import bm25
from ..state.reader import IndexReader, TermPostings

EMPTY_I = np.empty(0, dtype=np.int64)
EMPTY_F = np.empty(0, dtype=np.float64)


# ---------------------------------------------------------------------------
# plan nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Single-term BM25 leaf.  ``field`` scopes the term to an extra
    indexed field (reference multi-field mapping: name/street/locality
    score as separate ES text fields with separate length norms,
    ``es_mappings/addr_row.json:41-121``); None = the main content
    field.  Field-scoped terms live in the same postings segments under
    the ``<field>\\x1e<term>`` key and score with the FIELD's dl/avgdl.
    """

    term: str
    boost: float = 1.0
    field: Optional[str] = None


@dataclass(frozen=True)
class Prefix:
    """Constant-score prefix match (reference Q3: unscored)."""

    prefix: str
    boost: float = 1.0
    max_expansions: int = 128


@dataclass(frozen=True)
class Bool:
    must: tuple = ()
    should: tuple = ()
    must_not: tuple = ()
    filter: tuple = ()
    minimum_should_match: int = 0
    boost: float = 1.0
    name: Optional[str] = None


@dataclass(frozen=True)
class DisMax:
    children: tuple
    tie_breaker: float = 0.0
    boost: float = 1.0


@dataclass(frozen=True)
class ConstantScore:
    child: object
    score: float = 1.0


@dataclass(frozen=True)
class ColumnFilter:
    """Non-scoring doc-store predicate (reference Q4/Q13 analog:
    keyword terms filter / structured repo-lang filters)."""

    column: str
    values: tuple


@dataclass(frozen=True)
class RangeFilter:
    """Non-scoring numeric range predicate on a doc-store column
    (reference Q7's ``housenumber_number ∈ [n−16, n+16]`` branch,
    ``builders/HousenumbersPart.java:42-81``)."""

    column: str
    lo: float
    hi: float


@dataclass(frozen=True)
class Fuzzy:
    """Edit-distance-1 term expansion (reference Q2 ``fuzziness("1")``,
    ``builders/MatchPart.java:19-81``): the union of postings of every
    dictionary term within Damerau-Levenshtein distance ≤ 1, each
    scored by its own BM25 (like ES's rewritten fuzzy query)."""

    term: str
    boost: float = 1.0
    max_expansions: int = 50


@dataclass(frozen=True)
class FunctionScore:
    """score' = score * doc_prior * weight (reference Q6:
    ``_score * base_score * w`` — DisMaxUnion.java:42-45)."""

    child: object
    weight: float = 1.0
    prior_column: str = "base_score"


# ---------------------------------------------------------------------------
# sorted-array set/score algebra (all exact, all vectorized)
# ---------------------------------------------------------------------------


def _union_sum(parts: list[tuple[np.ndarray, np.ndarray]]):
    parts = [p for p in parts if p[0].size]
    if not parts:
        return EMPTY_I, EMPTY_F
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    u, inv = np.unique(docs, return_inverse=True)
    acc = np.zeros(u.size, dtype=np.float64)
    np.add.at(acc, inv, scores)
    return u, acc


def _union_counts(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    parts = [p for p in parts if p.size]
    if not parts:
        return EMPTY_I, EMPTY_I
    docs = np.concatenate(parts)
    return np.unique(docs, return_counts=True)


def _union_max(parts, tie_breaker: float):
    parts = [p for p in parts if p[0].size]
    if not parts:
        return EMPTY_I, EMPTY_F
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    u, inv = np.unique(docs, return_inverse=True)
    mx = np.full(u.size, -np.inf)
    np.maximum.at(mx, inv, scores)
    if tie_breaker:
        s = np.zeros(u.size)
        np.add.at(s, inv, scores)
        mx = mx + tie_breaker * (s - mx)
    return u, mx


def _intersect(a_docs, a_scores, b_docs, b_scores):
    """Intersection of two SORTED unique doc arrays via searchsorted —
    O(m log n), no re-sort (np.intersect1d would sort the concat)."""
    if a_docs.size == 0 or b_docs.size == 0:
        return EMPTY_I, EMPTY_F
    if a_docs.size < b_docs.size:
        a_docs, a_scores, b_docs, b_scores = b_docs, b_scores, a_docs, a_scores
    idx = np.searchsorted(a_docs, b_docs)
    idx_c = np.minimum(idx, a_docs.size - 1)
    hit = a_docs[idx_c] == b_docs
    return b_docs[hit], a_scores[idx_c[hit]] + b_scores[hit]


def _in_sorted(docs: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Boolean mask: docs[i] ∈ members (both sorted unique)."""
    if members.size == 0:
        return np.zeros(docs.size, dtype=bool)
    idx = np.minimum(np.searchsorted(members, docs), members.size - 1)
    return members[idx] == docs


def _gather_scores(docs, src_docs, src_scores):
    """Scores of ``docs`` found in (src_docs sorted, src_scores); 0 else."""
    out = np.zeros(docs.size, dtype=np.float64)
    idx = np.searchsorted(src_docs, docs)
    idx_c = np.minimum(idx, max(src_docs.size - 1, 0))
    if src_docs.size:
        hit = src_docs[idx_c] == docs
        out[hit] = src_scores[idx_c[hit]]
    return out


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

# Byte budget of the leaf cache.  Bytes, not entries: one df≈n leaf at the
# 32M-doc shard bound pins ~0.5 GB of docs + float64 + float32 arrays, so a
# count cap alone could exceed the per-actor accumulator budget 1000×.
LEAF_CACHE_BYTES = 1 << 30


def _entry_bytes(ent: list) -> int:
    docs, s64, s32, _smax, dense = ent
    n = docs.nbytes + s64.nbytes
    if s32 is not None:
        n += s32.nbytes
    if dense is not None:
        n += dense[0].nbytes + dense[1].nbytes
    return n


class QueryEngine:
    def __init__(self, reader: IndexReader, k1: float = bm25.K1, b: float = bm25.B):
        self.reader = reader
        self.k1 = k1
        self.b = b
        # the leaf cache, LRU under LEAF_CACHE_BYTES: key → [docs, scores
        # float64, scores float32, max score, dense vectors].  The key is
        # (term key, boost, effective df) for a Term — scores computed
        # under one injected global df never serve another — and the
        # frozen node itself for Prefix/ColumnFilter/RangeFilter.  The
        # last three fields are filled by the float32 band on first use.
        self._leaves: OrderedDict[object, list] = OrderedDict()
        self._leaves_bytes: int = 0
        self._ub_cache: dict[tuple, float] = {}
        # reusable scratch accumulators (one set per engine ≙ per actor)
        self._bufs: dict[str, np.ndarray] = {}
        self._acc_busy = False
        # the dense paths are only entered when the accumulator fits the
        # per-actor budget (float64/doc: 32M docs ≙ 256 MB) — giant
        # shards stay on the sparse paths however hot the terms; 0 forces
        # the sparse paths everywhere
        self.dense_doc_cap: int = 32_000_000
        # term → GLOBAL doc frequency, injected by a sharded-query
        # coordinator (ES dfs_query_then_fetch analog): a shard actor's
        # local postings see only local df, but BM25 IDF must use the
        # cross-shard df for rank-identity with an unsharded index.
        self.df_override: dict[str, int] = {}

    def _df(self, term: str, tp: TermPostings) -> int:
        return self.df_override.get(term, tp.df)

    @staticmethod
    def _term_key(node: Term) -> str:
        """Posting-dictionary key of a Term leaf: plain term for the
        main content field, ``<field>\\x1e<term>`` for extra fields."""
        from ..stages.tokenize import FIELD_SEP

        return node.term if node.field is None else \
            node.field + FIELD_SEP + node.term

    # -- leaf cache ------------------------------------------------------

    def _leaf_key(self, node):
        """Leaf-cache key of a leaf node; None for an absent term."""
        if not isinstance(node, Term):
            return node
        tkey = self._term_key(node)
        tp = self.reader.posting(tkey)
        return None if tp is None else (tkey, node.boost, self._df(tkey, tp))

    def _leaf_get(self, key) -> list | None:
        ent = self._leaves.get(key)
        if ent is not None:
            self._leaves.move_to_end(key)
        return ent

    def _leaf_put(self, key, docs: np.ndarray, scores: np.ndarray) -> list:
        ent = self._leaves[key] = [docs, scores, None, 0.0, None]
        self._leaf_charge(key, ent, docs.nbytes + scores.nbytes)
        return ent

    def _leaf_charge(self, key, ent: list, nbytes: int) -> None:
        """Charge ``nbytes`` just added to the cached ``ent``, then evict
        least-recently-used entries until the cache fits the budget.  An
        entry evicted meanwhile stays out, and one larger than the whole
        budget is served uncached."""
        if self._leaves.get(key) is not ent:
            return
        self._leaves_bytes += nbytes
        while self._leaves_bytes > LEAF_CACHE_BYTES:
            _, old = self._leaves.popitem(last=False)
            self._leaves_bytes -= _entry_bytes(old)

    # -- term scoring ----------------------------------------------------

    def _score_tf(self, docs: np.ndarray, tfs: np.ndarray, df: int,
                  field: str | None = None) -> np.ndarray:
        dl = self.reader.dl_of(docs, field)
        return bm25.term_scores(
            tfs, dl, df, self.reader.n_docs, self.reader.avgdl_of(field),
            self.k1, self.b
        )

    def seed_term(self, term: str, docs: np.ndarray, tfs: np.ndarray,
                  df: int) -> None:
        """Warm the leaf cache from externally-decoded postings — the
        shared-warm path: one pool actor decodes, the arrays travel the
        object store once, and every actor seeds zero-copy views
        instead of re-reading + re-decoding the row groups.  Scoring
        runs locally through the exact ``eval_term`` arithmetic, so
        seeded and self-computed results are bit-identical."""
        key = (term, 1.0, self.df_override.get(term, df))
        if key not in self._leaves:
            self._leaf_put(key, docs, self._score_tf(docs, tfs, key[2]))

    def eval_term(self, node: Term):
        """(ordinals, float64 scores) of a Term leaf.  The only way a
        Term enters the leaf cache, so every postings decode happens
        inside this call.  Absent terms are not cached."""
        tkey = self._term_key(node)
        tp = self.reader.posting(tkey)
        if tp is None:
            return EMPTY_I, EMPTY_F
        df = self._df(tkey, tp)
        key = (tkey, node.boost, df)
        ent = self._leaf_get(key)
        if ent is None:
            docs, tfs = self.reader.decode_all(tp)
            ent = self._leaf_put(
                key, docs, node.boost * self._score_tf(docs, tfs, df, node.field))
        return ent[0], ent[1]

    # -- generic exact evaluation ---------------------------------------

    def evaluate(self, node) -> tuple[np.ndarray, np.ndarray]:
        """(sorted ordinals, float64 scores) of every matching doc."""
        if isinstance(node, Term):
            return self.eval_term(node)
        if isinstance(node, (Prefix, ColumnFilter, RangeFilter)):
            ent = self._leaf_get(node)
            if ent is None:
                ent = self._leaf_put(node, *self._eval_leaf(node))
            return ent[0], ent[1]
        if isinstance(node, ConstantScore):
            docs, _ = self.evaluate(node.child)
            return docs, np.full(docs.size, float(node.score))
        if isinstance(node, Fuzzy):
            terms = self.reader.fuzzy_terms(node.term, node.max_expansions)
            parts = [self.eval_term(Term(t, node.boost)) for t in terms]
            return _union_sum(parts)
        if isinstance(node, DisMax):
            parts = [self.evaluate(c) for c in node.children]
            docs, scores = _union_max(parts, node.tie_breaker)
            return docs, scores * node.boost
        if isinstance(node, FunctionScore):
            docs, scores = self.evaluate(node.child)
            if docs.size:
                prior = self.reader.column_of(docs, node.prior_column).astype(np.float64)
                scores = scores * prior * node.weight
            return docs, scores
        if isinstance(node, Bool):
            return self._eval_bool(node)
        raise TypeError(f"unknown plan node {type(node)}")

    def _eval_leaf(self, node):
        """Uncached (docs, scores) of a Prefix or filter leaf."""
        if isinstance(node, ColumnFilter):
            docs = self.reader.docs_matching(node.column, node.values)
            return docs, np.zeros(docs.size)
        if isinstance(node, RangeFilter):
            docs = self.reader.docs_in_range(node.column, node.lo, node.hi)
            return docs, np.zeros(docs.size)
        terms = self.reader.prefix_terms(node.prefix, node.max_expansions)
        doc_sets = []
        for t in terms:
            tp = self.reader.posting(t)
            if tp:
                doc_sets.append(self.reader.decode_all(tp)[0])
        if not doc_sets:
            return EMPTY_I, EMPTY_F
        u = np.unique(np.concatenate(doc_sets))
        return u, np.full(u.size, float(node.boost))

    # -- dense boolean evaluation (hot-term fast path) -------------------

    def _dense_ok(self, node: Bool) -> bool:
        """The one dense-vs-sparse test: the Term leaves' posting mass is
        a sizeable fraction of the doc space (×4 ≥ n), where sorted
        merges are memory-bandwidth-bound, and the accumulator fits
        ``dense_doc_cap``.  Tiny queries stay on the sparse paths."""
        n = self.reader.doc_ids.size
        if not 0 < n <= self.dense_doc_cap:
            return False
        mass = 0
        for child in (*node.must, *node.should):
            if isinstance(child, Term):
                tp = self.reader.posting(self._term_key(child))
                if tp is not None:
                    mass += tp.df
        return mass * 4 >= n

    def _zeroed(self, name: str, n: int, dtype) -> np.ndarray:
        """The engine's reusable scratch array ``name``, zero-filled."""
        buf = self._bufs.get(name)
        if buf is None or buf.size != n:
            buf = self._bufs[name] = np.zeros(n, dtype=dtype)
        else:
            buf.fill(0)
        return buf

    def _eval_bool_dense(self, node: Bool):
        """Dense-array boolean evaluation: scores scatter into one
        accumulator over the doc space, set logic becomes boolean-array
        ops — no sorts, no searchsorted merges (doc ordinals ARE
        accumulator positions).  Exact same results and float summation
        order as the sorted-merge path (differentially tested)."""
        n = self.reader.doc_ids.size
        # re-entrancy guard: a nested Bool child evaluated below may
        # itself take the dense path — only the outermost call may use
        # the shared scratch buffers
        reentrant = self._acc_busy
        acc = np.zeros(n) if reentrant else self._zeroed("acc", n, np.float64)
        self._acc_busy = True
        try:
            return self._eval_bool_dense_inner(node, acc, n, reentrant)
        finally:
            self._acc_busy = reentrant

    def _eval_bool_dense_inner(self, node: Bool, acc, n: int, reentrant: bool):
        if len(node.must) == 1:
            # presence needs no counter: one bool scatter
            cd, cs = self.evaluate(node.must[0])
            acc[cd] += cs
            mask = np.zeros(n, dtype=bool)
            mask[cd] = True
        elif node.must:
            cnt = np.zeros(n, dtype=np.int16)
            for child in node.must:
                cd, cs = self.evaluate(child)
                cnt[cd] += 1
                acc[cd] += cs
            mask = cnt == len(node.must)
        else:
            mask = None

        for child in node.filter:
            fd, _ = self.evaluate(child)
            fmask = np.zeros(n, dtype=bool)
            fmask[fd] = True
            mask = fmask if mask is None else (mask & fmask)

        acc_s = None
        if node.should:
            # separate should accumulator so the float sum is
            # (Σmust) + (Σshould) — bit-identical to the sparse path's
            # `scores += gather(should_union)` association
            if not node.must:
                acc_s = acc
            elif reentrant:
                acc_s = np.zeros(n)
            else:
                acc_s = self._zeroed("acc2", n, np.float64)
            s_cnt = np.zeros(n, dtype=np.int16) if (
                node.minimum_should_match > 0 or mask is None
            ) else None
            for child in node.should:
                sd, ss = self.evaluate(child)
                acc_s[sd] += ss
                if s_cnt is not None:
                    s_cnt[sd] += 1
            if mask is None:
                eff = max(1, node.minimum_should_match)
                mask = s_cnt >= eff
            elif node.minimum_should_match > 0:
                mask = mask & (s_cnt >= node.minimum_should_match)

        if mask is None:
            return EMPTY_I, EMPTY_F

        for child in node.must_not:
            nd, _ = self.evaluate(child)
            if nd.size:
                mask[nd] = False

        hit = np.flatnonzero(mask)
        scores = acc[hit].copy()
        if acc_s is not None and acc_s is not acc:
            scores += acc_s[hit]
        if node.boost != 1.0:
            scores *= node.boost
        return hit, scores

    def _eval_bool(self, node: Bool):
        # single-clause rewriting (the ES query-planner identity): a
        # bool with exactly one scoring clause IS that clause — serves
        # straight from the leaf cache, no accumulators, no merges
        if (len(node.must) == 1 and not node.filter and not node.should
                and not node.must_not):
            d, s = self.evaluate(node.must[0])
            return (d, s * node.boost) if node.boost != 1.0 else (d, s)
        if (len(node.should) == 1 and not node.must and not node.filter
                and not node.must_not and node.minimum_should_match <= 1):
            d, s = self.evaluate(node.should[0])
            return (d, s * node.boost) if node.boost != 1.0 else (d, s)
        if self._dense_ok(node):
            return self._eval_bool_dense(node)
        docs: np.ndarray | None = None
        scores: np.ndarray | None = None
        if node.must:
            parts = [self.evaluate(c) for c in node.must]
            # membership: intersect smallest-first (cheapest); scores:
            # summed in ORIGINAL child order over the final doc set so
            # the float summation order stays the pinned convention
            order = sorted(range(len(parts)), key=lambda i: parts[i][0].size)
            docs = parts[order[0]][0]
            for i in order[1:]:
                docs = docs[_in_sorted(docs, parts[i][0])]
                if docs.size == 0:
                    return EMPTY_I, EMPTY_F
            if docs.size == 0:
                return EMPTY_I, EMPTY_F
            scores = np.zeros(docs.size, dtype=np.float64)
            for pd_, ps_ in parts:
                scores += _gather_scores(docs, pd_, ps_)

        for child in node.filter:
            fd, _ = self.evaluate(child)
            if docs is None:
                docs, scores = fd, np.zeros(fd.size)
            else:
                hit = _in_sorted(docs, fd)
                docs, scores = docs[hit], scores[hit]
            if docs.size == 0:
                return EMPTY_I, EMPTY_F

        if node.should:
            sparts = [self.evaluate(c) for c in node.should]
            s_docs, s_scores = _union_sum(sparts)
            msm = node.minimum_should_match
            if docs is None:
                # pure disjunction: msm defaults to 1
                eff = max(1, msm)
                if eff > 1:
                    c_docs, counts = _union_counts([p[0] for p in sparts])
                    keep = c_docs[counts >= eff]
                    docs = keep
                    scores = _gather_scores(keep, s_docs, s_scores)
                else:
                    docs, scores = s_docs, s_scores
            else:
                # should adds score but doesn't constrain — unless msm>0
                if msm > 0:
                    c_docs, counts = _union_counts([p[0] for p in sparts])
                    ok = c_docs[counts >= msm]
                    hit = _in_sorted(docs, ok)
                    docs, scores = docs[hit], scores[hit]
                if docs.size:
                    scores = scores + _gather_scores(docs, s_docs, s_scores)

        if docs is None:
            return EMPTY_I, EMPTY_F

        for child in node.must_not:
            nd, _ = self.evaluate(child)
            if nd.size:
                mask = ~_in_sorted(docs, nd)
                docs, scores = docs[mask], scores[mask]

        return docs, scores * node.boost

    # -- matched-part attribution (reference `_name` tags) ----------------

    def named_parts(self, node) -> list[tuple[str, object]]:
        """All named sub-plans, in plan order (reference: ``_name`` tags
        on query parts, ``builders/BooleanPart.java:8-103`` — they drive
        ``matched_queries`` in hits, ``api/ResultsWrapper.java:27-40``,
        and the Q16 trim)."""
        out: list[tuple[str, object]] = []

        def walk(n):
            if isinstance(n, Bool):
                if n.name:
                    out.append((n.name, n))
                for group in (n.must, n.should, n.must_not, n.filter):
                    for c in group:
                        walk(c)
            elif isinstance(n, DisMax):
                for c in n.children:
                    walk(c)
            elif isinstance(n, (ConstantScore, FunctionScore)):
                walk(n.child)

        walk(node)
        return out

    def matched_queries(self, node, docs: np.ndarray) -> list[list[str]]:
        """Per-doc list of named-part names the doc matches — the
        engine-level ``matched_queries`` bookkeeping."""
        names = self.named_parts(node)
        flags = []
        for name, part in names:
            pd_, _ = self.evaluate(part)
            flags.append((name, _in_sorted(docs, pd_)))
        return [
            [name for name, m in flags if m[i]] for i in range(docs.size)
        ]

    # -- top-k -----------------------------------------------------------

    def _topk(self, docs: np.ndarray, scores: np.ndarray, k: int,
              secondary: np.ndarray | None = None):
        """(score desc[, secondary asc], ordinal asc) tie-break,
        vectorized.  ``secondary`` (aligned with docs) is the analog of
        the reference's secondary geo-distance sort
        (``api/search/ESCoalesce.java:50``)."""
        if docs.size == 0:
            return docs, scores
        if docs.size > k:
            # keep every doc tied with the kth score so the tie-break
            # keys are applied over the full tie group (rank-identity)
            kth = -np.partition(-scores, k - 1)[k - 1]
            mask = scores >= kth
            docs, scores = docs[mask], scores[mask]
            if secondary is not None:
                secondary = secondary[mask]
        keys = (docs, -scores) if secondary is None else (docs, secondary, -scores)
        order = np.lexsort(keys)[:k]
        return docs[order], scores[order]

    def top_k_sorted(self, node, k: int = 20, secondary_col: str | None = None):
        """Top-k with a secondary doc-store sort key (score desc,
        column asc, ordinal asc) — Q15's geoDistanceSort analog."""
        if secondary_col is None:
            return self.top_k(node, k)
        full_docs, full_scores = self.evaluate(node)
        if full_docs.size == 0:
            return full_docs, full_scores
        sec_all = (
            self.reader.dl_of(full_docs)
            if secondary_col == "dl"
            else self.reader.column_of(full_docs, secondary_col)
        ).astype(np.float64)
        return self._topk(full_docs, full_scores, k, secondary=sec_all)

    def top_k_geo_sorted(self, node, k: int = 20,
                         origin: tuple[float, float] = (0.0, 0.0),
                         lat_col: str = "lat", lon_col: str = "lon"):
        """Top-k with a TRUE haversine secondary sort: (score desc,
        great-circle distance from ``origin`` asc, ordinal asc) — the
        reference's ``geoDistanceSort("centroid")``
        (``api/search/ESCoalesce.java:50``) over lat/lon doc-store
        columns (carried by ``DOCMETA_CARRY`` when present in the
        corpus)."""
        from ..functions.geo import haversine_km

        full_docs, full_scores = self.evaluate(node)
        if full_docs.size == 0:
            return full_docs, full_scores
        lat = self.reader.column_of(full_docs, lat_col).astype(np.float64)
        lon = self.reader.column_of(full_docs, lon_col).astype(np.float64)
        dist = haversine_km(lat, lon, origin[0], origin[1])
        return self._topk(full_docs, full_scores, k, secondary=dist)

    def top_k(self, node, k: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k of any plan.  The routing rule, written only here:

        1. a ``Bool`` of the band's shape (``_band_shape``) that passes
           ``_dense_ok`` → the float32 band, ``_topk_bool_approx``;
        2. else a disjunction of Terms (boost 1, msm ≤ 1, filters only
           leaf filters under msm = 1) → MaxScore, ``top_k_disjunction``;
        3. else ``evaluate`` + ``_topk``.

        ``top_k_sorted`` and ``top_k_geo_sorted`` are the fourth route:
        ``evaluate`` + ``_topk`` on a secondary key."""
        if isinstance(node, Bool):
            if self._band_shape(node) and self._dense_ok(node):
                return self._topk_bool_approx(node, k)
            if (node.should and not node.must and not node.must_not
                    and node.minimum_should_match <= 1 and node.boost == 1.0
                    and all(isinstance(c, Term) for c in node.should)):
                if not node.filter:
                    return self.top_k_disjunction(list(node.should), k)
                # msm == 0 stays exhaustive: filter-only docs score 0 but
                # ARE hits there (should adds score, doesn't constrain),
                # and the pruned disjunction would drop them
                if node.minimum_should_match == 1 and all(
                    isinstance(f, (ColumnFilter, RangeFilter))
                    for f in node.filter
                ):
                    fdocs: np.ndarray | None = None
                    for f in node.filter:
                        fd, _ = self.evaluate(f)
                        fdocs = fd if fdocs is None else fd[_in_sorted(fd, fdocs)]
                        if fdocs.size == 0:
                            return EMPTY_I, EMPTY_F
                    return self.top_k_disjunction(
                        list(node.should), k, filter_docs=fdocs)
        docs, scores = self.evaluate(node)
        return self._topk(docs, scores, k)

    # -- block-max pruned disjunction (MaxScore/WAND family) -------------

    def _term_ub(self, tp: TermPostings, df: int | None = None,
                 field: str | None = None) -> float:
        df = tp.df if df is None else df
        ub = 0.0
        for p in tp.parts:
            if len(p["block_max_tf"]):
                b_ub = bm25.block_upper_bound(
                    p["block_max_tf"], p["block_min_dl"], df,
                    self.reader.n_docs, self.reader.avgdl_of(field),
                    self.k1, self.b,
                )
                ub = max(ub, float(np.max(b_ub)))
        return ub

    def _gather_term(self, tp: TermPostings, cand: np.ndarray, boost: float,
                     df: int | None = None,
                     field: str | None = None) -> np.ndarray:
        """Scores of ``cand`` docs for this term, decoding only the
        blocks that contain a candidate (block-selective skip read)."""
        out = np.zeros(cand.size, dtype=np.float64)
        for p in tp.parts:
            last = p["block_last"]
            if len(last) == 0:
                continue
            # block index that could contain each candidate
            bidx = np.searchsorted(last, cand)
            valid = bidx < len(last)
            sel = np.unique(bidx[valid])
            if sel.size == 0:
                continue
            d, t = self.reader.decode_blocks(p, sel)
            idx = np.searchsorted(d, cand)
            idx_c = np.minimum(idx, d.size - 1)
            hit = (d[idx_c] == cand) & valid
            if hit.any():
                sc = self._score_tf(d[idx_c[hit]], t[idx_c[hit]],
                                    tp.df if df is None else df, field)
                out[hit] += boost * sc
        return out

    # -- float32 band (exact after float64 candidate rescore) ------------

    _F32EPS = float(np.finfo(np.float32).eps)

    @staticmethod
    def _band_shape(node: Bool) -> bool:
        """Plans the float32 band evaluates: 2–64 Term/Prefix scoring
        leaves, leaf filters and leaf exclusions.  One scoring clause is
        served straight from the leaf cache by the ``_eval_bool``
        rewrite, cheaper than any accumulator.  Filters without a must
        clause under msm ≤ 0 are left out: there a filter-only doc is a
        hit with score 0, and the band's candidates are the nonzero
        accumulator slots."""
        scoring = (*node.must, *node.should)
        filters = (ColumnFilter, RangeFilter)
        return (2 <= len(scoring) <= 64
                and all(isinstance(c, (Term, Prefix)) for c in scoring)
                and all(isinstance(f, filters) for f in node.filter)
                and all(isinstance(c, (Term, Prefix, *filters))
                        for c in node.must_not)
                and not (node.filter and not node.must
                         and node.minimum_should_match <= 0))

    def _band_leaf(self, child) -> list:
        """Leaf-cache entry of a Term/Prefix child with the band's fields
        filled in on first use: the scores as float32 (half the scatter
        bytes of float64 — per-query memory traffic over hot-term arrays
        is the engine's scaling bottleneck on bandwidth-bound machines),
        their max, and for a leaf in ≥ 1/8 of the docs a float32 score
        vector + uint8 presence vector over the doc space, so adding it
        is a SIMD add instead of a fancy-index scatter (~20× fewer
        ns/element measured on 300k-df terms).  The float64 scores stay
        for the exact rescore."""
        key = self._leaf_key(child)
        ent = None if key is None else self._leaf_get(key)
        if ent is None:
            docs, scores = self.evaluate(child)  # a Term via eval_term
            ent = self._leaves.get(key) or [docs, scores, None, 0.0, None]
        if ent[2] is None:
            before = _entry_bytes(ent)
            docs, s = ent[0], ent[1]
            ent[2] = s.astype(np.float32)
            ent[3] = float(s.max()) if s.size else 0.0
            n = self.reader.doc_ids.size
            if docs.size * 8 >= n:
                vec = np.zeros(n, dtype=np.float32)
                vec[docs] = ent[2]
                pres = np.zeros(n, dtype=np.uint8)
                pres[docs] = 1
                ent[4] = (vec, pres)
            self._leaf_charge(key, ent, _entry_bytes(ent) - before)
        return ent

    def _select_band(self, acc: np.ndarray, mask, k: int, bound: float):
        """Candidate positions from the float32 accumulator WITHOUT
        materializing the full hit list: zero out non-mask slots (every
        masked doc has a positive score — all leaves are non-negative
        BM25/constant scores and the mask requires ≥1 scoring match),
        then one partition for the approximate kth and one flatnonzero
        over the band.  Docs within 2×bound of the kth survive, so the
        exact top-k and its ties always reach the float64 rescore."""
        if mask is not None:
            np.multiply(acc, mask, out=acc)
        n = acc.size
        if n > k:
            # kth over the FULL array: zeros rank below every real match
            # (scores are positive), so kth > 0 ⟺ ≥k matches exist — no
            # separate count_nonzero pass
            kth = float(np.partition(acc, n - k)[n - k])
            thr = kth - 2.0 * bound
            if kth > 0 and thr > 0:
                # one ulp down so the float32 compare can't exclude a
                # boundary candidate
                t32 = np.nextafter(np.float32(thr), np.float32(-np.inf))
                return np.flatnonzero(acc >= t32)
        cand = np.flatnonzero(acc)
        return cand if cand.size else None

    @staticmethod
    def _rescore_exact(cand: np.ndarray, leaves_must: list,
                       leaves_should: list) -> np.ndarray:
        """Float64 scores of candidate positions with the pinned float
        association: must children summed in child order, should children
        summed into their own accumulator in child order, then added as
        ONE addend — exactly the sparse path's ``Σmust +
        gather(union_sum(should))`` and the dense path's ``acc[hit] +
        acc_s[hit]``, so the result is bit-identical to both."""
        scores = np.zeros(cand.size, dtype=np.float64)
        for ent in leaves_must:
            scores += _gather_scores(cand, ent[0], ent[1])
        if leaves_should:
            s_acc = np.zeros(cand.size, dtype=np.float64)
            for ent in leaves_should:
                s_acc += _gather_scores(cand, ent[0], ent[1])
            if leaves_must:
                scores += s_acc
            else:
                scores = s_acc
        return scores

    def _topk_bool_approx(self, node: Bool, k: int):
        """Exact top-k of a hot Bool plan through the float32 band:
        approximate dense accumulation (float32 scores, uint8 counters —
        ~half the scatter bytes of the float64 dense path), then an
        exact float64 rescore of only the ±bound candidate band around
        the approximate kth score (the *Koios* filter-and-verify
        pattern).  Output is bit-identical to exhaustive evaluation
        (differentially tested)."""
        n = self.reader.doc_ids.size
        leaves_m = [self._band_leaf(c) for c in node.must]
        leaves_s = [self._band_leaf(c) for c in node.should]
        acc = self._zeroed("acc32", n, np.float32)

        def accumulate(ent, cnt):
            if ent[4] is not None:  # SIMD adds, no fancy-index scatter
                np.add(acc, ent[4][0], out=acc)
                if cnt is not None:
                    np.add(cnt, ent[4][1], out=cnt)
            else:
                acc[ent[0]] += ent[2]
                if cnt is not None:
                    cnt[ent[0]] += 1

        if len(leaves_m) == 1:
            ent = leaves_m[0]
            accumulate(ent, None)
            if ent[4] is not None:
                mask = ent[4][1] != 0
            else:
                mask = np.zeros(n, dtype=bool)
                mask[ent[0]] = True
        elif leaves_m:
            cnt = self._zeroed("cnt8", n, np.uint8)
            for ent in leaves_m:
                accumulate(ent, cnt)
            mask = cnt == len(leaves_m)
        else:
            mask = None

        for child in node.filter:
            fd, _ = self.evaluate(child)
            fmask = np.zeros(n, dtype=bool)
            fmask[fd] = True
            mask = fmask if mask is None else (mask & fmask)

        msm = node.minimum_should_match
        # a pure disjunction (no mask yet) under msm ≤ 1 needs no
        # counter: a doc matched a should clause iff its positive score
        # left its accumulator slot nonzero
        s_cnt = None
        if msm > 1 or (msm > 0 and mask is not None):
            s_cnt = np.zeros(n, dtype=np.uint8)
        for ent in leaves_s:
            accumulate(ent, s_cnt)
        if s_cnt is not None:
            mask = (s_cnt >= msm) if mask is None else (mask & (s_cnt >= msm))

        for child in node.must_not:
            nd, _ = self.evaluate(child)
            acc[nd] = 0

        smax_sum = sum(ent[3] for ent in (*leaves_m, *leaves_s))
        bound = 4.0 * (len(leaves_m) + len(leaves_s)) * self._F32EPS * smax_sum
        cand = self._select_band(acc, mask, k, bound)
        if cand is None:
            return EMPTY_I, EMPTY_F
        scores = self._rescore_exact(cand, leaves_m, leaves_s)
        if node.boost != 1.0:
            scores *= node.boost
        return self._topk(cand, scores, k)

    def top_k_disjunction(self, terms: list[Term], k: int = 20,
                          filter_docs: np.ndarray | None = None):
        """Exact top-k of a sum-of-BM25 disjunction with MaxScore-style
        dynamic pruning + block-selective decoding.

        Invariant: a doc absent from all fully-evaluated terms has score
        ≤ sum of remaining upper bounds; once that sum < θ (current kth
        score), remaining terms are only gathered for known candidates.
        Result is identical to exhaustive evaluation (tested).
        ``filter_docs`` (sorted) restricts the disjunction to a
        non-scoring filter set (Q4/Q13 filters) while keeping pruning.
        """
        infos = []
        for node in terms:
            tkey = self._term_key(node)
            tp = self.reader.posting(tkey)
            if tp is not None:
                df = self._df(tkey, tp)
                ub_key = (tkey, df)
                ub = self._ub_cache.get(ub_key)
                if ub is None:
                    ub = self._term_ub(tp, df, node.field)
                    if len(self._ub_cache) < 8192:
                        self._ub_cache[ub_key] = ub
                infos.append((node, tp, node.boost * ub))
        if not infos:
            return EMPTY_I, EMPTY_F
        infos.sort(key=lambda x: -x[2])
        ubs = np.array([x[2] for x in infos])
        docs = EMPTY_I
        scores = EMPTY_F
        theta = -np.inf
        i = 0
        for i, (node, tp, ub) in enumerate(infos):
            remaining = float(ubs[i:].sum())
            if scores.size >= k:
                theta = np.partition(scores, scores.size - k)[scores.size - k]
                # STRICT: a doc scoring exactly `remaining` could still
                # tie with the kth and win the doc_id tie-break
                if theta > remaining:
                    break
            d, s = self.eval_term(node)
            if filter_docs is not None:
                m = _in_sorted(d, filter_docs)
                d, s = d[m], s[m]
            docs, scores = _union_sum([(docs, scores), (d, s)])
        else:
            i = len(infos)

        # gather phase: remaining terms contribute only to candidates
        if i < len(infos) and docs.size:
            rem_ub = float(ubs[i:].sum())
            cand_mask = scores + rem_ub >= theta
            cand = docs[cand_mask]
            cand_scores = scores[cand_mask].copy()
            for node, tp, _ub in infos[i:]:
                cand_scores += self._gather_term(
                    tp, cand, node.boost,
                    self._df(self._term_key(node), tp), node.field
                )
            docs, scores = cand, cand_scores
        return self._topk(docs, scores, k)
