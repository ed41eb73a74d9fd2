"""Driver contract: one Ray pipeline + one DuckDB oracle per operator.

Backs ``__ray_entry__.py``.  The registry holds the search engine's
queries plus the SURVEY.md §2 relational/maintenance operators.  Every
entry reads the testdata tables (documents / orders / lineitem) and
returns a result whose row set, schema and values match the paired
ANSI-SQL oracle exactly (scores rounded to 6 decimals).  The BM25
queries run against a REAL index built by the flagship pipeline (cached
per sf_dir under /tmp) and queried through the block-max engine — not a
shortcut reimplementation.

Naming: every computed column is aliased identically in the Ray code
and the SQL (driver hashes values after sorting columns by name).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from .functions.analyzer import AnalyzerConfig
from .pipelines.build_index import BuildOptions, build_index
from .pipelines.query import (
    Bool,
    ColumnFilter,
    DisMax,
    FunctionScore,
    Fuzzy,
    Prefix,
    RangeFilter,
    Term,
)
from .pipelines.search import Searcher
from .sources.corpus import documents_as_corpus
from .state import manifest as mf

K1, B = 1.2, 0.75
CACHE_ROOT = "/tmp/gsr_index_cache"

# fixed query vocabulary (documents testdata: ~31 terms, 'dup' rare)
RARE = "dup"
HOT = "scan"
OR3 = ["sort", "merge", "window"]
AND2 = ["dup", "key"]
MSM3 = ["dup", "spark", "window"]
DM2 = ["sort", "merge"]
PREFIX = "wi"
ABSENT = "zzzznope"

_searchers: dict[str, Searcher] = {}


def _prior_from_n_chars(batch: pa.Table) -> np.ndarray:
    n = batch["n_chars"].to_numpy().astype(np.float64)
    return 1.0 / (1.0 + np.log1p(n))


def index_dir_for(sf_dir: str) -> str:
    # v3: corpus adapter derives synthetic lat/lon docmeta columns.
    # The postings FORMAT_VERSION is part of the key so a codec change
    # lands in a fresh cache dir instead of tripping the reader's
    # version guard on a stale prebuilt index.
    key = hashlib.sha1(
        f"{sf_dir}|simple|v3|fmt{mf.FORMAT_VERSION}".encode()
    ).hexdigest()[:12]
    return os.path.join(CACHE_ROOT, key)


def get_searcher(sf_dir: str) -> Searcher:
    s = _searchers.get(sf_dir)
    if s is not None:
        return s
    idx = index_dir_for(sf_dir)
    if not mf.is_committed(idx):
        ds = documents_as_corpus(sf_dir)
        build_index(
            ds,
            idx,
            BuildOptions(
                analyzer_config=AnalyzerConfig.simple(),
                score_builder=_prior_from_n_chars,
            ),
        )
    s = Searcher(idx)
    _searchers[sf_dir] = s
    return s


SRC_TERM = "src3"


def get_fields_searcher(sf_dir: str) -> Searcher:
    """Searcher over the TWO-FIELD index variant: content=text plus the
    extra field ``src`` (documents.source, carried as corpus ``repo``)
    indexed with its own BM25 length norm — the reference multi-field
    mapping (``es_mappings/addr_row.json:41-121``)."""
    key = "fields:" + sf_dir
    s = _searchers.get(key)
    if s is not None:
        return s
    idx = index_dir_for(sf_dir) + "-fields"
    if not mf.is_committed(idx):
        ds = documents_as_corpus(sf_dir)
        build_index(
            ds,
            idx,
            BuildOptions(
                analyzer_config=AnalyzerConfig.simple(),
                extra_fields=(("src", "repo"),),
            ),
        )
    s = Searcher(idx)
    _searchers[key] = s
    return s


def get_merged_searcher(sf_dir: str) -> Searcher:
    """Searcher over the LIFECYCLE index: built from half the corpus,
    grown by two incremental ``update_index`` imports (3 segments on
    disk), then ``force_merge``'d back to ONE segment — the ES
    ``_forcemerge`` analog (reference's ``--update`` import mode,
    `imp/addr/AddressesImporter.java:87-96`, leaves one Lucene segment
    per bulk generation).  Query results over the merged index must be
    bit-identical to a fresh full-corpus build, so the entry shares the
    plain BM25 SQL oracle — a hash match proves
    build → update → update → merge ≡ one-shot build.

    The lifecycle runs in a temp dir that is renamed into place only
    once ``force_merge`` returns, so a crash partway never leaves a
    committed half-corpus index behind for later runs to serve."""
    key = "fm:" + sf_dir
    s = _searchers.get(key)
    if s is not None:
        return s
    idx = index_dir_for(sf_dir) + "-fm"
    if not mf.is_committed(idx):
        from .pipelines.maintenance import force_merge, update_index

        tmp = idx + ".tmp"
        mf.drop_index(tmp)

        ds = documents_as_corpus(sf_dir)

        def _mod_keep(mods: tuple[int, ...]):
            def f(t: pa.Table) -> pa.Table:
                ids = t["doc_id"].to_numpy().astype(np.int64)
                return t.filter(pa.array(np.isin(ids % 4, mods)))

            return f

        build_index(
            ds.map_batches(_mod_keep((0, 1)), batch_format="pyarrow"),
            tmp,
            BuildOptions(analyzer_config=AnalyzerConfig.simple()),
        )
        update_index(
            tmp, ds.map_batches(_mod_keep((2,)), batch_format="pyarrow"))
        update_index(
            tmp, ds.map_batches(_mod_keep((3,)), batch_format="pyarrow"))
        man = force_merge(tmp)
        assert len(man["segments"]) == 1, man["segments"]
        mf.drop_index(idx)
        os.rename(tmp, idx)
    s = Searcher(idx)
    _searchers[key] = s
    return s


def _round(a: np.ndarray, nd: int = 6) -> np.ndarray:
    return np.round(a, nd)


def _topk_frame(s, docs: np.ndarray, scores: np.ndarray, nd: int = 6) -> pd.DataFrame:
    """Engine hits (reader ordinals) of searcher ``s`` as doc_id rows."""
    return pd.DataFrame(
        {"doc_id": s.reader.doc_ids[docs], "score": _round(scores.astype(np.float64), nd)}
    )


# ---------------------------------------------------------------------------
# SQL building blocks
# ---------------------------------------------------------------------------

TOK_CTE = """
tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
  FROM documents
), tok2 AS (SELECT doc_id, term FROM tok WHERE term <> '')
"""

BM25_CTE = (
    TOK_CTE
    + """,
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok2 GROUP BY doc_id, term),
dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
       FROM documents d LEFT JOIN tok2 t ON t.doc_id = d.doc_id GROUP BY d.doc_id),
stats AS (SELECT count(*)::DOUBLE AS n, avg(dl) AS avgdl FROM dl)
"""
)


def _sql_terms(terms: list[str]) -> str:
    return ", ".join(f"'{t}'" for t in terms)


def _bm25_score_sql(terms: list[str], having: str = "") -> str:
    """Scored-docs CTE `sc(doc_id, score, n_matched)` for a term set."""
    return f"""
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf
       WHERE term IN ({_sql_terms(terms)}) GROUP BY term),
sc AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n - df.df + 0.5)/(df.df + 0.5))
              * tf.tf * {K1 + 1.0} / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) ) AS score,
         count(*) AS n_matched
  FROM tf
  JOIN df ON tf.term = df.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id {having}
)"""


def _bm25_topk_sql(terms: list[str], k: int = 20, having: str = "") -> str:
    return (
        f"WITH {BM25_CTE}, {_bm25_score_sql(terms, having)} "
        f"SELECT doc_id, round(score, 6) AS score FROM sc "
        f"ORDER BY sc.score DESC, doc_id LIMIT {k}"
    )


# ---------------------------------------------------------------------------
# search-family queries (run against the real index)
# ---------------------------------------------------------------------------


def q_term_stats(sf_dir: str) -> pd.DataFrame:
    s = get_searcher(sf_dir)
    rows = []
    for t in sorted([RARE, HOT, *OR3]):
        tp = s.reader.posting(t)
        if tp is None:
            continue
        _docs, tfs = s.reader.decode_all(tp)
        rows.append({"term": t, "doc_freq": tp.df, "total_tf": int(tfs.sum())})
    return pd.DataFrame(rows, columns=["term", "doc_freq", "total_tf"])


def q_doc_freq_top(sf_dir: str):
    """Top-50 df terms — Ray aggregation over the postings segments."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    get_searcher(sf_dir)  # ensure index exists
    idx = index_dir_for(sf_dir)
    ds = rd.read_parquet(
        [os.path.join(idx, s, "postings")
         for s in mf.read_checked_manifest(idx)["segments"]],
        columns=["term", "df"])
    out = (
        ds.groupby("term")
        .aggregate(Sum("df", alias_name="doc_freq"))
        .sort(["doc_freq", "term"], descending=[True, False])
        .limit(50)
    )
    pdf = out.to_pandas()
    pdf["doc_freq"] = pdf["doc_freq"].astype(np.int64)
    return pdf[["term", "doc_freq"]]


def q_corpus_stats(sf_dir: str) -> pd.DataFrame:
    s = get_searcher(sf_dir)
    return pd.DataFrame(
        {
            "n_docs": [np.int64(s.reader.n_docs)],
            "total_tokens": [np.int64(s.reader.manifest["total_tokens"])],
            "avgdl": [round(s.reader.avgdl, 6)],
        }
    )


def _topk(sf_dir, plan, k=20, nd=6):
    s = get_searcher(sf_dir)
    docs, scores = s.engine.top_k(plan, k)
    return _topk_frame(s, docs, scores, nd)


def q_bm25_rare(sf_dir):
    return _topk(sf_dir, Bool(should=(Term(RARE),)))


def q_bm25_hot(sf_dir):
    return _topk(sf_dir, Bool(should=(Term(HOT),)))


def q_bm25_or(sf_dir):
    return _topk(sf_dir, Bool(should=tuple(Term(t) for t in OR3)))


def q_force_merge(sf_dir):
    """S3 lifecycle end-to-end: the OR3 top-k over the
    build→update→update→force_merge index (see get_merged_searcher);
    oracle is the plain full-corpus BM25 SQL, so a hash match proves
    the whole segment lifecycle preserves scores exactly."""
    s = get_merged_searcher(sf_dir)
    docs, scores = s.engine.top_k(
        Bool(should=tuple(Term(t) for t in OR3)), 20)
    return _topk_frame(s, docs, scores, 6)


def q_bm25_and(sf_dir):
    return _topk(sf_dir, Bool(must=tuple(Term(t) for t in AND2)))


def q_bm25_msm2(sf_dir):
    return _topk(
        sf_dir, Bool(should=tuple(Term(t) for t in MSM3), minimum_should_match=2)
    )


def q_bm25_dismax(sf_dir):
    return _topk(sf_dir, DisMax(children=tuple(Term(t) for t in DM2)))


def q_bm25_fields(sf_dir):
    """Multi-field BM25: content terms (text norms) + a field-scoped
    term over the ``src`` field (its OWN dl/avgdl norms) summed in one
    should — per-field statistics exactly as the reference's separate
    ES text fields."""
    s = get_fields_searcher(sf_dir)
    docs, scores = s.engine.top_k(
        Bool(should=(Term(HOT), Term(RARE),
                     Term(SRC_TERM, field="src"))), 20)
    return _topk_frame(s, docs, scores, 6)


def q_bm25_filter_lang(sf_dir):
    return _topk(
        sf_dir,
        Bool(
            should=(Term(HOT), Term("sort")),
            minimum_should_match=1,
            filter=(ColumnFilter("lang", ("en",)),),
        ),
    )


def q_bm25_prior(sf_dir):
    return _topk(
        sf_dir,
        FunctionScore(Bool(should=(Term("merge"), Term("query")))),
    )


def q_prefix_docs(sf_dir) -> pd.DataFrame:
    s = get_searcher(sf_dir)
    docs, _ = s.engine.evaluate(Prefix(PREFIX, max_expansions=10_000))
    return pd.DataFrame({"doc_id": s.reader.doc_ids[docs]})


def q_bm25_coalesce(sf_dir):
    """Cascade: strict AND (empty for this pair) → first non-empty (Q14)."""
    s = get_searcher(sf_dir)
    strict = Bool(must=(Term(RARE), Term(ABSENT)))
    relaxed = Bool(should=(Term(RARE), Term(ABSENT)), minimum_should_match=1)
    for plan in (strict, relaxed):
        docs, scores = s.engine.top_k(plan, 20)
        if docs.size:
            return _topk_frame(s, docs, scores)
    return pd.DataFrame({"doc_id": pd.Series(dtype="int64"), "score": pd.Series(dtype="float64")})


def q_bm25_sort2(sf_dir):
    """Q15 secondary-sort analog (reference geoDistanceSort("centroid"),
    ``api/search/ESCoalesce.java:50``): top-20 by (score desc,
    n_chars asc, doc_id asc)."""
    s = get_searcher(sf_dir)
    docs, scores = s.engine.top_k_sorted(
        Bool(should=tuple(Term(t) for t in OR3)), 20, secondary_col="n_chars"
    )
    return _topk_frame(s, docs, scores)


GEO_ORIGIN = (10.0, 20.0)


def q_bm25_geo_sort(sf_dir):
    """Q15 TRUE-haversine secondary sort (``ESCoalesce.java:50``
    geoDistanceSort): top-20 of the OR query by (score desc,
    great-circle km from GEO_ORIGIN asc, doc_id asc), over the
    deterministic synthetic lat/lon docmeta columns."""
    from .functions.geo import haversine_km

    s = get_searcher(sf_dir)
    docs, scores = s.engine.top_k_geo_sorted(
        Bool(should=tuple(Term(t) for t in OR3)), 20, origin=GEO_ORIGIN
    )
    lat = s.reader.column_of(docs, "lat").astype(np.float64)
    lon = s.reader.column_of(docs, "lon").astype(np.float64)
    dist = haversine_km(lat, lon, GEO_ORIGIN[0], GEO_ORIGIN[1])
    out = _topk_frame(s, docs, scores)
    out["dist_km"] = np.round(dist, 4)
    return out[["doc_id", "score", "dist_km"]]


def q_topk_paged(sf_dir):
    """from/size paging (Q15): page 2 of the OR query (offset 10, size 10)."""
    s = get_searcher(sf_dir)
    docs, scores = s.engine.top_k(Bool(should=tuple(Term(t) for t in OR3)), 20)
    return _topk_frame(s, docs[10:20], scores[10:20])


# ---------------------------------------------------------------------------
# fuzzy / range / box / mass-eval queries
# ---------------------------------------------------------------------------

FUZZY_Q = "scann"  # ED-1 from 'scan'; DuckDB levenshtein() is the oracle
RANGE_LO, RANGE_HI = 100, 160  # n_chars window


def q_bm25_fuzzy(sf_dir):
    """Q2 fuzziness=1: union of postings of every dictionary term within
    edit distance ≤ 1, each scored by its own BM25."""
    s = get_searcher(sf_dir)
    docs, scores = s.engine._topk(
        *s.engine.evaluate(Fuzzy(FUZZY_Q, max_expansions=1000)), 20
    )
    return _topk_frame(s, docs, scores)


def q_bm25_range(sf_dir):
    """Q7 numeric-range branch analog: OR query filtered to docs whose
    n_chars ∈ [RANGE_LO, RANGE_HI]."""
    return _topk(
        sf_dir,
        Bool(
            should=(Term("sort"), Term("merge")),
            minimum_should_match=1,
            filter=(RangeFilter("n_chars", RANGE_LO, RANGE_HI),),
        ),
    )


BOX_X = (80, 200)   # n_chars
BOX_Y = (100, 400)  # doc_id


def q_bm25_box(sf_dir):
    """Q13 geo_bounding_box analog (``ESDefaultSearch.java:213``): a 2-D
    numeric box filter — two ANDed range predicates — under a scored
    disjunction (runs through the filtered MaxScore fast path)."""
    return _topk(
        sf_dir,
        Bool(
            should=(Term("sort"), Term("merge"), Term(HOT)),
            minimum_should_match=1,
            filter=(
                RangeFilter("n_chars", *BOX_X),
                RangeFilter("doc_id", *BOX_Y),
            ),
        ),
    )


EVAL_QUERIES = ["dup", "scan sort", "merge window query", "zzzznope"]


def q_mass_eval(sf_dir):
    """G5 mass-geocode evaluation (``csv/CSVGeocode.java:62-179``):
    fixed query set through the eval pipeline, per-query comparison
    rows.  Expected answers are the engine's own cascade top-1
    (self-consistency), but the SQL oracle recomputes BOTH the expected
    and the result column via the full coalesce cascade in SQL — a hash
    match therefore proves the engine's cascade top-1 doc and score
    equal the SQL cascade on every query (including the no-hit row)."""
    import ray.data as rd

    from .pipelines.geocode import mass_eval

    s = get_searcher(sf_dir)
    rows = []
    for i, q in enumerate(EVAL_QUERIES):
        hits = s.search(q, k=5, use_prior=False)
        rows.append(
            {"qid": i, "q": q,
             "expected_doc_id": hits[0]["doc_id"] if hits else -1}
        )
    pdf = mass_eval(rd.from_items(rows), index_dir_for(sf_dir), k=5,
                    return_rows=True)
    out = pd.DataFrame(
        {
            "qid": pdf["qid"].astype(np.int64),
            "q": pdf["q"].astype(str),
            "expected_doc_id": pdf["expected"].fillna(-1).astype(np.int64),
            "top_doc": pdf["top_doc"].fillna(-1).astype(np.int64),
            "top_score": np.round(pdf["top_score"].fillna(0.0).astype(np.float64), 6),
            "top1_match": pdf["match_top"].astype(bool),
            "page_match": pdf["match_page"].astype(bool),
        }
    )
    return out.sort_values("qid").reset_index(drop=True)


def _cascade_sql_blocks() -> str:
    """Per-eval-query coalesce-cascade CTEs: one scored CTE per query's
    term set, then a 3-level (all-terms AND → msm≥2 → msm≥1) pick of
    the first non-empty top-1 — the exact ``build_cascade`` +
    first-non-empty semantics of ``Searcher.search``."""
    blocks, rows = [], []
    for i, q in enumerate(EVAL_QUERIES):
        terms = [t for t in q.lower().split() if t]
        n = len(terms)
        blocks.append(
            f"""d{i} AS (SELECT term, count(*)::DOUBLE AS df FROM tf
       WHERE term IN ({_sql_terms(terms)}) GROUP BY term),
s{i} AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n - d{i}.df + 0.5)/(d{i}.df + 0.5))
              * tf.tf * {K1 + 1.0} / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) ) AS score,
         count(*) AS nm
  FROM tf JOIN d{i} ON tf.term = d{i}.term
  JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s
  GROUP BY tf.doc_id
),
top{i} AS (
  SELECT doc_id, score FROM (
    SELECT 1 AS lvl, doc_id, score FROM s{i} WHERE nm >= {n}
    UNION ALL SELECT 2, doc_id, score FROM s{i} WHERE nm >= 2
    UNION ALL SELECT 3, doc_id, score FROM s{i} WHERE nm >= 1
  ) ORDER BY lvl, score DESC, doc_id LIMIT 1
)"""
        )
        rows.append(
            f"SELECT {i} AS qid, '{q}' AS q, "
            f"coalesce((SELECT doc_id FROM top{i}), -1) AS expected_doc_id, "
            f"coalesce((SELECT doc_id FROM top{i}), -1) AS top_doc, "
            f"coalesce((SELECT round(score, 6) FROM top{i}), 0.0) AS top_score, "
            f"(SELECT count(*) FROM top{i}) > 0 AS top1_match, "
            f"(SELECT count(*) FROM top{i}) > 0 AS page_match"
        )
    return ",\n".join(blocks) + " " + " UNION ALL ".join(rows) + " ORDER BY qid"


# ---------------------------------------------------------------------------
# relational / maintenance queries (SURVEY.md §2.5)
# ---------------------------------------------------------------------------


def _read_testdata(sf_dir: str, table: str, columns=None):
    """A testdata table, read with its schema minus the metadata.  The
    files carry pandas metadata, a dict, which makes a ``pa.Schema``
    unhashable: Ray's read and exchange then log "Failed to hash the
    schemas" per task."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = os.path.join(sf_dir, f"{table}.parquet")
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema)


def _docs(sf_dir: str):
    return _read_testdata(sf_dir, "documents")


def q_distinct_first(sf_dir):
    """M15/Q11 distinct-by-key: first doc per (source, lang)."""
    from .pipelines.relational import distinct_first_by_key

    out = distinct_first_by_key(
        _docs(sf_dir).select_columns(["doc_id", "source", "lang"]),
        ["source", "lang"],
    ).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["group_count"] = out["group_count"].astype(np.int64)
    return out[["source", "lang", "doc_id", "group_count"]]


def q_join_agg(sf_dir):
    """G2 street-usage analog: lineitem count per order, joined back."""
    from .pipelines.relational import join_aggregate_counts

    fact = _read_testdata(sf_dir, "lineitem", ["l_orderkey"])
    dim = _read_testdata(sf_dir, "orders", ["o_orderkey"])
    out = join_aggregate_counts(fact, "l_orderkey", dim, "o_orderkey").to_pandas()
    out["ref_count"] = out["ref_count"].astype(np.int64)
    return out[["o_orderkey", "ref_count"]]


def q_group_stats(sf_dir):
    """G3 tag-value statistics analog."""
    from .pipelines.relational import group_stats

    out = group_stats(_docs(sf_dir).select_columns(["lang"]), "lang").to_pandas()
    out["cnt"] = out["cnt"].astype(np.int64)
    return out[["lang", "cnt"]]


def q_delete_by_query(sf_dir):
    """S4 delete-by-query: survivors after dropping lang='de'."""
    from .pipelines.relational import delete_by_query

    out = delete_by_query(
        _docs(sf_dir).select_columns(["doc_id", "lang"]), "lang", ("de",)
    ).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out[["doc_id", "lang"]]


def q_paged_scroll(sf_dir):
    """S8 search_after page: lang='en', doc_id > 50, page of 100."""
    from .pipelines.relational import paged_scroll

    out = paged_scroll(
        _docs(sf_dir).select_columns(["doc_id", "lang"]),
        order_col="doc_id",
        after=50,
        page_size=100,
        filter_col="lang",
        filter_val="en",
    ).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out[["doc_id"]]


# ---------------------------------------------------------------------------
# DuckDB oracles, one per registry entry
# ---------------------------------------------------------------------------

ORACLE_SQL = {
    "term_stats": (
        f"WITH {TOK_CTE} SELECT term, count(DISTINCT doc_id)::BIGINT AS doc_freq, "
        f"count(*)::BIGINT AS total_tf FROM tok2 "
        f"WHERE term IN ({_sql_terms(sorted([RARE, HOT, *OR3]))}) "
        f"GROUP BY term ORDER BY term"
    ),
    "doc_freq_top": (
        f"WITH {TOK_CTE} SELECT term, count(DISTINCT doc_id)::BIGINT AS doc_freq "
        f"FROM tok2 GROUP BY term ORDER BY doc_freq DESC, term LIMIT 50"
    ),
    "corpus_stats": (
        f"WITH {BM25_CTE} SELECT count(*)::BIGINT AS n_docs, "
        f"coalesce(sum(dl), 0)::BIGINT AS total_tokens, "
        f"round(avg(dl), 6) AS avgdl FROM dl"
    ),
    "bm25_rare": _bm25_topk_sql([RARE]),
    "bm25_hot": _bm25_topk_sql([HOT]),
    "bm25_fields": (
        f"WITH {BM25_CTE}, {_bm25_score_sql([HOT, RARE])}, "
        f"""stok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(source), '[^a-z0-9]+')) AS term
  FROM documents
), stok2 AS (SELECT doc_id, term FROM stok WHERE term <> ''),
stf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM stok2 GROUP BY doc_id, term),
sdl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
        FROM documents d LEFT JOIN stok2 t ON t.doc_id = d.doc_id GROUP BY d.doc_id),
sstats AS (SELECT avg(dl) AS avgdl FROM sdl),
sdf AS (SELECT count(*)::DOUBLE AS df FROM stf WHERE term = '{SRC_TERM}'),
fsc AS (
  SELECT stf.doc_id,
         ln(1 + (st.n - sdf.df + 0.5)/(sdf.df + 0.5))
           * stf.tf * {K1 + 1.0} / (stf.tf + {K1} * (1 - {B} + {B} * sdl.dl / ss.avgdl)) AS score
  FROM stf JOIN sdl ON sdl.doc_id = stf.doc_id
  CROSS JOIN sstats ss CROSS JOIN sdf CROSS JOIN stats st
  WHERE stf.term = '{SRC_TERM}'),
allsc AS (SELECT doc_id, score FROM sc UNION ALL SELECT doc_id, score FROM fsc),
tot AS (SELECT doc_id, sum(score) AS score FROM allsc GROUP BY doc_id)
SELECT doc_id, round(score, 6) AS score FROM tot
ORDER BY score DESC, doc_id LIMIT 20"""
    ),
    "bm25_or": _bm25_topk_sql(OR3),
    "bm25_and": _bm25_topk_sql(AND2, having=f"HAVING count(*) = {len(AND2)}"),
    "bm25_msm2": _bm25_topk_sql(MSM3, having="HAVING count(*) >= 2"),
    "bm25_dismax": (
        f"WITH {BM25_CTE}, "
        f"""persc AS (
  SELECT tf.doc_id, tf.term,
         ln(1 + (s.n - df.df + 0.5)/(df.df + 0.5))
           * tf.tf * {K1 + 1.0} / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS score
  FROM tf
  JOIN (SELECT term, count(*)::DOUBLE AS df FROM tf WHERE term IN ({_sql_terms(DM2)}) GROUP BY term) df
    ON tf.term = df.term
  JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s),
sc AS (SELECT doc_id, max(score) AS score FROM persc GROUP BY doc_id)
SELECT doc_id, round(score, 6) AS score FROM sc ORDER BY sc.score DESC, doc_id LIMIT 20"""
    ),
    "bm25_filter_lang": (
        f"WITH {BM25_CTE}, {_bm25_score_sql([HOT, 'sort'])} "
        f"SELECT sc.doc_id, round(sc.score, 6) AS score FROM sc "
        f"JOIN documents d ON d.doc_id = sc.doc_id WHERE d.lang = 'en' "
        f"ORDER BY sc.score DESC, sc.doc_id LIMIT 20"
    ),
    "bm25_prior": (
        f"WITH {BM25_CTE}, {_bm25_score_sql(['merge', 'query'])} "
        f"SELECT sc.doc_id, round(sc.score * (1.0 / (1.0 + ln(1.0 + d.n_chars))), 6) AS score "
        f"FROM sc JOIN documents d ON d.doc_id = sc.doc_id "
        f"ORDER BY sc.score * (1.0 / (1.0 + ln(1.0 + d.n_chars))) DESC, sc.doc_id LIMIT 20"
    ),
    "prefix_docs": (
        f"WITH {TOK_CTE} SELECT DISTINCT doc_id FROM tok2 "
        f"WHERE term LIKE '{PREFIX}%' ORDER BY doc_id"
    ),
    "bm25_coalesce": (
        f"WITH {BM25_CTE}, "
        f"dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tf "
        f"        WHERE term IN ({_sql_terms([RARE, ABSENT])}) GROUP BY term), "
        f"scored AS ( "
        f"  SELECT tf.doc_id, "
        f"         sum( ln(1 + (s.n - dfq.df + 0.5)/(dfq.df + 0.5)) "
        f"              * tf.tf * {K1 + 1.0} / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) ) AS score, "
        f"         count(*) AS n_matched "
        f"  FROM tf JOIN dfq ON tf.term = dfq.term "
        f"  JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s "
        f"  GROUP BY tf.doc_id), "
        "strict AS (SELECT doc_id, round(score, 6) AS score FROM scored "
        "           WHERE n_matched = 2 ORDER BY score DESC, doc_id LIMIT 20), "
        "relaxed AS (SELECT doc_id, round(score, 6) AS score FROM scored "
        "            ORDER BY score DESC, doc_id LIMIT 20) "
        "SELECT * FROM strict UNION ALL "
        "SELECT * FROM relaxed WHERE NOT EXISTS (SELECT 1 FROM strict)"
    ),
    "topk_paged": (
        f"WITH {BM25_CTE}, {_bm25_score_sql(OR3)} "
        f"SELECT doc_id, round(score, 6) AS score FROM sc "
        f"ORDER BY sc.score DESC, doc_id LIMIT 10 OFFSET 10"
    ),
    "bm25_sort2": (
        f"WITH {BM25_CTE}, {_bm25_score_sql(OR3)} "
        f"SELECT sc.doc_id, round(sc.score, 6) AS score FROM sc "
        f"JOIN documents d ON d.doc_id = sc.doc_id "
        f"ORDER BY sc.score DESC, d.n_chars, sc.doc_id LIMIT 20"
    ),
    # haversine recomputed in SQL over the same derived lat/lon
    "bm25_geo_sort": (
        f"WITH {BM25_CTE}, {_bm25_score_sql(OR3)}, "
        f"geo AS (SELECT doc_id, ((doc_id * 37) % 17000) / 100.0 - 85.0 AS lat, "
        f"        ((doc_id * 91) % 35000) / 100.0 - 175.0 AS lon FROM documents), "
        f"dd AS (SELECT sc.doc_id, sc.score, "
        f"  2.0 * 6371.0088 * asin(sqrt(least(greatest("
        f"    sin(radians(g.lat - ({GEO_ORIGIN[0]})) / 2.0) * sin(radians(g.lat - ({GEO_ORIGIN[0]})) / 2.0) "
        f"    + cos(radians({GEO_ORIGIN[0]})) * cos(radians(g.lat)) "
        f"      * sin(radians(g.lon - ({GEO_ORIGIN[1]})) / 2.0) * sin(radians(g.lon - ({GEO_ORIGIN[1]})) / 2.0) "
        f"  , 0.0), 1.0))) AS dist_km "
        f"  FROM sc JOIN geo g ON g.doc_id = sc.doc_id) "
        f"SELECT doc_id, round(score, 6) AS score, round(dist_km, 4) AS dist_km "
        f"FROM dd ORDER BY dd.score DESC, dd.dist_km, doc_id LIMIT 20"
    ),
    # the merged lifecycle index must equal a fresh build, so it shares
    # the plain OR3 BM25 oracle
    "force_merge": _bm25_topk_sql(OR3),
    "bm25_fuzzy": (
        f"WITH {BM25_CTE}, "
        f"df AS (SELECT term, count(*)::DOUBLE AS df FROM tf "
        f"       WHERE levenshtein(term, '{FUZZY_Q}') <= 1 GROUP BY term), "
        f"sc AS (SELECT tf.doc_id, "
        f"  sum( ln(1 + (s.n - df.df + 0.5)/(df.df + 0.5)) "
        f"       * tf.tf * {K1 + 1.0} / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) ) AS score "
        f"  FROM tf JOIN df ON tf.term = df.term "
        f"  JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s GROUP BY tf.doc_id) "
        f"SELECT doc_id, round(score, 6) AS score FROM sc "
        f"ORDER BY sc.score DESC, doc_id LIMIT 20"
    ),
    "bm25_range": (
        f"WITH {BM25_CTE}, {_bm25_score_sql(['sort', 'merge'])} "
        f"SELECT sc.doc_id, round(sc.score, 6) AS score FROM sc "
        f"JOIN documents d ON d.doc_id = sc.doc_id "
        f"WHERE d.n_chars BETWEEN {RANGE_LO} AND {RANGE_HI} "
        f"ORDER BY sc.score DESC, sc.doc_id LIMIT 20"
    ),
    "bm25_box": (
        f"WITH {BM25_CTE}, {_bm25_score_sql(['sort', 'merge', HOT])} "
        f"SELECT sc.doc_id, round(sc.score, 6) AS score FROM sc "
        f"JOIN documents d ON d.doc_id = sc.doc_id "
        f"WHERE d.n_chars BETWEEN {BOX_X[0]} AND {BOX_X[1]} "
        f"AND d.doc_id BETWEEN {BOX_Y[0]} AND {BOX_Y[1]} "
        f"ORDER BY sc.score DESC, sc.doc_id LIMIT 20"
    ),
    "mass_eval": f"WITH {BM25_CTE}, {_cascade_sql_blocks()}",
    "distinct_first": (
        "SELECT source, lang, min(doc_id)::BIGINT AS doc_id, "
        "count(*)::BIGINT AS group_count FROM documents GROUP BY source, lang"
    ),
    "join_agg": (
        "SELECT o.o_orderkey, count(l.l_orderkey)::BIGINT AS ref_count "
        "FROM orders o LEFT JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
        "GROUP BY o.o_orderkey"
    ),
    "group_stats": "SELECT lang, count(*)::BIGINT AS cnt FROM documents GROUP BY lang",
    "delete_by_query": "SELECT doc_id, lang FROM documents WHERE lang <> 'de'",
    "paged_scroll": (
        "SELECT doc_id FROM documents WHERE lang = 'en' AND doc_id > 50 "
        "ORDER BY doc_id LIMIT 100"
    ),
}


def all_queries() -> dict:
    return {
        "term_stats": q_term_stats,
        "doc_freq_top": q_doc_freq_top,
        "corpus_stats": q_corpus_stats,
        "bm25_rare": q_bm25_rare,
        "bm25_hot": q_bm25_hot,
        "bm25_fields": q_bm25_fields,
        "bm25_or": q_bm25_or,
        "bm25_and": q_bm25_and,
        "bm25_msm2": q_bm25_msm2,
        "bm25_dismax": q_bm25_dismax,
        "bm25_filter_lang": q_bm25_filter_lang,
        "bm25_prior": q_bm25_prior,
        "prefix_docs": q_prefix_docs,
        "bm25_coalesce": q_bm25_coalesce,
        "topk_paged": q_topk_paged,
        "bm25_sort2": q_bm25_sort2,
        "bm25_geo_sort": q_bm25_geo_sort,
        "force_merge": q_force_merge,
        "bm25_fuzzy": q_bm25_fuzzy,
        "bm25_range": q_bm25_range,
        "bm25_box": q_bm25_box,
        "mass_eval": q_mass_eval,
        "distinct_first": q_distinct_first,
        "join_agg": q_join_agg,
        "group_stats": q_group_stats,
        "delete_by_query": q_delete_by_query,
        "paged_scroll": q_paged_scroll,
    }


def all_oracle_sql() -> dict:
    return dict(ORACLE_SQL)
