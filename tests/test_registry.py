"""Driver registry guard: every entry is oracle-backed, the registry fits
the driver's 50 recorded slots, and it holds only the search queries and
the SURVEY.md §2 relational/maintenance operators."""

from gazetteer_search_ray.driver_queries import all_oracle_sql, all_queries

ENTRIES = {
    "term_stats", "doc_freq_top", "corpus_stats",
    "bm25_rare", "bm25_hot", "bm25_or", "bm25_and", "bm25_msm2",
    "bm25_dismax", "bm25_fields", "bm25_filter_lang", "bm25_prior",
    "bm25_coalesce", "bm25_sort2", "bm25_geo_sort", "bm25_fuzzy",
    "bm25_range", "bm25_box",
    "prefix_docs", "topk_paged", "mass_eval", "force_merge",
    "distinct_first", "join_agg", "group_stats", "delete_by_query",
    "paged_scroll",
}


def test_registry_matches_oracles_and_fits_driver():
    qs = all_queries()
    assert set(qs) == set(all_oracle_sql())
    assert len(qs) <= 50
    assert set(qs) == ENTRIES
