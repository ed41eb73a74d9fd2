"""Mass evaluation pipeline (reference ``geocode-csv``, SURVEY.md §3.3).

``csv/CSVGeocode.java:47-203``: read a CSV of queries, search each,
compare the top hit against a reference answer, bucket failures
("not found" vs "found on first page"), emit result rows + an error
report.  Re-expressed Ray-Data-first:

    read_csv(queries) → map_batches(EvalScorer actor pool)
    → per-batch partial metric counters → tiny final aggregate
    → result TSV (write_csv) + error-report JSON

The haversine-distance threshold of the reference becomes an exact
doc_id match against the expected answer (rank-identity is this
engine's correctness currency — FIXTURES.md §3).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from .search import Searcher


class EvalScorer:
    """Actor: query batch → per-query result + match flags."""

    def __init__(self, index_dir: str, k: int = 10, expected_col: str = "expected_doc_id"):
        self.searcher = Searcher(index_dir)
        self.k = k
        self.expected_col = expected_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        qs = batch["q"].to_pylist()
        qids = batch["qid"].to_pylist() if "qid" in batch.column_names else list(range(len(qs)))
        expected = (
            batch[self.expected_col].to_pylist()
            if self.expected_col in batch.column_names
            else [None] * len(qs)
        )
        out = {"qid": [], "q": [], "top_doc": [], "top_score": [],
               "expected": [], "match_top": [], "match_page": []}
        for qid, q, exp in zip(qids, qs, expected):
            hits = self.searcher.search(q, k=self.k, use_prior=False)
            top = hits[0]["doc_id"] if hits else None
            page = {h["doc_id"] for h in hits}
            out["qid"].append(qid)
            out["q"].append(q)
            out["top_doc"].append(top)
            out["top_score"].append(hits[0]["score"] if hits else None)
            out["expected"].append(exp)
            out["match_top"].append(exp is not None and top == exp)
            out["match_page"].append(exp is not None and exp in page)
        return pa.table(
            {
                "qid": pa.array(out["qid"], pa.int64()),
                "q": pa.array(out["q"], pa.string()),
                "top_doc": pa.array(out["top_doc"], pa.int64()),
                "top_score": pa.array(out["top_score"], pa.float64()),
                "expected": pa.array(out["expected"], pa.int64()),
                "match_top": pa.array(out["match_top"], pa.bool_()),
                "match_page": pa.array(out["match_page"], pa.bool_()),
            }
        )


def mass_eval(
    queries_ds,
    index_dir: str,
    out_dir: str | None = None,
    k: int = 10,
    concurrency: int = 2,
    return_rows: bool = False,
):
    """Run the eval pipeline; returns summary metrics (or, with
    ``return_rows``, the per-query result frame the summary is
    aggregated from — the driver-oracle surface).

    ``queries_ds``: Dataset with columns (qid, q[, expected_doc_id]) —
    e.g. ``ray.data.read_csv(path)`` (reference S5).  When ``out_dir``
    is given, per-query results land as CSV (S6) and failures as an
    error-report JSON (the reference's HTML report chunks,
    ``CSVGeocode.java:174-203``).
    """
    res = queries_ds.map_batches(
        EvalScorer,
        fn_constructor_kwargs=dict(index_dir=index_dir, k=k),
        batch_format="pyarrow",
        concurrency=concurrency,
        # an eval actor is cheap to rebuild, and a crash in one should
        # surface as a failed eval, not a silent restart (which would
        # also need its object-store constructor args to still exist)
        max_restarts=0,
    )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        res = res.materialize()
        res.write_csv(os.path.join(out_dir, "results"))
    pdf = res.to_pandas()
    if return_rows:
        return pdf
    n = len(pdf)
    evaluated = pdf["expected"].notna()
    summary = {
        "n_queries": int(n),
        "n_with_expected": int(evaluated.sum()),
        "top1_match": int(pdf["match_top"].sum()),
        "first_page_match": int(pdf["match_page"].sum()),
        "not_found": int((evaluated & ~pdf["match_page"]).sum()),
    }
    if out_dir:
        failures = pdf[evaluated & ~pdf["match_top"]]
        with open(os.path.join(out_dir, "error_report.json"), "w") as f:
            json.dump(
                {"summary": summary,
                 "failures": failures.head(1000).to_dict(orient="records")},
                f, indent=1, default=str,
            )
        _write_html_report(out_dir, summary, failures)
    return summary


_HTML_CHUNK = 500


def _write_html_report(out_dir: str, summary: dict, failures) -> None:
    """HTML-formatted error report, chunked — the reference writes its
    failure report as HTML chunk files (``csv/CSVGeocode.java:174-203``
    ``writeHTMLErrorReport``); one ``error_report-<i>.html`` per
    ``_HTML_CHUNK`` failures plus a summary header in chunk 0."""
    import html

    cols = ["qid", "q", "expected", "top_doc", "top_score"]
    n_chunks = max(1, -(-len(failures) // _HTML_CHUNK))
    for i in range(n_chunks):
        part = failures.iloc[i * _HTML_CHUNK : (i + 1) * _HTML_CHUNK]
        cells = [part[c].astype(str).map(html.escape) for c in cols]
        rows = "\n".join(
            "<tr><td>" + "</td><td>".join(vals) + "</td></tr>"
            for vals in zip(*cells)
        )
        head = ""
        if i == 0:
            head = "<p>" + " — ".join(
                f"{html.escape(str(k))}: {html.escape(str(v))}"
                for k, v in summary.items()
            ) + "</p>\n"
        doc = (
            "<!doctype html><html><head><meta charset='utf-8'>"
            "<title>geocode eval errors</title></head><body>\n"
            f"{head}<table border='1'><tr>"
            + "".join(f"<th>{c}</th>" for c in cols)
            + f"</tr>\n{rows}\n</table></body></html>\n"
        )
        with open(os.path.join(out_dir, f"error_report-{i}.html"), "w") as f:
            f.write(doc)
