"""Cleaning operators: PII scan/redact + boilerplate line removal.

Differential oracle: DuckDB shares the RE2 regex engine with pyarrow,
so the SQL expressions these tests run must match the Ray pipelines byte-for-byte on arbitrary text.
"""
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from gazetteer_search_ray.pipelines.cleaning import (
    DEFAULT_PII,
    boilerplate_lines,
    pii_redact,
    pii_scan,
    remove_boilerplate,
)

TEXTS = [
    "write bob.smith+x@ex-ample.co.uk or call 415-555-1234 now",
    "server at 10.0.0.1 and 255.255.255.255, ssn 123-45-6789",
    "no pii here",
    "a@b.io a@b.io (650) 555-0000 +1 650 555 0000",
    "",
]


def _ds(texts):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))


def test_pii_scan_counts(ray_session):
    out = pii_scan(_ds(TEXTS)).to_pandas().sort_values("doc_id")
    assert out["n_email"].tolist() == [1, 0, 0, 2, 0]
    assert out["n_phone"].tolist() == [1, 0, 0, 2, 0]
    assert out["n_ipv4"].tolist() == [0, 2, 0, 0, 0]
    assert out["n_ssn"].tolist() == [0, 1, 0, 0, 0]
    assert out["n_pii"].tolist() == [2, 3, 0, 4, 0]


def test_pii_redact_matches_duckdb(ray_session):
    got = pii_redact(_ds(TEXTS)).to_pandas().sort_values("doc_id")
    expr = "t"
    for _, pat, tag in DEFAULT_PII:
        expr = f"regexp_replace({expr}, '{pat}', '{tag}', 'g')"
    want = [r[0] for r in duckdb.sql(
        f"SELECT {expr} FROM (SELECT unnest($1) AS t)", params=[TEXTS]
    ).fetchall()]
    assert got["text"].tolist() == want
    assert "<EMAIL>" in got["text"].iloc[0]
    assert "415-555-1234" not in got["text"].iloc[0]


def test_pii_scan_matches_duckdb(ray_session):
    got = pii_scan(_ds(TEXTS)).to_pandas().sort_values("doc_id")
    for name, pat, _ in DEFAULT_PII:
        want = [r[0] for r in duckdb.sql(
            f"SELECT len(regexp_extract_all(t, '{pat}')) "
            "FROM (SELECT unnest($1) AS t)", params=[TEXTS]).fetchall()]
        assert got[f"n_{name}"].tolist() == want, name


BP_TEXTS = [
    "header\nalpha beta\nfooter",
    "header\ngamma\nfooter",
    "header\nalpha beta\ndelta",
    "unique only",
    "header\nfooter",  # doc of ONLY boilerplate -> empty after removal
]


def test_boilerplate_lines(ray_session):
    rep = boilerplate_lines(_ds(BP_TEXTS), min_docs=3)
    assert rep[["line", "n_docs"]].values.tolist() == [
        ["header", 4], ["footer", 3]]
    # min_docs=2 picks up 'alpha beta'
    rep2 = boilerplate_lines(_ds(BP_TEXTS), min_docs=2)
    assert set(rep2["line"]) == {"header", "footer", "alpha beta"}


def test_boilerplate_counts_docs_not_occurrences(ray_session):
    # a line repeated many times INSIDE one doc counts once
    texts = ["spam\nspam\nspam\nspam", "spam\nreal", "other"]
    rep = boilerplate_lines(_ds(texts), min_docs=2)
    assert rep.values.tolist() == [["spam", 2]]
    rep3 = boilerplate_lines(_ds(texts), min_docs=3)
    assert rep3.empty


def test_remove_boilerplate_preserves_order(ray_session):
    out = remove_boilerplate(
        _ds(BP_TEXTS), min_docs=3).to_pandas().sort_values("doc_id")
    assert out["text"].tolist() == [
        "alpha beta", "gamma", "alpha beta\ndelta", "unique only", ""]


def test_remove_boilerplate_matches_duckdb(ray_session):
    got = remove_boilerplate(
        _ds(BP_TEXTS), min_docs=3).to_pandas().sort_values("doc_id")
    want = duckdb.sql("""
WITH docs(doc_id, text) AS (SELECT unnest($1), unnest($2)),
lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line,
         unnest(range(1, len(string_split(text, chr(10))) + 1)) AS idx
  FROM docs),
freq AS (SELECT line FROM lines WHERE line <> ''
         GROUP BY line HAVING count(DISTINCT doc_id) >= 3)
SELECT d.doc_id, coalesce(k.text, '') AS text FROM docs d
LEFT JOIN (SELECT doc_id, string_agg(line, chr(10) ORDER BY idx) AS text
           FROM lines WHERE line NOT IN (SELECT line FROM freq)
           GROUP BY doc_id) k USING (doc_id)
ORDER BY d.doc_id
""", params=[list(range(len(BP_TEXTS))), BP_TEXTS]).fetchall()
    assert got["text"].tolist() == [r[1] for r in want]


URL_TEXTS = [
    "see https://example.com/a?b=1 and http://sub.test.org/path.",
    "visit https://Blocked.EVIL.net/x then https://ok.io",
    "no urls",
    "https://Example.COM/UPPER https://example.com",
]


def test_extract_urls(ray_session):
    from gazetteer_search_ray.pipelines.cleaning import extract_urls

    out = extract_urls(_ds(URL_TEXTS)).to_pandas() \
        .sort_values(["doc_id", "url"]).reset_index(drop=True)
    assert out["url"].tolist() == [
        "http://sub.test.org/path.", "https://example.com/a?b=1",
        "https://Blocked.EVIL.net/x", "https://ok.io",
        "https://Example.COM/UPPER", "https://example.com",
    ]
    assert out["domain"].tolist() == [
        "sub.test.org", "example.com", "blocked.evil.net", "ok.io",
        "example.com", "example.com",
    ]


def test_extract_urls_matches_duckdb(ray_session):
    from gazetteer_search_ray.pipelines.cleaning import URL_RE, extract_urls

    got = extract_urls(_ds(URL_TEXTS)).to_pandas() \
        .sort_values(["doc_id", "url"]).reset_index(drop=True)
    want = duckdb.sql(f"""
WITH docs(doc_id, text) AS (SELECT unnest($1), unnest($2)),
u AS (SELECT doc_id, unnest(regexp_extract_all(text, '{URL_RE}')) AS url
      FROM docs)
SELECT doc_id, url,
       lower(regexp_extract(url, 'https?://([A-Za-z0-9.\\-]+)', 1)) AS domain
FROM u ORDER BY doc_id, url
""", params=[list(range(len(URL_TEXTS))), URL_TEXTS]).fetchall()
    assert [tuple(r) for r in got.itertuples(index=False)] == want


def test_filter_blocked_domains(ray_session):
    from gazetteer_search_ray.pipelines.cleaning import (
        filter_blocked_domains,
    )

    out = filter_blocked_domains(
        _ds(URL_TEXTS), ["blocked.evil.net"]).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [0, 2, 3]  # doc 1 dropped
    # case-insensitive both ways
    out2 = filter_blocked_domains(
        _ds(URL_TEXTS), ["BLOCKED.evil.NET"]).to_pandas()
    assert sorted(out2["doc_id"].tolist()) == [0, 2, 3]


def test_json_extract_int(ray_session):
    import ray.data as rd

    from gazetteer_search_ray.pipelines.cleaning import json_extract_int

    ev = pd.DataFrame({
        "event_id": [1, 2, 3, 4],
        "props": ['{"k": 7}', '{"k":-3, "x": 1}', '{}', '{"K": 9}'],
    })
    out = json_extract_int(rd.from_pandas(ev), "k",
                           keep_cols=("event_id",)).to_pandas()
    out = out.sort_values("event_id").reset_index(drop=True)
    assert out["k"].tolist()[:2] == [7, -3]
    assert out["k"].isna().tolist() == [False, False, True, True]


def test_normalize_text_matches_duckdb(ray_session):
    """C4 normalize chain vs DuckDB on nasty unicode: decomposed
    accents (NFC path), NBSP (NOT \\s in RE2 — must survive),
    control chars, uppercase unicode, astral chars, nulls preserved
    as empty after trim of control→space."""
    from gazetteer_search_ray.pipelines.cleaning import normalize_text

    texts = [
        "  A\x01b\tC  é \n\nx ",       # control + decomposed é
        "ÜMLAUT NBSP",             # decomposed Ü, NBSP kept
        "plain ASCII   with   runs",
        "",
        "\x00\x1f\x7f",                       # all-control → empty
        "MiXeD \U0001F600 astral É",    # astral + decomposed É
    ]
    out = (normalize_text(_ds(texts).repartition(3))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    want = duckdb.sql("""
        WITH d AS (SELECT * FROM df),
        n AS (SELECT doc_id, trim(regexp_replace(lower(nfc_normalize(
                regexp_replace(text, '[\\x00-\\x1f\\x7f]', ' ', 'g'))),
                '\\s+', ' ', 'g')) AS text_norm FROM d)
        SELECT doc_id, text_norm, length(text_norm)::BIGINT AS n_chars_norm
        FROM n ORDER BY doc_id
    """.replace("df", "(SELECT unnest(range(6)) AS doc_id, unnest(?) AS text)"),
        params=[texts]).df()
    assert list(out["text_norm"]) == list(want["text_norm"])
    assert list(out["n_chars_norm"]) == list(want["n_chars_norm"])
    # NFC actually composed: 'e' + U+0301 became one codepoint
    assert "é" in out["text_norm"][0] and "́" not in out["text_norm"][0]
    assert out["text_norm"][4] == ""
