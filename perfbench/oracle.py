"""Brute-force BM25 (k1=1.2, b=0.75) over the generated corpus.

Independent of the engine except for the ``Analyzer``: term
frequencies come from analyzing each distinct raw chunk of the
generator, scores are dense float64 vectors over every document, and
the coalesce cascade of ``Searcher.search`` is re-derived from its
documented plan shapes.
"""

from __future__ import annotations

import math

import numpy as np

from gen import Corpus, Request

K1, B = 1.2, 0.75
REL_TOL = 1e-9


class Oracle:
    def __init__(self, corpus: Corpus, analyzer_config):
        from gazetteer_search_ray.functions.analyzer import (
            Analyzer, AnalyzerConfig)

        self.query_an = Analyzer(analyzer_config)
        count_an = Analyzer(AnalyzerConfig(
            **{**analyzer_config.__dict__, "dedup": False}))
        used = np.unique(corpus.doc_chunks)
        self.terms: list[str] = []
        tid: dict[str, int] = {}
        chunk_terms: list[list[int]] = []
        for c in used.tolist():
            row = []
            for tok, _opt in count_an.tokens(corpus.chunks[c]):
                if tok not in tid:
                    tid[tok] = len(self.terms)
                    self.terms.append(tok)
                row.append(tid[tok])
            chunk_terms.append(row)
        self.tid = tid
        cnt = np.array([len(r) for r in chunk_terms], dtype=np.int64)
        flat = np.array([t for r in chunk_terms for t in r], dtype=np.int64)
        coff = np.concatenate(([0], np.cumsum(cnt)))
        pos = np.searchsorted(used, corpus.doc_chunks)
        n = corpus.n
        doc_of_chunk = np.repeat(np.arange(n), np.diff(corpus.doc_off))
        reps = cnt[pos]
        doc = np.repeat(doc_of_chunk, reps)
        start = np.repeat(coff[pos], reps)
        within = np.arange(reps.sum()) - np.repeat(
            np.concatenate(([0], np.cumsum(reps)))[:-1], reps)
        term = flat[start + within]
        self.dl = np.bincount(doc, minlength=n).astype(np.float64)
        self.n = n
        self.total_tokens = int(self.dl.sum())
        self.avgdl = self.total_tokens / n
        key = term * n + doc
        uk, tf = np.unique(key, return_counts=True)
        self.p_term = uk // n
        self.p_doc = uk % n
        self.p_tf = tf.astype(np.float64)
        self.t_off = np.searchsorted(self.p_term, np.arange(len(self.terms) + 1))
        self.df = np.diff(self.t_off)
        self.doc_ids = corpus.doc_ids()
        self.lang = corpus.lang
        self.sorted_terms = sorted(self.terms)

    # -- per-term dense vectors -------------------------------------------

    def _term(self, t: str) -> tuple[np.ndarray, np.ndarray]:
        """(match mask, BM25 score vector) of one term over every doc."""
        m = np.zeros(self.n, dtype=bool)
        s = np.zeros(self.n)
        i = self.tid.get(t)
        if i is None:
            return m, s
        lo, hi = self.t_off[i], self.t_off[i + 1]
        d, tf = self.p_doc[lo:hi], self.p_tf[lo:hi]
        df = hi - lo
        idf = math.log1p((self.n - df + 0.5) / (df + 0.5))
        m[d] = True
        s[d] = idf * tf * (K1 + 1.0) / (
            tf + K1 * (1.0 - B + B * self.dl[d] / self.avgdl))
        return m, s

    def _prefix(self, p: str) -> tuple[np.ndarray, np.ndarray]:
        lo = np.searchsorted(self.sorted_terms, p)
        hi = np.searchsorted(self.sorted_terms, p + "\U0010ffff")
        if hi - lo >= 128:
            raise ValueError(f"prefix {p!r} expands past the engine cap")
        m = np.zeros(self.n, dtype=bool)
        for t in self.sorted_terms[lo:hi]:
            m |= self._term(t)[0]
        return m, m.astype(np.float64)

    # -- the coalesce cascade ---------------------------------------------

    def ranked(self, q: str, prefix: bool = False,
               lang: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """All matches of the first non-empty cascade variant, ordered by
        (score desc, doc_id asc) → (doc_ids, scores)."""
        toks = self.query_an.tokens(q)
        pfx = None
        if prefix and toks and q and not q.endswith(" "):
            last = toks[-1][0]
            if not any(ch.isdigit() for ch in last):
                pfx, toks = last, toks[:-1]
        required, numbers, optional = [], [], []
        for tok, opt in toks:
            if any(ch.isdigit() for ch in tok):
                numbers.append(tok)
            elif opt:
                optional.append(tok)
            else:
                required.append(tok)
        core = required + numbers
        filt = (self.lang == lang) if lang else np.ones(self.n, dtype=bool)
        leaf = {t: self._term(t) for t in core + optional}
        pm = self._prefix(pfx) if pfx else None
        variants = []
        if core:
            m = filt.copy()
            s = np.zeros(self.n)
            for t in core:
                m &= leaf[t][0]
                s += leaf[t][1]
            for t in optional:
                s += 0.5 * leaf[t][1]
            if pm is not None:
                s += pm[1]
            variants.append((m, s))
        clauses = [leaf[t] for t in core + optional] + ([pm] if pm else [])
        for need in ((2,) if len(core) + len(optional) >= 2 else ()) + \
                ((1,) if clauses else ()):
            hits = sum(c[0].astype(np.int64) for c in clauses)
            s = sum(c[1] for c in clauses)
            variants.append((filt & (hits >= need), s))
        for m, s in variants:
            idx = np.flatnonzero(m)
            if idx.size:
                d, sc = self.doc_ids[idx], s[idx]
                order = np.lexsort((d, -sc))
                return d[order], sc[order]
        return np.empty(0, np.int64), np.empty(0)

    def check(self, req: Request, rows: list[dict]) -> str | None:
        """None when the served page equals the oracle's, else why not."""
        d, s = self.ranked(req.q, req.prefix, req.lang)
        lo = req.page * req.size
        want_d, want_s = d[lo:lo + req.size], s[lo:lo + req.size]
        return compare(want_d, want_s, rows, d, s)


def compare(want_d, want_s, rows, all_d=None, all_s=None) -> str | None:
    """Rank-by-rank equality with a float tolerance; a differing doc id
    is accepted only inside a group of tied scores."""
    if len(rows) != len(want_d):
        return f"{len(rows)} hits, expected {len(want_d)}"
    all_d = want_d if all_d is None else all_d
    all_s = want_s if all_s is None else all_s
    for i, r in enumerate(rows):
        ws = float(want_s[i])
        tol = REL_TOL * max(1.0, abs(ws))
        if abs(float(r["score"]) - ws) > tol:
            return f"rank {i + 1}: score {r['score']!r}, expected {ws!r}"
        if int(r["doc_id"]) != int(want_d[i]):
            tied = all_d[np.abs(all_s - ws) <= tol]
            if int(r["doc_id"]) not in set(tied.tolist()):
                return f"rank {i + 1}: doc {r['doc_id']}, expected {want_d[i]}"
    return None
