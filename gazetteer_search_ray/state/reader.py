"""IndexReader — storage access for the query layer.

Loads once per query actor (``QueryScorer.__init__``): the manifest,
doc-store arrays, and a (file, row-group) → term-range pruning index
over the postings files.  Term lookups then read ONLY the parquet
row groups whose [min_term, max_term] statistics cover the term — the
on-disk analog of a term dictionary — so a query touches a few row
groups, not the index (SURVEY.md §3.2).  Every postings writer caps a
row group at ``stages.postings.ROW_GROUP_TERMS`` rows, so the scan of
one row group for a term costs the same however many files the
build's exchange wrote.

Docs are addressed by GLOBAL ordinal: the position of a doc in the
sorted ``doc_ids`` array.  Each segment's postings hold segment-local
ordinals (``codec`` format v3); ``seg_map[s]`` maps them to global
ordinals.  Both orders are doc-id order, so ``seg_map`` is monotone and
decoded lists stay sorted.  The query layer works on global ordinals and
maps back to ``doc_id`` only to project hits.

Scale note: doc-store arrays are per-*segment-group* — on a multi-node
cluster each query actor serves the segments co-located with it and a
scatter-gather layer merges top-k across actors (the reference relies on
ES doing exactly this across shards).  In this sandbox one reader holds
all segments.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.analyzer import Analyzer, AnalyzerConfig
from ..functions import codec
from . import manifest as mf
import os

DOCMETA_EXTRA = ("lang", "repo", "path", "base_score", "sha256", "n_chars",
                 "lat", "lon")


from .fuzzy import DeletionNeighborhoodIndex, ed1 as _ed1

# vocabulary size above which fuzzy lookups switch from linear scan to
# the deletion-neighborhood index (SymSpell) — the scan is O(|vocab|)
# per query, the index O(len(term)); below the cutoff the scan is
# cheaper than building the index
FUZZY_SCAN_CUTOFF = 50_000


@dataclass
class TermPostings:
    """All posting parts of one term (parts = shards × segments)."""

    term: str
    df: int  # global doc frequency (sum over parts)
    # encoded rows (codec.encode_posting layout) plus "seg_map" (the
    # part's local→global ordinal map, None for the identity) and
    # "block_last" (block_last_doc as global ordinals)
    parts: list[dict]


class IndexReader:
    def __init__(self, index_dir: str, cache_terms: int = 8192,
                 segments: list[str] | None = None):
        """``segments`` restricts the reader to a subset of the index's
        segment names — the shard-actor mode (each actor of a sharded
        query pool serves its co-located segments; global stats
        n_docs/avgdl still come from the manifest, and per-term global
        df is injected by the coordinator — see
        ``pipelines/search.py::ShardedQueryService``)."""
        man = mf.read_checked_manifest(index_dir)
        self.manifest = man
        self.n_docs = int(man["n_docs"])
        self.avgdl = float(man["avgdl"])
        self.block_size = int(man["block_size"])
        self.analyzer = Analyzer(AnalyzerConfig.from_dict(man["analyzer"]))
        if segments is None:
            segments = man["segments"]
        bad = [s for s in segments if s not in man["segments"]]
        if bad:
            raise ValueError(
                f"unknown segments {bad}; index has {man['segments']}")
        seg_dirs = [os.path.join(index_dir, s) for s in segments]

        # ---- doc store -------------------------------------------------
        import pyarrow.dataset as pads

        children = [
            pads.dataset(os.path.join(d, "docmeta"), format="parquet")
            for d in seg_dirs
        ]
        meta_ds = children[0] if len(children) == 1 else pads.dataset(children)
        avail = set(meta_ds.schema.names)
        field_cols = sorted(c for c in avail if c.startswith("dl__"))
        cols = (["doc_id", "dl"] + field_cols
                + [c for c in DOCMETA_EXTRA if c in avail])
        # one table per segment (a segment may lack optional columns)
        tables = [c.to_table(columns=[n for n in cols if n in c.schema.names])
                  for c in children]
        t = tables[0] if len(tables) == 1 else pa.concat_tables(
            tables, promote_options="permissive")
        order = pc.sort_indices(t["doc_id"]).to_numpy()
        t = t.take(order)
        self.doc_ids = t["doc_id"].to_numpy()  # sorted ascending
        # per segment: local ordinal i (its i-th smallest doc id) → the
        # global ordinal of that doc; None = identity (one segment)
        seg_maps: list[np.ndarray | None] = [None]
        if len(tables) > 1:
            glob = np.empty(order.size, np.int64)
            glob[order] = np.arange(order.size)
            ends = np.cumsum([tb.num_rows for tb in tables])
            seg_maps = [np.sort(g) for g in np.split(glob, ends[:-1])]
        self.dl = t["dl"].to_numpy().astype(np.int64)
        # per-field BM25 length norms (multi-field mapping): dl__<field>
        # docmeta columns + manifest per-field avgdl
        self.field_dl: dict[str, np.ndarray] = {
            c[4:]: t[c].to_numpy().astype(np.int64) for c in field_cols
        }
        self.field_avgdl: dict[str, float] = {
            f: float(v["avgdl"]) for f, v in man["fields"].items()
        }
        self.columns: dict[str, np.ndarray] = {}
        for c in cols[2 + len(field_cols):]:
            col = t[c]
            self.columns[c] = (
                col.to_numpy(zero_copy_only=False)
                if c == "base_score"
                else np.asarray(col.to_pylist(), dtype=object)
            )

        # ---- postings row-group pruning index --------------------------
        self._files: list[pq.ParquetFile] = []
        self._rg_min: list[str] = []
        self._rg_max: list[str] = []
        self._rg_loc: list[tuple[int, int]] = []  # (file_idx, rg_idx)
        self._file_seg_map: list[np.ndarray | None] = []  # by file_idx
        for seg_map, d in zip(seg_maps, seg_dirs):
            pdir = os.path.join(d, "postings")
            for fname in sorted(os.listdir(pdir)):
                if not fname.endswith(".parquet"):
                    continue
                # memory_map: row-group reads borrow the OS page cache
                # (shared across every reader/actor process on the
                # node) instead of buffering a private copy per open
                pf = pq.ParquetFile(os.path.join(pdir, fname),
                                    memory_map=True)
                fi = len(self._files)
                self._files.append(pf)
                self._file_seg_map.append(seg_map)
                term_idx = pf.schema_arrow.get_field_index("term")
                for rg in range(pf.metadata.num_row_groups):
                    st = pf.metadata.row_group(rg).column(term_idx).statistics
                    self._rg_min.append(st.min if st is not None else "")
                    self._rg_max.append(st.max if st is not None else "\U0010ffff")
                    self._rg_loc.append((fi, rg))
        # sort row groups by min term for bisect pruning
        order2 = sorted(range(len(self._rg_min)), key=lambda i: self._rg_min[i])
        self._rg_min = [self._rg_min[i] for i in order2]
        self._rg_max = [self._rg_max[i] for i in order2]
        self._rg_loc = [self._rg_loc[i] for i in order2]
        self._cache: OrderedDict[str, TermPostings | None] = OrderedDict()
        self._cache_terms = cache_terms
        self._rg_cache: OrderedDict[tuple[int, int], object] = OrderedDict()

    # ---- doc store gathers --------------------------------------------

    def dl_of(self, docs: np.ndarray, field: str | None = None) -> np.ndarray:
        return (self.dl if field is None else self.field_dl[field])[docs]

    def avgdl_of(self, field: str | None = None) -> float:
        return self.avgdl if field is None else self.field_avgdl[field]

    def column_of(self, docs: np.ndarray, col: str) -> np.ndarray:
        return self.columns[col][docs]

    def docs_matching(self, col: str, values) -> np.ndarray:
        """Sorted ordinals whose docmeta column ∈ values (filter leaf)."""
        return np.flatnonzero(np.isin(self.columns[col], list(values)))

    def docs_in_range(self, col: str, lo: float, hi: float) -> np.ndarray:
        """Sorted ordinals with lo ≤ column ≤ hi (numeric range leaf)."""
        if col == "doc_id":
            vals = self.doc_ids
        elif col == "dl":
            vals = self.dl
        else:
            vals = self.columns[col].astype(np.float64)
        return np.flatnonzero((vals >= lo) & (vals <= hi))

    def all_terms(self) -> list[str]:
        """The full term dictionary (scanned once, cached)."""
        if not hasattr(self, "_all_terms"):
            terms: set[str] = set()
            for pf in self._files:
                t = pf.read(columns=["term"])
                terms.update(t["term"].to_pylist())
            self._all_terms = sorted(terms)
        return self._all_terms

    def fuzzy_terms(self, term: str, max_expansions: int = 50) -> list[str]:
        """Dictionary terms within edit distance ≤ 1 of ``term``.

        Small vocabularies use a length-pruned linear scan; above
        ``FUZZY_SCAN_CUTOFF`` the reader builds (once, cached) a
        deletion-neighborhood index (``state/fuzzy.py``) — O(len(term))
        per lookup instead of O(|vocab|), same results (differentially
        tested)."""
        vocab = self.all_terms()
        if len(vocab) > FUZZY_SCAN_CUTOFF:
            if not hasattr(self, "_fuzzy_index"):
                self._fuzzy_index = DeletionNeighborhoodIndex(vocab)
            return self._fuzzy_index.lookup(term, max_expansions)
        out = []
        lt = len(term)
        for cand in vocab:
            if abs(len(cand) - lt) > 1:
                continue
            if _ed1(term, cand):
                out.append(cand)
                if len(out) >= max_expansions:
                    break
        return out

    # ---- postings ------------------------------------------------------

    def _candidate_rgs(self, lo: str, hi: str):
        """Row groups whose [min,max] term range intersects [lo, hi]."""
        i = bisect.bisect_right(self._rg_min, hi)
        out = []
        for j in range(i):
            if self._rg_max[j] >= lo:
                out.append(self._rg_loc[j])
        return out

    def _read_rg(self, fi: int, rg: int):
        key = (fi, rg)
        hit = self._rg_cache.get(key)
        if hit is not None:
            self._rg_cache.move_to_end(key)
            return hit
        tbl = self._files[fi].read_row_group(rg)
        self._rg_cache[key] = tbl
        if len(self._rg_cache) > 64:
            self._rg_cache.popitem(last=False)
        return tbl

    def _row_to_part(self, fi: int, tbl, i: int) -> dict:
        last = np.asarray(tbl["block_last_doc"][i].as_py(), np.int64)
        seg_map = self._file_seg_map[fi]
        return {
            "df": tbl["df"][i].as_py(),
            "docs": tbl["docs"][i].as_py(),
            "tfs": tbl["tfs"][i].as_py(),
            "block_last_doc": last,
            "block_max_tf": np.asarray(tbl["block_max_tf"][i].as_py(), np.int32),
            "block_min_dl": np.asarray(tbl["block_min_dl"][i].as_py(), np.int32),
            "block_docs_off": np.asarray(tbl["block_docs_off"][i].as_py(), np.int64),
            "block_tfs_off": np.asarray(tbl["block_tfs_off"][i].as_py(), np.int64),
            "seg_map": seg_map,
            "block_last": last if seg_map is None else seg_map[last],
        }

    def posting(self, term: str) -> TermPostings | None:
        if term in self._cache:
            self._cache.move_to_end(term)
            return self._cache[term]
        parts = []
        for fi, rg in self._candidate_rgs(term, term):
            tbl = self._read_rg(fi, rg)
            mask = pc.equal(tbl["term"], term)
            idxs = np.flatnonzero(mask.combine_chunks().to_numpy(zero_copy_only=False))
            for i in idxs:
                parts.append(self._row_to_part(fi, tbl, int(i)))
        tp = TermPostings(term, sum(p["df"] for p in parts), parts) if parts else None
        self._cache[term] = tp
        if len(self._cache) > self._cache_terms:
            self._cache.popitem(last=False)
        return tp

    def prefix_terms(self, prefix: str, max_expansions: int = 128) -> list[str]:
        """Term-dictionary range scan [prefix, prefix+MAXCHAR) (Q3)."""
        hi = prefix + "\U0010ffff"
        terms: set[str] = set()
        for fi, rg in self._candidate_rgs(prefix, hi):
            tbl = self._read_rg(fi, rg)
            mask = pc.starts_with(tbl["term"], prefix)
            for v in tbl["term"].filter(mask):
                terms.add(v.as_py())
                if len(terms) >= max_expansions:
                    return sorted(terms)
        return sorted(terms)

    # ---- decode --------------------------------------------------------

    def decode_blocks(self, part: dict, blocks: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """(global ordinals, tfs) of the selected blocks of one part."""
        d, t = codec.decode_blocks(part, blocks, self.block_size)
        seg_map = part["seg_map"]
        return (d if seg_map is None else seg_map[d]), t

    def decode_all(self, tp: TermPostings) -> tuple[np.ndarray, np.ndarray]:
        """(global ordinals sorted, tfs) across all parts (sorted merge)."""
        if len(tp.parts) == 1:
            p = tp.parts[0]
            return self.decode_blocks(p, np.arange(len(p["block_last"])))
        ds_, ts_ = [], []
        for p in tp.parts:
            d, t = self.decode_blocks(p, np.arange(len(p["block_last"])))
            ds_.append(d)
            ts_.append(t)
        docs = np.concatenate(ds_)
        tfs = np.concatenate(ts_)
        order = np.argsort(docs, kind="stable")
        return docs[order], tfs[order]
