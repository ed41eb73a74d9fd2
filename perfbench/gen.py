"""Seeded input generators: a code-like corpus and a search request log.

Everything here is a pure function of its seed.  The engine only ever
sees the generated Parquet files and HTTP request strings; the chunk-id
structure kept alongside (which raw whitespace-separated chunks make up
each document) is for the benchmark's own oracle.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from urllib.parse import urlencode

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Shape of the inputs.  The language list and weights are those of the
# engine's own synthetic corpus (``sources/corpus.py``, FIXTURES.md §1);
# the corpus Zipf exponent and document lengths sit next to its 1.1 and
# 30-200.  The vocabulary size makes the index dictionary several times
# the engine's term caches.  The request mix and the query Zipf exponent
# have no measured source: FIXTURES.md §2 and ROADMAP item 2 fix only
# the request kinds and "Zipf over df rank", so they are assumptions,
# and ``serve`` reports its latency per request kind.
LANGS = ["python", "java", "go", "js", "rust", "text"]
LANG_W = np.array([0.3, 0.2, 0.15, 0.15, 0.1, 0.1])
VOCAB_SIZE = 60_000
CORPUS_ZIPF_S = 1.05
DOC_LEN = (40, 160)      # raw chunks per document, inclusive
QUERY_ZIPF_S = 1.0
KINDS = ["plain", "prefix", "lang", "page1"]
KIND_W = [0.55, 0.15, 0.20, 0.10]
PREFIX_LEN = 3           # prefixes are 3 letters, 4 for terms over 6
PREFIX_MAX_TERMS = 100   # below the engine's 128-term expansion cap
_EXT = {"python": "py", "java": "java", "go": "go", "js": "js", "rust": "rs",
        "text": "txt"}
_SYLL = [
    "ab", "ac", "ad", "al", "an", "ar", "as", "at", "ba", "be", "bi", "bo",
    "ca", "ce", "ch", "co", "cu", "da", "de", "di", "do", "el", "en", "er",
    "es", "fa", "fe", "fi", "fo", "ga", "ge", "gi", "go", "ha", "he", "hi",
    "in", "is", "ka", "ke", "la", "le", "li", "lo", "lu", "ma", "me", "mi",
    "mo", "na", "ne", "ni", "no", "or", "pa", "pe", "pi", "po", "qu", "ra",
    "re", "ri", "ro", "ru", "sa", "se", "si", "so", "st", "ta", "te", "ti",
    "to", "tr", "un", "ur", "va", "ve", "vi", "wa", "we", "xe", "yo", "za",
]
# stop-ish code keywords head the Zipf ranks, as in real source files
_KEYWORDS = [
    "def", "return", "import", "class", "self", "if", "else", "for",
    "while", "func", "var", "let", "const", "public", "static", "void",
    "int", "string", "new", "try", "catch", "err", "nil", "true", "false",
    "match", "impl", "struct", "fn", "use", "the", "of", "a",
]
_ACCENT = str.maketrans({"a": "ä", "e": "é", "o": "ö", "u": "ü", "s": "ß"})


def make_vocab(n: int, seed: int) -> list[str]:
    """``n`` distinct raw identifiers: plain words, camelCase and
    snake_case compounds, words with diacritics, short optional-length
    tokens and digit-bearing names."""
    rng = np.random.default_rng([seed, 1])
    syll = np.array(_SYLL, dtype=object)
    out = list(_KEYWORDS)
    seen = set(out)
    while len(out) < n:
        m = 2 * (n - len(out)) + 64
        kind = rng.random(m)
        a = ["".join(w) for w in syll[rng.integers(0, len(syll), (m, 4))]]
        la, lb = rng.integers(2, 9, m), rng.integers(2, 7, m)
        cut = rng.integers(0, 6, m)
        num = rng.integers(0, 100, m)
        for i in range(m):
            w, x = a[i][:la[i]], a[i][la[i]:la[i] + lb[i]]
            k = kind[i]
            if k < 0.50 or not x:
                pass
            elif k < 0.68:
                w = w + x[0].upper() + x[1:]
            elif k < 0.80:
                w = w + "_" + x
            elif k < 0.88:
                c = int(cut[i]) % len(w)
                w = w[:c] + w[c:].translate(_ACCENT)
            elif k < 0.94:
                w = w[:2]
            else:
                w = w[:4] + str(int(num[i]))
            if w not in seen:
                seen.add(w)
                out.append(w)
                if len(out) == n:
                    break
    return out


def _letters(i: int) -> str:
    """Bijective base-26 name of ``i`` (letters only, so the analyzer
    keeps it as one token)."""
    s = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        s = chr(97 + r) + s
    return s


def marker(doc: int, rev: int) -> str:
    """The unique token planted in revision ``rev`` of document ``doc``."""
    return f"zq{_letters(doc)}x{_letters(rev)}"


@dataclass
class Corpus:
    """Documents as chunk ids into ``chunks`` plus their metadata."""

    chunks: list[str]        # raw whitespace-free chunk strings
    doc_off: np.ndarray      # CSR offsets into doc_chunks, len n+1
    doc_chunks: np.ndarray   # chunk ids
    doc_num: np.ndarray      # stable document number (repo/path key)
    lang: np.ndarray         # object array of lang names
    rev: np.ndarray          # content revision per document

    @property
    def n(self) -> int:
        return int(self.doc_num.size)

    def table(self) -> pa.Table:
        ch = np.asarray(self.chunks, dtype=object)
        content = [
            " ".join(ch[self.doc_chunks[self.doc_off[i]:self.doc_off[i + 1]]])
            for i in range(self.n)
        ]
        repo = [f"org{d % 13}/repo{d % 37}" for d in self.doc_num.tolist()]
        path = [f"src/p{d // 1000}/f{d}.{_EXT[lg]}"
                for d, lg in zip(self.doc_num.tolist(), self.lang.tolist())]
        commit = [hashlib.sha1(p.encode()).hexdigest()[:12] for p in path]
        return pa.table({"repo": repo, "path": path, "commit": commit,
                         "lang": self.lang.tolist(), "content": content})

    def doc_ids(self) -> np.ndarray:
        """The 63-bit ids ``read_corpus`` documents for these rows:
        blake2b-8 of ``repo\\0path\\0commit``, top bit cleared."""
        t = self.table()
        return np.array([
            int.from_bytes(hashlib.blake2b(
                f"{r}\x00{p}\x00{c}".encode(), digest_size=8).digest(),
                "big") & 0x7FFF_FFFF_FFFF_FFFF
            for r, p, c in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                               t["commit"].to_pylist())
        ], dtype=np.int64)

    def subset(self, rows: np.ndarray) -> "Corpus":
        rows = np.asarray(rows, dtype=np.int64)
        lens = np.diff(self.doc_off)[rows]
        off = np.concatenate(([0], np.cumsum(lens)))
        idx = (np.repeat(self.doc_off[rows], lens)
               + np.arange(off[-1]) - np.repeat(off[:-1], lens))
        return Corpus(self.chunks, off, self.doc_chunks[idx],
                      self.doc_num[rows], self.lang[rows], self.rev[rows])

    @staticmethod
    def concat(parts: list["Corpus"]) -> "Corpus":
        lens = np.concatenate([np.diff(p.doc_off) for p in parts])
        return Corpus(parts[0].chunks, np.concatenate(([0], np.cumsum(lens))),
                      np.concatenate([p.doc_chunks for p in parts]),
                      np.concatenate([p.doc_num for p in parts]),
                      np.concatenate([p.lang for p in parts]),
                      np.concatenate([p.rev for p in parts]))

    def write(self, out_dir: str, n_files: int = 8) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        t = self.table()
        per = -(-t.num_rows // n_files)
        files = []
        for i in range(n_files):
            part = t.slice(i * per, per)
            if part.num_rows:
                f = os.path.join(out_dir, f"part-{i:03d}.parquet")
                pq.write_table(part, f)
                files.append(f)
        return files


class CorpusGen:
    """Zipf-over-vocabulary document generator (one per seed)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.vocab = make_vocab(VOCAB_SIZE, seed)
        p = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** CORPUS_ZIPF_S
        self.p = p / p.sum()
        self.chunks = list(self.vocab)
        # language is a property of the document number, so a new
        # revision of a document keeps its path and hence its doc id
        self._lang = np.array(LANGS, dtype=object)[np.random.default_rng(
            [seed, 5]).choice(len(LANGS), size=1 << 18, p=LANG_W)]
        self._marker_id: dict[tuple[int, int], int] = {}

    def _marker_chunk(self, doc: int, rev: int) -> int:
        key = (doc, rev)
        if key not in self._marker_id:
            self._marker_id[key] = len(self.chunks)
            self.chunks.append(marker(doc, rev))
        return self._marker_id[key]

    def docs(self, doc_nums, rev: int = 0, markers: bool = False,
             stream: int = 0) -> Corpus:
        """Documents ``doc_nums`` at revision ``rev``; ``stream`` selects
        an independent random stream so revisions differ in content."""
        doc_nums = np.asarray(doc_nums, dtype=np.int64)
        n = doc_nums.size
        rng = np.random.default_rng([self.seed, 2, stream, rev])
        lens = rng.integers(DOC_LEN[0], DOC_LEN[1] + 1, size=n)
        ids = rng.choice(len(self.vocab), size=int(lens.sum()), p=self.p)
        if markers:
            mk = np.array([self._marker_chunk(int(d), rev) for d in doc_nums])
            pos = np.cumsum(lens) - 1  # last chunk of each doc
            ids[pos] = mk
        off = np.concatenate(([0], np.cumsum(lens)))
        return Corpus(self.chunks, off, ids.astype(np.int64), doc_nums,
                      self._lang[doc_nums], np.full(n, rev, dtype=np.int64))


# ---------------------------------------------------------------------------
# request log
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    q: str
    prefix: bool = False
    lang: str | None = None
    page: int = 0
    size: int = 20

    def path(self) -> str:
        params: dict = {"q": self.q}
        if self.prefix:
            params["prefix"] = "true"
        if self.lang:
            params["lang"] = self.lang
        if self.page:
            params["page"] = str(self.page)
        return "/location/_search?" + urlencode(params)

    @property
    def kind(self) -> str:
        return ("prefix" if self.prefix else "lang" if self.lang
                else "page1" if self.page else "plain")


def _stratified(rng: np.random.Generator, n: int, weights) -> np.ndarray:
    """``n`` category indices in exact proportion to ``weights``, shuffled:
    every seed gets the same mix, only the order differs."""
    w = np.asarray(weights, dtype=np.float64)
    counts = np.floor(w / w.sum() * n).astype(np.int64)
    counts[np.argsort(-w)[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(w.size), counts))


def make_log(terms: list[str], dfs: np.ndarray, n: int, seed: int,
             prefix_ok: list[str] | None = None) -> list[Request]:
    """``n`` requests of 1-4 terms drawn Zipf over df rank.

    Mix (``KIND_W``): 55% plain, 15% prefix (last term replaced by a
    short prefix from ``prefix_ok``), 20% ``lang``-filtered, 10%
    ``page=1``.  The mix, the
    term counts and the Zipf ranks are stratified, so logs of different
    seeds differ in their words and order but not in their shape."""
    rng = np.random.default_rng([seed, 3])
    order = np.argsort(-np.asarray(dfs), kind="stable")
    ranked = [terms[i] for i in order]
    cdf = np.cumsum(1.0 / np.arange(1, len(ranked) + 1) ** QUERY_ZIPF_S)
    cdf /= cdf[-1]
    nterms = 1 + _stratified(rng, n, [1, 1, 1, 1])
    m = int(nterms.sum())
    u = (rng.permutation(m) + rng.random(m)) / m
    draws = np.minimum(np.searchsorted(cdf, u), len(ranked) - 1)
    kind = _stratified(rng, n, KIND_W)
    langs = _stratified(rng, n, LANG_W)
    pfx = (rng.choice(len(prefix_ok), size=n) if prefix_ok
           else np.zeros(n, dtype=np.int64))
    out = []
    o = 0
    for i in range(n):
        words = [ranked[j] for j in draws[o:o + nterms[i]]]
        o += int(nterms[i])
        if kind[i] == 0 or (kind[i] == 1 and not prefix_ok):
            out.append(Request(" ".join(words)))
        elif kind[i] == 1:
            words[-1] = prefix_ok[int(pfx[i])]
            out.append(Request(" ".join(words), prefix=True))
        elif kind[i] == 2:
            out.append(Request(" ".join(words), lang=LANGS[int(langs[i])]))
        else:
            out.append(Request(" ".join(words), page=1))
    return out


def prefixes(terms: list[str]) -> list[str]:
    """Prefixes of dictionary terms that expand to between 2 and
    ``PREFIX_MAX_TERMS`` terms, so the engine's prefix expansion cap
    never truncates them.  ``terms`` must be sorted."""
    arr = np.asarray(terms, dtype=object)
    out = set()
    for t in terms[:: max(1, len(terms) // 4000)]:
        if len(t) <= PREFIX_LEN or not t.isalpha():
            continue
        p = t[:PREFIX_LEN + (len(t) > 6)]
        lo = np.searchsorted(arr, p)
        hi = np.searchsorted(arr, p + "\U0010ffff")
        if 2 <= hi - lo <= PREFIX_MAX_TERMS:
            out.add(p)
    return sorted(out)
