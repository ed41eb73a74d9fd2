"""Text analyzers — the semantic core shared by the index and query sides.

Reimplements (for a source-code corpus) the normalization chain of the
reference's ``IndexAnalyzer`` / ``QueryAnalyzerImpl``
(reference: ``query/IndexAnalyzer.java:33-160``,
``query/QueryAnalyzerImpl.java:96-223``; see SURVEY.md §2.2 M3–M7):

* char-level replaces (``config/QueryAnalizer.json:4-9``: ``ё→е``, ``ß→ss``)
* diacritics folding — NFD normalize + strip combining marks
  (``IndexAnalyzer.java:33-36``)
* lowercase + split on a separator class (``IndexAnalyzer.java:96-152``,
  separator set from ``config/QueryAnalizer.json:2-3``)
* synonym/abbreviation *variant expansion* — the reference appends regex
  replacer outputs to the original token stream
  (``IndexAnalyzer.java:99-100``, ``ReplacersCompiler.java``); for code we
  expand camelCase / snake_case / digit-boundary compounds into sub-tokens
* optional-token marking: bracketed spans (``IndexAnalyzer.java:105-110``),
  lexicon terms (``:80-94``), short tokens (<3 chars, no digit)
  (``IndexAnalyzer.java:19,127-132``)
* ordered de-duplication keeping the first occurrence
  (``IndexAnalyzer.java:122-138``)

Two stock configs:

* :func:`AnalyzerConfig.simple` — lowercase + split on ``[^a-z0-9]+``,
  no expansion / optional marking.  Exactly expressible in ANSI SQL
  (``unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))``), which is
  what the DuckDB correctness oracle uses.
* :func:`AnalyzerConfig.code` — the full chain for source code.

The analyzer is pure Python (no Ray).  It is deliberately cheap to
construct, but stages still build it once per actor / per worker process.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

# Token = (text, optional) — reference: query/IndexAnalyzer.java:38-46
Token = tuple[str, bool]

_CAMEL_RE = re.compile(
    r"[A-Z]+(?=[A-Z][a-z0-9])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+"
)
_BRACKETS_RE = re.compile(r"[\(\[<{]([^\)\]>}]*)[\)\]>}]")


@dataclass(frozen=True)
class AnalyzerConfig:
    """Configuration of the normalization chain (all rules are data)."""

    lowercase: bool = True
    # NFD-fold diacritics (reference M3). Off in the SQL-expressible
    # simple config — SQL lower() does not fold, and folded chars would
    # otherwise split differently than regexp_split_to_array.
    fold_diacritics: bool = False
    # char replaces applied before splitting (reference M5)
    char_replaces: tuple[tuple[str, str], ...] = ()
    # separator class: anything matching is a token boundary (reference M4)
    split_pattern: str = r"[^a-z0-9]+"
    # expand compound identifiers (camelCase/snake_case/digit runs) into
    # sub-tokens appended after the base token (reference M7 analog)
    split_compounds: bool = False
    # tokens shorter than this without digits are optional (reference M4)
    min_required_len: int = 0
    # lexicon of always-optional terms (reference A2 optional-terms)
    optional_terms: frozenset[str] = frozenset()
    # mark bracketed spans optional (reference M4, IndexAnalyzer.java:105-110)
    bracket_optional: bool = False
    # ordered dedup keeping first occurrence (reference M4)
    dedup: bool = True
    # restrict tokens to ASCII alnum (the SQL-expressible semantics);
    # False keeps unicode word chars (reference keeps Cyrillic names)
    ascii_only: bool = True
    # stop terms removed entirely (reference A1 stop-terms; query side only)
    stop_terms: frozenset[str] = frozenset()
    # multi-hop synonym chains a=b=c (reference A2 synonims/*.syn)
    synonyms: tuple[tuple[str, str], ...] = ()
    # replacer rule files (reference M6/M7/M9 — pattern=>template rules,
    # @include tree, charmap transliteration; see functions/replacers.py);
    # paths resolve against the stock config/ dir
    replacer_files: tuple[str, ...] = ()

    @staticmethod
    def from_dict(d: dict) -> "AnalyzerConfig":
        """Rebuild from a manifest dict (inverse of the build's dump)."""
        return AnalyzerConfig(
            lowercase=d["lowercase"],
            fold_diacritics=d["fold_diacritics"],
            char_replaces=tuple(tuple(x) for x in d["char_replaces"]),
            split_pattern=d["split_pattern"],
            split_compounds=d["split_compounds"],
            min_required_len=d["min_required_len"],
            optional_terms=frozenset(d["optional_terms"]),
            bracket_optional=d["bracket_optional"],
            dedup=d["dedup"],
            ascii_only=d["ascii_only"],
            stop_terms=frozenset(d["stop_terms"]),
            synonyms=tuple(tuple(x) for x in d["synonyms"]),
            replacer_files=tuple(d.get("replacer_files", ())),
        )

    @staticmethod
    def simple() -> "AnalyzerConfig":
        """SQL-expressible config used by the DuckDB oracle."""
        return AnalyzerConfig()

    @staticmethod
    def gazetteer() -> "AnalyzerConfig":
        """Gazetteer-style chain with the data-driven replacer packs
        (transliteration, housenumber variants, abbreviations) — the
        closest analog of the reference's full IndexAnalyzer chain."""
        return AnalyzerConfig(
            fold_diacritics=True,
            char_replaces=(("ё", "е"), ("ß", "ss")),
            min_required_len=3,
            bracket_optional=True,
            ascii_only=False,
            optional_terms=frozenset({"the", "a", "an", "of"}),
            replacer_files=("replacers/index.rules",),
        )

    @staticmethod
    def code() -> "AnalyzerConfig":
        """Full chain for source-code corpora."""
        return AnalyzerConfig(
            fold_diacritics=True,
            char_replaces=(("ё", "е"), ("ß", "ss")),
            split_compounds=True,
            min_required_len=3,
            bracket_optional=True,
            ascii_only=False,
            optional_terms=frozenset(
                {"the", "a", "an", "of", "var", "val", "let", "int", "str"}
            ),
        )


class Analyzer:
    """Normalize raw text into an ordered list of ``(token, optional)``.

    Deterministic; identical output on index and query side guarantees
    the query terms hit the same dictionary entries the index produced
    (the property the reference gets by sharing ``IndexAnalyzer``).
    """

    def __init__(self, config: AnalyzerConfig | None = None):
        self.config = config or AnalyzerConfig()
        c = self.config
        self._split_re = re.compile(c.split_pattern)
        self._char_map = str.maketrans({src: dst for src, dst in c.char_replaces})
        self._syn = dict(c.synonyms)
        if c.replacer_files:
            from .replacers import ReplacerSet

            self._replacers = ReplacerSet.load(c.replacer_files)
        else:
            self._replacers = None

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def fold(text: str) -> str:
        """NFD + strip combining marks ("Bebić" → "Bebic")."""
        return "".join(
            ch
            for ch in unicodedata.normalize("NFD", text)
            if unicodedata.category(ch) != "Mn"
        )

    def _synonym(self, token: str) -> str:
        """Multi-hop synonym chase, capped at 10 hops (reference
        ``QueryAnalyzerImpl.java:264-280``)."""
        seen = 0
        while token in self._syn and seen < 10:
            token = self._syn[token]
            seen += 1
        return token

    # -- main entry ------------------------------------------------------

    def tokens(self, text: str) -> list[Token]:
        c = self.config
        if not text:
            return []
        if c.char_replaces:
            text = text.translate(self._char_map)
        if c.fold_diacritics and not text.isascii():
            text = self.fold(text)

        optional_spans: list[tuple[int, int]] = []
        if c.bracket_optional:
            optional_spans = [m.span(1) for m in _BRACKETS_RE.finditer(text)]

        out: list[Token] = []

        def emit(raw: str, start: int) -> None:
            base = raw.lower() if c.lowercase else raw
            in_bracket = any(s <= start < e for s, e in optional_spans)
            subs: list[str] = []
            if c.split_compounds:
                parts = _CAMEL_RE.findall(raw)
                if len(parts) > 1:
                    subs = [p.lower() for p in parts]
            for tok in [base, *subs]:
                tok = self._synonym(tok) if self._syn else tok
                if not tok or tok in c.stop_terms:
                    continue
                optional = (
                    in_bracket
                    or tok in c.optional_terms
                    or (
                        c.min_required_len > 0
                        and len(tok) < c.min_required_len
                        and not any(ch.isdigit() for ch in tok)
                    )
                )
                out.append((tok, optional))
                if self._replacers is not None:
                    # replacer variants append right after the original
                    # (reference IndexAnalyzer.java:99-100); multi-word
                    # templates split into separate tokens
                    for variant in self._replacers.expand(tok):
                        for v in variant.split():
                            if v and v not in c.stop_terms:
                                out.append(
                                    (v, optional or v in c.optional_terms)
                                )

        # Position-aware single pass; offsets are needed for bracket spans.
        # The default separator class (complement of [0-9a-z]) gets a fast
        # finditer path; custom separator sets fall back to re.split.
        if c.split_pattern == r"[^a-z0-9]+":
            if c.split_compounds or not c.ascii_only:
                # words are cut from the case-preserved text and lowered
                # one at a time (emit): str.lower() of a whole text picks
                # Greek final sigma from the neighbouring words
                tok_re = r"[0-9a-zA-Z]+" if c.ascii_only else r"[^\W_]+"
                for m in re.finditer(tok_re, text):
                    emit(m.group(0), m.start())
            else:
                src = text.lower() if c.lowercase else text
                for m in re.finditer(r"[0-9a-z]+", src):
                    emit(m.group(0), m.start())
        else:
            src = text.lower() if c.lowercase else text
            pos = 0
            for tok in self._split_re.split(src):
                if tok:
                    start = src.find(tok, pos)
                    emit(tok, start)
                    pos = start + len(tok)

        if c.dedup:
            seen: dict[str, int] = {}
            deduped: list[Token] = []
            for tok, opt in out:
                if tok in seen:
                    # keep first occurrence; required wins over optional
                    i = seen[tok]
                    if not opt and deduped[i][1]:
                        deduped[i] = (tok, False)
                    continue
                seen[tok] = len(deduped)
                deduped.append((tok, opt))
            out = deduped
        return out

    def terms(self, text: str) -> list[str]:
        """Token texts only (optional flags dropped)."""
        return [t for t, _ in self.tokens(text)]

    def term_freqs(self, text: str) -> dict[str, int]:
        """Term → frequency over the *non-deduped* token stream.

        BM25 tf counts every occurrence, so dedup is bypassed here; the
        dedup rule only affects the ordered token list (used for
        field-array emission in the reference — ``AddrRowWrapper.java:344-355``).
        """
        if self.config.dedup:
            if not hasattr(self, "_nodedup"):
                cfg = AnalyzerConfig(**{**self.config.__dict__, "dedup": False})
                self._nodedup = Analyzer(cfg)
            a: Analyzer = self._nodedup
        else:
            a = self
        freqs: dict[str, int] = {}
        for tok, _ in a.tokens(text):
            freqs[tok] = freqs.get(tok, 0) + 1
        return freqs


def load_analyzer_config(path_or_name: str) -> AnalyzerConfig:
    """Load an AnalyzerConfig from a JSON rule file.

    Mirrors the reference's config-as-data extensibility
    (``config/QueryAnalizer.json`` + synonym/optional/stop term files +
    replacer rule tree, SURVEY.md §2.6): rules ship as data, the engine
    compiles them once per worker.  ``path_or_name`` is a file path or
    one of the stock names under ``gazetteer_search_ray/config/``
    ("code", "simple").
    """
    import json
    import os

    if not os.path.exists(path_or_name):
        here = os.path.join(os.path.dirname(os.path.dirname(__file__)), "config")
        cand = os.path.join(here, f"analyzer_{path_or_name}.json")
        if os.path.exists(cand):
            path_or_name = cand
    with open(path_or_name) as f:
        return AnalyzerConfig.from_dict(json.load(f))
