"""gazetteer_search_ray — a Ray-Data-native inverted-index + BM25 engine.

A from-scratch reimplementation of the observable semantics of
kiselev-dv/gazetteer-search's ElasticSearch-backed search core
(see SURVEY.md): gazetteer-style analyzers feeding an explicit inverted
index built with ``ray.data`` (``map_batches`` over zero-copy Arrow
batches, a ``groupby(term)``-equivalent sort exchange, postings of block-packed doc
ordinals + varbyte tfs with block-max skip metadata) and a block-max
dynamic-pruning BM25 (k1=1.2, b=0.75) top-k query layer, over Parquet
corpora of source-code files ``(repo, path, commit, lang, content)``.

Nothing in this package calls ``ray.init()`` / ``ray.shutdown()`` —
sessions are owned by the caller (driver, tests, bench.py).
"""

__version__ = "0.1.0"
