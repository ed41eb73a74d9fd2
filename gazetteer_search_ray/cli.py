"""Command-line entry points — the reference's command surface
(``GazetteerSearch.main``: ``import``, ``serve``, ``geocode-csv``,
``count-streets-refs`` — ``GazetteerSearch.java:27-66``) re-expressed:

    python -m gazetteer_search_ray.cli import  --input DIR --index DIR [--partitions N]
    python -m gazetteer_search_ray.cli search  --index DIR --q "..." [--k 20] [--prefix]
    python -m gazetteer_search_ray.cli geocode-csv --index DIR --queries FILE --out DIR
    python -m gazetteer_search_ray.cli backfill-ref-count --index DIR --fact FILE \
        --fact-key COL   (count-streets-refs analog)

The CLI owns its Ray session (the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_import(args):
    from .functions.analyzer import AnalyzerConfig
    from .pipelines.build_index import (
        BuildOptions,
        build_index,
        build_index_partitioned,
    )
    from .sources.corpus import read_corpus

    if args.update:
        import pyarrow.parquet as pq
        import ray.data as rd

        from .pipelines.maintenance import update_index

        first = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
        has_ids = first and "doc_id" in pq.read_schema(first[0]).names
        # updates that already carry doc_id (the replace-by-id form) read
        # as-is; corpus-shaped input goes through the id-assigning reader
        ds = rd.read_parquet(args.input) if has_ids else read_corpus(args.input)
        man = update_index(args.index, ds)
        print(json.dumps({k: man[k] for k in ("n_docs", "total_tokens", "avgdl",
                                              "import_counter")}))
        return
    opts = BuildOptions(
        analyzer_config=(
            AnalyzerConfig.code() if args.analyzer == "code" else AnalyzerConfig.simple()
        ),
        num_doc_shards=args.doc_shards,
    )
    if args.partitions > 1:
        files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
        man = build_index_partitioned(
            files, args.index, opts, num_partitions=args.partitions,
            resume=not args.no_resume,
        )
    else:
        man = build_index(read_corpus(args.input), args.index, opts)
    print(json.dumps({k: man[k] for k in ("n_docs", "total_tokens", "avgdl")}))


def cmd_search(args):
    from .pipelines.search import Searcher

    s = Searcher(args.index)
    hits = s.search(
        args.q, k=args.k, prefix=args.prefix,
        filters={"lang": args.lang} if args.lang else None,
        use_prior=args.prior, trim=args.trim, verbose=args.verbose,
    )
    for h in hits:
        print(json.dumps(h, default=str))


def cmd_geocode_csv(args):
    import ray.data as rd

    from .pipelines.geocode import mass_eval

    qds = rd.read_csv(args.queries)
    summary = mass_eval(qds, args.index, out_dir=args.out, k=args.k)
    print(json.dumps(summary))


def cmd_serve(args):
    from .server import serve

    serve(args.index, port=args.port, pool_size=args.pool_size,
          use_prior=args.prior)


def cmd_backfill_ref_count(args):
    import ray.data as rd

    from .pipelines.maintenance import backfill_column

    fact = rd.read_parquet(args.fact, columns=[args.fact_key])
    from ray.data.aggregate import Count

    counts = fact.groupby(args.fact_key).aggregate(Count(alias_name="n")).to_pandas()
    touched = backfill_column(
        args.index,
        dict(zip(counts[args.fact_key].astype(int), counts["n"].astype(int))),
        args.column,
    )
    print(json.dumps({"rows_touched": touched}))


def main(argv=None):
    p = argparse.ArgumentParser(prog="gazetteer_search_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    pi = sub.add_parser("import")
    pi.add_argument("--input", required=True)
    pi.add_argument("--index", required=True)
    pi.add_argument("--partitions", type=int, default=1)
    pi.add_argument("--doc-shards", type=int, default=1)
    pi.add_argument("--analyzer", choices=["code", "simple"], default="code")
    pi.add_argument("--no-resume", action="store_true")
    pi.add_argument("--update", action="store_true",
                    help="incremental update: delete incoming ids, add segment "
                         "(reference --update mode)")
    pi.set_defaults(fn=cmd_import)

    ps = sub.add_parser("search")
    ps.add_argument("--index", required=True)
    ps.add_argument("--q", required=True)
    ps.add_argument("--k", type=int, default=20)
    ps.add_argument("--prefix", action="store_true")
    ps.add_argument("--lang")
    ps.add_argument("--prior", action="store_true")
    ps.add_argument("--trim", action="store_true")
    ps.add_argument("--verbose", action="store_true")
    ps.set_defaults(fn=cmd_search)

    pg = sub.add_parser("geocode-csv")
    pg.add_argument("--index", required=True)
    pg.add_argument("--queries", required=True)
    pg.add_argument("--out", default=None)
    pg.add_argument("--k", type=int, default=10)
    pg.set_defaults(fn=cmd_geocode_csv)

    pv = sub.add_parser("serve")
    pv.add_argument("--index", required=True)
    pv.add_argument("--port", type=int, default=8080)
    pv.add_argument("--pool-size", type=int, default=1)
    pv.add_argument("--prior", action="store_true")
    pv.set_defaults(fn=cmd_serve)

    pb = sub.add_parser("backfill-ref-count")
    pb.add_argument("--index", required=True)
    pb.add_argument("--fact", required=True)
    pb.add_argument("--fact-key", required=True)
    pb.add_argument("--column", default="ref_count")
    pb.set_defaults(fn=cmd_backfill_ref_count)

    args = p.parse_args(argv)
    ray = _init_ray(args.num_cpus)
    try:
        args.fn(args)
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
