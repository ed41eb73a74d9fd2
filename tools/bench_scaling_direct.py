"""Direct-pipeline build-scaling probe: the two-parallelism-level
evidence for the north rule's two-cluster-size criterion, without the
bench-harness overhead (corpus synthesis, query replay) that the plain
``bench.py --scaling`` legs carry.

Protocol (matches BENCH_scaling_r5_runL/N and the 5.12M runO):
interleaved fresh-process legs -- lo,hi,lo,hi,... -- over ONE prebuilt
corpus directory, so co-tenant load drifts hit both levels evenly.
Each leg: ``ray.init(num_cpus=n)`` in a fresh process, one warm-up
``count()`` over the corpus (page-cache prime, untimed), then a timed
``build_index`` run.  Best-of per level is the capacity signal on a
shared VM (single legs vary ~3x with neighbor load); within-run pairs
are also reported so a contended window is visible, not averaged away.

Usage::

    python tools/bench_scaling_direct.py CORPUS_DIR [lo] [hi] [pairs]

Writes one JSON line to stdout; per-leg lines stream to stderr.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import textwrap

LEG_SRC = textwrap.dedent(
    """
    import json, sys, time
    sys.path.insert(0, {repo!r})
    ncpu = int(sys.argv[1]); corpus = sys.argv[2]
    import ray
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    import logging
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
    from gazetteer_search_ray.pipelines.build_index import (
        BuildOptions, build_index)
    from gazetteer_search_ray.sources.corpus import read_corpus
    n_docs = read_corpus(corpus).count()  # warms page cache, untimed
    t0 = time.monotonic()
    build_index(read_corpus(corpus), sys.argv[3],
                BuildOptions(analyzer_config=AnalyzerConfig.code()))
    dt = time.monotonic() - t0
    print(json.dumps({{"ncpu": ncpu, "docs": n_docs, "sec": round(dt, 2),
                       "docs_per_sec": round(n_docs / dt, 1)}}))
    ray.shutdown()
    """
)


def run_leg(leg_path: str, ncpu: int, corpus: str, scratch: str) -> dict:
    out = subprocess.run(
        [sys.executable, leg_path, str(ncpu), corpus,
         os.path.join(scratch, f"idx_{ncpu}")],
        capture_output=True, text=True, check=True)
    line = out.stdout.strip().splitlines()[-1]
    rec = json.loads(line)
    with open("/proc/loadavg") as f:
        rec["loadavg_after"] = float(f.read().split()[0])
    print(json.dumps(rec), file=sys.stderr, flush=True)
    return rec


def main() -> None:
    corpus = sys.argv[1]
    lo = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    hi = int(sys.argv[3]) if len(sys.argv) > 3 else 16
    pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 2
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory(prefix="gsr_scaling_") as scratch:
        leg_path = os.path.join(scratch, "leg.py")
        with open(leg_path, "w") as f:
            f.write(LEG_SRC.format(repo=repo))
        lo_runs, hi_runs = [], []
        for _ in range(pairs):
            lo_runs.append(run_leg(leg_path, lo, corpus, scratch))
            hi_runs.append(run_leg(leg_path, hi, corpus, scratch))
    lo_tp = [r["docs_per_sec"] for r in lo_runs]
    hi_tp = [r["docs_per_sec"] for r in hi_runs]
    factor = hi / lo
    print(json.dumps({
        "metric": f"scaling_{lo}_to_{hi}_cpus_direct_pipeline",
        "corpus_docs": lo_runs[0]["docs"],
        "protocol": (
            f"interleaved {lo},{hi} fresh-process legs x{pairs} over one "
            "prebuilt corpus; build_index only; best-of per level"),
        f"build_docs_per_sec_{lo}_runs": lo_tp,
        f"build_docs_per_sec_{hi}_runs": hi_tp,
        f"build_docs_per_sec_{lo}_best": max(lo_tp),
        f"build_docs_per_sec_{hi}_best": max(hi_tp),
        "build_scaling_efficiency_best":
            round(max(hi_tp) / max(lo_tp) / factor, 3),
        "build_scaling_efficiency_within_run_pairs": [
            round(h / l / factor, 3) for l, h in zip(lo_tp, hi_tp)],
    }))


if __name__ == "__main__":
    main()
