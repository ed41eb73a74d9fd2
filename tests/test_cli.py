"""CLI end to end: ``import``, ``import --partitions``, ``import
--update``, ``search`` and ``serve``.

Each command runs in a subprocess because ``cli.main`` owns its Ray
session and shuts it down on exit.
"""

from __future__ import annotations

import json
import select
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from gazetteer_search_ray.sources.corpus import CORPUS_COLUMNS

REPO = Path(__file__).resolve().parent.parent


def _corpus(dirpath: Path, rows: list[dict]) -> str:
    dirpath.mkdir(parents=True)
    pq.write_table(pa.table({c: [r[c] for r in rows] for c in CORPUS_COLUMNS}),
                   dirpath / "part-0.parquet")
    return str(dirpath)


def _cli(*args: str) -> list[dict]:
    out = subprocess.run(
        [sys.executable, "-m", "gazetteer_search_ray.cli", "--num-cpus", "1",
         *args],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return [json.loads(line) for line in out.stdout.splitlines()
            if line.startswith("{")]


def test_import_update_search(tmp_path):
    base = [
        {"repo": "r", "path": f"src/f{i}.py", "commit": "c0", "lang": "python",
         "content": f"def handler_{i}(request): return parse_body(request)"}
        for i in range(8)
    ]
    planted = {"repo": "r", "path": "src/planted.py", "commit": "c1",
               "lang": "python", "content": "def zebraquokka(): pass"}
    index = str(tmp_path / "index")

    (man,) = _cli("import", "--input", _corpus(tmp_path / "base", base),
                  "--index", index)
    assert man["n_docs"] == 8
    assert _cli("search", "--index", index, "--q", "zebraquokka") == []

    (man,) = _cli("import", "--update",
                  "--input", _corpus(tmp_path / "upd", [planted]),
                  "--index", index)
    assert man["n_docs"] == 9

    hits = _cli("search", "--index", index, "--q", "zebraquokka")
    assert len(hits) == 1
    assert hits[0]["path"] == "src/planted.py"


def _files(root: str) -> dict:
    """Every file under ``root``: its modification time and bytes."""
    out = {}
    for p in Path(root).rglob("*"):
        if p.is_file():
            out[str(p.relative_to(root))] = (p.stat().st_mtime_ns,
                                              p.read_bytes())
    return out


def test_partitioned_import_resumes_and_matches_plain(tmp_path):
    """``import --partitions 2`` run twice rebuilds nothing the second
    time, and ``search`` over it returns the plain import's hits."""
    docs = [{"repo": "r", "path": f"src/f{i}.py", "commit": "c0",
             "lang": "python",
             "content": f"def handler_{i}(request): return parse_body("
                        f"{'request, ' * (i % 3)}zebra{i % 4})"}
            for i in range(10)]
    src = tmp_path / "src"
    src.mkdir()
    for k in range(2):
        pq.write_table(pa.table({c: [r[c] for r in docs[k::2]]
                                 for c in CORPUS_COLUMNS}),
                       src / f"part-{k}.parquet")
    parts, plain = str(tmp_path / "parts"), str(tmp_path / "plain")
    args = ("import", "--input", str(src), "--index", parts,
            "--partitions", "2")
    (man,) = _cli(*args)
    assert man["n_docs"] == len(docs)
    before = _files(parts)
    assert _cli(*args) == [man]
    assert _files(parts) == before

    _cli("import", "--input", str(src), "--index", plain)
    for q in ("request zebra1", "parse_body handler_3"):
        hits = _cli("search", "--index", parts, "--q", q)
        assert hits and hits == _cli("search", "--index", plain, "--q", q), q


def test_serve_through_pool(tmp_path):
    """``serve --pool-size 2`` on two CPUs answers through the actor
    pool; on one CPU the same pool is refused at start, where it used to
    leave one worker pending and every request sent to it unanswered."""
    docs = [{"repo": "r", "path": f"src/f{i}.py", "commit": "c0",
             "lang": "python", "content": f"def zebraquokka_{i}(): pass"}
            for i in range(4)]
    index = str(tmp_path / "index")
    _cli("import", "--input", _corpus(tmp_path / "c", docs), "--index", index)

    cmd = [sys.executable, "-m", "gazetteer_search_ray.cli", "--num-cpus"]
    refused = subprocess.run(
        [*cmd, "1", "serve", "--index", index, "--port", "0",
         "--pool-size", "2"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert refused.returncode != 0
    assert "CPUs" in refused.stderr

    proc = subprocess.Popen(
        [*cmd, "2", "serve", "--index", index, "--port", "0",
         "--pool-size", "2"],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 300)
        assert ready, "serve printed no address"
        info = json.loads(proc.stdout.readline())
        assert info["pool_size"] == 2
        for _ in range(4):  # round-robin reaches both workers
            with urllib.request.urlopen(
                    info["serving"] + "/location/_search?q=def", timeout=60) as r:
                body = json.loads(r.read())
            assert body["total_hits"] == 4
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
