"""Run context shared by the workloads: scratch space, Ray lifetime,
child processes, host diagnostics and small measurement helpers."""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)      # name -> value
    layers: dict = field(default_factory=dict)   # name -> (value, unit, n)
    report: dict = field(default_factory=dict)   # printed, not gated
    trace_file: str | None = None
    errors: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)
            print(f"check failed: {why}", file=sys.stderr)


def _cpu_ticks(cpu: int) -> tuple[int, int]:
    """(steal, total) jiffies of one CPU from /proc/stat."""
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith(f"cpu{cpu} "):
                vals = [int(x) for x in line.split()[1:]]
                return (vals[7] if len(vals) > 7 else 0), sum(vals[:8])
    return 0, 0


def _ppids() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    # the command name may hold spaces; ppid follows ")"
                    out[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    return out


def _descendants(pid: int) -> set[int]:
    ppid = _ppids()
    out, todo = set(), [pid]
    while todo:
        p = todo.pop()
        kids = [c for c, pp in ppid.items() if pp == p]
        out.update(kids)
        todo.extend(kids)
    return out


def _alive(pid: int) -> bool:
    """True until ``pid`` has exited (a zombie counts as ended)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    return time.perf_counter() - t0


# Host-speed scaling (README.md, "Host-speed scaling").  On a shared VM
# the same code runs up to ~1.6x slower for seconds to minutes at a
# time, in CPU time too, so medians within a run cannot remove it.
# Timed work is therefore multiplied by REF_WORK_S / (the CPU time of a
# fixed piece of reference work, run on the same CPU at about the same
# moment), and reads as on a host where that work takes REF_WORK_S.
# The reference work mixes an integer loop, dict and str operations and
# a numpy sort in about equal shares: the mix tracked the engine's query
# cost better than the integer loop alone (over 12-s blocks of a query
# loop, block-median spread 0.05 against 0.10; 0.22 unscaled).
REF_WORK_S = 0.0035      # the mix's median on the 4-vCPU VM of README.md
_REF_WORDS = [str(i) for i in range(7_000)]
_REF_ARRAY = np.random.default_rng(0).integers(0, 1 << 40, 100_000)


def host_scale() -> float:
    """REF_WORK_S over the reference work's CPU time right now: multiply
    a time by this (divide a rate) to read it at reference speed."""
    t0 = time.thread_time()
    acc = 0
    for i in range(23_000):
        acc += i & 7
    d: dict[str, int] = {}
    for w in _REF_WORDS:
        d[w] = d.get(w, 0) + len(w)
    " ".join(_REF_WORDS).split()
    np.sort(_REF_ARRAY)
    return REF_WORK_S / (time.thread_time() - t0)


def window_scales(marks: list[float], window: list[int]) -> list[float]:
    """Per item, the mean of the scales measured before and after its
    window (``marks`` holds one more scale than there are windows)."""
    return [(marks[w] + marks[w + 1]) / 2 for w in window]


class ScaleSampler:
    """``host_scale`` every 0.1 s in a background thread, for work that
    runs in other processes (Ray's) while this one waits.  It costs
    ~3.5% of the CPU, the same on every run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(0.1):
            self.samples.append((time.perf_counter(), host_scale()))

    def over(self, t0: float, t1: float) -> float:
        """Mean scale of the samples taken from ``t0`` to ``t1``."""
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        return sum(inside) / len(inside) if inside else host_scale()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


class Context:
    def __init__(self, root: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.base = os.path.join(root, ".perfbench")
        self.work = os.path.join(self.base, f"run-{os.getpid()}")
        os.makedirs(self.work)
        self.trace_dir = os.path.join(self.base, "traces")
        self._procs: list[subprocess.Popen] = []
        self._ray = False
        self._ray_pids: set[int] = set()
        self.ray_tmp = os.path.join(self.base, f"r{os.getpid()}")
        # queries, and any Ray work that is scaled, run on one CPU (see
        # pin); steal is read there
        self.cpu = max(os.sched_getaffinity(0))
        self._ticks0 = _cpu_ticks(self.cpu)
        self.calib_s = calibrate()
        # Ray workers import the engine from the checkout, whatever
        # their working directory
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [root] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    # -- Ray ---------------------------------------------------------------

    def pin(self) -> None:
        """Confine this process and every child it starts from now on
        (Ray, the server, the query probes) to one CPU: the load is
        sized for one core, one run queue keeps cross-CPU wake-ups out
        of the timings, and ``host_scale`` then runs on the CPU whose
        speed it corrects for."""
        os.sched_setaffinity(0, {self.cpu})

    def ray_start(self) -> None:
        import ray

        kw = {}
        # Ray's socket paths (<temp>/session_<date>_<pid>/sockets/...) must
        # fit in 107 bytes; a deep checkout falls back to Ray's default
        if len(self.ray_tmp) <= 43:
            kw["_temp_dir"] = self.ray_tmp
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=300 * 1024 * 1024, **kw)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        self._ray = True

    def ray_shutdown(self) -> None:
        """``ray.shutdown()``; the processes Ray started may still be
        exiting when it returns (``ray_stop`` waits for them)."""
        if not self._ray:
            return
        import ray

        self._ray_pids = (_descendants(os.getpid())
                          - {p.pid for p in self._procs})
        ray.shutdown()
        self._ray = False

    def ray_stop(self) -> None:
        """Stop Ray and wait until every process it started has ended,
        so none is left competing for the CPU; then ``pin``."""
        self.ray_shutdown()
        self.pin()
        started, self._ray_pids = self._ray_pids, set()
        deadline = time.monotonic() + 15
        while started:
            started = {p for p in started if _alive(p)}
            if started and time.monotonic() > deadline:
                for p in started:
                    try:
                        os.kill(p, 9)
                    except ProcessLookupError:
                        pass
                deadline = float("inf")
            time.sleep(0.05)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)

    # -- children ------------------------------------------------------------

    def spawn(self, *args: str, stdin=None, stdout=None) -> subprocess.Popen:
        p = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                              *args], stdin=stdin, stdout=stdout, text=True)
        self._procs.append(p)
        return p

    def probe(self, spec: dict, trace: bool, tag: str) -> dict:
        """Run the query probe child on ``spec``; its decoded output."""
        spec_path, out = self.path(f"{tag}-spec.json"), self.path(f"{tag}.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        p = self.spawn("probe", spec_path, out, "1" if trace else "0")
        if p.wait(timeout=150) != 0:
            raise RuntimeError(f"query probe exited with {p.returncode}")
        with open(out) as f:
            return json.load(f)

    def close(self) -> None:
        for p in self._procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        self.ray_stop()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- host ------------------------------------------------------------------

    def host_report(self) -> dict:
        s1, t1 = _cpu_ticks(self.cpu)
        s0, t0 = self._ticks0
        steal = 100.0 * (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0
        return {"host.steal_pct": (steal, "%", t1 - t0),
                "host.calib_s": (self.calib_s, "s", 1),
                "host.cpu": (self.cpu, "id", 1)}

    def save_trace(self, name: str, payload: dict) -> str:
        os.makedirs(self.trace_dir, exist_ok=True)
        path = os.path.join(self.trace_dir, f"{name}-seed{self.seed}.json")
        with open(path, "w") as f:
            json.dump(payload, f)
        return os.path.relpath(path, self.root)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def dictionary(index_dir: str) -> tuple[list[str], np.ndarray]:
    """(terms, df) of a committed index, read from its postings files."""
    import pyarrow.parquet as pq

    man = json.load(open(os.path.join(index_dir, "_manifest.json")))
    segs = man.get("segments") or ["."]
    df: dict[str, int] = {}
    for s in segs:
        pdir = os.path.join(index_dir, s, "postings")
        for f in sorted(os.listdir(pdir)):
            if f.endswith(".parquet"):
                t = pq.read_table(os.path.join(pdir, f), columns=["term", "df"])
                for term, d in zip(t["term"].to_pylist(), t["df"].to_pylist()):
                    df[term] = df.get(term, 0) + d
    terms = sorted(df)
    return terms, np.array([df[t] for t in terms], dtype=np.int64)


def tree_bytes(path: str, sub: str | None = None) -> int:
    """Bytes of the regular files under ``path`` (only in directories
    named ``sub`` when given)."""
    total = 0
    for d, _dirs, files in os.walk(path):
        if sub is None or os.path.basename(d) == sub:
            total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def file_state(path: str) -> dict:
    out = {}
    for d, _dirs, files in os.walk(path):
        for f in files:
            p = os.path.join(d, f)
            st = os.stat(p)
            out[p] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return out


def written_bytes(before: dict, after: dict) -> int:
    """Bytes of files that are new or rewritten between two states."""
    return sum(v[0] for p, v in after.items() if before.get(p) != v)


def pct(values, q: float) -> float:
    """The ``q``-th percentile; 0 for a layer that saw no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return pct(values, 50)
