"""Hypothesis property tests for the pure round-3 kernels: union-find
labels, Misra-Gries summaries and the ragged-range emitter — all
driver-free and Ray-free, so hypothesis can hammer shapes the
handwritten tests don't reach."""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gazetteer_search_ray.functions.sketch import mg_merge, mg_truncate
from gazetteer_search_ray.pipelines.dedup import union_find_labels
from gazetteer_search_ray.pipelines.interval import _ragged_ranges

edges = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=80)


@settings(max_examples=60, deadline=None)
@given(edges)
def test_union_find_matches_bfs(pairs):
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    nodes, labels = union_find_labels(arr)
    # brute: BFS components
    adj: dict[int, set[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {}
    for start in sorted(adj):
        if start in want:
            continue
        comp, stack = set(), [start]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        m = min(comp)
        for x in comp:
            want[x] = m
    got = dict(zip(nodes.tolist(), labels.tolist()))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=400),
       st.integers(1, 12), st.integers(1, 5))
def test_misra_gries_merge_bound(stream, cap, nparts):
    true = Counter(stream)
    chunks = np.array_split(np.array(stream, dtype=object), nparts)
    parts = []
    for ch in chunks:
        c = Counter(ch.tolist())
        items = np.asarray(sorted(c), dtype=object)
        counts = np.array([c[t] for t in items], dtype=np.int64)
        parts.append(mg_truncate(items, counts, cap))
    mi, mc = mg_merge(parts, cap)
    got = dict(zip(mi.tolist(), mc.tolist()))
    # counts never exceed truth; undercount bounded by parts*N/(cap+1)
    # (each truncation can subtract at most N_part/(cap+1) per item)
    for t, f in true.items():
        c = got.get(t, 0)
        assert 0 <= c <= f
        assert f - c <= len(stream) / (cap + 1) + nparts * (
            len(stream) / nparts) / (cap + 1) + nparts
    assert len(mi) <= cap


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(-3, 50)),
                max_size=40))
def test_ragged_ranges(bounds):
    lo = np.array([b[0] for b in bounds], dtype=np.int64)
    hi = lo + np.array([b[1] for b in bounds], dtype=np.int64)
    idx, rep = _ragged_ranges(lo, hi)
    want_idx, want_rep = [], []
    for i, (l, h) in enumerate(zip(lo, hi)):
        for v in range(l, max(l, h)):
            want_idx.append(v)
            want_rep.append(i)
    assert idx.tolist() == want_idx
    assert rep.tolist() == want_rep
