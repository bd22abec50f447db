"""Seeded inputs of the three workloads.

The graphs are the program's registry proxies at their registry seed,
so every ``--seed`` runs on the same graph; the seed drives everything
the workload feeds them: job sources and edge weights, the query
stream, and the update streams.  The parent process writes the inputs
before any program process starts, so their cost is neither timed nor
counted in a program process's memory.

Update streams are *churn windows*: batch ``i`` inserts ``k`` fresh
non-edges ``I_i`` plus the base edges ``D_{i-1}`` the previous batch
deleted, and deletes ``k`` base edges ``D_i`` plus the previous batch's
``I_{i-1}``.  Every epoch's graph is therefore the base graph minus
``D_i`` plus ``I_i``: the stream is stationary, so a long run costs the
same per operation as a short one, and a stream of ``L`` windows can be
replayed cyclically (``I_{L-1}`` and ``I_0`` are disjoint, as are
``D_{L-1}`` and ``D_0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: (proxy, scale) of each workload's graph.
GRAPHS = {
    "job-pld": ("pld", 4.0),
    "serve-mixed": ("wiki", 1.0),
    "update-rescore": ("pld", 1.0),
}

#: job-pld: BFS and SSSP sources per job, distinct jobs before reuse.
JOB_BFS_SOURCES = 2
JOB_SSSP_SOURCES = 2
JOB_CYCLE = 64
#: SSSP edge weights are drawn uniformly from [1, 10).
WEIGHT_RANGE = (1.0, 10.0)

#: serve-mixed round: queries, then one update per UPDATE_EVERY
#: completed queries, then the probe burst.
QUERIES_PER_ROUND = 240
UPDATE_EVERY = 48
SERVE_WINDOW_EDGES = 16  # k of the churn window (batch = 4k edges)
SERVE_CYCLE_ROUNDS = 64
MAX_QUERY_SOURCES = 3
#: the probe burst: max_batch requests, one source out of range.  Fixed,
#: not seeded: the probe must fail identically on every seed.
BURST_SOURCES = [[1], [2], [3], [4], [5], [6], [7], [10**12]]

#: update-rescore round: batches, then the probe.  The class-churn
#: threshold trips every 10 to 20 batches, so a run of at least
#: MIN_RESCORE_ROUNDS rounds rebuilds the layout at least once.
BATCHES_PER_ROUND = 8
MIN_RESCORE_ROUNDS = 4
RESCORE_WINDOW_EDGES = 64  # batch = 4k = 256 edge operations
RESCORE_CYCLE = 512
#: residual tolerance of delta rescoring, and its iteration cap.
RESCORE_TOLERANCE = 1e-6
RESCORE_MAX_ITERATIONS = 100


def write_graph(workload: str, out: Path) -> Path:
    """Build the workload's proxy graph and write it as a CSR binary."""
    from repro.graphs.datasets import dataset_spec
    from repro.graphs.io import save_csr

    name, scale = GRAPHS[workload]
    graph = dataset_spec(name).build(scale, 7)
    path = out / f"{name}-x{scale:g}.csr.npz"
    save_csr(graph, path)
    return path


def read_edges(path: Path) -> tuple[int, np.ndarray, np.ndarray]:
    """``(num_nodes, src, dst)`` of a CSR binary, read with NumPy alone."""
    with np.load(path) as data:
        indptr = data["indptr"].astype(np.int64)
        dst = data["indices"].astype(np.int64)
        n = int(data["num_nodes"])
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return n, src, dst


def _sample_non_edges(rng, n, base_keys, count, exclude) -> np.ndarray:
    """``count`` distinct non-loop keys absent from ``base_keys`` and
    ``exclude`` (both sorted)."""
    got = np.empty(0, dtype=np.int64)
    while got.size < count:
        pairs = rng.integers(0, n, size=(2 * count, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        cand = pairs[:, 0] * n + pairs[:, 1]
        cand = cand[~_member(cand, base_keys) & ~_member(cand, exclude)]
        cand = cand[~_member(cand, np.sort(got))]
        _, first = np.unique(cand, return_index=True)
        got = np.concatenate([got, cand[np.sort(first)]])
    return got[:count]


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def churn_windows(rng, n, src, dst, windows, k):
    """``(I, D)``: ``windows x k`` insert and delete keys of a cyclic
    churn-window stream (see the module docstring)."""
    base = src * n + dst
    uniq, counts = np.unique(base, return_counts=True)
    single = uniq[counts == 1]  # a delete removes the only copy
    ins = np.empty((windows, k), dtype=np.int64)
    dels = np.empty((windows, k), dtype=np.int64)
    for i in range(windows):
        prev_i = ins[i - 1] if i else np.empty(0, np.int64)
        prev_d = dels[i - 1] if i else np.empty(0, np.int64)
        if i == windows - 1:  # the cycle closes onto window 0
            prev_i = np.concatenate([prev_i, ins[0]])
            prev_d = np.concatenate([prev_d, dels[0]])
        ins[i] = _sample_non_edges(rng, n, uniq, k, np.sort(prev_i))
        pool = single[~_member(single, np.sort(prev_d))]
        dels[i] = pool[rng.choice(pool.size, size=k, replace=False)]
    return ins, dels


def window_batch(ins, dels, epoch: int, n: int):
    """Endpoint arrays ``(ins_src, ins_dst, del_src, del_dst)`` of the
    batch that takes the stream from ``epoch - 1`` to ``epoch``."""
    windows = ins.shape[0]
    cur = (epoch - 1) % windows
    add = ins[cur]
    drop = dels[cur]
    if epoch >= 2:
        prev = (epoch - 2) % windows
        add = np.concatenate([add, dels[prev]])
        drop = np.concatenate([drop, ins[prev]])
    return (
        (add // n).astype(np.int32),
        (add % n).astype(np.int32),
        (drop // n).astype(np.int32),
        (drop % n).astype(np.int32),
    )


@dataclass
class Inputs:
    """Paths of one run's inputs."""

    graph: Path
    arrays: Path


def write_inputs(workload: str, seed: int, out: Path) -> Inputs:
    """Write the graph and the seeded streams of one run to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    graph = write_graph(workload, out)
    n, src, dst = read_edges(graph)
    rng = np.random.default_rng([seed, 0x5EED])
    arrays: dict[str, np.ndarray] = {}
    if workload == "job-pld":
        has_out = np.flatnonzero(np.bincount(src, minlength=n) > 0)
        arrays["bfs_sources"] = rng.choice(
            has_out, size=(JOB_CYCLE, JOB_BFS_SOURCES)
        )
        arrays["sssp_sources"] = rng.choice(
            has_out, size=(JOB_CYCLE, JOB_SSSP_SOURCES)
        )
        arrays["weights"] = rng.uniform(*WEIGHT_RANGE, size=src.size)
    elif workload == "serve-mixed":
        count = SERVE_CYCLE_ROUNDS * QUERIES_PER_ROUND
        sizes = rng.integers(1, MAX_QUERY_SOURCES + 1, size=count)
        sources = rng.integers(0, n, size=(count, MAX_QUERY_SOURCES))
        sources[np.arange(MAX_QUERY_SOURCES)[None, :] >= sizes[:, None]] = -1
        arrays["query_sources"] = sources
        windows = SERVE_CYCLE_ROUNDS * (QUERIES_PER_ROUND // UPDATE_EVERY)
        arrays["ins"], arrays["dels"] = churn_windows(
            rng, n, src, dst, windows, SERVE_WINDOW_EDGES
        )
    elif workload == "update-rescore":
        arrays["ins"], arrays["dels"] = churn_windows(
            rng, n, src, dst, RESCORE_CYCLE, RESCORE_WINDOW_EDGES
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = out / "streams.npz"
    np.savez(path, num_nodes=np.int64(n), **arrays)
    return Inputs(graph, path)
