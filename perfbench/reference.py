"""Independent SciPy references for the benchmark's output checks.

Nothing here imports the program: every reference is computed from the
edge list alone with ``scipy.sparse`` / ``scipy.sparse.csgraph``, in
the program's documented formulation, so a check compares two
computations made apart.

PageRank formulation (``repro.algorithms.pagerank``): damped, no
dangling-mass redistribution, ``x' = (1 - d) / n + d * A^T (x / out)``.
Nodes without in-edges (seeds and isolated nodes) start at their fixed
point ``(1 - d) / n``, every other node at ``1 / n``.  Personalized
PageRank teleports ``(1 - d) / |S|`` onto each source of ``S`` and
starts every node at its teleport mass.  The fixed-iteration runs of
the engine iterate nodes with in- and out-edges ``k`` times; nodes with
in-edges but no out-edges (sinks) feed nobody, so the engine pulls them
once from the final values -- one step after the rest.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

DAMPING = 0.85


def adjacency(num_nodes: int, src, dst, weights=None) -> sp.csr_matrix:
    """``A[u, v]`` = summed weight (default: multiplicity) of u -> v."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    data = (
        np.ones(src.size, dtype=np.float64)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    a = sp.coo_matrix((data, (src, dst)), shape=(num_nodes, num_nodes))
    return a.tocsr()


def _operator(a: sp.csr_matrix):
    """``(A^T, 1 / out_degree or 0, sink mask)`` of one adjacency."""
    out = np.asarray(a.sum(axis=1)).ravel()
    inn = np.asarray(a.sum(axis=0)).ravel()
    inv = np.zeros_like(out)
    inv[out > 0] = 1.0 / out[out > 0]
    sinks = (inn > 0) & (out == 0)
    return a.T.tocsr(), inv, sinks, inn


def _fixed_steps(at, inv, sinks, teleport, x, iterations, damping):
    """``iterations`` steps, then the sinks' one extra pull."""
    scale = inv if x.ndim == 1 else inv[:, None]
    for _ in range(iterations):
        x = teleport + damping * (at @ (scale * x))
    last = teleport + damping * (at @ (scale * x))
    x = x.copy()
    x[sinks] = last[sinks]
    return x


def pagerank(a: sp.csr_matrix, iterations: int = 20,
             damping: float = DAMPING) -> np.ndarray:
    """PageRank after a fixed number of iterations."""
    n = a.shape[0]
    at, inv, sinks, inn = _operator(a)
    teleport = (1.0 - damping) / n
    x = np.full(n, 1.0 / n)
    x[inn == 0] = teleport
    return _fixed_steps(at, inv, sinks, teleport, x, iterations, damping)


def ppr(a: sp.csr_matrix, source_sets, iterations: int = 20,
        damping: float = DAMPING) -> np.ndarray:
    """Batched personalized PageRank: column ``j`` teleports over
    ``source_sets[j]``.  Returns an ``(n, len(source_sets))`` array."""
    n = a.shape[0]
    at, inv, sinks, _ = _operator(a)
    teleport = np.zeros((n, len(source_sets)))
    for j, sources in enumerate(source_sets):
        sources = np.unique(np.asarray(sources, dtype=np.int64))
        teleport[sources, j] = (1.0 - damping) / sources.size
    return _fixed_steps(
        at, inv, sinks, teleport, teleport.copy(), iterations, damping
    )


def pagerank_converged(a: sp.csr_matrix, x0=None, *,
                       damping: float = DAMPING,
                       residual: float = 1e-13,
                       max_iterations: int = 5000) -> np.ndarray:
    """The PageRank fixed point, iterated until one step moves the
    vector by less than ``residual`` in L1 (its distance to the fixed
    point is then below ``d / (1 - d) * residual``)."""
    n = a.shape[0]
    at, inv, _, _ = _operator(a)
    teleport = (1.0 - damping) / n
    x = np.full(n, 1.0 / n) if x0 is None else np.array(x0, dtype=float)
    for _ in range(max_iterations):
        nxt = teleport + damping * (at @ (inv * x))
        if np.abs(nxt - x).sum() < residual:
            return nxt
        x = nxt
    raise RuntimeError("reference PageRank did not converge")


def bfs_levels(a: sp.csr_matrix, source: int) -> np.ndarray:
    """Hop distance from ``source`` (``inf`` where unreachable)."""
    return csgraph.shortest_path(
        a, method="D", directed=True, unweighted=True, indices=source
    )


def sssp(a_weighted: sp.csr_matrix, source: int) -> np.ndarray:
    """Weighted shortest-path distances (``inf`` where unreachable);
    ``a_weighted`` must hold the minimum weight of each node pair."""
    return csgraph.dijkstra(a_weighted, directed=True, indices=source)


def min_weight_adjacency(num_nodes: int, src, dst, weights):
    """Adjacency keeping the lightest of parallel edges (Dijkstra's
    view of a multigraph)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    keys = src * num_nodes + dst
    order = np.lexsort((w, keys))
    keys, w = keys[order], w[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys, w = keys[first], w[first]
    return sp.csr_matrix(
        (w, (keys // num_nodes, keys % num_nodes)),
        shape=(num_nodes, num_nodes),
    )


class EdgeReplay:
    """The benchmark's own copy of a mutable edge multiset.

    Applies each update batch with the program's documented rules (a
    delete removes one present copy, an insert must be absent), so the
    graph of every epoch can be rebuilt without asking the program.
    """

    def __init__(self, num_nodes: int, src, dst) -> None:
        self.num_nodes = int(num_nodes)
        self.keys = np.sort(
            np.asarray(src, np.int64) * self.num_nodes
            + np.asarray(dst, np.int64)
        )
        self.epoch = 0

    def apply(self, ins_src, ins_dst, del_src, del_dst) -> None:
        n = self.num_nodes
        ins = np.asarray(ins_src, np.int64) * n + np.asarray(ins_dst)
        dels = np.asarray(del_src, np.int64) * n + np.asarray(del_dst)
        keys = self.keys
        if dels.size:
            pos = np.searchsorted(keys, dels)
            ok = pos < keys.size
            ok[ok] = keys[pos[ok]] == dels[ok]
            if not ok.all() or np.unique(pos).size != pos.size:
                raise ValueError("replay: delete of an absent edge")
            keys = np.delete(keys, pos)
        if ins.size:
            pos = np.searchsorted(keys, ins)
            hit = pos < keys.size
            hit[hit] = keys[pos[hit]] == ins[hit]
            if hit.any() or np.unique(ins).size != ins.size:
                raise ValueError("replay: insert of a present edge")
            keys = np.sort(np.concatenate([keys, ins]))
        self.keys = keys
        self.epoch += 1

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        return self.keys // self.num_nodes, self.keys % self.num_nodes

    def adjacency(self) -> sp.csr_matrix:
        src, dst = self.edges()
        return adjacency(self.num_nodes, src, dst)
