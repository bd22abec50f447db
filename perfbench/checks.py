"""Checks of the program's answers against the SciPy references.

Runs in the parent process after the program process has exited, on
the answers it streamed to ``answers.bin``.  Each check returns a
:class:`Verdict`: ``wrong`` lists answers of ordinary operations that
disagree with a reference (the run is then not correct), ``failed``
counts probe operations that did not succeed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs as spec
import reference as ref

#: relative tolerance of fixed-iteration scores: the program sums in
#: another order (relabeled, blocked), a few ulps per step.
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-15
#: EpochConfig's documented bound on a warm answer's L1 distance from
#: the fixed point, 2 d / (1 - d) * tolerance, plus the reference's own
#: distance from it (below d / (1 - d) * its residual).
D = ref.DAMPING
WARM_BOUND = 2 * D / (1 - D) * spec.RESCORE_TOLERANCE + D / (1 - D) * 1e-13
UNREACHED = np.iinfo(np.int64).max


@dataclass
class Verdict:
    checked: int = 0
    failed: int = 0
    wrong_count: int = 0
    #: the first few wrong answers, for the report.
    wrong: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.wrong_count += 1
            if len(self.wrong) < 10:
                self.wrong.append(what)


def answers(path: Path):
    """The arrays of ``answers.bin``, in the order they were written."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while fh.tell() < size:
            yield np.load(fh, allow_pickle=False)


def close(got, want) -> bool:
    got = np.asarray(got, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=SCORE_RTOL, atol=SCORE_ATOL)
    )


def rank_properties(scores) -> bool:
    """Non-negative scores whose total mass is at most 1."""
    return bool(np.all(scores >= 0) and scores.sum() <= 1.0 + 1e-9)


def check_job_pld(work: Path, graph: Path, streams, record) -> Verdict:
    verdict = Verdict()
    n, src, dst = spec.read_edges(graph)
    a = ref.adjacency(n, src, dst)
    weighted = ref.min_weight_adjacency(n, src, dst, streams["weights"])
    pagerank = ref.pagerank(a, 20)
    tenth = np.sort(pagerank)[-10]
    bfs_cache: dict[int, np.ndarray] = {}
    sssp_cache: dict[int, np.ndarray] = {}
    stream = answers(work / "answers.bin")
    for op in record["ops"]:
        row = op["spec"]
        scores, top = next(stream), next(stream)
        verdict.expect(close(scores, pagerank), f"job {row}: pagerank")
        verdict.expect(rank_properties(scores), f"job {row}: mass")
        verdict.expect(
            top.size == 10 and np.unique(top).size == 10
            and bool(np.all(pagerank[top] >= tenth * (1 - SCORE_RTOL))),
            f"job {row}: top 10",
        )
        for s in streams["bfs_sources"][row]:
            s = int(s)
            if s not in bfs_cache:
                bfs_cache[s] = ref.bfs_levels(a, s)
            want, got = bfs_cache[s], next(stream)
            reached = np.isfinite(want)
            verdict.expect(
                np.array_equal(got[reached], want[reached].astype(np.int64))
                and bool(np.all(got[~reached] == UNREACHED)),
                f"job {row}: bfs from {s}",
            )
        for s in streams["sssp_sources"][row]:
            s = int(s)
            if s not in sssp_cache:
                sssp_cache[s] = ref.sssp(weighted, s)
            want, got = sssp_cache[s], next(stream)
            verdict.expect(
                np.array_equal(np.isinf(got), np.isinf(want))
                and np.allclose(got[np.isfinite(want)],
                                want[np.isfinite(want)], rtol=1e-12),
                f"job {row}: sssp from {s}",
            )
    return verdict


class Replay:
    """Epoch graphs of a run, replayed batch by batch on the
    benchmark's own edge set; epochs are visited in ascending order."""

    def __init__(self, graph: Path, streams) -> None:
        n, src, dst = spec.read_edges(graph)
        self.edges = ref.EdgeReplay(n, src, dst)
        self.streams = streams

    def adjacency(self, epoch: int):
        """The adjacency at ``epoch`` (not below the last one asked)."""
        edges = self.edges
        while edges.epoch < epoch:
            edges.apply(*spec.window_batch(
                self.streams["ins"], self.streams["dels"],
                edges.epoch + 1, edges.num_nodes,
            ))
        if edges.epoch != epoch:
            raise ValueError(f"epoch {epoch} already replayed past")
        return edges.adjacency()

    def final_keys_match(self, work: Path, epoch: int) -> bool:
        self.adjacency(epoch)
        return bool(np.array_equal(
            np.load(work / "final_keys.npy"), self.edges.keys
        ))


def check_serve_mixed(work: Path, graph: Path, streams, record) -> Verdict:
    verdict = Verdict()
    final = int(record["final_epoch"])
    replay = Replay(graph, streams)
    updates = sorted(
        op["epoch"] for op in record["ops"] if op["kind"] == "update"
    )
    verdict.expect(updates == list(range(1, final + 1)),
                   "update epochs are not 1..final")
    queries = [op for op in record["ops"] if op["kind"] in ("query", "burst")]
    stream = answers(work / "answers.bin")
    by_epoch: dict[int, list] = {}
    per_round = spec.QUERIES_PER_ROUND
    for op in queries:
        scores = next(stream)
        if op["kind"] == "query":
            row = streams["query_sources"][
                (op["round"] % spec.SERVE_CYCLE_ROUNDS) * per_round + op["q"]
            ]
            sources = row[row >= 0]
        else:
            sources = np.asarray(spec.BURST_SOURCES[op["q"]])
        epoch = int(op["epoch"])
        verdict.expect(op["lo"] <= epoch <= op["hi"],
                       f"query epoch {epoch} outside [{op['lo']}, "
                       f"{op['hi']}]")
        by_epoch.setdefault(epoch, []).append((sources, scores))
    for epoch, items in sorted(by_epoch.items()):
        if not 0 <= epoch <= final:
            verdict.expect(False, f"query at unknown epoch {epoch}")
            continue
        for lo in range(0, len(items), 256):
            chunk = items[lo:lo + 256]
            want = ref.ppr(
                replay.adjacency(epoch), [s for s, _ in chunk], 20
            )
            for j, (sources, scores) in enumerate(chunk):
                verdict.expect(
                    close(scores, want[:, j]) and rank_properties(scores),
                    f"ppr {sources.tolist()} at epoch {epoch}",
                )
    verdict.expect(replay.final_keys_match(work, final),
                   "served edge set differs from the replay")
    return verdict


def check_update_rescore(work: Path, graph: Path, streams, record) -> Verdict:
    verdict = Verdict()
    final = int(record["final_epoch"])
    replay = Replay(graph, streams)
    verdict.expect(record["rebuilds"] >= 1,
                   "the rebuild threshold never tripped")
    fixed, fixed_epoch = None, -1
    stream = answers(work / "answers.bin")
    for op in record["ops"]:
        scores = next(stream)
        epoch = int(op["epoch"])
        if epoch != fixed_epoch:
            fixed = ref.pagerank_converged(replay.adjacency(epoch), fixed)
            fixed_epoch = epoch
        distance = float(np.abs(scores - fixed).sum())
        ok = (
            op["converged"] and distance <= WARM_BOUND
            and rank_properties(scores)
        )
        if op["kind"] == "probe":
            verdict.failed += not ok
        else:
            verdict.expect(
                ok, f"rescore at epoch {epoch}: L1 {distance:.3g} "
                f"(bound {WARM_BOUND:.3g}), converged={op['converged']}"
            )
    verdict.expect(replay.final_keys_match(work, final),
                   "epoch engine's edge set differs from the replay")
    return verdict


CHECKS = {
    "job-pld": check_job_pld,
    "serve-mixed": check_serve_mixed,
    "update-rescore": check_update_rescore,
}
