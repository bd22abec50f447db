"""Program side of one benchmark run: set-up, then the timed load.

Started by ``run.py`` as a fresh interpreter with ``src`` on the path.
With ``--role setup`` it stops after set-up (one more ``setup_s``
sample); with ``--role load`` it goes on to whole rounds of the
workload until ``--seconds`` have passed.  Answers are streamed to
``answers.bin`` as they come, so they cost the program no memory; the
parent checks them after this process has exited.  The last line of
standard output is this process's JSON record.

Set-up time runs from just before ``import repro`` (which brings NumPy
in) to the first timed operation, less the time spent reading the
benchmark's own input arrays.
"""

import argparse
import asyncio
import json
import shutil
import sys
import threading
import time
from pathlib import Path

#: ``inputs``, imported after ``import repro`` so that the NumPy import
#: counts as part of importing the program.
spec = None


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """State shared by the workload bodies: timing, rounds, tracing,
    the answer stream and the operation log."""

    def __init__(self, args, streams, t_start, load_s, import_s) -> None:
        self.args = args
        self.t_start = t_start
        self.streams = streams
        self.load_s = load_s
        self.import_s = import_s
        self.work = Path(args.work)
        self.setup_s = None
        self.start = None
        self.ops: list[dict] = []
        self.rounds: list[dict] = []
        self.failed = 0
        self.attempted = 0
        self.extra: dict = {}
        self.tracer = None
        if args.trace:
            from tracer import Tracer

            self.tracer = Tracer()
        self._answers = None

    # ------------------------------------------------------------------ #
    def setup_done(self) -> bool:
        """Mark the end of set-up; False when this process stops here."""
        self.setup_s = time.perf_counter() - self.t_start - self.load_s
        if self.args.role == "setup":
            return False
        self._answers = open(self.work / "answers.bin", "wb")
        self.start = time.perf_counter()
        return True

    def more_rounds(self, minimum: int = 1) -> bool:
        done = len(self.rounds)
        if done < minimum:
            return True
        return time.perf_counter() - self.start < self.args.seconds

    def begin_round(self) -> None:
        """Start a round; in a traced run every second round is traced
        and the others run the program unwrapped."""
        traced = self.tracer is not None and len(self.rounds) % 2 == 1
        if traced:
            self.tracer.install()
        self.rounds.append(
            {"traced": traced, "t0": time.perf_counter(), "t1": None}
        )

    def end_round(self, **extra) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        self.rounds[-1]["t1"] = time.perf_counter()
        self.rounds[-1].update(extra)

    def op_id(self, value) -> None:
        if self.tracer is not None:
            self.tracer.op = value

    def op(self, kind: str, t0: float, t1: float, **extra) -> dict:
        record = {
            "kind": kind, "t0": t0, "t1": t1,
            "round": len(self.rounds) - 1,
            "traced": self.rounds[-1]["traced"],
        }
        record.update(extra)
        self.ops.append(record)
        return record

    def answer(self, *arrays) -> None:
        """Append answers to the stream the parent checks."""
        import numpy as np

        for array in arrays:
            np.save(self._answers, array, allow_pickle=False)

    def finish(self) -> dict:
        record = {
            "role": self.args.role,
            "setup_s": self.setup_s,
            "import_s": self.import_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        if self.args.role == "load":
            self._answers.close()
            record.update(
                attempted=self.attempted,
                failed=self.failed,
                ops=self.ops,
                rounds=self.rounds,
                **self.extra,
            )
            if self.tracer is not None:
                record["spans"] = self.tracer.dump()
        return record


# ---------------------------------------------------------------------- #
# job-pld: cold analytics jobs, one caller
# ---------------------------------------------------------------------- #
def job_pld(run: Run) -> None:
    import importlib

    import numpy as np
    from repro.algorithms.pagerank import PageRank
    from repro.core.engine import MixenEngine
    from repro.graphs import io

    # The package re-exports the function under the module's name.
    sssp_module = importlib.import_module("repro.algorithms.sssp")
    weights = run.streams["weights"]
    bfs_sources = run.streams["bfs_sources"]
    sssp_sources = run.streams["sssp_sources"]
    if not run.setup_done():
        return
    job = 0
    while run.more_rounds(minimum=3):
        run.begin_round()
        run.op_id(job)
        spec_row = job % spec.JOB_CYCLE
        t0 = time.perf_counter()
        graph = io.load_csr(run.args.graph)
        engine = MixenEngine(graph)
        engine.prepare()
        t_ready = time.perf_counter()
        result = engine.run(
            PageRank(), max_iterations=20, check_convergence=False
        )
        top = np.argsort(result.scores)[-10:][::-1]
        levels = [engine.run_bfs(int(s)) for s in bfs_sources[spec_row]]
        dists = [
            sssp_module.sssp(graph, int(s), edge_values=weights).distances
            for s in sssp_sources[spec_row]
        ]
        t1 = time.perf_counter()
        run.op_id(None)
        run.attempted += 1
        run.op("job", t0, t1, refresh_s=t_ready - t0, spec=spec_row)
        run.end_round()
        run.answer(result.scores, top, *levels, *dists)
        del graph, engine, result, levels, dists
        job += 1


# ---------------------------------------------------------------------- #
# serve-mixed: eight closed-loop query clients and one writer
# ---------------------------------------------------------------------- #
CLIENTS = 8


def serve_mixed(run: Run) -> None:
    asyncio.run(_serve_mixed(run))


async def _serve_mixed(run: Run) -> None:
    import numpy as np
    from repro.errors import ReproError
    from repro.graphs import io
    from repro.graphs.updates import UpdateBatch
    from repro.serve import server as server_module
    from repro.serve import store as store_module

    n = int(run.streams["num_nodes"])
    queries = run.streams["query_sources"]
    ins, dels = run.streams["ins"], run.streams["dels"]
    graph = io.load_csr(run.args.graph)
    store_dir = run.work / f"store-{run.args.role}"
    store = store_module.LayoutStore(store_dir)
    engine, boot = store_module.boot_engine(graph, store)
    server = server_module.MixenServer(engine, boot=boot, store=store)
    await server.start()
    try:
        if not run.setup_done():
            return
        report = server.report
        committed = 0
        per_round = spec.QUERIES_PER_ROUND
        updates_per_round = per_round // spec.UPDATE_EVERY
        while run.more_rounds(minimum=-(-1000 // per_round)):
            run.begin_round()
            r = len(run.rounds) - 1
            first_batch = len(report.batches)
            first_event = len(report.downgrades)
            issued = completed = 0
            progress = asyncio.Event()

            async def client() -> None:
                nonlocal issued, completed
                while issued < per_round:
                    qi = issued
                    issued += 1
                    row = queries[(r % spec.SERVE_CYCLE_ROUNDS) * per_round
                                  + qi]
                    seen = committed
                    t0 = time.perf_counter()
                    reply = await server.submit(row[row >= 0])
                    t1 = time.perf_counter()
                    run.op("query", t0, t1, epoch=reply.epoch,
                           lo=seen, hi=server.epoch,
                           batch=reply.batch_id, q=qi)
                    run.answer(reply.scores)
                    completed += 1
                    progress.set()

            async def writer() -> None:
                nonlocal committed
                for u in range(updates_per_round):
                    while completed < (u + 1) * spec.UPDATE_EVERY:
                        progress.clear()
                        await progress.wait()
                    batch = UpdateBatch(
                        *spec.window_batch(ins, dels, committed + 1, n)
                    )
                    t0 = time.perf_counter()
                    summary = await server.submit_update(batch)
                    t1 = time.perf_counter()
                    committed += 1
                    run.op("update", t0, t1, refresh_s=t1 - t0,
                           epoch=summary["epoch"])

            await asyncio.gather(
                *(client() for _ in range(CLIENTS)), writer()
            )
            run.attempted += per_round + updates_per_round
            stream_end = time.perf_counter()
            # The probe: the clients are idle while one burst of
            # max_batch requests, one of them out of range, is sent.
            t0 = time.perf_counter()
            replies = await asyncio.gather(
                *(server.submit(s) for s in spec.BURST_SOURCES),
                return_exceptions=True,
            )
            t1 = time.perf_counter()
            run.attempted += len(replies)
            for i, reply in enumerate(replies):
                valid = max(spec.BURST_SOURCES[i]) < n
                if isinstance(reply, BaseException):
                    if valid or not isinstance(reply, ReproError):
                        run.failed += 1
                    continue
                if not valid:
                    run.failed += 1
                    continue
                run.op("burst", t0, t1, epoch=reply.epoch, lo=committed,
                       hi=server.epoch, batch=reply.batch_id, q=i)
                run.answer(reply.scores)
            run.end_round(
                stream_end=stream_end,
                batches=[
                    [b.batch_id, b.size, b.seconds, b.downgrades, b.failed]
                    for b in report.batches[first_batch:]
                ],
                downgrades=len(report.downgrades) - first_event,
            )
        keys = server.graph.csr.edge_keys()
    finally:
        await server.stop()
        shutil.rmtree(store_dir, ignore_errors=True)
    run.extra["final_epoch"] = server.epoch
    np.save(run.work / "final_keys.npy", keys)


# ---------------------------------------------------------------------- #
# update-rescore: epoch engine in delta mode, one caller
# ---------------------------------------------------------------------- #
def update_rescore(run: Run) -> None:
    import numpy as np
    from repro.algorithms.pagerank import PageRank
    from repro.core.epoch import EpochConfig, EpochEngine
    from repro.graphs import io
    from repro.graphs.updates import UpdateBatch

    n = int(run.streams["num_nodes"])
    ins, dels = run.streams["ins"], run.streams["dels"]
    graph = io.load_csr(run.args.graph)
    engine = EpochEngine(
        graph, config=EpochConfig(tolerance=spec.RESCORE_TOLERANCE)
    )
    pagerank = PageRank()
    engine.rescore(pagerank, max_iterations=spec.RESCORE_MAX_ITERATIONS)
    if not run.setup_done():
        return
    while run.more_rounds(minimum=spec.MIN_RESCORE_ROUNDS):
        run.begin_round()
        for _ in range(spec.BATCHES_PER_ROUND):
            epoch = engine.epoch + 1
            batch = UpdateBatch(*spec.window_batch(ins, dels, epoch, n))
            run.op_id(epoch)
            t0 = time.perf_counter()
            applied = engine.apply(batch)
            t_applied = time.perf_counter()
            result = engine.rescore(
                pagerank, max_iterations=spec.RESCORE_MAX_ITERATIONS
            )
            t1 = time.perf_counter()
            run.op_id(None)
            run.op("rescore", t0, t1, refresh_s=t_applied - t0,
                   epoch=result.epoch, converged=result.converged,
                   iterations=result.iterations, rebuilt=applied.rebuilt)
            run.answer(result.scores)
        run.attempted += spec.BATCHES_PER_ROUND + 1
        run.end_round()
        # The probe: a new PageRank instance on the warm state.
        probe = engine.rescore(
            PageRank(), max_iterations=spec.RESCORE_MAX_ITERATIONS
        )
        run.ops.append({
            "kind": "probe", "epoch": probe.epoch,
            "converged": probe.converged, "round": len(run.rounds) - 1,
            "traced": False, "t0": 0.0, "t1": 0.0,
        })
        run.answer(probe.scores)
        # Untimed: drop the state the probe left and warm up again.
        engine.forget_states()
        engine.rescore(pagerank, max_iterations=spec.RESCORE_MAX_ITERATIONS)
    run.extra["final_epoch"] = engine.epoch
    run.extra["rebuilds"] = engine.rebuilds
    np.save(run.work / "final_keys.npy", engine.graph.csr.edge_keys())


WORKLOADS = {
    "job-pld": job_pld,
    "serve-mixed": serve_mixed,
    "update-rescore": update_rescore,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--role", choices=("setup", "load"), required=True)
    parser.add_argument("--graph", required=True)
    parser.add_argument("--streams", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t_start
    global spec
    import inputs as spec
    import numpy as np

    t0 = time.perf_counter()
    with np.load(args.streams) as data:
        streams = {key: data[key] for key in data.files}
    load_s = time.perf_counter() - t0
    run = Run(args, streams, t_start, load_s, import_s)
    run.extra["main_thread"] = threading.get_ident()
    WORKLOADS[args.workload](run)
    record = run.finish()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
