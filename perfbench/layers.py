"""Per-layer metrics, Chrome trace and self-time summary of a traced run.

Input is the load process's record: its spans (see :mod:`tracer`), its
operations and its rounds.  Only operations and spans of traced rounds
count.  Times are medians per call in milliseconds; ``*_calls`` and
``rebuilds`` are calls per operation; the other counts are medians of
the number read from each call's result, except where noted.
"""

from __future__ import annotations

import statistics

NAME, START, END, PARENT, OP, THREAD, CARD = range(7)

#: the operations each workload times.
OP_KINDS = {
    "job-pld": ("job",),
    "serve-mixed": ("query",),
    "update-rescore": ("rescore",),
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ms(span) -> float:
    return (span[END] - span[START]) * 1e3


def _traced(record) -> list[int]:
    """Indices of the finished spans that lie inside traced rounds."""
    windows = [(r["t0"], r["t1"]) for r in record["rounds"] if r["traced"]]
    return [
        i for i, s in enumerate(record["spans"])
        if s[END] is not None
        and any(t0 <= s[START] and s[END] <= t1 for t0, t1 in windows)
    ]


def _nested_ms(spans, outer: int, name: str, members) -> float:
    """Time of the outermost ``name`` spans nested under span ``outer``."""
    total = 0.0
    for index in members:
        span = spans[index]
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent is not None and parent != outer:
            if spans[parent][NAME] == name:
                break
            parent = spans[parent][PARENT]
        if parent == outer:
            total += _ms(span)
    return total


def _pool_jobs(spans, members, caller: str) -> float:
    """Thread-pool jobs per ``caller`` call, counting the ``parallel_for``
    calls whose nearest traced caller of either kind is that layer."""
    owners = {"core.kernels.spmv", "core.phases.reduce"}
    calls = sum(1 for i in members if spans[i][NAME] == caller)
    jobs = 0
    for index in members:
        span = spans[index]
        if span[NAME] != "parallel.pool" or not span[CARD]:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] not in owners:
            parent = spans[parent][PARENT]
        if parent is not None and spans[parent][NAME] == caller:
            jobs += span[CARD]["jobs"]
    return jobs / calls if calls else 0.0


def _covered(intervals, t0: float, t1: float) -> float:
    """Length of ``[t0, t1]`` that the union of ``intervals`` (sorted by
    start) covers."""
    total = 0.0
    reach = t0
    for start, end in intervals:
        if start >= t1:
            break
        start = max(start, reach)
        end = min(end, t1)
        if end > start:
            total += end - start
            reach = end
    return total


def per_layer(workload: str, record, import_s: list[float]) -> dict:
    """Every per-layer metric, named as in BENCHMARK.json."""
    spans = record["spans"]
    members = _traced(record)
    traced = [spans[i] for i in members]
    by_name: dict[str, list] = {}
    for span in traced:
        by_name.setdefault(span[NAME], []).append(span)
    kinds = OP_KINDS[workload]
    ops = [o for o in record["ops"] if o["kind"] in kinds]
    traced_ops = [o for o in ops if o["traced"]]
    plain_ops = [o for o in ops if not o["traced"]]
    n_ops = max(len(traced_ops), 1)

    def med(name):
        return _median(_ms(s) for s in by_name.get(name, ()))

    def card(name, key, scale=1.0):
        return _median(
            s[CARD][key] * scale for s in by_name.get(name, ()) if s[CARD]
        )

    def per_op(name):
        return len(by_name.get(name, ())) / n_ops

    prepares = [i for i in members if spans[i][NAME] == "core.prepare"]

    def per_prepare(*names):
        return _median(
            sum(_nested_ms(spans, p, n, members) for n in names)
            for p in prepares
        )

    solves = [s for s in by_name.get("core.solve", ()) if s[CARD]]
    metrics = {
        "repro.import_ms": _median(import_s) * 1e3,
        "graphs.ingest_ms": med("graphs.ingest"),
        "core.prepare_ms": med("core.prepare"),
        "core.filter_ms": per_prepare("core.filter"),
        "core.partition_ms": per_prepare("core.partition"),
        "core.bin_stats_ms": per_prepare("core.bin_stats"),
        "core.phase_plan_ms": per_prepare("core.phase_plan"),
        "analysis.certify_ms": per_prepare("analysis.certify"),
        "analysis.prove_ms": med("analysis.prove"),
        "analysis.prove_calls": (
            len(by_name.get("analysis.prove", ())) / len(prepares)
            if prepares else 0.0
        ),
        "core.solve_ms": _median(_ms(s) for s in solves),
        "core.iter_ms": _median(
            _ms(s) / s[CARD]["iterations"] for s in solves
            if s[CARD]["iterations"]
        ),
        "core.pre_ms": card("core.solve", "pre_s", 1e3),
        "core.main_ms": card("core.solve", "main_s", 1e3),
        "core.post_ms": card("core.solve", "post_s", 1e3),
        "core.main_msgs": card("core.solve", "main_msgs"),
        "core.kernels.spmv_ms": med("core.kernels.spmv"),
        "core.kernels.spmv_calls": per_op("core.kernels.spmv"),
        "core.phases.reduce_ms": med("core.phases.reduce"),
        "core.phases.reduce_calls": per_op("core.phases.reduce"),
        "parallel.pool_jobs": _pool_jobs(
            spans, members, "core.kernels.spmv"
        ),
        "parallel.reduce_pool_jobs": _pool_jobs(
            spans, members, "core.phases.reduce"
        ),
        "algorithms.bfs_ms": med("algorithms.bfs"),
        "algorithms.bfs_levels": card("algorithms.bfs", "levels"),
        "algorithms.sssp_ms": med("algorithms.sssp"),
        "algorithms.sssp_rounds": card("algorithms.sssp", "rounds"),
        "serve.store.boot_ms": med("serve.store.boot"),
        "serve.store.put_ms": med("serve.store.put"),
        "graphs.patch_ms": med("graphs.patch"),
        "core.epoch.apply_ms": med("core.epoch.apply"),
        "core.epoch.rescore_ms": med("core.epoch.rescore"),
        "core.epoch.rescore_iters": card("core.epoch.rescore", "iterations"),
        "core.epoch.overlay_ms": med("core.epoch.overlay"),
        "core.epoch.rebuilds": per_op("core.epoch.rebuild"),
        "core.epoch.rebuild_ms": med("core.epoch.rebuild"),
    }
    metrics.update(_serve_layers(record, traced, traced_ops))
    traced_p50 = _median((o["t1"] - o["t0"]) for o in traced_ops)
    plain_p50 = _median((o["t1"] - o["t0"]) for o in plain_ops)
    metrics["trace.overhead_pct"] = (
        (traced_p50 / plain_p50 - 1.0) * 100.0 if plain_p50 else 0.0
    )
    coverage = _coverage(workload, record, traced, traced_ops)
    metrics["trace.coverage_pct"] = min(coverage) * 100 if coverage else 0.0
    return metrics


def _serve_layers(record, traced, traced_ops) -> dict:
    rounds = [r for r in record["rounds"] if r["traced"] and "batches" in r]
    batches = {}
    for r in rounds:
        for batch_id, size, seconds, _, failed in r["batches"]:
            batches[batch_id] = (size, seconds, failed)
    good = [b for b in batches.values() if not b[2]]
    waits = [
        (o["t1"] - o["t0"] - batches[o["batch"]][1]) * 1e3
        for o in traced_ops if o.get("batch") in batches
    ]
    writes = sorted(
        (s[START], s[END]) for s in traced if s[NAME] == "serve.update"
    )
    stream = sum(r["stream_end"] - r["t0"] for r in rounds)
    return {
        "serve.queue_wait_ms": _median(waits),
        "serve.batch_ms": _median(b[1] * 1e3 for b in good),
        "serve.batch_size": (
            sum(b[0] for b in good) / len(good) if good else 0.0
        ),
        "serve.update_share_pct": (
            sum(_covered(writes, r["t0"], r["stream_end"]) for r in rounds)
            / stream * 100.0 if stream else 0.0
        ),
        "resilience.downgrades": (
            sum(r["downgrades"] for r in rounds) / len(rounds)
            if rounds else 0.0
        ),
    }


def _coverage(workload, record, traced, traced_ops) -> list[float]:
    """Share of each traced operation's wall time that top-level layer
    spans cover.

    A serve query or update also waits on the server's work for other
    requests, so its share is the part of its wall time during which
    any top-level span (a batch dispatch or an update commit) was
    running; admission, the batching window and the clients' own steps
    stay uncovered.  The other workloads run their layers on the
    calling thread, one after another.
    """
    out = []
    if workload == "serve-mixed":
        tops = sorted(
            (s[START], s[END]) for s in traced if s[PARENT] is None
        )
        updates = [
            o for o in record["ops"] if o["kind"] == "update" and o["traced"]
        ]
        for o in [*traced_ops, *updates]:
            wall = o["t1"] - o["t0"]
            out.append(_covered(tops, o["t0"], o["t1"]) / wall)
        return out
    main = record["main_thread"]
    for o in traced_ops:
        busy = sum(
            s[END] - s[START] for s in traced
            if s[PARENT] is None and s[THREAD] == main
            and o["t0"] <= s[START] and s[END] <= o["t1"]
        )
        out.append(busy / (o["t1"] - o["t0"]))
    return out


def chrome_trace(record) -> dict:
    """Chrome trace-event JSON of every recorded span."""
    threads: dict[int, int] = {}
    events = []
    for index, span in enumerate(record["spans"]):
        if span[END] is None:
            continue
        tid = threads.setdefault(span[THREAD], len(threads))
        events.append({
            "name": span[NAME], "cat": span[NAME].split(".")[0],
            "ph": "X", "pid": 1, "tid": tid,
            "ts": span[START] * 1e6, "dur": (span[END] - span[START]) * 1e6,
            "args": {"id": index, "parent": span[PARENT], "op": span[OP],
                     "card": span[CARD]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_summary(record) -> dict:
    """Per layer: calls, total and self milliseconds (self = duration
    less the time of its direct child spans)."""
    spans = record["spans"]
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None and span[END] is not None:
            child_ms[span[PARENT]] += _ms(span)
    summary: dict[str, dict] = {}
    for index, span in enumerate(spans):
        if span[END] is None:
            continue
        entry = summary.setdefault(
            span[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        entry["calls"] += 1
        entry["total_ms"] += _ms(span)
        entry["self_ms"] += _ms(span) - child_ms[index]
    return dict(sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"]))
