"""In-memory span recorder wrapped around the program's layer entry points.

Each target names a public function or method and the module namespace
it is looked up in at call time; :meth:`Tracer.install` replaces that
name with a wrapper that records one span (name, start, end, parent
span, operation id, thread) and, for some layers, a few numbers read
from the result the program returns.  :meth:`Tracer.uninstall` puts
the originals back, so untraced rounds run the program unchanged.
No public call spans one served batch or one committed update, so the
server's batch loop is wrapped at its three private steps: the dispatch
of a batch, the batch's worker-thread body, and the commit of an update.
Spans stay in memory until the run ends.  This module imports nothing
from the program until :meth:`Tracer.install`.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import threading
import time

import numpy as np


def _run_card(result):
    phases = result.phases
    return {
        "iterations": int(result.iterations),
        "pre_s": phases["pre"].seconds,
        "main_s": phases["main"].seconds,
        "post_s": phases["post"].seconds,
        "main_msgs": int(phases["main"].messages),
    }


def _bfs_card(levels):
    reached = levels[levels != np.iinfo(np.int64).max]
    return {"levels": int(reached.max()) if reached.size else 0}


#: (module, attribute path, span name, result card).  A function that
#: several modules import by name is patched in each namespace that
#: looks it up at call time.
TARGETS = (
    ("repro.graphs.io", "load_csr", "graphs.ingest", None),
    ("repro.frameworks.base", "Engine.prepare", "core.prepare", None),
    ("repro.core.engine", "filter_graph", "core.filter", None),
    ("repro.core.engine", "build_mixed", "core.filter", None),
    ("repro.core.engine", "partition_regular", "core.partition", None),
    ("repro.core.engine", "dynamic_bin_stats", "core.bin_stats", None),
    ("repro.core.phases", "build_push_plan", "core.phase_plan", None),
    ("repro.core.phases", "build_pull_plan", "core.phase_plan", None),
    ("repro.analysis.certify", "certify_layout", "analysis.certify", None),
    ("repro.analysis.races", "prove_schedule", "analysis.prove", None),
    ("repro.core.engine", "MixenEngine.run", "core.solve", _run_card),
    ("repro.core.kernels", "spmv", "core.kernels.spmv", None),
    ("repro.core.phases", "phase_reduce", "core.phases.reduce", None),
    ("repro.core.scheduler", "phase_reduce", "core.phases.reduce", None),
    ("repro.core.scga", "phase_reduce", "core.phases.reduce", None),
    ("repro.core.engine", "MixenEngine.run_bfs", "algorithms.bfs",
     _bfs_card),
    ("repro.algorithms.sssp", "sssp", "algorithms.sssp",
     lambda r: {"rounds": int(r.iterations)}),
    ("repro.serve.store", "boot_engine", "serve.store.boot", None),
    ("repro.serve.server", "boot_engine", "serve.store.boot", None),
    ("repro.serve.store", "LayoutStore.put", "serve.store.put", None),
    ("repro.core.epoch", "apply_batch", "graphs.patch", None),
    ("repro.core.epoch", "EpochEngine.apply", "core.epoch.apply", None),
    ("repro.core.epoch", "EpochEngine.rescore", "core.epoch.rescore",
     lambda r: {"iterations": int(r.iterations)}),
    ("repro.core.epoch", "EpochEngine.rebuild", "core.epoch.rebuild",
     None),
    ("repro.core.mixed_format", "SpillOverlay.correction",
     "core.epoch.overlay", None),
)


#: indices of the open spans of the running thread or asyncio task,
#: innermost last.  ``asyncio.to_thread`` carries it into the worker
#: thread, so a served batch nests under the dispatch that sent it.
_OPEN: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "perfbench_open_spans", default=()
)


class Tracer:
    """Records spans of the wrapped entry points while installed."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id, thread id, card]
        self.spans: list[list] = []
        #: id of the operation the caller is running (None between ops).
        self.op = None
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # ------------------------------------------------------------------ #
    def _open(self, name, tags):
        stack = _OPEN.get()
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else None, self.op,
                threading.get_ident(), tags]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        return span, _OPEN.set(stack + (index,))

    @staticmethod
    def _close(span, token) -> None:
        span[2] = time.perf_counter()
        _OPEN.reset(token)

    def _record(self, name, fn, card, args, kwargs, tags=None):
        span, token = self._open(name, tags)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span, token)
        if card is not None:
            span[6] = {**(tags or {}), **card(result)}
        return result

    def _wrap(self, name, fn, card):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, card, args, kwargs)

        return wrapper

    def _wrap_async(self, name, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span, token = self._open(name, None)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span, token)

        return wrapper

    def _wrap_parallel_for(self, fn):
        """``parallel_for`` runs inline for one worker or one item;
        otherwise every item is one thread-pool job."""
        from repro.parallel.threadpool import default_workers

        @functools.wraps(fn)
        def wrapper(body, items, *, max_workers=None):
            items = list(items)
            workers = (
                max_workers if max_workers is not None
                else default_workers()
            )
            jobs = len(items) if workers > 1 and len(items) > 1 else 0
            return self._record(
                "parallel.pool", fn, lambda _: {"jobs": jobs},
                (body, items), {"max_workers": max_workers},
            )

        return wrapper

    def _wrap_run_batch(self, fn):
        """The worker-thread body of one served batch; its span carries
        the batch id, also when the batch fails."""

        @functools.wraps(fn)
        def wrapper(server, batch_id, ready):
            return self._record(
                "serve.batch", fn, None, (server, batch_id, ready), {},
                tags={"batch_id": batch_id},
            )

        return wrapper

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every target (idempotent)."""
        if self._saved:
            return
        for module_name, path, name, card in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, card))
        pool = importlib.import_module("repro.parallel.threadpool")
        original = pool.parallel_for
        self._saved.append((pool, "parallel_for", original))
        pool.parallel_for = self._wrap_parallel_for(original)
        # The server's batch loop: one dispatch per batch (split off
        # expired requests, run the batch on a worker thread, answer),
        # one commit per update.
        server = importlib.import_module("repro.serve.server").MixenServer
        for attr, wrapped in (
            ("_execute", self._wrap_async("serve.dispatch", server._execute)),
            ("_apply_update",
             self._wrap_async("serve.update", server._apply_update)),
            ("_run_batch", self._wrap_run_batch(server._run_batch)),
        ):
            self._saved.append((server, attr, server.__dict__[attr]))
            setattr(server, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[list]:
        """The recorded spans, JSON-ready."""
        return [list(span) for span in self.spans]
