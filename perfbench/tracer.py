"""Span-stack tracer wrapped around repro's layer boundaries from outside.

Nothing under ``src/`` knows about it: :func:`install` replaces the
listed callables on their classes and modules with timing wrappers.
A wrapper passes arguments, return values and exceptions through
unchanged and keeps ``staticmethod``/``classmethod`` descriptors intact.
While the tracer is inactive it only forwards the call, so a benchmark
run that never activates it measures the program, not the tracer.

Every span records calls, inclusive seconds and self seconds (inclusive
minus the time covered by nested spans), aggregated per
``(operation, span)``.  The operation is whatever the benchmark loop
set as :attr:`Tracer.op` before the call (``setup``, ``query``,
``batch``, ``write``, ``fold``).  Hot per-call kernels (frozen-vector
``dot``, ``ext_jaccard``) are deliberately not wrapped: they stay
inside their caller's span.

Pool workers fork after the wrappers are installed, so they inherit
them; :func:`os.register_at_fork` gives each child empty aggregates,
and the chunk wrapper (:func:`install_chunk_flush`) writes the child's
aggregates to a per-process file whenever a chunk ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: ``(span name, module, class or None, attribute)`` of every wrapped
#: callable.  The span name's prefix up to the last dot is the layer,
#: which is the repro module the callable lives in.
SPANS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("index.build", "repro.index.iurtree", "IURTree", "build"),
    ("perf.snapshot.freeze", "repro.perf.snapshot", "IndexSnapshot", "from_tree"),
    ("approx.sketch.build", "repro.approx.sketch", None, "build_sketch"),
    ("core.traversal.walk", "repro.core.traversal", "SnapshotEngine", "search"),
    ("core.traversal.pair_bounds", "repro.core.traversal", "SnapshotEngine", "_compute_st"),
    ("core.traversal.text_bounds", "repro.core.traversal", "SnapshotEngine", "_text"),
    ("core.traversal.exact_sim", "repro.core.traversal", "SnapshotEngine", "_exact"),
    ("core.traversal.tighten", "repro.core.traversal", "SnapshotEngine", "_tighten"),
    ("core.traversal.decide", "repro.core.traversal", "SnapshotEngine", "_decide"),
    ("core.traversal.verify", "repro.core.traversal", "SnapshotEngine", "_verify"),
    ("perf.kernels.frontier", "repro.perf.kernels", None, "frontier_spatial_components"),
    ("perf.shm.export", "repro.perf.shm", "SharedSnapshotSegment", "create"),
    ("perf.shm.attach", "repro.perf.shm", None, "attach"),
    ("perf.batch.run", "repro.perf.batch", "BatchSearcher", "run"),
    ("approx.engine.filter", "repro.approx.engine", "ApproxEngine", "search"),
    ("core.rstknn.walk", "repro.core.rstknn", "RSTkNNSearcher", "search"),
    ("core.rstknn.verify", "repro.core.rstknn", "RSTkNNSearcher", "_verify"),
    ("core.rstknn.tighten", "repro.core.rstknn", "RSTkNNSearcher", "_tighten"),
    ("core.rstknn.decide", "repro.core.rstknn", "RSTkNNSearcher", "_decide"),
    ("core.bounds.st_bounds", "repro.core.bounds", "BoundComputer", "st_bounds"),
    ("core.bounds.self_bounds", "repro.core.bounds", "BoundComputer", "self_bounds"),
    ("lsm.insert", "repro.lsm.live", "LiveIndex", "insert"),
    ("lsm.delete", "repro.lsm.live", "LiveIndex", "delete_object"),
    ("lsm.fold", "repro.lsm.live", "LiveIndex", "freeze_step"),
)

#: The pool worker's unit of work; wrapped separately so it can flush.
CHUNK_SPAN = "perf.batch.chunk"

#: Root span the benchmark loop opens around each operation.
CLIENT_SPAN = "client"


class Tracer:
    """Span stack plus ``(op, span) -> [calls, inclusive_s, self_s]``."""

    def __init__(self) -> None:
        self.active = False
        self.op = "idle"
        #: Operations opened so far; a forked worker keeps the number of
        #: the operation it was forked in, which groups workers by call.
        self.op_index = 0
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        #: Inclusive seconds of spans opened with an empty stack.
        self.root_seconds = 0.0
        self._stack: List[List[float]] = []

    def reset(self) -> None:
        """Forget every aggregate (a forked child starts from here)."""
        self.spans = {}
        self.root_seconds = 0.0
        self._stack = []

    def _close(self, span: str, elapsed: float, child: List[float]) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        else:
            self.root_seconds += elapsed
        agg = self.spans.get((self.op, span))
        if agg is None:
            agg = self.spans[(self.op, span)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - child[0]

    @contextlib.contextmanager
    def operation(self, op: str) -> Iterator[None]:
        """Root ``client`` span around one operation, tagging nested spans."""
        self.op = op
        self.op_index += 1
        child = [0.0]
        self._stack.append(child)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(CLIENT_SPAN, time.perf_counter() - started, child)

    def wrap(self, fn, span: str):
        """A pass-through timing wrapper of ``fn`` recording ``span``."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            child = [0.0]
            tracer._stack.append(child)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span, clock() - started, child)

        return traced

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready aggregates of this process."""
        return {
            "pid": os.getpid(),
            "op_index": self.op_index,
            "root_seconds": self.root_seconds,
            "spans": [
                [op, span, int(calls), incl, self_s]
                for (op, span), (calls, incl, self_s) in sorted(self.spans.items())
            ],
        }


def _rewrap(tracer: Tracer, owner, attr: str, span: str) -> None:
    """Replace ``owner.attr`` by a traced version, keeping its descriptor."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, staticmethod):
        wrapped = staticmethod(tracer.wrap(raw.__func__, span))
    elif isinstance(raw, classmethod):
        wrapped = classmethod(tracer.wrap(raw.__func__, span))
    else:
        wrapped = tracer.wrap(raw, span)
    setattr(owner, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every callable in :data:`SPANS` (call once per process)."""
    for span, module_name, class_name, attr in SPANS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        _rewrap(tracer, owner, attr, span)
    os.register_at_fork(after_in_child=tracer.reset)


def install_chunk_flush(tracer: Tracer, out_dir: Path) -> None:
    """Wrap the pool worker's chunk runner so each worker flushes.

    After every chunk the worker rewrites
    ``<out_dir>/worker-<operation>-<pid>.json`` with its cumulative span
    aggregates plus what the chunk results carry: busy seconds, query
    count, simulated-I/O deltas (``SearchResult.io`` is cumulative per
    worker) and the size of the worker engine's pair memo.
    """
    batch = importlib.import_module("repro.perf.batch")
    run_chunk = batch._run_chunk
    traced = tracer.wrap(run_chunk, CHUNK_SPAN)
    worker: Dict[str, object] = {}
    os.register_at_fork(after_in_child=worker.clear)

    @functools.wraps(run_chunk)
    def flushing(chunk):
        if not tracer.active:
            return run_chunk(chunk)
        started = time.perf_counter()
        out, rss = traced(chunk)
        busy = time.perf_counter() - started
        io_now = out[-1][1].io if out else {}
        io_last = worker.get("io", {})
        io_sum = worker.setdefault("io_sum", {})
        for key, value in io_now.items():
            io_sum[key] = io_sum.get(key, 0) + value - io_last.get(key, 0)
        worker["io"] = dict(io_now)
        worker["busy"] = worker.get("busy", 0.0) + busy
        worker["queries"] = worker.get("queries", 0) + len(out)
        engine = getattr(batch._WORKER.get("searcher"), "engine", None)
        payload = dict(tracer.snapshot())
        payload.update(
            busy_seconds=worker["busy"],
            queries=worker["queries"],
            io=io_sum,
            memo_entries=len(getattr(engine, "_memo", ())),
            rss_bytes=rss,
        )
        path = out_dir / f"worker-{tracer.op_index}-{os.getpid()}.json"
        path.write_text(json.dumps(payload))
        return out, rss

    batch._run_chunk = flushing
