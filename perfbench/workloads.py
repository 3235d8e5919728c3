"""The benchmark's four workloads: inputs, set-up, one step, oracle.

Every workload is closed-loop with one client.  Its corpus is the
canonical ``gn_like(n, seed=42)`` dataset whatever ``--seed`` says,
because across corpus seeds the mean query cost moves by 16–34%
(IQR/median over ten seeds at n = 10^3–10^4): a per-seed corpus would
make every bound meaningless.  ``--seed S`` draws the traffic instead:
queries are ``sample_queries(ds, pool, seed=S + 1)`` and writes use
``random.Random(S + 2)``.  A step takes the next query of the
pool, cycling when the run outlasts it.

The oracle is independent of the engines under test.  Query answers
are checked against :class:`repro.core.baseline.ThresholdBaseline`
(one exact top-k per object, then one comparison per object and
query); live reads are checked against the seed walk over a tree freshly
built from the replayed dataset.  At seed 42 every answer is also
compared with the committed seed-walk digests in ``expected/``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SimilarityConfig
from repro.core.baseline import ThresholdBaseline
from repro.core.rstknn import RSTkNNSearcher
from repro.index.iurtree import IURTree
from repro.lsm import LiveIndex
from repro.obs import MetricsRegistry
from repro.perf import BatchSearcher
from repro.perf.shm import SharedSnapshotSegment
from repro.workloads import gn_like, sample_queries

#: Corpus seed of every workload (see the module docstring).
DATASET_SEED = 42

#: Reverse neighbours asked for by every query.
K = 5

#: Stops of the seed-walk oracle in a live run whose seed has no
#: committed digests: reads at evenly spaced positions, first and last
#: included.
LIVE_CHECKPOINTS = 10

#: Directory of the committed seed-walk digests.
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def digest(ids: Iterable[int]) -> str:
    """sha256 of a sorted id list, the unit every answer is compared in."""
    return hashlib.sha256(",".join(map(str, ids)).encode()).hexdigest()


class Log:
    """What one measured pass did: latencies, answers, counters, errors.

    ``call`` times the program call only; bookkeeping happens outside
    the timed region.  With a tracer, each call is also the root span
    of one operation.  ``latencies`` and ``busy`` end up divided by the
    machine's slowdown (see :mod:`speed`); ``raw_latencies`` and
    ``raw_busy`` keep them as measured.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latencies: Dict[str, List[float]] = {
            "query": [], "batch": [], "write": [], "fold": []
        }
        self.raw_latencies: Dict[str, List[float]] = {k: [] for k in self.latencies}
        #: ``(key, digest)`` of every answer; the key names the input
        #: (query index, or read index for live reads).
        self.answers: List[Tuple[int, str]] = []
        self.errors: List[str] = []
        self.ops = 0
        self.steps = 0
        #: Wall seconds of the pass, speed samples included.
        self.wall = 0.0
        #: Seconds spent in steps, as measured and scaled.
        self.raw_busy = 0.0
        self.busy = 0.0
        #: Summed counters (``SearchStats`` fields, I/O deltas, ...).
        self.sums: Dict[str, float] = {}
        self.batch_stats: List[object] = []

    def call(self, kind: str, fn, *args):
        """Run and time one operation; exceptions count as failures."""
        self.ops += 1
        started = perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args)
            else:
                with self.tracer.operation(kind):
                    out = fn(*args)
        except Exception as exc:  # a failed operation is a result, not a crash
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.latencies[kind].append(perf_counter() - started)
        return out

    def marks(self) -> Dict[str, int]:
        """Where each latency list ends now (the start of a block)."""
        return {kind: len(v) for kind, v in self.latencies.items()}

    def scale(self, marks: Dict[str, int], slowdown: float, busy: float) -> None:
        """Divide the latencies since ``marks`` and ``busy`` by ``slowdown``."""
        for kind, mark in marks.items():
            raw = self.latencies[kind][mark:]
            self.raw_latencies[kind].extend(raw)
            self.latencies[kind][mark:] = [x / slowdown for x in raw]
        self.raw_busy += busy
        self.busy += busy / slowdown

    def add(self, key: str, value: float) -> None:
        """Accumulate one counter."""
        self.sums[key] = self.sums.get(key, 0.0) + value

    def record(self, key: int, result, engine: str, io_before=None) -> None:
        """Keep one answer plus its decision and I/O counters."""
        self.answers.append((key, digest(result.ids)))
        stats = result.stats
        prefix = f"{engine}."
        self.add(prefix + "queries", 1)
        for field in (
            "expansions", "pruned_objects", "accepted_objects",
            "verified_objects", "verify_node_reads", "result_count",
            "cache_hits", "cache_misses",
        ):
            self.add(prefix + field, getattr(stats, field))
        if io_before is not None:
            for field in ("reads", "buffer_hits", "reads.verify"):
                self.add("io." + field, result.io.get(field, 0) - io_before.get(field, 0))


class Workload:
    """Shared shape; subclasses fill in set-up and one traffic step."""

    name = ""
    alpha = 0.5
    n = 2000
    pool = 400
    smoke_n = 300
    smoke_pool = 60
    #: Engine that answers the queries (for attributing counters).
    engine = "snapshot"
    #: Steps per second of ``--seconds`` (about the step rate of the
    #: parent build on the reference machine at full speed, so a run's
    #: traffic takes about ``--seconds`` of scaled time); fixed per run,
    #: so every build does the same work on the same inputs.
    rate = 20.0
    #: Fewest steps of a pass: enough for ``latency_p90_ms`` to have ten
    #: samples beyond it.
    min_steps = 100
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 15
    #: Whether the traffic runs on every CPU, so the speed gauge samples
    #: each of them (see :meth:`speed.SpeedGauge.sample`).
    spans_cpus = False

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        if smoke:
            self.n = self.smoke_n
            self.pool = self.smoke_pool

    def steps(self, seconds: float) -> int:
        """Steps of traffic for ``seconds`` (the minimum at smoke sizes)."""
        if self.smoke:
            return self.min_steps
        return max(self.min_steps, round(self.rate * seconds))

    def params(self) -> Dict[str, object]:
        """The parameters the committed digests were generated for."""
        return {"n": self.n, "alpha": self.alpha, "k": K, "pool": self.pool}

    def dataset(self):
        """A fresh copy of the workload's corpus (input creation, untimed)."""
        return gn_like(
            self.n, seed=DATASET_SEED, config=SimilarityConfig(alpha=self.alpha)
        )

    def queries(self, dataset, seed: int):
        """The query pool drawn from ``seed``."""
        return sample_queries(dataset, self.pool, seed=seed + 1)

    def build(self, dataset):
        """Index build, kernel warm-up and freeze: every workload's set-up."""
        tree = IURTree.build(dataset)
        tree.warm_kernels()
        tree.snapshot()
        return tree

    def setup(self, dataset) -> Dict[str, object]:
        """Everything a caller pays before the first query (timed)."""
        tree = self.build(dataset)
        return {"tree": tree, "searcher": RSTkNNSearcher(tree, dataset.config)}

    def start(self, state: Dict[str, object], seed: int) -> None:
        """Attach the traffic inputs to a set-up state (untimed)."""
        state["queries"] = self.queries(state["tree"].dataset, seed)

    def step(self, state: Dict[str, object], i: int, log: Log) -> None:
        """One query from the pool."""
        queries = state["queries"]
        key = i % len(queries)
        tree = state["tree"]
        before = tree.io.snapshot()
        result = log.call("query", state["searcher"].search, queries[key], K)
        if result is not None:
            log.record(key, result, self.engine, before)

    def counts(self, state: Dict[str, object]) -> Dict[str, float]:
        """Layer counts read once after a pass (sizes, memo occupancy)."""
        snap = state["tree"].snapshot()
        memos = [len(getattr(e, "_memo", ())) for e in snap._engines.values()]
        return {"snapshot_bytes": snap.nbytes(), "memo_entries": max(memos, default=0)}

    def close(self, state: Dict[str, object]) -> None:
        """Release what the set-up holds beyond memory."""

    # -- oracle ------------------------------------------------------------

    def expected(self, seed: int, directory: Path = EXPECTED_DIR) -> Optional[List[str]]:
        """Committed seed-walk digests for ``seed``, or ``None``."""
        path = expected_path(self.name, seed, self.smoke, directory)
        if not path.is_file():
            return None
        data = json.loads(path.read_text())
        if data["params"] != self.params():
            raise ValueError(
                f"{path} was generated for {data['params']}, "
                f"the workload now runs {self.params()}; regenerate it "
                "with make_expected.py"
            )
        return data["digests"]

    def oracle(self, seed: int, keys: Sequence[int]) -> Dict[int, str]:
        """Reference digests of the pool queries named by ``keys``."""
        dataset = self.dataset()
        queries = self.queries(dataset, seed)
        baseline = ThresholdBaseline(IURTree.build(dataset))
        thresholds = baseline.thresholds(K)
        score = baseline.scorer.score
        objects = dataset.objects
        return {
            key: digest(
                sorted(
                    o.oid for o in objects
                    if score(queries[key], o) >= thresholds[o.oid]
                )
            )
            for key in keys
        }

    def reference(self, seed: int) -> List[str]:
        """Seed-walk digests of the whole pool (``make_expected.py``)."""
        dataset = self.dataset()
        queries = self.queries(dataset, seed)
        searcher = RSTkNNSearcher(IURTree.build(dataset), engine="seed")
        return [digest(searcher.search(q, K).ids) for q in queries]


def expected_path(name: str, seed: int, smoke: bool, directory: Path = EXPECTED_DIR) -> Path:
    """Where the committed digests of one workload and seed live."""
    suffix = "-smoke" if smoke else ""
    return directory / f"{name}-seed{seed}{suffix}.json"


class PointSpatial(Workload):
    """Single interactive queries with spatially weighted pruning."""

    name = "point-spatial"
    alpha = 0.9
    n = 2000
    pool = 600
    rate = 24.0


class FilterApprox(Workload):
    """Sketch filter plus exact verification; set-up builds the sketch."""

    name = "filter-approx"
    engine = "approx"
    alpha = 0.5
    n = 1000
    pool = 2000
    smoke_pool = 200
    rate = 400.0
    setup_repeats = 5

    def setup(self, dataset) -> Dict[str, object]:
        tree = self.build(dataset)
        searcher = RSTkNNSearcher(tree, dataset.config, engine="approx")
        snap = tree.snapshot()
        snap.sketch_for(
            snap.engine_for(tree, searcher.measure, searcher.alpha, searcher.te_weight)
        )
        return {"tree": tree, "searcher": searcher}

    def _engine(self, state):
        searcher = state["searcher"]
        return state["tree"].snapshot().approx_engine_for(
            state["tree"], searcher.measure, searcher.alpha, searcher.te_weight,
            lsh=searcher.approx_lsh,
        )

    def step(self, state, i, log) -> None:
        super().step(state, i, log)
        for key, value in self._engine(state).last_filter.items():
            log.add("approx." + key, value)

    def counts(self, state) -> Dict[str, float]:
        counts = super().counts(state)
        counts["sketch_bytes"] = self._engine(state).sketch.nbytes()
        return counts


class BatchBlend(Workload):
    """The paper's default blend through a two-process batch pool."""

    name = "batch-blend"
    alpha = 0.5
    n = 1000
    pool = 400
    #: Queries per ``BatchSearcher.run`` call; workers = nproc of the
    #: reference machine.
    batch = 16
    smoke_batch = 8
    workers = 2
    spans_cpus = True
    rate = 1.15

    def __init__(self, smoke: bool = False) -> None:
        super().__init__(smoke)
        if smoke:
            self.batch = self.smoke_batch
        self.min_steps = -(-100 // self.batch)

    def setup(self, dataset) -> Dict[str, object]:
        tree = self.build(dataset)
        return {
            "tree": tree,
            "batch": BatchSearcher(tree, dataset.config, workers=self.workers),
        }

    def step(self, state, i, log) -> None:
        queries = state["queries"]
        keys = [(i * self.batch + j) % len(queries) for j in range(self.batch)]
        result = log.call("batch", state["batch"].run, [queries[k] for k in keys], K)
        if result is None:
            return
        log.batch_stats.append(result.stats)
        for key, r in zip(keys, result.results):
            log.latencies["query"].append(r.stats.elapsed_seconds)
            log.record(key, r, self.engine)

    def counts(self, state) -> Dict[str, float]:
        tree = state["tree"]
        counts = {"snapshot_bytes": tree.snapshot().nbytes(), "memo_entries": 0}
        seg = SharedSnapshotSegment.create(tree, config=tree.dataset.config)
        try:
            counts["segment_bytes"] = seg.nbytes
        finally:
            seg.release()
        return counts


class LiveChurn(Workload):
    """Mixed inserts, deletes and dirty reads over a LiveIndex."""

    name = "live-churn"
    engine = "seed"
    alpha = 0.9
    n = 1000
    pool = 400
    read_every = 10
    threshold = 100
    smoke_threshold = 25
    rate = 140.0
    min_steps = 100 * read_every

    def __init__(self, smoke: bool = False) -> None:
        super().__init__(smoke)
        if smoke:
            self.threshold = self.smoke_threshold

    def params(self) -> Dict[str, object]:
        params = super().params()
        params.update(read_every=self.read_every, threshold=self.threshold)
        return params

    def setup(self, dataset) -> Dict[str, object]:
        tree = self.build(dataset)
        registry = MetricsRegistry()
        live = LiveIndex(tree, metrics=registry, freeze_threshold=self.threshold)
        return {
            "tree": tree,
            "live": live,
            "registry": registry,
            "searcher": RSTkNNSearcher(live, dataset.config),
        }

    def start(self, state, seed) -> None:
        super().start(state, seed)
        state["rng"] = random.Random(seed + 2)

    def step(self, state, i, log) -> None:
        live = state["live"]
        write = choose_write(state["rng"], live.dataset)
        if write[0] == "delete":
            log.call("write", live.delete_object, write[1])
        else:
            log.call("write", live.insert, *write[1:])
        if (i + 1) % self.read_every == 0:
            read = (i + 1) // self.read_every - 1
            queries = state["queries"]
            dirty = live.overlay_dirty
            gauges = state["registry"]
            log.add("lsm.reads", 1)
            log.add("lsm.dirty_reads", int(dirty))
            log.add("lsm.overlay_objects", gauges.gauge("lsm.overlay.objects").value)
            log.add("lsm.tombstones", gauges.gauge("lsm.tombstones").value)
            before = live.io.snapshot()
            result = log.call(
                "query", state["searcher"].search, queries[read % len(queries)], K
            )
            if result is not None:
                log.record(read, result, "seed" if dirty else "snapshot", before)
        if live.pending() >= self.threshold:
            log.call("fold", live.freeze_step)

    def counts(self, state) -> Dict[str, float]:
        return {"snapshot_bytes": state["tree"].snapshot().nbytes(), "memo_entries": 0}

    def close(self, state) -> None:
        state["live"].close()

    def replay(self, seed: int, reads: Sequence[int]):
        """``(read, fresh tree, query)`` at each wanted read, replaying
        the seed's writes on a plain copy of the corpus."""
        dataset = self.dataset()
        queries = self.queries(dataset, seed)
        rng = random.Random(seed + 2)
        writes = 0
        for read in sorted(reads):
            while writes < (read + 1) * self.read_every:
                write = choose_write(rng, dataset)
                if write[0] == "delete":
                    dataset.remove_object(write[1])
                else:
                    dataset.append_record(*write[1:])
                writes += 1
            yield read, IURTree.build(dataset), queries[read % len(queries)]

    def oracle(self, seed, keys) -> Dict[int, str]:
        return {
            read: digest(RSTkNNSearcher(tree, engine="seed").search(query, K).ids)
            for read, tree, query in self.replay(seed, keys)
        }

    def reference(self, seed: int) -> List[str]:
        """Seed-walk digests of the first ``pool`` reads."""
        return list(self.oracle(seed, range(self.pool)).values())

    def checkpoints(self, reads: int) -> List[int]:
        """Read indices the live oracle replays when no digests cover them."""
        if reads <= LIVE_CHECKPOINTS:
            return list(range(reads))
        return sorted(
            {round(i * (reads - 1) / (LIVE_CHECKPOINTS - 1)) for i in range(LIVE_CHECKPOINTS)}
        )


def choose_write(rng: random.Random, dataset) -> Tuple:
    """The next write of the churn stream: a delete or an insert."""
    objects = dataset.objects
    if rng.random() < 0.5 and len(objects) > 2:
        return ("delete", objects[rng.randrange(len(objects))].oid)
    donor = objects[rng.randrange(len(objects))]
    return ("insert", donor.point, " ".join(donor.keywords))


WORKLOADS = {w.name: w for w in (PointSpatial, BatchBlend, FilterApprox, LiveChurn)}
