"""Shared-memory snapshot transport: parity, lifecycle, and fallback.

The shm segment is a correctness-critical transport — a worker that
attaches a stale or corrupt segment would silently return wrong results,
and a leaked segment survives the process.  So these tests pin:

* **parity** — attached searchers and shm-parallel batches return
  byte-identical result ids and decision counters to the sequential
  snapshot engine;
* **lifecycle** — ``release`` is idempotent, and no segment outlives
  its batch run (clean runs, crash retries via ``REPRO_FAULTS``, and
  export failures alike);
* **staleness** — a generation bump after export makes ``attach`` with
  the advertised generation fail loudly instead of serving old data;
* **fallback** — when the transport is unavailable the batch runs in
  this process with ``fallback_reason`` recorded and without a warning
  (reached here by patching :func:`~repro.perf.shm.shm_available`), and
  a seed-engine batch runs there with nothing recorded.
"""

import warnings

import pytest

from repro.core.rstknn import ENGINE_ENV_VAR, RSTkNNSearcher
from repro.errors import SnapshotSegmentError, StaleSegmentError
from repro.index.iurtree import IURTree
from repro.obs import MetricsRegistry
from repro.perf import BatchSearcher
from repro.perf import batch as batch_mod
from repro.perf import shm as shm_mod
from repro.perf.shm import SharedSnapshotSegment, attach, shm_available
from repro.service.faults import FaultPlan, set_plan
from repro.spatial import Point
from repro.workloads import gn_like, sample_queries

# Lifecycle/parity classes need a real segment; the fallback classes
# run everywhere — without numpy they are the tests that matter, since
# they pin the degradation the no-numpy CI leg asserts.
requires_shm = pytest.mark.skipif(
    not shm_available()[0],
    reason=f"shm transport unavailable: {shm_available()[1]}",
)

_TIMING_KEYS = {"elapsed_seconds", "cache_hits", "cache_misses"}

_STATE = {}


def _fixture():
    if not _STATE:
        dataset = gn_like(n=150)
        tree = IURTree.build(dataset)
        tree.warm_kernels()
        queries = sample_queries(dataset, 6, seed=23)
        _STATE.update(dataset=dataset, tree=tree, queries=queries)
    return _STATE


def _decisions(result):
    return {
        k: v
        for k, v in result.stats.as_dict().items()
        if k not in _TIMING_KEYS
    }


def _reference_ids(env, k: int = 3):
    searcher = RSTkNNSearcher(env["tree"], engine="snapshot")
    return [searcher.search(q, k).ids for q in env["queries"]]


def _no_pool(*_args, **_kwargs):
    raise AssertionError("a process pool was started")


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    handle.close()
    return True


def _capture_segments(monkeypatch):
    """Record every segment name batch runs create (for leak checks)."""
    names = []
    real_create = SharedSnapshotSegment.create.__func__

    def recording_create(cls, tree, **kwargs):
        seg = real_create(cls, tree, **kwargs)
        names.append(seg.name)
        return seg

    monkeypatch.setattr(
        SharedSnapshotSegment, "create", classmethod(recording_create)
    )
    return names


# ----------------------------------------------------------------------
# Attach parity
# ----------------------------------------------------------------------


@requires_shm
class TestAttachParity:
    def test_attached_searcher_matches_snapshot_engine(self):
        env = _fixture()
        reference = RSTkNNSearcher(env["tree"], engine="snapshot")
        with SharedSnapshotSegment.create(env["tree"]) as seg:
            attached = attach(seg.name, expected_generation=seg.generation)
            try:
                searcher = attached.searcher()
                for k in (1, 3, 5):
                    for query in env["queries"]:
                        a = reference.search(query, k)
                        b = searcher.search(query, k)
                        assert a.ids == b.ids
                        assert _decisions(a) == _decisions(b)
            finally:
                del searcher
                attached.close()

    def test_batch_parity_shm_vs_sequential(self):
        env = _fixture()
        queries, k = env["queries"], 4
        sequential = BatchSearcher(
            env["tree"], workers=1, engine="snapshot"
        ).run(queries, k)
        run = BatchSearcher(
            env["tree"], workers=2, engine="snapshot"
        ).run(queries, k)
        assert run.stats.workers == 2
        assert run.stats.fallback_reason is None
        assert run.id_lists() == sequential.id_lists()
        for a, b in zip(sequential.results, run.results):
            assert _decisions(a) == _decisions(b)

    def test_shm_run_records_snapshot_engine_label(self, monkeypatch):
        # shm workers run the snapshot engine, and the default parent
        # searcher resolves to it too, so the run's queries are counted
        # under ``snapshot`` and never under ``seed``.
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        dataset = gn_like(n=300)
        tree = IURTree.build(dataset)
        registry = MetricsRegistry()
        run = BatchSearcher(tree, workers=2, metrics=registry).run(
            sample_queries(dataset, 8, seed=3), 3
        )
        assert run.stats.workers == 2
        counters = registry.snapshot()["counters"]
        assert counters["search.queries.snapshot"] == 8
        assert not [name for name in counters if name.endswith(".seed")]

    def test_attached_text_matrix_matches_parent(self):
        # The segment ships no text matrix: an attached worker building a
        # sketch the parent did not bake into the segment inverts its
        # attached object vectors, and must reach the parent's profiles.
        from repro.text.similarity import make_measure

        env = _fixture()
        tree = env["tree"]
        snap = tree.snapshot()
        measure = make_measure(env["dataset"].config.text_measure)
        kmax = 3
        with SharedSnapshotSegment.create(tree) as seg:
            attached = attach(seg.name, expected_generation=seg.generation)
            asnap = twin = None
            try:
                asnap = attached.snapshot
                assert not [
                    a for a in attached.header["arrays"] if a.startswith("tm_")
                ]
                assert (measure.name, 0.5, 0.0, kmax) not in asnap._sketches
                twin = asnap.sketch_for(
                    asnap.engine_for(attached.tree, measure, 0.5, 0.0),
                    kmax=kmax,
                )
                parent = snap.sketch_for(
                    snap.engine_for(tree, measure, 0.5, 0.0), kmax=kmax
                )
                assert list(twin.obj_profile) == list(parent.obj_profile)
            finally:
                asnap = twin = None
                attached.close()

    def test_stats_surface_share_and_rss(self):
        env = _fixture()
        run = BatchSearcher(
            env["tree"], workers=2, engine="snapshot"
        ).run(env["queries"], 3)
        stats = run.stats.as_dict()
        assert stats["workers"] == 2
        assert stats["phase_share_seconds"] > 0  # the segment export
        # Linux/macOS report worker peak RSS; the field is advisory.
        if run.stats.worker_rss_bytes is not None:
            assert stats["worker_rss_bytes"] > 0


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


@requires_shm
class TestLifecycle:
    def test_release_is_idempotent(self):
        env = _fixture()
        seg = SharedSnapshotSegment.create(env["tree"])
        seg.release()
        seg.release()
        assert not _segment_exists(seg.name)

    def test_clean_batch_run_leaves_no_segment(self, monkeypatch):
        env = _fixture()
        names = _capture_segments(monkeypatch)
        BatchSearcher(
            env["tree"], workers=2, engine="snapshot"
        ).run(env["queries"], 3)
        assert len(names) == 1
        assert not _segment_exists(names[0])

    def test_worker_crash_retry_leaves_no_segment(self, monkeypatch):
        env = _fixture()
        names = _capture_segments(monkeypatch)
        sequential = BatchSearcher(
            env["tree"], workers=1, engine="snapshot"
        ).run(env["queries"], 3)
        set_plan(FaultPlan(worker_crash=frozenset({0})))
        try:
            run = BatchSearcher(
                env["tree"], workers=2, engine="snapshot"
            ).run(env["queries"], 3)
        finally:
            set_plan(None, clear=True)
        assert run.stats.retries >= 1
        assert run.id_lists() == sequential.id_lists()
        assert len(names) == 1
        assert not _segment_exists(names[0])

    def test_failed_export_leaves_no_segment(self, monkeypatch):
        env = _fixture()
        names = []
        real_create = SharedSnapshotSegment.create.__func__

        def exploding_create(cls, tree, **kwargs):
            seg = real_create(cls, tree, **kwargs)
            names.append(seg.name)
            seg.release()
            raise OSError("simulated export failure")

        monkeypatch.setattr(
            SharedSnapshotSegment, "create", classmethod(exploding_create)
        )
        run = BatchSearcher(
            env["tree"], workers=2, engine="snapshot"
        ).run(env["queries"], 3)
        assert run.stats.workers == 1  # ran in this process
        assert "shm_unavailable" in run.stats.fallback_reason
        assert "simulated export failure" in run.stats.fallback_reason
        assert not _segment_exists(names[0])
        assert run.id_lists() == _reference_ids(env)


# ----------------------------------------------------------------------
# Staleness / generation checking
# ----------------------------------------------------------------------


@requires_shm
class TestStaleness:
    def test_generation_bump_invalidates_segment(self):
        dataset = gn_like(n=150)
        tree = IURTree.build(dataset)
        seg = SharedSnapshotSegment.create(tree)
        try:
            exported = tree.generation
            obj = dataset.append_record(Point(50.0, 50.0), "sushi wine")
            tree.insert_object(obj)
            assert tree.generation > exported
            with pytest.raises(StaleSegmentError):
                attach(seg.name, expected_generation=tree.generation)
            # The advertised (old) generation still attaches — the
            # parent, not the worker, owns re-export decisions.
            attached = attach(seg.name, expected_generation=exported)
            attached.close()
        finally:
            seg.release()

    def test_attach_rejects_non_segment(self):
        from multiprocessing import shared_memory

        raw = shared_memory.SharedMemory(create=True, size=1024)
        try:
            with pytest.raises(SnapshotSegmentError):
                attach(raw.name)
        finally:
            raw.close()
            raw.unlink()


# ----------------------------------------------------------------------
# Fallback + warning discipline
# ----------------------------------------------------------------------


class TestFallback:
    def test_share_validation(self):
        # The transport follows one rule; a caller still passing the
        # retired ``share=`` fails loudly instead of being ignored.
        env = _fixture()
        with pytest.raises(TypeError, match="share"):
            BatchSearcher(env["tree"], share="pickle")

    def test_unavailable_shm_runs_in_process_with_reason(
        self, monkeypatch
    ):
        env = _fixture()
        monkeypatch.setattr(
            shm_mod, "shm_available", lambda: (False, "numpy missing")
        )
        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", _no_pool)
        registry = MetricsRegistry()
        bs = BatchSearcher(
            env["tree"], workers=2, engine="snapshot", metrics=registry
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fallback stays silent
            run = bs.run(env["queries"], 3)
        assert run.stats.workers == 1
        assert run.stats.fallback_reason == "shm_unavailable (numpy missing)"
        counters = registry.snapshot()["counters"]
        fallbacks = {
            n: v for n, v in counters.items() if n.startswith("batch.fallback.")
        }
        assert fallbacks == {"batch.fallback.shm_unavailable": 1}
        assert run.id_lists() == _reference_ids(env)

    def test_auto_mode_records_real_environment_outcome(self):
        """No monkeypatching: whatever this host supports is recorded.

        On a numpy-equipped host this pins the shm happy path; on the
        no-numpy CI leg it pins the genuine in-process run with the real
        reason string.
        """
        env = _fixture()
        run = BatchSearcher(
            env["tree"], workers=2, engine="snapshot"
        ).run(env["queries"], 3)
        ok, why = shm_available()
        if ok:
            assert run.stats.workers == 2
            assert run.stats.fallback_reason is None
        else:
            assert run.stats.workers == 1
            assert run.stats.fallback_reason == f"shm_unavailable ({why})"

    def test_seed_engine_is_never_shm_eligible(self, monkeypatch):
        """The seed walk reads the object graph, so a seed batch has no
        snapshot to share: it runs in this process, starts no pool and
        records no fallback."""
        env = _fixture()
        names = _capture_segments(monkeypatch)
        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", _no_pool)
        registry = MetricsRegistry()
        bs = BatchSearcher(
            env["tree"], workers=2, engine="seed", metrics=registry
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = bs.run(env["queries"], 3)
        assert run.stats.workers == 1
        assert run.stats.fallback_reason is None
        assert names == []
        counters = registry.snapshot()["counters"]
        assert not [n for n in counters if n.startswith("batch.fallback.")]
        assert run.id_lists() == _reference_ids(env)
