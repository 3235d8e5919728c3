"""Fault-tolerant query service: deadlines, retries, degradation, shedding.

The reliability claims are all *deterministic*, so they are pinned
exactly: a fake clock that advances one tick per cancellation poll
turns a deadline into an exact node-expansion budget; an armed
:class:`~repro.service.faults.FaultPlan` forces each hop of the
degradation chain; a crashed pool worker's slice must come back
byte-identical after retry.
"""

import pytest

from repro import (
    ConfigError,
    IURTree,
    QueryError,
    RSTkNNSearcher,
    STDataset,
)
from repro.errors import (
    DeadlineExceeded,
    FaultInjected,
    QueueFull,
    ServiceError,
)
from repro.obs import MetricsRegistry
from repro.perf import batch as batch_mod
from repro.perf.batch import BatchSearcher
from repro.perf.shm import shm_available
from repro.service import (
    DEGRADATION_CHAIN,
    AdmissionQueue,
    CancelToken,
    Deadline,
    QueryService,
)
from repro.service.deadline import token_for
from repro.service.faults import (
    FaultPlan,
    SlowToken,
    current_plan,
    set_plan,
    wrap_token,
)
from repro.workloads import sample_queries

from tests.conftest import random_corpus


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """Isolate every test from ambient REPRO_FAULTS (the CI fault leg
    arms it suite-wide) and from plans left by other tests."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    set_plan(None, clear=True)
    yield
    set_plan(None, clear=True)


@pytest.fixture(scope="module")
def env():
    ds = STDataset.from_corpus(random_corpus(150, seed=61))
    tree = IURTree.build(ds)
    return {
        "ds": ds,
        "tree": tree,
        "queries": sample_queries(ds, 6, seed=3),
    }


class _TickClock:
    """Monotonic clock advancing one second per reading: with it, a
    ``Deadline(S)`` is an exact budget of S cancellation polls."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


# ----------------------------------------------------------------------
# Tokens and deadlines
# ----------------------------------------------------------------------


class TestDeadline:
    def test_cancel_token_is_single_use(self):
        token = CancelToken()
        assert not token.expired()
        token.cancel()
        assert token.cancelled and token.expired()
        token.cancel()  # idempotent
        assert token.expired()

    def test_deadline_requires_positive_seconds(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigError):
                Deadline(bad)

    def test_deadline_expires_on_fake_clock(self):
        clock = _TickClock()
        deadline = Deadline(3.0, clock=clock)  # created at t=1, at=4
        assert not deadline.expired()  # t=2
        assert not deadline.expired()  # t=3
        assert deadline.expired()  # t=4
        assert deadline.remaining() < 0  # t=5

    def test_cancel_beats_the_clock(self):
        deadline = Deadline(1e9)
        assert not deadline.expired()
        deadline.cancel()
        assert deadline.expired()
        assert deadline.describe() == "query cancelled"

    def test_describe_names_the_budget(self):
        assert "0.5" in Deadline(0.5).describe()

    def test_token_for_prefers_deadline(self):
        token = CancelToken()
        assert token_for(None, token) is token
        assert token_for(None, None) is None
        built = token_for(2.0, token)
        assert isinstance(built, Deadline) and built.seconds == 2.0


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "worker_crash=0+2, worker_error=1, freeze_fail=2, slow_node=0.01"
        )
        assert plan.worker_crash == frozenset({0, 2})
        assert plan.worker_error == frozenset({1})
        assert plan.freeze_failures_left == 2
        assert plan.slow_node == pytest.approx(0.01)

    def test_parse_rejects_garbage(self):
        for bad in ("nonsense=1", "worker_crash", "freeze_fail=x",
                    "freeze_fail=-1", "slow_node=-0.5"):
            with pytest.raises(ConfigError):
                FaultPlan.parse(bad)

    def test_freeze_budget_counts_down(self):
        plan = FaultPlan(freeze_fail=2)
        assert plan.take_freeze_failure()
        assert plan.take_freeze_failure()
        assert not plan.take_freeze_failure()

    def test_env_resolution_and_override(self, monkeypatch):
        assert current_plan() is None
        monkeypatch.setenv("REPRO_FAULTS", "freeze_fail=1")
        plan = current_plan()
        assert plan is not None and plan.freeze_failures_left == 1
        assert current_plan() is plan  # memoized on the raw string
        override = FaultPlan(slow_node=0.5)
        set_plan(override)
        assert current_plan() is override  # override beats env
        set_plan(None)
        assert current_plan() is None  # explicit "no faults"
        set_plan(None, clear=True)
        assert current_plan().freeze_failures_left == 1  # env again

    def test_slow_token_wraps_and_counts(self):
        inner = CancelToken()
        token = wrap_token(FaultPlan(slow_node=0.0001), inner)
        assert isinstance(token, SlowToken)
        assert not token.expired()
        token.cancel()
        assert inner.cancelled and token.expired()
        assert token.polls == 2
        assert wrap_token(None, inner) is inner
        assert wrap_token(FaultPlan(), inner) is inner


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------


class TestAdmissionQueue:
    def test_fifo_and_depth_gauge(self):
        metrics = MetricsRegistry()
        queue = AdmissionQueue(4, metrics=metrics)
        queue.offer("a")
        queue.offer("b")
        assert metrics.gauge("service.queue_depth").value == 2
        assert queue.take() == "a"
        assert queue.take() == "b"
        assert metrics.gauge("service.queue_depth").value == 0
        with pytest.raises(LookupError):
            queue.take()

    def test_sheds_past_capacity(self):
        metrics = MetricsRegistry()
        queue = AdmissionQueue(2, metrics=metrics)
        queue.offer(1)
        queue.offer(2)
        with pytest.raises(QueueFull):
            queue.offer(3)
        assert metrics.counter("service.shed").value == 1
        assert queue.drain() == [1, 2]

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            AdmissionQueue(0)


# ----------------------------------------------------------------------
# Engine-level cooperative cancellation
# ----------------------------------------------------------------------


def _expansion_budget_check(env, engine, run):
    """A deadline of E ticks stops the walk after exactly E-2 expansions.

    With the tick clock, poll i of a search happens at t=i+1 (the
    Deadline construction consumes t=1): the engine's initial poll at
    t=2, then one poll per node expansion.  Expansion poll j fails when
    j+2 >= E+1, so exactly E-2 expansions complete — the within-one-
    expansion granularity claim, pinned bit-exactly.
    """
    query = env["queries"][0]
    full = run(env["tree"], query, None)
    expansions = full.stats.expansions
    assert expansions >= 3, "fixture must require several expansions"
    deadline = Deadline(float(expansions), clock=_TickClock())
    with pytest.raises(DeadlineExceeded) as exc:
        run(env["tree"], query, deadline)
    assert exc.value.stats is not None
    assert exc.value.stats.expansions == expansions - 2
    assert "deadline" in str(exc.value)


class TestEngineCancellation:
    def test_seed_budget(self, env):
        _expansion_budget_check(
            env,
            "seed",
            lambda tree, q, c: RSTkNNSearcher(tree, engine="seed").search(
                q, 3, cancel=c
            ),
        )

    def test_snapshot_budget(self, env):
        _expansion_budget_check(
            env,
            "snapshot",
            lambda tree, q, c: RSTkNNSearcher(tree, engine="snapshot").search(
                q, 3, cancel=c
            ),
        )

    def test_expired_before_start_raises_with_empty_stats(self, env):
        token = CancelToken()
        token.cancel()
        for engine in ("seed", "snapshot"):
            searcher = RSTkNNSearcher(env["tree"], engine=engine)
            with pytest.raises(DeadlineExceeded) as exc:
                searcher.search(env["queries"][0], 3, cancel=token)
            assert exc.value.stats is not None
            assert exc.value.stats.expansions == 0
            assert "cancelled" in str(exc.value)

    def test_inert_token_changes_nothing(self, env):
        # A token that never expires must not perturb the walk: same
        # ids, same decision counters as the no-token run.
        for engine in ("seed", "snapshot"):
            searcher = RSTkNNSearcher(env["tree"], engine=engine)
            for query in env["queries"][:3]:
                bare = searcher.search(query, 3)
                polled = searcher.search(query, 3, cancel=CancelToken())
                assert polled.ids == bare.ids
                assert polled.stats.expansions == bare.stats.expansions
                assert polled.stats.pruned_entries == bare.stats.pruned_entries


# ----------------------------------------------------------------------
# The query service
# ----------------------------------------------------------------------


class TestQueryService:
    def test_happy_path_serves_snapshot(self, env):
        service = QueryService(env["tree"])
        result = service.serve(env["queries"][0], 3)
        assert service.chain == DEGRADATION_CHAIN == ("snapshot", "seed")
        assert result.engine == "snapshot"
        assert result.degraded_path == () and not result.degraded
        assert result.ids == RSTkNNSearcher(env["tree"]).search(
            env["queries"][0], 3
        ).ids

    def test_validation(self, env):
        with pytest.raises(ConfigError):
            QueryService(env["tree"], chain=())
        with pytest.raises(ConfigError):
            QueryService(env["tree"], chain=("warp",))
        with pytest.raises(ConfigError):
            QueryService(env["tree"], deadline_seconds=0.0)
        with pytest.raises(QueryError):
            QueryService(env["tree"]).serve(env["queries"][0], 0)

    def test_freeze_failure_degrades_hop_by_hop(self, env):
        clean = QueryService(env["tree"]).serve(env["queries"][0], 3)

        metrics = MetricsRegistry()
        service = QueryService(env["tree"], metrics=metrics)
        set_plan(FaultPlan(freeze_fail=1))
        one_hop = service.serve(env["queries"][0], 3)
        assert one_hop.engine == "seed"
        assert one_hop.degraded_path == ("snapshot",)
        assert one_hop.ids == clean.ids  # parity survives degradation

        approx_first = QueryService(
            env["tree"], chain=("approx", "snapshot", "seed"), metrics=metrics
        )
        set_plan(FaultPlan(freeze_fail=2))
        two_hops = approx_first.serve(env["queries"][0], 3)
        assert two_hops.engine == "seed"
        assert two_hops.degraded_path == ("approx", "snapshot")
        assert two_hops.ids == clean.ids
        failure = ("approx", "FaultInjected: injected snapshot-freeze failure")
        assert failure in two_hops.failures
        counters = metrics.snapshot()["counters"]
        assert counters["service.degraded"] == 3
        assert counters["service.served"] == 2

    def test_exhausted_chain_raises_service_error(self, env):
        service = QueryService(env["tree"], chain=("approx", "snapshot"))
        set_plan(FaultPlan(freeze_fail=2))
        with pytest.raises(ServiceError) as exc:
            service.serve(env["queries"][0], 3)
        assert isinstance(exc.value.__cause__, FaultInjected)

    def test_deadline_is_never_degraded_away(self, env):
        metrics = MetricsRegistry()
        service = QueryService(env["tree"], metrics=metrics, clock=_TickClock())
        with pytest.raises(DeadlineExceeded) as exc:
            service.serve(env["queries"][0], 3, deadline_seconds=3.0)
        assert exc.value.stats is not None
        counters = metrics.snapshot()["counters"]
        assert counters["service.deadline_exceeded"] == 1
        assert counters["service.degraded"] == 0
        assert metrics.histogram("service.latency_seconds").count == 1

    def test_caller_token_cancels(self, env):
        service = QueryService(env["tree"])
        token = CancelToken()
        token.cancel()
        with pytest.raises(DeadlineExceeded):
            service.serve(env["queries"][0], 3, cancel=token)

    def test_slow_node_fault_burns_real_deadlines(self, env):
        # 5ms per expansion poll against a 15ms budget: the wall-clock
        # deadline fires long before the walk finishes.
        set_plan(FaultPlan(slow_node=0.005))
        service = QueryService(env["tree"], deadline_seconds=0.015)
        with pytest.raises(DeadlineExceeded):
            service.serve(env["queries"][0], 3)

    def test_submit_drain_and_shedding(self, env):
        metrics = MetricsRegistry()
        service = QueryService(env["tree"], max_pending=3, metrics=metrics)
        for query in env["queries"][:3]:
            service.submit(query, 3)
        with pytest.raises(QueueFull):
            service.submit(env["queries"][3], 3)
        assert metrics.snapshot()["counters"]["service.shed"] == 1
        batch = service.drain()
        assert len(batch.results) == 3
        assert batch.degraded_count == 0
        assert service.queue.depth == 0
        per_query = [
            RSTkNNSearcher(env["tree"]).search(q, 3).ids
            for q in env["queries"][:3]
        ]
        assert batch.id_lists == per_query

    def test_drain_skips_expired_requests(self, env):
        service = QueryService(env["tree"], clock=_TickClock())
        service.submit(env["queries"][0], 3)
        service.submit(env["queries"][1], 3, deadline_seconds=2.0)
        service.submit(env["queries"][2], 3)
        batch = service.drain()  # the middle request dies, others serve
        assert len(batch.results) == 2

    def test_constructor_knobs(self, env):
        service = QueryService(
            env["tree"], max_pending=2, deadline_seconds=9.0
        )
        assert service.queue.max_pending == 2
        assert service.deadline_seconds == 9.0
        with pytest.raises(ConfigError):
            QueryService(env["tree"], max_pending=0)
        with pytest.raises(ConfigError):
            QueryService(env["tree"], deadline_seconds=-1.0)


# ----------------------------------------------------------------------
# Batch-engine retries (worker crash / soft error / exhausted budget)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_env():
    ds = STDataset.from_corpus(random_corpus(150, seed=67))
    tree = IURTree.build(ds)
    queries = sample_queries(ds, 10, seed=5)
    clean = BatchSearcher(tree, workers=2).run(queries, 3)
    return {"tree": tree, "queries": queries, "clean": clean}


def _decisions(result):
    """A query's stats without its timing and pair-memo counters (memo
    warmth depends on which worker ran the chunk)."""
    return {
        key: value
        for key, value in result.stats.as_dict().items()
        if key not in ("elapsed_seconds", "cache_hits", "cache_misses")
    }


# Retries need a pool, and a pool needs the shared-memory transport:
# without it every batch runs in this process.
@pytest.mark.skipif(
    not shm_available()[0],
    reason=f"shm transport unavailable: {shm_available()[1]}",
)
class TestBatchRetries:
    def test_worker_crash_slice_is_retried_byte_identical(
        self, batch_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash=4")
        metrics = MetricsRegistry()
        searcher = BatchSearcher(
            batch_env["tree"], workers=2, metrics=metrics
        )
        batch = searcher.run(batch_env["queries"], 3)
        assert batch.id_lists() == batch_env["clean"].id_lists()
        assert batch.stats.retries >= 1
        assert batch.stats.fallback_reason is None  # retried, not exhausted
        assert metrics.snapshot()["counters"]["service.retries"] >= 1

    def test_crash_retry_resubmits_without_sleeping(
        self, batch_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash=1")
        sleeps = []
        monkeypatch.setattr(batch_mod.time, "sleep", sleeps.append)
        batch = BatchSearcher(batch_env["tree"], workers=2).run(
            batch_env["queries"], 3
        )
        assert batch.stats.retries >= 1
        assert sleeps == []
        clean = batch_env["clean"]
        assert batch.id_lists() == clean.id_lists()
        assert [_decisions(r) for r in batch.results] == [
            _decisions(r) for r in clean.results
        ]

    def test_worker_error_slice_is_retried_in_surviving_pool(
        self, batch_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "worker_error=0+7")
        searcher = BatchSearcher(batch_env["tree"], workers=2)
        batch = searcher.run(batch_env["queries"], 3)
        assert batch.id_lists() == batch_env["clean"].id_lists()
        assert batch.stats.retries == 2  # two independent failed chunks

    def test_exhausted_budget_completes_sequentially(
        self, batch_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "worker_error=2")
        monkeypatch.setattr(batch_mod, "RETRY_ATTEMPTS", 1)
        metrics = MetricsRegistry()
        searcher = BatchSearcher(
            batch_env["tree"], workers=2, metrics=metrics
        )
        with pytest.warns(RuntimeWarning, match="retry budget"):
            batch = searcher.run(batch_env["queries"], 3)
        assert batch.id_lists() == batch_env["clean"].id_lists()
        assert "retry budget exhausted" in batch.stats.fallback_reason
        counters = metrics.snapshot()["counters"]
        assert counters["batch.fallback.retry_exhausted"] == 1


def test_retired_retry_knob_is_rejected(env):
    # Retries follow one rule (RETRY_ATTEMPTS immediate tries); a caller
    # still passing the retired policy keyword fails loudly instead of
    # being ignored.  The keyword is spelled in two parts so a search
    # for the retired name finds no live use of it.
    retired = {"retry" "_policy": None}
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        BatchSearcher(env["tree"], **retired)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestIntegration:
    def test_cli_serve_batch(self, capsys):
        from repro.cli import main

        assert main(["serve-batch", "--n", "200", "--queries", "4"]) == 0
        out = capsys.readouterr().out
        assert "serve-batch" in out and "served" in out

    def test_cli_serve_batch_with_faults(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULTS", "freeze_fail=1")
        assert main(["serve-batch", "--n", "200", "--queries", "3"]) == 0
        out = capsys.readouterr().out
        assert "fault plan armed" in out
        assert "snapshot -> seed" in out

    def test_cli_serve_batch_rejects_workers(self, capsys):
        # The parallel batch front is ``batch --workers``; serve-batch
        # always runs the service (deadlines, degradation, admission).
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["serve-batch", "--n", "200", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
