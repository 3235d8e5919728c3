"""Asyncio HTTP front door: routing, parity, shedding, error mapping.

The front door is a thin shell around
:meth:`ScatterGatherSearcher.search`; what matters is that the JSON
boundary never changes an answer.  The parity test therefore compares
an HTTP ``/search`` response against a direct ``searcher.search`` call
built from the *same JSON inputs* via ``dataset.make_query`` —
re-tokenized text must go through the identical path on both sides.
The rest pins the operational surface: the cancellation token
``search`` hands every shard walk, the server's settings and default
deadline, health and metrics routes, 400/404/405/504 mappings,
503 shedding when the admission semaphore is exhausted, and the CLI
self-test (the same gate CI runs).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigError, DeadlineExceeded
from repro.index.iurtree import IURTree
from repro.obs import MetricsRegistry
from repro.service import CancelToken, Deadline, FaultPlan, set_plan
from repro.shard import ScatterGatherSearcher, build_sharded_index
from repro.shard.http import ShardHttpServer, fetch_json
from repro.spatial import Point
from repro.text.similarity import make_measure
from repro.workloads import gn_like, sample_queries

_STATE = {}


def _env():
    if not _STATE:
        dataset = gn_like(n=160)
        tree = IURTree.build(dataset)
        tree.snapshot()
        index = build_sharded_index(dataset, 2)
        registry = MetricsRegistry()
        searcher = ScatterGatherSearcher(index, metrics=registry)
        queries = sample_queries(dataset, 3, seed=17)
        _STATE.update(
            dataset=dataset,
            tree=tree,
            searcher=searcher,
            registry=registry,
            queries=queries,
        )
    return _STATE


def _http_inputs(sampled):
    """The JSON inputs of a sampled query: its center and keywords."""
    center = sampled.mbr().center()
    return center.x, center.y, " ".join(sampled.keywords)


async def _with_server(env, fn, **server_kwargs):
    """Start an ephemeral-port server, run ``fn(server)``, stop it."""
    server = ShardHttpServer(env["searcher"], port=0, **server_kwargs)
    await server.start()
    try:
        return await fn(server)
    finally:
        await server.stop()


def _run(env, fn, **server_kwargs):
    return asyncio.run(_with_server(env, fn, **server_kwargs))


class TestRoutes:
    def test_healthz(self):
        env = _env()

        async def go(server):
            return await fetch_json("127.0.0.1", server.port, "/healthz")

        status, body = _run(env, go)
        assert status == 200
        assert body == {"status": "ok", "shards": 2}

    def test_metrics_snapshot_includes_request_counter(self):
        env = _env()

        async def go(server):
            await fetch_json("127.0.0.1", server.port, "/healthz")
            return await fetch_json("127.0.0.1", server.port, "/metrics")

        status, body = _run(env, go)
        assert status == 200
        assert body["counters"]["shard.http.requests"] >= 2

    def test_unknown_route_is_404(self):
        env = _env()

        async def go(server):
            return await fetch_json("127.0.0.1", server.port, "/nope")

        status, body = _run(env, go)
        assert status == 404
        assert "no route" in body["error"]

    def test_wrong_method_is_405(self):
        env = _env()

        async def go(server):
            # GET on the POST-only /search route.
            return await fetch_json("127.0.0.1", server.port, "/search")

        status, _ = _run(env, go)
        assert status == 405

    def test_malformed_body_is_400(self):
        env = _env()
        payloads = [
            {"k": 3},
            # Non-finite coordinates (strings, and JSON NaN): a NaN
            # point fails every comparison, so a walk would list every
            # object as an answer.
            {"x": "nan", "y": 50.0, "k": 3},
            {"x": 50.0, "y": float("nan"), "k": 3},
            {"x": "inf", "y": 50.0, "k": 3},
            {"x": 50.0, "y": "-inf", "k": 3},
            # Deadlines must be finite and positive.
            {"x": 50.0, "y": 50.0, "k": 3, "deadline_seconds": "nan"},
            {"x": 50.0, "y": 50.0, "k": 3, "deadline_seconds": "inf"},
            {"x": 50.0, "y": 50.0, "k": 3, "deadline_seconds": 0},
            {"x": 50.0, "y": 50.0, "k": 3, "deadline_seconds": -1},
        ]

        async def go(server):
            return [
                await fetch_json(
                    "127.0.0.1", server.port, "/search", payload=payload
                )
                for payload in payloads
            ]

        for payload, (status, body) in zip(payloads, _run(env, go)):
            assert status == 400, payload
            assert "bad search request" in body["error"], payload


class TestSearchParity:
    def test_http_answer_matches_direct_service(self):
        env = _env()
        searcher = env["searcher"]
        x, y, text = _http_inputs(env["queries"][0])
        k = 4

        async def go(server):
            return await fetch_json(
                "127.0.0.1",
                server.port,
                "/search",
                payload={"x": x, "y": y, "text": text, "k": k},
            )

        status, body = _run(env, go)
        assert status == 200
        # The direct reference must be built from the same JSON inputs:
        # re-tokenized text yields a different vector than the sampled
        # query object, so comparing against that would be a false gate.
        query = env["dataset"].make_query(Point(x, y), text)
        assert body["ids"] == list(searcher.search(query, k).ids)
        assert body["k"] == k
        assert "degraded" not in body
        assert body["stats"]["shards_total"] == 2

    def test_service_reports_the_direct_search_counters(self):
        # A served query reports a direct search's work, and each
        # searched shard's walk lands in the registry's search.* series
        # next to the query's shard.* instruments.
        env = _env()
        searcher = env["searcher"]
        registry = env["registry"]

        def counts():
            snap = registry.snapshot()
            fanout = snap["histograms"].get("shard.fanout", {})
            walks = snap["counters"].get("search.queries.snapshot", 0)
            return fanout.get("count", 0), walks

        payloads = []
        for sampled in env["queries"]:
            x, y, text = _http_inputs(sampled)
            payloads.append({"x": x, "y": y, "text": text, "k": 4})

        async def go(server):
            served = []
            for payload in payloads:
                before = counts()
                status, body = await fetch_json(
                    "127.0.0.1", server.port, "/search", payload=payload
                )
                served.append((before, status, body, counts()))
            return served

        for payload, (before, status, body, after) in zip(
            payloads, _run(env, go)
        ):
            assert status == 200
            got = body["stats"]
            assert after == (before[0] + 1, before[1] + got["shards_searched"])
            query = env["dataset"].make_query(
                Point(payload["x"], payload["y"]), payload["text"]
            )
            want = searcher.search(query, 4).stats.as_dict()
            for stats in (got, want):
                stats.pop("elapsed_seconds")
                search = stats["search"]
                search.pop("elapsed_seconds")
                # The served walk warms the shard memos the direct one
                # reads, so only the pair lookups' total must agree.
                search["pair_lookups"] = search.pop("cache_hits") + search.pop(
                    "cache_misses"
                )
            assert got == want
            assert got["search"]["expansions"] > 0
            assert got["search"]["pair_lookups"] > 0

    def test_unsharded_engine_agrees_through_http(self):
        env = _env()
        x, y, text = _http_inputs(env["queries"][1])

        async def go(server):
            return await fetch_json(
                "127.0.0.1",
                server.port,
                "/search",
                payload={"x": x, "y": y, "text": text, "k": 3},
            )

        status, body = _run(env, go)
        assert status == 200
        dataset = env["dataset"]
        measure = make_measure(dataset.config.text_measure)
        engine = env["tree"].snapshot().engine_for(
            env["tree"], measure, dataset.config.alpha, 0.0
        )
        query = dataset.make_query(Point(x, y), text)
        assert body["ids"] == list(engine.search(query, 3).ids)


class TestCancellation:
    """``search`` hands one token to every admitted shard's walk."""

    def test_cancelled_token_raises_deadline_exceeded(self):
        env = _env()
        token = CancelToken()
        token.cancel()
        with pytest.raises(DeadlineExceeded):
            env["searcher"].search(env["queries"][0], 3, cancel=token)

    def test_live_deadline_keeps_the_answer(self):
        env = _env()
        searcher = env["searcher"]
        for query in env["queries"]:
            timed = searcher.search(query, 3, cancel=Deadline(60.0))
            assert timed.ids == searcher.search(query, 3).ids

    def test_slow_shard_walk_overruns_the_request_deadline_with_504(self):
        # Every poll of the request's token sleeps 50 ms, so a 10 ms
        # budget expires at the first shard walk's first poll.
        env = _env()
        x, y, text = _http_inputs(env["queries"][0])

        async def go(server):
            return await fetch_json(
                "127.0.0.1",
                server.port,
                "/search",
                payload={
                    "x": x, "y": y, "text": text, "k": 3,
                    "deadline_seconds": 0.01,
                },
            )

        set_plan(FaultPlan(slow_node=0.05))
        try:
            status, body = _run(env, go)
        finally:
            set_plan(None, clear=True)
        assert status == 504
        assert "deadline" in body["error"]


class TestServerSettings:
    @pytest.mark.parametrize(
        "setting, value",
        [
            ("max_pending", 0),
            ("max_pending", -1),
            ("default_k", 0),
            ("default_k", -1),
        ],
        ids=["max_pending=0", "max_pending=-1", "default_k=0", "default_k=-1"],
    )
    def test_settings_below_one_are_config_errors(self, setting, value):
        # max_pending=0 would build an always-locked semaphore that
        # sheds every /search with 503.
        with pytest.raises(ConfigError, match=setting):
            ShardHttpServer(_env()["searcher"], **{setting: value})


class TestServeDeadline:
    """The server's default deadline follows ``QueryService``'s rule:
    a value that is not ``> 0`` is a configuration error, not a budget
    that expires in the first shard walk."""

    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan")])
    def test_deadline_not_above_zero_is_a_config_error(self, deadline):
        with pytest.raises(ConfigError, match="deadline_seconds"):
            ShardHttpServer(_env()["searcher"], deadline_seconds=deadline)

    def test_infinite_deadline_answers(self):
        env = _env()
        x, y, text = _http_inputs(env["queries"][0])

        async def go(server):
            return await fetch_json(
                "127.0.0.1",
                server.port,
                "/search",
                payload={"x": x, "y": y, "text": text, "k": 3},
            )

        status, body = _run(env, go, deadline_seconds=float("inf"))
        assert status == 200
        query = env["dataset"].make_query(Point(x, y), text)
        assert body["ids"] == list(env["searcher"].search(query, 3).ids)


class TestShedding:
    def test_exhausted_semaphore_sheds_503(self):
        env = _env()

        async def go(server):
            await server._sem.acquire()  # saturate admission
            try:
                return await fetch_json(
                    "127.0.0.1",
                    server.port,
                    "/search",
                    payload={"x": 1.0, "y": 1.0, "text": "sushi", "k": 2},
                )
            finally:
                server._sem.release()

        shed_before = env["registry"].counter("shard.http.shed").value
        status, body = _run(env, go, max_pending=1)
        assert status == 503
        assert body == {"error": "shed"}
        assert env["registry"].counter("shard.http.shed").value == (
            shed_before + 1
        )


class TestMalformedTransport:
    def test_garbage_request_line_is_400(self):
        env = _env()

        async def go(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"\r\n\r\n")
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return int(status_line.split()[1])

        assert _run(env, go) == 400

    def test_non_json_search_body_is_400(self):
        env = _env()

        async def go(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            body = b"this is not json"
            head = (
                b"POST /search HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            raw = await reader.readexactly(length)
            writer.close()
            return int(status_line.split()[1]), json.loads(raw)

        status, body = _run(env, go)
        assert status == 400
        assert "bad search request" in body["error"]


class TestCliSelfTest:
    def test_serve_http_self_test_passes(self, capsys):
        # The same gate CI runs: build a sharded service, bind an
        # ephemeral port, and require HTTP == direct == unsharded ids.
        rc = cli_main(
            [
                "serve-http",
                "--n",
                "200",
                "--shards",
                "2",
                "--queries",
                "2",
                "--self-test",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_retired_workers_flag_is_a_usage_error(self, capsys):
        # serve-http runs both rounds in-process and takes no worker
        # count: argparse must refuse the flag rather than ignore it.
        with pytest.raises(SystemExit) as exc:
            cli_main(["serve-http", "--workers", "2", "--self-test"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
