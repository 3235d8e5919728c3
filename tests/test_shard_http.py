"""Asyncio HTTP front door: routing, parity, shedding, error mapping.

The front door is a thin shell around :class:`ShardQueryService`; what
matters is that the JSON boundary never changes an answer.  The parity
test therefore compares an HTTP ``/search`` response against a direct
``service.serve`` call built from the *same JSON inputs* via
``make_query`` — re-tokenized text must go through the identical path
on both sides.  The rest pins the operational surface: health and
metrics routes, 400/404/405 mappings for malformed traffic, 503
shedding when the admission semaphore is exhausted, and the CLI
self-test (the same gate CI runs).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main as cli_main
from repro.index.iurtree import IURTree
from repro.obs import MetricsRegistry
from repro.shard import ScatterGatherSearcher, build_sharded_index
from repro.shard.http import ShardHttpServer, ShardQueryService, fetch_json
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
        service = ShardQueryService(searcher, metrics=registry)
        queries = sample_queries(dataset, 3, seed=17)
        _STATE.update(
            dataset=dataset,
            tree=tree,
            service=service,
            registry=registry,
            queries=queries,
        )
    return _STATE


async def _with_server(env, fn, **server_kwargs):
    """Start an ephemeral-port server, run ``fn(server)``, stop it."""
    server = ShardHttpServer(
        env["service"], port=0, metrics=env["registry"], **server_kwargs
    )
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
        service = env["service"]
        sampled = env["queries"][0]
        center = sampled.mbr().center()
        x, y = center.x, center.y
        text = " ".join(sampled.keywords)
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
        query = service.make_query(x, y, text)
        result, degraded = service.serve(query, k)
        assert body["ids"] == list(result.ids)
        assert body["k"] == k
        assert set(body["degraded"]) == {"shards", "engines"}
        assert body["stats"]["shards_total"] == 2

    def test_service_reports_the_direct_search_counters(self):
        # Both read paths fold each searched shard's walk into one
        # stats block, so a served query reports a direct search's work.
        env = _env()
        service = env["service"]

        def fanouts():
            histograms = env["registry"].snapshot()["histograms"]
            return histograms.get("shard.fanout", {}).get("count", 0)

        for query in env["queries"]:
            before = fanouts()
            served, _ = service.serve(query, 4)
            assert fanouts() == before + 1
            direct = service.searcher.search(query, 4)
            got = served.stats.as_dict()
            want = direct.stats.as_dict()
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
        service = env["service"]
        sampled = env["queries"][1]
        center = sampled.mbr().center()
        x, y = center.x, center.y
        text = " ".join(sampled.keywords)

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
        query = service.make_query(x, y, text)
        assert body["ids"] == list(engine.search(query, 3).ids)


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
