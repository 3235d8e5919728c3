"""Asyncio HTTP front door for the sharded scatter–gather searcher.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` streams and
``json`` — no framework, no dependency — fronting a
:class:`ShardQueryService`, which lifts PR 5's reliability policies to
per-shard granularity: every admitted shard's round-1 search runs
through that shard's own :class:`~repro.service.QueryService`, so one
slow or faulty shard degrades (snapshot → seed) or deadlines
*individually* while the other shards answer normally, and the shared
deadline budget spans the admitted shards' searches the same way a
single service call spans its degradation chain.

Endpoints (all JSON):

* ``POST /search`` — body ``{"x": .., "y": .., "text": "..", "k": ..}``
  (optional ``"deadline_seconds"``); answers ``{"ids": [...], "k": ..,
  "stats": {...}, "degraded": {...}}``.  The id list is bit-identical
  to the unsharded snapshot engine's answer (the scatter–gather parity
  guarantee).  ``x`` and ``y`` must be finite and a given deadline
  finite and positive: ``float`` parses ``"nan"``/``"inf"`` and
  ``json`` accepts ``NaN``, and a NaN coordinate would otherwise list
  every object.
* ``GET /healthz`` — liveness plus shard fan-out.
* ``GET /metrics`` — the service's metrics-registry snapshot.

Admission shedding: at most ``max_pending`` requests may be in flight;
beyond that the server answers ``503 {"error": "shed"}`` immediately
(the HTTP analogue of :class:`~repro.service.AdmissionQueue`'s
``QueueFull``), counted as ``shard.http.shed``.  Deadline overruns map
to ``504``, malformed requests to ``400``.

Start it from the CLI: ``repro-rstknn serve-http --n 2000 --shards 4``
(see the README quickstart), or in-process via :func:`serve` /
:meth:`ShardHttpServer.start` for tests.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DeadlineExceeded, QueryError, ReproError
from ..spatial import Point
from ..obs import NULL_REGISTRY, MetricsRegistry
from ..service import DEGRADATION_CHAIN, QueryService
from .scatter import ScatterGatherSearcher, ShardQueryStats, ShardSearchResult

_MAX_BODY_BYTES = 1 << 20  # 1 MiB: queries are tiny; refuse absurd bodies


class ShardQueryService:
    """Per-shard reliability policies around the scatter–gather search.

    Wraps a :class:`~repro.shard.scatter.ScatterGatherSearcher` and one
    :class:`~repro.service.QueryService` **per shard**: shard admission
    (summary pruning) stays the searcher's, round 1 is served through
    each admitted shard's own service (deadline + degradation chain per
    shard, all chain engines being parity-identical), one shard after
    another, and round 2 is the searcher's exact
    :meth:`~repro.shard.scatter.ScatterGatherSearcher.gather`.  Answers
    therefore keep the scatter–gather bit-parity guarantee while gaining
    per-shard fault isolation.  The ``shard.*`` instruments land in the
    searcher's registry, as they do for a direct ``search``.
    """

    def __init__(
        self,
        searcher: ScatterGatherSearcher,
        *,
        chain: Sequence[str] = DEGRADATION_CHAIN,
        deadline_seconds: Optional[float] = None,
        max_pending: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.searcher = searcher
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.deadline_seconds = deadline_seconds
        self.services = [
            QueryService(
                shard.tree,
                searcher.config,
                searcher.te_weight,
                chain=chain,
                deadline_seconds=deadline_seconds,
                max_pending=max_pending,
                metrics=metrics,
            )
            for shard in searcher.index.shards
        ]

    def make_query(self, x: float, y: float, text: str):
        """Build a query object against the parent dataset's vocabulary
        (shared by every shard, so similarity values are global)."""
        return self.searcher.index.dataset.make_query(Point(x, y), text)

    def serve(
        self,
        query,
        k: int,
        *,
        deadline_seconds: Optional[float] = None,
    ) -> Tuple[ShardSearchResult, Dict[str, object]]:
        """Scatter through per-shard services, merge exactly.

        Returns the merged :class:`ShardSearchResult` plus a
        degradation report ``{"shards": {sid: path}, "engines": {sid:
        name}}`` covering every searched shard.

        Raises:
            DeadlineExceeded: some shard overran the (shared) deadline.
            QueryError: invalid ``k`` or query.
            ServiceError: a shard exhausted its degradation chain.
        """
        searcher = self.searcher
        started = time.perf_counter()
        deadline = (
            deadline_seconds
            if deadline_seconds is not None
            else self.deadline_seconds
        )
        admitted, pruned = searcher._admit(query, k)
        stats = ShardQueryStats(
            shards_total=len(searcher.index),
            shards_searched=len(admitted),
            shards_pruned=len(pruned),
        )
        candidates: List[Tuple[int, int]] = []
        degraded: Dict[str, object] = {"shards": {}, "engines": {}}
        for sid in admitted:
            remaining = None
            if deadline is not None:
                spent = time.perf_counter() - started
                remaining = max(deadline - spent, 1e-9)
            served = self.services[sid].serve(
                query, k, deadline_seconds=remaining
            )
            degraded["engines"][sid] = served.engine
            if served.degraded_path:
                degraded["shards"][sid] = list(served.degraded_path)
            stats.add_walk(served.result.stats)
            candidates.extend((sid, oid) for oid in served.ids)
        result = searcher.gather(query, k, candidates, stats, started)
        return result, degraded


def _response(
    status: int, payload: Dict[str, object], reason: str = ""
) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 503: "Service Unavailable",
               504: "Gateway Timeout", 500: "Internal Server Error"}
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reason or reasons.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class ShardHttpServer:
    """The asyncio front door: routes, shedding, error mapping."""

    def __init__(
        self,
        service: ShardQueryService,
        *,
        host: str = "127.0.0.1",
        port: int = 8764,
        default_k: int = 5,
        max_pending: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.default_k = default_k
        self.metrics = (
            metrics
            if metrics is not None
            else (service.metrics or NULL_REGISTRY)
        )
        self._sem = asyncio.Semaphore(max_pending)
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "asyncio.AbstractServer":
        """Bind and start serving; returns the asyncio server object."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        return self._server

    async def stop(self) -> None:
        """Stop accepting and close the listening sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length > _MAX_BODY_BYTES:
            raise ValueError("body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.counter("shard.http.requests").inc()
        try:
            method, path, body = await self._read_request(reader)
        except (ValueError, asyncio.IncompleteReadError) as exc:
            writer.write(_response(400, {"error": str(exc)}))
            await writer.drain()
            writer.close()
            return
        try:
            payload = await self._route(method, path, body)
        except _HttpError as exc:
            payload = (exc.status, exc.payload)
        except Exception as exc:  # noqa: BLE001 — report, don't crash loop
            payload = (500, {"error": f"{type(exc).__name__}: {exc}"})
        writer.write(_response(payload[0], payload[1]))
        await writer.drain()
        writer.close()

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, {"error": "GET only"})
            return 200, {
                "status": "ok",
                "shards": len(self.service.searcher.index),
            }
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, {"error": "GET only"})
            return 200, self.metrics.snapshot()
        if path == "/search":
            if method != "POST":
                raise _HttpError(405, {"error": "POST only"})
            return await self._search(body)
        raise _HttpError(404, {"error": f"no route {path!r}"})

    async def _search(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        try:
            req = json.loads(body.decode("utf-8"))
            x = float(req["x"])
            y = float(req["y"])
            text = str(req.get("text", ""))
            k = int(req.get("k", self.default_k))
            deadline = req.get("deadline_seconds")
            deadline = None if deadline is None else float(deadline)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"x and y must be finite, got {x}, {y}")
            if deadline is not None and not 0.0 < deadline < math.inf:
                raise ValueError(
                    f"deadline_seconds must be finite and > 0, got {deadline}"
                )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise _HttpError(
                400, {"error": f"bad search request: {exc}"}
            ) from exc
        if self._sem.locked():
            self.metrics.counter("shard.http.shed").inc()
            raise _HttpError(503, {"error": "shed"})
        async with self._sem:
            loop = asyncio.get_running_loop()
            query = self.service.make_query(x, y, text)
            try:
                result, degraded = await loop.run_in_executor(
                    None,
                    lambda: self.service.serve(
                        query, k, deadline_seconds=deadline
                    ),
                )
            except DeadlineExceeded as exc:
                raise _HttpError(504, {"error": str(exc)}) from exc
            except (QueryError, ValueError) as exc:
                raise _HttpError(400, {"error": str(exc)}) from exc
            except ReproError as exc:
                raise _HttpError(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                ) from exc
        return 200, {
            "ids": list(result.ids),
            "k": k,
            "stats": result.stats.as_dict(),
            "degraded": degraded,
        }


class _HttpError(Exception):
    """Internal routing error carrying its HTTP mapping."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload


async def serve(
    service: ShardQueryService,
    *,
    host: str = "127.0.0.1",
    port: int = 8764,
    default_k: int = 5,
    max_pending: int = 64,
    metrics: Optional[MetricsRegistry] = None,
    ready: Optional["asyncio.Event"] = None,
) -> None:
    """Run the front door until cancelled.

    ``ready`` (if given) is set once the socket is bound — tests use it
    to race-free connect; the possibly-rebound port is on the server
    object meanwhile.
    """
    server = ShardHttpServer(
        service,
        host=host,
        port=port,
        default_k=default_k,
        max_pending=max_pending,
        metrics=metrics,
    )
    await server.start()
    if ready is not None:
        ready.set()
    try:
        async with server._server:
            await server._server.serve_forever()
    finally:
        await server.stop()


async def fetch_json(
    host: str,
    port: int,
    path: str,
    payload: Optional[Dict[str, object]] = None,
) -> Tuple[int, Dict[str, object]]:
    """Tiny asyncio HTTP client for tests and the CLI self-test.

    ``payload`` switches GET → POST.  Returns ``(status, body)``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    if payload is None:
        head = f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n"
        writer.write(head.encode("ascii"))
    else:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    raw = await reader.readexactly(length) if length else b"{}"
    writer.close()
    return status, json.loads(raw.decode("utf-8"))
