"""Asyncio HTTP front door for the sharded scatter–gather searcher.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` streams and
``json`` — no framework, no dependency — fronting a
:class:`~repro.shard.scatter.ScatterGatherSearcher` directly: every
``/search`` is one :meth:`ScatterGatherSearcher.search
<repro.shard.scatter.ScatterGatherSearcher.search>` call, run on the
event loop's executor with one cancellation token that every admitted
shard's walk polls.  The token is the request's deadline (the
request's ``deadline_seconds``, else the server's default), wrapped by
an armed ``slow_node`` fault (:mod:`repro.service.faults`), and its
budget starts when the search does.

Endpoints (all JSON):

* ``POST /search`` — body ``{"x": .., "y": .., "text": "..", "k": ..}``
  (optional ``"deadline_seconds"``); answers ``{"ids": [...], "k": ..,
  "stats": {...}}``.  The id list is bit-identical to the unsharded
  snapshot engine's answer (the scatter–gather parity guarantee).
  ``x`` and ``y`` must be finite and a given deadline finite and
  positive: ``float`` parses ``"nan"``/``"inf"`` and ``json`` accepts
  ``NaN``, and a NaN coordinate would otherwise list every object.
* ``GET /healthz`` — liveness plus shard fan-out.
* ``GET /metrics`` — the metrics-registry snapshot (the searcher's
  ``search.*`` and ``shard.*`` instruments plus ``shard.http.*``).

Admission shedding: at most ``max_pending`` requests may be in flight;
beyond that the server answers ``503 {"error": "shed"}`` immediately
(the HTTP analogue of :class:`~repro.service.AdmissionQueue`'s
``QueueFull``), counted as ``shard.http.shed``.  Deadline overruns map
to ``504``, malformed requests to ``400``.

Start it from the CLI: ``repro-rstknn serve-http --n 2000 --shards 4``
(see the README quickstart), or in-process with
``await ShardHttpServer(searcher).start()`` for tests.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Dict, Optional, Tuple

from ..errors import ConfigError, DeadlineExceeded, QueryError, ReproError
from ..obs import MetricsRegistry
from ..service.deadline import token_for
from ..service.faults import current_plan, wrap_token
from ..spatial import Point
from .scatter import ScatterGatherSearcher

_MAX_BODY_BYTES = 1 << 20  # 1 MiB: queries are tiny; refuse absurd bodies


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
    """The asyncio front door: routes, shedding, deadlines, error mapping.

    Args:
        searcher: The scatter–gather searcher every ``/search`` runs.
        host: Bind address.
        port: Bind port; ``0`` picks an ephemeral one, read back from
            :attr:`port` after :meth:`start`.
        default_k: ``k`` of a request that names none; ``>= 1``.
        max_pending: In-flight ``/search`` cap, beyond which requests
            shed with 503; ``>= 1``.
        deadline_seconds: Default per-request deadline, ``> 0``
            (``None``: none unless the request names one).
        metrics: Registry ``/metrics`` serves and the ``shard.http.*``
            counters land in (defaults to the searcher's, which holds
            its ``search.*`` and ``shard.*`` series).

    Raises:
        ConfigError: ``default_k`` or ``max_pending`` below 1, or a
            ``deadline_seconds`` that is not ``> 0`` (``nan``
            included), as :class:`~repro.service.QueryService` rules.
    """

    def __init__(
        self,
        searcher: ScatterGatherSearcher,
        *,
        host: str = "127.0.0.1",
        port: int = 8764,
        default_k: int = 5,
        max_pending: int = 64,
        deadline_seconds: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if default_k < 1:
            raise ConfigError(f"default_k must be >= 1, got {default_k}")
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        if deadline_seconds is not None and not deadline_seconds > 0.0:
            raise ConfigError(
                f"deadline_seconds must be > 0, got {deadline_seconds}"
            )
        self.searcher = searcher
        self.host = host
        self.port = port
        self.default_k = default_k
        self.deadline_seconds = deadline_seconds
        self.metrics = metrics if metrics is not None else searcher.metrics
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
                "shards": len(self.searcher.index),
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
        if deadline is None:
            deadline = self.deadline_seconds
        searcher = self.searcher
        query = searcher.index.dataset.make_query(Point(x, y), text)

        def run():
            # The token is built on the executor thread, so its budget
            # starts when the search does, not when the request queued.
            token = wrap_token(current_plan(), token_for(deadline))
            return searcher.search(query, k, cancel=token)

        async with self._sem:
            loop = asyncio.get_running_loop()
            try:
                result = await loop.run_in_executor(None, run)
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
        }


class _HttpError(Exception):
    """Internal routing error carrying its HTTP mapping."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload


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
