"""Stdlib-asyncio HTTP transport for the query service.

A deliberately small HTTP/1.1 server over ``asyncio`` streams — no new
runtime dependencies — that exposes a :class:`~repro.service.api.QueryAPI`
over JSON:

========================================  =====================================
``GET /healthz``                          liveness + version + artifact count
``GET /metrics``                          Prometheus text exposition (verbatim
                                          :func:`repro.obs.to_prometheus`)
``GET /stats``                            full telemetry JSON snapshot
``GET /artifacts``                        catalog listing
``GET /artifacts/<id>``                   one artifact's summary dict
``POST /v1/query/grid``                   figure / grid-aggregate queries
``POST /v1/query/windows``                per-class stability windows
``POST /v1/query/ensemble-stats``         seeded scenario ensemble statistics
========================================  =====================================

Request handling is async, but every query body runs in a
:class:`~concurrent.futures.ThreadPoolExecutor` via ``run_in_executor`` —
which is what lets the :class:`~repro.service.batching.GridBatcher` see
genuinely concurrent threads and coalesce them into shared kernel calls.
The event loop itself never blocks on NumPy.

Shutdown is graceful: SIGTERM/SIGINT stop the listener, connections that
wait for a request line are closed, in-flight requests get a drain grace
period, then the loop exits.  Binding port ``0`` picks a
free port and prints the actual one (used by the smoke test and benches).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from .. import obs
from .._version import __version__
from .api import QueryAPI
from .batching import GridBatcher
from .catalog import ArtifactCatalog

__all__ = ["ArtifactServer", "start_in_thread"]

#: Upper bound on request body size (JSON query payloads are tiny).
MAX_BODY = 4 * 1024 * 1024

#: Upper bound on header fields per request.
MAX_HEADERS = 100

#: Upper bounds on the sizes a query body sets, each checked before any work
#: starts.  Figures in the paper use a few dozen grid points and censuses
#: stop at n = 8; every limit leaves room well above that.
MAX_ALPHAS = 4096  # explicit grid points of /v1/query/grid
MAX_POINTS = 4096  # figure grid points of /v1/query/grid
MAX_ENSEMBLE_N = 8  # players of /v1/query/ensemble-stats (n = 9: 261k classes)
MAX_DRAWS = 10_000  # seeded draws of /v1/query/ensemble-stats
MAX_GRID = 256  # scale-grid points of /v1/query/ensemble-stats

#: Path label used for unrouted requests so the metrics cardinality stays
#: bounded no matter what clients probe.
_UNROUTED = "<unrouted>"


class HTTPError(Exception):
    """An error with a definite HTTP status (rendered as a JSON body)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ArtifactServer:
    """The asyncio HTTP front of a :class:`QueryAPI`.

    Parameters
    ----------
    api:
        The query layer to serve.  Defaults to a fresh path-resolving API.
    host, port:
        Bind address; port ``0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    threads:
        Size of the compute pool queries run on.  More threads means more
        concurrent kernel work *and* more coalescing opportunity.
    drain_grace:
        Seconds to wait for in-flight requests during shutdown.
    """

    def __init__(
        self,
        api: Optional[QueryAPI] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        threads: int = 4,
        drain_grace: float = 5.0,
    ) -> None:
        self.api = api if api is not None else QueryAPI()
        self.host = host
        self.port = int(port)
        self.threads = max(1, int(threads))
        self.drain_grace = float(drain_grace)
        self.started = threading.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stop: Optional[asyncio.Event] = None
        self._inflight = 0
        # Open connections, each mapped to whether its handler waits for a
        # request line (idle) rather than serving one.
        self._connections: Dict[asyncio.StreamWriter, bool] = {}
        self._draining = False
        self._start_time = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def run(self, install_signals: bool = False) -> None:
        """Serve until :meth:`shutdown` (or a signal) stops the loop."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.threads, thread_name_prefix="repro-query"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._start_time = time.monotonic()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self._stop.set)
        self.started.set()
        try:
            await self._stop.wait()
        finally:
            await self._drain()

    def shutdown(self) -> None:
        """Request a graceful stop (safe to call from any thread)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def _drain(self) -> None:
        """Stop accepting, close idle connections, wait out in-flight
        requests, release the pool.

        An idle connection's handler sees end-of-stream and returns, and a
        busy one closes its connection after its response, so no handler
        is left for the loop's teardown to cancel.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for writer, idle in list(self._connections.items()):
            if idle:
                writer.close()
        deadline = time.monotonic() + self.drain_grace
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._server is not None and not self._connections:
            # Since Python 3.12 this also waits for every connection.
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self.started.clear()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._draining:
                self._connections[writer] = True
                try:
                    request = await self._read_request(reader, writer)
                except HTTPError as error:
                    # The body was left unread, so the stream cannot carry
                    # another request: answer, then close.
                    obs.counter(
                        "repro_http_requests_total",
                        "HTTP requests served",
                        path=_UNROUTED,
                        status=str(error.status),
                    ).inc()
                    await self._write_response(
                        writer,
                        error.status,
                        _error_bytes(error.status, str(error)),
                        "application/json",
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                status, payload, content_type = await self._dispatch(
                    method, path, body
                )
                keep_alive = keep_alive and not self._draining
                await self._write_response(
                    writer, status, payload, content_type, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            request_line = await reader.readline()
        except ConnectionError:
            return None
        except ValueError:  # the line outgrew the stream limit
            raise HTTPError(414, "request line too long")
        # A line cut short by end-of-stream (a drain closing the
        # connection, or a client leaving) is no request.
        if not request_line.endswith(b"\n"):
            return None
        self._connections[writer] = False
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            try:
                line = await reader.readline()
            except ValueError:
                raise HTTPError(431, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise HTTPError(431, f"more than {MAX_HEADERS} header fields")
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HTTPError(400, f"invalid Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY:
            raise HTTPError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        path = path.split("?", 1)[0]
        route = self._route_label(method, path)
        self._inflight += 1
        obs.gauge(
            "repro_http_inflight_requests", "Requests currently being served"
        ).set(self._inflight)
        start = time.perf_counter()
        try:
            status, payload, content_type = await self._answer(
                method, path, body
            )
        except HTTPError as error:
            status = error.status
            payload = _error_bytes(status, str(error))
            content_type = "application/json"
        except Exception as error:  # noqa: BLE001 - served as 500
            status = 500
            payload = _error_bytes(500, f"{type(error).__name__}: {error}")
            content_type = "application/json"
        finally:
            self._inflight -= 1
            obs.gauge(
                "repro_http_inflight_requests",
                "Requests currently being served",
            ).set(self._inflight)
        obs.counter(
            "repro_http_requests_total",
            "HTTP requests served",
            path=route,
            status=str(status),
        ).inc()
        obs.histogram(
            "repro_http_request_seconds",
            "HTTP request latency",
            path=route,
        ).observe(time.perf_counter() - start)
        return status, payload, content_type

    def _route_label(self, method: str, path: str) -> str:
        """A bounded-cardinality metrics label for the request path."""
        if path.startswith("/artifacts/"):
            return "/artifacts/{id}"
        if path in (
            "/healthz",
            "/metrics",
            "/stats",
            "/artifacts",
            "/v1/query/grid",
            "/v1/query/windows",
            "/v1/query/ensemble-stats",
        ):
            return path
        return _UNROUTED

    async def _answer(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        if path == "/healthz":
            _require(method, "GET")
            return 200, _json_bytes(self._health()), "application/json"
        if path == "/metrics":
            _require(method, "GET")
            text = await self._compute(obs.to_prometheus)
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4"
        if path == "/stats":
            _require(method, "GET")
            result = await self._compute(self.api.stats)
            return 200, _json_bytes(result), "application/json"
        if path == "/artifacts":
            _require(method, "GET")
            result = await self._compute(self._list_artifacts)
            return 200, _json_bytes(result), "application/json"
        if path.startswith("/artifacts/"):
            _require(method, "GET")
            ref = path[len("/artifacts/"):]
            result = await self._compute(self._artifact_detail, ref)
            return 200, _json_bytes(result), "application/json"
        if path == "/v1/query/grid":
            _require(method, "POST")
            result = await self._compute(self._query_grid, _parse_json(body))
            return 200, _json_bytes(result), "application/json"
        if path == "/v1/query/windows":
            _require(method, "POST")
            result = await self._compute(
                self._query_windows, _parse_json(body)
            )
            return 200, _json_bytes(result), "application/json"
        if path == "/v1/query/ensemble-stats":
            _require(method, "POST")
            result = await self._compute(
                self._query_ensemble, _parse_json(body)
            )
            return 200, _json_bytes(result), "application/json"
        raise HTTPError(404, f"no route for {path}")

    async def _compute(self, fn, *args):
        """Run a query body on the compute pool; translate ValueError/KeyError.

        Every potentially-expensive call goes through here so the event
        loop stays free and concurrent requests genuinely overlap on
        threads (which is what the grid batcher coalesces).  A
        :class:`KeyError` is the catalog's unknown-artifact error, whose
        message is served as is.  Malformed body fields are refused by the
        endpoint bodies before any work, so a :class:`TypeError` here is a
        server fault and stays a 500.
        """
        try:
            return await self._loop.run_in_executor(
                self._pool, lambda: fn(*args)
            )
        except KeyError as error:
            message = error.args[0] if error.args else "unknown artifact"
            raise HTTPError(404, str(message))
        except (ValueError, FileNotFoundError) as error:
            raise HTTPError(400, str(error))

    # ------------------------------------------------------------------ #
    # Endpoint bodies (run on the compute pool)
    # ------------------------------------------------------------------ #

    def _health(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "version": __version__,
            "artifacts": len(self.api.catalog),
            "uptime_seconds": time.monotonic() - self._start_time,
        }

    def _list_artifacts(self) -> Dict[str, object]:
        self.api.catalog.refresh()
        return {"artifacts": self.api.artifacts()}

    def _artifact_detail(self, ref: str) -> Dict[str, object]:
        info = self.api.catalog.info(ref)
        return {
            "artifact": info.as_dict(),
            "summary": self.api.summary(ref),
        }

    def _query_grid(self, request: Dict[str, object]) -> Dict[str, object]:
        """``/v1/query/grid`` body — figure series or raw grid aggregates.

        ``{"artifact": id, "quantity": ..., "points": N}`` answers the
        CLI-identical figure payload; adding ``"alphas": [...]`` (with an
        optional ``"game"``) answers raw grid aggregates on that exact
        grid instead.
        """
        ref = _artifact_field(request, "artifact")
        if "alphas" in request:
            alphas = request["alphas"]
            if not isinstance(alphas, list) or not alphas:
                raise HTTPError(400, "'alphas' must be a non-empty list")
            _check_limit("alphas", len(alphas), MAX_ALPHAS)
            try:
                alphas = [float(alpha) for alpha in alphas]
            except (TypeError, ValueError, OverflowError):
                raise HTTPError(400, "'alphas' must be a list of numbers")
            return self.api.grid_aggregates(
                ref, alphas, str(request.get("game", "bcg"))
            )
        return self.api.figure(
            ref,
            quantity=str(request.get("quantity", "average_poa")),
            points=_int_field(request, "points", 24, MAX_POINTS, minimum=1),
        )

    def _query_windows(self, request: Dict[str, object]) -> Dict[str, object]:
        ref = _artifact_field(request, "artifact")
        return self.api.windows(ref, game=str(request.get("game", "bcg")))

    def _query_ensemble(self, request: Dict[str, object]) -> Dict[str, object]:
        return self.api.ensemble_stats(
            scenario=str(request.get("scenario", "random_weights")),
            n=_int_field(request, "n", 6, MAX_ENSEMBLE_N),
            draws=_int_field(request, "draws", 8, MAX_DRAWS),
            seed=_int_field(request, "seed", 0),
            grid=_int_field(request, "grid", 8, MAX_GRID, minimum=1),
            delta=_artifact_field(request, "delta", required=False),
        )


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _error_bytes(status: int, message: str) -> bytes:
    return _json_bytes({"error": message, "status": status})


def _parse_json(body: bytes) -> Dict[str, object]:
    if not body:
        return {}
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers undecodable bytes, bad JSON and integer
        # literals past the int() digit limit; RecursionError deep nesting.
        raise HTTPError(400, f"invalid JSON body: {error}")
    if not isinstance(parsed, dict):
        raise HTTPError(400, "request body must be a JSON object")
    return parsed


def _artifact_field(
    request: Dict[str, object], name: str, required: bool = True
) -> Optional[str]:
    """An artifact id body field: a string (``None`` if optional and absent)."""
    value = request.get(name)
    if value is None:
        if required:
            raise HTTPError(400, f"missing required field {name!r}")
        return None
    if not isinstance(value, str):
        raise HTTPError(400, f"{name!r} must be an artifact id string")
    return value


def _check_limit(name: str, size: int, limit: int) -> None:
    """Refuse a client-set size above its limit, before any work starts."""
    if size > limit:
        raise HTTPError(400, f"{name!r} is {size}; the limit is {limit}")


def _int_field(
    request: Dict[str, object],
    name: str,
    default: int,
    limit: Optional[int] = None,
    minimum: Optional[int] = None,
) -> int:
    """An integer body field, refused outside ``[minimum, limit]`` (each
    bound only when given)."""
    try:
        value = int(request.get(name, default))
    except (TypeError, ValueError, OverflowError):
        raise HTTPError(400, f"{name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise HTTPError(400, f"{name!r} is {value}; it must be at least {minimum}")
    if limit is not None:
        _check_limit(name, value, limit)
    return value


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise HTTPError(405, f"use {expected}")


def start_in_thread(
    api: Optional[QueryAPI] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    threads: int = 4,
    drain_grace: float = 5.0,
):
    """Run an :class:`ArtifactServer` on a daemon thread (tests, benches).

    Returns ``(server, thread)`` once the listener is bound — read the
    actual port from ``server.port``.  Stop with ``server.shutdown()``
    then ``thread.join()``.
    """
    server = ArtifactServer(
        api=api, host=host, port=port, threads=threads, drain_grace=drain_grace
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run()),
        name="repro-artifact-server",
        daemon=True,
    )
    thread.start()
    if not server.started.wait(timeout=10.0):
        raise RuntimeError("artifact server failed to start within 10 s")
    return server, thread


def serve_forever(
    root: Optional[str],
    host: str = "127.0.0.1",
    port: int = 8973,
    threads: int = 4,
    mmap: bool = True,
    drain_grace: float = 5.0,
) -> int:
    """Blocking entry point behind ``repro serve`` (installs signal handlers)."""
    catalog = ArtifactCatalog(root=root, mmap=mmap)
    api = QueryAPI(catalog, batcher=GridBatcher())
    server = ArtifactServer(
        api=api, host=host, port=port, threads=threads, drain_grace=drain_grace
    )

    async def _main() -> None:
        task = asyncio.create_task(server.run(install_signals=True))
        await asyncio.sleep(0)  # let run() bind before announcing
        while not server.started.is_set() and not task.done():
            await asyncio.sleep(0.005)
        if server.started.is_set():
            print(
                f"serving {len(catalog)} artifact(s) on "
                f"http://{server.host}:{server.port}",
                flush=True,
            )
        await task

    asyncio.run(_main())
    return 0
