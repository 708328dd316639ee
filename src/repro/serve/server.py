"""The sweep-as-a-service daemon: a stdlib asyncio HTTP/JSON server.

One :class:`ServeDaemon` binds a socket, parses a deliberately small
slice of HTTP/1.1 (request line, headers, ``Content-Length`` bodies),
and exposes the :class:`repro.serve.scheduler.JobScheduler` plus the
persistent result store:

========================  =============================================
``GET  /healthz``         liveness probe
``GET  /stats``           registry and connection counters
``POST /jobs``            submit a job (``202``; body echoes the job)
``GET  /jobs``            list all jobs
``GET  /jobs/<id>``       one job's state and counters
``GET  /jobs/<id>/result``  the result payload (``409`` until done)
``GET  /jobs/<id>/events``  NDJSON progress stream, start to terminal
``POST /jobs/<id>/cancel``  detach one subscriber (also ``DELETE``)
``GET  /store/info``      store layout + hit/miss/lost-write counters
``POST /store/cleanup``   remove stale temp files (``min_age_s``)
``POST /store/purge``     delete every cached result and blob
``POST /shutdown``        graceful stop: drain executions, close
========================  =============================================

Connections are persistent.  One connection carries request after
request until the client closes it, sends ``Connection: close`` or
speaks HTTP/1.0, or posts ``/shutdown``; a client that sends a job's
four requests (submit, events, job, result) on one connection pays
for one TCP handshake, not four.  Every JSON response is written in
one piece with its ``Content-Length``.  The NDJSON event stream is
sent with ``Transfer-Encoding: chunked``, one chunk per event and the
zero-length chunk at the end, so the connection is ready for the next
request when the stream ends; an HTTP/1.0 client gets the bare stream,
delimited by connection close.  On shutdown the daemon closes every
connection that is waiting for its next request.  ``/stats`` counts
``connections_accepted`` and ``requests_served``.

The daemon is loopback-only by default and wholly unauthenticated: it
is a lab tool for one user's experiment queue, not an internet
service.
"""

from __future__ import annotations

import asyncio
import json
import threading
import traceback
from typing import Any, Dict, NamedTuple, Optional, Set, Tuple

from repro.core.store import configure_result_store, get_result_store
from repro.serve.jobs import Job, JobState
from repro.serve.protocol import SpecError
from repro.serve.scheduler import JobScheduler

__all__ = ["ServeDaemon"]

_MAX_BODY = 8 * 1024 * 1024
_MAX_HEADER = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _Request(NamedTuple):
    method: str
    path: str
    body: Any
    http11: bool
    #: The client sent ``Connection: close``.
    close: bool


class ServeDaemon:
    """The serving daemon; see the module docstring for the routes."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.jobs = max(1, jobs)
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.scheduler = JobScheduler(jobs=self.jobs)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Set once the socket is bound (thread-helper handshake).
        self.ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Connections waiting for their next request.
        self._idle: Set[asyncio.StreamWriter] = set()
        self.connections_accepted = 0
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Configure the store, bind the socket, record the port."""
        self._loop = asyncio.get_running_loop()
        if self.cache_dir is not None or not self.use_cache:
            configure_result_store(self.cache_dir, enabled=self.use_cache)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.ready.set()

    async def serve(self) -> None:
        """Serve until :meth:`stop` (or ``POST /shutdown``), then drain."""
        if self._server is None:
            await self.start()
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            # Since Python 3.12 wait_closed() also waits for every open
            # connection, so an idle keep-alive one would hold it
            # forever.  Connections mid-response end on their own: each
            # stops after its response, and the scheduler's shutdown
            # ends every event stream.
            for writer in list(self._idle):
                writer.close()
            await self.scheduler.shutdown()
            await self._server.wait_closed()

    def stop(self) -> None:
        """Request a graceful stop (safe from any thread)."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # loop already closed: the daemon has finished

    # -- background-thread helper (tests, notebooks) -------------------
    def start_in_thread(self) -> "ServeDaemon":
        """Run the daemon on a daemon thread; returns once bound."""

        def _main() -> None:
            asyncio.run(self.serve())

        self._thread = threading.Thread(
            target=_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self.ready.wait(timeout=30):
            raise RuntimeError("serve daemon failed to bind within 30s")
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        """Read one request; ``None`` when the client closed the
        connection before sending another."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head too large") from None
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _HttpError(400, "truncated request") from None
        if len(head) > _MAX_HEADER:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body: Any = None
        try:
            length = int(headers.get("content-length") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length:
            if length > _MAX_BODY:
                raise _HttpError(413, "request body too large")
            try:
                raw = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _HttpError(400, "truncated request") from None
            try:
                body = json.loads(raw)
            except ValueError:
                raise _HttpError(400, "request body is not valid JSON") from None
        tokens = headers.get("connection", "").lower().split(",")
        return _Request(
            method.upper(),
            target.split("?", 1)[0],
            body,
            http11=version.strip() == "HTTP/1.1",
            close="close" in (token.strip() for token in tokens),
        )

    @staticmethod
    def _response_head(
        status: int,
        content_type: str,
        framing: Optional[str],
        keep_alive: bool,
    ) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
        ]
        if framing is not None:
            lines.append(framing)
        if not keep_alive:
            lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool,
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        head = self._response_head(
            status,
            "application/json",
            f"Content-Length: {len(body)}",
            keep_alive,
        )
        writer.write(head + body)
        await writer.drain()

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one connection, request after request, until the
        client closes it or a response says ``Connection: close``."""
        self.connections_accepted += 1
        stopping = False
        try:
            try:
                while not self._stop.is_set():
                    # Only a connection waiting for its next request is
                    # closed by a shutdown; one mid-response finishes.
                    self._idle.add(writer)
                    try:
                        request = await self._read_request(reader)
                    finally:
                        self._idle.discard(writer)
                    if request is None:
                        break
                    self.requests_served += 1
                    stopping = request.method == "POST" and (
                        request.path == "/shutdown"
                    )
                    keep_alive = (
                        request.http11 and not request.close and not stopping
                    )
                    await self._respond(request, writer, keep_alive)
                    if not keep_alive:
                        break
            except _HttpError as exc:
                # The request was not read to its end, so the next one
                # cannot be found on this connection: answer and close.
                await self._send_json(
                    writer, exc.status, {"error": exc.message}, False
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if stopping:
            self._stop.set()

    async def _respond(
        self,
        request: _Request,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> None:
        try:
            status, payload = self._route(
                request.method, request.path, request.body
            )
        except _HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # route bug: report, don't die
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}",
                # A 500 is a server bug; the client-side message alone
                # cannot locate it.
                "traceback": "".join(
                    traceback.format_exception(
                        type(exc), exc, exc.__traceback__
                    )
                ),
            }
        if isinstance(payload, Job):
            await self._stream_events(
                payload, writer, request.http11, keep_alive
            )
        else:
            await self._send_json(writer, status, payload, keep_alive)

    async def _stream_events(
        self,
        job: Job,
        writer: asyncio.StreamWriter,
        chunked: bool,
        keep_alive: bool,
    ) -> None:
        """The job's NDJSON events, one chunk each, then the zero-length
        chunk; without chunking (HTTP/1.0) the close ends the stream."""
        pending = self._response_head(
            200,
            "application/x-ndjson",
            "Transfer-Encoding: chunked" if chunked else None,
            keep_alive,
        )
        async for event in self.scheduler.events(job.execution):
            line = (json.dumps(event) + "\n").encode("utf-8")
            if chunked:
                line = b"%x\r\n%s\r\n" % (len(line), line)
            writer.write(pending + line)
            pending = b""
            await writer.drain()
        if chunked:
            pending += b"0\r\n\r\n"
        writer.write(pending)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, body: Any) -> Tuple[int, Any]:
        """Answer one request as ``(status, payload)``; a :class:`Job`
        payload asks for that job's event stream."""
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True}
        if path == "/stats" and method == "GET":
            stats = self.scheduler.registry.stats()
            stats["workers"] = self.jobs
            stats["connections_accepted"] = self.connections_accepted
            stats["requests_served"] = self.requests_served
            return 200, stats
        if path == "/jobs" and method == "POST":
            try:
                job = self.scheduler.submit(body)
            except SpecError as exc:
                raise _HttpError(400, str(exc)) from None
            return 202, job.to_jsonable()
        if path == "/jobs" and method == "GET":
            jobs = [
                job.to_jsonable()
                for job in self.scheduler.registry.jobs.values()
            ]
            return 200, {"jobs": jobs}
        if path.startswith("/jobs/"):
            return self._job_route(method, path)
        if path == "/store/info" and method == "GET":
            store = get_result_store()
            payload = store.info()
            payload["counters"] = store.counters()
            return 200, payload
        if path == "/store/cleanup" and method == "POST":
            min_age = 0.0
            if isinstance(body, dict):
                min_age = float(body.get("min_age_s", 0.0))
            removed = get_result_store().cleanup_stale_tmp(min_age)
            return 200, {"removed": removed}
        if path == "/store/purge" and method == "POST":
            # The next execution of each fingerprint builds its answer.
            self.scheduler.registry.answers.clear()
            return 200, {"purged": get_result_store().purge()}
        if path == "/shutdown" and method == "POST":
            return 200, {"ok": True, "stopping": True}
        known = path in ("/healthz", "/stats", "/jobs", "/shutdown") or (
            path.startswith("/store/")
        )
        raise _HttpError(
            405 if known else 404,
            f"no route for {method} {path}",
        )

    def _job_route(self, method: str, path: str) -> Tuple[int, Any]:
        parts = path.strip("/").split("/")
        # parts = ["jobs", <id>] or ["jobs", <id>, <verb>]
        if len(parts) == 2:
            job_id, verb = parts[1], None
        elif len(parts) == 3:
            job_id, verb = parts[1], parts[2]
        else:
            raise _HttpError(404, f"no route for {path}")
        job = self.scheduler.registry.jobs.get(job_id)

        if verb is None and method == "DELETE":
            verb, method = "cancel", "POST"
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")

        if verb is None and method == "GET":
            return 200, job.to_jsonable()
        if verb == "cancel" and method == "POST":
            self.scheduler.cancel_job(job_id)
            return 200, job.to_jsonable()
        if verb == "result" and method == "GET":
            if job.state is not JobState.DONE:
                raise _HttpError(
                    409,
                    f"job {job_id} is {job.state.value}, not done"
                    + (
                        f": {job.execution.error}"
                        if job.execution.error
                        else ""
                    ),
                )
            return 200, job.execution.result
        if verb == "events" and method == "GET":
            return 200, job
        raise _HttpError(405, f"no route for {method} {path}")
