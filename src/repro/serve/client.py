"""A stdlib client for the serving daemon.

Thin, synchronous, and dependency-free (``http.client``), so the CLI,
the tests and the CI smoke job all speak to the daemon the same way.
Every method raises :class:`ServeError` on a non-2xx status, carrying
the daemon's ``error`` message; streaming endpoints yield decoded
NDJSON events until the stream ends.

Each thread that uses a :class:`ServeClient` gets one persistent
HTTP/1.1 connection and sends all its requests on it, so one client
may be shared between threads.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Dict, Iterator, Optional, Tuple
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """The daemon answered with an error status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _error(response: http.client.HTTPResponse, raw: bytes) -> ServeError:
    try:
        message = json.loads(raw)["error"]
    except (ValueError, KeyError, TypeError):
        message = raw.decode("utf-8", "replace")
    return ServeError(response.status, message)


class ServeClient:
    """One daemon endpoint (``http://host:port``), stdlib-only."""

    def __init__(self, url: str, timeout: float = 600.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {parts.scheme!r}")
        if not parts.hostname:
            raise ValueError(f"no host in daemon url {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        #: ``connection``: the calling thread's idle connection, if any.
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _send(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request on this thread's connection; returns it with
        the response, whose body the caller reads before handing the
        connection back with :meth:`_release`.

        A reused connection the daemon has closed fails before any
        response byte arrives; that request is sent once more on a new
        connection.
        """
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        # A closed connection reconnects on request(): not a reuse.
        reused = connection.sock is not None
        while True:
            try:
                connection.request(
                    method, path, body=payload, headers=headers
                )
                return connection, connection.getresponse()
            # RemoteDisconnected is a ConnectionResetError.
            except (ConnectionResetError, BrokenPipeError):
                connection.close()
                if not reused:
                    raise
                reused = False
            except BaseException:
                connection.close()
                raise

    def _release(self, connection: http.client.HTTPConnection) -> None:
        """Hand back a connection whose last response was read to its
        end; it becomes this thread's connection for the next request."""
        displaced = getattr(self._local, "connection", None)
        self._local.connection = connection
        if displaced is not None:
            displaced.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Any:
        connection, response = self._send(method, path, body)
        try:
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        self._release(connection)
        if response.status >= 400:
            raise _error(response, raw)
        return json.loads(raw) if raw else None

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one job; returns the job record (``job``, ``state``,
        ``coalesced``, ...)."""
        return self._request("POST", "/jobs", spec)

    def jobs(self) -> Any:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Any:
        """The finished job's result payload (:class:`ServeError` 409
        while it is still running)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream the job's NDJSON progress events until terminal.

        The stream holds its own connection: requests made while it is
        open go on another one.  Read to its end, the stream hands its
        connection back; stopped early, it closes it.
        """
        connection, response = self._send("GET", f"/jobs/{job_id}/events")
        finished = False
        try:
            if response.status >= 400:
                raw = response.read()
                finished = True
                raise _error(response, raw)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
            finished = True
        finally:
            if finished:
                self._release(connection)
            else:
                connection.close()

    def wait(self, job_id: str) -> Dict[str, Any]:
        """Follow the event stream to its end; returns the final job
        record (whose ``state`` is terminal)."""
        for _event in self.events(job_id):
            pass
        return self.job(job_id)

    # ------------------------------------------------------------------
    # Daemon and store management
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def store_info(self) -> Dict[str, Any]:
        return self._request("GET", "/store/info")

    def store_cleanup(self, min_age_s: float = 0.0) -> Dict[str, Any]:
        return self._request(
            "POST", "/store/cleanup", {"min_age_s": min_age_s}
        )

    def store_purge(self) -> Dict[str, Any]:
        return self._request("POST", "/store/purge")

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown")
