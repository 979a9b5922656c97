"""Keep-alive HTTP/1.1 client for the service's HTTP/JSON surface.

Used by ``repro submit``, the bench runner's ``--daemon`` mode and the
test suite; kept dependency-free so anything that can import the package
can talk to a daemon.  Each calling thread keeps one persistent
connection, so a submit and its wait reuse one socket (and one server
handler thread) instead of connecting once per request.
"""

from __future__ import annotations

import json
import select
import threading
import time
import weakref
from http.client import HTTPConnection, HTTPException
from typing import Any
from urllib.parse import urlencode, urlsplit

#: terminal job states the client-side wait loop stops on
_TERMINAL = ("done", "failed", "cancelled", "timeout")


class ServiceError(RuntimeError):
    """An error response (or transport failure) from the daemon."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talk to a running daemon at ``base_url`` (e.g. http://127.0.0.1:8155).

    Each calling thread keeps its own connection, so threads may share a
    client; :meth:`close` (or leaving a ``with`` block) closes them all.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"expected an http:// daemon URL, got {base_url!r}")
        self._address, self._prefix = (url.hostname, url.port), url.path
        self._local = threading.local()
        #: every thread's connection, for :meth:`close`
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._lock = threading.Lock()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def _exchange(
        self, method: str, target: str, body: bytes | None, headers: dict[str, str]
    ) -> tuple[int, bytes]:
        """One request and its response on this thread's connection.

        A connection the server has closed is replaced before sending;
        a request that may have reached the server is never resent.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = HTTPConnection(*self._address, timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._connections.add(conn)
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()  # an idle kept-alive socket turns readable only at EOF
        try:
            try:
                conn.request(method, target, body, headers)
            except OSError:
                if conn.sock is None:  # never connected
                    raise
                # the server may have answered early (a 413) and closed
            response = conn.getresponse()
            return response.status, response.read()
        except BaseException:
            conn.close()
            raise

    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        query: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        target = self._prefix + path
        if query:
            target += "?" + urlencode(query)
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        try:
            status, data = self._exchange(method, target, body, headers)
        except (OSError, HTTPException) as exc:
            raise ServiceError(f"{method} {path} failed: {exc}") from None
        if status >= 400:
            detail = data.decode(errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            raise ServiceError(f"{method} {path} -> {status}: {detail}", status=status)
        return json.loads(data.decode() or "{}")

    # -- endpoints ---------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/metrics")

    def submit(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self._request("POST", "/v1/jobs", payload=payload)

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str, wait: float | None = None) -> dict[str, Any]:
        query = {"wait": wait} if wait is not None else None
        return self._request("GET", f"/v1/jobs/{job_id}", query=query)

    def cancel(self, job_id: str) -> bool:
        return bool(self._request("DELETE", f"/v1/jobs/{job_id}")["cancelled"])

    def results(self, model_digest: str) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/results", query={"model": model_digest})[
            "results"
        ]

    def model_digests(self) -> list[str]:
        return self._request("GET", "/v1/results")["models"]

    def invalidate(self, model_digest: str) -> int:
        return int(
            self._request("POST", "/v1/invalidate", payload={"model": model_digest})[
                "invalidated"
            ]
        )

    def wait_for(self, job_id: str, timeout: float = 120.0) -> dict[str, Any]:
        """Block until the job is terminal; raises :class:`ServiceError`
        on expiry (server-side long-poll, client-side deadline)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(f"job {job_id} still running after {timeout}s")
            job = self.job(job_id, wait=min(remaining, 30.0))
            if job["state"] in _TERMINAL:
                return job
