"""Dependency-free HTTP/JSON front end over :class:`VerificationService`.

Built on :class:`http.server.ThreadingHTTPServer` — one handler thread
per connection calling into the (thread-safe) service, nothing outside
the standard library.  Connections are persistent (HTTP/1.1 keep-alive)
and replies skip Nagle's delay (``TCP_NODELAY``), so a client's submit
and wait share one connection and one handler thread.  The surface is
deliberately small:

========  ======================  =======================================
method    path                    meaning
==========================================================================
POST      /v1/jobs                submit a job (JSON body = job payload)
GET       /v1/jobs                list jobs
GET       /v1/jobs/{id}           one job; ``?wait=SECONDS`` blocks until
                                  the job is terminal or the wait expires
DELETE    /v1/jobs/{id}           cancel a job
GET       /v1/results?model=HEX   stored results for a model digest
GET       /v1/results             model digests present in the store
POST      /v1/invalidate          evict a model digest ({"model": HEX})
GET       /healthz                liveness probe
GET       /metrics                job/store/latency counters (JSON)
==========================================================================

Every response is a JSON object; errors are ``{"error": ...}`` with the
matching status code (a 400 for a bad ``Content-Length`` and a 413 also
close the connection).  The server binds, serves and shuts down without
touching the service's own lifecycle — callers stop the service
separately (the CLI wires SIGTERM/SIGINT to both).
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.service.jobs import ServiceClosed, VerificationService

#: request bodies above this are rejected outright (job payloads are tiny)
_MAX_BODY = 1 << 20

#: cap on ``?wait=`` so a stuck client cannot pin a handler thread forever
_MAX_WAIT = 300.0

#: ``serve_forever`` notices ``shutdown()`` only when its select times
#: out; at the standard library's 0.5 s every stop waited out that poll
_POLL_INTERVAL = 0.02


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the service attached to the server."""

    protocol_version = "HTTP/1.1"
    #: a reply's headers and body go out in two sends; under Nagle's
    #: algorithm the body waits for the client's delayed ACK (~40 ms)
    disable_nagle_algorithm = True
    server: "ServiceServer"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging; /metrics is the telemetry."""

    def _send(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _read_json(self) -> dict[str, Any] | None:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # the body's extent is unknown, so the connection cannot be
            # resynced either; a negative read would block until EOF
            self.close_connection = True
            self._error(400, f"invalid Content-Length {header!r}")
            return None
        if length > _MAX_BODY:
            # the unread body bytes cannot be resynced as a next
            # request, so the connection must not be kept alive
            self.close_connection = True
            self._error(413, f"body too large ({length} bytes)")
            return None
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "JSON body must be an object")
            return None
        return payload

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        service = self.server.service
        url = urlparse(self.path)
        query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._send(200, {"status": "ok", "closing": service._closing})
        elif url.path == "/metrics":
            self._send(200, service.metrics())
        elif parts[:2] == ["v1", "jobs"] and len(parts) == 2:
            self._send(200, {"jobs": [j.to_dict() for j in service.jobs()]})
        elif parts[:2] == ["v1", "jobs"] and len(parts) == 3:
            job = service.job(parts[2])
            if job is None:
                self._error(404, f"no such job: {parts[2]}")
                return
            wait = query.get("wait")
            if wait:
                try:
                    seconds = min(float(wait[0]), _MAX_WAIT)
                except ValueError:
                    self._error(400, f"invalid wait value: {wait[0]!r}")
                    return
                job.wait(seconds)
            self._send(200, job.to_dict())
        elif parts[:2] == ["v1", "results"] and len(parts) == 2:
            model = query.get("model")
            if model:
                self._send(
                    200,
                    {
                        "model": model[0],
                        "results": service.results_for_model(model[0]),
                    },
                )
            else:
                self._send(200, {"models": service.store.model_digests()})
        else:
            self._error(404, f"no such route: GET {url.path}")

    def do_POST(self) -> None:  # noqa: N802
        service = self.server.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        payload = self._read_json()
        if payload is None:
            return
        if parts == ["v1", "jobs"]:
            try:
                job = service.submit_payload(payload)
            except ServiceClosed as exc:
                self._error(503, str(exc))
            except (ValueError, TypeError) as exc:
                self._error(400, str(exc))
            else:
                self._send(201, job.to_dict())
        elif parts == ["v1", "invalidate"]:
            model = payload.get("model")
            if not isinstance(model, str) or not model:
                self._error(400, "invalidate needs a 'model' digest string")
                return
            self._send(200, {"model": model, "invalidated": service.invalidate(model)})
        else:
            self._error(404, f"no such route: POST {url.path}")

    def do_DELETE(self) -> None:  # noqa: N802
        service = self.server.service
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if parts[:2] == ["v1", "jobs"] and len(parts) == 3:
            job = service.job(parts[2])
            if job is None:
                self._error(404, f"no such job: {parts[2]}")
                return
            cancelled = service.cancel(parts[2])
            self._send(200, {"id": parts[2], "cancelled": cancelled})
        else:
            self._error(404, f"no such route: DELETE {self.path}")


class ServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one service instance."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: VerificationService):
        super().__init__(address, _Handler)
        self.service = service
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening and end every kept-alive connection, so each
        idle handler thread reads end of stream and exits."""
        super().server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:  # the connection has already ended
                    pass

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_server(
    service: VerificationService, host: str = "127.0.0.1", port: int = 0
) -> tuple[ServiceServer, threading.Thread]:
    """Bind and serve on a background thread; ``port=0`` picks a free one.

    Returns the server (``server.url`` has the resolved address) and its
    thread.  Stop with ``server.shutdown()``, ``service.close()``, then
    ``server.server_close()``, which also ends kept-alive connections.
    """
    server = ServiceServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever,
        args=(_POLL_INTERVAL,),
        name="repro-httpd",
        daemon=True,
    )
    thread.start()
    return server, thread
