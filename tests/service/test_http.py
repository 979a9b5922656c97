"""HTTP/JSON front-end contract: routes, errors, and a golden file.

The live tests exercise every route through :class:`ServiceClient` (the
same client the CLI and the bench runner use) plus raw-socket edge cases
the client never produces (malformed JSON, oversized bodies).  The
golden test replays a fixed request script against a fresh daemon and
pins each response's status code, JSON schema and verdict-level
semantics — value-level floats, timestamps and digests are normalized
away, so only intentional API changes touch the file.

Regenerating after an **intentional** contract change::

    PYTHONPATH=src:. python tests/service/test_http.py --regenerate

then commit the updated ``tests/service/golden/http_contract.json``
together with the change that motivated it.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceError,
    VerificationService,
    jobs,
    start_server,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "http_contract.json"

_HEX_DIGEST = re.compile(r"^[0-9a-f]{64}$")

#: response keys whose values are wall-clock dependent
_VOLATILE = frozenset(
    {
        "created",
        "started",
        "finished",
        "elapsed",
        "uptime",
        "latency_p50",
        "latency_p95",
    }
)


@pytest.fixture
def server(bench_dir):
    service = VerificationService(
        ResultStore(), workers=2, solver="highs", root=bench_dir
    )
    server, _thread = start_server(service)
    yield server
    server.shutdown()
    service.close(drain=False, timeout=60.0)


@pytest.fixture
def client(server):
    with ServiceClient(server.url, timeout=60.0) as client:
        yield client


class TestRoutes:
    def test_healthz(self, client):
        assert client.health() == {"status": "ok", "closing": False}

    def test_submit_wait_and_list(self, client):
        job = client.submit({"model": "model.onnx", "property": "unsat.vnnlib"})
        assert job["id"] == "job-000001"
        assert job["state"] in ("queued", "running", "done")
        done = client.wait_for(job["id"])
        assert done["state"] == "done"
        assert done["result"]["status"] == "unsat"
        assert done["result"]["decided_by"] == ["prescreen"]
        listed = client.jobs()
        assert [j["id"] for j in listed] == ["job-000001"]

    def test_server_side_wait_blocks_until_terminal(self, client):
        job = client.submit({"model": "model.onnx", "property": "sat.vnnlib"})
        # one long-poll round trip, no client-side polling loop
        done = client.job(job["id"], wait=60.0)
        assert done["state"] == "done"
        assert done["result"]["status"] == "sat"

    def test_results_and_invalidate(self, client):
        job = client.submit({"model": "model.onnx", "property": "unsat.vnnlib"})
        done = client.wait_for(job["id"])
        digest = done["result"]["model_digest"]
        assert client.model_digests() == [digest]
        results = client.results(digest)
        assert len(results) == 1 and results[0]["verdict"]
        assert client.invalidate(digest) == 1
        assert client.model_digests() == []

    def test_cancel_routes(self, client):
        job = client.submit({"model": "model.onnx", "property": "unsat.vnnlib"})
        client.wait_for(job["id"])
        # already terminal: the route answers, the cancel is a no-op
        assert client.cancel(job["id"]) is False
        with pytest.raises(ServiceError) as exc:
            client.cancel("job-999999")
        assert exc.value.status == 404

    def test_metrics_over_http(self, client):
        job = client.submit({"model": "model.onnx", "property": "unsat.vnnlib"})
        client.wait_for(job["id"])
        metrics = client.metrics()
        assert metrics["jobs"]["done"] == 1
        assert metrics["engines"] == 1
        assert metrics["store"]["puts"] == 1


class TestErrors:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.job("job-424242")
        assert exc.value.status == 404
        assert "no such job" in str(exc.value)

    def test_unknown_routes_are_404(self, client):
        for method, path in (
            ("GET", "/v2/jobs"),
            ("POST", "/v1/nope"),
            ("DELETE", "/v1/results"),
        ):
            status, body = _exchange(client.base_url, method, path, payload={})
            assert status == 404, (method, path)
            assert "no such route" in body["error"]

    def test_invalid_payload_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit({"model": "model.onnx"})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.submit({"model": "m", "property": "p", "bogus": 1})
        assert exc.value.status == 400
        assert "unknown job fields" in str(exc.value)

    def test_malformed_json_body_is_400(self, client):
        status, body = _exchange(client.base_url, "POST", "/v1/jobs", raw=b"{nope")
        assert status == 400 and "invalid JSON" in body["error"]
        status, body = _exchange(client.base_url, "POST", "/v1/jobs", raw=b"[1, 2]")
        assert status == 400 and "must be an object" in body["error"]

    def test_oversized_body_is_413(self, client):
        # declare an oversized Content-Length without sending the body:
        # the server must answer (and close) without reading it
        status, body, connection = _post_headers_only(
            client.base_url, str((1 << 20) + 1)
        )
        assert status == 413
        assert "body too large" in body["error"]
        assert connection == "close"

    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
    def test_malformed_content_length_is_400(self, client, length):
        # a non-numeric or negative length must get an answer and a
        # closed connection, not a crashed (or blocked) handler thread
        status, body, connection = _post_headers_only(client.base_url, length)
        assert status == 400
        assert "invalid Content-Length" in body["error"]
        assert connection == "close"

    def test_invalid_wait_value_is_400(self, client):
        job = client.submit({"model": "model.onnx", "property": "unsat.vnnlib"})
        status, body = _exchange(
            client.base_url, "GET", f"/v1/jobs/{job['id']}?wait=forever"
        )
        assert status == 400
        assert "invalid wait" in body["error"]

    def test_invalidate_needs_a_digest_string(self, client):
        status, body = _exchange(
            client.base_url, "POST", "/v1/invalidate", payload={"model": 7}
        )
        assert status == 400
        assert "digest string" in body["error"]

    def test_submit_after_close_is_503(self, server, client):
        server.service.close(drain=False, timeout=60.0)
        with pytest.raises(ServiceError) as exc:
            client.submit({"model": "model.onnx", "property": "unsat.vnnlib"})
        assert exc.value.status == 503


def _count_connections(server):
    """Record the socket of every connection ``server`` accepts."""
    accepted = []
    process = server.process_request

    def counting(request, client_address):
        accepted.append(request)
        process(request, client_address)

    server.process_request = counting
    return accepted


class TestConnections:
    def test_round_trips_share_one_connection(self, server, client):
        accepted = _count_connections(server)
        for _ in range(20):
            job = client.submit({"model": "model.onnx", "property": "unsat.vnnlib"})
            assert client.wait_for(job["id"])["state"] == "done"
        assert len(accepted) == 1

    def test_replies_skip_the_nagle_delay(self, server, client):
        accepted = _count_connections(server)
        assert client.health()["status"] == "ok"
        # headers and body go out in two sends; with Nagle's algorithm
        # on, the body would wait for the client's delayed ACK
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_oversized_payload_closes_and_the_client_reconnects(self, server, client):
        accepted = _count_connections(server)
        assert client.health()["status"] == "ok"
        with pytest.raises(ServiceError) as exc:
            client.submit({"model": "x" * (1 << 20), "property": "unsat.vnnlib"})
        assert exc.value.status == 413
        job = client.submit({"model": "model.onnx", "property": "unsat.vnnlib"})
        assert client.wait_for(job["id"])["state"] == "done"
        # the 413 closed the first connection; the submit opened a second
        assert len(accepted) == 2

    def test_threads_sharing_a_client_get_their_own_answers(self, server, client):
        accepted = _count_connections(server)
        statuses = {}

        def ask(prop):
            job = client.submit({"model": "model.onnx", "property": prop})
            statuses[prop] = client.wait_for(job["id"])["result"]["status"]

        threads = [
            threading.Thread(target=ask, args=(prop,))
            for prop in ("unsat.vnnlib", "sat.vnnlib")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        assert statuses == {"unsat.vnnlib": "unsat", "sat.vnnlib": "sat"}
        assert len(accepted) == 2

    def test_client_reconnects_to_a_restarted_daemon(self, bench_dir):
        service = VerificationService(
            ResultStore(), workers=1, solver="highs", root=bench_dir
        )
        first, _thread = start_server(service)
        client = ServiceClient(first.url, timeout=60.0)
        try:
            assert client.health()["status"] == "ok"
            first.shutdown()
            first.server_close()
            # the kept-alive connection is dead: the next request must
            # notice before sending and reconnect to the new daemon
            second, _thread = start_server(service, port=first.server_address[1])
            try:
                assert client.health()["status"] == "ok"
            finally:
                second.shutdown()
                second.server_close()
        finally:
            client.close()
            service.close(drain=False, timeout=60.0)

    def test_unreachable_daemon_is_a_service_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with ServiceClient(f"http://127.0.0.1:{port}") as client:
            with pytest.raises(ServiceError, match="failed") as exc:
                client.health()
        assert exc.value.status is None

    def test_server_close_ends_kept_alive_handlers(self, bench_dir):
        service = VerificationService(
            ResultStore(), workers=1, solver="highs", root=bench_dir
        )
        server, thread = start_server(service)
        handlers = []
        run = server.process_request_thread

        def recorded(request, client_address):
            handlers.append(threading.current_thread())
            run(request, client_address)

        server.process_request_thread = recorded
        client = ServiceClient(server.url, timeout=60.0)
        try:
            job = client.submit({"model": "model.onnx", "property": "unsat.vnnlib"})
            assert client.wait_for(job["id"])["state"] == "done"
            # the connection stays open, so its handler idles on it
            assert len(handlers) == 1 and handlers[0].is_alive()
            server.shutdown()
            server.server_close()
            deadline = time.monotonic() + 1.0
            for handler in handlers:
                handler.join(max(0.0, deadline - time.monotonic()))
            assert not any(handler.is_alive() for handler in handlers)
            thread.join(1.0)
            assert not thread.is_alive()
        finally:
            client.close()
            service.close(drain=False, timeout=60.0)

    def test_idle_shutdown_does_not_wait_out_a_poll(self, bench_dir):
        service = VerificationService(
            ResultStore(), workers=1, solver="highs", root=bench_dir
        )
        server, thread = start_server(service)
        try:
            time.sleep(0.1)  # the serve loop is idle inside its select
            start = time.monotonic()
            server.shutdown()
            assert time.monotonic() - start < 0.1
            thread.join(1.0)
            assert not thread.is_alive()
        finally:
            server.server_close()
            service.close(drain=False, timeout=60.0)


# -- golden contract -------------------------------------------------------


def _exchange(base, method, path, payload=None, raw=None):
    """One HTTP exchange, returning (status, parsed JSON body)."""
    body = raw if raw is not None else (
        json.dumps(payload).encode() if payload is not None else None
    )
    request = urllib.request.Request(
        base + path,
        data=body,
        headers={"Content-Type": "application/json"} if body else {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=60.0) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def _post_headers_only(base, content_length):
    """POST ``/v1/jobs`` headers declaring ``content_length``, no body.

    Returns (status, parsed JSON body, ``Connection`` header).
    """
    import http.client
    from urllib.parse import urlparse

    parsed = urlparse(base)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=60)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        conn.endheaders()
        response = conn.getresponse()
        body = json.loads(response.read().decode())
    finally:
        conn.close()
    return response.status, body, response.getheader("Connection")


def _normalize(node):
    """Zero wall-clock values, mask digests; keep everything else."""
    if isinstance(node, dict):
        return {
            key: 0 if key in _VOLATILE and isinstance(value, (int, float)) else _normalize(value)
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_normalize(value) for value in node]
    if isinstance(node, str) and _HEX_DIGEST.match(node):
        return "<digest>"
    return node


#: the scripted conversation: (method, path template, payload).
#: ``{digest}`` resolves to the model digest learned from the first job.
_SCRIPT = (
    ("GET", "/healthz", None),
    ("POST", "/v1/jobs", {"model": "model.onnx", "property": "unsat.vnnlib"}),
    ("GET", "/v1/jobs/job-000001?wait=60", None),
    ("POST", "/v1/jobs", {"model": "model.onnx", "property": "unsat.vnnlib"}),
    ("GET", "/v1/jobs/job-000002?wait=60", None),
    ("GET", "/v1/jobs", None),
    ("GET", "/v1/results", None),
    ("GET", "/v1/results?model={digest}", None),
    ("DELETE", "/v1/jobs/job-000001", None),
    ("POST", "/v1/invalidate", {"model": "{digest}"}),
    ("GET", "/metrics", None),
    ("GET", "/v1/jobs/job-424242", None),
    ("POST", "/v1/jobs", {"model": "model.onnx"}),
    ("GET", "/v1/nope", None),
    # the table keeps ``_SCRIPT_KEPT_JOBS`` terminal jobs: the third
    # evicts job-000001, whose reply then says where its result went
    ("POST", "/v1/jobs", {"model": "model.onnx", "property": "unsat.vnnlib"}),
    ("GET", "/v1/jobs/job-000003?wait=60", None),
    ("GET", "/v1/jobs/job-000001", None),
    ("DELETE", "/v1/jobs/job-000001", None),
)

#: the job table's bound while the script runs
_SCRIPT_KEPT_JOBS = 2


def _run_script(bench) -> list[dict]:
    kept, jobs._KEPT_JOBS = jobs._KEPT_JOBS, _SCRIPT_KEPT_JOBS
    try:
        return _replay(bench)
    finally:
        jobs._KEPT_JOBS = kept


def _replay(bench) -> list[dict]:
    service = VerificationService(
        ResultStore(), workers=2, solver="highs", root=bench
    )
    server, _thread = start_server(service)
    digest = None
    transcript = []
    try:
        for method, path, payload in _SCRIPT:
            if digest is not None:
                path = path.format(digest=digest)
                if payload:
                    payload = {
                        k: v.format(digest=digest) if isinstance(v, str) else v
                        for k, v in payload.items()
                    }
            status, body = _exchange(server.url, method, path, payload=payload)
            if digest is None and isinstance(body.get("result"), dict):
                digest = body["result"]["model_digest"]
            if status == 201:
                # a fresh submission races the worker (the job may
                # already be running or even done), so only the stable
                # subset of the response is pinned
                body = {"id": body["id"], "spec": body["spec"]}
            transcript.append(
                {
                    "request": f"{method} {path.split('?')[0]}",
                    "status": status,
                    "response": _normalize(body),
                }
            )
    finally:
        server.shutdown()
        service.close(drain=False, timeout=60.0)
    return transcript


def test_http_contract_matches_golden(bench_dir):
    """See the module docstring for the regeneration command."""
    assert GOLDEN_PATH.exists(), (
        f"golden file missing; generate it with "
        f"PYTHONPATH=src:. python tests/service/test_http.py --regenerate"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = _run_script(bench_dir)
    assert actual == golden, (
        "HTTP contract changed; if intentional, regenerate the golden "
        "file (see module docstring) and commit it"
    )


def main(argv: list[str]) -> int:
    if "--regenerate" not in argv:
        print(__doc__)
        return 2
    from tests.service.conftest import standalone_bench

    with tempfile.TemporaryDirectory() as tmp:
        transcript = _run_script(standalone_bench(Path(tmp)))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(transcript, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
