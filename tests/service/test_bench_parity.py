"""A daemon job and a bench cell answer every instance alike.

Both run :func:`~repro.interchange.instances.answer_instance`; this
checks that what each puts around it (the daemon's shared engines,
CEGAR slicing and result store; the runner's fresh engine per cell)
leaves the instance status unchanged on the bundled smoke suite.
"""

from __future__ import annotations

import pytest

from repro.bench import Track, run_instance
from repro.bench.runner import run_instance_daemon
from repro.bench.suites import ensure_suite
from repro.service import ResultStore, VerificationService


class _InProcessClient:
    """The two :class:`~repro.service.ServiceClient` calls the runner
    makes, served by an in-process service instead of HTTP."""

    def __init__(self, service: VerificationService):
        self.service = service

    def submit(self, payload: dict) -> dict:
        return self.service.submit_payload(payload).to_dict()

    def wait_for(self, job_id: str, timeout: float) -> dict:
        job = self.service.job(job_id)
        assert job.wait(timeout), f"{job_id} still {job.state}"
        return job.to_dict()


@pytest.mark.parametrize(
    "track",
    [Track.parse("e=interval:exact:highs"), Track.parse("c=interval:cegar:highs")],
    ids=["exact", "cegar"],
)
def test_daemon_job_status_matches_the_bench_cell(track):
    _, instances = ensure_suite("smoke")
    service = VerificationService(ResultStore(), workers=2, solver=track.solver)
    try:
        client = _InProcessClient(service)
        for instance in instances:
            local = run_instance(track, instance)
            daemon = run_instance_daemon(client, track, instance)
            assert daemon.status == local.status, instance.name
            assert local.status in ("sat", "unsat"), (instance.name, local.detail)
    finally:
        service.close(drain=False, timeout=60.0)
