"""Verification-as-a-service: job queue, result store, HTTP front end.

The service layer turns the invoke-per-process engine into a long-lived
daemon:

- :mod:`repro.service.digest` — content digests for models (over the
  lowered IR, so ONNX-imported and native constructions agree),
  properties and queries;
- :mod:`repro.service.store` — the persistent, digest-keyed result
  store (append-only JSONL under ``~/.cache/repro``) with incremental
  invalidation wired to the model's training-invalidation hook;
- :mod:`repro.service.jobs` — the job queue over the engine (worker
  threads on one priority heap): states, priorities, wall budgets, single-flight deduplication and
  graceful shutdown that checkpoints in-flight CEGAR frontiers;
- :mod:`repro.service.httpd` — the dependency-free HTTP/JSON front end
  (``POST /v1/jobs``, ``GET /v1/jobs/{id}``, ``GET /v1/results``,
  ``/healthz``, ``/metrics``) over kept-alive connections;
- :mod:`repro.service.client` — the keep-alive client ``repro submit``
  and ``repro bench --daemon`` talk through.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.digest import model_digest, property_digest, query_digest
    from repro.service.httpd import ServiceServer, start_server
    from repro.service.jobs import Job, JobSpec, JobState, VerificationService
    from repro.service.store import ResultStore, StoredResult

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.service.client": ("ServiceClient", "ServiceError"),
        "repro.service.digest": ("model_digest", "property_digest", "query_digest"),
        "repro.service.httpd": ("ServiceServer", "start_server"),
        "repro.service.jobs": ("Job", "JobSpec", "JobState", "VerificationService"),
        "repro.service.store": ("ResultStore", "StoredResult"),
    },
)
