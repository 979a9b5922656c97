"""The PR's acceptance bar: the store turns recomputation into lookup.

A cold submission pays for a genuine MILP solve; resubmitting the same
(model, property, method, domain) must answer from the
persistent store at least **10x faster** with the identical verdict —
across a daemon restart, since the store is the only state carried over.
"""

from __future__ import annotations

import pytest

from repro.service import ResultStore, VerificationService
from tests.service.conftest import submit_wait


def test_warm_resubmission_is_10x_faster_with_identical_verdict(
    bench_dir, tmp_path
):
    store_path = tmp_path / "results.jsonl"
    # the open instance needs the LP or a genuine solve (~ms cold,
    # measured warm/cold ratio is >10x; the asserted bar is 10x)
    payload = {"model": "model.onnx", "property": "open.vnnlib", "method": "exact"}

    cold_svc = VerificationService(
        ResultStore(store_path), workers=1, solver="highs", root=bench_dir
    )
    try:
        cold = submit_wait(cold_svc, dict(payload))
    finally:
        assert cold_svc.close(drain=False, timeout=60.0)
    assert cold.state.value == "done"
    assert cold.result["store_hits"] == 0
    assert cold_svc.store.stats.puts == 1

    # a fresh daemon on the same store file: nothing survives but the log
    warm_svc = VerificationService(
        ResultStore(store_path), workers=1, solver="highs", root=bench_dir
    )
    try:
        warm = submit_wait(warm_svc, dict(payload))
    finally:
        assert warm_svc.close(drain=False, timeout=60.0)
    assert warm.state.value == "done"
    assert warm.result["store_hits"] == 1
    assert warm.result["decided_by"] == ["store"]

    assert warm.result["status"] == cold.result["status"]
    assert warm.result["statuses"] == cold.result["statuses"]
    assert 10.0 * warm.result["elapsed"] <= cold.result["elapsed"], (
        f"warm {warm.result['elapsed']:.6f}s vs cold "
        f"{cold.result['elapsed']:.6f}s: less than 10x"
    )
