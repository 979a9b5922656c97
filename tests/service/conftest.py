"""Shared fixtures for the service layer tests.

One module-scoped benchmark directory (ONNX model + three ``.vnnlib``
properties of graded difficulty) feeds every test; services themselves
are function-scoped so each test gets a fresh store, fresh engines and
deterministic job ids starting at ``job-000001``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.interchange.onnx import export_onnx
from repro.interchange.vnnlib import write_vnnlib
from repro.perception.network import build_mlp_perception_network
from repro.properties.risk import RiskCondition, output_geq
from repro.service import ResultStore, VerificationService
from repro.verification.abstraction.interval import op_output_bounds
from repro.verification.output_range import linear_op_bounds, linear_support
from repro.verification.sets import Box


@pytest.fixture(scope="module")
def svc_model():
    return build_mlp_perception_network(
        input_dim=4, hidden=(8,), feature_width=4, seed=1
    )


@pytest.fixture(scope="module")
def reachable(svc_model):
    """Empirical y0 range over [0, 1]^4 (for picking thresholds)."""
    rng = np.random.default_rng(0)
    out = svc_model.forward(rng.uniform(0, 1, size=(4000, 4)), training=False)
    return float(out[:, 0].min()), float(out[:, 0].max())


def _risk(threshold: float) -> RiskCondition:
    return RiskCondition("y0-high", (output_geq(2, 0, threshold),))


def make_bench(directory, svc_model, reachable):
    """Write model.onnx + unsat/sat/hard properties over the unit box.

    - ``unsat.vnnlib``: threshold far above the enclosure — the interval
      prescreen decides it instantly;
    - ``sat.vnnlib``: mid-range threshold — the support stage's replayed
      vertex is a counterexample;
    - ``open.vnnlib``: threshold between that vertex's output and a
      sampled one — reachable, but only the LP or a genuine solve finds a
      counterexample;
    - ``hard.vnnlib``: threshold just above the reachable maximum —
      undecidable without refinement, so CEGAR genuinely splits.

    A plain function (not a fixture) so golden-file ``main()`` entry
    points can build the same benchmark outside pytest.
    """
    export_onnx(svc_model, directory / "model.onnx")
    lo, hi = reachable
    lower, upper = np.zeros(4), np.ones(4)
    write_vnnlib(directory / "unsat.vnnlib", lower, upper, [_risk(hi + 50.0)])
    write_vnnlib(directory / "sat.vnnlib", lower, upper, [_risk(0.5 * (lo + hi))])
    network = svc_model.full_network()
    box = Box(lower, upper)
    bounds = linear_op_bounds(network, op_output_bounds(network, box))
    _, vertex = linear_support(network, box, np.array([-1.0, 0.0]), bounds)
    corner = float(network.apply(vertex[None, :])[0, 0])
    assert corner < hi - 1e-3, "the support vertex must fall short of a sample"
    write_vnnlib(directory / "open.vnnlib", lower, upper, [_risk(0.5 * (corner + hi))])
    write_vnnlib(directory / "hard.vnnlib", lower, upper, [_risk(hi + 0.3)])
    return directory


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory, svc_model, reachable):
    """See :func:`make_bench`."""
    return make_bench(tmp_path_factory.mktemp("svc-bench"), svc_model, reachable)


def standalone_bench(directory):
    """The ``bench_dir`` contents, computable outside pytest."""
    model = build_mlp_perception_network(
        input_dim=4, hidden=(8,), feature_width=4, seed=1
    )
    rng = np.random.default_rng(0)
    out = model.forward(rng.uniform(0, 1, size=(4000, 4)), training=False)
    reachable = (float(out[:, 0].min()), float(out[:, 0].max()))
    return make_bench(directory, model, reachable)


@pytest.fixture
def service(bench_dir):
    svc = VerificationService(
        ResultStore(), workers=2, solver="highs", root=bench_dir
    )
    yield svc
    svc.close(drain=False, timeout=60.0)


def submit_wait(svc: VerificationService, payload: dict, timeout: float = 120.0):
    """Submit a payload and block until the job is terminal."""
    job = svc.submit_payload(payload)
    assert job.wait(timeout), f"{job.id} still {job.state} after {timeout}s"
    return job
