"""Bundled benchmark suites, generated from the in-repo workloads.

The competition harness needs instances on disk; this module writes
them by **exporting** the stack's own canonical workloads through
:mod:`repro.interchange` — the same networks and risk families the E1
(end-to-end workflow), E6 (abstraction-precision frontier) and
scenario-grid benchmarks exercise, scaled to MLP size so the whole
suite solves in CI seconds:

- ``e1-*`` — the full ``[0, 1]^d`` input domain with one provably
  unreachable and one reachable waypoint threshold (the canonical
  Definition 1 pair);
- ``e6-*`` — band and disjunction properties, the multi-inequality /
  multi-disjunct shapes the E6 frontier tables sweep;
- ``grid-*`` — jittered sub-boxes of the input domain with
  frontier-threshold risks, the scenario-grid region workload.

Every instance's ``expected`` verdict is computed at generation time by
the **native in-repo construction** (exact method, interval prescreen,
branch-and-bound), so the scorer can flag unsound answers and the
round-trip tests can assert import-equals-native.  Generation is fully
deterministic: seeded weights, exact thresholds, no training.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api import VerificationQuery
from repro.interchange.instances import (
    VERDICT_STATUS,
    BenchmarkInstance,
    combine_disjunct_verdicts,
    export_instance,
    instance_campaign,
    instance_engine,
    load_instances,
    write_index,
)
from repro.interchange.vnnlib import VnnLibProperty
from repro.nn.sequential import Sequential
from repro.perception.network import build_mlp_perception_network
from repro.properties.risk import RiskCondition, output_geq, output_in_band, output_leq

#: suites this module can generate
SUITE_NAMES = ("smoke",)

_TIMEOUT = 30.0


def suites_root() -> Path:
    """``benchmarks/instances`` under the repository root."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "instances"


def suite_directory(name: str) -> Path:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; known: {SUITE_NAMES}")
    return suites_root() / name


def e1_model(seed: int = 0) -> Sequential:
    """The native E1-scale network the ``e1-*``/``e6-*`` instances export."""
    return build_mlp_perception_network(
        input_dim=4, hidden=(8,), feature_width=4, seed=seed + 1
    )


def grid_model(seed: int = 0) -> Sequential:
    """The native network behind the ``grid-*`` region instances."""
    return build_mlp_perception_network(
        input_dim=6, hidden=(10,), feature_width=4, seed=seed + 2
    )


def native_verdict(
    model: Sequential,
    input_lower: np.ndarray | float,
    input_upper: np.ndarray | float,
    risks: Sequence[RiskCondition],
) -> str:
    """The in-repo construction's answer, without any interchange files.

    Builds the property directly from Python objects and runs the exact
    reference configuration (interval prescreen, branch-and-bound) —
    the oracle the generated suites record as ``expected`` and the
    round-trip tests compare imported instances against.
    """
    shape = model.input_shape
    prop = VnnLibProperty(
        np.broadcast_to(np.asarray(input_lower, dtype=float), shape).ravel(),
        np.broadcast_to(np.asarray(input_upper, dtype=float), shape).ravel(),
        tuple(risks),
        name="native",
    )
    engine = instance_engine(model, prop, solver="branch-and-bound")
    report = engine.run(instance_campaign(prop, method="exact", domain="interval"))
    if report.errors:
        raise RuntimeError(f"native verdict failed: {report.errors[0].error}")
    return combine_disjunct_verdicts(
        [VERDICT_STATUS[r.verdict.verdict] for r in report.results]
    )


def _exact_range(model: Sequential, lower, upper, output_index: int = 0):
    """Exact reachable ``[lo, hi]`` of one output over an input box."""
    prop = VnnLibProperty(
        np.broadcast_to(np.asarray(lower, dtype=float), model.input_shape).ravel(),
        np.broadcast_to(np.asarray(upper, dtype=float), model.input_shape).ravel(),
        (RiskCondition("probe", (output_geq(2, output_index, 0.0),)),),
    )
    engine = instance_engine(model, prop, solver="highs")
    reach = engine.run_query(
        VerificationQuery(
            method="range", set_name="instance", output_index=output_index
        )
    ).output_range
    if not reach.exact:
        raise RuntimeError("range probe was not proved optimal")
    return reach.lower, reach.upper


def _emit(
    directory: Path,
    instances: list[BenchmarkInstance],
    name: str,
    model: Sequential,
    lower,
    upper,
    risks: Sequence[RiskCondition],
    model_filename: str,
    comment: str,
) -> None:
    expected = native_verdict(model, lower, upper, risks)
    instances.append(
        export_instance(
            directory,
            name,
            model,
            lower,
            upper,
            risks,
            timeout=_TIMEOUT,
            expected=expected,
            model_filename=model_filename,
            comment=comment,
        )
    )


def generate_smoke_suite(
    directory: str | Path | None = None, seed: int = 0
) -> list[BenchmarkInstance]:
    """Write the ``smoke`` suite; returns its instances (index included)."""
    directory = Path(directory) if directory is not None else suite_directory("smoke")
    directory.mkdir(parents=True, exist_ok=True)
    instances: list[BenchmarkInstance] = []

    # -- e1: the canonical full-domain threshold pair ----------------------
    workflow_model = e1_model(seed)
    lo, hi = _exact_range(workflow_model, 0.0, 1.0)
    _emit(
        directory, instances, "e1-unreachable", workflow_model, 0.0, 1.0,
        [RiskCondition("far-left", (output_geq(2, 0, round(hi + 0.5, 6)),))],
        "e1.onnx", "E1 workload: waypoint threshold beyond the reachable range",
    )
    _emit(
        directory, instances, "e1-reachable", workflow_model, 0.0, 1.0,
        [RiskCondition("mid-left", (output_geq(2, 0, round(0.5 * (lo + hi), 6)),))],
        "e1.onnx", "E1 workload: waypoint threshold inside the reachable range",
    )

    # -- e6: band and disjunction shapes -----------------------------------
    band = tuple(
        output_in_band(2, 0, round(hi - 0.25 * (hi - lo), 6), round(hi + 1.0, 6))
    )
    _emit(
        directory, instances, "e6-band", workflow_model, 0.0, 1.0,
        [RiskCondition("upper-band", band, description="waypoint near its maximum")],
        "e1.onnx", "E6 workload: two-inequality band near the frontier",
    )
    _emit(
        directory, instances, "e6-disjunct", workflow_model, 0.0, 1.0,
        [
            RiskCondition("beyond-max", (output_geq(2, 0, round(hi + 0.5, 6)),)),
            RiskCondition("below-min", (output_leq(2, 0, round(lo - 0.5, 6)),)),
        ],
        "e1.onnx", "E6 workload: disjunction of two unreachable half-spaces",
    )

    # -- grid: jittered sub-box regions, scenario-grid style ---------------
    region_model = grid_model(seed)
    rng = np.random.default_rng(seed + 3)
    for index in range(3):
        center = rng.uniform(0.25, 0.75, size=6)
        lower = np.clip(center - 0.15, 0.0, 1.0)
        upper = np.clip(center + 0.15, 0.0, 1.0)
        region_lo, region_hi = _exact_range(region_model, lower, upper)
        # alternate provable and frontier thresholds across the grid
        threshold = (
            round(region_hi + 0.25, 6)
            if index % 2 == 0
            else round(0.5 * (region_lo + region_hi), 6)
        )
        _emit(
            directory, instances, f"grid-{index:03d}", region_model, lower, upper,
            [RiskCondition("region-risk", (output_geq(2, 0, threshold),))],
            "grid.onnx",
            f"scenario-grid workload: jittered region {index}, "
            f"reachable waypoint in [{region_lo:.4f}, {region_hi:.4f}]",
        )

    write_index(directory, instances)
    return instances


def ensure_suite(
    name: str, directory: str | Path | None = None, regenerate: bool = False
) -> tuple[Path, list[BenchmarkInstance]]:
    """Return ``(directory, instances)``, generating the suite if absent."""
    directory = Path(directory) if directory is not None else suite_directory(name)
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; known: {SUITE_NAMES}")
    if regenerate or not (directory / "instances.csv").is_file():
        return directory, generate_smoke_suite(directory)
    return directory, load_instances(directory)
