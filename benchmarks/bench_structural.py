"""Structural CEGAR on a width-hard wide MLP (PR 10).

Acceptance benchmark of the neuron-merging refinement axis: a committed
wide-MLP instance (``benchmarks/instances/structural/``) whose hardness
comes from network *width*, not input volume.  Each hidden layer of the
8 -> 32 -> 32 -> 1 network is sixteen near-duplicates of one increasing
and one decreasing prototype, with biases centred so every hidden
neuron is unstable over the unit box.  That shape is the worst case for
region splitting — the interval prescreen bound (~6.0) never crosses
the 0.3 threshold, and the full-width MILP needs ~560 branch-and-bound
nodes per leaf — and the best case for merging, which collapses each
rail to its prototype so the coarse merged MILP refutes in ~33 nodes.

Asserted here and in CI's campaign-smoke job:

- **separation at equal budget**: region-splitting-only CEGAR returns
  UNKNOWN at the committed (budget, node-limit) pair while structural
  CEGAR decides UNSAT under the *identical* configuration;
- **verdict parity vs exact64**: an unlimited complete solve of the
  exact64 lowered program confirms UNSAT, so the structural verdict is
  the ground truth, not an artifact of the abstraction.

The branch-and-bound backend is budgeted in *nodes* (deterministic,
machine-independent), so the separation is reproducible anywhere.  A
pytest run merges the measurements into ``.benchmarks/BENCH_10.json``
(uploaded as a CI artifact); the committed ``BENCH_10.json`` at the
repo root changes only through::

    PYTHONPATH=src python benchmarks/bench_structural.py --regenerate
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

import measurements
from repro.interchange.onnx import import_onnx
from repro.interchange.vnnlib import read_vnnlib
from repro.verification.abstraction.merge import MergeState
from repro.verification.cegar import CegarConfig, CegarLoop, _ScopedLeafSolver
from repro.verification.sets import Box
from repro.verification.solver.result import SolveStatus

_INSTANCE_DIR = Path(__file__).resolve().parent / "instances" / "structural"

#: the committed separation budget: enough for region-only CEGAR to
#: pop the root and a dozen split descendants, nowhere near enough for
#: any of those full-width leaf MILPs to finish under the node limit
_BUDGET = 10
_NODE_LIMIT = 128
_PARITY_NODE_LIMIT = 500_000


@pytest.fixture(scope="module")
def instance():
    model = import_onnx(_INSTANCE_DIR / "wide.onnx")
    prop = read_vnnlib(_INSTANCE_DIR / "wide-unsat.vnnlib")
    assert len(prop.disjuncts) == 1
    return model, prop


def _loop(model, prop, *, structural: bool) -> CegarLoop:
    return CegarLoop(
        model,
        prop.disjuncts[0],
        prop.input_lower,
        prop.input_upper,
        config=CegarConfig(
            solve_depth=0,
            solver="branch-and-bound",
            solver_options=(("node_limit", _NODE_LIMIT),),
            structural=structural,
        ),
    )


@pytest.mark.benchmark(group="structural")
def test_instance_is_width_hard(instance):
    """The committed net really is the adversarial shape it claims.

    Width 32 per hidden layer, every hidden neuron unstable on the box,
    and a coarsest merge that collapses 64 hidden neurons to 8 rail
    neurons — the preconditions for the separation measured below.
    """
    model, prop = instance
    suffix = model.suffix_network(0)
    state = MergeState.coarsest(suffix, prop.input_lower, prop.input_upper)
    assert state.original_neuron_count == 64
    assert state.abstract_neuron_count == 8
    rng = np.random.default_rng(0)
    pts = rng.uniform(
        prop.input_lower, prop.input_upper, size=(4096, prop.input_lower.size)
    )
    out = model.forward(pts, training=False)[:, 0]
    # threshold 0.3 sits far above anything reachable (exact64 max
    # ~0.05, confirmed by the parity solve below) yet far below the
    # interval bound, so the prescreen can never decide it
    assert float(out.max()) < 0.3


@pytest.mark.benchmark(group="structural")
def test_structural_decides_where_region_splitting_stalls(instance):
    """The headline separation, at one committed budget for both axes."""
    model, prop = instance

    region_loop = _loop(model, prop, structural=False)
    t0 = time.perf_counter()
    region = region_loop.run(budget=_BUDGET)
    region_s = time.perf_counter() - t0

    structural_loop = _loop(model, prop, structural=True)
    t0 = time.perf_counter()
    structural = structural_loop.run(budget=_BUDGET)
    structural_s = time.perf_counter() - t0

    # region splitting alone: every popped leaf burns the node limit on
    # the full-width MILP and splits; the frontier only ever grows
    assert region.status is SolveStatus.UNKNOWN
    assert region_loop.frontier_size > 0

    # the merged program collapses the width hardness: same budget,
    # same node limit, decided at the root
    assert structural.status is SolveStatus.UNSAT
    assert structural.decided_fraction == pytest.approx(1.0)

    measurements.update(
        "BENCH_10.json",
        {
            "structural_budget": _BUDGET,
            "structural_node_limit": _NODE_LIMIT,
            "region_only_status": region.status.value,
            "region_only_frontier": region_loop.frontier_size,
            "region_only_s": round(region_s, 3),
            "structural_status": structural.status.value,
            "structural_popped": structural_loop.subproblems_processed,
            "structural_s": round(structural_s, 3),
            "structural_speedup": round(region_s / max(structural_s, 1e-9), 2),
        }
    )
    print(
        f"region-only {region.status.value} after {_BUDGET} subproblems "
        f"({region_s:.2f}s, frontier {region_loop.frontier_size}); "
        f"structural {structural.status.value} in "
        f"{structural_loop.subproblems_processed} ({structural_s:.3f}s)"
    )


@pytest.mark.benchmark(group="structural")
def test_verdict_parity_vs_exact64(instance):
    """An unlimited exact64 complete solve agrees with the merged verdict.

    This is the soundness leg of the separation: the structural UNSAT
    above is only meaningful because the unabstracted float64 program,
    given all the nodes it wants, proves the same thing.
    """
    model, prop = instance
    suffix = model.suffix_network(0)
    box = Box(prop.input_lower, prop.input_upper)
    solver = _ScopedLeafSolver.fresh(
        suffix,
        box,
        prop.disjuncts[0],
        "branch-and-bound",
        {"node_limit": _PARITY_NODE_LIMIT},
    )
    t0 = time.perf_counter()
    exact = solver.solve(box)
    exact_s = time.perf_counter() - t0

    assert exact.status is SolveStatus.UNSAT

    # the committed node limit is an order of magnitude below what the
    # full-width proof needs — the region-only UNKNOWN above is budget
    # starvation, not solver noise
    assert exact.nodes_explored > 4 * _NODE_LIMIT

    state = MergeState.coarsest(suffix, prop.input_lower, prop.input_upper)
    merged_solver = _ScopedLeafSolver.fresh(
        state.program(),
        box,
        state.merged_risk(prop.disjuncts[0]),
        "branch-and-bound",
        {"node_limit": _PARITY_NODE_LIMIT},
    )
    merged = merged_solver.solve(box)
    assert merged.status is SolveStatus.UNSAT
    assert merged.nodes_explored < _NODE_LIMIT

    measurements.update(
        "BENCH_10.json",
        {
            "exact64_status": exact.status.value,
            "exact64_nodes": exact.nodes_explored,
            "exact64_s": round(exact_s, 2),
            "merged_nodes": merged.nodes_explored,
            "node_ratio_full_vs_merged": round(
                exact.nodes_explored / max(merged.nodes_explored, 1), 1
            ),
        }
    )
    print(
        f"exact64 complete proof: {exact.nodes_explored} nodes "
        f"({exact_s:.2f}s); merged proof: {merged.nodes_explored} nodes "
        f"-> {exact.nodes_explored / max(merged.nodes_explored, 1):.0f}x"
    )


if __name__ == "__main__":
    raise SystemExit(
        measurements.regenerate(sys.argv[1:], "BENCH_10.json", __file__)
    )
