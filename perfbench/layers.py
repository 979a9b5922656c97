"""Where the tracer hooks into the program: one entry per layer boundary.

Span names are ``<layer>.<operation>``, with the layer named after the
repo module that does the work.  Functions are wrapped on the module
that *calls* them (``from x import f`` binds ``f`` there), methods on
their class.  Counters read the call's arguments and result, so ratios
are measured where the work happens.
"""

from __future__ import annotations

from tracing import Tracer


def _len_result(args, kwargs, result) -> dict[str, float]:
    return {"count": len(result)}


def _pgd(args, kwargs, result) -> dict[str, float]:
    lower = args[2] if len(args) > 2 else kwargs["lower"]
    return {"boxes": len(lower), "hits": len(result)}


def _bnb(args, kwargs, result) -> dict[str, float]:
    # a node/time limit leaves open nodes behind (UNKNOWN, or an
    # optimum not proved optimal)
    return {
        "nodes": result.nodes_explored,
        "limit_hits": float("open_nodes" in result.stats),
    }


def _cegar(args, kwargs, result) -> dict[str, float]:
    rounds = result.trace.rounds
    return {
        "subproblems": result.subproblems_processed,
        "rounds": len(rounds),
        "decided_volume": result.decided_fraction,
        "structural_splits": sum(r.structural_splits for r in rounds),
    }


def _store_get(args, kwargs, result) -> dict[str, float]:
    return {"hits": float(result is not None), "misses": float(result is None)}


def register_layers(tracer: Tracer) -> None:
    """Register every layer boundary the benchmark measures."""
    from repro.api import engine
    from repro.scenario import regions, streaming
    from repro.service import digest, httpd, jobs, store
    from repro.verification import cegar
    from repro.verification.abstraction.merge import MergeState
    from repro.verification.milp import encoder, relaxed
    from repro.verification.solver import branch_bound

    add = tracer.register

    # scenario: region generation (eager grid, streamed shards) + render
    add(regions, "scenario_region_grid", "scenario.regions", counts=_len_result)
    add(streaming, "stream_scenario_regions", "scenario.regions",
        counts=_len_result, generator=True)
    for module in (regions, streaming):
        add(module, "render_ground", "scenario.render")
        add(module, "render_vehicles", "scenario.render")

    # verification.abstraction: input-box propagation to the cut layer
    for module in (streaming, engine):
        add(module, "propagate_regions", "abstraction.propagate_regions")
    add(cegar, "region_boxes", "abstraction.region_boxes")

    # verification.prescreen: output enclosures and the risk screen
    for module in (streaming, engine):
        add(module, "output_enclosure_batch", "prescreen.enclosure")
    for module in (engine, cegar):
        add(module, "output_enclosure", "prescreen.enclosure")
    for module in (streaming, engine, cegar):
        add(module, "screen_enclosure", "prescreen.screen")
    add(cegar, "prescreen_batch", "prescreen.batch")

    # verification.counterexample: attacks and witness decoding
    add(streaming, "pgd_hits_in_boxes", "counterexample.pgd", counts=_pgd)
    add(cegar, "pgd_in_boxes", "counterexample.concretize")
    add(engine, "decode_witness", "counterexample.decode")

    # verification.milp: encodings and their big-M bounds
    for module in (engine, cegar):
        add(module, "encode_verification_problem", "milp.encode")
    add(engine, "encode_relaxed_problem", "milp.encode")
    for module in (engine, encoder, relaxed):
        add(module, "op_bounds_for_set", "milp.op_bounds")

    # verification.solver: branch-and-bound (its node LPs are its own
    # work, counted as nodes) and the engine's relaxed-LP screen
    add(branch_bound.BranchAndBoundSolver, "solve", "solver.bnb", counts=_bnb)
    add(branch_bound.BranchAndBoundSolver, "minimize", "solver.bnb", counts=_bnb)
    add(engine, "solve_lp_relaxation", "solver.lp")

    # verification.cegar and the structural (merge) axis
    add(cegar.CegarLoop, "run", "cegar", counts=_cegar)
    add(MergeState, "coarsest", "merge")
    add(MergeState, "program", "merge")
    add(cegar, "merged_attack", "merge")
    add(cegar, "plan_refinement", "merge")

    # api.engine: the decision cascade around the layers above
    add(engine.VerificationEngine, "run", "engine.run")
    add(engine.VerificationEngine, "add_region_sets", "engine.add_region_sets")
    add(engine.VerificationEngine, "output_enclosures", "engine.output_enclosures")
    add(engine.VerificationEngine, "run_query", "engine.run_query",
        req=lambda args, kwargs: args[1].name)

    # service: jobs (one span per job, id = its label), store, digests,
    # the HTTP front end; interchange: what a job parses
    add(jobs.VerificationService, "_execute", "service.job",
        req=lambda args, kwargs: args[1].spec.label)
    add(store.ResultStore, "get", "service.store", counts=_store_get)
    add(store.ResultStore, "put", "service.store")
    for name in ("model_digest", "property_digest"):
        add(jobs, name, "service.digest")
    for name in ("model_digest", "query_digest"):
        add(digest, name, "service.digest")
    add(httpd._Handler, "do_POST", "service.httpd")
    add(jobs, "read_vnnlib", "interchange.read_vnnlib")
    add(jobs, "import_onnx", "interchange.onnx")
