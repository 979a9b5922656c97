"""Command-line interface.

Subcommands::

    python -m repro build     --out system_dir     # train + persist
    python -m repro verify    --out system_dir     # canonical queries
    python -m repro campaign  --out system_dir     # declarative grid sweep
    python -m repro campaign  --scenario-grid 24   # batched region sweep
    python -m repro refine    --out system_dir     # anytime CEGAR refinement
    python -m repro monitor   --out system_dir     # stream monitoring demo
    python -m repro range     --out system_dir     # output-range frontier
    python -m repro bench     --suite smoke        # track-based competition
    python -m repro analyze   --instances DIR      # static IR + registry audit
    python -m repro lint      src                  # repo-specific lint gate
    python -m repro serve     --port 8155          # verification daemon
    python -m repro submit    --daemon URL ...     # submit a job to a daemon

The ``build`` step persists the perception model, the feature envelope
and characterizers into a directory; the other commands reload from it
so experiments are repeatable without retraining.

All verification commands run on the declarative :mod:`repro.api` stack:
queries are :class:`~repro.api.VerificationQuery` values, batches are
:class:`~repro.api.Campaign` grids, and execution (with ``--workers N``
fan-out, shared encoding caches and JSON reports) goes through
:class:`~repro.api.VerificationEngine`.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api import Campaign, VerificationEngine

# each handler imports what its subcommand runs, so ``repro build``
# loads neither the verification engine nor the solver stack


def _build(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.config import ExperimentConfig
    from repro.core.pipeline import build_verified_system
    from repro.nn.serialization import save_model

    config = ExperimentConfig(
        train_scenes=args.scenes,
        val_scenes=max(args.scenes // 4, 50),
        epochs=args.epochs,
        seed=args.seed,
        properties=tuple(args.properties),
        characterizer_epochs=args.characterizer_epochs,
        characterizer_scenes=args.characterizer_scenes,
    )
    system = build_verified_system(config, verbose=args.verbose)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    save_model(system.model, out / "perception.npz")
    np.savez(
        out / "features.npz",
        train_features=system.train_features,
        val_features=system.val_features,
    )
    meta = {
        "cut_layer": system.cut_layer,
        "seed": config.seed,
        "scenes": config.train_scenes,
        "properties": list(config.properties),
        "confusions": {
            name: {"gamma": c.gamma, "n": c.n, "gamma_count": c.gamma_count}
            for name, c in system.confusions.items()
        },
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2))
    for name, characterizer in system.characterizers.items():
        save_model(characterizer.network, out / f"characterizer_{name}.npz")
        meta_c = {
            "property_name": name,
            "cut_layer": characterizer.cut_layer,
            "train_accuracy": characterizer.train_accuracy,
            "val_accuracy": characterizer.val_accuracy,
            "threshold": characterizer.threshold,
        }
        (out / f"characterizer_{name}.json").write_text(json.dumps(meta_c, indent=2))
    print(system.summary())
    print(f"\nsystem persisted to {out}/")
    return 0


def _load(
    out: Path, solver: str = "branch-and-bound"
) -> tuple[VerificationEngine, dict]:
    """Rebuild a :class:`VerificationEngine` from a persisted system."""
    import numpy as np

    from repro.api import VerificationEngine
    from repro.nn.serialization import load_model
    from repro.perception.characterizer import Characterizer

    meta = json.loads((out / "meta.json").read_text())
    model = load_model(out / "perception.npz")
    with np.load(out / "features.npz") as arrays:
        train_features = arrays["train_features"]
    engine = VerificationEngine(model, meta["cut_layer"], solver=solver)
    engine.add_feature_set_from_features(train_features, kind="box+diff")
    for name in meta["properties"]:
        network = load_model(out / f"characterizer_{name}.npz")
        meta_c = json.loads((out / f"characterizer_{name}.json").read_text())
        engine.attach_characterizer(
            Characterizer(
                property_name=name,
                cut_layer=meta_c["cut_layer"],
                network=network,
                train_accuracy=meta_c["train_accuracy"],
                val_accuracy=meta_c["val_accuracy"],
                threshold=meta_c["threshold"],
            )
        )
    return engine, meta


def _verify(args: argparse.Namespace) -> int:
    from repro.api import Campaign, VerificationQuery
    from repro.properties.library import STEER_STRAIGHT, steer_far_left

    engine, meta = _load(Path(args.out), solver=args.solver)
    prop = meta["properties"][0]
    reach = engine.run_query(
        VerificationQuery(method="range", property_name=prop)
    ).output_range
    campaign = Campaign("canonical").add(
        VerificationQuery(risk=steer_far_left(reach.upper + 0.25), property_name=prop),
        VerificationQuery(risk=STEER_STRAIGHT, property_name=prop),
    )
    report = engine.run(campaign, workers=args.workers)
    failures = 0
    for result in report:
        print(f"\n{result.query.name}")
        if not result.ok:
            print(f"error: {result.error}")
            continue
        print(result.verdict.summary())
        if not result.verdict.proved:
            failures += 1
    print(f"\n{report.summary()}")
    if report.errors:
        # hard errors (broken system dir, bad query) are never tolerated;
        # --allow-unsafe only forgives unproved *verdicts*
        return 1
    return 0 if args.allow_unsafe else min(failures, 1)


def _scenario_grid_campaign(
    engine: VerificationEngine, n_regions: int, seed: int, domain: str = "interval"
) -> Campaign:
    """Build and register a scenario region grid, return its campaign.

    Draws enough base scenes to cover ``n_regions`` under the default
    perturbation levels (weather off/full × traffic absent/present),
    registers every region as a sound feature set in one batched
    propagation pass, and sweeps one provable and one frontier risk
    threshold derived from the batched output enclosures (which seed the
    engine's enclosure cache, so the campaign prescreen reuses them).
    """
    from repro.api import Campaign
    from repro.properties.library import steer_far_left
    from repro.scenario.regions import scenario_region_grid

    weather_levels = (0.0, 1.0)
    traffic_levels = (0, 1)
    per_scene = len(weather_levels) * len(traffic_levels)
    grid = scenario_region_grid(
        n_scenes=-(-n_regions // per_scene),
        weather_levels=weather_levels,
        traffic_levels=traffic_levels,
        seed=seed,
    ).truncated(n_regions)
    # region sets stay interval cut-boxes (a relational prefix pass over
    # image-space boxes would carry one noise symbol per pixel); the
    # domain choice governs the suffix prescreen ladder and refinement
    engine.add_region_sets(grid)
    enclosures = engine.output_enclosures(grid.names)
    hi = max(float(e.upper[0]) for e in enclosures)
    lo = min(float(e.lower[0]) for e in enclosures)
    return Campaign.from_scenario_grid(
        grid,
        risks=[
            steer_far_left(round(hi + 0.25, 3)),
            steer_far_left(round(0.5 * (lo + hi), 3)),
        ],
        name="cli-scenario-grid",
        domain=domain,
    )


def _refine(args: argparse.Namespace) -> int:
    """Anytime CEGAR refinement of one scenario region (`repro refine`)."""
    from repro.api import VerificationQuery
    from repro.properties.library import steer_far_left
    from repro.scenario.regions import scenario_region_grid

    engine, _ = _load(Path(args.out), solver=args.solver)
    engine.cegar_workers = args.workers
    grid = scenario_region_grid(
        n_scenes=1,
        weather_levels=(1.0,),
        traffic_levels=(1,),
        epsilon=args.epsilon,
        seed=args.seed,
    )
    names = engine.add_region_sets(grid)
    enclosure = engine.output_enclosures(names)[0]
    lo, hi = float(enclosure.lower[0]), float(enclosure.upper[0])
    if args.threshold is not None:
        threshold = args.threshold
    else:
        # default to just above the adversarially-reachable frontier:
        # concretization alone cannot decide it, so the loop genuinely
        # has to refine (bisected with the same attack CEGAR uses)
        from repro.properties.risk import RiskCondition, output_geq
        from repro.verification.counterexample import undecided_band_threshold

        region = grid[0]
        threshold = undecided_band_threshold(
            engine.model,
            lambda t: RiskCondition("probe", (output_geq(2, 0, t),)),
            region.lower[None],
            region.upper[None],
            lo,
            hi,
        )
    query = VerificationQuery(
        risk=steer_far_left(threshold),
        set_name=names[0],
        method="cegar",
        refine_budget=args.budget,
        domain=args.domain,
        structural=args.structural,
    )
    axes = "region+structural" if args.structural else "region"
    print(
        f"refining psi = waypoint >= {threshold} over {names[0]} "
        f"(enclosure [{lo:.3f}, {hi:.3f}], budget {args.budget}, "
        f"workers {args.workers}, axes {axes})"
    )
    result = engine.run_query(query)
    print(result.cegar.summary())
    print(f"\nverdict: {result.verdict.verdict.value}")
    if args.json:
        Path(args.json).write_text(json.dumps(result.to_dict(), indent=2))
        print(f"trace written to {args.json}")
    return 0


def _stream_campaign(engine: VerificationEngine, args: argparse.Namespace) -> int:
    """Streamed scenario sweep (`repro campaign --scenario-grid N --stream`).

    Covers the same grid as the eager scenario-grid campaign — identical
    scene/perturbation axes, identical enclosure-derived risk thresholds
    — but through :func:`repro.scenario.streaming.run_stream`: sharded
    region generation, prescreen-first triage, and O(shard) peak memory at
    any grid size.  ``--sample K`` switches to coverage-guided
    sub-exhaustive sweeping; ``--portfolio`` races the adaptive solver
    portfolio over every region the prescreen cannot decide.
    """
    from repro.properties.library import steer_far_left
    from repro.scenario.streaming import (
        StreamPlan,
        run_stream,
        stream_enclosure_range,
    )

    weather_levels = (0.0, 1.0)
    traffic_levels = (0, 1)
    per_scene = len(weather_levels) * len(traffic_levels)
    plan = StreamPlan(
        n_scenes=-(-args.scenario_grid // per_scene),
        weather_levels=weather_levels,
        traffic_levels=traffic_levels,
        seed=args.seed,
        shard_size=args.shard_size,
        limit=args.scenario_grid,
        sample=args.sample,
        sample_seed=args.seed,
    )
    # same threshold derivation as the eager path, computed in O(shard)
    # memory over the plan: the enclosure range is equal up to the last
    # bit, so the 3-decimal thresholds are equal except at a rounding
    # boundary
    lo, hi = stream_enclosure_range(engine, plan)
    risks = [
        steer_far_left(round(hi + 0.25, 3)),
        steer_far_left(round(0.5 * (lo + hi), 3)),
    ]
    report = run_stream(
        engine,
        plan,
        risks,
        domain=args.domain,
        workers=args.workers,
        portfolio=args.portfolio,
        progress=print,
    )
    print(report.summary())
    for key, count in sorted(report.decided_by_counts.items()):
        print(f"  decided by {key:<24} {count}")
    for axis in sorted(report.coverage):
        levels = report.coverage[axis]
        rendered = ", ".join(
            f"{level}: {sum(verdicts.values())}" for level, verdicts in
            sorted(levels.items())
        )
        print(f"  coverage {axis:<14} {rendered}")
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"\nreport written to {args.json}")
    return 1 if report.verdict_counts.get("error") else 0


def _campaign(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.api import Campaign, VerificationQuery
    from repro.properties.library import steer_far_left

    engine, meta = _load(Path(args.out), solver=args.solver)
    if getattr(args, "structural", False):
        # every cegar run this campaign triggers (including the exact
        # fallback) gets the neuron-merging axis
        engine.cegar_structural = True
        if not args.refine_budget and not args.portfolio:
            print(
                "warning: --structural only takes effect where CEGAR "
                "runs (--refine-budget N or --portfolio)"
            )
    if args.refine_budget:
        engine.refine_fallback = True
        engine.cegar_budget = args.refine_budget
        if not args.scenario_grid:
            # the threshold-sweep campaign runs over the data-derived
            # set, which has no input-region provenance to refine
            print(
                "warning: --refine-budget only takes effect with "
                "--scenario-grid (region sets carry the input boxes "
                "CEGAR refines); the threshold sweep ignores it"
            )
    if args.stream:
        if not args.scenario_grid:
            print("error: --stream requires --scenario-grid N")
            return 2
        return _stream_campaign(engine, args)
    if args.sample:
        print("error: --sample requires --stream (coverage-guided "
              "sampling is a streaming-sweep feature)")
        return 2
    if args.scenario_grid:
        from repro.scenario.regions import RegionMemoryError

        try:
            campaign = _scenario_grid_campaign(
                engine, args.scenario_grid, args.seed, domain=args.domain
            )
        except RegionMemoryError as exc:
            print(f"error: {exc}")
            return 2
    else:
        reach = engine.run_query(VerificationQuery(method="range")).output_range
        thresholds = np.linspace(reach.lower, reach.upper + 0.5, args.thresholds)
        campaign = Campaign("cli-sweep").add_grid(
            risks=[steer_far_left(round(float(t), 3)) for t in thresholds],
            properties=(*meta["properties"], None),
            method=args.method,
            domain=args.domain,
        )
    if args.portfolio:
        from repro.api import Portfolio

        report = Portfolio(engine).run(campaign, workers=args.workers)
    else:
        report = engine.run(campaign, workers=args.workers)
    print(report.summary())
    for result in report:
        status = (
            result.verdict.verdict.value
            if result.ok and result.verdict is not None
            else (result.error or "?")
        )
        phi = result.query.property_name or "*"
        print(
            f"  phi={phi:<14} set={result.query.set_name:<12} "
            f"{result.query.risk.description:<42} "
            f"{status} ({result.elapsed:.3f}s)"
        )
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"\nreport written to {args.json}")
    return 1 if report.errors else 0


def _bench(args: argparse.Namespace) -> int:
    """Track-based competition over a benchmark instance directory."""
    from repro.bench import (
        DEFAULT_TRACKS,
        Track,
        ensure_suite,
        run_competition,
        write_reports,
    )
    from repro.interchange import load_instances

    if args.instances:
        directory = Path(args.instances)
        instances = load_instances(directory)
        suite = None
    else:
        directory, instances = ensure_suite(
            args.suite, regenerate=args.regenerate
        )
        suite = args.suite
    tracks = [Track.parse(spec) for spec in args.track] or list(DEFAULT_TRACKS)
    print(
        f"running {len(instances)} instances from {directory} over "
        f"{len(tracks)} track(s)"
    )
    if args.daemon:
        print(f"submitting to daemon at {args.daemon}")
    report = run_competition(
        instances,
        tracks,
        instance_dir=str(directory),
        suite=suite,
        timeout=args.timeout,
        progress=print if not args.quiet else None,
        daemon=args.daemon,
        workers=args.workers,
    )
    md_path, json_path = write_reports(report, args.out)
    print(f"\nreports written to {md_path} and {json_path}")
    for score in report.scores:
        print(
            f"  {score.track:<18} score {score.score:>3}  "
            f"solved {score.solved}/{score.n_instances}  "
            f"PAR-2 {score.par2:.3f}s"
        )
    if report.disagreements:
        print("\nERROR: cross-track verdict disagreements (unsound configuration):")
        for problem in report.disagreements:
            print(f"  {problem}")
    if report.unsound_answers:
        print(f"\nERROR: {report.unsound_answers} answer(s) contradict ground truth")
    return 0 if report.ok else 1


def _monitor(args: argparse.Namespace) -> int:
    from repro.scenario.dataset import generate_dataset

    engine, _ = _load(Path(args.out))
    data = generate_dataset(args.frames, seed=args.seed + 1)
    monitor = engine.make_monitor(keep_events=False)
    report = monitor.run(data.images)
    print(report.summary())
    return 0


def _range(args: argparse.Namespace) -> int:
    from repro.api import Campaign

    engine, meta = _load(Path(args.out), solver="highs")
    campaign = Campaign("frontier").add_ranges(
        output_indices=(0, 1), properties=meta["properties"]
    )
    report = engine.run(campaign, workers=args.workers)
    labels = {0: "waypoint", 1: "orientation"}
    for result in report:
        if not result.ok:
            print(f"{result.query.name}: error: {result.error}")
            continue
        reach = result.output_range
        print(
            f"{result.query.property_name}: {labels[reach.output_index]} in "
            f"[{reach.lower:.3f}, {reach.upper:.3f}]"
            f"{'' if reach.exact else ' (not proved optimal)'}"
        )
    return 1 if report.errors else 0


def _analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_model, audit_registry
    from repro.nn.serialization import load_model

    exit_code = 0
    payload: dict = {}
    if not args.no_audit:
        audit = audit_registry(smoke=args.smoke)
        print(audit.summary())
        payload["audit"] = {
            "ok": audit.ok,
            "smoke_checks": audit.smoke_checks,
            "coverage": {k: list(v) for k, v in audit.coverage.items()},
            "diagnostics": [d.to_dict() for d in audit.diagnostics],
        }
        if not audit.ok:
            exit_code = 1

    targets: list[tuple[str, object]] = []
    if args.out is not None:
        targets.append(
            (f"{args.out}/perception.npz",
             load_model(Path(args.out) / "perception.npz"))
        )
    for onnx_path in args.onnx:
        from repro.interchange import import_onnx

        targets.append((onnx_path, import_onnx(onnx_path)))
    if args.instances is not None:
        from repro.interchange.instances import load_instances

        seen: set = set()
        for instance in load_instances(args.instances):
            if instance.model_path in seen:
                continue
            seen.add(instance.model_path)
            targets.append((str(instance.model_path), instance.load_model()))

    payload["reports"] = []
    for label, model in targets:
        report = analyze_model(model, domain=args.domain)
        print(f"\n{label}")
        print(report.summary())
        payload["reports"].append({"target": label, **report.to_dict()})
        if not report.ok:
            exit_code = 1

    if args.json is not None:
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"\nJSON report written to {args.json}")
    return exit_code


def _serve(args: argparse.Namespace) -> int:
    """Run the verification daemon (`repro serve`)."""
    import signal
    import threading

    from repro.service import ResultStore, VerificationService, start_server

    if args.memory_store:
        store = ResultStore()
    elif args.store:
        store = ResultStore(args.store)
    else:
        store = ResultStore.default()
    service = VerificationService(
        store,
        workers=args.workers,
        solver=args.solver,
        root=args.root,
    )
    server, _thread = start_server(service, host=args.host, port=args.port)
    print(f"repro daemon listening on {server.url}")
    if store.path is not None:
        print(f"result store: {store.path} ({len(store)} entries)")

    stop = threading.Event()

    def _handle(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGINT, _handle)
    signal.signal(signal.SIGTERM, _handle)
    stop.wait()
    print("shutting down...")
    server.shutdown()
    clean = service.close(drain=not args.no_drain)
    server.server_close()
    print("drained" if clean else "jobs still in flight at shutdown deadline")
    return 0 if clean else 1


def _submit(args: argparse.Namespace) -> int:
    """Submit one job to a running daemon (`repro submit`)."""
    from repro.service import ServiceClient, ServiceError

    payload: dict = {"method": args.method, "domain": args.domain}
    if args.suite:
        if not args.instance:
            print("error: --suite needs --instance")
            return 2
        payload["suite"] = args.suite
        payload["instance"] = args.instance
    elif args.model and args.property:
        payload["model"] = args.model
        payload["property"] = args.property
    else:
        print("error: give either --suite/--instance or --model/--property")
        return 2
    if args.solver:
        payload["solver"] = args.solver
    if args.timeout is not None:
        payload["timeout"] = args.timeout
    if args.priority:
        payload["priority"] = args.priority
    if args.refine_budget:
        payload["refine_budget"] = args.refine_budget
    if args.structural:
        payload["structural"] = True

    try:
        with ServiceClient(args.daemon) as client:
            job = client.submit(payload)
            print(f"submitted {job['id']}")
            if args.no_wait:
                return 0
            job = client.wait_for(job["id"], timeout=args.wait)
    except ServiceError as exc:
        print(f"error: {exc}")
        return 1
    result = job.get("result") or {}
    line = f"{job['id']}: {job['state']}"
    if result.get("status"):
        line += f" ({result['status']}"
        if result.get("decided_by"):
            line += f", decided by {','.join(result['decided_by'])}"
        if result.get("store_hits"):
            line += f", {result['store_hits']} store hit(s)"
        line += f", {result.get('elapsed', 0.0):.3f}s)"
    if job.get("error"):
        line += f" error: {job['error']}"
    print(line)
    return 0 if job["state"] == "done" else 1


def _lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import RULES, lint_paths, render_findings

    if args.list_rules:
        for code, (rule, description) in sorted(RULES.items()):
            print(f"{code}  {rule:16s} {description}")
        return 0
    findings = lint_paths(
        args.paths, select=args.select or None, ignore=args.ignore or None
    )
    print(render_findings(findings))
    return 1 if findings else 0


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {number}")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser.

    Exposed separately from :func:`main` so the documentation generator
    (:mod:`repro.cli_reference`) can walk the real parser tree — the
    CLI reference page is rendered from this object and a test asserts
    the two never drift apart.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Safety verification of direct perception neural networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="train and persist a verified system")
    build.add_argument("--out", default="system", help="output directory")
    build.add_argument("--scenes", type=int, default=500)
    build.add_argument("--epochs", type=int, default=30)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--properties", nargs="+", default=["bends_right", "bends_left"]
    )
    build.add_argument("--characterizer-epochs", type=int, default=200)
    build.add_argument("--characterizer-scenes", type=int, default=400)
    build.add_argument("--verbose", action="store_true")
    build.set_defaults(func=_build)

    verify = sub.add_parser("verify", help="run the canonical campaign")
    verify.add_argument("--out", default="system")
    verify.add_argument("--solver", default="branch-and-bound")
    verify.add_argument("--workers", type=int, default=1)
    verify.add_argument(
        "--allow-unsafe",
        action="store_true",
        help="exit 0 even when a property has a counterexample",
    )
    verify.set_defaults(func=_verify)

    campaign = sub.add_parser(
        "campaign", help="threshold-sweep campaign over all properties"
    )
    campaign.add_argument("--out", default="system")
    campaign.add_argument("--solver", default="branch-and-bound")
    campaign.add_argument("--method", default="exact", choices=["exact", "relaxed"])
    campaign.add_argument("--thresholds", type=int, default=8)
    campaign.add_argument("--workers", type=int, default=1)
    campaign.add_argument(
        "--scenario-grid",
        type=int,
        default=0,
        metavar="REGIONS",
        help="sweep REGIONS scenario-perturbation input regions (batched "
        "prescreen) instead of the threshold grid",
    )
    campaign.add_argument("--seed", type=int, default=0, help="scenario-grid seed")
    campaign.add_argument(
        "--stream",
        action="store_true",
        help="stream the scenario grid in shards (constant memory at any "
        "size) with a prescreen-first triage pass; verdict-identical to "
        "the eager --scenario-grid sweep on the same parameters",
    )
    campaign.add_argument(
        "--shard-size",
        type=_positive_int,
        default=256,
        metavar="N",
        help="regions per streamed shard (peak memory is O(shard))",
    )
    campaign.add_argument(
        "--sample",
        type=_positive_int,
        default=None,
        metavar="K",
        help="coverage-guided sub-exhaustive sweep: stream only K regions "
        "chosen by a coprime-stride lattice over the weather x camera x "
        "traffic axes (requires --stream)",
    )
    campaign.add_argument(
        "--portfolio",
        action="store_true",
        help="race the adaptive (domain, method, solver) portfolio per "
        "query — first sound decided answer wins, losers are cancelled "
        "— instead of the engine's fixed strategy ladder",
    )
    campaign.add_argument(
        "--domain",
        default="interval",
        choices=["interval", "octagon", "zonotope", "symbolic"],
        help="abstract domain for prescreen enclosures and region sets "
        "(the engine escalates its precision ladder up to this domain)",
    )
    campaign.add_argument("--json", default=None, help="write the JSON report here")
    campaign.add_argument(
        "--refine-budget",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="enable the anytime CEGAR fallback for UNKNOWN verdicts, "
        "spending N subproblems per query",
    )
    campaign.add_argument(
        "--structural",
        action="store_true",
        help="run every CEGAR pass (fallback or portfolio racer) with "
        "the structural neuron-merging refinement axis enabled",
    )
    campaign.set_defaults(func=_campaign)

    refine = sub.add_parser(
        "refine", help="anytime CEGAR refinement of a scenario region"
    )
    refine.add_argument("--out", default="system")
    refine.add_argument("--solver", default="branch-and-bound")
    refine.add_argument(
        "--budget", type=_positive_int, default=50, help="subproblem budget"
    )
    refine.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="frontier-parallel leaf solvers",
    )
    refine.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="waypoint risk threshold (default: just above the "
        "adversarially-reachable frontier, so refinement genuinely has "
        "to split)",
    )
    refine.add_argument("--epsilon", type=float, default=0.02, help="region widening")
    refine.add_argument(
        "--domain",
        default="interval",
        choices=["interval", "octagon", "zonotope", "symbolic"],
        help="abstract domain of the per-round CEGAR frontier prescreen",
    )
    refine.add_argument(
        "--structural",
        action="store_true",
        help="enable the structural (neuron-merging) refinement axis: "
        "spurious rounds may split a merged neuron group instead of "
        "the input region, whichever tightens the violating bound more",
    )
    refine.add_argument("--seed", type=int, default=0)
    refine.add_argument("--json", default=None, help="write the JSON result here")
    refine.set_defaults(func=_refine)

    monitor = sub.add_parser("monitor", help="monitor a fresh in-ODD stream")
    monitor.add_argument("--out", default="system")
    monitor.add_argument("--frames", type=int, default=100)
    monitor.add_argument("--seed", type=int, default=0)
    monitor.set_defaults(func=_monitor)

    rng = sub.add_parser("range", help="exact output-range frontier")
    rng.add_argument("--out", default="system")
    rng.add_argument("--workers", type=int, default=1)
    rng.set_defaults(func=_range)

    bench = sub.add_parser(
        "bench",
        help="track-based competition over ONNX/VNN-LIB benchmark instances",
    )
    bench.add_argument(
        "--suite",
        default="smoke",
        choices=["smoke"],
        help="bundled instance suite (generated on first use from the "
        "in-repo E1/E6/scenario-grid workloads)",
    )
    bench.add_argument(
        "--instances",
        default=None,
        metavar="DIR",
        help="benchmark instance directory (instances.csv + .onnx/.vnnlib "
        "files); overrides --suite",
    )
    bench.add_argument(
        "--track",
        action="append",
        default=[],
        metavar="NAME=DOMAIN:METHOD:SOLVER",
        help="competition track (repeatable); defaults to the bundled "
        "interval-bnb / zonotope-highs / relaxed-screen trio",
    )
    bench.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override every instance's wall/solver budget",
    )
    bench.add_argument(
        "--out",
        default="docs/benchmarks",
        help="directory for report.md + report.json",
    )
    bench.add_argument(
        "--regenerate",
        action="store_true",
        help="rewrite the bundled suite before running",
    )
    bench.add_argument(
        "--quiet", action="store_true", help="suppress per-instance progress"
    )
    bench.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run (track, instance) cells on an N-process pool; wall "
        "budgets still apply per instance, and the report is ordered "
        "as if sequential",
    )
    bench.add_argument(
        "--daemon",
        default=None,
        metavar="URL",
        help="submit every (track, instance) cell to a running `repro "
        "serve` daemon instead of constructing in-process engines "
        "(long-lived caches and the result store apply)",
    )
    bench.set_defaults(func=_bench)

    analyze = sub.add_parser(
        "analyze",
        help="static soundness analysis: IR validation + transformer-"
        "registry audit",
    )
    analyze.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="analyze the perception model of a persisted system directory",
    )
    analyze.add_argument(
        "--onnx",
        action="append",
        default=[],
        metavar="FILE",
        help="analyze an ONNX model (repeatable)",
    )
    analyze.add_argument(
        "--instances",
        default=None,
        metavar="DIR",
        help="analyze every distinct model of a benchmark instance "
        "directory (instances.csv)",
    )
    analyze.add_argument(
        "--domain",
        default=None,
        choices=["interval", "octagon", "zonotope", "symbolic"],
        help="require this abstract domain to cover every op (coverage "
        "gaps become errors instead of infos)",
    )
    analyze.add_argument(
        "--smoke",
        action="store_true",
        help="run the differential soundness smoke checks on every "
        "registered (domain, op) transformer pair",
    )
    analyze.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the transformer-registry audit",
    )
    analyze.add_argument("--json", default=None, help="write the JSON report here")
    analyze.set_defaults(func=_analyze)

    serve = sub.add_parser(
        "serve",
        help="run the verification daemon (HTTP/JSON job queue + "
        "persistent result store)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=_non_negative_int,
        default=8155,
        help="listen port (0 picks a free one)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="concurrent job executors",
    )
    serve.add_argument("--solver", default="branch-and-bound")
    serve.add_argument(
        "--store",
        default=None,
        metavar="FILE",
        help="result store JSONL path (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro/results.jsonl)",
    )
    serve.add_argument(
        "--memory-store",
        action="store_true",
        help="keep the result store in memory only (nothing persisted)",
    )
    serve.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="restrict job model/property paths to this directory",
    )
    serve.add_argument(
        "--no-drain",
        action="store_true",
        help="on shutdown, cancel queued jobs and interrupt running "
        "CEGAR loops instead of draining the queue",
    )
    serve.set_defaults(func=_serve)

    submit = sub.add_parser(
        "submit", help="submit one verification job to a running daemon"
    )
    submit.add_argument(
        "--daemon",
        default="http://127.0.0.1:8155",
        metavar="URL",
        help="daemon base URL",
    )
    submit.add_argument("--model", default=None, help="model path (.onnx/.npz)")
    submit.add_argument("--property", default=None, help="property path (.vnnlib)")
    submit.add_argument(
        "--suite",
        default=None,
        choices=["smoke"],
        help="submit a bundled suite instance instead of explicit paths",
    )
    submit.add_argument(
        "--instance", default=None, help="instance name within --suite"
    )
    submit.add_argument(
        "--method",
        default="exact",
        choices=["exact", "relaxed", "cegar", "portfolio"],
        help="query strategy; portfolio races the adaptive (domain, "
        "method, solver) ladder per disjunct",
    )
    submit.add_argument(
        "--domain",
        default="interval",
        choices=["interval", "octagon", "zonotope", "symbolic"],
    )
    submit.add_argument("--solver", default=None)
    submit.add_argument(
        "--timeout", type=float, default=None, help="per-job wall budget (seconds)"
    )
    submit.add_argument(
        "--priority", type=int, default=0, help="queue priority (higher runs first)"
    )
    submit.add_argument(
        "--refine-budget",
        type=_positive_int,
        default=None,
        metavar="N",
        help="CEGAR subproblem budget (cegar method only)",
    )
    submit.add_argument(
        "--structural",
        action="store_true",
        help="refine with the structural (neuron-merging) axis; the "
        "merge state checkpoints with the frontier between slices "
        "(cegar method only)",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without waiting for the verdict",
    )
    submit.add_argument(
        "--wait",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="how long to wait for the verdict",
    )
    submit.set_defaults(func=_submit)

    lint = sub.add_parser(
        "lint", help="repo-specific static lint (AST rules) over Python sources"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULE",
        help="only run these rules (code or name, repeatable)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULE",
        help="skip these rules (code or name, repeatable)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    lint.set_defaults(func=_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
