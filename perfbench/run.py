"""End-to-end benchmark: run one workload at one seed.

From the root of a checkout::

    python3 perfbench/run.py --workload stream-sweep --seed 1 --seconds 18 --trace 0

Each invocation is a fresh process.  Set-up (imports, ``repro build`` of
the quick system, input generation) is repeated and its median reported
as ``setup_s``; the timed phase then runs rounds of a cold pass and,
where the workload has one, a warm pass (see ``workloads.py``) until
``--seconds`` are used up, checks every answer against an independent
reference, and prints one JSON line last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every time in the end-to-end metrics is speed-normalised (see
``speed.py``), and the whole run is pinned to one CPU.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics instead; it also writes a Chrome trace (open it in
Perfetto) and a self-time table under ``.perfbench/traces/``.  The exit
code is 1 when any output check fails.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402  (timed from the first statement)
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: on this program's small matrices a second thread
# costs more than it saves and ties every wall to the load on the other
# core.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# One CPU for the whole run; child processes (the build, the daemon's
# client) inherit it.  The two vCPUs of a cloud VM ran at different
# speeds from minute to minute, so a run that migrated between them had
# walls the speed probe, run on whichever vCPU it landed on, could not
# follow.  On one vCPU the daemon's client/server hand-offs also stop
# paying for cross-vCPU wake-ups.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: set-up repetitions whose median is ``setup_s``
SETUP_REPEATS = 3

#: least (untraced, traced) round pairs, and least seconds, of a traced
#: run: the measured tracing overhead is a median over the pairs, and
#: on a VM whose speed swings by 15% from round to round it takes that
#: many to resolve a few percent
TRACE_PAIRS = 8
TRACE_SECONDS = 60.0

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="minimal input sizes and one set-up (the self-test)",
    )
    return parser.parse_args(argv)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (``VmHWM``) at the current RSS."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    """Peak resident set of this process since the last reset, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def import_program(src: Path) -> None:
    """Import the checkout's ``repro`` package and everything it needs."""
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"imported repro from {repro.__file__}, not {src}")
    import repro.cli  # noqa: F401
    import repro.interchange.instances  # noqa: F401
    import repro.scenario.streaming  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.service.httpd  # noqa: F401
    import repro.verification.cegar  # noqa: F401


class Round:
    """Walls and answers of one round.

    ``cold_s``/``warm_s`` are the passes' speed-normalised walls,
    ``cold_raw_s``/``warm_raw_s`` their raw walls (probes excluded).
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.cold_s = self.warm_s = 0.0
        self.cold_raw_s = self.warm_raw_s = 0.0
        self.cold = None
        self.warm = None
        self.spans: dict[str, tuple[int, int]] = {}


def run_rounds(workload, seconds: float, tracer, pairs: int) -> list[Round]:
    """Closed loop of rounds until the time budget is (about to be) spent.

    A new round starts only if the mean round so far still fits.  With
    ``pairs`` > 0 (the traced mode) untraced and traced rounds alternate,
    at least ``pairs`` pairs of them, so the tracing overhead is a median.
    """
    from speed import Meter

    kinds = ("cold", "warm") if workload.warm is not None else ("cold",)
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        done = Round(traced=pairs > 0 and len(rounds) % 2 == 1)
        state = workload.fresh()
        try:
            if done.traced:
                tracer.install()
            try:
                for kind in kinds:
                    # collect the previous pass's garbage outside the timer,
                    # so no pass pays for another's and every pass starts
                    # from the same collector state
                    gc.collect()
                    first = len(tracer.spans)
                    meter = Meter()
                    with (tracer.span("bench.pass", f"{kind}-{len(rounds)}")
                          if done.traced else contextlib.nullcontext()):
                        answer = getattr(workload, kind)(state, meter)
                    setattr(done, kind, answer)
                    setattr(done, f"{kind}_s", meter.scaled_s)
                    setattr(done, f"{kind}_raw_s", meter.raw_s)
                    if not answer.latencies:
                        answer.latencies = [meter.scaled_s]
                    done.spans[kind] = (first, len(tracer.spans))
            finally:
                if done.traced:
                    tracer.restore()
        finally:
            workload.close(state)
        rounds.append(done)
        elapsed = time.perf_counter() - start
        mean = elapsed / len(rounds)
        if len(rounds) >= 2 * pairs and elapsed + mean > seconds:
            return rounds


def end_to_end(setup_s: float, peak_mb: float, rounds: list[Round]) -> dict:
    """The end-to-end metrics; every time speed-normalised."""
    cold = [lat for r in rounds for lat in r.cold.latencies]
    # without a warm pass, a warm request is a cold one
    warm = [lat for r in rounds if r.warm for lat in r.warm.latencies] or cold
    decided = sum(r.cold.decided for r in rounds)
    queries = sum(r.cold.queries for r in rounds)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.cold_s for r in rounds),
        "peak_rss_mb": peak_mb,
        "decided_frac": decided / queries,
        "cold_p50_ms": 1000.0 * percentile(cold, 0.50),
        "cold_p95_ms": 1000.0 * percentile(cold, 0.95),
        "warm_p50_ms": 1000.0 * percentile(warm, 0.50),
        "warm_p95_ms": 1000.0 * percentile(warm, 0.95),
    }


def per_layer(tracer, rounds: list[Round], setup: dict) -> tuple[dict, dict]:
    """Per-layer metrics (per traced round) and the self-time tables."""
    from tracing import LayerStats, Tracer

    traced = [r for r in rounds if r.traced]
    n = len(traced)

    def spans(kinds: tuple[str, ...]) -> list:
        out = []
        for r in traced:
            for kind in kinds:
                if kind in r.spans:
                    a, b = r.spans[kind]
                    out.extend(tracer.spans[a:b])
        return out

    stats = LayerStats(spans(("cold", "warm")))
    cold_spans = len(spans(("cold",)))
    cold_stats = LayerStats(spans(("cold",)))
    warm_stats = LayerStats(spans(("warm",)))

    def busy(*names: str) -> float:
        return stats.busy(*names) / n

    def count(name: str, key: str) -> float:
        return stats.count(name, key) / n

    def calls(name: str) -> float:
        return stats.calls.get(name, 0) / n

    deciders: dict[str, float] = {}
    for r in traced:
        for key, value in r.cold.decided_by.items():
            key = "solve" if key.startswith("solve") else key
            deciders[key] = deciders.get(key, 0.0) + value / n

    jobs = [a for r in traced if r.warm for a in r.warm.answers.values()]

    def job_ms(field: str) -> float:
        values = []
        for job in jobs:
            created, started, finished = job["created"], job["started"], job["finished"]
            values.append(
                {
                    "queue_wait_ms": started - created,
                    "run_ms": finished - started,
                    "transport_ms": job["latency"] - (finished - created),
                }[field]
            )
        return 1000.0 * statistics.median(values) if values else 0.0

    # each traced round against the mean of the untraced rounds around
    # it, on speed-normalised walls, so the machine's drift cancels out
    pairs = []
    for i in range(1, len(rounds), 2):
        around = [r.cold_s for r in rounds[i - 1 : i + 2 : 2]]
        pairs.append((sum(around) / len(around), rounds[i].cold_s))
    boxes = count("counterexample.pgd", "boxes")
    store_hits = count("service.store", "hits")
    store_misses = count("service.store", "misses")
    # layer spans are raw durations, so they are compared with raw walls
    cold_wall = sum(r.cold_raw_s for r in traced)
    metrics = {
        "counterexample.pgd.busy_s": busy("counterexample.pgd"),
        "counterexample.pgd.boxes": boxes,
        "counterexample.pgd.hits": count("counterexample.pgd", "hits"),
        "counterexample.pgd.hit_ratio": (
            count("counterexample.pgd", "hits") / boxes if boxes else 0.0
        ),
        "scenario.regions.busy_s": busy("scenario.regions"),
        "scenario.regions.count": count("scenario.regions", "count"),
        "scenario.render.busy_s": busy("scenario.render"),
        "abstraction.propagate_regions.busy_s": busy("abstraction.propagate_regions"),
        "prescreen.enclosure.busy_s": busy("prescreen.enclosure"),
        "prescreen.screen.busy_s": busy("prescreen.screen"),
        "milp.encode.calls": calls("milp.encode"),
        "milp.encode.busy_s": busy("milp.encode"),
        "milp.op_bounds.busy_s": busy("milp.op_bounds"),
        "solver.bnb.calls": calls("solver.bnb"),
        "solver.bnb.busy_s": busy("solver.bnb"),
        "solver.bnb.nodes": count("solver.bnb", "nodes"),
        "solver.bnb.limit_hits": count("solver.bnb", "limit_hits"),
        "solver.lp.calls": calls("solver.lp"),
        "solver.lp.busy_s": busy("solver.lp"),
        "cegar.busy_s": busy("cegar"),
        "cegar.subproblems": count("cegar", "subproblems"),
        "cegar.rounds": count("cegar", "rounds"),
        "cegar.decided_volume": count("cegar", "decided_volume"),
        "cegar.structural_splits": count("cegar", "structural_splits"),
        "merge.busy_s": busy("merge"),
        "engine.run.busy_s": busy("engine.run"),
        "engine.add_region_sets.busy_s": busy("engine.add_region_sets"),
        "engine.run_query.busy_s": busy("engine.run_query"),
        "service.job.queue_wait_ms": job_ms("queue_wait_ms"),
        "service.job.run_ms": job_ms("run_ms"),
        "service.job.transport_ms": job_ms("transport_ms"),
        "service.store.hits": store_hits,
        "service.store.misses": store_misses,
        "service.store.hit_ratio": (
            store_hits / (store_hits + store_misses) if store_hits + store_misses else 0.0
        ),
        "service.store.busy_s": busy("service.store"),
        "service.digest.busy_s": busy("service.digest"),
        "service.httpd.busy_s": busy("service.httpd"),
        "interchange.read_vnnlib.busy_s": busy("interchange.read_vnnlib"),
        "process.import_s": setup["import_s"],
        "system.build_s": setup["build_s"],
        "trace.overhead_s": statistics.median(t - u for u, t in pairs),
        "trace.overhead_frac": statistics.median((t - u) / u for u, t in pairs),
        "trace.attributed_frac": cold_stats.attributed() / cold_wall,
        "trace.spans": cold_spans / n,
        "trace.span_cost_frac": cold_spans * Tracer.span_cost() / cold_wall,
    }
    for key in ("attack", "prescreen", "support-cache", "relaxed-lp", "solve"):
        metrics[f"decided_by.{key}"] = deciders.get(key, 0.0)
    tables = {
        "cold": {"wall_s": cold_wall / n, "rows": _rows(cold_stats, cold_wall, n)},
    }
    warm_wall = sum(r.warm_raw_s for r in traced)
    if warm_wall:
        tables["warm"] = {"wall_s": warm_wall / n, "rows": _rows(warm_stats, warm_wall, n)}
    return metrics, tables


def _rows(stats, wall: float, n: int) -> list[dict]:
    return [
        {"layer": layer, "self_s": s / n, "share": share, "calls": calls / n}
        for layer, s, share, calls in stats.table(wall)
    ]


def emit(spec: dict, section: str, values: dict, attempted: int, failed: int) -> None:
    metrics = {}
    for entry in spec[section]:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def print_tables(name: str, tables: dict, out) -> None:
    for kind, table in tables.items():
        print(f"\n{name} {kind} pass: {table['wall_s']:.3f} s per round", file=out)
        for row in table["rows"]:
            print(
                f"  {row['layer']:<34} {row['self_s']:9.4f} s "
                f"{100 * row['share']:6.1f} %  {row['calls']:10.1f} calls",
                file=out,
            )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    work = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # anything the program puts in a temporary directory stays in the checkout
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    try:
        import_program(src)
        from layers import register_layers
        from speed import REFERENCE_S, Meter, speed_probe
        from tracing import Tracer
        from workloads import WORKLOADS, Context, build_system

        import_s = time.perf_counter() - _PROCESS_T0
        ctx = Context(root=ROOT, work=work, seed=args.seed, tiny=args.tiny)
        repeats = 1 if args.tiny else SETUP_REPEATS
        # the imports have no probe before them: the first one after
        # them stands in for both
        import_s *= REFERENCE_S / speed_probe()
        builds, setups = [], []
        for _ in range(repeats):
            meter = Meter()
            meter.time(build_system, ctx)
            builds.append(meter.scaled_s)
            workload = WORKLOADS[args.workload](ctx)
            meter.time(workload.prepare)
            setups.append(meter.scaled_s)
        setup = {
            "import_s": import_s,
            "build_s": statistics.median(builds),
            "setup_s": import_s + statistics.median(setups),
        }

        tracer = Tracer()
        if args.trace:
            register_layers(tracer)
        # the peak of the timed rounds alone: not set-up's, and not the
        # reference's (``stream-sweep``'s reference is the eager path)
        gc.collect()
        reset_peak_rss()
        try:
            seconds, pairs = args.seconds, 0
            if args.trace:
                pairs = 1 if args.tiny else TRACE_PAIRS
                seconds = seconds if args.tiny else max(seconds, TRACE_SECONDS)
            rounds = run_rounds(workload, seconds, tracer, pairs)
            peak_mb = peak_rss_mb()
        finally:
            workload.shutdown()

        reference = workload.reference()
        failed = 0
        attempted = 0
        for r in rounds:
            for kind in ("cold", "warm"):
                answer = getattr(r, kind)
                if answer is None:
                    continue
                attempted += answer.queries
                wrong, problems = workload.check(answer, reference, kind == "warm")
                failed += wrong
                for problem in problems[:5]:
                    print(f"check failed ({kind} pass): {problem}", file=sys.stderr)

        if args.trace:
            values, tables = per_layer(tracer, rounds, setup)
            print_tables(args.workload, tables, sys.stderr)
            print(
                "\nnormalised cold walls, untraced | traced: "
                + " ".join(f"{r.cold_s:.3f}" for r in rounds if not r.traced)
                + " | " + " ".join(f"{r.cold_s:.3f}" for r in rounds if r.traced),
                file=sys.stderr,
            )
            traces = out_dir / "traces"
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write_chrome_trace(traces / f"{stem}.json")
            (traces / f"{stem}-selftime.json").write_text(
                json.dumps({"workload": args.workload, "seed": args.seed,
                            "metrics": values, "tables": tables}, indent=2)
            )
            emit(spec, "per_layer", values, max(attempted, 1), failed)
        else:
            values = end_to_end(setup["setup_s"], peak_mb, rounds)
            print(
                f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
                f"failed {failed}/{attempted}, "
                + ", ".join(f"{k}={v:.4g}" for k, v in values.items())
                + "\n  cold walls, raw:        "
                + " ".join(f"{r.cold_raw_s:.3f}" for r in rounds)
                + "\n  cold walls, normalised: "
                + " ".join(f"{r.cold_s:.3f}" for r in rounds)
                + "\n  warm walls, normalised: "
                + " ".join(f"{r.warm_s:.3f}" for r in rounds if r.warm),
                file=sys.stderr,
            )
            emit(spec, "end_to_end", values, max(attempted, 1), failed)
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
