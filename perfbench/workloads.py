"""The four committed end-to-end workloads.

Every workload runs in *rounds*.  A round builds fresh program state
(an engine loaded from the built system, a freshly imported network, or
a new daemon) and runs a **cold** pass over the workload's inputs.
Workloads whose state a pass can reuse then run a **warm** pass over the
same inputs on the state the cold pass left behind; the others set
``warm = None``.  A pass times itself through the ``speed.Meter``
``run.py`` hands it, in one slice or, where it runs long, in several;
everything else here (input generation, state construction, the
reference answers) happens outside the timed phase.

Inputs come only from the seed ``run.py`` passes in, and every pass's
answers are checked against an independent reference, CHC-COMP style:
a wrong verdict counts as a failure, not as a fast answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from speed import Meter

#: ``repro build`` arguments of the quick system the CI smoke jobs use
QUICK_SYSTEM = (
    "--scenes", "200", "--epochs", "8", "--characterizer-epochs", "60",
    "--characterizer-scenes", "200", "--properties", "bends_right",
)

#: verdict value -> instance status (VNN-COMP vocabulary)
_STATUS = {"safe": "unsat", "unsafe-in-set": "sat"}

#: answers that decide a query, in either vocabulary
_DECIDED = frozenset((*_STATUS, *_STATUS.values()))


@dataclass
class Pass:
    """What one timed pass produced, for checking and for the metrics."""

    verdicts: Counter
    decided_by: Counter = field(default_factory=Counter)
    queries: int = 0
    errors: int = 0
    #: speed-normalised per-request latencies in seconds (one per job or
    #: shard; empty where the request is the pass itself)
    latencies: list[float] = field(default_factory=list)
    #: per-job answers by instance name (daemon only)
    answers: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: times the pass ran over its inputs; ``verdicts`` adds up over them
    repeats: int = 1

    @property
    def decided(self) -> int:
        """Answers that are SAFE/UNSAFE (``axis:status`` keys count by status)."""
        return sum(
            n for v, n in self.verdicts.items() if v.rsplit(":", 1)[-1] in _DECIDED
        )


@dataclass
class Context:
    root: Path  #: the checkout (holds ``src/`` and ``benchmarks/``)
    work: Path  #: scratch directory of this run
    seed: int
    tiny: bool = False

    @property
    def system(self) -> Path:
        return self.work / "system"


def build_system(ctx: Context) -> None:
    """``repro build`` of the quick system into the run's scratch dir.

    A child process, as a user would run it: training's memory peak then
    stays out of the benchmark process, whose peak RSS is a metric.
    """
    subprocess.run(
        [sys.executable, "-m", "repro", "build", "--out", str(ctx.system),
         *QUICK_SYSTEM],
        env={**os.environ, "PYTHONPATH": str(ctx.root / "src")},
        stdout=subprocess.DEVNULL, check=True, timeout=600,
    )


def _load_engine(ctx: Context):
    """The engine ``repro campaign`` builds from a persisted system."""
    from repro.api import VerificationEngine
    from repro.nn.serialization import load_model

    meta = json.loads((ctx.system / "meta.json").read_text())
    model = load_model(ctx.system / "perception.npz")
    return VerificationEngine(model, meta["cut_layer"])


def _histogram(results) -> tuple[Counter, Counter, int]:
    verdicts: Counter = Counter()
    deciders: Counter = Counter()
    errors = 0
    for result in results:
        if result.ok and result.verdict is not None:
            verdicts[result.verdict.verdict.value] += 1
        else:
            verdicts["error"] += 1
            errors += 1
        deciders[result.decided_by or "?"] += 1
    return verdicts, deciders, errors


def _histogram_mismatch(got: Counter, want: Counter) -> int:
    """Least number of answers that must differ between two histograms."""
    return sum(max(0, want[k] - got.get(k, 0)) for k in want) + max(
        0, sum(got.values()) - sum(want.values())
    )


class Workload:
    """Interface ``run.py`` runs; see the module docstring."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self) -> None:
        """Generate the inputs (part of set-up)."""

    def fresh(self) -> Any:
        raise NotImplementedError

    def cold(self, state: Any, meter: Meter) -> Pass:
        """One pass over the inputs, timed in slices of ``meter``."""
        raise NotImplementedError

    def warm(self, state: Any, meter: Meter) -> Pass:
        """The same inputs again; ``warm = None`` where nothing carries over."""
        raise NotImplementedError

    def close(self, state: Any) -> None:
        """Release what :meth:`fresh` opened."""

    def shutdown(self) -> None:
        """Stop whatever outlives a round (called once, at exit)."""

    def reference(self) -> Any:
        """Independent expected answers (computed after the timed phase)."""

    def check(self, done: Pass, reference: Any, warm: bool) -> tuple[int, list[str]]:
        """``(failed answers, messages)`` of the output checks on one pass."""
        raise NotImplementedError


# -- scenario sweeps ---------------------------------------------------------


class _ScenarioSweep(Workload):
    """Shared plumbing of the streamed and eager scenario sweeps.

    Both cover the same region grid (scenes x weather off/full x traffic
    absent/present, truncated to ``regions``) with the CLI's two
    enclosure-derived risks: one provable (hi + 0.25) and one at the
    frontier (midpoint).  Each checks its verdict histogram against the
    *other* path on the same seed, so the two paths referee each other.
    """

    WEATHER = (0.0, 1.0)
    TRAFFIC = (0, 1)
    REGIONS = 128
    SHARD_SIZE = 64

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.regions = 16 if ctx.tiny else self.REGIONS
        self.n_scenes = -(-self.regions // (len(self.WEATHER) * len(self.TRAFFIC)))

    @staticmethod
    def _risks(lo: float, hi: float) -> list:
        from repro.properties.library import steer_far_left

        return [
            steer_far_left(round(hi + 0.25, 3)),
            steer_far_left(round(0.5 * (lo + hi), 3)),
        ]

    def fresh(self) -> dict:
        return {"engine": _load_engine(self.ctx)}

    def _stream(self, engine, meter: Meter) -> Pass:
        from repro.scenario import streaming

        plan = streaming.StreamPlan(
            n_scenes=self.n_scenes,
            weather_levels=self.WEATHER,
            traffic_levels=self.TRAFFIC,
            seed=self.ctx.seed,
            shard_size=8 if self.ctx.tiny else self.SHARD_SIZE,
            limit=self.regions,
            sample_seed=self.ctx.seed,
        )
        # a shard is the sweep's unit of work: its latency runs from the
        # previous shard's report (generation included) to its own
        marks: list[float] = []

        def sweep():
            lo, hi = streaming.stream_enclosure_range(engine, plan)
            marks.append(time.perf_counter())
            return streaming.run_stream(
                engine, plan, self._risks(lo, hi),
                progress=lambda _line: marks.append(time.perf_counter()),
            )

        report, scale = meter.time(sweep)
        verdicts = Counter(report.verdict_counts)
        return Pass(
            verdicts=verdicts,
            decided_by=Counter(report.decided_by_counts),
            queries=report.total_queries,
            errors=verdicts.get("error", 0),
            latencies=[(b - a) * scale for a, b in zip(marks, marks[1:])],
        )

    def _eager(self, state: dict, meter: Meter) -> Pass:
        meter.time(self._materialise, state)
        return self._run_campaign(state, meter)

    def _materialise(self, state: dict) -> None:
        """Regions, registration, enclosures and the campaign (eager path)."""
        from repro.api import Campaign
        from repro.scenario import regions

        engine = state["engine"]
        grid = regions.scenario_region_grid(
            n_scenes=self.n_scenes,
            weather_levels=self.WEATHER,
            traffic_levels=self.TRAFFIC,
            seed=self.ctx.seed,
        ).truncated(self.regions)
        engine.add_region_sets(grid)
        enclosures = engine.output_enclosures(grid.names)
        hi = max(float(e.upper[0]) for e in enclosures)
        lo = min(float(e.lower[0]) for e in enclosures)
        state["campaign"] = Campaign.from_scenario_grid(
            grid, risks=self._risks(lo, hi), name="scenario-grid", domain="interval"
        )

    @staticmethod
    def _run_campaign(state: dict, meter: Meter, repeats: int = 1) -> Pass:
        """``engine.run`` of the campaign, ``repeats`` times in one slice.

        With several repeats every run is a request of its own.
        """

        def runs():
            reports, marks = [], [time.perf_counter()]
            for _ in range(repeats):
                reports.append(state["engine"].run(state["campaign"]))
                marks.append(time.perf_counter())
            return reports, marks

        (reports, marks), scale = meter.time(runs)
        done = Pass(Counter(), repeats=repeats)
        for report in reports:
            verdicts, deciders, errors = _histogram(report.results)
            done.verdicts.update(verdicts)
            done.decided_by.update(deciders)
            done.queries += len(report.results)
            done.errors += errors
        if repeats > 1:
            done.latencies = [(b - a) * scale for a, b in zip(marks, marks[1:])]
        return done

    def check(self, done: Pass, reference: Counter, warm: bool) -> tuple[int, list[str]]:
        reference = Counter({k: n * done.repeats for k, n in reference.items()})
        if done.verdicts == reference:
            return 0, []
        wrong = _histogram_mismatch(done.verdicts, reference)
        return min(done.queries, max(wrong, done.errors, 1)), [
            f"verdict histogram {dict(done.verdicts)} differs from the "
            f"other sweep path's {dict(reference)}"
        ]


class StreamSweep(_ScenarioSweep):
    """``repro campaign --scenario-grid 128 --stream --shard-size 64``.

    Sequential, interval domain, exact64, 20 attack steps.  Requests are
    shards (two per pass).  A sweep's shards are scoped to the sweep, so
    a second sweep on the same engine repeats the same work: there is
    no warm pass.
    """

    name = "stream-sweep"
    warm = None

    def cold(self, state: dict, meter: Meter) -> Pass:
        return self._stream(state["engine"], meter)

    def reference(self) -> Counter:
        return self._eager(self.fresh(), Meter()).verdicts


class GridCampaign(_ScenarioSweep):
    """``repro campaign --scenario-grid 128``: the eager path, no attack.

    Region generation, batched registration and enclosures, then
    ``engine.run``.  Requests are whole passes: per-query latencies are
    bimodal (half the queries end at the prescreen in microseconds, half
    in a branch-and-bound support minimize), so their median is
    meaningless.  The warm pass re-runs the campaign ``WARM_REPEATS``
    times on the engine whose enclosure and support caches the cold pass
    filled; each run is a request.
    """

    name = "grid-campaign"
    #: a warm run takes about 17 ms; with one per round the warm p95 was
    #: the largest of some twenty samples and swung by a fifth
    WARM_REPEATS = 5

    def cold(self, state: dict, meter: Meter) -> Pass:
        return self._eager(state, meter)

    def warm(self, state: dict, meter: Meter) -> Pass:
        return self._run_campaign(state, meter, self.WARM_REPEATS)

    def reference(self) -> Counter:
        return self._stream(self.fresh()["engine"], Meter()).verdicts


# -- CEGAR on the width-hard instance ---------------------------------------


class CegarWide(Workload):
    """Region-only, then structural, CEGAR on ``structural/wide``.

    The node limit (128) is the committed one of
    ``benchmarks/bench_structural.py``.  Both loops get the same budget
    of 3 subproblems, not that benchmark's 10: every region-only
    subproblem is one node-limited leaf solve of about 1.3 s, and a
    shorter pass lets a run hold several rounds.  The separation holds
    at any equal budget: region splitting alone stays open, and the
    structural axis proves UNSAT with its first subproblem.  The
    instance is committed, so the workload ignores the seed.  Each round
    imports the network afresh; a fresh loop keeps nothing from the
    last, so there is no warm pass.
    """

    name = "cegar-wide"
    BUDGET = 3
    NODE_LIMIT = 128
    warm = None

    def prepare(self) -> None:
        from repro.interchange.vnnlib import read_vnnlib

        self.directory = self.ctx.root / "benchmarks" / "instances" / "structural"
        self.prop = read_vnnlib(self.directory / "wide-unsat.vnnlib")
        self.budget = 1 if self.ctx.tiny else self.BUDGET

    def fresh(self):
        from repro.interchange.onnx import import_onnx

        return import_onnx(self.directory / "wide.onnx")

    def _loop(self, model, structural: bool):
        from repro.verification.cegar import CegarConfig, CegarLoop

        return CegarLoop(
            model,
            self.prop.disjuncts[0],
            self.prop.input_lower,
            self.prop.input_upper,
            config=CegarConfig(
                solve_depth=0,
                solver="branch-and-bound",
                solver_options=(("node_limit", self.NODE_LIMIT),),
                structural=structural,
            ),
        )

    def cold(self, model, meter: Meter) -> Pass:
        verdicts: Counter = Counter()
        for axis, structural in (("region", False), ("structural", True)):
            loop = self._loop(model, structural)
            result, _ = meter.time(loop.run, self.budget)
            verdicts[f"{axis}:{result.status.value}"] += 1
        return Pass(verdicts=verdicts, queries=2)

    def check(self, done: Pass, reference: Any, warm: bool) -> tuple[int, list[str]]:
        # the exact64 ground truth is UNSAT (bench_structural's parity solve)
        problems = []
        if done.verdicts["region:sat"]:
            problems.append("region-only CEGAR answered SAT on an UNSAT instance")
        if not done.verdicts["structural:unsat"]:
            problems.append(f"structural CEGAR did not prove UNSAT: {dict(done.verdicts)}")
        return len(problems), problems


# -- the verification daemon -------------------------------------------------


def _interval_upper(model, lower: np.ndarray, upper: np.ndarray) -> float:
    """Interval bound on output 0 of a Dense/ReLU stack (plain numpy)."""
    lo, hi = lower.astype(float), upper.astype(float)
    for layer in model.layers:
        kind = type(layer).__name__
        if kind == "Dense":
            w, b = layer.weight.value, layer.bias.value
            mid, rad = (lo + hi) / 2.0, (hi - lo) / 2.0
            mid, rad = mid @ w + b, rad @ np.abs(w)
            lo, hi = mid - rad, mid + rad
        elif kind == "ReLU":
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        else:
            raise ValueError(f"unexpected layer {kind}")
    return float(hi[0])


class DaemonJobs(Workload):
    """Cold then warm job submissions to an in-process daemon over HTTP.

    Set-up exports ``instances`` region instances (``.onnx`` + ``.vnnlib``)
    over eight seeded 6-input MLPs (with three, one hard model moved the
    median job by a third from seed to seed): even instances put the
    waypoint threshold below a sampled output (falsifiable), odd ones
    between the sampled maximum and the interval bound (provable unless
    the network reaches past the samples).  A round starts a fresh
    service (2 job workers, empty store) behind the HTTP front end; one
    closed-loop client in a child process (``client.py``) submits each
    instance and waits for its answer, first cold, then all three more
    times warm.
    One client, not two: the run is pinned to one CPU (``run.py``), where
    a second client's job only queues for the CPU behind the first's, so
    the latencies measured the scheduler.  One warm-up
    job on a ninth model runs during set-up, so first-job lazy imports
    are set-up cost while the timed models' engines and the store stay
    cold.
    """

    name = "daemon-jobs"
    INSTANCES = 240
    MODELS = 40
    CLIENTS = 1
    #: jobs per timed slice (see ``speed.py``): about half a second of
    #: cold jobs, or of warm ones
    SLICE = {"cold": 30, "warm": 120}
    #: times a warm pass submits each instance: a store hit takes under
    #: 3 ms, and one pass's 240 of them left the warm p95 swinging with
    #: a handful of slow jobs
    WARM_REPEATS = 3

    def prepare(self) -> None:
        from repro.interchange.instances import export_instance
        from repro.perception.network import build_mlp_perception_network
        from repro.properties.library import steer_far_left

        n = 12 if self.ctx.tiny else self.INSTANCES
        rng = np.random.default_rng(self.ctx.seed)
        models = [
            build_mlp_perception_network(
                input_dim=6, hidden=(12,), feature_width=6,
                seed=int(rng.integers(1 << 30)),
            )
            for _ in range(self.MODELS + 1)
        ]
        # a fresh directory per set-up, so every repetition exports
        # every model instead of finding the previous one's files
        self.directory = self.ctx.work / f"instances-{time.perf_counter_ns()}"
        corners = np.array(
            [[(k >> d) & 1 for d in range(6)] for k in range(64)], dtype=float
        )
        self.instances: list[tuple[str, str, str]] = []
        #: instances a sampled input already falsifies: ground truth "sat"
        self.witnessed: set[str] = set()
        for i in range(n + 1):
            m = i % self.MODELS if i < n else self.MODELS
            model = models[m]
            centre = rng.uniform(0.2, 0.8, 6)
            half = rng.uniform(0.02, 0.1, 6)
            lower, upper = centre - half, centre + half
            points = np.concatenate(
                [lower + corners * (upper - lower),
                 rng.uniform(lower, upper, size=(64, 6))]
            )
            out = model.forward(points, training=False)[:, 0]
            top, bottom = float(out.max()), float(out.min())
            name = f"inst-{i:03d}" if i < n else "warmup"
            if i % 2 == 0:
                # the margin keeps the sampled witness valid through the
                # ONNX round trip even when the output is flat
                threshold = top - max(0.1 * (top - bottom), 1e-3)
                self.witnessed.add(name)
            else:
                threshold = top + 0.5 * (_interval_upper(model, lower, upper) - top)
            instance = export_instance(
                self.directory, name, model, lower, upper,
                [steer_far_left(threshold)], model_filename=f"model-{m}.onnx",
            )
            self.instances.append(
                (name, instance.model_path.name, instance.property_path.name)
            )
        warmup = self.instances.pop()
        self._rounds = 0
        self._client: subprocess.Popen | None = None
        # first-job lazy imports and HTTP plumbing land in set-up
        from repro.service.client import ServiceClient

        state = self._start()
        try:
            api = ServiceClient(state["url"])
            job = api.submit({"model": warmup[1], "property": warmup[2]})
            answer = api.wait_for(job["id"], timeout=120.0)
            if answer["state"] != "done":
                raise RuntimeError(f"warm-up job failed: {answer}")
        finally:
            self.close(state)

    def fresh(self) -> dict:
        if self._client is None:
            self._client = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("client.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            if not json.loads(self._client.stdout.readline()).get("ready"):
                raise RuntimeError("load-generator process did not start")
        return self._start()

    def _start(self) -> dict:
        """A fresh service with an empty store, serving on loopback."""
        from repro.service.httpd import start_server
        from repro.service.jobs import VerificationService
        from repro.service.store import ResultStore

        self._rounds += 1
        store = ResultStore(self.ctx.work / "stores" / f"round-{self._rounds}.jsonl")
        service = VerificationService(store, workers=2, root=self.directory)
        server, thread = start_server(service)
        return {"service": service, "server": server, "thread": thread, "url": server.url}

    def close(self, state: dict) -> None:
        state["server"].shutdown()
        state["server"].server_close()
        state["thread"].join(timeout=10.0)
        state["service"].close(drain=True, timeout=30.0)

    def shutdown(self) -> None:
        if self._client is not None:
            self._client.stdin.close()
            self._client.wait(timeout=30.0)
            self._client.stdout.close()
            self._client = None

    def _request(self, request: dict) -> dict:
        self._client.stdin.write(json.dumps(request) + "\n")
        self._client.stdin.flush()
        reply = json.loads(self._client.stdout.readline())
        if reply["failures"]:
            raise RuntimeError(f"{request['phase']} client failed: {reply['failures'][0]}")
        return reply["answers"]

    def _phase(self, state: dict, phase: str, meter: Meter) -> Pass:
        # answers by instance name; a warm pass's later repetitions go
        # under ``name#r``
        answers: dict[str, dict[str, Any]] = {}
        # slices of SLICE jobs, so the speed probes between them follow
        # the VM's speed through a multi-second cold pass
        size = self.SLICE[phase]
        for r in range(self.WARM_REPEATS if phase == "warm" else 1):
            for k in range(0, len(self.instances), size):
                request = {"url": state["url"], "phase": phase, "clients": self.CLIENTS,
                           "instances": self.instances[k : k + size]}
                reply, scale = meter.time(self._request, request)
                for name, final in reply.items():
                    final["scaled_latency"] = final["latency"] * scale
                    answers[f"{name}#{r}" if r else name] = final
        verdicts: Counter = Counter()
        deciders: Counter = Counter()
        errors = 0
        for final in answers.values():
            result = final.get("result") or {}
            status = result.get("status", final["state"])
            verdicts[status] += 1
            errors += final["state"] != "done"
            for decider in result.get("decided_by", ()):
                deciders[decider.split(":", 1)[0]] += 1
        return Pass(
            verdicts=verdicts,
            decided_by=deciders,
            queries=len(answers),
            errors=errors,
            latencies=[a["scaled_latency"] for a in answers.values()],
            answers=answers,
        )

    def cold(self, state: dict, meter: Meter) -> Pass:
        return self._phase(state, "cold", meter)

    def warm(self, state: dict, meter: Meter) -> Pass:
        return self._phase(state, "warm", meter)

    def reference(self) -> dict[str, str]:
        """Expected instance verdicts.

        ``sat`` where a sampled input is a known witness; otherwise the
        verdict of an in-process ``instance_engine`` campaign, which
        answers through the engine's campaign path (support-function
        cache) rather than the daemon's per-job queries.
        """
        from repro.interchange.instances import (
            combine_disjunct_verdicts, instance_campaign, instance_engine,
        )
        from repro.interchange.onnx import import_onnx
        from repro.interchange.vnnlib import read_vnnlib

        models: dict[str, Any] = {}
        expected = dict.fromkeys(self.witnessed, "sat")
        for name, model_file, prop_file in self.instances:
            if name in expected:
                continue
            if model_file not in models:
                models[model_file] = import_onnx(self.directory / model_file)
            prop = read_vnnlib(self.directory / prop_file)
            engine = instance_engine(models[model_file], prop)
            report = engine.run(instance_campaign(prop))
            expected[name] = combine_disjunct_verdicts(
                [
                    _STATUS.get(r.verdict.verdict.value, "unknown")
                    if r.ok and r.verdict is not None else "unknown"
                    for r in report.results
                ]
            )
        return expected

    def check(
        self, done: Pass, reference: dict[str, str], warm: bool
    ) -> tuple[int, list[str]]:
        problems = []
        for key, final in sorted(done.answers.items()):
            name = key.split("#", 1)[0]
            result = final.get("result") or {}
            status = result.get("status", final["state"])
            if status != reference[name]:
                problems.append(f"{name}: daemon says {status}, reference {reference[name]}")
            elif warm and result.get("decided_by") != ["store"]:
                problems.append(
                    f"{name}: warm answer was not a store hit ({result.get('decided_by')})"
                )
        failed = len(problems)
        repeats = self.WARM_REPEATS if warm else 1
        missing = len(self.instances) * repeats - len(done.answers)
        if missing:
            problems.append(f"{missing} jobs never answered")
        return failed + missing, problems


WORKLOADS = {w.name: w for w in (StreamSweep, GridCampaign, CegarWide, DaemonJobs)}
