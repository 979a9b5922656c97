"""Portfolio racing: competing (domain, method, solver) configurations.

Competition solvers dominate any single configuration by running a
*portfolio*: several differently-tuned solvers race on each instance and
the first sound answer wins.  :class:`Portfolio` applies that discipline
to verification queries:

- a :class:`RacerConfig` rewrites a query's (domain, method, solver,
  budget) knobs — e.g. an interval-only prescreener, a straight-to-MILP
  config, an anytime CEGAR refiner;
- :meth:`Portfolio.run_query` races the applicable configs and returns
  the first *sound decided* answer (SAFE / UNSAFE_IN_SET /
  CONDITIONALLY_SAFE — UNKNOWN and errors keep racing);
- with ``workers > 1`` the racers run concurrently on a process pool
  and the losers are **cancelled** through the engine's cooperative
  :meth:`~repro.api.engine.VerificationEngine.interrupt_cegar`
  checkpointing (each worker polls a shared cancel event and interrupts
  its CEGAR loops at the next round boundary, leaving their frontiers
  resumable); with one worker the race degenerates to
  *adaptive-sequential*: try the likely winner first, stop at the first
  decided answer;
- per-config win/loss statistics (:class:`RacerStats`) feed an adaptive
  priority order, so later queries launch likely winners first;
- ``debug_parity=True`` runs **every** racer to completion and asserts
  that all decided answers agree (the bench tracks prove parity in CI;
  this catches a racer gone unsound during development).

Soundness: every racer answers through the engine's own strategy
ladder over the same registered feature set, and every decided verdict
the engine produces over a sound set is sound — racing only changes
*which* sound procedure answers first, never what an answer means.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import as_completed
from dataclasses import dataclass, replace
from typing import Any, Iterable, Iterator, Sequence

from repro.api.campaign import Campaign, CampaignReport, QueryResult, as_queries
from repro.api.query import Method, VerificationQuery
from repro.core.verdict import Verdict
from repro.verification.pool import POOL_FAILURES, WorkerPool, shared_event, unavailable

#: how often a racing worker re-checks the shared cancel event (and
#: re-interrupts CEGAR loops created after the first check), seconds
_CANCEL_POLL = 0.05


@dataclass(frozen=True)
class RacerConfig:
    """One portfolio entry: how to rewrite a query before racing it.

    ``domain=None`` disables the prescreen entirely (straight to the
    support-cache / LP / complete solver — the UNSAFE specialist).

    Examples
    --------
    >>> from repro.properties.risk import RiskCondition, output_geq
    >>> q = VerificationQuery(risk=RiskCondition("r", (output_geq(2, 0, 1.0),)))
    >>> RacerConfig("sym", domain="symbolic").apply(q).domain
    'symbolic'
    >>> RacerConfig("milp", domain=None).apply(q).domain is None
    True
    >>> RacerConfig("cegar", method="cegar", refine_budget=8).apply(q).method
    <Method.CEGAR: 'cegar'>
    >>> RacerConfig(
    ...     "merge", method="cegar", structural=True).apply(q).structural
    True
    """

    name: str
    domain: str | None = "interval"
    method: str = "exact"
    solver: str | None = None
    refine_budget: int | None = None
    #: cegar-only: race with the structural (neuron-merging) axis on
    structural: bool = False

    def __post_init__(self) -> None:
        if Method(self.method) not in (Method.EXACT, Method.RELAXED, Method.CEGAR):
            raise ValueError(
                f"portfolio racers answer verdict methods, got {self.method!r}"
            )
        if self.structural and Method(self.method) is not Method.CEGAR:
            raise ValueError(
                f"structural racers must use the cegar method, got "
                f"{self.method!r}"
            )

    def apply(self, query: VerificationQuery) -> VerificationQuery:
        """The query as this racer runs it (soundness-preserving rewrite)."""
        return replace(
            query,
            method=Method(self.method),
            domain=self.domain,
            solver=self.solver if self.solver is not None else query.solver,
            refine_budget=(
                self.refine_budget
                if self.refine_budget is not None
                else query.refine_budget
            ),
            # structural is a cegar-only flag: non-cegar racers must
            # drop it or the rewritten query would not validate
            structural=(
                (self.structural or query.structural)
                if Method(self.method) is Method.CEGAR
                else False
            ),
        )


@dataclass
class RacerStats:
    """Adaptive win/loss record of one racer.

    Examples
    --------
    >>> stats = RacerStats(wins=3, losses=1)
    >>> stats.races, round(stats.score, 3)
    (4, 0.667)
    >>> RacerStats().score  # Laplace prior: untried racers stay viable
    0.5
    """

    wins: int = 0
    losses: int = 0
    undecided: int = 0
    errors: int = 0
    time: float = 0.0
    cancelled: int = 0

    @property
    def races(self) -> int:
        return self.wins + self.losses + self.undecided + self.errors

    @property
    def score(self) -> float:
        """Laplace-smoothed win rate — the adaptive priority key."""
        return (self.wins + 1.0) / (self.races + 2.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "wins": self.wins,
            "losses": self.losses,
            "undecided": self.undecided,
            "errors": self.errors,
            "cancelled": self.cancelled,
            "time": round(self.time, 4),
            "score": round(self.score, 4),
        }


#: the stock portfolio: a cheap sound prescreener, the full-precision
#: ladder, an UNSAFE-specialist that skips prescreening entirely, an
#: anytime CEGAR refiner, and a structural (neuron-merging) CEGAR
#: refiner for width-bound instances
DEFAULT_RACERS: tuple[RacerConfig, ...] = (
    RacerConfig("interval-exact", domain="interval"),
    RacerConfig("symbolic-exact", domain="symbolic"),
    RacerConfig("direct-milp", domain=None),
    RacerConfig("cegar-refine", domain="interval", method="cegar", refine_budget=16),
    RacerConfig(
        "structural-cegar",
        domain="interval",
        method="cegar",
        refine_budget=16,
        structural=True,
    ),
)


def _decided(result: QueryResult) -> bool:
    """A racer's answer counts iff it is error-free and not UNKNOWN."""
    return (
        result.ok
        and result.verdict is not None
        and result.verdict.verdict is not Verdict.UNKNOWN
    )


def _verdict_side(result: QueryResult) -> bool:
    """Parity class: SAFE/CONDITIONALLY_SAFE vs UNSAFE_IN_SET."""
    assert result.verdict is not None
    return result.verdict.verdict is Verdict.UNSAFE_IN_SET


#: one racer's ``(config, result, elapsed, cancelled)`` in a race
_Outcome = tuple[RacerConfig, QueryResult, float, bool]


def _run_config(engine, config: RacerConfig, query: VerificationQuery) -> QueryResult:
    """Run one racer on one engine."""
    return engine.run_query_safe(config.apply(query))


class Portfolio:
    """Race racer configs per query; learn which ones win.

    Construct once per engine and reuse across campaigns — the win/loss
    statistics (and the adaptive priority order they induce) accumulate
    over every query the portfolio answers.
    """

    def __init__(
        self,
        engine,
        racers: Sequence[RacerConfig] = DEFAULT_RACERS,
        *,
        debug_parity: bool = False,
    ):
        names = [config.name for config in racers]
        if len(set(names)) != len(names):
            raise ValueError(f"racer names must be unique, got {names}")
        if not racers:
            raise ValueError("a portfolio needs at least one racer")
        self.engine = engine
        self.racers = tuple(racers)
        self.debug_parity = debug_parity
        self.stats: dict[str, RacerStats] = {
            config.name: RacerStats() for config in racers
        }
        #: one raw record per race: winner, per-racer outcome, elapsed
        self.race_log: list[dict[str, Any]] = []

    # -- planning ----------------------------------------------------------

    def priority(self) -> list[RacerConfig]:
        """Racers ordered by adaptive score (ties keep registry order)."""
        order = {config.name: i for i, config in enumerate(self.racers)}
        return sorted(
            self.racers,
            key=lambda c: (-self.stats[c.name].score, order[c.name]),
        )

    def _applicable(self, config: RacerConfig, query: VerificationQuery) -> bool:
        """Whether this racer can answer this query at all.

        CEGAR refines the registered set's *input region* and cannot
        carry a characterizer conjunct, so it only races property-free
        queries over sets with input-box provenance.
        """
        if Method(config.method) is not Method.CEGAR:
            return True
        if query.property_name is not None:
            return False
        registered = self.engine._sets.get(query.set_name)
        return registered is not None and registered.input_box is not None

    def _order_for(self, query: VerificationQuery) -> list[RacerConfig]:
        order = [c for c in self.priority() if self._applicable(c, query)]
        return order or self.priority()

    # -- racing ------------------------------------------------------------

    def run_query(
        self,
        query: VerificationQuery,
        *,
        cancel: "threading.Event | None" = None,
    ) -> QueryResult:
        """Adaptive-sequential race: likely winner first, stop on decided.

        ``cancel`` (optional) aborts between racers — the hook service
        jobs use to keep portfolio jobs cancellable.
        """
        if query.method not in (Method.EXACT, Method.RELAXED, Method.CEGAR):
            raise ValueError(
                f"portfolios race verdict queries, got method {query.method.value!r}"
            )
        return self._race(query, self._sequential(query, cancel))

    def _sequential(
        self, query: VerificationQuery, cancel: "threading.Event | None"
    ) -> Iterator[_Outcome]:
        """Run the racers one by one, likely winner first; stop after the
        first decided answer unless ``debug_parity`` asks for all."""
        for config in self._order_for(query):
            if cancel is not None and cancel.is_set():
                return
            start = time.perf_counter()
            result = _run_config(self.engine, config, query)
            yield config, result, time.perf_counter() - start, False
            if _decided(result) and not self.debug_parity:
                return

    def _race(
        self, query: VerificationQuery, outcomes: Iterable[_Outcome]
    ) -> QueryResult:
        """Fold one race's ``(config, result, elapsed, cancelled)``
        outcomes: the first decided answer wins, the first answer is the
        fallback, and the race lands in the statistics and ``race_log``."""
        record: dict[str, Any] = {"query": query.name, "racers": {}, "winner": None}
        winner_result: QueryResult | None = None
        fallback: QueryResult | None = None
        for config, result, elapsed, cancelled in outcomes:
            self._record(record, config, result, elapsed, cancelled)
            decided = _decided(result)
            if decided and winner_result is None:
                record["winner"] = config.name
                winner_result = result
            elif decided and self.debug_parity and winner_result is not None:
                assert _verdict_side(result) == _verdict_side(winner_result), (
                    f"portfolio parity violation on {query.name}: "
                    f"{config.name} disagrees with {record['winner']}"
                )
            if fallback is None:
                fallback = result
        self._settle(record)
        self.race_log.append(record)
        if winner_result is not None:
            winner_result.decided_by = (
                f"portfolio:{record['winner']}:{winner_result.decided_by}"
            )
            return winner_result
        if fallback is None:  # cancelled before any racer started
            fallback = QueryResult(
                query=query, error="portfolio race cancelled", decided_by="error"
            )
        return fallback

    def _record(
        self,
        record: dict[str, Any],
        config: RacerConfig,
        result: QueryResult,
        elapsed: float,
        cancelled: bool,
    ) -> None:
        entry: dict[str, Any] = {
            "decided": _decided(result),
            "verdict": (
                result.verdict.verdict.value
                if result.ok and result.verdict is not None
                else None
            ),
            "decided_by": result.decided_by,
            "elapsed": round(elapsed, 4),
            "error": result.error,
            "cancelled": cancelled,
        }
        if result.cegar is not None:
            entry["cegar_subproblems"] = result.cegar.subproblems_processed
        record["racers"][config.name] = entry
        stats = self.stats[config.name]
        stats.time += elapsed

    def _settle(self, record: dict[str, Any]) -> None:
        """Fold one race's outcomes into the adaptive statistics."""
        winner = record["winner"]
        for name, entry in record["racers"].items():
            stats = self.stats[name]
            if name == winner:
                stats.wins += 1
            elif entry["error"] is not None:
                stats.errors += 1
            elif entry["decided"]:
                # decided, but another racer got there first
                stats.losses += 1
            else:
                stats.undecided += 1
            if entry["cancelled"]:
                stats.cancelled += 1

    # -- parallel racing ---------------------------------------------------

    def run(
        self,
        campaign: "Campaign | list[VerificationQuery] | VerificationQuery",
        workers: int = 1,
    ) -> CampaignReport:
        """Race every query of a campaign; returns an eager-style report.

        ``workers > 1`` races the configs of each query concurrently on
        a :class:`~repro.verification.pool.WorkerPool` of
        ``min(workers, len(racers))`` processes (losers cancelled
        cooperatively); otherwise each query runs the adaptive-sequential
        race.  If the pool fails, the races already finished stand and
        the remaining queries run adaptively (``report.executor`` says
        so); any other exception propagates.  Query results land in
        campaign order either way.
        """
        if isinstance(campaign, VerificationQuery):
            campaign = Campaign("query", [campaign])
        name, queries = as_queries(campaign)
        start = time.perf_counter()
        executor = "portfolio-adaptive"
        results: list[QueryResult] = []

        if workers > 1 and len(self.racers) > 1:
            try:
                cancel_event = shared_event()
                with WorkerPool(
                    min(workers, len(self.racers)), (self.engine, cancel_event)
                ) as pool:
                    for query in queries:
                        results.append(self._race_parallel(pool, cancel_event, query))
                executor = f"portfolio-race[{workers}]"
            except POOL_FAILURES as exc:
                executor = unavailable("portfolio-adaptive", exc)
        results += [self.run_query(query) for query in queries[len(results):]]

        stats: dict[str, Any] = {"portfolio:races": len(self.race_log)}
        for racer_name, racer_stats in self.stats.items():
            if racer_stats.races:
                stats[f"portfolio:{racer_name}"] = racer_stats.to_dict()
        return CampaignReport(
            campaign_name=name,
            results=results,
            total_time=time.perf_counter() - start,
            workers=workers,
            executor=executor,
            cache_stats=stats,
        )

    def _race_parallel(
        self, pool: WorkerPool, cancel_event, query: VerificationQuery
    ) -> QueryResult:
        """One query's race: first sound decided answer wins, losers are
        interrupted at their next CEGAR round boundary."""
        return self._race(query, self._in_pool(pool, cancel_event, query))

    def _in_pool(
        self, pool: WorkerPool, cancel_event, query: VerificationQuery
    ) -> Iterator[_Outcome]:
        """Start every racer on the pool; yield each outcome as it lands.

        The first decided answer sets ``cancel_event``; a loser counts
        as cancelled when it saw the event and stayed undecided.
        """
        cancel_event.clear()
        futures = {
            pool.submit(_racer_run, (config, query)): config
            for config in self._order_for(query)
        }
        try:
            for future in as_completed(futures):
                result, elapsed, saw_cancel = future.result()
                decided = _decided(result)
                if decided:
                    cancel_event.set()
                yield futures[future], result, elapsed, saw_cancel and not decided
        finally:
            cancel_event.clear()


# -- pool task (module-level: pool callables must pickle) -----------------


def _racer_run(state, task: tuple[RacerConfig, VerificationQuery]):
    """Run one racer in a pool worker under cooperative cancellation.

    ``state`` is the worker's ``(engine, shared cancel event)``.  A
    watcher thread polls the event and — while it is set — keeps
    interrupting the worker engine's CEGAR loops, so loops created
    *after* the event was raised are still caught.  Returns
    ``(result, elapsed, saw_cancel)``.
    """
    engine, event = state
    config, query = task
    stop = threading.Event()
    saw_cancel = False

    def watch() -> None:
        nonlocal saw_cancel
        while not stop.is_set():
            if event.is_set():
                saw_cancel = True
                engine.interrupt_cegar()
            stop.wait(_CANCEL_POLL)

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    start = time.perf_counter()
    try:
        result = _run_config(engine, config, query)
    finally:
        stop.set()
        watcher.join()
    return result, time.perf_counter() - start, saw_cancel
