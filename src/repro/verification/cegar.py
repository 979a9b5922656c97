"""Counterexample-guided abstraction refinement over input regions.

The engine's strategy ladder ends where bound propagation and the LP
relaxation both fail: the paper's answer is refinement, and this module
implements it in the CEGAR shape (counterexample-guided abstraction
refinement, the style of CEGARETTE-NN and the CHC-COMP iterative
strengtheners) as an **anytime, budgeted, resumable** loop:

- a priority **work-queue** of input-region subproblems, largest
  undecided volume first, so partial guarantees grow as fast as
  possible;
- per round, a **batched prescreen** of the whole pending frontier: one
  :func:`~repro.verification.abstraction.propagate.propagate_regions`
  pass over the cached lowered prefix plus one
  :func:`~repro.verification.prescreen.prescreen_batch` pass over the
  suffix decide every child the abstraction can decide, at roughly the
  cost of a single scalar prescreen — in any registered abstract
  domain (``--domain`` on the CLI);
- **counterexample concretization**: undecided subregions are attacked
  with a batched projected-gradient search
  (:func:`~repro.verification.counterexample.pgd_in_boxes`) through the
  *real* network — a hit is a genuine input-space counterexample
  (early-exit UNSAFE with witness), a miss means the abstract
  counterexample was spurious;
- spurious subregions **split** along the input dimension of maximal
  interval width (or maximal propagated zonotope generator), and the
  children go back on the queue;
- subregions that survive concretization long enough descend the exact
  **solver ladder** (LP relaxation of a shared MILP encoding, then a
  complete backend) — optionally fanned out over a process pool
  (``workers=N``) with one encoding built per worker;
- every round appends to an anytime :class:`RefinementTrace` whose
  decided-volume fraction is monotonically non-decreasing, so stopping
  at any budget yields a quantified partial guarantee instead of a dead
  end.

:class:`CegarLoop` holds the queue between :meth:`CegarLoop.run` calls:
an exhausted budget returns UNKNOWN *with* the trace, and a later call
resumes exactly where the previous one stopped.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.nn.graph import PiecewiseLinearNetwork
from repro.nn.sequential import Sequential
from repro.properties.risk import RiskCondition
from repro.verification.counterexample import InputCounterexample, pgd_in_boxes
from repro.verification.milp.encoder import (
    EncodedProblem,
    append_risk_rows,
    encode_verification_problem,
)
from repro.verification.abstraction.domain import get_domain, registered_domains
from repro.verification.abstraction.merge import (
    MergeState,
    MergeUnsupported,
    merged_attack,
    plan_refinement,
)
from repro.verification.abstraction.propagate import region_boxes
from repro.verification.ir import lowered_full
from repro.verification.output_range import trivial_reachability_risk
from repro.verification.prescreen import prescreen_batch
# not called here: perfbench/layers.py traces these two module attributes
from repro.verification.prescreen import output_enclosure, screen_enclosure  # noqa: F401
from repro.verification.pool import Payload, WorkerPool
from repro.verification.sets import Box, BoxBatch, bisect_bounds
from repro.verification.solver import solver_spec
from repro.verification.solver.result import SolveResult, SolveStatus

_SPLIT_HEURISTICS = ("width", "generator")


@dataclass(frozen=True)
class CegarConfig:
    """Tuning knobs of the refinement loop.

    Parameters
    ----------
    domain : str, optional
        Abstract domain of the per-round batched prescreen: any
        registered domain name (``"interval"``, ``"octagon"``,
        ``"zonotope"``, ``"symbolic"``).
    solver : str or None, optional
        Complete backend (any registered solver name) for leaf solves;
        ``None`` disables the solver rung — the loop then decides by
        prescreen and concretization alone.
    solve_depth : int, optional
        Subregions descend the exact solver ladder once their split
        depth reaches this value (shallow boxes are usually decided
        far more cheaply by the batched prescreen after one more
        split).
    max_depth : int, optional
        Depth at which undecided subregions are parked as OPEN instead
        of split further (keeps degenerate frontiers finite).
    concretize_steps : int, optional
        Projected-gradient steps of the batched concretization attack.
    split : str, optional
        Split-dimension heuristic: ``"width"`` picks the input
        dimension of maximal interval width, ``"generator"`` the
        dimension whose propagated zonotope generator row has maximal
        total output influence.
    round_width : int or None, optional
        Maximum subproblems popped per round (``None`` = the whole
        pending frontier, budget permitting).
    solver_options : tuple of (str, value) pairs, optional
        Options forwarded to the leaf backend's factory (e.g.
        ``(("time_limit", 1.0),)``) — applied both in-process and by
        every pool worker.
    structural : bool, optional
        Enable the second refinement axis: the loop starts from a
        merged (neuron-abstracted) suffix program and, on every
        spurious round, decides between splitting the input region and
        splitting a merged neuron group by whichever move shrinks the
        violating output bound more (see
        :mod:`repro.verification.abstraction.merge`).  Falls back to
        pure region splitting when the suffix is not an affine/relu
        chain.

    Examples
    --------
    >>> CegarConfig(domain="interval", solve_depth=3).split
    'width'
    >>> CegarConfig(structural=True).structural
    True
    """

    domain: str = "interval"
    solver: str | None = "highs"
    solve_depth: int = 2
    max_depth: int = 40
    concretize_steps: int = 8
    split: str = "width"
    round_width: int | None = None
    solver_options: tuple[tuple[str, object], ...] = ()
    structural: bool = False

    def __post_init__(self) -> None:
        if self.domain not in registered_domains():
            raise ValueError(
                f"domain must be one of {registered_domains()}, got {self.domain!r}"
            )
        if self.split not in _SPLIT_HEURISTICS:
            raise ValueError(
                f"split must be one of {_SPLIT_HEURISTICS}, got {self.split!r}"
            )
        if self.solve_depth < 0 or self.max_depth <= 0:
            raise ValueError("solve_depth must be >= 0 and max_depth > 0")
        if self.concretize_steps < 0:
            raise ValueError("concretize_steps must be >= 0")
        if self.round_width is not None and self.round_width <= 0:
            raise ValueError(f"round_width must be positive, got {self.round_width}")


@dataclass(frozen=True)
class Subproblem:
    """One input-region node of the refinement search tree.

    ``volume`` is the node's fraction of the *root* region's volume
    (halved exactly at every bisection), the unit in which the anytime
    guarantee is accounted.
    """

    lower: np.ndarray  #: input-shaped lower bounds
    upper: np.ndarray  #: input-shaped upper bounds
    depth: int
    volume: float
    path: str  #: root-relative split history, e.g. ``"/3L/0R"``


@dataclass(frozen=True)
class RefinementRound:
    """Everything one frontier round decided, for the anytime trace."""

    index: int
    popped: int  #: subproblems taken off the queue this round
    prescreen_safe: int
    solver_safe: int
    splits: int
    parked: int  #: undecided nodes at max_depth, left OPEN
    frontier_after: int  #: queue + parked after the round
    decided_volume: float  #: cumulative decided fraction of the root
    bound_gap: float  #: worst prescreen margin among this round's pops (0 if none)
    unsafe_found: bool
    elapsed: float
    structural_splits: int = 0  #: merged neuron groups split this round

    def to_dict(self) -> dict:
        """JSON-serializable view (what ``CampaignReport`` stores)."""
        return {
            "index": self.index,
            "popped": self.popped,
            "prescreen_safe": self.prescreen_safe,
            "solver_safe": self.solver_safe,
            "splits": self.splits,
            "parked": self.parked,
            "frontier_after": self.frontier_after,
            "decided_volume": self.decided_volume,
            "bound_gap": self.bound_gap,
            "unsafe_found": self.unsafe_found,
            "elapsed": self.elapsed,
            "structural_splits": self.structural_splits,
        }


@dataclass
class RefinementTrace:
    """Anytime progress record: one entry per frontier round.

    The decided-volume fraction is monotonically non-decreasing across
    rounds by construction (rounds only ever *add* decided volume), so
    any prefix of the trace is a valid partial guarantee: "at least
    this fraction of the region is decided".  Each round's
    ``bound_gap`` is the worst prescreen margin among the subproblems
    *prescreened that round* — a progress signal, not a bound on
    whatever is still queued.

    Examples
    --------
    >>> trace = RefinementTrace()
    >>> trace.decided_fraction
    0.0
    >>> trace.decided_fractions() == []
    True
    """

    rounds: list[RefinementRound] = field(default_factory=list)

    @property
    def decided_fraction(self) -> float:
        """Decided fraction of the root volume after the last round."""
        return self.rounds[-1].decided_volume if self.rounds else 0.0

    @property
    def open_frontier(self) -> int:
        """Undecided subregions (queued + parked) after the last round."""
        return self.rounds[-1].frontier_after if self.rounds else 1

    def decided_fractions(self) -> list[float]:
        """Per-round cumulative decided fractions (non-decreasing)."""
        return [r.decided_volume for r in self.rounds]

    def to_dict(self) -> dict:
        return {
            "decided_fraction": self.decided_fraction,
            "open_frontier": self.open_frontier,
            "rounds": [r.to_dict() for r in self.rounds],
        }

    def summary(self) -> str:
        lines = [
            f"{len(self.rounds)} refinement round(s), "
            f"{self.decided_fraction:.1%} of the region decided, "
            f"{self.open_frontier} open subregion(s)"
        ]
        for r in self.rounds:
            lines.append(
                f"  round {r.index}: popped {r.popped}, "
                f"prescreen-safe {r.prescreen_safe}, solver-safe {r.solver_safe}, "
                f"splits {r.splits}, decided {r.decided_volume:.1%}, "
                f"gap {r.bound_gap:.3g} ({r.elapsed:.3f}s)"
                + ("  UNSAFE witness" if r.unsafe_found else "")
            )
        return "\n".join(lines)


@dataclass
class CegarResult:
    """Outcome of one (resumable) :meth:`CegarLoop.run` call.

    ``status`` follows solver conventions: ``UNSAT`` means the whole
    region is proved safe, ``SAT`` means a concrete input-space
    counterexample was found (``counterexample`` holds it; the verdict
    is terminal — further :meth:`CegarLoop.run` calls return it
    immediately, with ``queued`` reporting what was left unexplored),
    ``UNKNOWN`` means the frontier is still open.  Distinguish the two
    UNKNOWN shapes via ``parked``: subregions still *queued* are picked
    up by another :meth:`CegarLoop.run` call, but subregions **parked**
    at ``max_depth`` are dead ends for this loop — when every open
    subregion is parked, resuming spends no budget and a caller must
    raise ``max_depth`` (or accept the partial guarantee).
    """

    status: SolveStatus
    counterexample: InputCounterexample | None
    trace: RefinementTrace
    subproblems_processed: int
    elapsed: float
    #: open subregions parked at max_depth (not resumable by run())
    parked: int = 0
    #: open subregions still queued (resumable by another run())
    queued: int = 0
    #: leaf-solve workers that actually ran (1 = in-process; lower than
    #: requested when the core count capped it or the pool failed)
    workers_used: int = 1

    @property
    def proved(self) -> bool:
        return self.status is SolveStatus.UNSAT

    @property
    def decided_fraction(self) -> float:
        return self.trace.decided_fraction

    def summary(self) -> str:
        if self.status is SolveStatus.UNSAT:
            head = "SAFE (whole region decided)"
        elif self.status is SolveStatus.SAT:
            head = "UNSAFE (concrete witness found)"
        elif self.queued == 0 and self.parked > 0:
            head = (
                f"OPEN ({self.parked} subregion(s) parked at max_depth — "
                f"raise max_depth to continue)"
            )
        else:
            head = "OPEN (budget exhausted; re-run to resume)"
        return (
            f"{head} after {self.subproblems_processed} subproblem(s) "
            f"in {self.elapsed:.3f}s\n{self.trace.summary()}"
        )


class _ScopedLeafSolver:
    """Budgeted complete solve of a cut-layer box against one risk.

    Built around **one** MILP encoding of the suffix over the *root*
    region's cut-layer box (child boxes are subsets, so the root's
    big-M bounds stay sound); each :meth:`solve` call tightens the
    input-variable bounds to the child box, appends the risk rows and
    runs the complete backend inside :meth:`EncodedProblem.scoped`,
    which rolls every mutation back so the encoding can be shared with
    other callers (the engine's per-(set, characterizer) encoding cache).
    """

    def __init__(
        self,
        problem: EncodedProblem,
        risk: RiskCondition,
        solver: str = "highs",
        solver_options: dict | None = None,
    ):
        self._problem = problem
        self._risk = risk
        spec = solver_spec(solver)
        if spec.encoding != "milp":
            raise ValueError(
                f"cegar leaf solver needs a MILP-encoding backend, "
                f"got {solver!r} ({spec.encoding})"
            )
        self._backend = spec.factory(**(solver_options or {}))

    @classmethod
    def fresh(
        cls,
        suffix: PiecewiseLinearNetwork,
        root_box: Box,
        risk: RiskCondition,
        solver: str = "highs",
        solver_options: dict | None = None,
    ) -> "_ScopedLeafSolver":
        """Encode the suffix over ``root_box`` and wrap it."""
        problem = encode_verification_problem(
            suffix, root_box, trivial_reachability_risk(suffix.out_dim)
        )
        return cls(problem, risk, solver, solver_options)

    def solve(self, cut_box: Box) -> SolveResult:
        with self._problem.scoped() as problem:
            model = problem.model
            for var, lo, hi in zip(problem.input_vars, cut_box.lower, cut_box.upper):
                model.lower[var] = max(model.lower[var], float(lo))
                model.upper[var] = min(model.upper[var], float(hi))
                if model.lower[var] > model.upper[var]:
                    # child box misses the encoded root set entirely
                    return SolveResult(status=SolveStatus.UNSAT)
            append_risk_rows(model, problem.output_vars, self._risk)
            # no separate LP pre-pass: both MILP backends already refute
            # an infeasible root relaxation at their first node
            result = self._backend.solve(model)
            if result.status is SolveStatus.SAT and result.witness is not None:
                # expose the cut-layer candidate so the loop can try to
                # concretize it (at cut_layer=0 it IS an input point)
                result.stats["features"] = problem.decode_input(result.witness)
            return result


# -- pool tasks (frontier-parallel leaf solves) -------------------------------


def _leaf_solver(spec: tuple) -> _ScopedLeafSolver:
    """A pool worker's leaf solver: ``spec`` is ``fresh``'s arguments."""
    return _ScopedLeafSolver.fresh(*spec)


def _solve_leaf(solver: _ScopedLeafSolver, task: Payload) -> SolveResult:
    """Solve one leaf whose cut-layer bounds are ``task.arrays``."""
    lower, upper = task.arrays
    # copy out of the shared segment: the parent unlinks it once the
    # round drains, and the solver may hold bounds past this call
    return solver.solve(Box(lower.copy(), upper.copy()))


class CegarLoop:
    """Anytime CEGAR refinement of one input region against one risk.

    Parameters
    ----------
    model : Sequential
        The full network (input space is where regions live and split).
    risk : RiskCondition
        The undesired output region ``psi`` to decide over the region.
    lower, upper : numpy.ndarray or float
        Root input-region bounds; scalars broadcast over
        ``model.input_shape``.
    cut_layer : int, optional
        Where the prefix/suffix factorization happens: input boxes are
        interval-propagated to this layer and the suffix is prescreened
        / solved from there.  ``0`` treats the whole network as the
        suffix.
    config : CegarConfig, optional
        Loop tuning; see :class:`CegarConfig`.
    leaf_solver : optional
        An object with ``solve(cut_box: Box) -> SolveResult``; the
        engine injects a :class:`_ScopedLeafSolver` built on its shared
        encoding cache here.  ``None`` builds a private one lazily.
    name : str, optional
        Region name used as the root subproblem's path prefix.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.perception.network import build_mlp_perception_network
    >>> from repro.properties.risk import RiskCondition, output_geq
    >>> model = build_mlp_perception_network(
    ...     input_dim=3, hidden=(4,), feature_width=3, seed=0)
    >>> unreachable = RiskCondition("far", (output_geq(2, 0, 1e6),))
    >>> loop = CegarLoop(model, unreachable, 0.0, 1.0)
    >>> result = loop.run(budget=8)
    >>> result.proved and result.decided_fraction == 1.0
    True
    """

    def __init__(
        self,
        model: Sequential,
        risk: RiskCondition,
        lower: np.ndarray | float,
        upper: np.ndarray | float,
        cut_layer: int = 0,
        config: CegarConfig | None = None,
        *,
        leaf_solver=None,
        name: str = "region",
    ):
        if risk.dim != model.feature_dim(model.num_layers):
            raise ValueError(
                f"risk is over {risk.dim} outputs, network has "
                f"{model.feature_dim(model.num_layers)}"
            )
        model._check_index(cut_layer, allow_zero=True)
        self.model = model
        self.risk = risk
        self.cut_layer = cut_layer
        self.suffix = model.suffix_network(cut_layer)
        self.config = config or CegarConfig()
        self.name = name

        shape = model.input_shape
        root_lower = np.broadcast_to(np.asarray(lower, dtype=float), shape).copy()
        root_upper = np.broadcast_to(np.asarray(upper, dtype=float), shape).copy()
        if np.any(root_lower > root_upper):
            raise ValueError("root region has lower > upper")
        self._root_lower = root_lower
        self._root_upper = root_upper
        root = Subproblem(root_lower, root_upper, depth=0, volume=1.0, path=name)

        self._queue: list[tuple[float, int, Subproblem]] = []
        self._seq = 0
        self._push(root)
        self._parked: list[Subproblem] = []
        self.decided_volume = 0.0
        self.subproblems_processed = 0
        #: the leaf-solve pool while :meth:`run` is live (None: in-process)
        self._pool: WorkerPool | None = None
        self._poisoned = False
        self._interrupted = False
        self.counterexample: InputCounterexample | None = None
        self.trace = RefinementTrace()
        self._root_cut_box: Box | None = None
        self._leaf_solver = leaf_solver
        self._full_network: PiecewiseLinearNetwork | None = None

        # structural (neuron-merging) axis; see CegarConfig.structural
        self._merge: MergeState | None = None
        self._merge_failed = False
        self._merge_version = 0
        self._merged_leaf_solver: _ScopedLeafSolver | None = None
        self._merged_leaf_version = -1
        #: merge version the pool's workers encode
        self._pool_version = 0

    # -- queue ------------------------------------------------------------

    def _push(self, sub: Subproblem) -> None:
        heapq.heappush(self._queue, (-sub.volume, self._seq, sub))
        self._seq += 1

    def _pop_round(self, budget_left: int) -> list[Subproblem]:
        width = self.config.round_width or len(self._queue)
        count = min(len(self._queue), width, budget_left)
        return [heapq.heappop(self._queue)[2] for _ in range(count)]

    @property
    def frontier_size(self) -> int:
        """Undecided subregions: still queued plus parked-at-max-depth."""
        return len(self._queue) + len(self._parked)

    def request_interrupt(self) -> None:
        """Checkpoint at the next round boundary (thread-safe, sticky).

        The running :meth:`run` call finishes its in-flight round — the
        frontier stays complete, so the loop is still resumable — and
        returns early with whatever the anytime status is.  The flag
        clears when the next :meth:`run` call starts.  A no-op on an
        idle loop beyond making the *next* run return after one round.
        """
        self._interrupted = True

    @property
    def interrupted(self) -> bool:
        return self._interrupted

    @property
    def status(self) -> SolveStatus:
        if self.counterexample is not None:
            return SolveStatus.SAT
        if self._poisoned:
            # a round died mid-flight: popped subproblems may be lost,
            # so an empty frontier must NOT read as a proof
            return SolveStatus.UNKNOWN
        if self.frontier_size == 0:
            return SolveStatus.UNSAT
        return SolveStatus.UNKNOWN

    # -- abstraction ------------------------------------------------------

    def _cut_boxes(self, subs: list[Subproblem]) -> list[Box]:
        """Cut-layer boxes of a frontier slice, in one batched pass."""
        batch = BoxBatch(
            np.stack([s.lower for s in subs]),
            np.stack([s.upper for s in subs]),
        )
        return region_boxes(self.model, batch, self.cut_layer).boxes()

    def _merge_state(self) -> MergeState | None:
        """Current abstraction state, or ``None`` when structural is off.

        Built lazily from the root cut box; an unsupported suffix (not
        an affine/relu chain) permanently disables the structural axis
        for this loop — region splitting alone still makes progress.
        """
        if not self.config.structural or self._merge_failed:
            return None
        if self._merge is None:
            root = self._root_box_at_cut()
            try:
                self._merge = MergeState.coarsest(
                    self.suffix, root.lower, root.upper
                )
            except MergeUnsupported:
                self._merge_failed = True
                return None
        return self._merge

    def _active_suffix_risk(self) -> tuple[PiecewiseLinearNetwork, RiskCondition]:
        """The (program, risk) pair the abstract rungs currently run on.

        The merged pair while the structural axis still has merged
        groups; the original pair otherwise (fully refined states
        compile to the original program object, so this is seamless).
        """
        state = self._merge_state()
        if state is None or state.is_refined:
            return self.suffix, self.risk
        return state.program(), state.merged_risk(self.risk)

    @property
    def structural_refinements(self) -> int:
        """Merged neuron groups split so far (0 when structural is off)."""
        return self._merge_version

    def _prescreen(self, cut_boxes: list[Box]) -> list:
        suffix, risk = self._active_suffix_risk()
        return prescreen_batch(suffix, cut_boxes, risk, self.config.domain)

    # -- splitting --------------------------------------------------------

    def _split_dim(self, sub: Subproblem) -> int:
        widths = (sub.upper - sub.lower).reshape(-1)
        if self.config.split == "generator":
            influence = self._generator_influence(sub)
            scores = widths * influence
            if float(scores.max()) > 0.0:
                return int(np.argmax(scores))
        return int(np.argmax(widths))

    def _generator_influence(self, sub: Subproblem) -> np.ndarray:
        """Total output influence of each input dimension's generator.

        Builds the input box's zonotope (one generator per input
        dimension), propagates it through the lowered full network, and
        scores dimension ``i`` by the absolute row sum of its surviving
        generator — the zonotope analogue of "which input dimension is
        responsible for the most output uncertainty".
        """
        if self._full_network is None:
            # abstract IR view: conv stays in kernel form, so the
            # zonotope transformers run without materializing anything
            self._full_network = lowered_full(self.model)
        zonotope_domain = get_domain("zonotope")
        element = zonotope_domain.lift(
            BoxBatch(sub.lower.reshape(1, -1), sub.upper.reshape(1, -1))
        )
        out = zonotope_domain.propagate(self._full_network, element)
        n_inputs = sub.lower.size
        # lift keeps exactly one generator per input dimension and the
        # transformers only scale/append rows, so the leading n_inputs
        # rows stay aligned with the input dimensions
        assert out.num_generators >= n_inputs
        return np.abs(out.generators[0, :n_inputs]).sum(axis=1)

    def _split(self, sub: Subproblem) -> tuple[Subproblem, Subproblem]:
        dim = self._split_dim(sub)
        left_upper, right_lower = bisect_bounds(sub.lower, sub.upper, dim)
        half = 0.5 * sub.volume
        left = Subproblem(
            sub.lower.copy(),
            left_upper,
            depth=sub.depth + 1,
            volume=half,
            path=f"{sub.path}/{dim}L",
        )
        right = Subproblem(
            right_lower,
            sub.upper.copy(),
            depth=sub.depth + 1,
            volume=half,
            path=f"{sub.path}/{dim}R",
        )
        return left, right

    # -- concretization ---------------------------------------------------

    def _concretize(
        self, undecided: list[tuple[Subproblem, Box]]
    ) -> tuple[int, InputCounterexample] | None:
        return pgd_in_boxes(
            self.model,
            self.risk,
            np.stack([s.lower for s, _ in undecided]),
            np.stack([s.upper for s, _ in undecided]),
            steps=self.config.concretize_steps,
        )

    def _terminal_requeue(
        self, undecided: list[tuple[Subproblem, Box]], skip: int | None = None
    ) -> list:
        """Requeue survivors on an UNSAFE early exit, emptying the round.

        A SAT verdict is terminal for this loop; the other survivors go
        back on the queue only so the final result's ``queued``
        truthfully reports what was left unexplored when the witness
        surfaced.
        """
        for i, (sub, _) in enumerate(undecided):
            if i != skip:
                self._push(sub)
        return []

    def _concretize_leaf_witness(
        self, sub: Subproblem, result: SolveResult
    ) -> InputCounterexample | None:
        """Try to turn a SAT leaf's cut-layer witness into a real input.

        Only possible when the loop cuts at layer 0: there the leaf
        MILP encodes the *whole* network exactly over the subregion, so
        the witness's "features" are an input point — replay it through
        the real network and accept it only if the risk truly occurs.
        At later cuts the cut-layer box over-approximates the subregion
        and a SAT witness may be spurious: the caller splits instead.
        """
        if self.cut_layer != 0 or "features" not in result.stats:
            return None
        point = np.asarray(result.stats["features"], dtype=float).reshape(
            sub.lower.shape
        )
        point = np.clip(point, sub.lower, sub.upper)
        output = self.model.forward(point[None, ...], training=False)[0]
        margin = float(self.risk.margin(output[None, :])[0])
        if margin < 0.0:
            return None
        return InputCounterexample(
            image=point, output=output, risk_margin=margin, iterations=0
        )

    # -- leaf solving -----------------------------------------------------

    def _ensure_leaf_solver(self) -> None:
        if self.config.solver is None:
            return
        if self._leaf_solver is not None:
            return
        self._leaf_solver = _ScopedLeafSolver.fresh(
            self.suffix,
            self._root_box_at_cut(),
            self.risk,
            self.config.solver,
            dict(self.config.solver_options),
        )

    def _current_leaf_solver(self) -> "_ScopedLeafSolver | None":
        """The scoped solver matching the active (possibly merged) program.

        While the structural axis has merged groups the loop keeps its
        own encoding of the *merged* suffix — smaller MILPs are the
        whole point — rebuilt whenever a structural refinement bumps
        the merge version.  Otherwise this is the injected/cached
        original-program solver.
        """
        suffix, risk = self._active_suffix_risk()
        if suffix is self.suffix:
            self._ensure_leaf_solver()
            return self._leaf_solver
        if (
            self._merged_leaf_solver is None
            or self._merged_leaf_version != self._merge_version
        ):
            self._merged_leaf_solver = _ScopedLeafSolver.fresh(
                suffix,
                self._root_box_at_cut(),
                risk,
                self.config.solver,
                dict(self.config.solver_options),
            )
            self._merged_leaf_version = self._merge_version
        return self._merged_leaf_solver

    def _root_box_at_cut(self) -> Box:
        if self._root_cut_box is None:
            self._root_cut_box = region_boxes(
                self.model,
                BoxBatch(self._root_lower[None], self._root_upper[None]),
                self.cut_layer,
            ).box(0)
        return self._root_cut_box

    def _solve_leaves(
        self, leaves: list[tuple[Subproblem, Box]]
    ) -> list[SolveResult]:
        pool = self._pool
        if pool is not None and pool.failure is None and len(leaves) > 1:
            # chunk so per-task IPC amortizes over several tiny solves,
            # sized by the worker count fixed when the pool was created;
            # a pool that dies mid-round finishes the round in-process
            # and is never submitted to again
            tasks = [Payload((box.lower, box.upper)) for _, box in leaves]
            chunk = max(1, len(leaves) // (4 * pool.workers))
            return list(pool.map(_solve_leaf, tasks, chunksize=chunk))
        results = []
        for _, box in leaves:
            solver = self._current_leaf_solver()  # per-solve re-encode if not reusing
            results.append(solver.solve(box))
        return results

    def _start_pool(self, workers: int) -> WorkerPool | None:
        """The leaf-solve pool, or None to solve in-process.

        ``workers`` is a *cap*: the loop never spawns more processes
        than the machine has cores, and with one core it solves
        in-process — on a single-core host a pool only adds fork and
        IPC overhead to every leaf (the same observation
        ``bench_campaign.py`` records for campaign pools).  Workers
        encode the ACTIVE program: the merged suffix while the
        structural axis still has merged groups.
        """
        workers = min(workers, os.cpu_count() or 1)
        if workers <= 1 or self.config.solver is None:
            return None
        suffix, risk = self._active_suffix_risk()
        self._pool_version = self._merge_version
        spec = (
            suffix,
            self._root_box_at_cut(),
            risk,
            self.config.solver,
            dict(self.config.solver_options),
        )
        return WorkerPool(workers, spec, initializer=_leaf_solver)

    # -- structural refinement (second CEGAR axis) ------------------------

    def _maybe_structural_refine(
        self, undecided: list[tuple[Subproblem, Box]]
    ) -> int:
        """Split a merged neuron group instead of a region, if it wins.

        The representative spurious subproblem (largest volume popped
        this round) arbitrates: candidate neuron splits are ordered by
        the deviation/influence/saturation heuristic against a
        deterministic merged-PGD witness, the best few are scored by
        the prescreen margin they leave on the representative's cut
        box, and the winner is compared against the analogous score of
        a region bisection.  Returns 1 when the structural move was
        applied (the merge state advanced), 0 otherwise.
        """
        state = self._merge_state()
        if state is None or state.is_refined:
            return 0
        sub, box = undecided[0]
        domain = self.config.domain

        def margin_after(candidate: MergeState) -> float:
            screen = prescreen_batch(
                candidate.program(),
                [box],
                candidate.merged_risk(self.risk),
                domain,
            )[0]
            return float(screen.best_possible_margin)

        witness = merged_attack(
            state,
            self.risk,
            box.lower,
            box.upper,
            steps=max(self.config.concretize_steps, 4),
        )
        step = plan_refinement(state, witness, evaluate=margin_after)
        if step is None:
            return 0
        refined = step.apply(state)
        structural_margin = margin_after(refined)

        widths = (sub.upper - sub.lower).reshape(-1)
        if float(widths.max(initial=0.0)) > 0.0 and sub.depth < self.config.max_depth:
            left, right = self._split(sub)
            suffix, risk = self._active_suffix_risk()
            child_screens = prescreen_batch(
                suffix, self._cut_boxes([left, right]), risk, domain
            )
            region_margin = max(
                float(s.best_possible_margin) for s in child_screens
            )
        else:
            # a point (or max-depth) region cannot split: the
            # structural axis is the only move left
            region_margin = np.inf

        if structural_margin < region_margin:
            self._merge = refined
            self._merge_version += 1
            return 1
        return 0

    # -- the loop ---------------------------------------------------------

    def run(self, budget: int = 64, workers: int = 1) -> CegarResult:
        """Process up to ``budget`` subproblems; resumable.

        Parameters
        ----------
        budget : int, optional
            Maximum subproblems taken off the queue in this call; the
            loop's lifetime total is unbounded — call again to spend a
            fresh budget on the surviving frontier.
        workers : int, optional
            Process-pool width cap for the leaf-solve rung, further
            limited to the machine's core count (see
            :meth:`_start_pool`); ``1`` solves in-process, sharing the
            injected/cached encoding.  One pool serves every round of
            this call and is rebuilt after a structural move; if it
            fails, the round finishes in-process and so does the rest
            of the call (``workers_used`` reads 1).

        Returns
        -------
        CegarResult
            Status, witness (on SAT), and the cumulative anytime trace.
        """
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        if self._poisoned:
            raise RuntimeError(
                "this CegarLoop raised mid-round and its frontier is "
                "incomplete; build a fresh loop instead of resuming"
            )
        start = time.perf_counter()
        self._interrupted = False
        processed_before = self.subproblems_processed
        self._pool = self._start_pool(workers)
        try:
            return self._run_rounds(budget, processed_before, start, workers)
        except Exception:
            # popped-but-undecided subproblems are lost with the round;
            # refusing further runs keeps an eventual empty frontier
            # from masquerading as a SAFE proof
            self._poisoned = True
            raise
        finally:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.close()

    def _run_rounds(
        self,
        budget: int,
        processed_before: int,
        start: float,
        workers: int,
    ) -> CegarResult:
        config = self.config

        while (
            self._queue
            and self.counterexample is None
            and not self._interrupted
            and self.subproblems_processed - processed_before < budget
        ):
            round_start = time.perf_counter()
            pool = self._pool
            if (
                pool is not None
                and pool.failure is None
                and self._pool_version != self._merge_version
            ):
                # the workers encode a stale merge state; a failed pool
                # stays in-process — refinement never revives it
                pool.close()
                self._pool = self._start_pool(workers)
            budget_left = budget - (self.subproblems_processed - processed_before)
            subs = self._pop_round(budget_left)
            self.subproblems_processed += len(subs)

            cut_boxes = self._cut_boxes(subs)
            screens = self._prescreen(cut_boxes)

            prescreen_safe = 0
            undecided: list[tuple[Subproblem, Box]] = []
            bound_gap = 0.0
            for sub, box, screen in zip(subs, cut_boxes, screens):
                if screen.excluded:
                    prescreen_safe += 1
                    self.decided_volume += sub.volume
                else:
                    bound_gap = max(bound_gap, screen.best_possible_margin)
                    undecided.append((sub, box))

            # point regions are decided exactly by evaluation below;
            # concretization attacks every undecided subregion at once
            # (scalar mode searches per subregion, the legacy behavior)
            unsafe_found = False
            if undecided:
                hit = self._concretize(undecided)
                if hit is not None:
                    index, witness = hit
                    self.counterexample = witness
                    unsafe_found = True
                    undecided = self._terminal_requeue(undecided, skip=index)

            solver_safe = 0
            if undecided and config.solver is not None:
                leaves = [
                    (sub, box)
                    for sub, box in undecided
                    if sub.depth >= config.solve_depth
                ]
                if leaves:
                    results = self._solve_leaves(leaves)
                    solved = set()
                    for (sub, _), result in zip(leaves, results):
                        if result.status is SolveStatus.UNSAT:
                            solver_safe += 1
                            self.decided_volume += sub.volume
                            solved.add(id(sub))
                        elif (
                            result.status is SolveStatus.SAT
                            and self.counterexample is None
                        ):
                            witness = self._concretize_leaf_witness(sub, result)
                            if witness is not None:
                                self.counterexample = witness
                                unsafe_found = True
                                solved.add(id(sub))
                    undecided = [
                        pair for pair in undecided if id(pair[0]) not in solved
                    ]
                    if unsafe_found:
                        undecided = self._terminal_requeue(undecided)

            # two-axis move decision: every surviving subproblem is a
            # spurious abstract counterexample — either the input region
            # splits (below) or a merged neuron group does (here),
            # whichever shrinks the violating output bound more
            structural_splits = 0
            if undecided and not unsafe_found:
                structural_splits = self._maybe_structural_refine(undecided)
                if structural_splits:
                    # the tightened abstraction re-screens the same
                    # regions next round; no region split happened
                    for sub, _ in undecided:
                        self._push(sub)
                    undecided = []

            splits = 0
            parked = 0
            for sub, _ in undecided:
                widths = (sub.upper - sub.lower).reshape(-1)
                if float(widths.max(initial=0.0)) <= 0.0:
                    # a point region that survived concretization is
                    # safe: its single input was evaluated exactly
                    self.decided_volume += sub.volume
                    continue
                if sub.depth >= config.max_depth:
                    self._parked.append(sub)
                    parked += 1
                    continue
                left, right = self._split(sub)
                self._push(left)
                self._push(right)
                splits += 1

            self.trace.rounds.append(
                RefinementRound(
                    index=len(self.trace.rounds),
                    popped=len(subs),
                    prescreen_safe=prescreen_safe,
                    solver_safe=solver_safe,
                    splits=splits,
                    parked=parked,
                    frontier_after=self.frontier_size,
                    decided_volume=self.decided_volume,
                    bound_gap=bound_gap,
                    unsafe_found=unsafe_found,
                    elapsed=time.perf_counter() - round_start,
                    structural_splits=structural_splits,
                )
            )

        return CegarResult(
            status=self.status,
            counterexample=self.counterexample,
            # snapshot: a later resume must not retroactively mutate
            # results (and reports) returned by earlier run() calls
            trace=RefinementTrace(rounds=list(self.trace.rounds)),
            subproblems_processed=self.subproblems_processed,
            elapsed=time.perf_counter() - start,
            parked=len(self._parked),
            queued=len(self._queue),
            workers_used=(
                self._pool.workers
                if self._pool is not None and self._pool.failure is None
                else 1
            ),
        )


def refine_region(
    model: Sequential,
    risk: RiskCondition,
    lower: np.ndarray | float,
    upper: np.ndarray | float,
    cut_layer: int = 0,
    budget: int = 64,
    workers: int = 1,
    config: CegarConfig | None = None,
) -> CegarResult:
    """One-call CEGAR refinement of an input region (see :class:`CegarLoop`).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.perception.network import build_mlp_perception_network
    >>> from repro.properties.risk import RiskCondition, output_geq
    >>> model = build_mlp_perception_network(
    ...     input_dim=3, hidden=(4,), feature_width=3, seed=0)
    >>> risk = RiskCondition("far", (output_geq(2, 0, 1e6),))
    >>> refine_region(model, risk, 0.0, 1.0, budget=8).proved
    True
    """
    loop = CegarLoop(model, risk, lower, upper, cut_layer, config)
    return loop.run(budget=budget, workers=workers)
