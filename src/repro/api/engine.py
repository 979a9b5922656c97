"""The planning/caching verification engine.

:class:`VerificationEngine` owns the model-at-a-cut-layer state of the
paper's Figure 1 workflow, answers declarative
:class:`~repro.api.query.VerificationQuery` objects, and executes
:class:`~repro.api.campaign.Campaign` batches — sequentially or fanned
out over a process pool.

Queries run in batches (a single query is a batch of one) through one
**stage list**; each stage answers what it can and passes the rest on:

1. *prescreen* — sound bound propagation over cached output enclosures,
   escalating the abstract-domain precision ladder (interval → octagon
   → zonotope → symbolic) up to the query's ``domain``, one cached
   enclosure per ``(set, domain)`` rung, each rung one batched pass over
   the sets still pending at it and one margin matrix per risk;
2. *support-cache* — per risk row ``a·y <= b``, a cached support
   entry for ``min a·y`` over the constrained region.  The linear
   support (back-substitution over the set's interval hull, relu-like
   ops relaxed) gives a sound bound and a hull vertex; a bound past
   ``b`` is UNSAT, and a vertex in the set whose replay through the real
   network meets every row is a SAT witness.  Where bound and replay
   meet (the suffix affine on the hull) the entry is exact and, as a
   MILP optimization's is, answers **every** threshold of a
   single-inequality sweep.  The queries sharing a characterizer are
   decided together, in batch order, by one rule.
   This is the paper's output-range-analysis view of verification,
   applied as a query planner;
3. *relaxed-lp* — one LP over the cached binary-free relaxation: an
   infeasible LP is a proof, an LP point satisfying the exact neuron
   semantics is a genuine witness;
4. *solve* — the complete backend (registry-dispatched by encoding),
   with a fallback on resource exhaustion:
5. *cegar* — anytime counterexample-guided refinement of the feature
   set's input region (:class:`repro.verification.cegar.CegarLoop`):
   batched prescreen of the split frontier per round, concretization
   through the real network, budgeted and **resumable** — the loop (and
   its shared MILP encoding) is cached per ``(set, risk)``, so
   re-running an UNKNOWN query spends a fresh budget on the surviving
   frontier instead of starting over.  Falls back to the legacy
   layer-wise envelope refinement when the set has no input-region
   provenance but refinement images were provided.

All risk-independent work is cached per ``(feature set, characterizer)``:
suffix lowering happens once per engine, abstraction bounds once per
(set, network), output enclosures once per (set, domain), and MILP /
relaxed encodings once per (set, characterizer, encoding).  A campaign
of 100 risk thresholds over one set therefore encodes **once**; each
query only appends its risk rows to the cached model (and pops them
afterwards).
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.campaign import Campaign, CampaignReport, QueryResult, as_queries
from repro.api.query import Method, VerificationQuery
from repro.core.verdict import Verdict, VerificationVerdict
from repro.monitor.runtime import RuntimeMonitor
from repro.nn.sequential import Sequential
from repro.perception.characterizer import Characterizer
from repro.perception.features import extract_features
from repro.properties.risk import RiskCondition
from repro.scenario.regions import RegionGrid
from repro.scenario.streaming import run_stream
from repro.verification.abstraction.domain import get_domain, precision_ladder
from repro.verification.abstraction.propagate import propagate_regions
from repro.verification.assume_guarantee import feature_set_from_data
from repro.verification.cegar import (
    CegarConfig,
    CegarLoop,
    _ScopedLeafSolver,
)
from repro.verification.counterexample import FeatureCounterexample, decode_witness
from repro.verification.milp.bigm import op_bounds_for_set
from repro.verification.milp.encoder import (
    append_risk_rows,
    encode_verification_problem,
)
from repro.verification.milp.relaxed import encode_relaxed_problem
from repro.verification.output_range import (
    RELU_LIKE_OPS,
    linear_op_bounds,
    linear_support,
    optimize_range,
    trivial_reachability_risk,
)
from repro.verification.pool import WorkerPool
from repro.verification.prescreen import (
    output_enclosure,
    output_enclosure_batch,
    screen_enclosure,
)
from repro.verification.refinement import verify_with_refinement
from repro.verification.robustness import verify_local_robustness
from repro.verification.sets import Box, BoxBatch, FeatureSet
from repro.verification.solver import solver_spec
from repro.verification.solver.case_split import most_violated
from repro.verification.solver.lp import solve_lp_relaxation
from repro.verification.solver.result import SolveResult, SolveStatus
from repro.verification.statistical import ConfusionEstimate


@dataclass(frozen=True)
class RegisteredFeatureSet:
    """A feature set plus its provenance (decides verdict semantics)."""

    feature_set: FeatureSet
    kind: str
    sound: bool  #: True = valid for all inputs (Lemma 2); False = needs monitor
    #: input-space ``(lower, upper)`` bounds this set was propagated
    #: from, when known — what the CEGAR ladder rung splits on
    input_box: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class _Support:
    """A cached support answer: ``min a·y`` over one set, and where.

    ``features`` / ``output`` are a point of the region and its replay
    through the real network, checked once when the entry is built; a
    query takes only its own risk margin from them.  An *exact* entry's
    ``value`` is the minimum, attained at ``features``.  Otherwise
    ``value`` is a sound lower bound on it and ``replayed`` (``a·output``,
    when there is a point) an upper one.  An empty region has ``value``
    inf and no minimizer.
    """

    value: float
    #: the solver's optimal assignment (the linear support's: the features)
    witness: np.ndarray | None = None
    features: np.ndarray | None = None
    output: np.ndarray | None = None
    #: the characterizer's accepting logit at the minimizer, if encoded
    logit: float | None = None
    exact: bool = True
    #: ``a·output`` of a linear-support entry
    replayed: float | None = None


#: relative tolerance of the support stage: a linear bound and its
#: replay this close make the entry exact, and a bound proves a
#: threshold only past it
_REPLAY_RTOL = 1e-9

#: a support entry that knows nothing yet: only an optimization decides
_UNBOUNDED = _Support(float("-inf"), exact=False)


#: methods the prescreen and relaxed-LP stages answer; every other
#: method passes them by, to the support cache (exact only) and solve
_SCREENED = (Method.EXACT, Method.RELAXED)

#: the per-set caches: dicts keyed by ``(set name, ...)`` tuples, purged
#: of a set's entries when it is replaced or removed
_SET_CACHES = (
    "_bounds_cache",
    "_enclosure_cache",
    "_encoding_cache",
    #: (set, property, direction) -> _Support (the linear support's
    #: bracket, or the exact value with its minimizer and replayed
    #: output), or None when the optimization hit a limit
    "_support_cache",
    #: single-row directions seen by one-off queries (amortization gate)
    "_direction_seen",
    #: (set, risk) -> resumable CegarLoop with its shared encoding
    "_cegar_loops",
)


def _grouped(items, key) -> list[list]:
    """``items`` grouped by ``key(item)``, groups and members in first-seen
    order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return list(groups.values())


@dataclass(eq=False)
class _Item:
    """One query in flight through a batch's stage list."""

    query: VerificationQuery
    #: the set the query is decided over (None for set-free methods)
    registered: RegisteredFeatureSet | None = None
    ladder: list[str] = field(default_factory=list)
    hits: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    #: where a decided answer is written back (None: not stored)
    store_key: object = None
    result: QueryResult | None = None


@dataclass
class _Batch:
    """Queries decided together by one run of a stage list."""

    items: list[_Item]
    #: a campaign repeats (set, characterizer, direction) families, so
    #: the support-cache stage optimizes eagerly
    campaign: bool = False
    #: capture a query's exception as its error result (False: raise)
    safe: bool = True

    def pending(self) -> list[_Item]:
        return [item for item in self.items if item.result is None]


class VerificationEngine:
    """Declarative-query engine for one model at one cut layer.

    ``solver`` is the default backend (any :func:`register_solver` name);
    individual queries may override it.  ``lp_screen`` enables the
    relaxed-LP stage; ``refine_fallback`` enables the solve stage's
    CEGAR/refine fallback (the latter needs :meth:`set_refinement_data`).

    Every query runs through one stage list — prescreen, support cache,
    relaxed LP, solve — as part of a batch: :meth:`run_query` is a batch
    of one, :meth:`run` a campaign batch, and a streamed shard a batch
    with an attack stage after the prescreen.  Each prescreen rung
    bounds every set still pending at it in **one** batched abstraction
    pass (:func:`~repro.verification.prescreen.output_enclosure_batch`)
    that seeds the enclosure cache; only queries the prescreen cannot
    exclude descend to the solver stages.  Combined with
    :meth:`add_region_sets` (batched input-box propagation to the cut
    layer) this makes scenario-grid sweeps pay roughly one propagation
    instead of one per region.

    ``cegar_workers`` / ``cegar_budget`` configure the anytime CEGAR
    rung: the default subproblem budget per ``cegar`` query (overridden
    by :attr:`VerificationQuery.refine_budget`) and the frontier-parallel
    pool cap for its leaf solves.  ``cegar_structural`` turns on the
    structural (neuron-merging) refinement axis for every cegar run —
    including the exact-method fallback — while per-query
    ``structural=True`` enables it for one query.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import VerificationQuery
    >>> from repro.perception.network import (
    ...     build_mlp_perception_network, default_cut_layer)
    >>> from repro.properties.risk import RiskCondition, output_geq
    >>> model = build_mlp_perception_network(
    ...     input_dim=4, hidden=(8,), feature_width=4, seed=1)
    >>> engine = VerificationEngine(
    ...     model, default_cut_layer(model), solver="highs")
    >>> _ = engine.add_static_feature_set(0.0, 1.0, name="domain")
    >>> unreachable = RiskCondition("far", (output_geq(2, 0, 1e6),))
    >>> result = engine.run_query(
    ...     VerificationQuery(risk=unreachable, set_name="domain"))
    >>> result.verdict.verdict.value, result.decided_by
    ('safe', 'prescreen')
    """

    def __init__(
        self,
        model: Sequential,
        cut_layer: int,
        solver: str = "branch-and-bound",
        *,
        lp_screen: bool = True,
        refine_fallback: bool = False,
        cegar_workers: int = 1,
        cegar_budget: int = 64,
        cegar_structural: bool = False,
        store=None,
        **solver_options,
    ):
        from repro.analysis.contracts import ensure_registry_contracts

        # fail fast (once per process) if the transformer registry lost
        # coverage — otherwise the gap surfaces as a TypeError inside a
        # pool worker mid-propagation
        ensure_registry_contracts()
        model._check_index(cut_layer, allow_zero=True)
        if cut_layer not in model.piecewise_linear_cut_points():
            raise ValueError(
                f"layers after cut {cut_layer} are not all piecewise-linear; "
                f"valid cuts: {model.piecewise_linear_cut_points()}"
            )
        spec = solver_spec(solver)  # fail fast on unknown backends
        accepted = inspect.signature(spec.factory).parameters
        for option in solver_options:
            if option not in accepted:
                raise TypeError(
                    f"solver {spec.name!r} does not accept option {option!r}"
                )
        self.model = model
        self.cut_layer = cut_layer
        self.suffix = model.suffix_network(cut_layer)
        self.solver_name = solver
        self.solver_options = dict(solver_options)
        self.lp_screen = lp_screen
        self.refine_fallback = refine_fallback
        if cegar_workers < 1 or cegar_budget < 1:
            raise ValueError("cegar_workers and cegar_budget must be >= 1")
        self.cegar_workers = cegar_workers
        self.cegar_budget = cegar_budget
        #: engine-wide default for the structural (neuron-merging) CEGAR
        #: axis; per-query ``structural=True`` turns it on regardless
        self.cegar_structural = cegar_structural
        #: optional :class:`repro.service.store.ResultStore` consulted
        #: before computing verdict queries and fed after (None = off,
        #: the default — one-shot runs pay no digesting overhead)
        self.store = store
        self.characterizers: dict[str, Characterizer] = {}
        self.confusions: dict[str, ConfusionEstimate] = {}
        self._sets: dict[str, RegisteredFeatureSet] = {}
        self._refinement_images: np.ndarray | None = None
        self._reset_caches()

    # -- cache plumbing ----------------------------------------------------

    def _reset_caches(self) -> None:
        self._char_net_cache: dict[str | None, tuple] = {}
        for name in _SET_CACHES:
            setattr(self, name, {})
        #: ``(plan, shards)`` a streamed sweep's threshold pre-pass kept
        #: for the next ``run_stream``, which takes them off either way
        self._kept_shards: tuple | None = None
        self.cache_stats: dict[str, int] = {}

    def clear_caches(self) -> None:
        """Drop all cached lowerings/bounds/encodings (e.g. after
        re-registering a feature set with ``overwrite=True``) and any
        shards a streamed sweep's threshold pre-pass kept."""
        self._reset_caches()

    def analyze(self, domain: str | None = None):
        """Static :class:`~repro.analysis.ir_analysis.AnalysisReport`
        over this engine's model.

        Runs the IR analyzer on the full lowered program (the suffix
        view was already validated when the engine lowered it at
        construction).  Passing ``domain`` additionally requires that
        domain to cover every op, turning coverage gaps into errors —
        useful before committing a campaign to an expensive domain.
        """
        from repro.analysis.ir_analysis import analyze_model

        return analyze_model(self.model, domain=domain)

    def __getstate__(self) -> dict:
        # caches hold per-process mutable MILP models, and pool workers
        # only run what the parent's prescreen left, so every cache ships
        # empty (forked workers inherit the parent's instead)
        state = self.__dict__.copy()
        for key in ("_char_net_cache", *_SET_CACHES):
            state[key] = {}
        state["cache_stats"] = {}
        state["_kept_shards"] = None
        # the store holds a thread lock and an open-by-path log; workers
        # compute without it and the parent's copy keeps collecting
        state["store"] = None
        return state

    def _cached(self, cache: dict, key, label: str, build, hits: list[str]):
        """Uniform get-or-build with hit/miss accounting; a hit is also
        noted in the query's ``hits``."""
        if key in cache:
            self.cache_stats[f"hit:{label}"] = self.cache_stats.get(f"hit:{label}", 0) + 1
            hits.append(label)
            return cache[key]
        value = cache[key] = build()
        self.cache_stats[f"miss:{label}"] = self.cache_stats.get(f"miss:{label}", 0) + 1
        return value

    # -- characterizers ----------------------------------------------------

    def attach_characterizer(
        self, characterizer: Characterizer, confusion: ConfusionEstimate | None = None
    ) -> None:
        """Register a trained ``h^phi_l`` (must match the cut layer)."""
        if characterizer.cut_layer != self.cut_layer:
            raise ValueError(
                f"characterizer was trained at layer {characterizer.cut_layer}, "
                f"verifier cuts at {self.cut_layer}"
            )
        expected = self.model.feature_dim(self.cut_layer)
        if characterizer.network.input_shape != (expected,):
            raise ValueError(
                f"characterizer input shape {characterizer.network.input_shape} "
                f"does not match feature dimension {expected}"
            )
        prop = characterizer.property_name
        self.characterizers[prop] = characterizer
        if confusion is not None:
            self.confusions[prop] = confusion
        # purge everything derived from a previously attached characterizer
        # for this property — stale encodings would yield wrong verdicts
        self._char_net_cache.pop(prop, None)
        for key in [k for k in self._bounds_cache if k[1] == f"char:{prop}"]:
            del self._bounds_cache[key]
        for cache in (self._encoding_cache, self._support_cache):
            for key in [k for k in cache if k[1] == prop]:
                del cache[key]

    def _check_property(self, property_name: str | None) -> None:
        if property_name is not None and property_name not in self.characterizers:
            raise KeyError(
                f"no characterizer for {property_name!r}; "
                f"attached: {sorted(self.characterizers)}"
            )

    def _characterizer_parts(self, property_name: str | None, hits: list[str]):
        """Lowered characterizer network + threshold, cached per property."""
        if property_name is None:
            return None, 0.0
        self._check_property(property_name)

        def build():
            characterizer = self.characterizers[property_name]
            return characterizer.as_piecewise_linear(), characterizer.threshold

        return self._cached(
            self._char_net_cache, property_name, "characterizer-lowering", build, hits
        )

    # -- feature sets ------------------------------------------------------

    def _register_set(
        self, name: str, registered: RegisteredFeatureSet, overwrite: bool
    ) -> None:
        if name in self._sets and not overwrite:
            raise ValueError(
                f"feature set {name!r} is already registered; pass "
                f"overwrite=True to replace it (known: {sorted(self._sets)})"
            )
        if name in self._sets:
            self.remove_feature_sets([name])  # drop caches derived from it
        self._sets[name] = registered

    def add_feature_set_from_data(
        self,
        images: np.ndarray,
        kind: str = "box+diff",
        margin: float = 0.0,
        name: str = "data",
        overwrite: bool = False,
    ) -> FeatureSet:
        """Build ``S~`` from training images (assume-guarantee, Section II.B.b)."""
        features = extract_features(self.model, images, self.cut_layer)
        return self.add_feature_set_from_features(
            features, kind=kind, margin=margin, name=name, overwrite=overwrite
        )

    def add_feature_set_from_features(
        self,
        features: np.ndarray,
        kind: str = "box+diff",
        margin: float = 0.0,
        name: str = "data",
        overwrite: bool = False,
    ) -> FeatureSet:
        """Like :meth:`add_feature_set_from_data` on precomputed features."""
        feature_set = feature_set_from_data(features, kind=kind, margin=margin)
        self._register_set(
            name, RegisteredFeatureSet(feature_set, f"{kind}(data)", sound=False), overwrite
        )
        return feature_set

    def add_static_feature_set(
        self,
        input_lower: float | np.ndarray = 0.0,
        input_upper: float | np.ndarray = 1.0,
        domain: str = "interval",
        name: str = "static",
        overwrite: bool = False,
    ) -> FeatureSet:
        """Sound ``S`` by abstract interpretation from an input box (Lemma 2).

        ``domain`` is any registered abstract domain; relational domains
        (``octagon``, ``zonotope``) yield a
        :class:`~repro.verification.sets.BoxWithDiffs` whose
        adjacent-difference rows join the MILP encoding.  The input box
        is remembered as the set's input-region provenance, so ``cegar``
        queries (and the cegar fallback) can split it.
        """
        shape = self.model.input_shape
        input_box = (
            np.broadcast_to(np.asarray(input_lower, dtype=float), shape).copy(),
            np.broadcast_to(np.asarray(input_upper, dtype=float), shape).copy(),
        )
        dom = get_domain(domain)
        element = propagate_regions(
            self.model,
            BoxBatch(input_box[0][None], input_box[1][None]),
            self.cut_layer,
            domain,
        )
        feature_set = dom.feature_set(dom.extract(element, 0))
        self._register_set(
            name,
            RegisteredFeatureSet(
                feature_set, f"{domain}(static)", sound=True, input_box=input_box
            ),
            overwrite,
        )
        return feature_set

    def add_raw_set(
        self, feature_set: FeatureSet, sound: bool, name: str, overwrite: bool = False
    ) -> None:
        """Register a caller-constructed set (e.g. Lemma 1 surrogate box)."""
        if feature_set.dim != self.model.feature_dim(self.cut_layer):
            raise ValueError(
                f"set dimension {feature_set.dim} does not match cut layer "
                f"dimension {self.model.feature_dim(self.cut_layer)}"
            )
        self._register_set(
            name,
            RegisteredFeatureSet(feature_set, f"{type(feature_set).__name__}(raw)", sound),
            overwrite,
        )

    def add_region_sets(
        self,
        regions: "RegionGrid | BoxBatch",
        name_prefix: str = "region",
        overwrite: bool = False,
        domain: str = "interval",
    ) -> list[str]:
        """Register one sound feature set per scenario region (Lemma 2).

        ``regions`` is a :class:`~repro.scenario.regions.RegionGrid` (set
        names come from the grid) or a raw input-shaped
        :class:`~repro.verification.sets.BoxBatch` (sets are named
        ``{name_prefix}-{i:03d}``).  All input boxes are pushed through
        the prefix to the cut layer in **one** batched pass of the
        chosen abstract domain's transformers over the cached lowered
        prefix; relational domains register
        :class:`~repro.verification.sets.BoxWithDiffs` sets.  Returns the
        registered set names, in region order.
        """
        if isinstance(regions, RegionGrid):
            names = regions.names
            boxes = regions.box_batch()
        else:
            boxes = regions
            names = [f"{name_prefix}-{i:03d}" for i in range(boxes.n_regions)]
        if boxes.lower.shape[1:] != self.model.input_shape:
            raise ValueError(
                f"region boxes have shape {boxes.lower.shape[1:]}, "
                f"model input is {self.model.input_shape}"
            )
        if not overwrite:
            clashes = sorted(set(names) & set(self._sets))
            if clashes:
                raise ValueError(
                    f"feature sets already registered: {clashes}; pass "
                    f"overwrite=True to replace them"
                )
        dom = get_domain(domain)
        element = propagate_regions(self.model, boxes, self.cut_layer, domain)
        feature_sets = [
            dom.feature_set(enclosure) for enclosure in dom.enclosures(element)
        ]
        for index, (name, feature_set) in enumerate(zip(names, feature_sets)):
            self._register_set(
                name,
                RegisteredFeatureSet(
                    feature_set,
                    f"{domain}(region)",
                    sound=True,
                    input_box=(boxes.lower[index].copy(), boxes.upper[index].copy()),
                ),
                overwrite,
            )
        return names

    def remove_feature_sets(self, names: "list[str] | tuple[str, ...]") -> None:
        """Unregister feature sets and purge every cache entry they seeded.

        The streaming campaign executor registers each shard's regions
        for the shard's lifetime and removes them right after — without
        the purge the enclosure/encoding/support/cegar caches would grow
        O(grid) over a million-region sweep.  One pass per cache, however
        many names.  Unknown names are ignored (the set may never have
        been registered).
        """
        doomed = set(names)
        for name in doomed:
            self._sets.pop(name, None)
        for cache in (getattr(self, name) for name in _SET_CACHES):
            for key in [k for k in cache if k[0] in doomed]:
                del cache[key]

    def feature_set(self, name: str) -> FeatureSet:
        return self._registered(name).feature_set

    def feature_set_names(self) -> list[str]:
        return sorted(self._sets)

    def _registered(self, name: str) -> RegisteredFeatureSet:
        if name not in self._sets:
            raise KeyError(f"no feature set {name!r}; known: {sorted(self._sets)}")
        return self._sets[name]

    def set_refinement_data(self, images: np.ndarray) -> None:
        """Images whose per-layer envelopes drive ``refine`` queries."""
        self._refinement_images = np.asarray(images)

    # -- cached risk-independent artifacts ---------------------------------

    def _op_bounds(self, set_name: str, net_key: str, network, hits: list[str]):
        """Per-op bounds of ``network`` over a set's interval hull, cached.

        A suffix with a relu-like op gets them tightened by
        back-substitution (:func:`~repro.verification.output_range.linear_op_bounds`),
        which the linear support, the big-M constants and the relaxed LP
        all read.
        """
        feature_set = self._registered(set_name).feature_set

        def build():
            bounds = op_bounds_for_set(network, feature_set)
            if net_key == "suffix" and any(
                isinstance(op, RELU_LIKE_OPS) for op in network.ops
            ):
                return linear_op_bounds(network, bounds)
            return bounds

        return self._cached(
            self._bounds_cache, (set_name, net_key), "abstraction-bounds", build, hits
        )

    def output_enclosures(
        self, set_names: list[str], domain: str = "interval"
    ) -> list:
        """Batched output enclosures for many registered sets.

        Missing ``(set, domain)`` entries are computed in one vectorized
        abstraction pass and **seed the enclosure cache**, so callers
        deriving campaign parameters from the enclosures (e.g. risk
        thresholds over a region grid) don't pay a second propagation
        when the campaign's prescreen runs.
        """
        registered = {name: self._registered(name) for name in set_names}
        missing = [
            name
            for name in dict.fromkeys(set_names)
            if (name, domain) not in self._enclosure_cache
        ]
        if missing:
            sets = [registered[name].feature_set for name in missing]
            enclosures = output_enclosure_batch(self.suffix, sets, domain)
            for name, enclosure in zip(missing, enclosures):
                self._enclosure_cache[(name, domain)] = enclosure
            label = f"batch:prescreen-enclosure:{domain}"
            self.cache_stats[label] = self.cache_stats.get(label, 0) + len(missing)
        return [self._enclosure_cache[(name, domain)] for name in set_names]

    def _base_encoding(
        self, set_name: str, property_name: str | None, encoding: str, hits: list[str]
    ):
        """Encoded problem *without* query-specific risk rows.

        Built with a trivially satisfiable risk placeholder so the cached
        model carries only the network, set and characterizer structure;
        per-query risk rows are appended inside its ``scoped()`` block.
        """
        registered = self._registered(set_name)
        char_net, threshold = self._characterizer_parts(property_name, hits)

        def build():
            suffix_bounds = self._op_bounds(set_name, "suffix", self.suffix, hits)
            characterizer_bounds = (
                self._op_bounds(set_name, f"char:{property_name}", char_net, hits)
                if char_net is not None
                else None
            )
            encode = (
                encode_verification_problem
                if encoding == "milp"
                else encode_relaxed_problem
            )
            return encode(
                self.suffix,
                registered.feature_set,
                trivial_reachability_risk(self.suffix.out_dim),
                char_net,
                threshold,
                suffix_bounds=suffix_bounds,
                characterizer_bounds=characterizer_bounds,
            )

        return self._cached(
            self._encoding_cache,
            (set_name, property_name, encoding),
            f"encoding:{encoding}",
            build,
            hits,
        )

    def _optimized_support(
        self, query: VerificationQuery, direction: tuple[float, ...], hits: list[str]
    ) -> _Support | None:
        """Exact ``min direction·y`` by one MILP optimization, the entry
        that replaces a bracket: a :class:`_Support` (value inf, no
        minimizer, for an empty region), or ``None`` when it could not
        be proved optimal.  ``None`` is cached too (callers fall back to
        the regular solve path), so a sweep does not re-pay a hopeless
        optimization per query.

        Always runs under the engine-level solver options: the support
        stage only lets un-budgeted queries optimize, so per-query
        budgets never truncate (and thereby poison) the cached value.
        """
        base = self._base_encoding(query.set_name, query.property_name, "milp", hits)
        spec = solver_spec(self._milp_solver_name(query))
        backend = spec.factory(**self._options_for(spec, None))
        with base.scoped() as problem:
            coeffs = {
                problem.output_vars[j]: direction[j]
                for j in range(len(problem.output_vars))
                if direction[j] != 0.0
            }
            problem.model.set_objective(coeffs)
            result = backend.minimize(problem.model)
        entry = None  # resource limit: remember not to retry
        if result.status is SolveStatus.UNSAT:
            entry = _Support(float("inf"))
        elif result.status is SolveStatus.SAT and result.stats.get(
            "proved_optimal", True
        ):
            # the encoder-replay check (raises on an encoder bug) runs
            # once here, not once per query
            replay = decode_witness(
                base, result.witness, self.model, self.cut_layer, query.risk
            )
            entry = _Support(
                float(result.objective),
                result.witness,
                replay.features,
                replay.predicted_output,
                replay.characterizer_logit,
            )
        return entry

    def _linear_support(
        self, query: VerificationQuery, direction: tuple[float, ...], hits: list[str]
    ) -> _Support | None:
        """``min direction·y`` bracketed without a solver, over the set's
        interval hull (:func:`~repro.verification.output_range.linear_support`).

        Relu-like ops are relaxed over the set's cached suffix bounds,
        which a relu-free suffix never computes.  The bound is sound for
        the constrained region too.  The minimizing hull vertex is a
        point of the region only when the query has no characterizer and
        the set contains it; it then replays through the real network,
        and a bound that meets its replay within :data:`_REPLAY_RTOL` is
        exact (every neuron stable, the suffix affine on the hull).
        Returns ``None`` (only an optimization decides) for a suffix op
        it does not support, a bound that is not finite, or one past its
        own replay.
        """
        feature_set = self._registered(query.set_name).feature_set
        bounds = None
        if any(isinstance(op, RELU_LIKE_OPS) for op in self.suffix.ops):
            bounds = self._op_bounds(query.set_name, "suffix", self.suffix, hits)
        box = type(feature_set) is Box
        hull = feature_set if box else Box(*feature_set.bounds())
        support = linear_support(self.suffix, hull, np.asarray(direction), bounds)
        if support is None or not np.isfinite(support[0]):
            return None
        bound, features = support
        if query.property_name is not None or not (
            box or feature_set.contains_point(features, tol=0.0)
        ):
            return _Support(bound, exact=False)
        output = self.model.suffix_apply(features[None, :], self.cut_layer)[0]
        replayed = float(np.dot(direction, output))
        tolerance = _REPLAY_RTOL * max(1.0, abs(bound))
        # written so that a NaN replay also fails the check
        if not replayed - bound >= -tolerance:
            return None
        exact = replayed - bound <= tolerance
        return _Support(
            replayed if exact else bound,
            features,
            features,
            output,
            exact=exact,
            replayed=replayed,
        )

    # -- backends ----------------------------------------------------------

    def _options_for(self, spec, query: VerificationQuery | None) -> dict:
        """Engine options filtered to what ``spec``'s factory accepts.

        The engine default's options are validated at construction; when
        a query overrides the backend (or a range/support path falls
        back to a MILP-capable one), inapplicable options are dropped
        instead of crashing the dispatch.  Query budgets are injected on
        top when the factory understands them.
        """
        parameters = inspect.signature(spec.factory).parameters
        options = {
            key: value
            for key, value in self.solver_options.items()
            if key in parameters
        }
        if query is not None:
            if query.time_limit is not None and "time_limit" in parameters:
                options["time_limit"] = query.time_limit
            if query.node_limit is not None and "node_limit" in parameters:
                options["node_limit"] = query.node_limit
        return options

    def _milp_solver_name(self, query: VerificationQuery) -> str:
        """A MILP-encoding backend name for paths that need ``minimize``."""
        for candidate in (query.solver, self.solver_name):
            if candidate is None:
                continue
            spec = solver_spec(candidate)
            if spec.encoding == "milp" and spec.supports_minimize:
                return candidate
        return "highs"

    # -- query execution ---------------------------------------------------

    def run_query(self, query: VerificationQuery) -> QueryResult:
        """Answer one query: a batch of one (raises on invalid queries;
        see :meth:`run`).

        With a :attr:`store` attached, verdict queries first look up the
        persistent result store under the query's content digest; a hit
        returns a restored result (``decided_by="store"``) without
        touching a solver, and a computed *decided* answer is written
        back for future runs.
        """
        return self._run_queries([query], safe=False)[0]

    def run_query_safe(self, query: VerificationQuery) -> QueryResult:
        """Like :meth:`run_query` but captures exceptions in the result."""
        return self._run_queries([query])[0]

    def _run_queries(
        self,
        queries: list[VerificationQuery],
        *,
        campaign: bool = False,
        safe: bool = True,
        stages: tuple | None = None,
    ) -> list[QueryResult]:
        """Admit ``queries`` as one batch, run ``stages`` (default: the
        full stage list) over it and return the results in query order."""
        batch = self._batch(queries, campaign=campaign, safe=safe)
        self._decide(batch, self._stages() if stages is None else stages)
        return self._finish(batch)

    # -- the decision cascade ----------------------------------------------
    #
    # A stage takes the batch and its pending items, answers what it can
    # through :meth:`_answer` and returns the items it left.  Cheap stages
    # run first; survivors descend.

    def _stages(self) -> tuple:
        """The full stage list, cheapest first."""
        return (self._prescreen_stage, *self._solver_stages())

    def _solver_stages(self) -> tuple:
        """The stages after the prescreen: support cache, relaxed LP,
        complete solve."""
        return (self._support_stage, self._relaxed_lp_stage, self._solve_stage)

    def _batch(
        self, queries: list[VerificationQuery], *, campaign: bool, safe: bool = True
    ) -> _Batch:
        """One item per query, each looked up in the store and validated."""
        batch = _Batch([_Item(query) for query in queries], campaign, safe)
        self._each_group(batch, [[item] for item in batch.items], self._admit)
        return batch

    def _admit(self, group: list[_Item]) -> None:
        (item,) = group
        query = item.query
        key = self._store_key(query)
        if key is not None:
            stored = self.store.get(key)
            label = "hit:result-store" if stored is not None else "miss:result-store"
            self.cache_stats[label] = self.cache_stats.get(label, 0) + 1
            if stored is not None:
                item.ladder.append("result-store")
                item.hits.append("result-store")
                item.result = stored.to_query_result(query)
                return
            item.store_key = key
        if query.solver is not None:
            # fail fast: a stage that needs no backend (prescreen, closed
            # form) must not answer a query naming an unknown one
            solver_spec(query.solver)
        if query.method in (Method.EXACT, Method.RELAXED, Method.CEGAR):
            self._check_risk(query.risk)
            item.registered = self._registered(query.set_name)

    def _check_risk(self, risk: RiskCondition) -> None:
        if risk.dim != self.suffix.out_dim:
            raise ValueError(
                f"risk condition is over {risk.dim} outputs, network has "
                f"{self.suffix.out_dim}"
            )

    @staticmethod
    def _decide(batch: _Batch, stages: tuple) -> None:
        """Run ``stages`` in order over the batch's unanswered items."""
        pending = batch.pending()
        for stage in stages:
            if not pending:
                break
            pending = stage(batch, pending)

    @classmethod
    def _each_group(cls, batch: _Batch, groups, step) -> list[_Item]:
        """Run ``step`` once on each group (a list of items), timed, its
        time split evenly over the group; returns the items left
        unanswered.

        A per-query step takes one-item groups.  A larger group whose
        step raises reruns as one-item groups in batch order, so the
        error lands on the query that caused it; a one-item group that
        raises records the error as its item's result (or re-raises when
        the batch is not ``safe``) and does not run again.  A step must
        therefore answer items only after everything that can raise.
        """
        left = []
        for items in groups:
            began = time.perf_counter()
            try:
                step(items)
                failure = None
            except Exception as exc:  # one bad query never sinks the batch
                if len(items) == 1 and not batch.safe:
                    raise
                failure = exc
            share = (time.perf_counter() - began) / len(items)
            for item in items:
                item.elapsed += share
                if failure is None and item.result is None:
                    left.append(item)
            if failure is None:
                continue
            if len(items) > 1:
                rerun = [[item] for item in items if item.result is None]
                left.extend(cls._each_group(batch, rerun, step))
            else:
                items[0].result = QueryResult(
                    query=items[0].query,
                    error=f"{type(failure).__name__}: {failure}",
                    decided_by="error",
                )
        return left

    def _answer(
        self,
        item: _Item,
        decided_by: str,
        status: SolveStatus | None = None,
        *,
        result: SolveResult | None = None,
        witness: np.ndarray | None = None,
        stats: dict | None = None,
        counterexample=None,
        provenance: RegisteredFeatureSet | None = None,
        **payload,
    ) -> None:
        """Answer ``item``: the one place a verdict is built.

        The solver outcome is ``result``, or ``status`` with its
        ``witness`` and ``stats``.  SAT means unsafe-in-set; UNSAT means
        safe over a sound set and conditionally safe over a monitored
        one, judged by ``provenance`` (default: the item's registered
        set).  Without an outcome (robustness, range) the result carries
        only ``payload``.
        """
        if status is not None:
            result = SolveResult(status=status, witness=witness, stats=dict(stats or {}))
        verdict = None
        if result is not None:
            registered = provenance or item.registered
            if result.status is SolveStatus.SAT:
                kind = Verdict.UNSAFE_IN_SET
            elif result.status is SolveStatus.UNSAT:
                kind = Verdict.SAFE if registered.sound else Verdict.CONDITIONALLY_SAFE
            else:
                kind = Verdict.UNKNOWN
            verdict = VerificationVerdict(
                verdict=kind,
                property_name=item.query.property_name,
                risk=item.query.risk,
                feature_set_kind=registered.kind,
                monitored=not registered.sound,
                solve_result=result,
                counterexample=counterexample,
                confusion=self.confusions.get(item.query.property_name),
            )
        item.result = QueryResult(
            query=item.query, verdict=verdict, decided_by=decided_by, **payload
        )

    @staticmethod
    def _adopt(item: _Item, result: QueryResult) -> None:
        """Take a result decided elsewhere (a portfolio racer) as
        ``item``'s answer, after the stages it already ran."""
        if result.ok:
            item.ladder.extend(result.ladder)
            item.hits.extend(result.cache_hits)
            item.elapsed += result.elapsed
        item.result = result

    def _finish(self, batch: _Batch) -> list[QueryResult]:
        """Stamp each answer's provenance, write decided ones to the store."""
        for item in batch.items:
            if item.result.ok:
                item.result.elapsed = item.elapsed
                item.result.ladder = tuple(item.ladder)
                item.result.cache_hits = tuple(item.hits)
        stored = [i for i in batch.items if i.store_key is not None and i.result.ok]
        self._each_group(batch, [[item] for item in stored], self._store_put)
        return [item.result for item in batch.items]

    # prescreen --------------------------------------------------------------

    def _prescreen_stage(self, batch: _Batch, pending: list[_Item]) -> list[_Item]:
        """Sound bound propagation, one precision-ladder rung at a time.

        The rungs escalate interval → octagon → zonotope → symbolic up to
        each query's ``domain``.  A rung bounds every set still pending at
        it in one batched abstraction pass that seeds the enclosure cache
        (a lone missing set is computed alone), then screens each risk
        against the enclosures of all its queries' sets with one margin
        matrix, so a cheap rung deciding first spares the expensive ones.
        The characterizer conjunct is dropped here, so its lookup waits
        for the later stages.
        """
        open_items = [
            item
            for item in pending
            if item.query.method in _SCREENED and item.query.domain is not None
        ]
        ladders = {
            domain: precision_ladder(domain)
            for domain in {item.query.domain for item in open_items}
        }
        for item in open_items:
            item.ladder.append("prescreen")
        for rung in max(ladders.values(), key=len, default=()):
            at_rung = [
                item for item in open_items if rung in ladders[item.query.domain]
            ]
            if not at_rung:
                break  # every ladder is a prefix of the longest one
            began = time.perf_counter()
            missing = list(
                dict.fromkeys(
                    item.query.set_name
                    for item in at_rung
                    if (item.query.set_name, rung) not in self._enclosure_cache
                )
            )
            if len(missing) > 1:
                self.output_enclosures(missing, rung)
            share = (time.perf_counter() - began) / len(at_rung)
            enclosures: dict[_Item, object] = {}

            def look_up(group: list[_Item]) -> None:
                (item,) = group
                item.elapsed += share
                enclosures[item] = self._cached(
                    self._enclosure_cache,
                    (item.query.set_name, rung),
                    "prescreen-enclosure",
                    lambda: output_enclosure(
                        self.suffix, item.registered.feature_set, rung
                    ),
                    item.hits,
                )

            def screen(items: list[_Item]) -> None:
                outcomes = screen_enclosure(
                    [enclosures[item] for item in items], items[0].query.risk, rung
                )
                for item, outcome in zip(items, outcomes):
                    if outcome.excluded:
                        stats = {"prescreen": outcome.domain}
                        self._answer(item, "prescreen", SolveStatus.UNSAT, stats=stats)

            looked_up = self._each_group(batch, [[item] for item in at_rung], look_up)
            by_risk = _grouped(looked_up, lambda item: item.query.risk)
            self._each_group(batch, by_risk, screen)
            open_items = [item for item in open_items if item.result is None]
        return [item for item in pending if item.result is None]

    # support cache ----------------------------------------------------------

    def _support_stage(self, batch: _Batch, pending: list[_Item]) -> list[_Item]:
        """Answer risks from cached support entries, one per risk row.

        A risk ``A y <= b`` is unreachable when some row's ``min a·y``
        over the region exceeds its ``b``, and a point of the region
        whose replay through the real network meets every row is a
        genuine witness.  Each row's entry starts as the linear support
        (:meth:`_linear_support`), and any entry's bound proves UNSAT
        only past :data:`_REPLAY_RTOL`.  An exact entry (a linear
        support whose bound meets its replay, or a MILP optimization)
        answers every other threshold of a single-row risk ``a·y <= b``,
        so one entry answers a whole threshold sweep and each query
        only takes its own risk margin.

        Entries are keyed by (set, characterizer, row direction), and
        risks share directions: every threshold of a sweep has the same
        one, and a band's two rows are two thresholds' directions.  So
        the ``exact`` queries of one characterizer run as one group
        (:meth:`_support_group`), in batch order, and the group answers
        each query exactly as a batch of one would, run in that order on
        this engine.

        A single-row query left in an open bracket may optimize, which
        replaces the entry.  A MILP optimization costs more than one
        first-incumbent feasibility solve, so a one-off query keeps the
        feasibility path until its direction repeats; a campaign batch
        optimizes eagerly.  Budget-limited queries never *trigger* one
        (a truncated optimization would poison the cache for the whole
        sweep), but an already-cached entry answers them for free.  The
        linear support costs less than any solve and no budget truncates
        it, so every query takes it at once.
        """
        exact = [item for item in pending if item.query.method is Method.EXACT]
        self._each_group(
            batch,
            _grouped(exact, lambda item: item.query.property_name),
            lambda items: self._support_group(batch, items),
        )
        return [item for item in pending if item.result is None]

    def _support_group(self, batch: _Batch, items: list[_Item]) -> None:
        """One characterizer's queries through the support cache.

        Reads (building where missing) the entry of every (item, risk
        row) and decides every item from them
        (:meth:`_support_decisions`).  Then, for each key, the first open
        single-row item that :meth:`_optimizes` admits runs the MILP
        optimization (:meth:`_optimized_support`); it and every later
        item reading the key are decided again from the new entry, while
        earlier ones keep what the bracket gave them.  The new entries,
        first sightings and answers are written only once nothing can
        raise any more.
        """
        self._check_property(items[0].query.property_name)  # as the solver path does
        keys: dict[_Item, list[tuple]] = {}
        entries: dict[_Item, list[_Support | None]] = {}
        for item in items:
            query = item.query
            keys[item] = [
                (query.set_name, query.property_name, tuple(row))
                for row in query.risk.as_matrix()[0].tolist()
            ]
            entries[item] = [
                self._cached(
                    self._support_cache,
                    key,
                    "support",
                    lambda: self._linear_support(query, key[2], item.hits)
                    or _UNBOUNDED,
                    item.hits,
                )
                for key in keys[item]
            ]
        outcomes = self._support_decisions(items, entries)
        admitted: dict[tuple, int] = {}  # key -> position of its optimizer
        optimum: dict[tuple, _Support | None] = {}
        sighted: set = set()
        for position, item in enumerate(items):
            if item in outcomes or len(keys[item]) > 1 or keys[item][0] in admitted:
                continue
            key = keys[item][0]
            if self._optimizes(batch, item.query, key, entries[item][0], sighted):
                admitted[key] = position
                optimum[key] = self._optimized_support(item.query, key[2], item.hits)
        if admitted:
            # the optimizer and every later item reading its key see the
            # new entry; earlier items read the bracket, as one by one
            again = []
            for position, item in enumerate(items):
                fresh = False
                for row, key in enumerate(keys[item]):
                    if key in admitted and admitted[key] <= position:
                        entries[item][row] = optimum[key]
                        fresh = True
                if fresh:
                    outcomes.pop(item, None)
                    again.append(item)
            outcomes.update(self._support_decisions(again, entries))
            self._support_cache.update(optimum)
        self._direction_seen.update(dict.fromkeys(sighted, 1))
        optimizers = {items[position] for position in admitted.values()}
        for item in items:
            if item in outcomes or item in optimizers:
                item.ladder.append("support-cache")
            if item in outcomes:
                self._support_answer(item, *outcomes[item])

    @staticmethod
    def _support_decisions(
        items: list[_Item], entries: dict[_Item, list[_Support | None]]
    ) -> dict[_Item, tuple[SolveStatus, _Support, float | None]]:
        """What one entry per risk row decides, by one rule over the
        (item, risk row) table: ``item -> (status, entry, risk margin of
        its output)`` for the items it decides.

        UNSAT where a row's value exceeds its ``b_i`` by more than
        :data:`_REPLAY_RTOL` (relative).  Otherwise SAT where a
        single-row risk's exact entry with a point has value at most
        ``b``, or where a row's replayed output meets every row of its
        risk.  The first such row supplies the entry.  The margins of a
        risk's replayed outputs are one ``risk.margin`` product, each
        bitwise equal to that output's own; the bounds are compared as
        floats, so a batch of one sets up no array for them.
        """
        outcomes: dict = {}
        points = []
        for item in items:
            rows = list(zip(entries[item], item.query.risk.as_matrix()[1].tolist()))
            past = [
                entry
                for entry, rhs in rows
                if entry is not None
                and entry.value > rhs + _REPLAY_RTOL * max(1.0, abs(rhs))
            ]
            if past:
                outcomes[item] = SolveStatus.UNSAT, past[0], None
                continue
            points.extend(
                (item, entry, rhs, len(rows) == 1)
                for entry, rhs in rows
                if entry is not None and entry.output is not None
            )
        # an item's rows are one risk's, in order: its first row that
        # meets the rule decides it
        for group in _grouped(points, lambda point: point[0].query.risk):
            # a stack of one-row products: an (n, d) matrix product may
            # round a row differently from ``risk.margin(output[None])``
            outputs = np.array([point[1].output for point in group])[:, None, :]
            margins = group[0][0].query.risk.margin(outputs)[:, 0].tolist()
            for (item, entry, rhs, single), margin in zip(group, margins):
                if item not in outcomes and (
                    margin >= 0.0 or (single and entry.exact and entry.value <= rhs)
                ):
                    outcomes[item] = SolveStatus.SAT, entry, margin
        return outcomes

    def _support_answer(
        self, item: _Item, status: SolveStatus, entry: _Support, margin: float | None
    ) -> None:
        stats = {"decided": "support-cache", "support": entry.value}
        if entry.replayed is not None:
            stats["replayed"] = entry.replayed
        if status is SolveStatus.UNSAT:
            self._answer(item, "support-cache", status, stats=stats)
            return
        counterexample = FeatureCounterexample(
            features=entry.features,
            predicted_output=entry.output,
            risk_margin=margin,
            characterizer_logit=entry.logit,
        )
        self._answer(
            item,
            "support-cache",
            status,
            witness=entry.witness,
            stats=stats,
            counterexample=counterexample,
        )

    def _optimizes(
        self,
        batch: _Batch,
        query: VerificationQuery,
        key: tuple,
        entry: _Support | None,
        sighted: set,
    ) -> bool:
        """Whether an undecided single-row query runs the MILP
        optimization of ``key``: an open bracket, no budget, and a
        campaign or a repeated direction.  A one-off query's first
        sighting of its direction goes into ``sighted``."""
        if entry is None or entry.exact:
            return False
        if query.time_limit is not None or query.node_limit is not None:
            return False
        if batch.campaign or key in self._direction_seen or key in sighted:
            return True
        sighted.add(key)
        return False

    # relaxed LP -------------------------------------------------------------

    def _relaxed_lp_stage(self, batch: _Batch, pending: list[_Item]) -> list[_Item]:
        """One LP over the cached binary-free relaxation.

        An infeasible LP is a proof; an LP point that satisfies the exact
        neuron semantics and replays through the real network into the
        risk is a genuine witness.  Skipped when the backend consumes the
        relaxed encoding anyway (its root node is this LP).  A
        ``relaxed`` query ends here, UNKNOWN when the LP proved nothing.
        """

        def step(group: list[_Item]) -> None:
            (item,) = group
            query = item.query
            if query.method not in _SCREENED:
                return
            spec = solver_spec(query.solver or self.solver_name)
            if query.method is not Method.RELAXED and not (
                self.lp_screen and spec.encoding == "milp"
            ):
                return
            item.ladder.append("relaxed-lp")
            stats = {"decided": "relaxed-lp"}
            relaxed = self._base_encoding(
                query.set_name, query.property_name, "relaxed", item.hits
            )
            with relaxed.scoped() as problem:
                append_risk_rows(problem.model, problem.output_vars, query.risk)
                lp = solve_lp_relaxation(problem.model.to_arrays())
                if lp.infeasible:
                    self._answer(item, "relaxed-lp", SolveStatus.UNSAT, stats=stats)
                    return
                # an LP that proved nothing (limit, numerics) falls
                # through to the complete solver; a point that meets
                # every neuron's semantics passes phase-split's root test
                if lp.feasible and most_violated(problem.splits, lp.x) is None:
                    # per-neuron tolerance can amplify through the layers:
                    # only claim SAT if the point replays through the real
                    # network AND the replayed output truly violates the
                    # risk; otherwise let the complete solver decide
                    try:
                        counterexample = decode_witness(
                            problem, lp.x, self.model, self.cut_layer, query.risk
                        )
                    except ValueError:
                        counterexample = None
                    if counterexample is not None and counterexample.risk_occurs:
                        self._answer(
                            item,
                            "relaxed-lp",
                            SolveStatus.SAT,
                            witness=lp.x,
                            stats=stats,
                            counterexample=counterexample,
                        )
                        return
            if query.method is Method.RELAXED:
                self._answer(
                    item,
                    "relaxed-lp",
                    SolveStatus.UNKNOWN,
                    stats={"relaxed_lp": "inconclusive"},
                )

        return self._each_group(batch, [[item] for item in pending], step)

    # solve ------------------------------------------------------------------

    def _solve_stage(self, batch: _Batch, pending: list[_Item]) -> list[_Item]:
        """The last stage: the complete backend for verdict queries, each
        other method's own procedure."""
        runners = {
            Method.ROBUSTNESS: self._run_robustness,
            Method.RANGE: self._run_range,
            Method.REFINE: self._run_refine,
            Method.CEGAR: self._run_cegar,
        }

        def step(group: list[_Item]) -> None:
            (item,) = group
            runners.get(item.query.method, self._run_backend)(item)

        return self._each_group(batch, [[item] for item in pending], step)

    def _run_backend(self, item: _Item) -> None:
        """The complete backend (registry-dispatched by encoding), with
        the refinement fallback on resource exhaustion: CEGAR over the
        set's input region when it has one (anytime, resumable), else
        the layer-wise envelope refinement."""
        query = item.query
        spec = solver_spec(query.solver or self.solver_name)
        backend = spec.factory(**self._options_for(spec, query))
        item.ladder.append(f"solve:{spec.name}")
        base = self._base_encoding(
            query.set_name, query.property_name, spec.encoding, item.hits
        )
        with base.scoped() as problem:
            append_risk_rows(problem.model, problem.output_vars, query.risk)
            if spec.encoding == "relaxed":
                result = backend.solve(problem)
            else:
                result = backend.solve(problem.model)
            counterexample = None
            if result.status is SolveStatus.SAT:
                counterexample = decode_witness(
                    problem, result.witness, self.model, self.cut_layer, query.risk
                )

        if result.status is SolveStatus.UNKNOWN and self.refine_fallback:
            if item.registered.input_box is not None and query.property_name is None:
                self._run_cegar(item, fallback=True)
                return
            if self._refinement_images is not None:
                self._run_refine(item, fallback=True)
                return
        self._answer(
            item, f"solve:{spec.name}", result=result, counterexample=counterexample
        )

    # -- persistent result store -------------------------------------------

    def model_digest(self) -> str:
        """Content digest of this engine's model (lowered-IR hash)."""
        from repro.service.digest import model_digest

        return model_digest(self.model)

    def _store_key(self, query: VerificationQuery):
        """The query's persistent-store key, or None when not storable.

        Only verdict methods whose answer is a pure function of (model,
        risk, set content, characterizer) are keyed: ``refine`` depends
        on the engine's refinement images, which have no digest, so it
        always computes.  Unknown sets/characterizers fall through to
        the regular path, which raises the proper error.
        """
        if self.store is None or query.method not in (
            Method.EXACT,
            Method.RELAXED,
            Method.CEGAR,
        ):
            return None
        if query.risk is None or query.set_name not in self._sets:
            return None
        registered = self._sets[query.set_name]
        characterizer_digest = None
        if query.property_name is not None:
            characterizer = self.characterizers.get(query.property_name)
            if characterizer is None:
                return None
            from repro.service.digest import model_digest

            characterizer_digest = (
                f"{model_digest(characterizer.network)}"
                f":{characterizer.threshold!r}"
            )
        from repro.service.digest import query_digest
        from repro.service.store import StoreKey

        return StoreKey(
            model=self.model_digest(),
            query=query_digest(
                query.risk,
                registered.input_box,
                registered.feature_set,
                sound=registered.sound,
                property_name=query.property_name,
                characterizer_digest=characterizer_digest,
            ),
            domain=query.domain or "none",
            method=query.method.value,
        )

    def _store_put(self, group: list[_Item]) -> None:
        """Write a decided verdict back; undecided results never persist."""
        (item,) = group
        payload = item.result
        if payload.verdict is None or payload.verdict.verdict is Verdict.UNKNOWN:
            return
        from repro.service.store import StoredResult

        self.store.put(item.store_key, StoredResult.from_query_result(payload))

    def interrupt_cegar(self) -> None:
        """Ask every cached CEGAR loop to checkpoint at the next round.

        The interrupt is cooperative: each loop finishes its in-flight
        round (keeping the frontier complete and resumable) and returns
        early with status UNKNOWN.  Used by the service's graceful
        shutdown and job cancellation.
        """
        for loop in self._cegar_loops.values():
            loop.request_interrupt()

    # cegar ----------------------------------------------------------------

    def _run_cegar(self, item: _Item, *, fallback: bool = False) -> None:
        """Anytime CEGAR over the set's input region, resumable per (set, risk).

        The loop shares the engine's cached risk-free MILP encoding for
        the set (leaf solves tighten its bounds transactionally), and
        the loop object itself is cached so a repeated query — e.g. the
        same UNKNOWN query re-submitted with a fresh ``refine_budget``
        — resumes from the surviving frontier.  ``fallback`` marks the
        solve stage's fallback entry.
        """
        query = item.query
        registered = item.registered
        risk = query.risk
        if registered.input_box is None:
            raise ValueError(
                f"cegar needs a feature set with input-region provenance; "
                f"register {query.set_name!r} via add_region_sets or "
                f"add_static_feature_set"
            )
        if query.property_name is not None:
            raise ValueError(
                "cegar refines the phi-free reachability question; "
                "property_name must be None"
            )
        label = "cegar-fallback" if fallback else "cegar"
        item.ladder.append(label)
        solver_name = self._milp_solver_name(query)
        spec = solver_spec(solver_name)
        options = self._options_for(spec, query)
        if query.domain is not None:
            domain = query.domain
        elif fallback:
            # the exact-path query may legitimately have skipped its own
            # prescreen; the per-round batched prescreen is integral to
            # CEGAR, so refine with the default domain
            domain = "interval"
        else:
            raise ValueError(
                "cegar queries need a batched prescreen domain "
                "(any registered abstract domain), got None"
            )
        structural = bool(query.structural) or self.cegar_structural
        # resumability is per *configuration*: a re-submitted query with
        # a different backend or domain must not silently resume a loop
        # built for the old one (a different refine_budget, by contrast,
        # is exactly the resume workflow and keys identically)
        key = (
            query.set_name,
            risk,
            solver_name,
            domain,
            tuple(sorted(options.items())),
            structural,
        )
        loop = self._cegar_loops.get(key)
        if loop is not None:
            item.hits.append("cegar-loop")
        else:
            if structural:
                # the loop encodes its own (merged) suffix while the
                # structural axis has merged groups; the shared
                # original-program encoding would go unused until full
                # refinement, so don't build it up front
                leaf = None
            else:
                base = self._base_encoding(query.set_name, None, "milp", item.hits)
                leaf = _ScopedLeafSolver(base, risk, solver_name, options)
            lower, upper = registered.input_box
            loop = CegarLoop(
                self.model,
                risk,
                lower,
                upper,
                cut_layer=self.cut_layer,
                config=CegarConfig(
                    domain=domain,
                    solver=solver_name,
                    solver_options=tuple(sorted(options.items())),
                    structural=structural,
                ),
                leaf_solver=leaf,
                name=query.set_name,
            )
            self._cegar_loops[key] = loop
        budget = query.refine_budget or self.cegar_budget
        try:
            cegar = loop.run(budget=budget, workers=self.cegar_workers)
        except Exception:
            # the loop's frontier may have lost subproblems mid-round;
            # evict it so a re-submitted query starts fresh instead of
            # resuming toward an unsound SAFE
            self._cegar_loops.pop(key, None)
            raise

        stats = {
            "decided": "cegar",
            "rounds": len(cegar.trace.rounds),
            "decided_volume": cegar.decided_fraction,
            "open_frontier": cegar.trace.open_frontier,
            "parked": cegar.parked,
        }
        if structural:
            stats["structural"] = True
            stats["structural_splits"] = loop.structural_refinements
        counterexample = None
        witness = None
        if cegar.status is SolveStatus.SAT:
            image = cegar.counterexample.image
            witness = self.model.prefix_apply(image[None, ...], self.cut_layer)[0]
            counterexample = FeatureCounterexample(
                features=witness,
                predicted_output=cegar.counterexample.output,
                risk_margin=cegar.counterexample.risk_margin,
                characterizer_logit=None,
            )
        # the verdict's provenance is the input region itself: a full
        # CEGAR proof is sound for every input in the region, monitor-free
        self._answer(
            item,
            label,
            cegar.status,
            witness=witness,
            stats=stats,
            counterexample=counterexample,
            provenance=RegisteredFeatureSet(
                registered.feature_set,
                "cegar(input-region)",
                sound=True,
                input_box=registered.input_box,
            ),
            cegar=cegar,
        )

    # refine ---------------------------------------------------------------

    def _run_refine(self, item: _Item, *, fallback: bool = False) -> None:
        query = item.query
        if self._refinement_images is None:
            raise ValueError(
                "refine queries need training images; call "
                "engine.set_refinement_data(images) first"
            )
        label = "refine-fallback" if fallback else "refine"
        item.ladder.append(label)
        char_net, threshold = self._characterizer_parts(query.property_name, [])
        refinement = verify_with_refinement(
            self.model,
            self._refinement_images,
            query.risk,
            solver=self._milp_solver_name(query),
            characterizer=char_net,
            characterizer_threshold=threshold,
        )
        if refinement.proved:
            status = SolveStatus.UNSAT
        elif refinement.counterexample is not None:
            status = SolveStatus.SAT
        else:
            status = SolveStatus.UNKNOWN
        result = SolveResult(
            status=status,
            witness=(
                refinement.counterexample.features
                if status is SolveStatus.SAT
                else None
            ),
            nodes_explored=sum(step.nodes for step in refinement.steps),
            solve_time=sum(step.solve_time for step in refinement.steps),
            stats={"refinement_levels": len(refinement.steps)},
        )
        # refinement builds its own per-layer envelopes from the images,
        # so the verdict's provenance names the chained construction
        self._answer(
            item,
            label,
            result=result,
            counterexample=refinement.counterexample,
            provenance=RegisteredFeatureSet(
                feature_set=None, kind="box+diff(chained-data)", sound=False
            ),
            refinement=refinement,
        )

    # robustness -----------------------------------------------------------

    def _run_robustness(self, item: _Item) -> None:
        query = item.query
        item.ladder.append("robustness")
        robustness = verify_local_robustness(
            self.suffix,
            np.asarray(query.anchor, dtype=float),
            query.epsilon,
            query.delta,
            solver=self._milp_solver_name(query),
        )
        self._answer(item, "robustness", robustness=robustness)

    # range ----------------------------------------------------------------

    def _run_range(self, item: _Item) -> None:
        query = item.query
        if not 0 <= query.output_index < self.suffix.out_dim:
            raise ValueError(
                f"output index {query.output_index} out of range for "
                f"{self.suffix.out_dim} outputs"
            )
        item.ladder.append("range")
        spec = solver_spec(self._milp_solver_name(query))
        base = self._base_encoding(
            query.set_name, query.property_name, "milp", item.hits
        )
        backend = spec.factory(**self._options_for(spec, query))
        with base.scoped() as problem:  # restores the objective
            reach = optimize_range(problem, backend, query.output_index)
        self._answer(item, "range", output_range=reach)

    # -- campaign execution ------------------------------------------------

    def run(
        self,
        campaign: Campaign | list[VerificationQuery] | VerificationQuery,
        workers: int = 1,
    ) -> CampaignReport:
        """Execute a campaign as one batch; ``workers > 1`` fans the
        prescreen's survivors out over a process pool.

        Results are returned in query order regardless of worker
        scheduling.  The parent runs the prescreen over the whole batch,
        then ships only the surviving queries to ``workers`` processes
        (:class:`~repro.verification.pool.WorkerPool`; each holds the
        engine once).  If the pool itself fails — the platform refuses
        to start processes, a worker dies, a query does not pickle — the
        answers already returned are kept, the rest are decided
        in-process and ``report.executor`` says so; any other exception
        propagates.
        """
        if isinstance(campaign, VerificationQuery):
            campaign = Campaign("query", [campaign])
        name, queries = as_queries(campaign)
        start = time.perf_counter()
        stats_before = dict(self.cache_stats)
        executor = "sequential"
        stages = self._stages()
        batch = self._batch(queries, campaign=True)
        if workers > 1:
            self._decide(batch, stages[:1])
            stages = stages[1:]
            pending = [i for i, item in enumerate(batch.items) if item.result is None]
            if len(pending) > 1:
                with WorkerPool(workers, self) as pool:
                    answers = pool.map(_solve_item, [batch.items[i] for i in pending])
                    for index, item in zip(pending, answers):
                        batch.items[index] = item
                executor = pool.label(f"process-pool[{workers}]", "sequential")
        self._decide(batch, stages)
        results = self._finish(batch)

        total = time.perf_counter() - start
        cache_stats = {
            key: self.cache_stats.get(key, 0) - stats_before.get(key, 0)
            for key in self.cache_stats
            if self.cache_stats.get(key, 0) != stats_before.get(key, 0)
        }
        return CampaignReport(
            campaign_name=name,
            results=results,
            total_time=total,
            workers=workers,
            executor=executor,
            cache_stats=cache_stats,
        )

    def run_stream(self, plan, risks, **options):
        """Stream a scenario campaign in constant memory: the twin of
        :meth:`add_region_sets` + :meth:`run` over an eager grid, one
        shard at a time.  See :func:`repro.scenario.streaming.run_stream`
        for ``plan``, ``risks`` and the keyword options; returns a
        :class:`~repro.scenario.streaming.StreamReport`.
        """
        return run_stream(self, plan, risks, **options)

    # -- deployment --------------------------------------------------------

    def make_monitor(self, set_name: str = "data", keep_events: bool = True) -> RuntimeMonitor:
        """Runtime monitor discharging the assume-guarantee assumption."""
        registered = self._registered(set_name)
        return RuntimeMonitor(
            self.model, self.cut_layer, registered.feature_set, keep_events=keep_events
        )

    # -- one-off queries ---------------------------------------------------

    def verify(
        self,
        risk: RiskCondition,
        property_name: str | None = None,
        set_name: str = "data",
        confusion: ConfusionEstimate | None = None,
        domain: str | None = "interval",
        solver: str | None = None,
    ) -> VerificationVerdict:
        """Answer Definition 1 for ``(phi = property_name, psi = risk)``.

        With ``property_name=None`` the query drops the characterizer
        conjunct and asks whether the risk is reachable from *anywhere*
        in the feature set; ``domain=None`` skips the prescreen.  A
        single :class:`VerificationQuery` returning the bare verdict;
        build campaigns for anything beyond one-off questions.
        """
        query = VerificationQuery(
            risk=risk,
            property_name=property_name,
            set_name=set_name,
            domain=domain,
            solver=solver,
        )
        verdict = self.run_query(query).verdict
        if confusion is not None:
            verdict = replace(verdict, confusion=confusion)
        return verdict


def _solve_item(engine: VerificationEngine, item: _Item) -> _Item:
    """The solver stages for one campaign item the parent's prescreen
    left (a pool task: the worker's copy of the item comes back)."""
    engine._decide(_Batch([item], campaign=True), engine._solver_stages())
    return item
