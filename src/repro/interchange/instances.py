"""On-disk benchmark instances: ``model.onnx`` + ``property.vnnlib`` pairs.

A **benchmark instance directory** follows the VNN-COMP convention: an
``instances.csv`` whose rows are

    ``<model>.onnx, <property>.vnnlib, <timeout seconds>[, <expected>]``

with the optional fourth column recording the ground-truth verdict
(``sat`` / ``unsat``) when known — the scorer uses it to flag unsound
answers, CHC-COMP style.  :func:`load_instances` reads such a
directory; :func:`export_instance` is the inverse, turning an in-repo
``(model, input box, risks)`` workload into files, which is how the
bundled suites in :mod:`repro.bench.suites` are generated.

:func:`instance_campaign` compiles a parsed property into one
:class:`~repro.api.VerificationQuery` per output disjunct; the
instance-level verdict is ``sat`` iff **any** disjunct is reachable and
``unsat`` iff **all** are proved unreachable.  :func:`answer_instance`
is the one per-instance budget loop over those disjuncts: the bench
runner's cells and the daemon's jobs both answer through it.
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.api import Campaign, QueryResult, VerificationEngine, VerificationQuery
from repro.core.verdict import Verdict
from repro.interchange.onnx import export_onnx, import_onnx
from repro.interchange.vnnlib import VnnLibProperty, read_vnnlib, write_vnnlib
from repro.nn.sequential import Sequential
from repro.properties.risk import RiskCondition

INDEX_NAME = "instances.csv"

#: instance-level verdict values
SAT, UNSAT, UNKNOWN = "sat", "unsat", "unknown"
#: instance outcomes that are not verdicts, in precedence order
CANCELLED, ERROR, TIMEOUT = "cancelled", "error", "timeout"

#: engine verdict -> per-disjunct status
VERDICT_STATUS = {
    Verdict.UNSAFE_IN_SET: SAT,
    Verdict.SAFE: UNSAT,
    Verdict.CONDITIONALLY_SAFE: UNSAT,
    Verdict.UNKNOWN: UNKNOWN,
}


@dataclass(frozen=True)
class BenchmarkInstance:
    """One row of an ``instances.csv``: a model/property pair + budget."""

    name: str
    model_path: Path
    property_path: Path
    timeout: float
    expected: str | None = None  #: ground-truth verdict when known

    def load_model(self) -> Sequential:
        return import_onnx(self.model_path)

    def load_property(self) -> VnnLibProperty:
        return read_vnnlib(self.property_path)


def load_instances(directory: str | Path) -> list[BenchmarkInstance]:
    """Parse ``directory/instances.csv`` into instances (paths resolved)."""
    directory = Path(directory)
    index = directory / INDEX_NAME
    if not index.is_file():
        raise FileNotFoundError(
            f"{directory} is not a benchmark instance directory "
            f"(missing {INDEX_NAME})"
        )
    rows = []
    for row_number, row in enumerate(csv.reader(index.open())):
        row = [cell.strip() for cell in row if cell.strip()]
        if not row or row[0].startswith("#"):
            continue
        if len(row) not in (3, 4):
            raise ValueError(
                f"{index}:{row_number + 1}: expected "
                f"'model.onnx, property.vnnlib, timeout[, expected]', got {row}"
            )
        model_path = directory / row[0]
        property_path = directory / row[1]
        for path in (model_path, property_path):
            if not path.is_file():
                raise FileNotFoundError(f"{index}:{row_number + 1}: missing {path}")
        expected = row[3].lower() if len(row) == 4 else None
        if expected is not None and expected not in (SAT, UNSAT, UNKNOWN):
            raise ValueError(
                f"{index}:{row_number + 1}: expected verdict must be "
                f"sat/unsat/unknown, got {expected!r}"
            )
        rows.append((model_path, property_path, float(row[2]), expected))
    if not rows:
        raise ValueError(f"{index} lists no instances")

    # instance names key the verdict matrix and the cross-track
    # consistency check, so they must be unique: VNN-COMP indexes reuse
    # one property against many models, so qualify the property stem
    # with the model stem (and, as a last resort, the row number)
    # whenever the short name would collide.
    stem_counts: dict[str, int] = {}
    for _, property_path, _, _ in rows:
        stem = property_path.stem
        stem_counts[stem] = stem_counts.get(stem, 0) + 1
    instances = []
    names_seen: set[str] = set()
    for position, (model_path, property_path, timeout, expected) in enumerate(rows):
        name = property_path.stem
        if stem_counts[name] > 1:
            name = f"{model_path.stem}-{name}"
        if name in names_seen:
            name = f"{name}-{position}"
        names_seen.add(name)
        instances.append(
            BenchmarkInstance(
                name=name,
                model_path=model_path,
                property_path=property_path,
                timeout=timeout,
                expected=expected,
            )
        )
    return instances


def write_index(directory: str | Path, instances: Sequence[BenchmarkInstance]) -> Path:
    """Write ``instances.csv`` for instances living in ``directory``."""
    directory = Path(directory)
    index = directory / INDEX_NAME
    with index.open("w", newline="") as handle:
        writer = csv.writer(handle)
        for instance in instances:
            row = [
                instance.model_path.name,
                instance.property_path.name,
                f"{instance.timeout:g}",
            ]
            if instance.expected is not None:
                row.append(instance.expected)
            writer.writerow(row)
    return index


def export_instance(
    directory: str | Path,
    name: str,
    model: Sequential,
    input_lower: np.ndarray | float,
    input_upper: np.ndarray | float,
    risks: Sequence[RiskCondition],
    timeout: float = 60.0,
    expected: str | None = None,
    model_filename: str | None = None,
    comment: str = "",
) -> BenchmarkInstance:
    """Write one instance (``.onnx`` + ``.vnnlib``) into ``directory``.

    ``input_lower``/``input_upper`` broadcast over the model's input
    shape; ``risks`` become the property's output disjuncts.  Several
    instances may share one model file via ``model_filename``.  The
    caller still has to :func:`write_index` the returned instances.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    model_name = model_filename or f"{name}.onnx"
    model_path = directory / model_name
    if not model_path.exists():
        export_onnx(model, model_path, name=model_name.removesuffix(".onnx"))
    shape = model.input_shape
    lower = np.broadcast_to(np.asarray(input_lower, dtype=float), shape).ravel()
    upper = np.broadcast_to(np.asarray(input_upper, dtype=float), shape).ravel()
    property_path = write_vnnlib(
        directory / f"{name}.vnnlib", lower, upper, risks, comment=comment
    )
    return BenchmarkInstance(
        name=name,
        model_path=model_path,
        property_path=property_path,
        timeout=timeout,
        expected=expected,
    )


# ---------------------------------------------------------------------------
# compiling instances into engine campaigns
# ---------------------------------------------------------------------------


def check_dimensions(model: Sequential, prop: VnnLibProperty) -> None:
    """Raise ``ValueError`` unless the property's variables fit the model."""
    if prop.in_dim != int(np.prod(model.input_shape)):
        raise ValueError(
            f"property has {prop.in_dim} input variables, model input shape "
            f"is {model.input_shape}"
        )
    if prop.out_dim != int(np.prod(model.output_shape)):
        raise ValueError(
            f"property has {prop.out_dim} output variables, model output "
            f"shape is {model.output_shape}"
        )


def instance_engine(
    model: Sequential,
    prop: VnnLibProperty,
    solver: str = "branch-and-bound",
    set_name: str = "instance",
    **engine_options,
) -> VerificationEngine:
    """Engine for one instance: earliest piecewise-linear cut, sound set.

    The input box is registered with input-region provenance, so
    ``cegar`` tracks can split it.  For fully piecewise-linear models
    the cut is layer 0 and the verified set *is* the input box — the
    verdict is exact, as VNN-COMP semantics require; models with a
    non-piecewise-linear prefix get the earliest valid cut and a sound
    over-approximation (``unsat`` stays sound, ``sat`` witnesses are
    replayed through the real network before being trusted).
    """
    check_dimensions(model, prop)
    cut = model.piecewise_linear_cut_points()[0]
    engine = VerificationEngine(model, cut, solver=solver, **engine_options)
    engine.add_static_feature_set(
        prop.input_lower.reshape(model.input_shape),
        prop.input_upper.reshape(model.input_shape),
        name=set_name,
    )
    return engine


def instance_campaign(
    prop: VnnLibProperty,
    set_name: str = "instance",
    method: str = "exact",
    domain: str | None = "interval",
    solver: str | None = None,
    time_limit: float | None = None,
    refine_budget: int | None = None,
    name: str | None = None,
) -> Campaign:
    """One query per output disjunct of the property."""
    campaign = Campaign(name or prop.name)
    for disjunct in prop.disjuncts:
        campaign.add(
            VerificationQuery(
                risk=disjunct,
                set_name=set_name,
                method=method,
                domain=domain,
                solver=solver,
                time_limit=time_limit,
                refine_budget=refine_budget,
            )
        )
    return campaign


def combine_disjunct_verdicts(verdicts: Sequence[str]) -> str:
    """Fold per-disjunct verdicts into the instance verdict.

    ``sat`` if any disjunct is reachable; ``unsat`` only when every
    disjunct is proved unreachable; otherwise ``unknown``.
    """
    if any(v == SAT for v in verdicts):
        return SAT
    if verdicts and all(v == UNSAT for v in verdicts):
        return UNSAT
    return UNKNOWN


@dataclass
class InstanceAnswer:
    """What :func:`answer_instance` learned about one instance."""

    #: sat / unsat / unknown, or cancelled / error / timeout
    status: str
    statuses: list[str]  #: one per answered disjunct, in order
    decided_by: list[str]  #: sorted deciding stages
    elapsed: float
    error: str | None  #: the failed query's error text
    results: list[QueryResult]  #: one per asked disjunct


def answer_instance(
    ask: Callable[[RiskCondition, float | None], QueryResult],
    disjuncts: Sequence[RiskCondition],
    budget: float | None,
    cancel: threading.Event | None = None,
) -> InstanceAnswer:
    """Answer an instance's disjuncts in order under one wall budget.

    ``ask(disjunct, remaining)`` answers one disjunct with ``remaining``
    seconds left (``None`` without a budget).  A ``sat`` disjunct ends
    the instance, and so does a failed query.  The budget is CHC-COMP
    style: an answer that lands after it does not count, and one that
    lands after ``cancel`` is set does not either.  One precedence rule
    picks the status: cancelled > error > timeout > the combined verdict.
    """
    start = time.perf_counter()
    statuses: list[str] = []
    deciders: set[str] = set()
    results: list[QueryResult] = []
    error: str | None = None
    timed_out = False
    for disjunct in disjuncts:
        if cancel is not None and cancel.is_set():
            break
        remaining = None if budget is None else budget - (time.perf_counter() - start)
        if remaining is not None and remaining <= 0.0:
            timed_out = True
            break
        result = ask(disjunct, remaining)
        results.append(result)
        if not result.ok:
            error = result.error or "query error"
            break
        if result.decided_by:
            deciders.add(result.decided_by)
        statuses.append(VERDICT_STATUS.get(result.verdict.verdict, UNKNOWN))
        if statuses[-1] == SAT:
            break  # any reachable disjunct decides the instance
    elapsed = time.perf_counter() - start
    if cancel is not None and cancel.is_set():
        status = CANCELLED
    elif error is not None:
        status = ERROR
    elif timed_out or (budget is not None and elapsed > budget):
        status = TIMEOUT
    else:
        status = combine_disjunct_verdicts(statuses)
    return InstanceAnswer(
        status=status,
        statuses=statuses,
        decided_by=sorted(deciders),
        elapsed=elapsed,
        error=error,
        results=results,
    )
