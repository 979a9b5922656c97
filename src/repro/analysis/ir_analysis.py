"""Dataflow analysis over :class:`~repro.verification.ir.LoweredProgram`.

The pass walks a lowered program once, re-deriving every op's input and
output dimension from the op's own parameters (never trusting the
program's cached metadata), and produces an :class:`AnalysisReport` of
per-op facts plus diagnostics:

========  ========  ====================================================
code      severity  meaning
========  ========  ====================================================
IR000     error     model could not be lowered at all
IR001     error     op input dim disagrees with the incoming dataflow dim
IR002     error     reshape changes the element count
IR003     error     non-finite (NaN/Inf) op parameters
IR004     error     monotone op inside a piecewise-linear view
IR005     error     foldable elementwise affine left unfused (BatchNorm)
IR006     error     requested domain has no transformer for an op
IR010     error     op parameters drifted off the canonical float dtype
IR011     error     program metadata (out_dim) disagrees with dataflow
IR013     error     merged-program contract: merge-group metadata
                    (abstract group → original neuron ids) missing, not
                    a partition of the source layer, inconsistent with
                    the op's width, or with non-increasing layer indices
                    (the group graph must stay acyclic)
IR007     warning   degenerate (all-zero) affine rows / scale entries
IR008     warning   dead op (redundant activation, identity elementwise)
IR009     warning   cumulative Lipschitz growth exceeds the threshold
IR106     info      coverage gap in a non-requested registered domain
========  ========  ====================================================

:func:`validate_program` runs the cheap errors-only structural subset
(IR001/IR002/IR003/IR005/IR010/IR011/IR013) and raises
:class:`IRValidationError`; :func:`~repro.verification.ir.lower_network`
calls it on every cache miss so malformed programs surface as op-indexed
diagnostics at lowering time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.nn.graph import (
    AffineOp,
    ConvOp,
    ElementwiseAffineOp,
    IROp,
    LeakyReLUOp,
    MaxGroupOp,
    MonotoneOp,
    ReLUOp,
    ReshapeOp,
)
from repro.nn.tensor import FLOAT, flat_size
from repro.verification.ir import LoweredProgram

#: warn when the product of per-op Lipschitz gains exceeds this
LIPSCHITZ_THRESHOLD = 1e8

#: derivative bounds of the named monotone activations
_MONOTONE_GAIN = {"sigmoid": 0.25, "tanh": 1.0}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, anchored to an op index when possible."""

    code: str
    severity: str  #: "error" | "warning" | "info"
    message: str
    op_index: int | None = None
    op_kind: str | None = None
    layer_index: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.op_index is not None:
            where = f"op {self.op_index}"
            if self.op_kind:
                where += f" ({self.op_kind})"
            if self.layer_index is not None:
                where += f" @ layer {self.layer_index}"
            where += ": "
        return f"[{self.code}/{self.severity}] {where}{self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "op_index": self.op_index,
            "op_kind": self.op_kind,
            "layer_index": self.layer_index,
        }


@dataclass(frozen=True)
class OpFact:
    """Inferred per-op dataflow facts."""

    index: int
    kind: str
    layer_index: int | None
    in_dim: int
    out_dim: int
    param_count: int
    lipschitz_gain: float
    cumulative_gain: float
    domains: tuple[str, ...]  #: registered domains with a transformer

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "layer_index": self.layer_index,
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "param_count": self.param_count,
            "lipschitz_gain": self.lipschitz_gain,
            "cumulative_gain": self.cumulative_gain,
            "domains": list(self.domains),
        }


@dataclass
class AnalysisReport:
    """Result of one analyzer pass over a lowered program."""

    source: str
    in_dim: int
    out_dim: int
    facts: list[OpFact] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostics were produced."""
        return not self.errors

    def summary(self) -> str:
        head = (
            f"{self.source or '<program>'}: {len(self.facts)} ops, "
            f"{self.in_dim}->{self.out_dim}, "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        lines = [head] + [f"  {d}" for d in self.diagnostics]
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "ok": self.ok,
            "facts": [f.to_dict() for f in self.facts],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class IRValidationError(ValueError):
    """A lowered program violates a structural IR invariant.

    Subclasses :class:`ValueError` so callers that already guard
    lowering with ``except ValueError`` keep working; carries the full
    op-indexed diagnostic list in ``diagnostics``.
    """

    def __init__(self, source: str, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        details = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(
            f"invalid lowered program {source or '<program>'}: {details}"
        )


# -- per-op facts ------------------------------------------------------------


def _param_arrays(op: IROp) -> list[np.ndarray]:
    if isinstance(op, (AffineOp, ConvOp)):
        return [op.weight, op.bias]
    if isinstance(op, ElementwiseAffineOp):
        return [op.scale, op.shift]
    return []


def _lipschitz_gain(op: IROp) -> float:
    """Upper bound on the op's L-infinity operator norm."""
    if isinstance(op, AffineOp):
        if op.weight.shape[0] == 0:
            return 0.0
        return float(np.abs(op.weight).sum(axis=1).max())
    if isinstance(op, ConvOp):
        return float(np.abs(op.weight).reshape(op.weight.shape[0], -1).sum(axis=1).max())
    if isinstance(op, ElementwiseAffineOp):
        return float(np.abs(op.scale).max()) if op.scale.size else 0.0
    if isinstance(op, MonotoneOp):
        return _MONOTONE_GAIN.get(op.kind, 1.0)
    # relu-like, max-group and reshape ops are 1-Lipschitz
    return 1.0


def _op_layer(program: LoweredProgram, index: int) -> int | None:
    layer = program.op_layers[index] if index < len(program.op_layers) else None
    return int(layer) if layer is not None else None


# -- structural invariants (the validate_program subset) ---------------------


def _foldable(previous: IROp, ew: ElementwiseAffineOp) -> bool:
    """Would :func:`~repro.verification.ir._fold_elementwise` fuse these?

    Mirrors the lowering fold rules without materializing the fold.
    """
    if isinstance(previous, (AffineOp, ElementwiseAffineOp)):
        return True
    if isinstance(previous, ConvOp):
        filters = previous.weight.shape[0]
        if ew.scale.size != previous.out_dim or ew.scale.size % filters:
            return False
        per_filter = ew.scale.reshape(filters, -1)
        shift = ew.shift.reshape(filters, -1)
        return bool(
            np.all(per_filter == per_filter[:, :1])
            and np.all(shift == shift[:, :1])
        )
    return False


def _structural_diagnostics(program: LoweredProgram) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    current = program.in_dim
    # conv materialization in the derived /pl view can legitimately
    # leave a foldable (AffineOp, ElementwiseAffineOp) pair, so the
    # folding contract only binds the base lowering
    source = getattr(program, "source", "") or ""
    check_folding = not source.endswith("/pl")
    previous: IROp | None = None
    for index, op in enumerate(program.ops):
        kind = type(op).__name__
        layer = _op_layer(program, index)

        def diag(code: str, severity: str, message: str) -> None:
            diags.append(
                Diagnostic(code, severity, message, index, kind, layer)
            )

        if op.in_dim != current:
            diag(
                "IR001",
                "error",
                f"expects input dim {op.in_dim} but the dataflow "
                f"produces {current}",
            )
        if isinstance(op, ReshapeOp) and (
            flat_size(op.in_shape) != flat_size(op.out_shape)
        ):
            diag(
                "IR002",
                "error",
                f"reshape changes element count: {op.in_shape} -> "
                f"{op.out_shape}",
            )
        for arr in _param_arrays(op):
            if not np.all(np.isfinite(arr)):
                bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
                diag(
                    "IR003",
                    "error",
                    f"{bad} non-finite parameter value(s)",
                )
                break
        for arr in _param_arrays(op):
            if arr.dtype != np.dtype(FLOAT):
                diag(
                    "IR010",
                    "error",
                    f"parameter dtype {arr.dtype} is not the canonical "
                    f"{np.dtype(FLOAT)}",
                )
                break
        if (
            check_folding
            and isinstance(op, ElementwiseAffineOp)
            and previous is not None
            and _foldable(previous, op)
        ):
            diag(
                "IR005",
                "error",
                f"elementwise affine op is foldable into the preceding "
                f"{type(previous).__name__} but was left unfused "
                f"(BatchNorm folding contract)",
            )
        current = op.out_dim
        previous = op
    if current != program.out_dim:
        diags.append(
            Diagnostic(
                "IR011",
                "error",
                f"program metadata claims out_dim {program.out_dim} but "
                f"the dataflow produces {current}",
            )
        )
    merge_groups = getattr(program, "merge_groups", None)
    if merge_groups is not None or source.endswith("/merged"):
        diags.extend(_merge_diagnostics(program, merge_groups))
    return diags


def _merge_diagnostics(
    program: LoweredProgram, metadata: dict | None
) -> list[Diagnostic]:
    """IR013: the merged-program contract.

    A merged program (source tag ``/merged`` or a ``merge_groups``
    attribute) must carry, for every merged hidden affine op, the map
    from each abstract group back to the original neuron ids it covers:
    per rail a *partition* of the source layer (disjoint, covering,
    in-range), with the op's width equal to the total group count, and
    layer indices strictly increasing across entries so the
    group-provenance graph is acyclic.
    """
    diags: list[Diagnostic] = []

    def diag(message: str, op_index: int | None = None) -> None:
        kind = (
            type(program.ops[op_index]).__name__
            if op_index is not None and 0 <= op_index < len(program.ops)
            else None
        )
        diags.append(Diagnostic("IR013", "error", message, op_index, kind))

    if not metadata:
        diag(
            "merged program carries no merge-group metadata "
            "(abstract group -> original neuron ids)"
        )
        return diags
    last_layer = -1
    for op_index in sorted(metadata):
        entry = metadata[op_index]
        if (
            not isinstance(op_index, int)
            or op_index < 0
            or op_index >= len(program.ops)
            or not isinstance(program.ops[op_index], AffineOp)
        ):
            diag(
                f"merge metadata references op {op_index!r}, which is "
                f"not an affine op of this program"
            )
            continue
        layer = entry.get("layer")
        width = entry.get("width")
        inc = entry.get("inc")
        dec = entry.get("dec")
        if layer is None or width is None or inc is None or dec is None:
            diag(
                "merge metadata entry is missing one of "
                "layer/width/inc/dec",
                op_index,
            )
            continue
        if layer <= last_layer:
            diag(
                f"merge metadata layer {layer} does not increase over "
                f"the previous entry ({last_layer}): the group "
                f"provenance graph must be acyclic",
                op_index,
            )
        last_layer = max(last_layer, int(layer))
        for rail, groups in (("inc", inc), ("dec", dec)):
            seen: set[int] = set()
            for group in groups:
                if not len(group):
                    diag(f"empty {rail} group", op_index)
                    continue
                for member in group:
                    if not 0 <= int(member) < int(width):
                        diag(
                            f"{rail} group member {member} out of range "
                            f"[0, {width})",
                            op_index,
                        )
                    elif int(member) in seen:
                        diag(
                            f"original neuron {member} appears in two "
                            f"{rail} groups (groups must be disjoint)",
                            op_index,
                        )
                    seen.add(int(member))
            if seen != set(range(int(width))) and not any(
                d.op_index == op_index for d in diags
            ):
                diag(
                    f"{rail} groups cover {len(seen)} of {width} "
                    f"original neurons (groups must partition the layer)",
                    op_index,
                )
        expected = len(inc) + len(dec)
        if program.ops[op_index].out_dim != expected:
            diag(
                f"op width {program.ops[op_index].out_dim} disagrees "
                f"with metadata group count {expected} (inc {len(inc)} "
                f"+ dec {len(dec)})",
                op_index,
            )
    return diags


def validate_program(program: LoweredProgram) -> None:
    """Errors-only structural check; raises :class:`IRValidationError`.

    This is the pass :func:`~repro.verification.ir.lower_network` runs
    on every cache miss — cheap enough for the lowering hot path, strict
    enough that a malformed program never reaches a transformer.
    """
    errors = [d for d in _structural_diagnostics(program) if d.severity == "error"]
    if errors:
        raise IRValidationError(getattr(program, "source", ""), errors)


# -- full analysis -----------------------------------------------------------


def analyze_program(
    program: LoweredProgram,
    *,
    domain: str | None = None,
    lipschitz_threshold: float = LIPSCHITZ_THRESHOLD,
    expect_piecewise_linear: bool | None = None,
) -> AnalysisReport:
    """Full dataflow pass over one lowered program.

    ``domain`` names an abstract domain that *must* cover every op
    (coverage gaps become IR006 errors); without it, gaps in any
    registered domain are reported as IR106 infos.  When
    ``expect_piecewise_linear`` is unset it is inferred from the
    program's ``source`` tag (the ``/pl`` view suffix).
    """
    from repro.verification.abstraction.domain import (
        get_domain,
        registered_domains,
    )

    source = getattr(program, "source", "") or ""
    if expect_piecewise_linear is None:
        expect_piecewise_linear = source.endswith("/pl")
    report = AnalysisReport(source, program.in_dim, program.out_dim)
    report.diagnostics.extend(_structural_diagnostics(program))

    domain_names = registered_domains()
    if domain is not None:
        get_domain(domain)  # raises ValueError for unknown names
    gaps: dict[str, list[int]] = {name: [] for name in domain_names}

    cumulative = 1.0
    growth_flagged = False
    previous: IROp | None = None
    for index, op in enumerate(program.ops):
        kind = type(op).__name__
        layer = _op_layer(program, index)

        def diag(code: str, severity: str, message: str) -> None:
            report.diagnostics.append(
                Diagnostic(code, severity, message, index, kind, layer)
            )

        gain = _lipschitz_gain(op)
        cumulative *= gain
        supported = tuple(
            name for name in domain_names if get_domain(name).supports(op)
        )
        for name in domain_names:
            if name not in supported:
                gaps[name].append(index)
        report.facts.append(
            OpFact(
                index,
                kind,
                layer,
                op.in_dim,
                op.out_dim,
                sum(int(a.size) for a in _param_arrays(op)),
                gain,
                cumulative,
                supported,
            )
        )

        if isinstance(op, MonotoneOp) and expect_piecewise_linear:
            diag(
                "IR004",
                "error",
                f"monotone op ({op.kind!r}) inside a piecewise-linear "
                f"view; such layers may only appear before the "
                f"verification cut",
            )
        if domain is not None and domain not in supported:
            diag(
                "IR006",
                "error",
                f"no {domain!r} transformer registered for {kind}",
            )
        if isinstance(op, AffineOp) and op.out_dim:
            zero_rows = int(np.count_nonzero(~np.any(op.weight != 0.0, axis=1)))
            if zero_rows:
                diag(
                    "IR007",
                    "warning",
                    f"{zero_rows} all-zero weight row(s): those output "
                    f"features are constant",
                )
        if isinstance(op, ElementwiseAffineOp) and op.scale.size:
            zero_scales = int(np.count_nonzero(op.scale == 0.0))
            if zero_scales:
                diag(
                    "IR007",
                    "warning",
                    f"{zero_scales} zero scale entr(ies): those features "
                    f"are constant",
                )
        if isinstance(op, (ReLUOp, LeakyReLUOp)) and isinstance(previous, ReLUOp):
            diag(
                "IR008",
                "warning",
                "redundant activation: inputs are already non-negative",
            )
        if (
            isinstance(op, ElementwiseAffineOp)
            and op.scale.size
            and np.all(op.scale == 1.0)  # lint: allow(float-eq)
            and np.all(op.shift == 0.0)
        ):
            diag("IR008", "warning", "identity elementwise affine op")
        if isinstance(op, ReshapeOp) and op.in_shape == op.out_shape:
            diag("IR008", "warning", "reshape to the identical shape")
        if not growth_flagged and cumulative > lipschitz_threshold:
            growth_flagged = True
            diag(
                "IR009",
                "warning",
                f"cumulative Lipschitz bound {cumulative:.3g} exceeds "
                f"{lipschitz_threshold:.3g}; downstream interval bounds "
                f"may explode",
            )
        previous = op

    if domain is None:
        for name, indices in gaps.items():
            if indices:
                kinds = sorted(
                    {type(program.ops[i]).__name__ for i in indices}
                )
                report.diagnostics.append(
                    Diagnostic(
                        "IR106",
                        "info",
                        f"domain {name!r} has no transformer for "
                        f"{', '.join(kinds)} (ops {indices})",
                    )
                )
    return report


def analyze_model(
    model: Any,
    *,
    domain: str | None = None,
    lipschitz_threshold: float = LIPSCHITZ_THRESHOLD,
) -> AnalysisReport:
    """Lower a model end-to-end and analyze the resulting program.

    Lowering failures (un-lowerable layers, structural IR violations)
    are captured as IR000 / validator diagnostics in the report instead
    of escaping as exceptions, so callers like the bench runner can
    always embed a report in their error outcomes.
    """
    from repro.verification.ir import lowered_full

    try:
        program = lowered_full(model)
    except IRValidationError as exc:
        report = AnalysisReport("<unlowerable>", 0, 0)
        report.diagnostics.extend(exc.diagnostics)
        return report
    except ValueError as exc:
        report = AnalysisReport("<unlowerable>", 0, 0)
        report.diagnostics.append(
            Diagnostic("IR000", "error", f"lowering failed: {exc}")
        )
        return report
    return analyze_program(
        program, domain=domain, lipschitz_threshold=lipschitz_threshold
    )


def model_error_summary(model: Any, *, domain: str | None = None) -> str | None:
    """One-line error summary for a model, or ``None`` when clean.

    Used by the bench runner to attach analyzer diagnostics to the
    error outcome of an invalid instance.
    """
    report = analyze_model(model, domain=domain)
    if report.ok:
        return None
    return "; ".join(str(d) for d in report.errors[:3])
