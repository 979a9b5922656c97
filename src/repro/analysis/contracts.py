"""Transformer-registry audit: op x domain coverage as a static contract.

The registry in :mod:`repro.verification.abstraction.domain` resolves a
``(domain, op type)`` pair at *propagation* time and raises ``TypeError``
when no transformer exists — potentially deep inside a pool worker.
This module turns that into a static contract:

- a **frozen coverage floor** (:data:`COVERAGE_FLOOR`) records every
  transformer the stack ships today; deleting any registered transformer
  makes :func:`audit_registry` — not a runtime propagation — fail;
- every registered domain (including future ones not in the floor) must
  cover the six piecewise-linear **core ops**, and the cheapest domain
  on the precision ladder must cover *all* ops, because the engine
  falls back to it for prefix propagation;
- ``refines`` edges must name registered domains and ``cost_rank``
  must induce a strict ladder order;
- with ``smoke=True`` the audit additionally runs a differential
  soundness smoke check per registered pair: batched output hulls must
  match the batch-of-one hulls, and must contain the images of points
  sampled from the input boxes.

:func:`ensure_registry_contracts` is the once-per-process guard the
verification engine calls at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.ir_analysis import Diagnostic
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

#: MILP-encodable ops every registered domain must support
CORE_OPS: tuple[type, ...] = (
    AffineOp,
    ElementwiseAffineOp,
    ReLUOp,
    LeakyReLUOp,
    MaxGroupOp,
    ReshapeOp,
)

#: prefix-only ops (conv kept in kernel form, smooth monotone maps)
PREFIX_OPS: tuple[type, ...] = (ConvOp, MonotoneOp)

ALL_OPS: tuple[type, ...] = CORE_OPS + PREFIX_OPS

#: the frozen floor: every (domain, op) transformer the stack ships.
#: A registered transformer disappearing from under any of these pairs
#: is a contract violation, caught here instead of at propagation time.
COVERAGE_FLOOR: dict[str, tuple[type, ...]] = {
    "interval": ALL_OPS,
    "octagon": ALL_OPS,
    "zonotope": CORE_OPS + (ConvOp,),
    "symbolic": CORE_OPS,
}


@dataclass
class RegistryAudit:
    """Outcome of one registry audit."""

    coverage: dict[str, tuple[str, ...]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    smoke_checks: int = 0

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [
            f"registry audit: {len(self.coverage)} domain(s), "
            f"{sum(len(v) for v in self.coverage.values())} transformer "
            f"pair(s), {self.smoke_checks} smoke check(s), "
            f"{len(self.errors)} error(s)"
        ]
        for name, kinds in sorted(self.coverage.items()):
            lines.append(f"  {name}: {', '.join(kinds)}")
        lines.extend(f"  {d}" for d in self.diagnostics)
        return "\n".join(lines)


class RegistryContractError(RuntimeError):
    """The transformer registry violates the coverage contract."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        details = "; ".join(str(d) for d in diagnostics)
        super().__init__(f"transformer registry contract violated: {details}")


def _sample_op(op_type: type, rng: np.random.Generator) -> IROp:
    """A small deterministic instance of each primitive op type."""
    if op_type is AffineOp:
        return AffineOp(rng.normal(size=(3, 4)), rng.normal(size=3))
    if op_type is ElementwiseAffineOp:
        return ElementwiseAffineOp(
            rng.normal(size=4) + 1.5, rng.normal(size=4)
        )
    if op_type is ReLUOp:
        return ReLUOp(4)
    if op_type is LeakyReLUOp:
        return LeakyReLUOp(4, alpha=0.1)
    if op_type is MaxGroupOp:
        return MaxGroupOp(4, [[0, 1], [2, 3], [1, 2]])
    if op_type is ReshapeOp:
        return ReshapeOp((4,), (2, 2))
    if op_type is ConvOp:
        return ConvOp(
            rng.normal(size=(2, 1, 2, 2)),
            rng.normal(size=2),
            stride=1,
            padding=0,
            in_shape=(1, 3, 3),
        )
    if op_type is MonotoneOp:
        return MonotoneOp("tanh", 4)
    raise TypeError(f"no sample for op type {op_type.__name__}")


def _smoke_check(
    domain_name: str, op: IROp, rng: np.random.Generator
) -> list[Diagnostic]:
    """Differential soundness smoke check for one (domain, op) pair.

    Propagates a 3-region box batch and checks (a) the batched hulls
    equal the batch-of-one hulls region by region, and (b) the hulls
    contain the op images of points sampled inside each input box.
    """
    from repro.verification.abstraction.domain import get_domain
    from repro.verification.sets import BoxBatch

    dom = get_domain(domain_name)
    kind = type(op).__name__
    center = rng.normal(size=(3, op.in_dim))
    radius = rng.uniform(0.05, 0.6, size=(3, op.in_dim))
    batch = BoxBatch(center - radius, center + radius)
    hull = dom.concretize(dom.transform(op, dom.lift(batch)))

    diags: list[Diagnostic] = []
    for i in range(batch.n_regions):
        single = BoxBatch(
            batch.lower[i : i + 1], batch.upper[i : i + 1]
        )
        one = dom.concretize(dom.transform(op, dom.lift(single)))
        if not (
            np.allclose(one.lower[0], hull.lower[i], atol=1e-8)
            and np.allclose(one.upper[0], hull.upper[i], atol=1e-8)
        ):
            diags.append(
                Diagnostic(
                    "RC006",
                    "error",
                    f"{domain_name}/{kind}: batch-of-one hull differs "
                    f"from batched hull for region {i}",
                )
            )
    points = rng.uniform(size=(16, batch.n_regions, op.in_dim))
    points = batch.lower[None] + points * (batch.upper - batch.lower)[None]
    images = op.apply(points.reshape(-1, op.in_dim)).reshape(
        16, batch.n_regions, -1
    )
    tol = 1e-7
    contained = (images >= hull.lower[None] - tol) & (
        images <= hull.upper[None] + tol
    )
    if not np.all(contained):
        bad = int(np.count_nonzero(~np.all(contained, axis=-1)))
        diags.append(
            Diagnostic(
                "RC007",
                "error",
                f"{domain_name}/{kind}: output hull excludes {bad} of "
                f"{16 * batch.n_regions} sampled op images (unsound "
                f"transformer)",
            )
        )
    return diags


def audit_registry(*, smoke: bool = False, seed: int = 0) -> RegistryAudit:
    """Audit op x domain transformer coverage against the contract.

    With ``smoke=True`` every registered pair additionally runs a
    differential soundness smoke check (seeded, deterministic).
    """
    import repro.verification.abstraction  # noqa: F401  (registers domains)
    from repro.verification.abstraction.domain import (
        get_domain,
        registered_domains,
    )

    audit = RegistryAudit()
    names = registered_domains()
    for name in names:
        dom = get_domain(name)
        covered = tuple(
            op_type.__name__
            for op_type in ALL_OPS
            if (name, op_type) in _transformer_table()
        )
        audit.coverage[name] = covered

        floor = COVERAGE_FLOOR.get(name, CORE_OPS)
        for op_type in floor:
            if (name, op_type) not in _transformer_table():
                code = "RC001" if name in COVERAGE_FLOOR else "RC002"
                audit.diagnostics.append(
                    Diagnostic(
                        code,
                        "error",
                        f"domain {name!r} has no transformer for "
                        f"{op_type.__name__} (coverage floor); runtime "
                        f"propagation would raise TypeError",
                    )
                )
        for ref in dom.refines:
            if ref not in names:
                audit.diagnostics.append(
                    Diagnostic(
                        "RC004",
                        "error",
                        f"domain {name!r} claims to refine unregistered "
                        f"domain {ref!r}",
                    )
                )

    if names:
        base = get_domain(names[0])
        for op_type in ALL_OPS:
            if (base.name, op_type) not in _transformer_table():
                audit.diagnostics.append(
                    Diagnostic(
                        "RC003",
                        "error",
                        f"ladder-base domain {base.name!r} must cover "
                        f"every op but lacks {op_type.__name__}",
                    )
                )
        ranks = [get_domain(n).cost_rank for n in names]
        if len(set(ranks)) != len(ranks):
            audit.diagnostics.append(
                Diagnostic(
                    "RC005",
                    "error",
                    f"cost ranks are not distinct: "
                    f"{dict(zip(names, ranks))}",
                )
            )

    if smoke:
        rng = np.random.default_rng(seed)
        for name in names:
            for op_type in ALL_OPS:
                if (name, op_type) not in _transformer_table():
                    continue
                op = _sample_op(op_type, rng)
                audit.smoke_checks += 1
                audit.diagnostics.extend(_smoke_check(name, op, rng))
    return audit


def _transformer_table() -> dict:
    from repro.verification.abstraction.domain import _TRANSFORMERS

    return _TRANSFORMERS


_CONTRACTS_OK = False


def ensure_registry_contracts() -> None:
    """Once-per-process registry audit; raises on contract violations.

    The engine calls this at construction time so a missing transformer
    fails fast with a :class:`RegistryContractError` instead of a
    ``TypeError`` mid-propagation.
    """
    global _CONTRACTS_OK
    if _CONTRACTS_OK:
        return
    audit = audit_registry(smoke=False)
    if not audit.ok:
        raise RegistryContractError(audit.errors)
    _CONTRACTS_OK = True
