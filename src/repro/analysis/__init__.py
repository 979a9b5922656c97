"""Static soundness analysis for the verification stack.

Three passes, all purely static (no solver runs, no propagation):

- :mod:`repro.analysis.ir_analysis` — a dataflow pass over
  :class:`~repro.verification.ir.LoweredProgram` that re-derives per-op
  shapes, checks structural invariants (dimension agreement, reshape
  element counts, BatchNorm folding, monotone-op placement) and flags
  numeric hazards (non-finite parameters, degenerate affine rows, dead
  ops, extreme Lipschitz growth) into an :class:`AnalysisReport`.
  :func:`validate_program` is the cheap errors-only subset that
  :func:`~repro.verification.ir.lower_network` runs on every cache miss,
  so a malformed program fails with an op-indexed diagnostic instead of
  a numpy traceback deep inside propagation.
- :mod:`repro.analysis.contracts` — the transformer-registry audit:
  enumerates every primitive op x registered domain pair against a
  frozen coverage floor, failing at import/CI time instead of as a
  runtime ``TypeError`` inside a pool worker, and optionally runs
  per-pair differential soundness smoke checks (scalar vs batch-of-one,
  interval containment of sampled points).
- :mod:`repro.analysis.lint` — an AST-based project lint encoding
  repo-specific rules (no unseeded RNG in verification paths, no float
  equality in solver code, pool-submitted callables must be picklable,
  one code path per job), run as the ``repro lint`` CI gate and by the
  tier-1 suite.
"""

from repro.analysis.contracts import (
    RegistryAudit,
    RegistryContractError,
    audit_registry,
    ensure_registry_contracts,
)
from repro.analysis.ir_analysis import (
    AnalysisReport,
    Diagnostic,
    IRValidationError,
    OpFact,
    analyze_model,
    analyze_program,
    validate_program,
)
from repro.analysis.lint import LintFinding, lint_paths

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "IRValidationError",
    "LintFinding",
    "OpFact",
    "RegistryAudit",
    "RegistryContractError",
    "analyze_model",
    "analyze_program",
    "audit_registry",
    "ensure_registry_contracts",
    "lint_paths",
    "validate_program",
]
