"""``repro lint`` — repo-specific static rules enforced over the source.

Generic linters cannot know this project's contracts, so this module
encodes them directly as AST checks:

========  ====================  ========================================
code      rule                  contract
========  ====================  ========================================
RL002     unseeded-rng          verification paths must not draw from
                                unseeded or global RNG state
RL003     float-eq              no ``==`` / ``!=`` against non-zero
                                float literals in solver/abstraction
                                code (comparisons to ``0.0`` sentinels
                                are exact and allowed)
RL004     pool-picklable        callables handed to process pools must
                                be module-level (lambdas and nested
                                functions do not pickle)
RL005     scipy-import          the package imports scipy inside the
                                function that needs it, never at module
                                level (outside ``if TYPE_CHECKING:``),
                                and never ``scipy.stats``
RL006     pool-start            only ``verification/pool.py`` starts pools
RL007     scene-render          only ``scenario/{regions,dataset,render}.py``
                                render scenes
RL008     input-gradient        only ``verification/counterexample.py``
                                ascends input gradients
RL009     witness-features      no ``prefix_apply`` under ``scenario/``
RL010     matmul-products       no ``einsum`` in ``nn/graph.py``, ``nn/layers/``
RL011     batched-bounds        no scalar ``linear_lower_bound``
RL012     conv-plan             no ``im2col``
RL013     zero-bias             no ``zeros_like(op.bias)`` in abstractions
RL014     support-path          no second support-stage path
RL015     daemon-transport      no ``urllib.request``/``asyncio`` in ``service/``
========  ====================  ========================================

RL006–RL015 are the rows of :data:`BANS`: each bans call names, def
names or imported modules under package paths, outside exempt files.
A finding on a line carrying ``# lint: allow(<rule-or-code>)`` is
suppressed.  Scoped rules (RL002/RL003) only apply to files under
``verification``, ``api`` or ``analysis`` path components; RL005 and
the bans apply to files under a ``repro`` path component.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

#: legacy global-state numpy RNG entry points
_LEGACY_RNG = frozenset({
    "rand", "randn", "random", "random_sample", "randint", "uniform",
    "normal", "choice", "shuffle", "permutation", "seed",
})

#: path components that put a file in scope for RL002/RL003
_SCOPED_PARTS = ("verification", "api", "analysis")

#: methods through which work is handed to a pool/executor
_POOL_METHODS = frozenset({"submit", "map", "apply_async", "starmap"})


@dataclass(frozen=True)
class Ban:
    """Identifiers banned under package paths (``""``: all of it).

    A ``calls`` entry matches a call's final name (``"get_context"``
    matches ``mp.get_context(...)``), or, written with arguments, the
    call's source text; a ``modules`` entry matches an import of the
    module or of anything inside it.  Paths are relative to ``repro/``.
    """

    code: str
    rule: str
    hint: str
    calls: tuple[str, ...] = ()
    defs: tuple[str, ...] = ()
    modules: tuple[str, ...] = ()
    under: tuple[str, ...] = ("",)
    exempt: tuple[str, ...] = ()

    def applies(self, module: str) -> bool:
        return module not in self.exempt and module.startswith(self.under)

    def match(self, node: ast.AST) -> str | None:
        """The banned identifier ``node`` uses, if any."""
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            for call in self.calls:
                head, args, _ = call.partition("(")
                if head == name and (not args or ast.unparse(node).endswith(call)):
                    return call if args else f"{ast.unparse(node.func)}()"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in self.defs:
                return f"def {node.name}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in _imported_modules(node):
                if any(module == m or module.startswith(m + ".") for m in self.modules):
                    return f"import of {module}"
        return None


#: the nodes a :class:`Ban` can match
_BANNABLE = (ast.Call, ast.FunctionDef, ast.AsyncFunctionDef, ast.Import, ast.ImportFrom)

#: single-path invariants: each row is one rule
BANS = (
    Ban("RL006", "pool-start",
        "start process pools through repro.verification.pool.WorkerPool",
        calls=("ProcessPoolExecutor", "get_context"),
        exempt=("verification/pool.py",)),
    Ban("RL007", "scene-render",
        "build scenario regions through repro.scenario.regions",
        calls=("render_ground", "render_grounds", "render_vehicles"),
        defs=("render_ground", "render_grounds", "render_vehicles"),
        exempt=("scenario/regions.py", "scenario/dataset.py", "scenario/render.py")),
    Ban("RL008", "input-gradient",
        "attack through repro.verification.counterexample's ascent",
        calls=("value_and_input_gradient",),
        exempt=("verification/counterexample.py",)),
    Ban("RL009", "witness-features",
        "take witness features from pgd_hits_in_boxes' cut_layer",
        calls=("prefix_apply",), under=("scenario/",)),
    Ban("RL010", "matmul-products",
        "keep the conv VJP and training layers on matmul",
        calls=("einsum",), under=("nn/graph.py", "nn/layers/")),
    Ban("RL011", "batched-bounds",
        "bound enclosures through AbstractDomain.linear_lower_bounds",
        calls=("linear_lower_bound",), defs=("linear_lower_bound",)),
    Ban("RL012", "conv-plan",
        "run convs through ConvOp.columns / product / apply_spatial",
        calls=("im2col",), defs=("im2col",)),
    Ban("RL013", "zero-bias", "add no zero bias to radius or generator products",
        calls=("zeros_like(op.bias)",), under=("verification/abstraction/",)),
    Ban("RL014", "support-path",
        "decide support queries in the engine's one group step, driven by _each_group",
        calls=("_decide_from_entries", "_support_step"),
        defs=("_decide_from_entries", "_support_step", "_each")),
    Ban("RL015", "daemon-transport",
        "talk to the daemon over the kept-alive ServiceClient; "
        "schedule jobs on its worker threads",
        modules=("urllib.request", "asyncio"), under=("service/",)),
)

RULES: dict[str, tuple[str, str]] = {
    "RL002": ("unseeded-rng", "unseeded RNG in a verification path"),
    "RL003": ("float-eq", "float equality against a non-zero literal"),
    "RL004": ("pool-picklable", "unpicklable callable handed to a pool"),
    "RL005": ("scipy-import", "module-level scipy import, or scipy.stats"),
    **{ban.code: (ban.rule, ban.hint) for ban in BANS},
}

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([^)]*)\)")


@dataclass(frozen=True)
class LintFinding:
    """One lint rule violation."""

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.rule}] {self.message}"
        )


def _nested_defs(tree: ast.Module) -> set[str]:
    """Names of functions defined inside another function or lambda."""
    nested_defs: set[str] = set()

    def rec(node: ast.AST, in_func: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_func:
                    nested_defs.add(child.name)
                rec(child, True)
            elif isinstance(child, ast.Lambda):
                rec(child, True)
            else:
                rec(child, in_func)

    rec(tree, False)
    return nested_defs


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _nonzero_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value != 0.0
    )


def _imported_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The absolute modules an import statement loads (by dotted name)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level or node.module is None:
        return []
    return [node.module] + [f"{node.module}.{a.name}" for a in node.names]


def _scipy_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The ``scipy`` modules an import statement loads (by dotted name)."""
    names = _imported_modules(node)
    return [name for name in names if name == "scipy" or name.startswith("scipy.")]


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


class _Checker(ast.NodeVisitor):
    def __init__(
        self, path: str, scoped: bool, nested_defs: set[str], module: str | None
    ) -> None:
        self.path = path
        self.scoped = scoped
        self.nested_defs = nested_defs
        self.package = module is not None
        self.bans = [ban for ban in BANS if module is not None and ban.applies(module)]
        #: > 0 inside a function body (imports there run on call)
        self.function_depth = 0
        #: > 0 inside ``if TYPE_CHECKING:`` (imports there never run)
        self.type_only = 0
        self.findings: list[LintFinding] = []

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        line, col = getattr(node, "lineno", 0), getattr(node, "col_offset", 0)
        self.findings.append(
            LintFinding(self.path, line, col, code, RULES[code][0], message)
        )

    # -- BANS (every node) -------------------------------------------------

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, _BANNABLE):
            for ban in self.bans:
                used = ban.match(node)
                if used is not None:
                    self._flag(node, ban.code, f"{used}; {ban.hint}")
        super().visit(node)

    # -- RL002 / RL004 (anchored on calls) ---------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)

        if self.scoped:
            if name == "default_rng" and not node.args and not node.keywords:
                self._flag(
                    node,
                    "RL002",
                    "default_rng() without a seed in a verification "
                    "path; results must be reproducible",
                )
            if (
                name in _LEGACY_RNG
                and isinstance(node.func, ast.Attribute)
                and _call_name(node.func.value) == "random"
            ):
                self._flag(
                    node,
                    "RL002",
                    f"legacy global-state RNG call .random.{name}(); "
                    f"use np.random.default_rng(seed)",
                )

        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _POOL_METHODS
            and self._looks_like_pool(node.func.value)
            and node.args
        ):
            self._check_picklable(node.args[0], node.func.attr)

        # the shared WorkerPool forwards its initializer to every worker
        if name and (name.endswith("PoolExecutor") or name == "WorkerPool"):
            for kw in node.keywords:
                if kw.arg == "initializer":
                    self._check_picklable(kw.value, "initializer")

        self.generic_visit(node)

    @staticmethod
    def _looks_like_pool(receiver: ast.expr) -> bool:
        lowered = (_call_name(receiver) or "").lower()
        return "pool" in lowered or "executor" in lowered

    def _check_picklable(self, fn: ast.expr, where: str) -> None:
        if isinstance(fn, ast.Lambda):
            self._flag(
                fn,
                "RL004",
                f"lambda passed to pool {where}; process pools require "
                f"a picklable module-level callable",
            )
        elif isinstance(fn, ast.Name) and fn.id in self.nested_defs:
            self._flag(
                fn,
                "RL004",
                f"nested function {fn.id!r} passed to pool {where}; "
                f"process pools require a module-level callable",
            )

    # -- RL005 -------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.function_depth += 1
        self.generic_visit(node)
        self.function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_If(self, node: ast.If) -> None:
        if not _is_type_checking(node.test):
            self.generic_visit(node)
            return
        self.visit(node.test)
        self.type_only += 1
        for child in node.body:
            self.visit(child)
        self.type_only -= 1
        for child in node.orelse:
            self.visit(child)

    def visit_Import(self, node: ast.Import | ast.ImportFrom) -> None:
        modules = _scipy_modules(node) if self.package else []
        if any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in modules):
            self._flag(
                node,
                "RL005",
                "scipy.stats import; take distribution quantiles from "
                "scipy.special (scipy.stats costs ~0.4 s to import)",
            )
        elif modules and not self.function_depth and not self.type_only:
            self._flag(
                node,
                "RL005",
                f"module-level import of {modules[0]}; import it in the "
                f"function that needs it, so a process that never calls "
                f"that function never loads scipy",
            )

    visit_ImportFrom = visit_Import

    # -- RL003 -------------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.scoped and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(_nonzero_float_literal(o) for o in operands):
                self._flag(
                    node,
                    "RL003",
                    "float ==/!= against a non-zero literal in solver/"
                    "abstraction code; compare with a tolerance",
                )
        self.generic_visit(node)


def _in_scope(path: Path) -> bool:
    return any(part in _SCOPED_PARTS for part in path.parts)


def _package_module(path: Path) -> str | None:
    """``path`` relative to its innermost ``repro`` directory (None: outside)."""
    parts = path.parts[:-1]
    for i in reversed(range(len(parts))):
        if parts[i] == "repro":
            return "/".join(path.parts[i + 1 :])
    return None


def lint_source(source: str, path: str | Path) -> list[LintFinding]:
    """Lint one Python source string; ``path`` drives rule scoping."""
    path = Path(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintFinding(
                str(path),
                exc.lineno or 0,
                exc.offset or 0,
                "RL000",
                "syntax-error",
                f"file does not parse: {exc.msg}",
            )
        ]
    checker = _Checker(
        str(path), _in_scope(path), _nested_defs(tree), _package_module(path)
    )
    checker.visit(tree)

    lines = source.splitlines()
    kept: list[LintFinding] = []
    for finding in checker.findings:
        line = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        match = _ALLOW_RE.search(line)
        if match:
            allowed = {
                token.strip().lower()
                for token in match.group(1).split(",")
            }
            if finding.code.lower() in allowed or finding.rule in allowed:
                continue
        kept.append(finding)
    return kept


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            out.update(
                f
                for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)
            )
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[LintFinding]:
    """Lint files/directories; filter rules by code or rule name."""

    def norm(tokens: Iterable[str]) -> set[str]:
        out: set[str] = set()
        for token in tokens:
            token = token.strip().lower()
            out.add(token)
            for code, (rule, _) in RULES.items():
                if token in (code.lower(), rule):
                    out.update({code.lower(), rule})
        return out

    selected = norm(select) if select else None
    ignored = norm(ignore) if ignore else set()
    findings: list[LintFinding] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(
                LintFinding(str(path), 0, 0, "RL000", "io-error", str(exc))
            )
            continue
        for finding in lint_source(source, path):
            key = {finding.code.lower(), finding.rule}
            if selected is not None and not (key & selected):
                continue
            if key & ignored:
                continue
            findings.append(finding)
    return findings


def render_findings(findings: Sequence[LintFinding]) -> str:
    lines = [str(f) for f in findings]
    lines.append(
        f"{len(findings)} finding(s)" if findings else "clean: 0 findings"
    )
    return "\n".join(lines)
