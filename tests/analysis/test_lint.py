"""Every lint rule gets a positive and a negative fixture, plus the
suppression mechanism and the src self-clean gate."""

from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis.lint import (
    BANS,
    RULES,
    lint_paths,
    lint_source,
    render_findings,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: a path under a scoped component (activates RL002/RL003)
SCOPED = "src/repro/verification/somefile.py"
#: a path outside every scoped component
UNSCOPED = "src/repro/scenario/somefile.py"
#: the one module allowed to start process pools (exempt from RL006)
POOL = "src/repro/verification/pool.py"


def codes(source: str, path: str = SCOPED) -> list[str]:
    return [f.code for f in lint_source(dedent(source), path)]


class TestUnseededRng:
    def test_positive_default_rng_without_seed(self):
        assert codes("rng = np.random.default_rng()") == ["RL002"]

    def test_positive_legacy_global_rng(self):
        assert codes("x = np.random.normal(size=3)") == ["RL002"]

    def test_negative_seeded(self):
        assert codes("rng = np.random.default_rng(1234)") == []

    def test_negative_generator_method(self):
        # a Generator method is seeded state, not the global stream
        assert codes("x = rng.normal(size=3)") == []

    def test_out_of_scope_path_is_ignored(self):
        assert codes("x = np.random.normal(3)", path=UNSCOPED) == []


class TestFloatEq:
    def test_positive(self):
        assert codes("flag = value == 1.5") == ["RL003"]

    def test_positive_negative_literal(self):
        assert codes("flag = value != -2.25") == ["RL003"]

    def test_negative_zero_sentinel(self):
        assert codes("flag = value == 0.0") == []

    def test_negative_int_literal(self):
        assert codes("flag = value == 3") == []

    def test_out_of_scope_path_is_ignored(self):
        assert codes("flag = value == 1.5", path=UNSCOPED) == []


class TestPoolPicklable:
    def test_positive_lambda_submit(self):
        assert codes("pool.submit(lambda q: run(q), query)") == ["RL004"]

    def test_positive_nested_def(self):
        source = """
            def run_all(executor, items):
                def work(item):
                    return item + 1
                return list(executor.map(work, items))
        """
        assert codes(source) == ["RL004"]

    def test_positive_initializer_lambda(self):
        assert codes(
            "pool = ProcessPoolExecutor(4, initializer=lambda: init())", path=POOL
        ) == ["RL004"]

    def test_positive_worker_pool_initializer_lambda(self):
        assert codes(
            "pool = WorkerPool(4, state, initializer=lambda s: build(s))"
        ) == ["RL004"]

    def test_negative_worker_pool_module_level_initializer(self):
        source = """
            def build(state):
                return state

            def start(state):
                return WorkerPool(4, state, initializer=build)
        """
        assert codes(source) == []

    def test_negative_module_level_callable(self):
        source = """
            def work(item):
                return item + 1

            def run_all(executor, items):
                return list(executor.map(work, items))
        """
        assert codes(source) == []

    def test_negative_non_pool_receiver(self):
        assert codes("queue.submit(lambda: 1)") == []


class TestScipyImport:
    def test_positive_module_level_import(self):
        assert codes("from scipy.sparse import csc_matrix") == ["RL005"]
        assert codes("import scipy.optimize", path=UNSCOPED) == ["RL005"]
        assert codes("import numpy, scipy") == ["RL005"]

    def test_positive_module_level_try_block(self):
        """The binding import lp.py carried before it was deferred."""
        source = """
            try:
                from scipy.optimize._highspy import _core as _highs
            except ImportError:
                _highs = None
        """
        assert codes(source) == ["RL005"]

    def test_positive_class_body(self):
        source = """
            class Solver:
                from scipy.optimize import milp
        """
        assert codes(source) == ["RL005"]

    def test_positive_stats_inside_a_function(self):
        """The Clopper-Pearson quantile statistical.py once took from stats."""
        source = """
            def clopper_pearson_upper(k, n, confidence):
                from scipy import stats

                return float(stats.beta.ppf(confidence, k + 1, n - k))
        """
        assert codes(source) == ["RL005"]
        assert codes("def f():\n    import scipy.stats as st") == ["RL005"]
        assert codes("def f():\n    from scipy.stats import beta") == ["RL005"]

    def test_negative_function_level_import(self):
        source = """
            def solve(arrays):
                from scipy.optimize import linprog

                return linprog(arrays.c)

            async def later():
                import scipy.special
        """
        assert codes(source) == []

    def test_negative_type_checking_import(self):
        source = """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from scipy.sparse import csc_matrix
        """
        assert codes(source) == []

    def test_negative_other_packages(self):
        assert codes("import numpy as np\nfrom . import scipy") == []
        assert codes("import scipyx\nfrom scipy_like import x") == []

    def test_outside_the_package_is_ignored(self):
        assert codes("import scipy.optimize", path="tests/test_x.py") == []
        assert codes("from scipy import stats", path="benchmarks/b.py") == []


#: per ban rule: (source, path) it flags, then (source, path) it does not
BAN_CASES = {
    "pool-start": (
        ("ctx = multiprocessing.get_context('spawn')", "repro/api/x.py"),
        ("ctx = multiprocessing.get_context('spawn')", "repro/verification/pool.py"),
    ),
    "scene-render": (
        ("img = render_grounds(roads, camera, rng)", "repro/scenario/streaming.py"),
        ("img = render_grounds(roads, camera, rng)", "repro/scenario/regions.py"),
    ),
    "input-gradient": (
        ("y, g = program.value_and_input_gradient(x, m)", "repro/verification/x.py"),
        (
            "def value_and_input_gradient(self, x, m):\n    return x, m",
            "repro/verification/ir.py",
        ),
    ),
    "witness-features": (
        ("f = engine.model.prefix_apply(x, cut)", "repro/scenario/x.py"),
        ("f = engine.model.prefix_apply(x, cut)", "repro/verification/x.py"),
    ),
    "matmul-products": (
        ("y = np.einsum('ij,jk->ik', a, b)", "repro/nn/layers/x.py"),
        ("y = np.einsum('ij,jk->ik', a, b)", "repro/verification/x.py"),
    ),
    "batched-bounds": (
        ("def linear_lower_bound(self, e, a):\n    return 0.0", "repro/api/x.py"),
        ("lb = dom.linear_lower_bounds(enclosures, a)", "repro/api/x.py"),
    ),
    "conv-plan": (
        ("cols, ho, wo = im2col(x, k, s, p)", "repro/nn/x.py"),
        ("cols = op.columns(x)", "repro/nn/x.py"),
    ),
    "zero-bias": (
        ("b = np.zeros_like(op.bias)", "repro/verification/abstraction/x.py"),
        ("b = np.zeros_like(op.weight)", "repro/verification/abstraction/x.py"),
    ),
    "support-path": (
        ("def _each(batch, items, step):\n    pass", "repro/api/engine.py"),
        ("def _each_group(batch, items, step):\n    pass", "repro/api/engine.py"),
    ),
    "daemon-transport": (
        ("from urllib import request", "repro/service/client.py"),
        ("from urllib import request", "repro/interchange/x.py"),
    ),
}


@pytest.mark.parametrize("ban", BANS, ids=lambda ban: ban.rule)
class TestBans:
    def test_positive(self, ban):
        source, path = BAN_CASES[ban.rule][0]
        assert codes(source, path) == [ban.code]

    def test_negative(self, ban):
        source, path = BAN_CASES[ban.rule][1]
        assert codes(source, path) == []


class TestSuppression:
    def test_allow_by_rule_name(self):
        assert codes("flag = x == 1.5  # lint: allow(float-eq)") == []

    def test_allow_by_code(self):
        assert codes("flag = x == 1.5  # lint: allow(RL003)") == []

    def test_allow_list(self):
        line = "flag = np.random.normal() == 1.5"
        assert codes(line) == ["RL003", "RL002"]
        assert codes(f"{line}  # lint: allow(float-eq, unseeded-rng)") == []

    def test_allow_a_ban(self):
        line, path = "y = np.einsum('i,i', a, b)", "repro/nn/layers/x.py"
        assert codes(line, path) == ["RL010"]
        assert codes(f"{line}  # lint: allow(matmul-products)", path) == []

    def test_other_rule_not_suppressed(self):
        assert codes("flag = x == 1.5  # lint: allow(unseeded-rng)") == [
            "RL003"
        ]


class TestDriver:
    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", SCOPED)
        assert [f.code for f in findings] == ["RL000"]

    def test_lint_paths_select_and_ignore(self, tmp_path):
        bad = tmp_path / "verification" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("x = v == 1.5\nnp.random.seed(3)\n")
        all_codes = {f.code for f in lint_paths([tmp_path])}
        assert all_codes == {"RL002", "RL003"}
        only = lint_paths([tmp_path], select=["float-eq"])
        assert {f.code for f in only} == {"RL003"}
        rest = lint_paths([tmp_path], ignore=["RL003"])
        assert {f.code for f in rest} == {"RL002"}

    def test_lint_paths_select_and_ignore_a_ban(self, tmp_path):
        bad = tmp_path / "repro" / "api" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("pool = ProcessPoolExecutor(2)\nx = v == 1.5\n")
        assert {f.code for f in lint_paths([tmp_path])} == {"RL003", "RL006"}
        only = lint_paths([tmp_path], select=["pool-start"])
        assert {f.code for f in only} == {"RL006"}
        rest = lint_paths([tmp_path], ignore=["pool-start"])
        assert {f.code for f in rest} == {"RL003"}

    def test_findings_render_with_location(self, tmp_path):
        bad = tmp_path / "api" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("flag = x == 2.5\n")
        findings = lint_paths([tmp_path])
        text = render_findings(findings)
        assert f"{bad}:1:" in text
        assert "1 finding(s)" in text
        assert render_findings([]) == "clean: 0 findings"

    def test_rule_table_is_complete(self):
        assert set(RULES) == {
            "RL002", "RL003", "RL004", "RL005", "RL006", "RL007", "RL008",
            "RL009", "RL010", "RL011", "RL012", "RL013", "RL014", "RL015",
        }
        assert set(BAN_CASES) == {ban.rule for ban in BANS}


class TestSelfClean:
    def test_src_tree_is_lint_clean(self):
        findings = lint_paths([REPO_ROOT / "src"])
        assert findings == [], render_findings(findings)
