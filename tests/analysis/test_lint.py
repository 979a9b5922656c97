"""Every lint rule gets a positive and a negative fixture, plus the
suppression mechanism and the src self-clean gate."""

from pathlib import Path
from textwrap import dedent

from repro.analysis.lint import (
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
            "pool = ProcessPoolExecutor(4, initializer=lambda: init())"
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


class TestSuppression:
    def test_allow_by_rule_name(self):
        assert codes("flag = x == 1.5  # lint: allow(float-eq)") == []

    def test_allow_by_code(self):
        assert codes("flag = x == 1.5  # lint: allow(RL003)") == []

    def test_allow_list(self):
        line = "flag = np.random.normal() == 1.5"
        assert codes(line) == ["RL003", "RL002"]
        assert codes(f"{line}  # lint: allow(float-eq, unseeded-rng)") == []

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
        assert set(RULES) == {"RL002", "RL003", "RL004"}


class TestSelfClean:
    def test_src_tree_is_lint_clean(self):
        findings = lint_paths([REPO_ROOT / "src"])
        assert findings == [], render_findings(findings)
