"""The gate on the gate: this repo's own source lints clean.

If a change introduces a determinism/invariant violation, this test
fails locally with the same finding the CI ``lint`` job would print —
fix it or add a reviewed ``# repro-lint: ignore[RULE]`` with a reason.
"""

import ast
from pathlib import Path

from repro.lint import LintConfig, lint_paths, lint_source
from repro.lint.engine import ModuleContext
from repro.runner import get_kernel, kernel_names

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


class TestSelfClean:
    def test_src_repro_has_zero_findings(self):
        report = lint_paths([SRC])
        assert report.n_files > 50, "lint walked suspiciously few files"
        assert report.failures == [], "\n" + "\n".join(
            f.render() for f in report.failures
        )

    def test_jobs_match_serial_on_real_tree(self):
        serial = lint_paths([SRC], jobs=1)
        parallel = lint_paths([SRC], jobs=4)
        assert serial.findings == parallel.findings

    def test_lint_package_lints_itself(self):
        report = lint_paths([SRC / "lint"])
        assert report.failures == []


class TestLintSeesTheKernelsThatRun:
    """PURE001 polices the registered functions themselves, not forwarders."""

    def test_every_registered_kernel_is_a_pure001_subject(self):
        import repro.experiments.cli  # noqa: F401 - registers every kernel

        subjects = set()
        for path in sorted((SRC / "experiments").glob("*.py")):
            source = path.read_text()
            tree = ast.parse(source)
            ctx = ModuleContext(str(path), source, tree, LintConfig())
            subjects |= {
                (f"repro.experiments.{path.stem}", node.name)
                for node in ast.walk(tree)
                if id(node) in ctx.kernel_function_ids
            }
        registered = {
            (fn.__module__, fn.__name__)
            for fn in map(get_kernel, kernel_names())
            if fn.__module__.startswith("repro.experiments.")
        }
        # A kernel registered under a decorator spelling that is not in
        # KERNEL_DECORATORS would be registered but not a subject.
        assert registered and registered == subjects

    def test_module_state_write_in_a_kernel_body_is_reported(self):
        path = SRC / "experiments" / "exp_durability.py"
        source = path.read_text()
        fn = next(
            node
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == "measure_durability"
        )
        lines = source.splitlines(keepends=True)
        # First statement after the docstring.
        lines.insert(fn.body[1].lineno - 1, '    _STATE["x"] = 1\n')
        config = LintConfig(select=frozenset({"PURE001"}))
        assert lint_source(source, path=str(path), config=config) == []
        planted = lint_source("".join(lines), path=str(path), config=config)
        assert [f.code for f in planted] == ["PURE001"]
        assert "measure_durability" in planted[0].message
        assert "_STATE" in planted[0].message
