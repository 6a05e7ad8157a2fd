"""Repo-wide lint gate: the shipped tree must be clean.

This is the tier-1 enforcement point for the contracts in
:mod:`repro.lint`: any change that introduces a module-level RNG call,
an ill-conditioned solve, a float equality, an unknown design-space
parameter name, an API-hygiene violation, or a side effect that goes around its seam (console, clock, artifact files,
shared-file persistence, run records) in ``src/`` fails here — with the
finding list in the assertion message.
"""

import os

from repro.lint import LintRunner

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _render(findings):
    return "\n".join(f"{f.location()}: {f.rule} {f.message}" for f in findings)


def test_src_tree_is_lint_clean():
    result = LintRunner().run([SRC])
    assert result.files_checked > 50  # the walk really covered the tree
    assert result.ok, f"new lint findings in src/:\n{_render(result.findings)}"


def test_src_tree_needs_no_suppressions():
    # The shipped tree is clean outright: nothing hides behind noqa.
    result = LintRunner().run([SRC])
    assert not result.suppressed, (
        f"unexpected noqa-suppressed findings:\n{_render(result.suppressed)}"
    )


def test_benchmarks_and_examples_are_lint_clean():
    # Harnesses, examples and the end-to-end benchmark document the API
    # and seed its measurements; hold them to the same bar.
    result = LintRunner().run([
        os.path.join(REPO_ROOT, "benchmarks"),
        os.path.join(REPO_ROOT, "examples"),
        os.path.join(REPO_ROOT, "perfbench"),
    ])
    assert result.ok, (
        "new lint findings in benchmarks/examples/perfbench:\n"
        f"{_render(result.findings)}"
    )
