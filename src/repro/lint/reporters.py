"""Output formats for lint results: human text, machine JSON, and SARIF."""

from __future__ import annotations

import json
from typing import IO

from repro.lint.core import RULES, Finding
from repro.lint.runner import LintResult

#: Version stamped into JSON reports so consumers can detect schema drift.
JSON_SCHEMA_VERSION = 2

#: SARIF spec pinned by the report's ``version``/``$schema`` fields.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: LintResult, stream: IO[str]) -> None:
    """Write a flake8-style ``path:line:col: RULE message`` report."""
    for finding in result.findings:
        stream.write(
            f"{finding.location()}: {finding.rule} {finding.message}\n")
    counts = result.counts_by_rule()
    if counts:
        per_rule = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
        stream.write(
            f"\n{len(result.findings)} finding(s) in "
            f"{result.files_checked} file(s) ({per_rule})\n"
        )
    else:
        stream.write(f"{result.files_checked} file(s) checked, no findings\n")
    if result.suppressed:
        stream.write(f"[{len(result.suppressed)} suppressed by noqa]\n")
    if result.baselined:
        stream.write(f"[{len(result.baselined)} grandfathered by baseline]\n")


def render_json(result: LintResult, stream: IO[str]) -> None:
    """Write the result as a single machine-readable JSON document."""
    doc = {
        "schema": JSON_SCHEMA_VERSION,
        "tool": "repro.lint",
        "files_checked": result.files_checked,
        "ok": result.ok,
        "counts": result.counts_by_rule(),
        "findings": [f.as_dict() for f in result.findings],
        "suppressed": len(result.suppressed),
        "baselined": len(result.baselined),
    }
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _sarif_result(finding: Finding) -> dict:
    return {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path.replace("\\", "/"),
                },
                "region": {
                    "startLine": finding.line,
                    # SARIF columns are 1-based; findings carry 0-based.
                    "startColumn": finding.col + 1,
                },
            },
        }],
    }


def sarif_document(result: LintResult) -> dict:
    """Build the SARIF 2.1.0 log dict for ``result`` (one run, one tool)."""
    seen_rules = sorted({f.rule for f in result.findings})
    rules = []
    for rule_id in seen_rules:
        cls = RULES.get(rule_id)
        descriptor = {"id": rule_id}
        if cls is not None:
            descriptor["shortDescription"] = {"text": cls.title}
            if cls.rationale:
                descriptor["fullDescription"] = {"text": cls.rationale}
            descriptor["defaultConfiguration"] = {"level": "error"}
        rules.append(descriptor)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": rules,
                },
            },
            "results": [_sarif_result(f) for f in result.findings],
        }],
    }


def render_sarif(result: LintResult, stream: IO[str]) -> None:
    """Write the result as a SARIF 2.1.0 log (``--format sarif``)."""
    json.dump(sarif_document(result), stream, indent=2, sort_keys=True)
    stream.write("\n")


#: Reporter registry used by the CLI ``--format`` flag.
REPORTERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}
